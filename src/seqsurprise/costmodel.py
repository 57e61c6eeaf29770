"""Cost constants and elementary complexity measures.

Everything is measured in bits.  A number is charged by its rank,
C_n = log2(n + 1), so small numbers are cheap and the scale is free of
units.  Structure operators (copy, increment, digit duplication, mirror,
segment starts) carry flat charges collected in :class:`CostModel`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

Bits = float

_CONFIG_INT_KEYS = ("stm_capacity",)
_CONFIG_FLOAT_KEYS = (
    "copy_cost",
    "dup_cost",
    "segment_start_cost",
    "mirror_cost",
    "zero_after_nine_cost",
)


def _check_bits(value: float, name: str) -> None:
    if math.isnan(value) or math.isinf(value) or value < 0.0:
        raise ValueError(f"{name} must be a finite nonnegative number of bits, got {value!r}")


@dataclass(frozen=True)
class CostModel:
    """Bit charges for the description operators.

    ``increment_cost_overrides`` maps a step size k to an explicit charge;
    absent entries fall back to log2(k + 1), which makes a +k step exactly
    as expensive as instantiating the number k.
    """

    copy_cost: Bits = 1.0
    dup_cost: Bits = 1.0
    segment_start_cost: Bits = 1.0
    mirror_cost: Bits = 2.0
    zero_after_nine_cost: Bits = 3.5
    stm_capacity: int = 4
    allowed_increments: frozenset[int] = frozenset({1, 2})
    increment_cost_overrides: tuple[tuple[int, Bits], ...] = ()

    def __post_init__(self) -> None:
        for name in _CONFIG_FLOAT_KEYS:
            _check_bits(getattr(self, name), name)
        if not isinstance(self.stm_capacity, int) or self.stm_capacity < 0:
            raise ValueError(f"stm_capacity must be a nonnegative int, got {self.stm_capacity!r}")
        if not self.allowed_increments:
            raise ValueError("allowed_increments must not be empty")
        object.__setattr__(self, "allowed_increments", frozenset(self.allowed_increments))
        for k in self.allowed_increments:
            if not isinstance(k, int) or k < 1:
                raise ValueError(f"increment steps must be positive ints, got {k!r}")
        for k, cost in self.increment_cost_overrides:
            if k < 1:
                raise ValueError(f"increment override for invalid step {k}")
            _check_bits(cost, f"increment_cost_{k}")

    def increment_cost(self, k: int) -> Bits:
        """Charge for a +k step; defaults to the rank cost of k itself."""
        if k < 1:
            raise ValueError(f"increment step must be >= 1, got {k}")
        for step, cost in self.increment_cost_overrides:
            if step == k:
                return cost
        return math.log2(k + 1)


DEFAULT_MODEL = CostModel()


def number_complexity(n: int) -> Bits:
    """Rank cost of instantiating the number n: log2(n + 1)."""
    if n < 0:
        raise ValueError(f"number_complexity is defined for nonnegative integers, got {n}")
    return math.log2(n + 1)


def digit_complexity(d: int, previous_digit: int | None = None,
                     model: CostModel | None = None) -> Bits:
    """Rank cost of a single digit, with one perceptual exception.

    A zero read right after a nine in the same digit stream is dearer than
    its rank suggests (the reading "round number after 9" is not the cheap
    zero), so it is charged ``zero_after_nine_cost`` instead of log2(1) = 0.
    """
    if not 0 <= d <= 9:
        raise ValueError(f"digit_complexity expects a digit 0..9, got {d}")
    if previous_digit is not None and not 0 <= previous_digit <= 9:
        raise ValueError(f"previous_digit must be a digit 0..9, got {previous_digit}")
    if d == 0 and previous_digit == 9:
        return (model or DEFAULT_MODEL).zero_after_nine_cost
    return math.log2(d + 1)


def aggregate_cost(fiber_bits: Bits, transfer_bits: Bits) -> Bits:
    """Total description cost: fiber (what is shown) plus transfer (how it repeats)."""
    _check_bits(fiber_bits, "fiber_bits")
    _check_bits(transfer_bits, "transfer_bits")
    return fiber_bits + transfer_bits


def model_to_config_text(model: CostModel) -> str:
    """Serialize a model to the flat key=value config format."""
    lines = [f"{key} = {getattr(model, key)!r}" for key in _CONFIG_FLOAT_KEYS]
    lines.append(f"stm_capacity = {model.stm_capacity}")
    incs = ",".join(str(k) for k in sorted(model.allowed_increments))
    lines.append(f"allowed_increments = {incs}")
    for k, cost in model.increment_cost_overrides:
        lines.append(f"increment_cost_{k} = {cost!r}")
    return "\n".join(lines) + "\n"


def model_from_config_text(text: str) -> CostModel:
    """Parse the flat key=value format; unknown keys are a hard error."""
    values: dict[str, object] = {}
    overrides: dict[int, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        try:
            if key in _CONFIG_FLOAT_KEYS:
                values[key] = float(val)
            elif key in _CONFIG_INT_KEYS:
                values[key] = int(val)
            elif key == "allowed_increments":
                steps = frozenset(int(part) for part in val.split(",") if part.strip())
                values[key] = steps
            elif key.startswith("increment_cost_"):
                overrides[int(key.removeprefix("increment_cost_"))] = float(val)
            else:
                raise KeyError(key)
        except KeyError:
            raise ValueError(f"config line {lineno}: unknown key {key!r}") from None
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: bad value for {key!r}: {exc}") from None
    if overrides:
        values["increment_cost_overrides"] = tuple(sorted(overrides.items()))
    return CostModel(**values)  # type: ignore[arg-type]
