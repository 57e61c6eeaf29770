"""Cost constants and elementary complexity measures.

Everything is measured in bits.  A number is charged by its rank,
C_n = log2(n + 1), so small numbers are cheap and the scale is free of
units.  Structure operators (copy, increment, digit duplication, mirror,
segment starts) carry flat charges collected in :class:`CostModel`.

This module also holds the three number rules the package checks by, each
raising ``ValueError`` with a message that names what it checked:
``_check_bits`` for a bit value the library takes (a charge, a fixed
expectation, a threshold), ``_check_int`` for a count and its lower bound
(a capacity, a step, a seed, a size), and ``_finite`` for a cost or
probability the library returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

Bits = float

_CONFIG_INT_KEYS = ("stm_capacity",)
_CONFIG_FLOAT_KEYS = (
    "copy_cost",
    "dup_cost",
    "segment_start_cost",
    "mirror_cost",
    "zero_after_nine_cost",
)


def _check_bits(value: object, name: str) -> None:
    """A bit value: a finite nonnegative real number, and not a bool."""
    try:
        finite = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # no float value, or an int past the largest float
        finite = False
    if not finite:
        raise ValueError(f"{name} must be a finite number of bits, got {value!r}")
    if value < 0.0:
        raise ValueError(f"{name} must be nonnegative, got {value!r}")


def _is_int(value: object) -> bool:
    # a bool is an int to Python, but the config format cannot write one back
    return isinstance(value, int) and not isinstance(value, bool)


def _check_int(value: object, name: str, minimum: int) -> None:
    """A count: an int, not a bool, of at least ``minimum``."""
    if not _is_int(value):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < minimum:
        bound = "nonnegative" if minimum == 0 else f">= {minimum}"
        raise ValueError(f"{name} must be {bound}, got {value}")


def _finite(value: float, what: str = "description cost") -> float:
    """A computed result, which must be a finite float; returned unchanged."""
    if not math.isfinite(value):
        raise ValueError(f"{what} is not a finite float, got {value!r}")
    return value


@dataclass(frozen=True)
class CostModel:
    """Bit charges for the description operators.

    ``increment_cost_overrides`` maps an allowed step size k to an explicit
    charge; absent entries fall back to log2(k + 1), which makes a +k step
    exactly as expensive as instantiating the number k.
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
        # Every charge is stored as a plain float with no negative zero, so
        # models that compare equal price and print alike and can share one
        # move table (``analyzer.move_table``).
        for name in _CONFIG_FLOAT_KEYS:
            _check_bits(getattr(self, name), name)
            object.__setattr__(self, name, float(getattr(self, name)) + 0.0)
        _check_int(self.stm_capacity, "stm_capacity", 0)
        if not self.allowed_increments:
            raise ValueError("allowed_increments must not be empty")
        object.__setattr__(self, "allowed_increments", frozenset(self.allowed_increments))
        for k in self.allowed_increments:
            _check_int(k, "increment step", 1)
        overrides: dict[int, Bits] = {}
        for k, cost in self.increment_cost_overrides:
            # An override for a step the model never takes would be ignored.
            if not _is_int(k) or k not in self.allowed_increments:
                raise ValueError(f"increment_cost_{k} names step {k}, which is not "
                                 f"in allowed_increments {sorted(self.allowed_increments)}")
            # A config holds one charge per step, so a second could not round-trip.
            if k in overrides:
                raise ValueError(f"increment_cost_{k} is given twice")
            _check_bits(cost, f"increment_cost_{k}")
            overrides[k] = float(cost) + 0.0
        object.__setattr__(self, "increment_cost_overrides", tuple(overrides.items()))

    def increment_cost(self, k: int) -> Bits:
        """Charge for a +k step; defaults to the rank cost of k itself."""
        if k < 1:
            raise ValueError(f"increment step must be >= 1, got {k}")
        for step, cost in self.increment_cost_overrides:
            if step == k:
                return cost
        return number_complexity(k)


DEFAULT_MODEL = CostModel()


def number_complexity(n: int) -> Bits:
    """Rank cost of instantiating the number n: log2(n + 1)."""
    if n < 0:
        raise ValueError(f"number_complexity is defined for nonnegative integers, got {n}")
    return math.log2(n + 1)


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
