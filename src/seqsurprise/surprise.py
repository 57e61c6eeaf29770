"""Unexpectedness and subjective probability.

A structure is unexpected when it is much simpler than the process that
was supposed to generate it: U = c_expected - c_observed, and the
subjective probability of the outcome is p = 2**-U.  For a k-digit
number the expected description copies an uninstantiated digit slot and
fills k digits independently from ten possibilities; an observed number
with internal repetition needs fewer independent digit choices, and the
gap is the surprise.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .analyzer import analyze, analyze_many
from .costmodel import Bits, CostModel, DEFAULT_MODEL

DIGIT_CHOICE_BITS = math.log2(10.0)


@dataclass(frozen=True)
class KDigitNumber:
    """Expected process: k digits drawn independently, after one slot copy."""

    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"a k-digit template needs k >= 1, got {self.k}")


@dataclass(frozen=True)
class FixedBits:
    """Expected complexity stated directly."""

    value: Bits

    def __post_init__(self) -> None:
        if not math.isfinite(self.value) or self.value < 0.0:
            raise ValueError(f"expected bits must be finite and >= 0, got {self.value!r}")


@dataclass(frozen=True)
class MonteCarloPool:
    """Expected complexity as the mean analyzer cost over sampled sequences."""

    sampler: Callable[[np.random.Generator], Sequence[int]]
    n_samples: int
    seed: int

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")


ExpectationTemplate = KDigitNumber | FixedBits | MonteCarloPool


def expected_complexity(template: ExpectationTemplate,
                        model: CostModel = DEFAULT_MODEL) -> Bits:
    if isinstance(template, KDigitNumber):
        return model.copy_cost + template.k * DIGIT_CHOICE_BITS
    if isinstance(template, FixedBits):
        return template.value
    if isinstance(template, MonteCarloPool):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(template.seed)))
        samples = (template.sampler(rng) for _ in range(template.n_samples))
        total = 0.0
        for prog in analyze_many(samples, model):
            total += prog.total_cost
        return total / template.n_samples
    raise TypeError(f"unknown expectation template {template!r}")


def unexpectedness(c_expected: Bits, c_observed: Bits) -> Bits:
    """U = c_expected - c_observed; may be negative for clumsy outcomes."""
    return c_expected - c_observed


def subjective_probability(u: Bits) -> float:
    """p = 2**-U.  Values above 1 (negative U) are reported as computed."""
    return 2.0 ** (-u)


def algorithmic_probability(c_bits: Bits) -> float:
    """Probability weight 2**-C of a structure of complexity C bits."""
    if c_bits < 0.0:
        raise ValueError(f"complexity must be >= 0 bits, got {c_bits}")
    return 2.0 ** (-c_bits)


def observed_number_complexity(n: int, model: CostModel = DEFAULT_MODEL
                               ) -> tuple[Bits, tuple[str, ...]]:
    """Description cost of one number read digit by digit.

    One copy charge creates the digit slots; each maximal run of equal
    digits then costs a single digit choice (log2 10), with a zero right
    after a nine charged at the model's dearer rate.  A number with no
    repeated adjacent digits therefore costs exactly the expected k-digit
    process and carries no surprise.
    """
    if n < 0:
        raise ValueError(f"expected a nonnegative number, got {n}")
    digits = [int(ch) for ch in str(n)]
    total = model.copy_cost
    lines = [f"digit-slot copy: {model.copy_cost:.6f}"]
    prev: int | None = None
    for d in digits:
        if prev is not None and d == prev:
            lines.append(f"digit {d}: repeat, free")
        else:
            bits = (model.zero_after_nine_cost
                    if d == 0 and prev == 9 else DIGIT_CHOICE_BITS)
            total += bits
            lines.append(f"digit {d}: {bits:.6f}")
        prev = d
    lines.append(f"total: {total:.6f}")
    return total, tuple(lines)


@dataclass(frozen=True)
class SurpriseReport:
    c_expected: Bits
    c_observed: Bits
    u: Bits
    p: float
    trace: tuple[str, ...] = field(default=())

    @property
    def p_exceeds_one(self) -> bool:
        return self.p > 1.0

    def to_json_dict(self) -> dict:
        return {
            "c_exp": self.c_expected,
            "c_obs": self.c_observed,
            "u": self.u,
            "p": self.p,
            "p_exceeds_one": self.p_exceeds_one,
            "trace": list(self.trace),
        }


def surprise_from_costs(c_expected: Bits, c_observed: Bits,
                        trace: Sequence[str] = ()) -> SurpriseReport:
    u = unexpectedness(c_expected, c_observed)
    return SurpriseReport(c_expected, c_observed, u, subjective_probability(u),
                          tuple(trace))


def number_surprise(n: int, template: ExpectationTemplate | None = None,
                    model: CostModel = DEFAULT_MODEL) -> SurpriseReport:
    """Surprise of one number against a k-digit expectation.

    Without an explicit template the number's own digit count is used.
    """
    c_obs, trace = observed_number_complexity(n, model)
    if template is None:
        template = KDigitNumber(len(str(n)))
    c_exp = expected_complexity(template, model)
    return surprise_from_costs(c_exp, c_obs, trace)


def sequence_surprise(seq: Sequence[int], template: ExpectationTemplate,
                      model: CostModel = DEFAULT_MODEL) -> SurpriseReport:
    """Surprise of a token sequence against an explicit expectation."""
    prog = analyze(seq, model)
    return surprise_from_costs(expected_complexity(template, model),
                               prog.total_cost, prog.trace_lines())
