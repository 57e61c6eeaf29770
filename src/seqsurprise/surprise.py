"""Unexpectedness and subjective probability.

A structure is unexpected when it is much simpler than the process that
was supposed to generate it: U = c_expected - c_observed, and the
subjective probability of the outcome is p = 2**-U.  For a k-digit
number the expected description copies an uninstantiated digit slot and
fills k digits independently from ten possibilities; an observed number
with internal repetition needs fewer independent digit choices, and the
gap is the surprise.

A :class:`SurpriseReport` holds the two costs and derives U and p from
them when it is built, so a report cannot carry figures that contradict
its costs; :func:`number_surprise` and :func:`sequence_surprise` price
both sides and build one.

A :class:`MonteCarloPool` samples from the same seeded PCG64 stream as the
lottery's draws, built in :mod:`seqsurprise._streams`.

Templates check their fields, and every cost and probability here is
checked when it is formed, by :mod:`seqsurprise.costmodel`'s number
rules, so a value past the largest float raises ``ValueError``.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ._streams import check_seed, generator
from .analyzer import analyze, price_many
from .costmodel import Bits, CostModel, DEFAULT_MODEL, _check_bits, _check_int, _finite

if TYPE_CHECKING:
    import numpy as np

DIGIT_CHOICE_BITS = math.log2(10.0)


@dataclass(frozen=True)
class KDigitNumber:
    """Expected process: k digits drawn independently, after one slot copy."""

    k: int

    def __post_init__(self) -> None:
        _check_int(self.k, "k", 1)
        # int * float converts k first, which overflows past about 1.8e308
        try:
            bits = self.k * DIGIT_CHOICE_BITS
        except OverflowError:
            bits = math.inf
        _finite(bits, "k is too large: the k-digit expected cost")


@dataclass(frozen=True)
class FixedBits:
    """Expected complexity stated directly."""

    value: Bits

    def __post_init__(self) -> None:
        _check_bits(self.value, "expected bits")


@dataclass(frozen=True)
class MonteCarloPool:
    """Expected complexity as the mean analyzer cost over sampled sequences."""

    sampler: Callable[[np.random.Generator], Sequence[int]]
    n_samples: int
    seed: int

    def __post_init__(self) -> None:
        _check_int(self.n_samples, "n_samples", 1)
        check_seed(self.seed)


ExpectationTemplate = KDigitNumber | FixedBits | MonteCarloPool


def expected_complexity(template: ExpectationTemplate,
                        model: CostModel = DEFAULT_MODEL) -> Bits:
    if isinstance(template, KDigitNumber):
        # each term is finite (KDigitNumber and CostModel check), but not their sum
        return _finite(model.copy_cost + template.k * DIGIT_CHOICE_BITS,
                       f"k is too large for copy_cost {model.copy_cost!r}: the k-digit "
                       "expected cost")
    if isinstance(template, FixedBits):
        return template.value
    if isinstance(template, MonteCarloPool):
        rng = generator(template.seed)  # loads numpy only when a pool is sampled
        samples = (template.sampler(rng) for _ in range(template.n_samples))
        total = 0.0
        # a left-to-right sum: sum() compensates float rounding from Python 3.12
        for bits in price_many(samples, model):
            total += bits
        return _finite(total, "the pool's summed sample cost") / template.n_samples
    raise TypeError(f"unknown expectation template {template!r}")


def subjective_probability(u: Bits) -> float:
    """p = 2**-U.  Values above 1 (negative U) are reported as computed;
    a ``p`` past the largest float raises ``ValueError``."""
    try:
        p = 2.0 ** (-u)
    except OverflowError:
        p = math.inf
    return _finite(p, f"subjective probability 2**{-u!r}")


def observed_number_complexity(n: int, model: CostModel = DEFAULT_MODEL
                               ) -> tuple[Bits, tuple[str, ...]]:
    """Description cost of one number read digit by digit.

    One copy charge creates the digit slots; each maximal run of equal
    digits then costs a single digit choice (log2 10), with a zero right
    after a nine charged at the model's dearer rate.  The digit choices are
    counted and priced by the same expression as the expected k-digit
    process, so a number with no repeated adjacent digits and no zero after
    a nine costs exactly that and carries no surprise (U = 0).  A total
    past the largest float raises ``ValueError``.
    """
    _check_int(n, "n", 0)
    digits = [int(ch) for ch in str(n)]
    choices = zeros_after_nine = 0
    lines = [f"digit-slot copy: {model.copy_cost:.6f}"]
    prev: int | None = None
    for d in digits:
        if prev is not None and d == prev:
            lines.append(f"digit {d}: repeat, free")
        elif d == 0 and prev == 9:
            zeros_after_nine += 1
            lines.append(f"digit {d}: {model.zero_after_nine_cost:.6f}")
        else:
            choices += 1
            lines.append(f"digit {d}: {DIGIT_CHOICE_BITS:.6f}")
        prev = d
    total = _finite(model.copy_cost + choices * DIGIT_CHOICE_BITS
                    + zeros_after_nine * model.zero_after_nine_cost,
                    "the number's digit-by-digit cost")
    lines.append(f"total: {total:.6f}")
    return total, tuple(lines)


@dataclass(frozen=True)
class SurpriseReport:
    """Costs of the expected and the observed description, and what follows
    from them when the report is built: U = c_expected - c_observed, which
    is negative for an outcome clumsier than expected, and
    p = subjective_probability(U)."""

    c_expected: Bits
    c_observed: Bits
    trace: tuple[str, ...] = ()
    u: Bits = field(init=False)
    p: float = field(init=False)

    def __post_init__(self) -> None:
        u = self.c_expected - self.c_observed
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "p", subjective_probability(u))

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
        }


def number_surprise(n: int, template: ExpectationTemplate | None = None,
                    model: CostModel = DEFAULT_MODEL) -> SurpriseReport:
    """Surprise of one number against a k-digit expectation.

    Without an explicit template the number's own digit count is used.
    """
    c_obs, trace = observed_number_complexity(n, model)
    if template is None:
        template = KDigitNumber(len(str(n)))
    return SurpriseReport(expected_complexity(template, model), c_obs, trace)


def sequence_surprise(seq: Sequence[int], template: ExpectationTemplate,
                      model: CostModel = DEFAULT_MODEL) -> SurpriseReport:
    """Surprise of a token sequence against an explicit expectation."""
    prog = analyze(seq, model)
    return SurpriseReport(expected_complexity(template, model), prog.total_cost,
                          tuple(prog.trace_lines()))
