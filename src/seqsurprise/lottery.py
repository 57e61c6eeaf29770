"""Lottery bulletin experiment: complexity ranking and avoidance statistics.

A bulletin mixes a fixed set of structured combinations with fresh random
draws.  Simulated subjects pick combinations from their bulletin; under
the complexity-weighted choice model any combination simpler than the
threshold is never picked, which reproduces the empty low-complexity end
of the observed choice histogram.  The headline statistic is the chance
that every subject avoids the simplest combinations if picks were
uniform.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .analyzer import analyze
from .costmodel import Bits, CostModel, DEFAULT_MODEL

POOL_SIZE = 49
COMBINATION_LENGTH = 6
# Replications drawn per vectorized Monte-Carlo batch; bounds its memory.
_MC_CHUNK = 100_000


@dataclass(frozen=True)
class LotteryCombination:
    """Six distinct numbers from 1..49, stored ascending."""

    numbers: tuple[int, ...]

    def __post_init__(self) -> None:
        nums = tuple(sorted(self.numbers))
        if len(nums) != COMBINATION_LENGTH:
            raise ValueError(f"a combination has {COMBINATION_LENGTH} numbers, got {len(nums)}")
        if len(set(nums)) != COMBINATION_LENGTH:
            raise ValueError(f"combination numbers must be distinct: {nums}")
        if nums[0] < 1 or nums[-1] > POOL_SIZE:
            raise ValueError(f"combination numbers must lie in 1..{POOL_SIZE}: {nums}")
        object.__setattr__(self, "numbers", nums)

    def __str__(self) -> str:
        return " ".join(str(n) for n in self.numbers)


def _c(*numbers: int) -> LotteryCombination:
    return LotteryCombination(tuple(numbers))


# Structured reference set, listed from simplest to most complex reading.
# The middle group of three is expected to land close together.
REFERENCE_COMBINATIONS: tuple[LotteryCombination, ...] = (
    _c(1, 2, 3, 4, 5, 6),
    _c(34, 35, 36, 37, 38, 39),
    _c(10, 11, 12, 44, 45, 46),
    _c(7, 8, 9, 37, 38, 39),
    _c(8, 9, 26, 27, 28, 29),
    _c(10, 20, 30, 31, 32, 33),
    _c(1, 2, 5, 6, 15, 49),
    _c(14, 24, 36, 38, 42, 44),
)
REFERENCE_GROUPS: tuple[tuple[int, ...], ...] = ((0,), (1,), (2,), (3, 4, 5), (6,), (7,))
REFERENCE_TRIO_SPAN_BITS = 1.0
REFERENCE_SEPARATION_BITS = 2.0

# Default fixed bulletin content: the reference set, one moderately
# structured extra, and one unstructured filler to reach ten entries.
DEFAULT_FIXED_COMBINATIONS: tuple[LotteryCombination, ...] = REFERENCE_COMBINATIONS + (
    _c(6, 17, 21, 28, 37, 42),
    _c(5, 11, 22, 27, 33, 46),
)


class GenerationError(RuntimeError):
    """Bulletin generation could not satisfy the uniqueness constraints."""


def combination_complexity(combo: LotteryCombination,
                           model: CostModel = DEFAULT_MODEL) -> Bits:
    """Description cost of the combination read in ascending order."""
    return analyze(list(combo.numbers), model).total_cost


def rank_combinations(combos: Iterable[LotteryCombination],
                      model: CostModel = DEFAULT_MODEL
                      ) -> list[tuple[LotteryCombination, Bits]]:
    """Sort simplest first; equal costs fall back to numeric order."""
    scored = [(combo, combination_complexity(combo, model)) for combo in combos]
    scored.sort(key=lambda item: (item[1], item[0].numbers))
    return scored


@dataclass(frozen=True)
class ReferenceRankReport:
    rows: tuple[tuple[LotteryCombination, Bits], ...]
    order_ok: bool
    trio_span: Bits
    trio_span_ok: bool
    separation: Bits
    separation_ok: bool

    @property
    def ok(self) -> bool:
        return self.order_ok and self.trio_span_ok and self.separation_ok


def reference_rank_report(model: CostModel = DEFAULT_MODEL) -> ReferenceRankReport:
    """Check the reference set lands in its expected complexity order.

    Group costs must rise strictly from group to group, the middle trio
    must stay within one bit of itself, and the two simplest entries must
    sit at least two bits below everything else.
    """
    rows = tuple((combo, combination_complexity(combo, model))
                 for combo in REFERENCE_COMBINATIONS)
    costs = [bits for _, bits in rows]
    order_ok = True
    prev_max = -math.inf
    for group in REFERENCE_GROUPS:
        group_min = min(costs[i] for i in group)
        if group_min <= prev_max:
            order_ok = False
        prev_max = max(costs[i] for i in group)
    trio = [costs[i] for i in REFERENCE_GROUPS[3]]
    trio_span = max(trio) - min(trio)
    others = costs[2:]
    separation = min(min(o - costs[0] for o in others),
                     min(o - costs[1] for o in others))
    return ReferenceRankReport(
        rows=rows,
        order_ok=order_ok,
        trio_span=trio_span,
        trio_span_ok=trio_span <= REFERENCE_TRIO_SPAN_BITS,
        separation=separation,
        separation_ok=separation >= REFERENCE_SEPARATION_BITS,
    )


# --- experiment -----------------------------------------------------------

UNIFORM = "uniform"
COMPLEXITY_WEIGHTED = "complexity_weighted"


@dataclass(frozen=True)
class ChoiceModel:
    """How a subject picks from the bulletin.

    ``complexity_weighted`` refuses anything simpler than ``tau`` bits
    (weight zero) and treats the rest as interchangeable (weight one):
    the exponential suppression of simple combinations is total below
    the threshold.
    """

    kind: str = UNIFORM
    tau: Bits = 7.0

    def __post_init__(self) -> None:
        if self.kind not in (UNIFORM, COMPLEXITY_WEIGHTED):
            raise ValueError(f"unknown choice model kind {self.kind!r}")

    def weight(self, bits: Bits) -> float:
        if self.kind == UNIFORM:
            return 1.0
        return 1.0 if bits >= self.tau else 0.0


@dataclass(frozen=True)
class ExperimentConfig:
    fixed_combinations: tuple[LotteryCombination, ...] = DEFAULT_FIXED_COMBINATIONS
    n_random: int = 4
    n_choices_per_subject: int = 2
    n_subjects: int = 26
    seed: int = 0
    choice_model: ChoiceModel = ChoiceModel()

    def __post_init__(self) -> None:
        if self.n_random < 0 or self.n_choices_per_subject < 0 or self.n_subjects < 0:
            raise ValueError("experiment sizes must be nonnegative")
        total = len(self.fixed_combinations) + self.n_random
        if self.n_choices_per_subject > total:
            raise ValueError(
                f"cannot pick {self.n_choices_per_subject} from a bulletin of {total}")


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    per_subject_choices: tuple[tuple[int, ...], ...]
    per_subject_chosen_bits: tuple[tuple[Bits, ...], ...]
    histogram: dict[int, int]
    avoided_all_simplest: tuple[bool, ...]
    uniform_fallback: bool

    @property
    def all_subjects_avoided(self) -> bool:
        return all(self.avoided_all_simplest)

    def histogram_csv(self) -> str:
        lines = ["bin,count"]
        for b in sorted(self.histogram):
            lines.append(f"{b},{self.histogram[b]}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "n_subjects": self.config.n_subjects,
            "n_choices_per_subject": self.config.n_choices_per_subject,
            "seed": self.config.seed,
            "choice_model": self.config.choice_model.kind,
            "tau": self.config.choice_model.tau,
            "histogram": {str(b): c for b, c in sorted(self.histogram.items())},
            "all_subjects_avoided_simplest": self.all_subjects_avoided,
            "n_subjects_avoiding_simplest": sum(self.avoided_all_simplest),
            "uniform_fallback": self.uniform_fallback,
        }


def _subject_rng(seed: int, subject: int) -> np.random.Generator:
    # One documented stream per subject: PCG64 seeded by (seed, subject).
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=(subject,))))


def _draw_random_combination(rng: np.random.Generator) -> LotteryCombination:
    picks = rng.choice(POOL_SIZE, size=COMBINATION_LENGTH, replace=False) + 1
    return LotteryCombination(tuple(int(n) for n in picks))


def generate_bulletin(config: ExperimentConfig,
                      rng: np.random.Generator | None = None
                      ) -> list[LotteryCombination]:
    """Fixed combinations plus fresh distinct random draws, shuffled.

    Same config and seed give the same bulletin.  Raises
    :class:`GenerationError` if distinct draws cannot be found in a
    bounded number of attempts.
    """
    if rng is None:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(config.seed)))
    seen = {combo.numbers for combo in config.fixed_combinations}
    if len(seen) != len(config.fixed_combinations):
        raise GenerationError("fixed combinations are not distinct")
    bulletin = list(config.fixed_combinations)
    attempts = 0
    while len(bulletin) < len(config.fixed_combinations) + config.n_random:
        attempts += 1
        if attempts > 1000 * (config.n_random + 1):
            raise GenerationError(
                f"could not draw {config.n_random} distinct combinations")
        combo = _draw_random_combination(rng)
        if combo.numbers in seen:
            continue
        seen.add(combo.numbers)
        bulletin.append(combo)
    order = rng.permutation(len(bulletin))
    return [bulletin[i] for i in order]


def _marked_simplest(config: ExperimentConfig, model: CostModel) -> set[tuple[int, ...]]:
    ranked = rank_combinations(config.fixed_combinations, model)
    return {combo.numbers for combo, _ in ranked[:2]}


def _pick_weighted(rng: np.random.Generator, weights: list[float],
                   n_picks: int) -> tuple[list[int], bool]:
    """Sequential weighted sampling without replacement; zero-sum weights
    fall back to uniform and flag it."""
    remaining = list(range(len(weights)))
    chosen: list[int] = []
    fallback = False
    for _ in range(n_picks):
        w = [weights[i] for i in remaining]
        total = sum(w)
        if total <= 0.0:
            fallback = True
            w = [1.0] * len(remaining)
            total = float(len(remaining))
        r = rng.random() * total
        acc = 0.0
        pick_pos = len(remaining) - 1
        for pos, wi in enumerate(w):
            acc += wi
            if r < acc:
                pick_pos = pos
                break
        chosen.append(remaining.pop(pick_pos))
    return chosen, fallback


def simulate_subjects(config: ExperimentConfig,
                      model: CostModel = DEFAULT_MODEL) -> ExperimentResult:
    """Run the bulletin experiment for every subject.

    Each subject sees the fixed combinations plus their own fresh random
    draws, then picks ``n_choices_per_subject`` combinations under the
    configured choice model.  The histogram bins chosen complexities by
    integer floor.  Histogram mass equals subjects times choices.
    """
    marked = _marked_simplest(config, model)
    choices: list[tuple[int, ...]] = []
    chosen_bits: list[tuple[Bits, ...]] = []
    histogram: dict[int, int] = {}
    avoided: list[bool] = []
    fallback_seen = False
    for s in range(config.n_subjects):
        rng = _subject_rng(config.seed, s)
        bulletin = generate_bulletin(config, rng)
        bits = [combination_complexity(c, model) for c in bulletin]
        weights = [config.choice_model.weight(b) for b in bits]
        picked, fallback = _pick_weighted(rng, weights, config.n_choices_per_subject)
        fallback_seen = fallback_seen or fallback
        choices.append(tuple(picked))
        chosen_bits.append(tuple(bits[i] for i in picked))
        for i in picked:
            histogram[math.floor(bits[i])] = histogram.get(math.floor(bits[i]), 0) + 1
        avoided.append(all(bulletin[i].numbers not in marked for i in picked))
    return ExperimentResult(
        config=config,
        per_subject_choices=tuple(choices),
        per_subject_chosen_bits=tuple(chosen_bits),
        histogram=histogram,
        avoided_all_simplest=tuple(avoided),
        uniform_fallback=fallback_seen,
    )


# --- avoidance statistics -------------------------------------------------

def avoidance_probability(n_total: int, n_choices: int, n_avoided: int,
                          n_subjects: int) -> float:
    """Chance that every subject's uniform picks miss the marked entries.

    Exact closed form: [C(n_total - n_avoided, n_choices) /
    C(n_total, n_choices)] ** n_subjects, evaluated as a rational before
    conversion to float.
    """
    if min(n_total, n_choices, n_avoided, n_subjects) < 0:
        raise ValueError("all arguments must be nonnegative")
    if n_choices + n_avoided > n_total:
        raise ValueError(
            f"cannot choose {n_choices} while avoiding {n_avoided} among {n_total}")
    single = Fraction(math.comb(n_total - n_avoided, n_choices),
                      math.comb(n_total, n_choices))
    return float(single ** n_subjects)


def avoidance_probability_mc(n_total: int, n_choices: int, n_avoided: int,
                             n_subjects: int, n_replications: int, seed: int) -> float:
    """Monte-Carlo estimate of the same probability by direct simulation.

    Each replication draws, for every subject, ``n_choices`` distinct
    uniform picks out of ``n_total`` and checks that none hits the
    ``n_avoided`` marked entries.  The two-choice case is vectorized;
    other sizes run through a plain loop.
    """
    if n_replications < 1:
        raise ValueError("n_replications must be >= 1")
    avoidance_probability(n_total, n_choices, n_avoided, n_subjects)  # validate args
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    hits = 0
    if n_choices == 2:
        remaining = n_replications
        while remaining > 0:
            m = min(_MC_CHUNK, remaining)
            a = rng.integers(0, n_total, size=(m, n_subjects), dtype=np.int16)
            b = rng.integers(0, n_total - 1, size=(m, n_subjects), dtype=np.int16)
            b = b + (b >= a)  # second pick distinct from the first
            avoided = (a >= n_avoided) & (b >= n_avoided)
            hits += int(avoided.all(axis=1).sum())
            remaining -= m
    else:
        for _ in range(n_replications):
            ok = True
            for _ in range(n_subjects):
                picks = rng.choice(n_total, size=n_choices, replace=False)
                if (picks < n_avoided).any():
                    ok = False
                    break
            hits += ok
    return hits / n_replications


# --- bulletin text I/O ----------------------------------------------------

def format_bulletin(combos: Sequence[LotteryCombination]) -> str:
    return "\n".join(str(c) for c in combos) + "\n"


def parse_bulletin(text: str) -> list[LotteryCombination]:
    """Parse one combination per line; errors carry the line number."""
    combos = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.replace(",", " ").split()
        try:
            numbers = tuple(int(p) for p in parts)
            combos.append(LotteryCombination(numbers))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return combos
