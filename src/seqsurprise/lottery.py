"""Lottery bulletin experiment: complexity ranking and avoidance statistics.

A bulletin mixes a fixed set of structured combinations with fresh random
draws.  Simulated subjects pick combinations from their bulletin; under
the complexity-weighted choice model any combination simpler than the
threshold is never picked, which reproduces the empty low-complexity end
of the observed choice histogram.  The headline statistic is the chance
that every subject avoids the simplest combinations if picks were
uniform.

Every draw comes from a PCG64 stream that :mod:`seqsurprise._streams`
builds from the experiment's seed.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ._streams import check_seed, generator
from .analyzer import _price_valid, check_sequence
from .costmodel import Bits, CostModel, DEFAULT_MODEL, _check_bits, _check_int

# Only the functions that draw random numbers import numpy, so that
# commands which only price tickets start without loading it.
if TYPE_CHECKING:
    import numpy as np

POOL_SIZE = 49
COMBINATION_LENGTH = 6
# Replications drawn per Monte-Carlo batch.  It decides where the draws are
# split, so changing it changes the estimates.  A batch holds two arrays of
# rows x n_subjects draws (int16 up to 2**15 entries), and its rows are
# also capped so that it holds at most _MC_CELLS draws per array; streams
# with at most 200 subjects never reach that cap.
_MC_CHUNK = 100_000
_MC_CELLS = 200 * _MC_CHUNK


@dataclass(frozen=True)
class LotteryCombination:
    """Six distinct numbers from 1..49, stored ascending."""

    numbers: tuple[int, ...]

    def __post_init__(self) -> None:
        nums = tuple(sorted(check_sequence(self.numbers)))
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


def combination_complexity(combo: LotteryCombination,
                           model: CostModel = DEFAULT_MODEL) -> Bits:
    """Description cost of the combination read in ascending order."""
    return next(_price_valid([combo.numbers], model))


def rank_combinations(combos: Iterable[LotteryCombination],
                      model: CostModel = DEFAULT_MODEL
                      ) -> list[tuple[LotteryCombination, Bits]]:
    """Sort simplest first; equal costs fall back to numeric order."""
    combos = list(combos)
    scored = list(zip(combos, _price_valid([combo.numbers for combo in combos], model)))
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
    rows = tuple(zip(REFERENCE_COMBINATIONS,
                     _price_valid([combo.numbers for combo in REFERENCE_COMBINATIONS],
                                  model)))
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
# The simplest fixed combinations, marked: the avoidance statistics ask
# whether every subject missed all of them.
N_MARKED = 2


@dataclass(frozen=True)
class ChoiceModel:
    """How a subject picks from the bulletin.

    ``uniform`` gives every entry weight one and has no threshold: its
    ``tau`` is ``None``, and it refuses one.  ``complexity_weighted``
    refuses anything simpler than ``tau`` bits, 7 unless given (weight
    zero), and treats the rest as interchangeable (weight one): the
    exponential suppression of simple combinations is total below the
    threshold.
    """

    kind: str = UNIFORM
    tau: Bits | None = None

    def __post_init__(self) -> None:
        if self.kind not in (UNIFORM, COMPLEXITY_WEIGHTED):
            raise ValueError(f"unknown choice model kind {self.kind!r}")
        if self.kind == UNIFORM:
            if self.tau is not None:
                raise ValueError(f"tau applies only to the {COMPLEXITY_WEIGHTED} choice "
                                 f"model, got {self.tau!r} with {UNIFORM}")
        elif self.tau is None:
            object.__setattr__(self, "tau", 7.0)
        else:
            _check_bits(self.tau, "tau")

    def weight(self, bits: Bits) -> float:
        return 1.0 if self.tau is None or bits >= self.tau else 0.0


@dataclass(frozen=True)
class ExperimentConfig:
    fixed_combinations: tuple[LotteryCombination, ...] = DEFAULT_FIXED_COMBINATIONS
    n_random: int = 4
    n_choices_per_subject: int = 2
    n_subjects: int = 26
    seed: int = 0
    choice_model: ChoiceModel = ChoiceModel()

    def __post_init__(self) -> None:
        for name in ("n_random", "n_choices_per_subject", "n_subjects"):
            _check_int(getattr(self, name), name, 0)
        check_seed(self.seed)
        if not isinstance(self.choice_model, ChoiceModel):
            raise ValueError(f"choice_model must be a ChoiceModel, got {self.choice_model!r}")
        for combo in self.fixed_combinations:
            if not isinstance(combo, LotteryCombination):
                raise ValueError(f"fixed_combinations must be LotteryCombinations, got {combo!r}")
        if len({combo.numbers for combo in self.fixed_combinations}) != len(
                self.fixed_combinations):
            raise ValueError("fixed combinations must be distinct")
        # More draws than tickets left would never end.
        free = math.comb(POOL_SIZE, COMBINATION_LENGTH) - len(self.fixed_combinations)
        if self.n_random > free:
            raise ValueError(
                f"cannot draw {self.n_random} distinct random combinations: "
                f"only {free} are not fixed")
        if self.n_choices_per_subject > self.n_bulletin:
            raise ValueError(
                f"cannot pick {self.n_choices_per_subject} from a bulletin of {self.n_bulletin}")

    @property
    def n_bulletin(self) -> int:
        """Entries on each subject's bulletin: the fixed ones plus the random draws."""
        return len(self.fixed_combinations) + self.n_random


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

    def to_json_dict(self) -> dict:
        """The record's fields; ``tau`` only for a model that has one."""
        record = {
            "n_subjects": self.config.n_subjects,
            "n_choices_per_subject": self.config.n_choices_per_subject,
            "seed": self.config.seed,
            "choice_model": self.config.choice_model.kind,
            "histogram": {str(b): c for b, c in sorted(self.histogram.items())},
            "all_subjects_avoided_simplest": self.all_subjects_avoided,
            "n_subjects_avoiding_simplest": sum(self.avoided_all_simplest),
            "uniform_fallback": self.uniform_fallback,
        }
        if self.config.choice_model.tau is not None:
            record["tau"] = self.config.choice_model.tau
        return record


def histogram_csv(histogram: dict[int, int]) -> str:
    """A complexity histogram as a ``bin,count`` table, bins ascending."""
    return "bin,count\n" + "".join(f"{b},{histogram[b]}\n" for b in sorted(histogram))


def _draw_random_combination(rng: np.random.Generator) -> LotteryCombination:
    picks = rng.choice(POOL_SIZE, size=COMBINATION_LENGTH, replace=False).tolist()
    return LotteryCombination(tuple(n + 1 for n in picks))


def generate_bulletin(config: ExperimentConfig,
                      rng: np.random.Generator | None = None
                      ) -> list[LotteryCombination]:
    """Fixed combinations plus fresh distinct random draws, shuffled.

    Same config and seed give the same bulletin.
    """
    if rng is None:
        rng = generator(config.seed)
    seen = {combo.numbers for combo in config.fixed_combinations}
    bulletin = list(config.fixed_combinations)
    while len(bulletin) < config.n_bulletin:
        combo = _draw_random_combination(rng)
        if combo.numbers in seen:
            continue
        seen.add(combo.numbers)
        bulletin.append(combo)
    order = rng.permutation(len(bulletin)).tolist()
    return [bulletin[i] for i in order]


def _pick_allowed(rng: np.random.Generator, allowed: list[bool],
                  n_picks: int) -> tuple[list[int], bool]:
    """Uniform picks without replacement among the allowed entries, one
    ``rng.random()`` per pick; once none is left, uniform among all the
    remaining entries, flagged as a fallback."""
    remaining = list(range(len(allowed)))
    chosen: list[int] = []
    fallback = False
    for _ in range(n_picks):
        pool = [pos for pos, i in enumerate(remaining) if allowed[i]]
        if not pool:
            fallback = True
            pool = list(range(len(remaining)))
        # random() < 1, so the scaled draw stays below len(pool).
        chosen.append(remaining.pop(pool[int(rng.random() * len(pool))]))
    return chosen, fallback


def simulate_subjects(config: ExperimentConfig,
                      model: CostModel = DEFAULT_MODEL) -> ExperimentResult:
    """Run the bulletin experiment for every subject.

    Each subject sees the fixed combinations plus their own fresh random
    draws, then picks ``n_choices_per_subject`` combinations under the
    configured choice model.  The histogram bins chosen complexities by
    integer floor.  Histogram mass equals subjects times choices.
    """
    # Each subject's stream draws the bulletin and then the picks, so all
    # bulletins can be drawn first and every distinct ticket priced once.
    subjects = []
    for s in range(config.n_subjects):
        rng = generator(config.seed, s)
        subjects.append((rng, generate_bulletin(config, rng)))
    tickets = dict.fromkeys([combo.numbers for combo in config.fixed_combinations]
                            + [combo.numbers for _, bulletin in subjects
                               for combo in bulletin])
    bits_of = dict(zip(tickets, _price_valid(tickets, model)))
    fixed = sorted((combo.numbers for combo in config.fixed_combinations),
                   key=lambda numbers: (bits_of[numbers], numbers))
    marked = set(fixed[:N_MARKED])
    choices: list[tuple[int, ...]] = []
    chosen_bits: list[tuple[Bits, ...]] = []
    histogram: dict[int, int] = {}
    avoided: list[bool] = []
    fallback_seen = False
    for rng, bulletin in subjects:
        bits = [bits_of[c.numbers] for c in bulletin]
        allowed = [config.choice_model.weight(b) > 0.0 for b in bits]
        picked, fallback = _pick_allowed(rng, allowed, config.n_choices_per_subject)
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

def _check_avoidance_args(n_total: int, n_choices: int, n_avoided: int,
                          n_subjects: int) -> None:
    for name, value in zip(("n_total", "n_choices", "n_avoided", "n_subjects"),
                           (n_total, n_choices, n_avoided, n_subjects)):
        _check_int(value, name, 0)
    # Choosing and avoiding may overlap: then no pick misses, and the chance is 0.
    if max(n_choices, n_avoided) > n_total:
        raise ValueError(
            f"cannot choose {n_choices} or avoid {n_avoided} among {n_total}")


def avoidance_probability(n_total: int, n_choices: int, n_avoided: int,
                          n_subjects: int) -> float:
    """Chance that every subject's uniform picks miss the marked entries.

    Exact closed form: [C(n_total - n_avoided, n_choices) /
    C(n_total, n_choices)] ** n_subjects.  Both powers are computed as
    integers and divided once, which Python rounds correctly to the
    nearest float.
    """
    _check_avoidance_args(n_total, n_choices, n_avoided, n_subjects)
    return (math.comb(n_total - n_avoided, n_choices) ** n_subjects
            / math.comb(n_total, n_choices) ** n_subjects)


def avoidance_probability_mc(n_total: int, n_choices: int, n_avoided: int,
                             n_subjects: int, n_replications: int, seed: int) -> float:
    """Monte-Carlo estimate of the same probability by direct simulation.

    Each replication draws, for every subject, ``n_choices`` distinct
    uniform picks out of ``n_total`` and checks that none hits the
    ``n_avoided`` marked entries (the entries ``0 .. n_avoided - 1``).

    Pick ``j`` is drawn as an index into the ``n_total - j`` entries not
    yet picked, kept in ascending order, for ``j = 0 .. n_choices - 1``.
    While every earlier pick is unmarked, the marked entries keep the
    lowest indices, so a subject misses them exactly when its smallest
    raw index is at least ``n_avoided``.  A replication counts when that
    minimum over all its subjects, started at ``n_avoided`` so that a
    replication without subjects counts, is still ``n_avoided``.  With
    no picks every replication counts.

    Nothing is drawn after the last batch, so that batch alone stops
    early: after each pick it finds the replications that still count,
    draws nothing more once none is left, and draws its last pick only
    up to the last one that does.  The first rows of a draw are the
    same values as the first rows of a longer draw, so no estimate
    moves.  Earlier batches, and earlier picks of the last batch, draw
    in full, because they fix where later draws start.
    """
    _check_int(n_replications, "n_replications", 1)
    check_seed(seed)
    _check_avoidance_args(n_total, n_choices, n_avoided, n_subjects)
    if n_choices == 0:
        return 1.0
    import numpy as np
    rng = generator(seed)
    # int16 holds the draws, and so fixes the streams, of every bulletin
    # up to 2**15 entries; larger ones need a wider type.
    dtype = (np.int16 if n_total <= 2**15
             else np.int32 if n_total <= 2**31 else np.int64)
    rows = min(_MC_CHUNK, max(1, _MC_CELLS // max(n_subjects, 1)))
    hits = 0
    remaining = n_replications
    while remaining > 0:
        m = min(rows, remaining)
        remaining -= m
        low = rng.integers(0, n_total, size=(m, n_subjects), dtype=dtype)
        for j in range(1, n_choices):
            if remaining == 0:
                # The last batch: no draw follows it, so it may stop early.
                live = np.flatnonzero(low.min(axis=1, initial=n_avoided) == n_avoided)
                if live.size == 0:
                    break
                if j == n_choices - 1:
                    low = low[:live[-1] + 1]
            draw = rng.integers(0, n_total - j, size=low.shape, dtype=dtype)
            np.minimum(low, draw, out=low)
        else:  # a batch that stopped early has no replication that counts
            hits += int(np.count_nonzero(low.min(axis=1, initial=n_avoided) == n_avoided))
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
