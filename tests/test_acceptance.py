"""End-to-end acceptance checks for the package's headline behaviours.

Each test verifies one claim at its stated tolerance and prints a single
PASS/FAIL line on the terminal (bypassing capture) so a full run reads
as a checklist.  Runtime budgets are asserted, not just wished for.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from seqsurprise.analyzer import analyze, derive_10_to_70
from seqsurprise.costmodel import CostModel
from seqsurprise.lottery import (
    COMPLEXITY_WEIGHTED,
    ChoiceModel,
    ExperimentConfig,
    avoidance_probability,
    avoidance_probability_mc,
    reference_rank_report,
    simulate_subjects,
)
from seqsurprise.oracle import (
    DEFAULT_OPERATORS,
    FULL_OPERATORS,
    SearchBudget,
    oracle_min_cost,
)
from seqsurprise.program import replay
from seqsurprise.surprise import number_surprise

LOG2_10 = math.log2(10)


@pytest.fixture
def announce(capsys):
    def _announce(line):
        with capsys.disabled():
            print(line, flush=True)
    return _announce


def check(announce, label, budget_s, body):
    start = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - start
        assert elapsed < budget_s, f"took {elapsed:.1f}s, budget {budget_s}s"
    except BaseException:
        announce(f"[{label}]: FAIL")
        raise
    announce(f"[{label}]: PASS ({elapsed:.2f}s)")


def test_01_reference_ranking_order(announce):
    def body():
        rep = reference_rank_report()
        assert rep.order_ok, "group costs must rise strictly"
        assert rep.trio_span <= 1.0, f"middle trio spans {rep.trio_span:.3f} bits"

    check(announce, "1 reference set ranks in the expected order", 1.0, body)


def test_02_simplest_two_separation(announce):
    def body():
        rep = reference_rank_report()
        assert rep.separation >= 2.0, \
            f"separation only {rep.separation:.3f} bits"

    check(announce, "2 two simplest rows sit >= 2 bits below the rest", 1.0, body)


def test_03_repeated_digit_number_pipeline(announce):
    def body():
        report = number_surprise(33333)
        assert abs(report.u - 4 * LOG2_10) <= 1e-9
        assert report.p == pytest.approx(1e-4, rel=1e-12)

    check(announce, "3 number 33333 gives u = 4*log2(10) and p = 1e-4", 1.0, body)


def test_04_round_tens_derivation(announce):
    def body():
        for c in (1.0, 2.0, 0.5):
            model = CostModel(copy_cost=c, dup_cost=c)
            prog = derive_10_to_70(model)
            assert abs(prog.total_cost - (3 * c + 2)) <= 1e-9
            assert replay(prog) == [10, 20, 30, 40, 50, 60, 70]

    check(announce, "4 round-tens derivation costs 3*copy + 2 and replays", 1.0, body)


def test_05_avoidance_statistic(announce):
    def body():
        exact_fraction = Fraction(math.comb(12, 2), math.comb(14, 2)) ** 26
        p = avoidance_probability(14, 2, 2, 26)
        assert p == float(exact_fraction)
        assert p == pytest.approx(float(exact_fraction), rel=1e-6)
        # rounded up to one significant digit the value reads 3e-4
        exponent = math.floor(math.log10(p))
        assert math.ceil(p / 10**exponent) * 10**exponent == pytest.approx(3e-4)
        # the commonly quoted 2.37e-4 is a loose rounding of the exact value
        assert p == pytest.approx(2.37e-4, rel=1e-2)
        estimate = avoidance_probability_mc(14, 2, 2, 26,
                                            n_replications=10_000_000,
                                            seed=20260824)
        se = math.sqrt(p * (1 - p) / 10_000_000)
        assert abs(estimate - p) <= 3 * se, \
            f"MC estimate {estimate:.3e} vs exact {p:.3e}, 3*se {3*se:.3e}"

    check(announce, "5 avoidance statistic is (66/91)^26, rounds up to 3e-4, "
          "MC within 3 se at 1e7", 60.0, body)


def structured_sequence(rng, length):
    # runs, ramps and digit-twin tokens: the inputs where moves compete
    seq = [rng.randint(0, 49)]
    while len(seq) < length:
        roll = rng.random()
        if roll < 0.35:
            seq.append(seq[-1])
        elif roll < 0.7:
            seq.append(seq[-1] + rng.choice((1, 2)))
        elif roll < 0.85:
            seq.append(11 * rng.randint(1, 4))
        else:
            seq.append(rng.randint(0, 49))
    return seq


def test_06_exhaustive_agreement(announce):
    def body():
        uniform, structured = random.Random(20240824), random.Random(0)
        seqs = [[uniform.randint(0, 49) for _ in range(uniform.randint(1, 6))]
                for _ in range(500)]
        seqs += [structured_sequence(structured, structured.randint(1, 6))
                 for _ in range(1500)]
        budget = SearchBudget(operators=DEFAULT_OPERATORS)
        for seq in seqs:
            greedy = analyze(seq).total_cost
            minimal, _ = oracle_min_cost(seq, budget=budget)
            assert greedy == minimal, f"gap on {seq}: {greedy} vs {minimal}"

    check(announce, "6 analyzer equals exhaustive search on 500 random and "
          "1500 structured sequences", 120.0, body)


def test_07_replay_round_trip(announce):
    def body():
        rng = random.Random(99)
        for _ in range(10_000):
            seq = [rng.randint(0, 99) for _ in range(rng.randint(1, 10))]
            assert replay(analyze(seq)) == seq

    check(announce, "7 replay inverts analyze on 10000 random sequences", 30.0, body)


def test_08_threshold_choice_model(announce):
    def body():
        config = ExperimentConfig(
            seed=101, n_subjects=1000,
            choice_model=ChoiceModel(kind=COMPLEXITY_WEIGHTED, tau=7.0))
        result = simulate_subjects(config)
        assert sum(result.histogram.values()) == 2000
        assert all(b >= 7 for b in result.histogram), \
            f"mass below 7 bits: {sorted(result.histogram)}"
        assert any(b >= 7 for b in result.histogram)
        assert not result.uniform_fallback

    check(announce, "8 threshold choice model leaves no mass below 7 bits", 30.0, body)


def test_09_mirror_advantage(announce):
    def body():
        pal = [2, 14, 29, 35, 35, 29, 14, 2]
        without, _ = oracle_min_cost(pal, budget=SearchBudget(operators=DEFAULT_OPERATORS))
        with_mirror, witness = oracle_min_cost(pal, budget=SearchBudget(operators=FULL_OPERATORS))
        assert with_mirror < without
        assert replay(witness) == pal

    check(announce, "9 mirror operator strictly lowers the palindrome minimum",
          10.0, body)
