import hashlib
import math
import pathlib
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cost_models
from seqsurprise import analyzer, lottery
from seqsurprise._streams import check_seed, generator
from seqsurprise.analyzer import analyze, check_sequence
from seqsurprise.costmodel import CostModel
from seqsurprise.lottery import (
    _MC_CHUNK,
    COMPLEXITY_WEIGHTED,
    UNIFORM,
    ChoiceModel,
    DEFAULT_FIXED_COMBINATIONS,
    ExperimentConfig,
    LotteryCombination,
    REFERENCE_COMBINATIONS,
    avoidance_probability,
    avoidance_probability_mc,
    combination_complexity,
    format_bulletin,
    generate_bulletin,
    histogram_csv,
    parse_bulletin,
    rank_combinations,
    reference_rank_report,
    simulate_subjects,
)
from seqsurprise.surprise import (
    FixedBits,
    KDigitNumber,
    MonteCarloPool,
    number_surprise,
    observed_number_complexity,
)

EXACT_AVOIDANCE = float(Fraction(66, 91) ** 26)


def combo(*numbers):
    return LotteryCombination(tuple(numbers))


def test_combination_normalizes_and_validates():
    c = combo(42, 5, 17, 33, 8, 21)
    assert c.numbers == (5, 8, 17, 21, 33, 42)
    assert str(c) == "5 8 17 21 33 42"
    with pytest.raises(ValueError):
        combo(1, 2, 3, 4, 5)
    with pytest.raises(ValueError):
        combo(1, 2, 3, 4, 5, 5)
    with pytest.raises(ValueError):
        combo(0, 2, 3, 4, 5, 6)
    with pytest.raises(ValueError):
        combo(1, 2, 3, 4, 5, 50)
    # the token rule of the sequences it is priced as: an int, not a bool
    with pytest.raises(ValueError, match="got 1.5"):
        combo(1.5, 2, 3, 4, 5, 6)
    with pytest.raises(ValueError, match="got True"):
        combo(True, 2, 3, 4, 5, 6)


def test_combination_complexity_is_analyzer_cost():
    c = combo(10, 11, 12, 44, 45, 46)
    assert combination_complexity(c) == analyze(list(c.numbers)).total_cost


def test_reference_set_ranks_in_frozen_order():
    ranked = rank_combinations(REFERENCE_COMBINATIONS)
    assert [c.numbers for c, _ in ranked] == [
        (1, 2, 3, 4, 5, 6),
        (34, 35, 36, 37, 38, 39),
        (10, 11, 12, 44, 45, 46),
        (8, 9, 26, 27, 28, 29),
        (7, 8, 9, 37, 38, 39),
        (10, 20, 30, 31, 32, 33),
        (1, 2, 5, 6, 15, 49),
        (14, 24, 36, 38, 42, 44),
    ]
    costs = [bits for _, bits in ranked]
    assert costs == sorted(costs)


def test_rank_handles_duplicates_and_singletons():
    c = combo(1, 2, 3, 4, 5, 6)
    ranked = rank_combinations([c, c])
    assert len(ranked) == 2
    assert ranked[0][0].numbers == ranked[1][0].numbers
    assert rank_combinations([c])[0][0] is c


def test_reference_rank_report_checks():
    rep = reference_rank_report()
    assert rep.ok
    assert rep.order_ok and rep.trio_span_ok and rep.separation_ok
    assert rep.trio_span == pytest.approx(0.6601499970353756)
    assert rep.separation == pytest.approx(2.321928094887362)
    assert len(rep.rows) == 8


def test_default_fixed_combinations_shape():
    assert len(DEFAULT_FIXED_COMBINATIONS) == 10
    assert DEFAULT_FIXED_COMBINATIONS[:8] == REFERENCE_COMBINATIONS
    assert len({c.numbers for c in DEFAULT_FIXED_COMBINATIONS}) == 10


# The bulletin that seed 11 draws, in order.  It pins the PCG64 stream
# ``generate_bulletin`` builds by default: draws and shuffle alike.
SEED_11_BULLETIN = [
    (7, 14, 21, 24, 32, 48), (8, 9, 26, 27, 28, 29), (34, 35, 36, 37, 38, 39),
    (21, 24, 30, 40, 42, 45), (7, 8, 9, 37, 38, 39), (10, 20, 30, 31, 32, 33),
    (1, 2, 5, 6, 15, 49), (6, 17, 21, 28, 37, 42), (5, 11, 22, 27, 33, 46),
    (10, 11, 12, 44, 45, 46), (1, 2, 3, 4, 5, 6), (4, 7, 25, 26, 37, 41),
    (14, 24, 36, 38, 42, 44), (6, 24, 29, 30, 37, 45),
]


def test_generate_bulletin_contract():
    config = ExperimentConfig(seed=11)
    bulletin = generate_bulletin(config)
    assert [c.numbers for c in bulletin] == SEED_11_BULLETIN
    assert len(bulletin) == 14
    assert len({c.numbers for c in bulletin}) == 14
    assert generate_bulletin(config) == bulletin
    assert generate_bulletin(ExperimentConfig(seed=12)) != bulletin


def test_generate_bulletin_without_random_is_a_shuffle():
    config = ExperimentConfig(seed=3, n_random=0)
    bulletin = generate_bulletin(config)
    assert sorted(c.numbers for c in bulletin) == \
        sorted(c.numbers for c in DEFAULT_FIXED_COMBINATIONS)


def test_generate_bulletin_rejects_duplicate_fixed():
    # the config refuses them, so no bulletin is ever drawn from them
    c = combo(1, 2, 3, 4, 5, 6)
    with pytest.raises(ValueError, match="fixed combinations must be distinct"):
        ExperimentConfig(fixed_combinations=(c, c), seed=0)


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n_subjects=-1)
    with pytest.raises(ValueError):
        ExperimentConfig(n_choices_per_subject=15)  # bulletin only holds 14
    # every ticket not in the fixed set may be drawn, and no more
    tickets = math.comb(49, 6)
    assert ExperimentConfig(n_random=tickets - 10).n_random == tickets - 10
    assert ExperimentConfig(fixed_combinations=(), n_random=tickets).n_random == tickets
    with pytest.raises(ValueError, match="only 13983806 are not fixed"):
        ExperimentConfig(n_random=tickets - 9)
    with pytest.raises(ValueError):
        ExperimentConfig(fixed_combinations=(), n_random=tickets + 1)
    with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
        ExperimentConfig(seed=-1)


# A bool is an int to Python, and a float may hold a whole number, but
# neither is a count: each is refused when it is given, naming the argument,
# as is a count below its minimum and a bit value that is not a finite
# nonnegative number.
COUNT_REFUSALS = {
    "config-seed-bool": (lambda: ExperimentConfig(seed=True), "seed"),
    "config-seed-float": (lambda: ExperimentConfig(seed=1.5), "seed"),
    "config-subjects-bool": (lambda: ExperimentConfig(n_subjects=True), "n_subjects"),
    "config-subjects-float": (lambda: ExperimentConfig(n_subjects=2.5), "n_subjects"),
    "config-random-float": (lambda: ExperimentConfig(n_random=4.0), "n_random"),
    "config-choices-bool": (lambda: ExperimentConfig(n_choices_per_subject=False),
                            "n_choices_per_subject"),
    "tau-bool": (lambda: ChoiceModel(COMPLEXITY_WEIGHTED, True), "tau"),
    "check-seed-bool": (lambda: check_seed(True), "seed"),
    "kdigit-float": (lambda: KDigitNumber(2.5), "k"),
    "kdigit-bool": (lambda: KDigitNumber(True), "k"),
    "fixed-bits-bool": (lambda: FixedBits(True), "expected bits"),
    "pool-samples-bool": (lambda: MonteCarloPool(lambda rng: [1], n_samples=True, seed=1),
                          "n_samples"),
    "pool-seed-bool": (lambda: MonteCarloPool(lambda rng: [1], n_samples=1, seed=False),
                       "seed"),
    "avoidance-total-float": (lambda: avoidance_probability(14.0, 2, 2, 26), "n_total"),
    "avoidance-choices-bool": (lambda: avoidance_probability(14, True, 2, 26), "n_choices"),
    "avoidance-avoided-float": (lambda: avoidance_probability(14, 2, 2.0, 26), "n_avoided"),
    "avoidance-subjects-bool": (lambda: avoidance_probability(14, 2, 2, True), "n_subjects"),
    "mc-replications-float": (lambda: avoidance_probability_mc(
        14, 2, 2, 26, n_replications=10.0, seed=1), "n_replications"),
    "mc-seed-float": (lambda: avoidance_probability_mc(
        14, 2, 2, 26, n_replications=10, seed=1.0), "seed"),
    "observed-number-bool": (lambda: observed_number_complexity(True), "n"),
    "number-surprise-bool": (lambda: number_surprise(True), "n"),
    "token-bool": (lambda: check_sequence([1, True]), "tokens"),
    "config-seed-negative": (lambda: ExperimentConfig(seed=-1), "seed"),
    "config-random-negative": (lambda: ExperimentConfig(n_random=-1), "n_random"),
    "config-choices-negative": (lambda: ExperimentConfig(n_choices_per_subject=-1),
                                "n_choices_per_subject"),
    "config-subjects-negative": (lambda: ExperimentConfig(n_subjects=-1), "n_subjects"),
    "config-choice-model-str": (lambda: ExperimentConfig(choice_model=UNIFORM),
                                "choice_model"),
    "config-fixed-tuple": (lambda: ExperimentConfig(fixed_combinations=((1, 2, 3, 4, 5, 6),)),
                           "fixed_combinations"),
    "check-seed-negative": (lambda: check_seed(-1), "seed"),
    "kdigit-zero": (lambda: KDigitNumber(0), "k"),
    "pool-samples-zero": (lambda: MonteCarloPool(lambda rng: [1], n_samples=0, seed=1),
                          "n_samples"),
    "avoidance-total-negative": (lambda: avoidance_probability(-1, 2, 2, 26), "n_total"),
    "avoidance-choices-negative": (lambda: avoidance_probability(14, -1, 2, 26), "n_choices"),
    "avoidance-avoided-negative": (lambda: avoidance_probability(14, 2, -1, 26), "n_avoided"),
    "avoidance-subjects-negative": (lambda: avoidance_probability(14, 2, 2, -1), "n_subjects"),
    "mc-replications-zero": (lambda: avoidance_probability_mc(
        14, 2, 2, 26, n_replications=0, seed=1), "n_replications"),
    "observed-number-negative": (lambda: observed_number_complexity(-1), "n"),
    "number-surprise-negative": (lambda: number_surprise(-1), "n"),
    "stm-capacity-negative": (lambda: CostModel(stm_capacity=-1), "stm_capacity"),
    "increment-step-zero": (lambda: CostModel(allowed_increments=frozenset({0, 1})),
                            "increment step"),
}
BAD_BITS = {"str": "1", "none": None, "nan": math.nan, "inf": math.inf,
            "minus-inf": -math.inf, "negative": -1.0}
BITS_TAKERS = {
    "copy-cost": (lambda v: CostModel(copy_cost=v), "copy_cost"),
    "override": (lambda v: CostModel(increment_cost_overrides=((1, v),)), "increment_cost_1"),
    "fixed-bits": (FixedBits, "expected bits"),
    "tau": (lambda v: ChoiceModel(COMPLEXITY_WEIGHTED, v), "tau"),
}
# the weighted model reads a None tau as "not given", and takes 7 bits
COUNT_REFUSALS.update({
    f"{taker}-{bad}": (lambda take=take, value=value: take(value), name)
    for taker, (take, name) in BITS_TAKERS.items() for bad, value in BAD_BITS.items()
    if (taker, bad) != ("tau", "none")})


@pytest.mark.parametrize("call,name", COUNT_REFUSALS.values(), ids=COUNT_REFUSALS)
def test_counts_refuse_bools_and_non_integers(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call()


def test_choice_model_weights():
    uniform = ChoiceModel()
    assert uniform.weight(0.0) == 1.0
    gated = ChoiceModel(kind=COMPLEXITY_WEIGHTED, tau=7.0)
    assert gated.weight(6.999) == 0.0
    assert gated.weight(7.0) == 1.0
    assert gated.weight(30.0) == 1.0
    with pytest.raises(ValueError):
        ChoiceModel(kind="greedy")
    # only the weighted model has a threshold
    assert uniform.tau is None
    assert ChoiceModel(kind=COMPLEXITY_WEIGHTED).tau == 7.0
    with pytest.raises(ValueError, match="tau applies only to the complexity_weighted"):
        ChoiceModel(kind=UNIFORM, tau=7.0)


def test_a_uniform_record_has_no_tau():
    uniform = simulate_subjects(ExperimentConfig(seed=1, n_subjects=2)).to_json_dict()
    assert "tau" not in uniform
    weighted = simulate_subjects(ExperimentConfig(
        seed=1, n_subjects=2, choice_model=ChoiceModel(COMPLEXITY_WEIGHTED))).to_json_dict()
    assert weighted["tau"] == 7.0


@settings(max_examples=20)
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=0, max_value=12))
def test_histogram_mass_is_conserved(seed, n_subjects):
    config = ExperimentConfig(seed=seed, n_subjects=n_subjects)
    result = simulate_subjects(config)
    assert sum(result.histogram.values()) == n_subjects * config.n_choices_per_subject
    assert len(result.per_subject_choices) == n_subjects


def test_zero_subjects_is_empty():
    result = simulate_subjects(ExperimentConfig(seed=1, n_subjects=0))
    assert result.histogram == {}
    assert result.all_subjects_avoided  # vacuously


def test_simulation_is_deterministic():
    a = simulate_subjects(ExperimentConfig(seed=5))
    b = simulate_subjects(ExperimentConfig(seed=5))
    assert a.per_subject_choices == b.per_subject_choices
    assert a.histogram == b.histogram


def test_subjects_see_different_random_draws():
    result = simulate_subjects(ExperimentConfig(seed=5, n_subjects=6))
    assert len(set(result.per_subject_choices)) > 1


def test_weighted_model_empties_the_low_end():
    config = ExperimentConfig(
        seed=9, n_subjects=40,
        choice_model=ChoiceModel(kind=COMPLEXITY_WEIGHTED, tau=7.0))
    result = simulate_subjects(config)
    assert all(b >= 7 for b in result.histogram)
    assert any(b >= 7 for b in result.histogram)
    assert min(bits for row in result.per_subject_chosen_bits for bits in row) >= 7.0
    assert result.all_subjects_avoided
    assert not result.uniform_fallback


def test_unreachable_threshold_falls_back_to_uniform():
    config = ExperimentConfig(
        seed=2, n_subjects=5,
        choice_model=ChoiceModel(kind=COMPLEXITY_WEIGHTED, tau=1e6))
    result = simulate_subjects(config)
    assert result.uniform_fallback
    assert sum(result.histogram.values()) == 10


def test_simulation_prices_each_distinct_ticket_once(monkeypatch):
    scans = Counter()
    real = analyzer._scan

    def counting(toks, *args):
        scans[toks] += 1
        return real(toks, *args)

    monkeypatch.setattr(analyzer, "_scan", counting)
    result = simulate_subjects(ExperimentConfig(seed=11, n_subjects=200))
    # the ten fixed tickets sit on every bulletin: pricing each bulletin
    # as it is drawn scans 200 * 14 + 10 tickets
    assert set(scans.values()) == {1}
    assert len(scans) <= 10 + 200 * 4
    assert sum(result.histogram.values()) == 400


def test_ranking_checks_no_ticket_again(monkeypatch):
    rng = random.Random(17)
    tickets = [LotteryCombination(tuple(rng.sample(range(1, 50), 6))) for _ in range(500)]
    expected = [analyze(c.numbers).total_cost for c in tickets]
    checks = []
    real = analyzer.check_sequence

    def counting(seq):
        checks.append(seq)
        return real(seq)

    monkeypatch.setattr(analyzer, "check_sequence", counting)
    monkeypatch.setattr(lottery, "check_sequence", counting)
    ranked = rank_combinations(tickets)
    assert checks == []
    assert sorted(bits for _, bits in ranked) == sorted(expected)
    assert [combination_complexity(c) for c in tickets[:5]] == expected[:5]
    assert checks == []
    # price_many still checks each sequence, as it reaches it
    batch = analyzer.price_many(c.numbers for c in tickets)
    assert checks == []
    assert next(batch) == expected[0]
    assert len(checks) == 1
    assert list(batch) == expected[1:]
    assert len(checks) == 500


@settings(max_examples=60)
@given(st.lists(st.lists(st.integers(min_value=1, max_value=49), min_size=6, max_size=6,
                         unique=True), min_size=1, max_size=30),
       cost_models)
def test_ranking_prices_like_price_many_and_analyze(tickets, model):
    combos = [LotteryCombination(tuple(numbers)) for numbers in tickets]
    ranked = rank_combinations(combos, model)
    batch = dict(zip((c.numbers for c in combos),
                     analyzer.price_many((c.numbers for c in combos), model)))
    for combo, bits in ranked:
        assert bits == batch[combo.numbers] == analyze(combo.numbers, model).total_cost
        assert bits == combination_complexity(combo, model)


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


# Digests of every pick, its cost in bits, the histogram and the fallback
# flag for 200 subjects (the weighted model at its default tau, 7).  They pin the per-subject streams: the
# order in which bulletins are drawn and priced must never change a pick.
# The streams come from numpy's PCG64 Generator.
EXPERIMENT_DIGESTS = {
    (7, UNIFORM): "d71b19ae5263a857dcdf27e045945ea75d629695a7c6c5b2f5ea1a3d24dff571",
    (7, COMPLEXITY_WEIGHTED):
        "91d469e04d5073ef871a0b8d97190f6398b3ba25b47c70be383836a9eb963c7b",
    (2011, UNIFORM): "7b379528144971bbe76b50ea007d9b5c8a4cabf3da62b268d59c66332f66a690",
    (2011, COMPLEXITY_WEIGHTED):
        "8f8930f80df8ade5ee5d66211c0908a3d66c8ae96410ea84fc06d2539c49dd7c",
}
RANK_DIGEST = "dccc99eccb24c747cc73cef78fc5b72a2bbe153e4071a4c773648c9797bb31dd"


@pytest.mark.parametrize("seed,kind", sorted(EXPERIMENT_DIGESTS))
def test_experiment_outcome_is_pinned(seed, kind):
    config = ExperimentConfig(seed=seed, n_subjects=200,
                              choice_model=ChoiceModel(kind=kind))
    result = simulate_subjects(config)
    assert _digest((result.per_subject_choices, result.per_subject_chosen_bits,
                    sorted(result.histogram.items()),
                    result.uniform_fallback)) == EXPERIMENT_DIGESTS[seed, kind]


def test_ranking_of_a_seeded_batch_is_pinned():
    rng = random.Random(300)
    tickets = []
    for _ in range(300):
        pool = list(range(1, 50))
        tickets.append(LotteryCombination(
            tuple(pool.pop(int(rng.random() * len(pool))) for _ in range(6))))
    ranked = rank_combinations(tickets)
    assert _digest([(c.numbers, bits) for c, bits in ranked]) == RANK_DIGEST


def test_histogram_csv_layout():
    result = simulate_subjects(ExperimentConfig(seed=4, n_subjects=3))
    lines = histogram_csv(result.histogram).strip().splitlines()
    assert lines[0] == "bin,count"
    bins = [int(line.split(",")[0]) for line in lines[1:]]
    assert bins == sorted(bins)


def test_avoidance_probability_exact_value():
    p = avoidance_probability(14, 2, 2, 26)
    assert p == EXACT_AVOIDANCE
    assert p == pytest.approx(2.3608376564261685e-4, rel=1e-12)


def test_avoidance_probability_trivial_cases():
    assert avoidance_probability(14, 2, 0, 26) == 1.0
    assert avoidance_probability(5, 5, 0, 1) == 1.0
    assert avoidance_probability(14, 0, 2, 26) == 1.0


def test_avoidance_probability_domain_errors():
    with pytest.raises(ValueError, match="cannot choose 15 or avoid 2 among 14"):
        avoidance_probability(14, 15, 2, 2)
    with pytest.raises(ValueError, match="cannot choose 2 or avoid 15 among 14"):
        avoidance_probability(14, 2, 15, 2)
    with pytest.raises(ValueError):
        avoidance_probability(14, -1, 2, 26)
    with pytest.raises(ValueError, match="seed must be nonnegative, got -5"):
        avoidance_probability_mc(14, 2, 2, 26, n_replications=10, seed=-5)


@pytest.mark.parametrize("n_choices,n_avoided", [(13, 2), (14, 2), (10, 5), (3, 14)])
def test_avoidance_is_impossible_when_picks_must_hit(n_choices, n_avoided):
    # more picks than unmarked entries: C(14 - n_avoided, n_choices) = 0
    assert avoidance_probability(14, n_choices, n_avoided, 26) == 0.0
    assert avoidance_probability_mc(14, n_choices, n_avoided, 26,
                                    n_replications=500, seed=3) == 0.0
    # with no subjects nobody picks, so nobody hits
    assert avoidance_probability(14, n_choices, n_avoided, 0) == 1.0


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=12),
       st.integers(min_value=0, max_value=4),
       st.integers(min_value=0, max_value=4),
       st.integers(min_value=0, max_value=30))
def test_avoidance_probability_monotone(n_total, n_choices, n_avoided, n_subjects):
    if n_choices + n_avoided + 1 > n_total:
        return
    p = avoidance_probability(n_total, n_choices, n_avoided, n_subjects)
    assert avoidance_probability(n_total, n_choices, n_avoided, n_subjects + 1) <= p
    assert avoidance_probability(n_total, n_choices, n_avoided + 1, n_subjects) <= p
    assert 0.0 <= p <= 1.0


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=60),
       st.integers(min_value=0, max_value=6),
       st.integers(min_value=0, max_value=10),
       st.integers(min_value=0, max_value=5_000))
def test_avoidance_probability_matches_rational(n_total, n_choices, n_avoided, n_subjects):
    # reference: the ratio as an exact rational, rounded to float once
    if max(n_choices, n_avoided) > n_total:
        return
    single = Fraction(math.comb(n_total - n_avoided, n_choices), math.comb(n_total, n_choices))
    assert avoidance_probability(n_total, n_choices, n_avoided,
                                 n_subjects) == float(single ** n_subjects)


def test_avoidance_mc_agrees_with_exact_two_choice():
    estimate = avoidance_probability_mc(14, 2, 2, 26, n_replications=200_000, seed=11)
    se = math.sqrt(EXACT_AVOIDANCE * (1 - EXACT_AVOIDANCE) / 200_000)
    assert abs(estimate - EXACT_AVOIDANCE) <= 4 * se
    assert estimate == 44 / 200_000  # pins the estimate's PCG64 stream


def test_avoidance_mc_generic_path():
    exact = avoidance_probability(10, 3, 2, 4)
    estimate = avoidance_probability_mc(10, 3, 2, 4, n_replications=20_000, seed=5)
    se = math.sqrt(exact * (1 - exact) / 20_000)
    assert abs(estimate - exact) <= 4 * se
    assert estimate == 972 / 20_000  # pins the three-choice PCG64 stream


# (n_total, n_avoided, n_subjects, n_replications) for two choices: the
# CLI's shape, the benchmark's subject count, no subjects, nothing marked,
# exactly two unmarked entries, single and odd replication counts, and a
# run that spans more than one chunk.  Most estimates sit far from 0 and 1,
# so a changed draw or a miscounted row changes the digest.
MC_TWO_CHOICE_CASES = (
    (14, 2, 3, 2_000),
    (14, 2, 26, 2_000),
    (400, 2, 200, 500),
    (14, 2, 0, 7),
    (14, 0, 5, 7),
    (4, 2, 3, 1),
    (4, 2, 1, 7),
    (2, 0, 4, 7),
    (10, 3, 2, _MC_CHUNK + 3),
)
MC_TWO_CHOICE_DIGEST = "f76974dc61ad5e83af9fd247187eccb5d70bbfd0cbb791ee23cd6433d9a469e8"


def test_avoidance_mc_two_choice_is_pinned():
    estimates = [avoidance_probability_mc(n_total, 2, n_avoided, n_subjects,
                                          n_replications=n_replications, seed=seed)
                 for seed in (0, 1, 11)
                 for n_total, n_avoided, n_subjects, n_replications in MC_TWO_CHOICE_CASES]
    assert _digest(estimates) == MC_TWO_CHOICE_DIGEST


@pytest.mark.parametrize("n_total", [2**15, 40_000, 2**31 + 8])
def test_avoidance_mc_large_bulletin(n_total):
    # draws past 2**15 do not fit int16; a quarter of the entries are marked,
    # so draws cut short of n_total would move the estimate by many errors
    exact = avoidance_probability(n_total, 2, n_total // 4, 2)
    estimate = avoidance_probability_mc(n_total, 2, n_total // 4, 2,
                                        n_replications=20_000, seed=3)
    se = math.sqrt(exact * (1 - exact) / 20_000)
    assert abs(estimate - exact) <= 4 * se


# (n_choices, seed) for 14 entries, 2 marked and 3 subjects: no picks, one
# pick, and three to six picks.  The digest pins their PCG64 streams.
MC_CHOICE_CASES = tuple((n_choices, seed) for n_choices in (0, 1, 3, 4, 6)
                        for seed in (0, 1, 11))
MC_CHOICE_DIGEST = "0baebb3185e33069e568895230ee35cc8a965cc008bf4efd91d51eaf7bcd22b3"


def test_avoidance_mc_every_choice_count_agrees_and_is_pinned():
    estimates = []
    for n_choices, seed in MC_CHOICE_CASES:
        exact = avoidance_probability(14, n_choices, 2, 3)
        estimate = avoidance_probability_mc(14, n_choices, 2, 3,
                                            n_replications=20_000, seed=seed)
        se = math.sqrt(exact * (1 - exact) / 20_000)
        assert abs(estimate - exact) <= 4 * se, (n_choices, seed)
        estimates.append(estimate)
    assert _digest(estimates) == MC_CHOICE_DIGEST


def test_avoidance_mc_does_not_compute_the_exact_value(monkeypatch):
    # the exact powers grow with n_subjects; the estimate only checks bounds
    def exact(*args):
        raise AssertionError("avoidance_probability called")

    monkeypatch.setattr(lottery, "avoidance_probability", exact)
    assert avoidance_probability_mc(14, 3, 2, 5, n_replications=10, seed=1) >= 0.0
    with pytest.raises(ValueError, match="cannot choose 5 or avoid 2 among 4"):
        avoidance_probability_mc(4, 5, 2, 1, n_replications=10, seed=1)


@pytest.fixture
def draw_sizes(monkeypatch):
    """The size of every draw the seeded streams make, in order."""
    import numpy as np

    sizes = []

    class Recording(np.random.Generator):
        def integers(self, *args, size=None, **kwargs):
            sizes.append(size)
            return super().integers(*args, size=size, **kwargs)

    monkeypatch.setattr(np.random, "Generator", Recording)
    return sizes


def test_avoidance_mc_caps_the_draws_of_a_batch(monkeypatch, draw_sizes):
    # the same ratio as the real constants: up to 200 subjects a batch has
    # _MC_CHUNK rows, beyond that at most _MC_CELLS draws per array
    monkeypatch.setattr(lottery, "_MC_CHUNK", 5)
    monkeypatch.setattr(lottery, "_MC_CELLS", 200 * 5)
    # at 200 subjects no replication counts after its first pick, so the
    # last batch stops after that pick
    avoidance_probability_mc(14, 3, 2, 200, n_replications=6, seed=1)
    assert draw_sizes == [(5, 200)] * 3 + [(1, 200)]
    draw_sizes.clear()
    avoidance_probability_mc(14, 2, 2, 201, n_replications=10, seed=1)
    assert draw_sizes == [(4, 201)] * 4 + [(2, 201)]
    draw_sizes.clear()
    avoidance_probability_mc(14, 1, 2, 1001, n_replications=2, seed=1)
    assert draw_sizes == [(1, 1001)] * 2


def _full_draw_mc(n_total, n_choices, n_avoided, n_subjects, n_replications, seed):
    # reference: the estimator with every pick of every batch drawn in full
    import numpy as np

    if n_choices == 0:
        return 1.0
    rng = generator(seed)
    dtype = (np.int16 if n_total <= 2**15
             else np.int32 if n_total <= 2**31 else np.int64)
    rows = min(lottery._MC_CHUNK, max(1, lottery._MC_CELLS // max(n_subjects, 1)))
    hits = 0
    remaining = n_replications
    while remaining > 0:
        m = min(rows, remaining)
        low = rng.integers(0, n_total, size=(m, n_subjects), dtype=dtype)
        for j in range(1, n_choices):
            draw = rng.integers(0, n_total - j, size=(m, n_subjects), dtype=dtype)
            np.minimum(low, draw, out=low)
        hits += int(np.count_nonzero(low.min(axis=1, initial=n_avoided) == n_avoided))
        remaining -= m
    return hits / n_replications


@st.composite
def _mc_cases(draw):
    # half the cases come from where some replications outlive a pick and
    # some do not, so that a last batch stops with live rows behind it: a
    # dozen or more entries, one or two marked, a few subjects, three or
    # more picks
    dense = draw(st.booleans())
    n_total = draw(st.integers(min_value=10 if dense else 0, max_value=20))
    n_choices = draw(st.integers(min_value=3 if dense else 0, max_value=min(6, n_total)))
    n_avoided = draw(st.integers(min_value=1, max_value=2) if dense
                     else st.integers(min_value=0, max_value=n_total))
    n_subjects = draw(st.integers(min_value=1, max_value=4) if dense
                      else st.integers(min_value=0, max_value=300))
    return (n_total, n_choices, n_avoided, n_subjects,
            draw(st.integers(min_value=1, max_value=40)),
            draw(st.integers(min_value=0, max_value=1_000)))


@settings(max_examples=200, deadline=None)
@given(_mc_cases())
def test_avoidance_mc_matches_the_full_draw_loop(case):
    # small batches, so that most cases span several and end on a short one
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lottery, "_MC_CHUNK", 6)
        mp.setattr(lottery, "_MC_CELLS", 6 * 60)
        assert avoidance_probability_mc(*case[:4], n_replications=case[4],
                                        seed=case[5]) == _full_draw_mc(*case)


def test_avoidance_mc_shortens_its_last_pick(monkeypatch, draw_sizes):
    monkeypatch.setattr(lottery, "_MC_CHUNK", 5)
    # the last batch's last replication stops counting before its fourth
    # pick, which is then drawn for the first two replications only
    estimate = avoidance_probability_mc(14, 4, 2, 3, n_replications=8, seed=4)
    assert draw_sizes == [(5, 3)] * 4 + [(3, 3)] * 3 + [(2, 3)]
    assert estimate == _full_draw_mc(14, 4, 2, 3, 8, 4) == 1 / 8


def test_avoidance_mc_validates_arguments():
    with pytest.raises(ValueError):
        avoidance_probability_mc(14, 2, 2, 26, n_replications=0, seed=1)
    with pytest.raises(ValueError):
        avoidance_probability_mc(4, 5, 2, 1, n_replications=10, seed=1)
    with pytest.raises(ValueError):
        avoidance_probability_mc(4, 2, 5, 1, n_replications=10, seed=1)


def test_bulletin_text_round_trip():
    bulletin = generate_bulletin(ExperimentConfig(seed=8))
    text = format_bulletin(bulletin)
    assert parse_bulletin(text) == bulletin


def test_parse_bulletin_tolerates_comments_and_commas():
    combos = parse_bulletin("# header\n\n1, 2, 3, 4, 5, 6\n34 35 36 37 38 39\n")
    assert [c.numbers for c in combos] == [
        (1, 2, 3, 4, 5, 6), (34, 35, 36, 37, 38, 39)]


def test_parse_bulletin_names_bad_line():
    with pytest.raises(ValueError, match="line 2"):
        parse_bulletin("1 2 3 4 5 6\n1 2 3 4 5 x\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_bulletin("1 2 3\n")


EXPERIMENT_SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "run_lottery_experiment.py"


# SHA-256 of (summary.json, histogram.csv) per argv, recorded before the
# script read the bulletin size, the marked count and the table from lottery;
# the uniform summary re-recorded once it no longer wrote a tau.
SCRIPT_OUTPUT_DIGESTS = {
    "uniform": (
        ["--seeds", "3"],
        "b14073cdd4f5687054e72e3b33343cf843239d2a5ce26ee0ab81cc6b964de763",
        "97fbedd68dfd20e0f6f0ad9bac35328d31c5521c60e887afc0e9590ba4ce8614"),
    "weighted": (
        ["--seeds", "3", "--choice-model", "complexity_weighted", "--tau", "7"],
        "9fe8b9e1794bc904ad5766fadd5ba1ce48b4ccf5f9ddf49e52ee0c31acc74b32",
        "feb79c8b3785a3be7d5444f287ee1dd29f656d789440b4c171eb4290ff3c06e7"),
}


@pytest.mark.parametrize("argv,summary,histogram", SCRIPT_OUTPUT_DIGESTS.values(),
                         ids=SCRIPT_OUTPUT_DIGESTS)
def test_experiment_script_output_is_pinned(argv, summary, histogram, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(EXPERIMENT_SCRIPT), *argv, "--out-dir", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in ("summary.json", "histogram.csv"))
    assert digests == (summary, histogram)


def _script_usage_error(tmp_path, *argv):
    """Run the script on bad arguments and return its one error line, after
    checking that it exits 2 and writes nothing."""
    out_dir = tmp_path / "results"
    proc = subprocess.run(
        [sys.executable, str(EXPERIMENT_SCRIPT), *argv, "--out-dir", str(out_dir)],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    # argparse prints its usage above the one error line
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert proc.stderr.splitlines()[-1] == errors[0]
    assert list(tmp_path.iterdir()) == []
    return errors[0].removeprefix("run_lottery_experiment.py: error: ")


def test_experiment_script_refuses_an_out_dir_that_is_a_file(tmp_path):
    taken = tmp_path / "results"
    taken.write_text("kept\n")
    proc = subprocess.run(
        [sys.executable, str(EXPERIMENT_SCRIPT), "--seeds", "1", "--out-dir", str(taken)],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[-1] == (
        f"run_lottery_experiment.py: error: cannot create --out-dir {str(taken)!r}: "
        "File exists")
    assert [line for line in proc.stderr.splitlines() if "error:" in line] == [
        proc.stderr.splitlines()[-1]]
    assert taken.read_text() == "kept\n"
    assert list(tmp_path.iterdir()) == [taken]


def test_experiment_script_reports_a_file_it_cannot_write(tmp_path):
    (tmp_path / "summary.json").mkdir()
    proc = subprocess.run(
        [sys.executable, str(EXPERIMENT_SCRIPT), "--seeds", "1", "--out-dir", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "run_lottery_experiment.py: error: cannot write "
        f"{str(tmp_path / 'summary.json')!r}: Is a directory"]


@pytest.mark.parametrize("blocked", ["histogram.csv", "summary.json"])
def test_experiment_script_writes_both_files_or_neither(blocked, tmp_path):
    (tmp_path / blocked).mkdir()
    proc = subprocess.run(
        [sys.executable, str(EXPERIMENT_SCRIPT), "--seeds", "1", "--out-dir", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert list(tmp_path.iterdir()) == [tmp_path / blocked]


def test_experiment_script_refuses_tau_without_the_weighted_model(tmp_path):
    assert _script_usage_error(tmp_path, "--seeds", "1", "--tau", "5") == (
        "tau applies only to the complexity_weighted choice model, got 5.0 with uniform")


@pytest.mark.parametrize("argv,error", [
    (["--seeds", "-2"], "--seeds must be >= 1, got -2"),
    (["--seeds", "0"], "--seeds must be >= 1, got 0"),
    (["--base-seed", "-1"], "seed must be nonnegative, got -1"),
    (["--subjects", "-1"], "n_subjects must be nonnegative, got -1"),
    (["--choices", "15"], "cannot pick 15 from a bulletin of 14"),
    (["--choice-model", "complexity_weighted", "--tau", "inf"],
     "tau must be a finite number of bits, got inf"),
    (["--choice-model", "complexity_weighted", "--tau", "-1"],
     "tau must be nonnegative, got -1.0"),
], ids=["seeds-negative", "seeds-zero", "base-seed", "subjects", "choices", "tau-inf",
        "tau-negative"])
def test_experiment_script_refuses_bad_arguments(argv, error, tmp_path):
    assert _script_usage_error(tmp_path, *argv) == error
