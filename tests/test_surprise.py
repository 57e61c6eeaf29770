import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqsurprise.costmodel import CostModel
from seqsurprise.surprise import (
    FixedBits,
    KDigitNumber,
    MonteCarloPool,
    SurpriseReport,
    expected_complexity,
    number_surprise,
    observed_number_complexity,
    sequence_surprise,
    subjective_probability,
)

LOG2_10 = math.log2(10)


def six_of_49(rng):
    return sorted(int(x) + 1 for x in rng.choice(49, size=6, replace=False))


def test_kdigit_template_value():
    assert expected_complexity(KDigitNumber(5)) == pytest.approx(1 + 5 * LOG2_10)
    assert expected_complexity(KDigitNumber(1)) == pytest.approx(1 + LOG2_10)
    model = CostModel(copy_cost=2.0)
    assert expected_complexity(KDigitNumber(3), model) == pytest.approx(2 + 3 * LOG2_10)


def test_template_validation():
    with pytest.raises(ValueError):
        KDigitNumber(0)
    with pytest.raises(ValueError, match="k is too large"):
        KDigitNumber(10**309)
    with pytest.raises(ValueError):
        FixedBits(-1.0)
    with pytest.raises(ValueError):
        MonteCarloPool(sampler=six_of_49, n_samples=0, seed=1)
    with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
        MonteCarloPool(sampler=six_of_49, n_samples=1, seed=-1)


def test_kdigit_template_refuses_an_expectation_that_overflows():
    # each term is finite, about 1.7e308 and 1e308, but their sum is not
    k = 5 * 10**307
    model = CostModel(copy_cost=1e308)
    assert math.isfinite(k * LOG2_10)
    with pytest.raises(ValueError, match="k is too large for copy_cost 1e"):
        expected_complexity(KDigitNumber(k), model)
    with pytest.raises(ValueError, match="k is too large for copy_cost 1e"):
        number_surprise(7, KDigitNumber(k), model)
    assert expected_complexity(KDigitNumber(k)) == 1.0 + k * LOG2_10


def test_monte_carlo_pool_refuses_a_sum_that_overflows():
    # each sample costs about 1e308, finite, but two of them sum past the
    # largest float
    model = CostModel(segment_start_cost=1e308)
    pool = MonteCarloPool(sampler=lambda rng: [1, 5], n_samples=2, seed=1)
    with pytest.raises(ValueError, match="not a finite float"):
        expected_complexity(pool, model)


def test_fixed_template_passthrough():
    assert expected_complexity(FixedBits(12.5)) == 12.5


def test_monte_carlo_pool_reproducible_and_plausible():
    pool = MonteCarloPool(sampler=six_of_49, n_samples=2000, seed=1)
    value = expected_complexity(pool)
    # bit-for-bit reproducibility from the seed
    assert expected_complexity(pool) == value
    assert value == 23.66709809466822
    # random combinations land at the complex end of the scale
    assert 20.0 < value < 30.0
    other = expected_complexity(MonteCarloPool(sampler=six_of_49, n_samples=2000, seed=2))
    assert other != value


def test_unexpectedness_basics():
    assert SurpriseReport(3.0, 3.0).u == 0.0
    assert SurpriseReport(3.0, 5.0).u == -2.0
    assert SurpriseReport(1 + 5 * LOG2_10, 1 + LOG2_10).u == pytest.approx(4 * LOG2_10)


def test_report_derives_u_and_p_from_its_costs():
    # u and p are not arguments, so a report cannot contradict its costs
    with pytest.raises(TypeError):
        SurpriseReport(1.0, 2.0, 5.0, 0.3)
    with pytest.raises(TypeError):
        SurpriseReport(1.0, 2.0, u=5.0)
    # a p past the largest float is refused where the report is formed
    with pytest.raises(ValueError, match="subjective probability 2\\*\\*1100.0 is not a finite"):
        SurpriseReport(0.0, 1100.0)


def test_subjective_probability_values():
    assert subjective_probability(0.0) == 1.0
    assert subjective_probability(-1.0) == 2.0
    assert subjective_probability(4 * LOG2_10) == pytest.approx(1e-4, rel=1e-12)


@given(st.floats(min_value=-30, max_value=30), st.floats(min_value=0.01, max_value=10))
def test_subjective_probability_strictly_decreasing(u, du):
    assert subjective_probability(u + du) < subjective_probability(u)


@given(st.floats(min_value=-20, max_value=20), st.floats(min_value=-20, max_value=20))
def test_subjective_probability_product_law(a, b):
    assert subjective_probability(a + b) == pytest.approx(
        subjective_probability(a) * subjective_probability(b), rel=1e-9)


def test_observed_number_complexity_values():
    assert observed_number_complexity(33333)[0] == pytest.approx(1 + LOG2_10)
    assert observed_number_complexity(28561)[0] == pytest.approx(1 + 5 * LOG2_10)
    # 9 then 0 read in the same stream: the zero is dearer than its rank
    assert observed_number_complexity(900)[0] == pytest.approx(1 + LOG2_10 + 3.5)
    with pytest.raises(ValueError):
        observed_number_complexity(-3)


def test_observed_number_complexity_refuses_a_total_that_overflows():
    # each charge is finite, about 1.7e308, but the copy and the dearer
    # zero after the nine sum past the largest float
    model = CostModel(copy_cost=1.7e308, zero_after_nine_cost=1.7e308)
    with pytest.raises(ValueError, match="digit-by-digit cost is not a finite float"):
        observed_number_complexity(90, model)
    with pytest.raises(ValueError, match="digit-by-digit cost is not a finite float"):
        number_surprise(90, model=model)
    assert observed_number_complexity(91, model)[0] == 1.7e308 + 2 * LOG2_10


def test_observed_number_trace_shape():
    bits, trace = observed_number_complexity(33333)
    assert len(trace) == 7  # slot line, five digit lines, total line
    assert trace[0].startswith("digit-slot copy")
    assert trace[-1] == f"total: {bits:.6f}"
    assert sum("repeat, free" in line for line in trace) == 4


def test_number_surprise_headline_case():
    report = number_surprise(33333)
    assert report.u == pytest.approx(4 * LOG2_10, abs=1e-9)
    assert report.p == pytest.approx(1e-4, rel=1e-12)
    assert not report.p_exceeds_one


def test_number_surprise_structureless_case():
    report = number_surprise(28561)
    assert report.u == pytest.approx(0.0, abs=1e-9)
    assert report.p == pytest.approx(1.0, rel=1e-9)


def test_every_structureless_number_has_exactly_zero_surprise():
    # no repeated adjacent digit and no zero after a nine: both sides are
    # priced by one expression, so U is 0 exactly, not up to rounding
    for n in range(10, 10**5):
        digits = str(n)
        if "90" in digits or any(a == b for a, b in zip(digits, digits[1:])):
            continue
        report = number_surprise(n)
        assert (report.u, report.p) == (0.0, 1.0), n


def test_number_surprise_short_repeat():
    report = number_surprise(777)
    assert report.u == pytest.approx(2 * LOG2_10, abs=1e-9)
    assert report.p == pytest.approx(1e-2, rel=1e-9)


def test_number_surprise_explicit_template():
    # judge a 3-digit number against a 5-digit expectation
    report = number_surprise(777, template=KDigitNumber(5))
    assert report.c_expected == pytest.approx(1 + 5 * LOG2_10)
    assert report.u == pytest.approx(4 * LOG2_10, abs=1e-9)


def test_report_flags_p_above_one():
    report = SurpriseReport(c_expected=2.0, c_observed=5.0)
    assert report.u == -3.0
    assert report.p == 8.0
    assert report.p_exceeds_one


def test_report_json_keys():
    report = SurpriseReport(3.0, 1.0, trace=("line",))
    obj = report.to_json_dict()
    assert set(obj) == {"c_exp", "c_obs", "u", "p", "p_exceeds_one"}
    assert obj["c_exp"] == 3.0 and obj["c_obs"] == 1.0
    assert report.trace == ("line",)


def test_sequence_surprise_uses_analyzer():
    report = sequence_surprise([7, 7, 7, 7, 7], FixedBits(10.0))
    assert report.c_observed == pytest.approx(4.0)
    assert report.u == pytest.approx(6.0)
    assert report.trace  # carries the program trace


@settings(max_examples=100)
@given(st.floats(min_value=0, max_value=40),
       st.floats(min_value=0, max_value=40),
       st.floats(min_value=0.01, max_value=5))
def test_simpler_observation_is_less_probable(c_exp, c_obs, drop):
    base = SurpriseReport(c_exp, c_obs)
    simpler = SurpriseReport(c_exp, max(c_obs - drop, 0.0))
    if c_obs > 0:
        assert simpler.u > base.u or c_obs - drop < 0
        assert simpler.p <= base.p


@settings(max_examples=100)
@given(st.integers(min_value=0, max_value=10**12),
       st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=8),
       st.one_of(st.integers(min_value=1, max_value=40).map(KDigitNumber),
                 st.floats(min_value=0, max_value=200).map(FixedBits)))
def test_reports_follow_from_their_costs(n, seq, template):
    for report in (number_surprise(n), number_surprise(n, template),
                   sequence_surprise(seq, template)):
        assert report.u.hex() == (report.c_expected - report.c_observed).hex()
        assert report.p == subjective_probability(report.u)
