import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqsurprise.costmodel import (
    CostModel,
    DEFAULT_MODEL,
    model_from_config_text,
    number_complexity,
)

LOG2_10 = math.log2(10)


def test_number_complexity_known_values():
    assert number_complexity(0) == 0.0
    assert number_complexity(9) == pytest.approx(LOG2_10)
    assert number_complexity(33333) == pytest.approx(math.log2(33334))


def test_number_complexity_rejects_negative():
    with pytest.raises(ValueError):
        number_complexity(-1)


@given(st.integers(min_value=0, max_value=10**9))
def test_number_complexity_strictly_increasing(n):
    assert number_complexity(n + 1) > number_complexity(n)


@pytest.mark.parametrize("k", range(0, 31))
def test_number_complexity_exact_at_powers(k):
    # log2((2**k - 1) + 1) must come out as the integer k, no rounding slack
    assert number_complexity(2**k - 1) == float(k)


def test_default_model_convention():
    # duplication priced like copy, +k priced like the number k
    assert DEFAULT_MODEL.dup_cost == DEFAULT_MODEL.copy_cost
    for k in (1, 2, 3):
        assert DEFAULT_MODEL.increment_cost(k) == number_complexity(k)


def test_model_validation():
    with pytest.raises(ValueError):
        CostModel(copy_cost=-0.5)
    with pytest.raises(ValueError):
        CostModel(mirror_cost=float("nan"))
    with pytest.raises(ValueError):
        CostModel(stm_capacity=-1)
    with pytest.raises(ValueError):
        CostModel(allowed_increments=frozenset())
    with pytest.raises(ValueError):
        CostModel(allowed_increments=frozenset({0, 1}))
    with pytest.raises(ValueError):
        CostModel(increment_cost_overrides=((1, -2.0),))
    # an override for a step outside allowed_increments could never apply
    with pytest.raises(ValueError, match="increment_cost_5"):
        CostModel(increment_cost_overrides=((5, 0.1),))


def test_model_refuses_bools_where_it_means_numbers():
    # a bool is an int to Python, but a model holding one writes a config
    # (``stm_capacity = True``) that the parser refuses
    for kwargs in ({"stm_capacity": True},
                   {"allowed_increments": frozenset({True, 2})},
                   {"increment_cost_overrides": ((True, 0.5),)},
                   {"increment_cost_overrides": ((2, False),)},
                   {"copy_cost": True},
                   {"mirror_cost": False}):
        with pytest.raises(ValueError):
            CostModel(**kwargs)


def test_model_stores_plain_floats_with_no_negative_zero():
    # equal models share one move table, so they must price and print alike
    for kwargs, text in (({"copy_cost": -0.0}, "copy_cost = -0.0\n"),
                         ({"copy_cost": 0}, "copy_cost = 0.0\n"),
                         ({"mirror_cost": 2}, "mirror_cost = 2.0\n"),
                         ({"increment_cost_overrides": ((2, -0.0),)},
                          "increment_cost_2 = -0.0\n"),
                         ({"increment_cost_overrides": [[1, 3]]},
                          "increment_cost_1 = 3.0\n")):
        model = CostModel(**kwargs)
        assert model_from_config_text(text) == model
        charges = [getattr(model, name) for name in
                   ("copy_cost", "dup_cost", "segment_start_cost", "mirror_cost",
                    "zero_after_nine_cost")]
        charges += [cost for _, cost in model.increment_cost_overrides]
        assert all(type(c) is float and math.copysign(1.0, c) == 1.0 for c in charges)
        assert isinstance(model.increment_cost_overrides, tuple)
        assert all(isinstance(pair, tuple) for pair in model.increment_cost_overrides)
        hash(model)


def test_model_refuses_a_step_overridden_twice():
    # the config holds one charge per step, so the second could not round-trip
    with pytest.raises(ValueError, match="increment_cost_1 is given twice"):
        CostModel(increment_cost_overrides=((1, 0.5), (1, 2.0)))


def test_model_refuses_an_int_past_the_largest_float():
    with pytest.raises(ValueError, match="^copy_cost must be a finite number of bits"):
        CostModel(copy_cost=10**400)


def test_model_is_frozen():
    with pytest.raises(AttributeError):
        DEFAULT_MODEL.copy_cost = 2.0


def test_increment_cost_overrides():
    model = CostModel(increment_cost_overrides=((2, 0.25),))
    assert model.increment_cost(2) == 0.25
    assert model.increment_cost(1) == 1.0
    with pytest.raises(ValueError):
        model.increment_cost(0)


def test_config_round_trip_default():
    text = ("copy_cost = 1.0\ndup_cost = 1.0\nsegment_start_cost = 1.0\n"
            "mirror_cost = 2.0\nzero_after_nine_cost = 3.5\nstm_capacity = 4\n"
            "allowed_increments = 1,2\n")
    assert model_from_config_text(text) == DEFAULT_MODEL


def test_config_round_trip_custom():
    model = CostModel(copy_cost=0.75, stm_capacity=2,
                      allowed_increments=frozenset({1, 3}),
                      increment_cost_overrides=((3, 0.5),))
    text = ("copy_cost = 0.75\ndup_cost = 1.0\nsegment_start_cost = 1.0\n"
            "mirror_cost = 2.0\nzero_after_nine_cost = 3.5\nstm_capacity = 2\n"
            "allowed_increments = 1,3\nincrement_cost_3 = 0.5\n")
    assert model_from_config_text(text) == model


def test_config_partial_and_comments():
    model = model_from_config_text(
        "# override one constant\ncopy_cost = 2.0\n\nstm_capacity=3\n")
    assert model.copy_cost == 2.0
    assert model.stm_capacity == 3
    assert model.dup_cost == DEFAULT_MODEL.dup_cost


def test_config_unknown_key_is_hard_error():
    with pytest.raises(ValueError, match="line 2.*copy_costt"):
        model_from_config_text("copy_cost = 1.0\ncopy_costt = 2.0\n")


def test_config_bad_value_names_line():
    with pytest.raises(ValueError, match="line 1"):
        model_from_config_text("copy_cost = two\n")
    with pytest.raises(ValueError, match="line 1"):
        model_from_config_text("just words\n")


@settings(max_examples=50)
@given(st.floats(min_value=0.0, max_value=16.0),
       st.integers(min_value=0, max_value=9),
       st.sets(st.integers(min_value=1, max_value=9), min_size=1, max_size=4))
def test_config_round_trip_property(copy_cost, cap, incs):
    model = CostModel(copy_cost=copy_cost, stm_capacity=cap,
                      allowed_increments=frozenset(incs))
    text = (f"copy_cost = {copy_cost!r}\nstm_capacity = {cap}\n"
            f"allowed_increments = {','.join(map(str, sorted(incs)))}\n")
    assert model_from_config_text(text) == model
