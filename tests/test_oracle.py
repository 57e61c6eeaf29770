import dataclasses
import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqsurprise
from brute_force import brute_force_min_cost
from conftest import charges, cost_models, op_tuples
from seqsurprise import analyzer, oracle
from seqsurprise.analyzer import analyze, naive_cost
from seqsurprise.costmodel import CostModel
from seqsurprise.oracle import (
    DEFAULT_OPERATORS,
    FULL_OPERATORS,
    SOFT_LENGTH_LIMIT,
    SearchBudget,
    oracle_min_cost,
)
from seqsurprise.program import OpKind, replay

short_sequences = st.lists(st.integers(min_value=0, max_value=49),
                           min_size=1, max_size=5)
operator_sets = st.sampled_from([DEFAULT_OPERATORS, FULL_OPERATORS])
# small tokens give copies, increments and 10/11/12 digit readings; the
# doubled halves give mirrors
brute_sequences = st.one_of(
    st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=6),
    st.lists(st.integers(min_value=0, max_value=49), min_size=1, max_size=3)
    .map(lambda half: half + half[::-1]),
)


def test_known_minima():
    assert oracle_min_cost([3, 3, 3, 3, 3])[0] == pytest.approx(3.0)
    assert oracle_min_cost([7, 7, 7, 7, 7])[0] == pytest.approx(4.0)
    assert oracle_min_cost([5])[0] == pytest.approx(math.log2(6))


def test_soft_length_limit_is_documented_not_enforced():
    assert SOFT_LENGTH_LIMIT == 8
    # the library itself accepts longer input, it is just slower
    cost, prog = oracle_min_cost([1] * 9)
    assert cost == pytest.approx(1.0 + 1.0)
    assert replay(prog) == [1] * 9


def test_search_deeper_than_the_recursion_limit_names_the_limit():
    # the search recurses once per token; 1,500 is past Python's default limit
    with pytest.raises(RecursionError, match="^exhaustive search of 1500 tokens is deeper "
                                             "than the recursion limit"):
        oracle_min_cost([0] * 1500)


def test_an_unchosen_infinite_reading_is_built_but_not_chosen():
    # 12's step reading (a digit, a duplication and a +1) sums past the
    # largest float; the search builds it and takes the plain 12 instead
    model = CostModel(dup_cost=1.7e308, allowed_increments=frozenset({1}),
                      increment_cost_overrides=((1, 1.7e308),))
    assert oracle_min_cost([12, 12], model)[0] == 4.700439718141093
    assert analyze([12, 12], model).total_cost == 4.700439718141093


@settings(max_examples=150)
@given(short_sequences, cost_models, operator_sets)
def test_witness_is_sound(seq, model, operators):
    cost, prog = oracle_min_cost(seq, model, SearchBudget(operators=operators))
    assert replay(prog) == seq
    assert prog.total_cost == pytest.approx(cost)
    # the bounds that make a length or cost cap on the search pointless
    assert len(prog.ops) <= 2 * len(seq) - 1
    assert cost <= naive_cost(seq, model) + 1e-9


@settings(max_examples=150)
@given(brute_sequences, cost_models, operator_sets)
def test_witness_matches_unpruned_enumeration(seq, model, operators):
    cost, prog = oracle_min_cost(seq, model, SearchBudget(operators=operators))
    ref_cost, ref_ops = brute_force_min_cost(seq, model, operators)
    assert cost == ref_cost
    assert op_tuples(prog.ops) == op_tuples(ref_ops)


@st.composite
def evicting_cases(draw):
    """A model with room for 0-2 steps in short-term memory and a sequence
    of at most six tokens whose COPY/INCREMENT steps (increments 1-5) are
    more, distinct, than it holds, so some reading is evicted."""
    capacity = draw(st.integers(min_value=0, max_value=2))
    allowed = draw(st.frozensets(st.integers(min_value=1, max_value=5),
                                 min_size=max(capacity, 1)))
    model = CostModel(copy_cost=draw(charges), dup_cost=draw(charges),
                      segment_start_cost=draw(charges), mirror_cost=draw(charges),
                      stm_capacity=capacity, allowed_increments=allowed)
    kinds = [0, *sorted(allowed)]
    distinct = draw(st.lists(st.sampled_from(kinds), min_size=capacity + 1,
                             max_size=capacity + 1, unique=True))
    extra = draw(st.lists(st.sampled_from(kinds), max_size=4 - capacity))
    steps = draw(st.permutations(distinct + extra))
    seq = list(itertools.accumulate(steps, initial=draw(st.integers(0, 12))))
    return seq, model


@settings(max_examples=150)
@given(evicting_cases(), operator_sets)
def test_witness_matches_unpruned_enumeration_past_capacity(case, operators):
    seq, model = case
    cost, prog = oracle_min_cost(seq, model, SearchBudget(operators=operators))
    ref_cost, ref_ops = brute_force_min_cost(seq, model, operators)
    assert cost == ref_cost
    assert op_tuples(prog.ops) == op_tuples(ref_ops)


def test_each_position_is_priced_once_per_solve(monkeypatch):
    calls = Counter()
    real = analyzer.fresh_moves

    def counting(token, model, *, first, **kwargs):
        calls[token, first] += 1
        return real(token, model, first=first, **kwargs)

    seq = [11, 22, 33, 44] * 3
    monkeypatch.setattr(analyzer, "fresh_moves", counting)
    budget = SearchBudget(operators=FULL_OPERATORS)
    for solve in range(2):
        calls.clear()
        cost, prog = oracle_min_cost(seq, budget=budget)
        if solve == 0:
            # one call per distinct (token, first): 11 first and 11, 22,
            # 33, 44 later; the per-node rebuild made thousands
            assert set(calls.values()) == {1}
            assert len(calls) == 5
        else:
            # the second solve reads the model's table and prices nothing
            assert not calls
        assert cost == pytest.approx(43.72067178682555)
        assert replay(prog) == seq


@settings(max_examples=150)
@given(short_sequences)
def test_oracle_lower_bounds_analyzer(seq):
    cost, _ = oracle_min_cost(seq)
    assert cost <= analyze(seq).total_cost + 1e-9


@settings(max_examples=200)
@given(short_sequences)
def test_oracle_matches_analyzer_exactly(seq):
    # both searches share move semantics; any gap is a bug in one of them
    cost, _ = oracle_min_cost(seq)
    assert cost == analyze(seq).total_cost


def test_deterministic_witness():
    a = oracle_min_cost([1, 2, 5, 6])[1]
    b = oracle_min_cost([1, 2, 5, 6])[1]
    assert a.ops == b.ops


def test_operator_monotonicity_on_palindrome():
    pal = [2, 14, 29, 35, 35, 29, 14, 2]
    without, _ = oracle_min_cost(pal, budget=SearchBudget(operators=DEFAULT_OPERATORS))
    with_mirror, prog = oracle_min_cost(pal, budget=SearchBudget(operators=FULL_OPERATORS))
    assert with_mirror < without
    assert any(op.kind is OpKind.MIRROR for op in prog.ops)
    assert replay(prog) == pal


@settings(max_examples=60)
@given(short_sequences)
def test_enlarging_operator_set_never_increases_minimum(seq):
    smaller, _ = oracle_min_cost(seq, budget=SearchBudget(operators=DEFAULT_OPERATORS))
    larger, _ = oracle_min_cost(seq, budget=SearchBudget(operators=FULL_OPERATORS))
    assert larger <= smaller + 1e-12


@pytest.mark.parametrize(
    "operators",
    [frozenset(), *(frozenset({kind}) for kind in OpKind),
     DEFAULT_OPERATORS - {OpKind.SPLIT_DIGITS}],
    ids=lambda ops: "+".join(sorted(kind.value for kind in ops)) or "empty")
def test_budget_takes_only_the_two_operator_sets(operators):
    with pytest.raises(ValueError, match="DEFAULT_OPERATORS or FULL_OPERATORS"):
        SearchBudget(operators=operators)


def test_budget_takes_no_length_or_cost_cap():
    with pytest.raises(TypeError):
        SearchBudget(max_cost=1.0)
    with pytest.raises(TypeError):
        SearchBudget(max_program_length=4)
    # the search needs no cap to return the minimum
    cost, prog = oracle_min_cost([1, 2, 3], budget=SearchBudget())
    assert cost == pytest.approx(analyze([1, 2, 3]).total_cost)
    assert len(prog.ops) <= 5


def test_budget_is_only_an_operator_set():
    assert [f.name for f in dataclasses.fields(SearchBudget)] == ["operators"]
    assert SearchBudget().operators == DEFAULT_OPERATORS
    assert SearchBudget(operators=FULL_OPERATORS).operators == FULL_OPERATORS
    for gone in ("BudgetError", "with_operators"):
        assert gone not in seqsurprise.__all__
        assert not hasattr(oracle, gone)


def test_cost_perturbation_moves_the_minimum_consistently():
    # [3,3,3,3,3] bottoms out at rank(3) + copy_cost; the copy charge
    # must pass straight through to the reported minimum
    for copy_cost in (0.25, 1.0, 1.7):
        model = CostModel(copy_cost=copy_cost)
        cost, _ = oracle_min_cost([3, 3, 3, 3, 3], model)
        assert cost == pytest.approx(2.0 + copy_cost)


def test_random_model_perturbations_keep_agreement():
    rng = random.Random(20240824)
    for _ in range(25):
        model = CostModel(
            copy_cost=rng.uniform(0.1, 3.0),
            dup_cost=rng.uniform(0.1, 3.0),
            segment_start_cost=rng.uniform(0.0, 2.0),
            zero_after_nine_cost=rng.uniform(0.0, 5.0),
        )
        seq = [rng.randrange(50) for _ in range(rng.randint(1, 5))]
        cost, _ = oracle_min_cost(seq, model)
        assert cost == analyze(seq, model).total_cost
