import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cost_models, op_tuples
from seqsurprise import analyzer
from seqsurprise.analyzer import (
    PATH_DIGITS,
    PATH_REPEAT,
    PATH_STEP,
    analyze,
    analyze_many,
    derive_10_to_70,
    explained_move,
    fresh_moves,
    naive_cost,
    split_readings,
)
from seqsurprise.costmodel import CostModel, DEFAULT_MODEL
from seqsurprise.program import Operation, OpKind, StmState, replay

# Reference six-number rows and their costs under the default model,
# frozen from hand-checked derivations (instantiate at rank cost, one
# segment charge per fresh start, +1/+2 and digit readings as cheaper
# explanations, each operator kind charged once).
REFERENCE_COSTS = [
    ([1, 2, 3, 4, 5, 6], 2.0),
    ([34, 35, 36, 37, 38, 39], 5.0),
    ([10, 11, 12, 44, 45, 46], 7.321928094887362),
    ([7, 8, 9, 37, 38, 39], 10.247927513443585),
    ([8, 9, 26, 27, 28, 29], 9.92481250360578),
    ([10, 20, 30, 31, 32, 33], 10.584962500721156),
    ([1, 2, 5, 6, 15, 49], 17.22881869049588),
    ([14, 24, 36, 38, 42, 44], 22.778122059009455),
]

tokens = st.integers(min_value=0, max_value=99)
sequences = st.lists(tokens, min_size=1, max_size=10)


@pytest.mark.parametrize("seq,expected", REFERENCE_COSTS)
def test_reference_row_costs(seq, expected):
    assert analyze(seq).total_cost == pytest.approx(expected, abs=1e-9)


def test_known_small_sequences():
    assert analyze([7, 7, 7, 7, 7]).total_cost == pytest.approx(4.0)
    assert analyze([3, 3, 3, 3, 3]).total_cost == pytest.approx(3.0)
    assert analyze([5]).total_cost == pytest.approx(math.log2(6))


def test_single_token_split_beats_rank_when_cheaper():
    # 44 as a duplicated 4: dup + rank(4) < rank(44)
    prog = analyze([44])
    assert prog.total_cost == pytest.approx(1.0 + math.log2(5))
    assert prog.ops[0].kind is OpKind.SPLIT_DIGITS
    assert prog.ops[0].args == (44, PATH_REPEAT)


def test_single_token_digit_reading_uses_independent_ranks():
    # 90 reads as digits 9 and 0 in separate roles; the cheap zero stands
    prog = analyze([90])
    assert prog.total_cost == pytest.approx(1.0 + math.log2(10))
    assert prog.ops[0].args == (90, PATH_DIGITS)


def test_split_reading_preference_order():
    readings = split_readings(44, DEFAULT_MODEL)
    assert [path for path, _ in readings] == [PATH_REPEAT, PATH_DIGITS]
    readings = split_readings(34, DEFAULT_MODEL)
    assert [path for path, _ in readings] == [PATH_STEP, PATH_DIGITS]
    assert split_readings(7, DEFAULT_MODEL) == []


def test_increment_detection_and_stm_discount():
    # 5 (+2) 7 (+2) 9: the second +2 rides short-term memory for free
    prog = analyze([5, 7, 9])
    assert prog.total_cost == pytest.approx(math.log2(6) + math.log2(3))
    kinds = [op.kind for op in prog.ops]
    assert kinds == [OpKind.INSTANTIATE, OpKind.INCREMENT, OpKind.INCREMENT]
    assert prog.ops[2].free


def test_decrements_are_not_increments():
    # a downward step is a fresh start, not a negative increment
    prog = analyze([9, 8])
    assert all(op.kind is not OpKind.INCREMENT for op in prog.ops)


def test_empty_and_invalid_sequences():
    with pytest.raises(ValueError):
        analyze([])
    with pytest.raises(ValueError):
        analyze([3, -1])
    with pytest.raises(ValueError):
        analyze([True, 2])


def test_shift_sensitivity():
    assert analyze([34, 35, 36, 37, 38, 39]).total_cost > \
        analyze([1, 2, 3, 4, 5, 6]).total_cost


@given(st.integers(min_value=0, max_value=200), st.integers(min_value=2, max_value=40))
def test_constant_sequence_cost_independent_of_length(n, m):
    base = analyze([n, n]).total_cost
    assert analyze([n] * m).total_cost == pytest.approx(base)


@settings(max_examples=300)
@given(sequences)
def test_dominance_over_naive_program(seq):
    assert analyze(seq).total_cost <= naive_cost(seq) + 1e-9


@settings(max_examples=300)
@given(sequences)
def test_round_trip(seq):
    prog = analyze(seq)
    assert replay(prog) == seq
    assert prog.total_cost == pytest.approx(
        sum(op.charged_cost for op in prog.ops))


@settings(max_examples=150)
@given(sequences, st.integers(min_value=0, max_value=4))
def test_stm_capacity_monotonicity(seq, cap):
    smaller = CostModel(stm_capacity=cap)
    larger = CostModel(stm_capacity=cap + 1)
    assert analyze(seq, larger).total_cost <= analyze(seq, smaller).total_cost + 1e-9


@settings(max_examples=150)
@given(sequences)
def test_mirror_flag_never_hurts(seq):
    assert analyze(seq, enable_mirror=True).total_cost <= \
        analyze(seq).total_cost + 1e-12


def test_mirror_reading_of_even_palindrome():
    pal = [2, 14, 29, 35, 35, 29, 14, 2]
    plain = analyze(pal)
    mirrored = analyze(pal, enable_mirror=True)
    half = analyze(pal[:4])
    assert plain.total_cost == pytest.approx(32.38244988459754)
    assert mirrored.total_cost == pytest.approx(19.983706192659348)
    assert mirrored.total_cost == pytest.approx(
        half.total_cost + DEFAULT_MODEL.mirror_cost)
    assert mirrored.ops[-1].kind is OpKind.MIRROR
    assert replay(mirrored) == pal


def test_mirror_ignores_odd_palindromes_and_non_palindromes():
    assert analyze([1, 2, 1], enable_mirror=True).total_cost == \
        analyze([1, 2, 1]).total_cost
    assert analyze([1, 2, 3, 4], enable_mirror=True).total_cost == \
        analyze([1, 2, 3, 4]).total_cost


def test_mirror_not_taken_when_plain_is_cheaper():
    # [3,3,3,3] as copies costs 3; half-plus-mirror would cost 4+2
    prog = analyze([3, 3, 3, 3], enable_mirror=True)
    assert all(op.kind is not OpKind.MIRROR for op in prog.ops)
    assert prog.total_cost == pytest.approx(3.0)


def test_derive_10_to_70_default_cost_and_replay():
    prog = derive_10_to_70()
    assert prog.total_cost == pytest.approx(5.0)
    assert replay(prog) == [10, 20, 30, 40, 50, 60, 70]
    assert prog.ops[0].kind is OpKind.SPLIT_DIGITS
    assert all(op.free for op in prog.ops[1:])


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_derive_10_to_70_scales_linearly_in_copy_cost(c):
    model = CostModel(copy_cost=c, dup_cost=c)
    prog = derive_10_to_70(model)
    assert prog.total_cost == pytest.approx(3 * c + 2)
    assert replay(prog) == [10, 20, 30, 40, 50, 60, 70]


def test_naive_cost_formula():
    assert naive_cost([5]) == pytest.approx(math.log2(6))
    assert naive_cost([3, 3]) == pytest.approx(2 * 2 + 1)
    model = CostModel(segment_start_cost=0.25)
    assert naive_cost([1, 1, 1], model) == pytest.approx(3 * 1 + 2 * 0.25)


def test_custom_increment_set():
    # with +5 allowed, 3 8 13 becomes one instantiate plus steps
    model = CostModel(allowed_increments=frozenset({5}))
    prog = analyze([3, 8, 13], model)
    assert prog.total_cost == pytest.approx(
        math.log2(4) + model.increment_cost(5))
    assert prog.ops[2].free


def _rescan(toks, model, mirror):
    """The scan without a move table: every token rebuilds its readings.
    Reference for the batch path."""
    stm = StmState(model.stm_capacity)
    ops, total = [], 0.0
    for i, token in enumerate(toks):
        pair = None if i == 0 else explained_move(token, toks[i - 1], model)
        if pair is None:
            move = min(fresh_moves(token, model, first=i == 0), key=lambda m: m.cost)
        else:
            charged, free = pair
            move = free if charged.key in stm else charged
            stm.touch(move.key)
        ops.extend(move.ops)
        total += move.cost
    n = len(toks)
    if mirror and n >= 2 and n % 2 == 0 and toks == toks[::-1]:
        half_ops, half_total = _rescan(toks[: n // 2], model, True)
        if half_total + model.mirror_cost < total - 1e-12:
            mirror_op = Operation(OpKind.MIRROR, (), model.mirror_cost)
            return half_ops + [mirror_op], half_total + model.mirror_cost
    return ops, total


# small tokens repeat across the batch, as first tokens and later ones;
# the doubled halves give mirrors
batch_sequences = st.one_of(
    st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=6),
    st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=3)
    .map(lambda half: half + half[::-1]),
)


@settings(max_examples=150)
@given(st.lists(batch_sequences, min_size=1, max_size=8), cost_models,
       cost_models, st.booleans(), st.randoms(use_true_random=False))
def test_batch_prices_like_one_call_per_sequence(seqs, model, other, mirror, rnd):
    rnd.shuffle(seqs)
    # a batch under another model in between must not leak into the next
    for m in (model, other, model):
        batch = analyze_many(seqs, m, enable_mirror=mirror)
        for seq, prog in zip(seqs, batch, strict=True):
            alone = analyze(seq, m, enable_mirror=mirror)
            ref_ops, ref_total = _rescan(tuple(seq), m, mirror)
            assert prog.total_cost == alone.total_cost == ref_total
            assert op_tuples(prog.ops) == op_tuples(alone.ops) == op_tuples(ref_ops)
            assert prog.reconstructs == tuple(seq)


def test_each_fresh_reading_is_priced_once_per_call(monkeypatch):
    seqs = [[3, 3, 7, 5], [5, 3, 9, 5], [7, 10, 3], [1, 2, 2, 1],
            [10, 44, 44, 10], [44, 10]] * 20
    expected = [op_tuples(analyze(s, enable_mirror=True).ops) for s in seqs]
    calls = Counter()
    real = analyzer.fresh_moves

    def counting(token, model, *, first, **kwargs):
        calls[token, first] += 1
        return real(token, model, first=first, **kwargs)

    monkeypatch.setattr(analyzer, "fresh_moves", counting)
    got = [op_tuples(p.ops) for p in analyze_many(seqs, enable_mirror=True)]
    assert got == expected
    # one pricing per distinct (token, first); rebuilding the readings at
    # every fresh start priced 20 per repetition, 400 in all
    assert set(calls.values()) == {1}
    assert len(calls) == 13


def test_each_step_is_priced_once_per_call(monkeypatch):
    seqs = [[3, 3, 4, 6, 6], [5, 6, 8, 8, 1], [1, 2, 2, 1],
            [10, 44, 44, 10], [9, 9]] * 20
    expected = [op_tuples(analyze(s, enable_mirror=True).ops) for s in seqs]
    calls = Counter()
    real = analyzer.explained_move

    def counting(token, prev, model):
        calls[token - prev] += 1
        return real(token, prev, model)

    monkeypatch.setattr(analyzer, "explained_move", counting)
    got = [op_tuples(p.ops) for p in analyze_many(seqs, enable_mirror=True)]
    assert got == expected
    # one reading per distinct step, applicable or not; building it at
    # every token made 17 per repetition, 340 in all
    assert set(calls.values()) == {1}
    assert sorted(calls) == [-34, -7, -1, 0, 1, 2, 34]


def test_batch_is_lazy_and_checks_each_sequence():
    batch = analyze_many([[1, 2], [], [3]])
    assert next(batch).total_cost == analyze([1, 2]).total_cost
    with pytest.raises(ValueError):
        next(batch)
