import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute_force import _remember
from conftest import cost_models, op_tuples
from seqsurprise import analyzer
from seqsurprise.analyzer import (
    PATH_DIGITS,
    PATH_REPEAT,
    PATH_STEP,
    analyze,
    derive_10_to_70,
    explained_move,
    fresh_moves,
    naive_cost,
    price_many,
    split_readings,
)
from seqsurprise.costmodel import CostModel, DEFAULT_MODEL
from seqsurprise.program import Operation, OpKind, replay

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


def test_a_scan_past_the_largest_float_can_lose_to_a_finite_mirror():
    # the plain scan pays two segment starts, which overflow; the half
    # [1, 5] plus MIRROR pays one
    model = CostModel(segment_start_cost=1.7e308)
    prog = analyze([1, 5, 5, 1], model, enable_mirror=True)
    assert prog.ops[-1].kind is OpKind.MIRROR and math.isfinite(prog.total_cost)
    with pytest.raises(ValueError, match="not a finite float"):
        analyze([1, 5, 5, 1], model)
    with pytest.raises(ValueError, match="not a finite float"):
        list(price_many([[1, 5, 5, 1]], model))


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


def test_derive_10_to_70_needs_the_plus_one_step():
    with pytest.raises(ValueError, match=r"\+1 step"):
        derive_10_to_70(CostModel(allowed_increments=frozenset({2})))
    # the +1 charge is the model's, as the scan would charge it
    model = CostModel(allowed_increments=frozenset({1, 2}), increment_cost_overrides=((1, 0.25),))
    assert derive_10_to_70(model).total_cost == pytest.approx(4.25)


def test_derive_10_to_70_past_the_largest_float_raises():
    # each charge is finite, but the opening reading's sum is not
    with pytest.raises(ValueError, match="description cost is not a finite float"):
        derive_10_to_70(CostModel(copy_cost=1.7e308, dup_cost=1.7e308))


def test_naive_cost_formula():
    assert naive_cost([5]) == pytest.approx(math.log2(6))
    assert naive_cost([3, 3]) == pytest.approx(2 * 2 + 1)
    model = CostModel(segment_start_cost=0.25)
    assert naive_cost([1, 1, 1], model) == pytest.approx(3 * 1 + 2 * 0.25)


def test_naive_cost_past_the_largest_float_raises():
    with pytest.raises(ValueError, match="description cost is not a finite float, got inf"):
        naive_cost([1, 5, 9], CostModel(segment_start_cost=1.7e308))


def test_custom_increment_set():
    # with +5 allowed, 3 8 13 becomes one instantiate plus steps
    model = CostModel(allowed_increments=frozenset({5}))
    prog = analyze([3, 8, 13], model)
    assert prog.total_cost == pytest.approx(
        math.log2(4) + model.increment_cost(5))
    assert prog.ops[2].free


def test_a_held_key_is_refreshed_before_an_eviction():
    # capacity 2: the free +1 at 3 makes INCREMENT(1) newer than COPY, so
    # +2 evicts COPY and the last copy is charged again
    model = CostModel(stm_capacity=2)
    seqs = [[1, 2, 2, 3, 5, 5], [1, 2, 2, 3, 5, 6]]
    costs = [1 + 1 + 1 + 0 + math.log2(3) + 1, 1 + 1 + 1 + 0 + math.log2(3) + 0]
    for seq, cost in zip(seqs, costs):
        prog = analyze(seq, model)
        assert prog.total_cost == pytest.approx(cost)
        assert prog.total_cost == _rescan(tuple(seq), model, False)[1]
    assert list(price_many(seqs, model)) == [analyze(s, model).total_cost for s in seqs]


def _rescan(toks, model, mirror):
    """The scan without a move table: every token rebuilds its readings,
    and memory is the reference search's list.  Reference for the batch
    path."""
    stm, ops, total = [], [], 0.0
    for i, token in enumerate(toks):
        pair = None if i == 0 else explained_move(token - toks[i - 1], model)
        if pair is None:
            move = min(fresh_moves(token, model, first=i == 0), key=lambda m: m.cost)
        else:
            charged, free = pair
            move = free if charged.key in stm else charged
            stm = _remember(stm, move.key, model.stm_capacity)
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
        batch = price_many(seqs, m)
        for seq, bits in zip(seqs, batch, strict=True):
            assert bits == analyze(seq, m).total_cost == _rescan(tuple(seq), m, False)[1]
            alone = analyze(seq, m, enable_mirror=mirror)
            ref_ops, ref_total = _rescan(tuple(seq), m, mirror)
            assert alone.total_cost == ref_total
            assert op_tuples(alone.ops) == op_tuples(ref_ops)
            assert alone.reconstructs == tuple(seq)


def test_each_fresh_reading_is_priced_once_per_call(monkeypatch):
    seqs = [[3, 3, 7, 5], [5, 3, 9, 5], [7, 10, 3], [1, 2, 2, 1],
            [10, 44, 44, 10], [44, 10]] * 20
    expected = [analyze(s).total_cost for s in seqs]
    analyzer.move_table.cache_clear()
    calls = Counter()
    real = analyzer.fresh_moves

    def counting(token, model, *, first, **kwargs):
        calls[token, first] += 1
        return real(token, model, first=first, **kwargs)

    monkeypatch.setattr(analyzer, "fresh_moves", counting)
    assert list(price_many(seqs)) == expected
    # one pricing per distinct (token, first); rebuilding the readings at
    # every fresh start priced 20 per repetition, 400 in all
    assert set(calls.values()) == {1}
    assert len(calls) == 13
    # the model's table outlives the call: a second batch, analyze and the
    # oracle, under an equal model, build no fresh move again
    assert list(price_many(seqs, CostModel())) == expected
    assert [analyze(s).total_cost for s in seqs] == expected
    assert set(calls.values()) == {1} and len(calls) == 13
    # the search reads the same table: it builds only the fresh 2 of 1 2 2 1,
    # which the scan reads as +1, so each (token, first) is built once per
    # process
    from seqsurprise.oracle import oracle_min_cost

    for seq in seqs[:6]:
        oracle_min_cost(seq)
    assert set(calls.values()) == {1}
    assert len(calls) == 14 and (2, False) in calls


def test_each_step_is_priced_once_per_call(monkeypatch):
    seqs = [[3, 3, 4, 6, 6], [5, 6, 8, 8, 1], [1, 2, 2, 1],
            [10, 44, 44, 10], [9, 9]] * 20
    expected = [analyze(s).total_cost for s in seqs]
    analyzer.move_table.cache_clear()
    calls = Counter()
    real = analyzer.explained_move

    def counting(step, model):
        calls[step] += 1
        return real(step, model)

    monkeypatch.setattr(analyzer, "explained_move", counting)
    assert list(price_many(seqs)) == expected
    # one reading per distinct step, applicable or not; building it at
    # every token made 17 per repetition, 340 in all
    assert set(calls.values()) == {1}
    assert sorted(calls) == [-34, -7, -1, 0, 1, 2, 34]
    # a second call reads the same table and prices no step again
    calls.clear()
    assert [analyze(s).total_cost for s in seqs] == expected
    assert list(price_many(seqs)) == expected
    assert not calls


@pytest.mark.parametrize("seq,fresh,steps", [
    # the half 1 2 2 1 is a palindrome too, so its own half is scanned as well
    ([1, 2, 2, 1, 1, 2, 2, 1], {(1, True), (1, False)}, {-1, 0, 1}),
    ([10, 44, 44, 10], {(10, True), (44, False), (10, False)}, {-34, 0, 34}),
])
def test_mirror_half_scan_prices_nothing_again(monkeypatch, seq, fresh, steps):
    expected = op_tuples(analyze(seq, enable_mirror=True).ops)
    analyzer.move_table.cache_clear()
    fresh_calls, step_calls = Counter(), Counter()
    real_fresh, real_explained = analyzer.fresh_moves, analyzer.explained_move

    def counting_fresh(token, model, *, first):
        fresh_calls[token, first] += 1
        return real_fresh(token, model, first=first)

    def counting_explained(step, model):
        step_calls[step] += 1
        return real_explained(step, model)

    monkeypatch.setattr(analyzer, "fresh_moves", counting_fresh)
    monkeypatch.setattr(analyzer, "explained_move", counting_explained)
    assert op_tuples(analyze(seq, enable_mirror=True).ops) == expected
    # the half-scans read the full scan's table: one pricing per
    # (token, first) and per step
    assert set(fresh_calls.values()) == set(step_calls.values()) == {1}
    assert set(fresh_calls) == fresh
    assert set(step_calls) == steps
    # a second call reads the same table and prices nothing
    fresh_calls.clear()
    step_calls.clear()
    assert op_tuples(analyze(seq, enable_mirror=True).ops) == expected
    assert not fresh_calls and not step_calls


def test_each_map_of_a_table_stays_under_its_cap():
    table = analyzer.move_table(DEFAULT_MODEL)
    maps = (table.opening, table.later, table.fresh, table.steps)
    before = table.opening[7], table.later[44], table.fresh[44, False], table.steps[1]
    # 10**5 distinct tokens, and as many distinct steps
    batch = price_many([t, 2 * t + 3] for t in range(10**5))
    for _ in batch:
        assert max(map(len, maps)) <= analyzer._PRICED_ENTRIES
    assert 44 not in table.later and (44, False) not in table.fresh
    # prices are pure: a cleared key priced again reads as it first did
    again = table.opening[7], table.later[44], table.fresh[44, False], table.steps[1]
    assert again == before


def test_equal_models_share_one_table():
    assert analyzer.move_table(CostModel()) is analyzer.move_table(DEFAULT_MODEL)
    assert (analyzer.move_table(CostModel(copy_cost=-0.0))
            is analyzer.move_table(CostModel(copy_cost=0.0)))
    assert analyzer.move_table(CostModel(copy_cost=2.0)) is not analyzer.move_table(DEFAULT_MODEL)


def test_analyze_price_many_and_the_oracle_read_one_table(monkeypatch):
    from seqsurprise.oracle import oracle_min_cost

    built = []
    real = analyzer.MoveTable

    def building(model):
        built.append(real(model))
        return built[-1]

    monkeypatch.setattr(analyzer, "MoveTable", building)
    seq = [11, 22, 33, 44]
    analyze(seq)
    oracle_min_cost(seq)
    list(price_many([seq], CostModel()))
    assert len(built) == 1
    table = built[0]
    assert analyzer.move_table(DEFAULT_MODEL) is table
    # the scan filled ``later`` and the search ``fresh``, in one object
    assert 22 in table.later and (22, False) in table.fresh


@pytest.mark.parametrize("a,b", [
    (CostModel(copy_cost=-0.0), CostModel(copy_cost=0.0)),
    (CostModel(copy_cost=1), CostModel(copy_cost=1.0)),
    (CostModel(increment_cost_overrides=((2, -0.0),)),
     CostModel(increment_cost_overrides=((2, 0),))),
])
def test_equal_models_print_alike_whichever_is_priced_first(a, b):
    seq = [3, 3, 5, 7, 7, 44, 10]

    def printed(model):
        prog = analyze(seq, model)
        return prog.trace_lines(), repr(op_tuples(prog.ops)), repr(prog.total_cost)

    assert a == b
    a_first = printed(a), printed(b)
    analyzer.move_table.cache_clear()
    b_first = printed(b), printed(a)
    assert a_first[0] == a_first[1] == b_first[0] == b_first[1]


def test_batch_builds_no_program(monkeypatch):
    seqs = [[3, 3, 4, 6, 6], [5, 6, 8, 8, 1], [1, 2, 3, 4, 5, 6],
            [10, 44, 44, 10], [9, 9, 10, 11, 13]]
    expected = [analyze(s).total_cost for s in seqs]

    def no_program(*args, **kwargs):
        raise AssertionError("a batch built a DescriptionProgram")

    monkeypatch.setattr(analyzer, "DescriptionProgram", no_program)
    assert list(price_many(seqs * 200)) == expected * 200


# no step between neighbours is a COPY or an allowed increment, so every
# token is read fresh
ALL_FRESH = [[5, 30, 7, 44], [44, 10, 3], [5, 30, 5, 30], [99, 12, 60, 21]]


def test_batch_builds_no_operation_for_a_fresh_reading(monkeypatch):
    expected = [analyze(s).total_cost for s in ALL_FRESH]

    def no_operation(*args, **kwargs):
        raise AssertionError("a batch built an Operation")

    monkeypatch.setattr(analyzer, "Operation", no_operation)
    # analyze above priced every key, so the batch reads the table's moves
    assert list(price_many(ALL_FRESH)) == expected


def test_analyze_builds_one_move_per_fresh_token(monkeypatch):
    analyzer.move_table.cache_clear()
    built, fresh = [], Counter()
    real_move, real_fresh = analyzer.Move, analyzer.fresh_moves

    def counting(*args, **kwargs):
        built.append(real_move(*args, **kwargs))
        return built[-1]

    def building(token, model, *, first):
        moves = real_fresh(token, model, first=first)
        fresh[token, first] += len(moves)
        return moves

    monkeypatch.setattr(analyzer, "Move", counting)
    monkeypatch.setattr(analyzer, "fresh_moves", building)
    expected = [op_tuples(analyze(seq).ops) for seq in ALL_FRESH]
    # the first call builds each fresh reading of each (token, first) once,
    # in fresh_moves, and no other Move: no step here has a reading
    assert set(fresh) == {(seq[0], True) for seq in ALL_FRESH} | {
        (t, False) for seq in ALL_FRESH for t in seq[1:]}
    assert len(built) == sum(fresh.values())
    for seq, ops in zip(ALL_FRESH, expected):
        built.clear()
        assert op_tuples(analyze(seq).ops) == ops
        # a second call keeps the table's moves and builds none
        assert not built


tie_charges = st.one_of(st.sampled_from([0.0, 0.5, 1.0, math.log2(3), 2.0]),
                        st.floats(min_value=0.0, max_value=4.0))


@st.composite
def tie_models(draw):
    """Cost models whose fresh readings often tie: zero charges, a free
    duplication, overridden step charges and steps 1-5."""
    steps = draw(st.frozensets(st.integers(min_value=1, max_value=5), min_size=1))
    overrides = draw(st.dictionaries(st.sampled_from(sorted(steps)), tie_charges))
    return CostModel(copy_cost=draw(tie_charges),
                     dup_cost=draw(st.one_of(st.just(0.0), tie_charges)),
                     segment_start_cost=draw(tie_charges),
                     zero_after_nine_cost=draw(tie_charges),
                     allowed_increments=steps,
                     increment_cost_overrides=tuple(sorted(overrides.items())))


@settings(max_examples=60)
@given(tie_models())
def test_table_keeps_the_first_cheapest_fresh_move(model):
    table = analyzer.MoveTable(model)
    # 0-200 holds every digit reading and the near tie 29
    for token in range(201):
        for first in (True, False):
            members = table.fresh[token, first]
            built = fresh_moves(token, model, first=first)
            assert [m.cost.hex() for m in members] == [m.cost.hex() for m in built]
            assert [op_tuples(m.ops) for m in members] == [op_tuples(m.ops) for m in built]
            low = min(m.cost for m in built)
            first_cheapest = next(m for m in members if m.cost == low)
            assert (table.opening if first else table.later)[token] is first_cheapest


def test_batch_is_lazy_and_checks_each_sequence():
    batch = price_many([[1, 2], [], [3]])
    assert next(batch) == analyze([1, 2]).total_cost
    with pytest.raises(ValueError):
        next(batch)
