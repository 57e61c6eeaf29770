import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute_force import _remember
from seqsurprise.analyzer import MoveTable, analyze, explained_move, fresh_moves
from seqsurprise.costmodel import CostModel, DEFAULT_MODEL
from seqsurprise.oracle import oracle_min_cost
from seqsurprise.program import (
    DescriptionProgram,
    Operation,
    OpKind,
    ReplayError,
    StmState,
    replay,
    touch,
)


def inst(n, cost, free=False):
    return Operation(OpKind.INSTANTIATE, (n,), cost, free=free)


def test_operation_validation():
    with pytest.raises(ValueError):
        Operation(OpKind.COPY, (), -1.0)
    with pytest.raises(ValueError):
        Operation(OpKind.COPY, (), float("nan"))
    with pytest.raises(ValueError):
        Operation(OpKind.COPY, (), 1.0, free=True)
    # free with zero charge is the legal shape
    Operation(OpKind.COPY, (), 0.0, free=True)


def test_operation_label():
    assert Operation(OpKind.INCREMENT, (2,), 1.0).label() == "INCREMENT(2)"
    assert Operation(OpKind.COPY).label() == "COPY()"
    assert Operation(OpKind.SPLIT_DIGITS, (44, "repeat"), 3.0).label() == \
        "SPLIT_DIGITS(44,repeat)"


def test_stm_touch_and_eviction():
    stm = StmState(capacity=2)
    stm.touch("a")
    stm.touch("b")
    assert "a" in stm and "b" in stm
    stm.touch("c")  # least recently used slot drops
    assert "a" not in stm
    assert "b" in stm and "c" in stm
    stm.touch("b")  # refresh b, then c becomes the eviction candidate
    stm.touch("d")
    assert "c" not in stm
    assert "b" in stm and "d" in stm


def test_stm_zero_capacity_holds_nothing():
    stm = StmState(capacity=0)
    stm.touch("a")
    assert "a" not in stm
    assert stm.slots == ()


@given(st.integers(min_value=0, max_value=5),
       st.lists(st.sampled_from("abcdefg"), max_size=40))
def test_touch_follows_the_stm_state_rule(capacity, keys):
    # the engine's memory must agree slot for slot with the reference
    # search's list memory, which shares no code with it
    stm = StmState(capacity)
    slots: tuple = ()
    reference: list = []
    for key in keys:
        stm.touch(key)
        slots = touch(slots, key, capacity)
        reference = _remember(reference, key, capacity)
        assert slots == tuple(reference) == stm.slots
        assert all((k in slots) == (k in reference) == (k in stm) for k in "abcdefg")


def test_readings_are_keyed_by_their_step():
    # COPY is step 0; each INCREMENT(k) is held apart from the others
    keys = [tuple(move.key for move in explained_move(step, DEFAULT_MODEL))
            for step in (0, 1, 2)]
    assert keys == [(0, 0), (1, 1), (2, 2)]
    assert all(move.key is None for move in fresh_moves(44, DEFAULT_MODEL, first=False))
    assert MoveTable(DEFAULT_MODEL).mirror.key is None


def test_program_total_must_match_charges():
    ops = (inst(5, 2.0),)
    DescriptionProgram(ops, 2.0, (5,))
    with pytest.raises(ValueError):
        DescriptionProgram(ops, 3.0, (5,))


def test_program_refuses_a_total_thousands_of_bits_off_at_large_charges():
    # a relative tolerance of 1e-9 would let 5000 bits pass at 1e13; two
    # charges may round a few units in the last place, under 0.01 bits here
    ops = (inst(5, 1e13), inst(6, 1.0))
    DescriptionProgram(ops, 1e13 + 1.0, (5, 6))
    with pytest.raises(ValueError, match="does not match summed charges"):
        DescriptionProgram(ops, 1e13 + 5000, (5, 6))
    with pytest.raises(ValueError, match="does not match summed charges"):
        DescriptionProgram(ops, 1e13 + 1.0 + 2**-52 * 1e13 * 8, (5, 6))


@pytest.mark.parametrize("seq,segment_start_cost", [
    ([72, 97, 8], 1e13), ([1, 65, 41, 14], 1e15), ([18, 48, 55, 41], 1e16)])
@pytest.mark.parametrize("engine", ["analyze", "oracle"])
def test_program_accepts_its_total_at_large_charges(seq, segment_start_cost, engine):
    model = CostModel(segment_start_cost=segment_start_cost)
    if engine == "analyze":
        prog = analyze(seq, model)
    else:
        cost, prog = oracle_min_cost(seq, model)
        assert cost == prog.total_cost
    assert replay(prog) == seq
    # a move adds its segment start and reading as one term, so the
    # op-by-op sum lands a few units in the last place away.  The sum is
    # written out: from Python 3.12 sum() compensates its roundings.
    charged = 0.0
    for op in prog.ops:
        charged += op.charged_cost
    assert charged != prog.total_cost
    assert abs(charged - prog.total_cost) <= 4 * len(seq) * 2**-53 * charged


def test_trace_line_format():
    prog = DescriptionProgram(
        (inst(7, 3.0), Operation(OpKind.COPY, (), 1.0)), 4.0, (7, 7))
    assert prog.trace_lines() == [
        "INSTANTIATE(7) charged=3.000000 free=0 total=3.000000",
        "COPY() charged=1.000000 free=0 total=4.000000",
    ]


def test_replay_empty_program():
    with pytest.raises(ReplayError, match="empty"):
        replay(DescriptionProgram((), 0.0, ()))


def test_replay_round_trip_simple():
    prog = analyze([1, 2, 3, 4, 5, 6])
    assert replay(prog) == [1, 2, 3, 4, 5, 6]


def test_replay_copy_needs_previous_token():
    prog = DescriptionProgram((Operation(OpKind.COPY, (), 1.0),), 1.0, (0,))
    with pytest.raises(ReplayError, match="op 1"):
        replay(prog)


def test_replay_increment_needs_previous_and_positive_step():
    prog = DescriptionProgram((Operation(OpKind.INCREMENT, (1,), 1.0),), 1.0, (1,))
    with pytest.raises(ReplayError, match="op 1"):
        replay(prog)
    prog = DescriptionProgram(
        (inst(3, 2.0), Operation(OpKind.INCREMENT, (0,), 0.5)), 2.5, (3, 3))
    with pytest.raises(ReplayError, match="op 2"):
        replay(prog)


def test_replay_segment_start_cannot_open_program():
    prog = DescriptionProgram(
        (Operation(OpKind.SEGMENT_START, (), 1.0), inst(3, 2.0)), 3.0, (3,))
    with pytest.raises(ReplayError, match="op 1"):
        replay(prog)


def test_replay_segment_start_cannot_dangle():
    prog = DescriptionProgram(
        (inst(3, 2.0), Operation(OpKind.SEGMENT_START, (), 1.0)), 3.0, (3,))
    with pytest.raises(ReplayError, match="dangling"):
        replay(prog)


def test_replay_segment_start_must_precede_instantiation():
    prog = DescriptionProgram(
        (inst(3, 2.0), Operation(OpKind.SEGMENT_START, (), 1.0),
         Operation(OpKind.COPY, (), 1.0)), 4.0, (3, 3))
    with pytest.raises(ReplayError, match="op 3"):
        replay(prog)


def test_replay_charged_restart_requires_segment_start():
    prog = DescriptionProgram((inst(3, 2.0), inst(9, 3.321928094887362)),
                              5.321928094887362, (3, 9))
    with pytest.raises(ReplayError, match="op 2.*SEGMENT_START"):
        replay(prog)


def test_replay_free_emission_rides_established_transfer():
    # free instantiations continue a structure and need no segment break
    prog = DescriptionProgram(
        (inst(10, 5.0), inst(20, 0.0, free=True), inst(30, 0.0, free=True)),
        5.0, (10, 20, 30))
    assert replay(prog) == [10, 20, 30]


def test_replay_mirror_reverses_everything_emitted():
    prog = DescriptionProgram(
        (inst(1, 1.0), Operation(OpKind.INCREMENT, (1,), 1.0),
         Operation(OpKind.MIRROR, (), 2.0)), 4.0, (1, 2, 2, 1))
    assert replay(prog) == [1, 2, 2, 1]


def test_replay_mirror_needs_tokens():
    prog = DescriptionProgram((Operation(OpKind.MIRROR, (), 2.0),), 2.0, ())
    with pytest.raises(ReplayError, match="op 1"):
        replay(prog)


def test_replay_checks_reconstruction_claim():
    prog = DescriptionProgram((inst(3, 2.0),), 2.0, (4,))
    with pytest.raises(ReplayError, match="replays to"):
        replay(prog)


@settings(max_examples=200)
@given(st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=8))
def test_replay_inverts_analyze(seq):
    assert replay(analyze(seq)) == seq
