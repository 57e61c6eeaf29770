"""Structural scan of a token sequence into a least-effort description.

The scan walks left to right.  Each token is explained by the cheapest
applicable reading:

  * COPY when it repeats the previous token,
  * INCREMENT(k) when it exceeds the previous token by an allowed step,
  * otherwise a fresh start: SEGMENT_START (free for the very first
    token) plus the cheaper of a plain INSTANTIATE at rank cost or a
    SPLIT_DIGITS reading of a multi-digit token.

A SPLIT_DIGITS reading prices the token through its decimal digits:
a repeated digit (44) is one digit plus a duplication, digits an allowed
step apart (34) are a digit plus a dissociated step-and-copy, and
unrelated digits (10) are both digits plus the duplication.  Digit
readings are self-contained; they do not enter short-term memory.

COPY and INCREMENT(k) occupy short-term memory once used: while a kind
is held, further uses are free.  Under the default capacity of 4 the
three possible kinds never compete for slots, so each operator kind is
charged at most once per sequence.

A fresh start depends only on the token and on whether it opens the
sequence, so :func:`analyze_many` keeps a table from ``(token, first)``
to the cheapest of its :func:`fresh_moves` and prices each pair once per
call, however many sequences of the batch share it.  The table is scoped
to the call, never to the process: it holds moves for one cost model
only, and it goes away with the iterator.  :func:`analyze` is a batch of
one.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from .costmodel import Bits, CostModel, DEFAULT_MODEL, digit_complexity, number_complexity
from .program import (
    DescriptionProgram,
    Operation,
    OpKind,
    StmState,
    stm_key,
)

Token = int

# Digit reading names, in tie-break order.
PATH_REPEAT = "repeat"
PATH_STEP = "step"
PATH_DIGITS = "digits"


def check_sequence(seq: Sequence[int]) -> tuple[int, ...]:
    toks = tuple(seq)
    if not toks:
        raise ValueError("sequence must contain at least one token")
    for t in toks:
        if not isinstance(t, int) or isinstance(t, bool) or t < 0:
            raise ValueError(f"tokens must be nonnegative integers, got {t!r}")
    return toks


@dataclass(frozen=True)
class Move:
    """A candidate explanation for one token: ops to append and their cost."""

    ops: tuple[Operation, ...]
    cost: Bits
    touches: tuple = ()  # stm keys used by this move
    order: int = 0  # tie-break rank; lower wins at equal cost


def split_readings(token: int, model: CostModel) -> list[tuple[str, Bits]]:
    """Digit readings of a multi-digit token, in preference order."""
    if token < 10:
        return []
    tens, units = divmod(token, 10)
    readings: list[tuple[str, Bits]] = []
    if units == tens:
        readings.append((PATH_REPEAT, model.dup_cost + number_complexity(tens)))
    step = units - tens
    if step in model.allowed_increments:
        readings.append(
            (PATH_STEP,
             model.dup_cost + model.increment_cost(step) + number_complexity(tens)))
    readings.append(
        (PATH_DIGITS,
         model.dup_cost + number_complexity(tens) + number_complexity(units)))
    return readings


def fresh_moves(token: int, model: CostModel, *, first: bool,
                allow_split: bool = True) -> list[Move]:
    """Ways to start a segment at this token, cheapest reading not chosen yet."""
    seg_ops: tuple[Operation, ...] = ()
    seg_cost = 0.0
    if not first:
        seg_cost = model.segment_start_cost
        seg_ops = (Operation(OpKind.SEGMENT_START, (), seg_cost),)
    moves = [
        Move(
            ops=seg_ops + (Operation(OpKind.INSTANTIATE, (token,),
                                     number_complexity(token)),),
            cost=seg_cost + number_complexity(token),
            order=10,
        )
    ]
    if allow_split:
        for rank, (path, bits) in enumerate(split_readings(token, model)):
            moves.append(
                Move(
                    ops=seg_ops + (Operation(OpKind.SPLIT_DIGITS, (token, path), bits),),
                    cost=seg_cost + bits,
                    order=20 + rank,
                ))
    return moves


def explained_move(token: int, prev: int, stm: StmState,
                   model: CostModel) -> Move | None:
    """COPY or INCREMENT reading of this token, if one applies."""
    if token == prev:
        key = stm_key(OpKind.COPY)
        charged = 0.0 if key in stm else model.copy_cost
        op = Operation(OpKind.COPY, (), charged, free=charged == 0.0)
        return Move(ops=(op,), cost=charged, touches=(key,), order=0)
    step = token - prev
    if step in model.allowed_increments:
        key = stm_key(OpKind.INCREMENT, (step,))
        charged = 0.0 if key in stm else model.increment_cost(step)
        op = Operation(OpKind.INCREMENT, (step,), charged, free=charged == 0.0)
        return Move(ops=(op,), cost=charged, touches=(key,), order=1)
    return None


def _scan(toks: tuple[int, ...], model: CostModel,
          cheapest: dict[tuple[int, bool], Move]) -> DescriptionProgram:
    stm = StmState(model.stm_capacity)
    ops: list[Operation] = []
    total = 0.0
    for i, token in enumerate(toks):
        first = i == 0
        move = None if first else explained_move(token, toks[i - 1], stm, model)
        if move is None:
            move = cheapest.get((token, first))
        if move is None:
            move = cheapest[token, first] = min(fresh_moves(token, model, first=first),
                                                key=lambda m: (m.cost, m.order))
        ops.extend(move.ops)
        total += move.cost
        for key in move.touches:
            stm.touch(key)
    return DescriptionProgram(tuple(ops), total, toks)


def naive_cost(seq: Sequence[int], model: CostModel = DEFAULT_MODEL) -> Bits:
    """Cost of instantiating every token plainly, one segment each."""
    toks = check_sequence(seq)
    total = number_complexity(toks[0])
    for t in toks[1:]:
        total += model.segment_start_cost + number_complexity(t)
    return total


def _describe(toks: tuple[int, ...], model: CostModel, enable_mirror: bool,
              cheapest: dict[tuple[int, bool], Move]) -> DescriptionProgram:
    best = _scan(toks, model, cheapest)
    n = len(toks)
    if enable_mirror and n >= 2 and n % 2 == 0 and toks == toks[::-1]:
        half = _describe(toks[: n // 2], model, True, cheapest)
        mirrored_total = half.total_cost + model.mirror_cost
        if mirrored_total < best.total_cost - 1e-12:
            ops = half.ops + (Operation(OpKind.MIRROR, (), model.mirror_cost),)
            best = DescriptionProgram(ops, mirrored_total, toks)
    return best


def analyze_many(seqs: Iterable[Sequence[int]], model: CostModel = DEFAULT_MODEL, *,
                 enable_mirror: bool = False) -> Iterator[DescriptionProgram]:
    """Describe each sequence in turn, lazily, as :func:`analyze` would.

    The cheapest fresh reading of each ``(token, first)`` pair is priced
    once per call and reused for every later sequence of the batch.  The
    table lives only as long as the returned iterator, and no program is
    kept after it is yielded.
    """
    cheapest: dict[tuple[int, bool], Move] = {}
    for seq in seqs:
        yield _describe(check_sequence(seq), model, enable_mirror, cheapest)


def analyze(seq: Sequence[int], model: CostModel = DEFAULT_MODEL, *,
            enable_mirror: bool = False) -> DescriptionProgram:
    """Describe a sequence and return the program with its total cost.

    With ``enable_mirror``, an even-length palindrome may be read as its
    first half plus one MIRROR operation; the cheaper of the two readings
    wins, with the plain scan preferred on ties.
    """
    return next(analyze_many([seq], model, enable_mirror=enable_mirror))


def derive_10_to_70(model: CostModel = DEFAULT_MODEL) -> DescriptionProgram:
    """The round-tens sequence 10 20 30 40 50 60 70 as one structured account.

    The tens digits climb by one while the units digit stays a copied
    zero.  The whole structure is charged up front on the opening digit
    reading: one translation transfer (copy), the duplication making a
    two-digit slot, the dissociation of the transfer into a step-and-copy
    pair, and the two digits themselves (the leading one at rank cost,
    the zero for free).  Every later element rides the established
    transfer and is emitted free.

    With the default ties dup = copy and a unit charge for +1 and for the
    digit 1, the total is 3 * copy_cost + 2.
    """
    charge = (
        model.copy_cost                      # transfer through translation
        + model.dup_cost                     # duplicated digit slot
        + digit_complexity(0, model=model)   # units digit, a plain zero
        + model.dup_cost + model.increment_cost(1)  # dissociation into +1 / copy
        + digit_complexity(1, model=model)   # leading tens digit
    )
    ops: list[Operation] = [Operation(OpKind.SPLIT_DIGITS, (10, PATH_DIGITS), charge)]
    tokens = [10]
    for value in range(20, 71, 10):
        ops.append(Operation(OpKind.INSTANTIATE, (value,), 0.0, free=True))
        tokens.append(value)
    return DescriptionProgram(tuple(ops), charge, tuple(tokens))
