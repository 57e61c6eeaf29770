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

COPY and INCREMENT(k) readings use short-term memory, described at
:func:`seqsurprise.program.touch`.  Under the default model (4 slots,
steps 1 and 2) the three possible steps never compete for slots, so
each is charged at most once per sequence.

How a token can be read depends only on the token, on whether it opens
the sequence and on the step from the previous token.  So one
:class:`MoveTable`, read by key, prices each ``(token, first)`` pair and
each step once, for this scan, its mirror's half-scan and the exact
search in :mod:`seqsurprise.oracle` alike.  :func:`fresh_moves` is the
one builder of a fresh reading; the table keeps the :class:`Move`
objects it builds, every one for the search and the cheapest for the
scan.  :func:`move_table` keeps one table per cost model for the life of
the process, and :func:`analyze`, :func:`price_many` and the oracle all
read it, so a second call prices nothing.  Models that compare equal share a
table; :class:`~seqsurprise.costmodel.CostModel` stores its charges so
that such models also price and print alike.  Each map of a table clears
itself when it reaches a fixed number of keys, and the cache keeps the
tables of at most ``_MOVE_TABLE_MODELS`` models, dropping the least
recently used, so the memory they hold is bounded.

The scan adds costs left to right and keeps short-term memory as a tuple
of steps.  :func:`price_many` yields costs only; :func:`analyze` also
keeps the table's move of each token and flattens the moves into a
validated :class:`DescriptionProgram`.  The lottery prices
combinations, which are checked when they are built, without checking
them again.

:func:`check_sequence` checks each token here, in its own loop, since it
runs once per priced sequence.  Every settled cost, and
:func:`derive_10_to_70`'s charge, passes :func:`seqsurprise.costmodel._finite`,
so a cost past the largest float raises ``ValueError``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .costmodel import Bits, CostModel, DEFAULT_MODEL, _finite, _is_int, number_complexity
from .program import DescriptionProgram, Operation, OpKind, touch

# Digit reading names, in tie-break order.
PATH_REPEAT = "repeat"
PATH_STEP = "step"
PATH_DIGITS = "digits"


def check_sequence(seq: Sequence[int]) -> tuple[int, ...]:
    toks = tuple(seq)
    if not toks:
        raise ValueError("sequence must contain at least one token")
    for t in toks:
        if not _is_int(t) or t < 0:
            raise ValueError(f"tokens must be nonnegative integers, got {t!r}")
    return toks


@dataclass(frozen=True)
class Move:
    """A candidate explanation for one token: ops to append and their cost."""

    ops: tuple[Operation, ...]
    cost: Bits
    key: int | None = None  # the step of a COPY (0) or INCREMENT reading


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


def fresh_moves(token: int, model: CostModel, *, first: bool) -> list[Move]:
    """Ways to start a segment at this token, in canonical order: plain
    instantiate, then the digit readings.  After the first token each
    opens with a SEGMENT_START, whose charge the move's cost adds.  The
    first of equal costs wins."""
    if first:
        seg_cost, seg_ops = 0.0, ()
    else:
        seg_cost = model.segment_start_cost
        seg_ops = (Operation(OpKind.SEGMENT_START, (), seg_cost),)
    readings = [(OpKind.INSTANTIATE, (token,), number_complexity(token))] + [
        (OpKind.SPLIT_DIGITS, (token, path), bits) for path, bits in split_readings(token, model)]
    return [Move(seg_ops + (Operation(kind, args, bits),), seg_cost + bits)
            for kind, args, bits in readings]


def explained_move(step: int, model: CostModel) -> tuple[Move, Move] | None:
    """The COPY or INCREMENT reading of a step as a ``(charged, free)``
    pair, if one applies; both are keyed by the step itself, and ``free``
    is taken while short-term memory holds that key."""
    if step == 0:
        kind, args, cost = OpKind.COPY, (), model.copy_cost
    elif step in model.allowed_increments:
        kind, args, cost = OpKind.INCREMENT, (step,), model.increment_cost(step)
    else:
        return None
    charged = Move((Operation(kind, args, cost, free=cost == 0.0),), cost, step)
    free = Move((Operation(kind, args, 0.0, free=True),), 0.0, step)
    return charged, free


# How many keys one map of a move table keeps before it clears itself: far
# more than a lottery or a benchmark prices, whose tokens stay below 100
# (at most 200 fresh keys and 199 steps per model).
_PRICED_ENTRIES = 4096


class _Priced(dict):
    """A map that prices a key the first time it is read and keeps the result.

    A map holding ``_PRICED_ENTRIES`` keys clears itself before it prices
    the next one; prices are pure, so a key priced again reads the same.
    """

    __slots__ = ("price",)

    def __init__(self, price: Callable) -> None:
        self.price = price

    def __missing__(self, key):
        if len(self) >= _PRICED_ENTRIES:
            self.clear()
        value = self[key] = self.price(key)
        return value


def _cost(move: Move) -> Bits:
    return move.cost


class MoveTable:
    """One cost model's moves, one map per kind of move, read by key.

    ``fresh`` maps ``(token, first)`` to every fresh move, built by
    :func:`fresh_moves` in canonical order.  ``opening`` and ``later`` map
    a token, as the first token or after it, to the cheapest of those
    moves, the first of equal costs.  ``steps`` maps a step to its
    :func:`explained_move` pair, or to ``None`` where neither COPY nor
    INCREMENT applies.  A map prices a key on its first read, calling
    those functions by their module names, so each key is priced once per
    table while the map holds it.  ``mirror`` is the one MIRROR move.

    Each map holds at most ``_PRICED_ENTRIES`` keys.  With every map full,
    every step allowed and tokens below 2**63, a table holds about 10.4 MiB
    (tracemalloc, CPython 3.11), so the ``_MOVE_TABLE_MODELS`` cached tables
    hold at most about 83 MiB.  Unbounded, pricing 10**5 distinct tokens
    kept about 192 MiB.
    """

    def __init__(self, model: CostModel) -> None:
        self.model = model
        # no map refers back to the table, so dropping it frees it at once
        fresh = self.fresh = _Priced(
            lambda key: tuple(fresh_moves(key[0], model, first=key[1])))
        self.opening = _Priced(lambda t: min(fresh[t, True], key=_cost))
        self.later = _Priced(lambda t: min(fresh[t, False], key=_cost))
        self.steps = _Priced(lambda step: explained_move(step, model))

    @cached_property
    def mirror(self) -> Move:
        cost = self.model.mirror_cost
        return Move((Operation(OpKind.MIRROR, (), cost),), cost)


# How many cost models keep a move table at once.
_MOVE_TABLE_MODELS = 8


@lru_cache(maxsize=_MOVE_TABLE_MODELS)
def move_table(model: CostModel) -> MoveTable:
    """The process's one :class:`MoveTable` for ``model``, shared by every
    model equal to it; the least recently used of more models is dropped."""
    return MoveTable(model)


def _scan(toks: tuple[int, ...], table: MoveTable,
          moves: list[Move] | None = None) -> Bits:
    """Total cost of the left-to-right scan, adding costs in order.

    Each token's move is read from the table; when a ``moves`` list is
    given, it is appended there too.  Short-term memory is a tuple of
    steps, updated by :func:`touch`.
    """
    capacity = table.model.stm_capacity
    later, steps = table.later, table.steps
    prev = toks[0]
    move = table.opening[prev]
    total = move.cost
    if moves is not None:
        moves.append(move)
    slots: tuple = ()
    for token in toks[1:]:
        pair = steps[token - prev]
        if pair is None:
            move = later[token]
        else:
            charged, move = pair
            key = charged.key
            # touching the newest slot again leaves the memory as it is
            if not slots or slots[-1] != key:
                if key not in slots:
                    move = charged
                slots = touch(slots, key, capacity)
        if moves is not None:
            moves.append(move)
        total += move.cost
        prev = token
    return total


def naive_cost(seq: Sequence[int], model: CostModel = DEFAULT_MODEL) -> Bits:
    """Cost of instantiating every token plainly, one segment each."""
    toks = check_sequence(seq)
    total = number_complexity(toks[0])
    for t in toks[1:]:
        total += model.segment_start_cost + number_complexity(t)
    return _finite(total)


def _describe(toks: tuple[int, ...], table: MoveTable,
              enable_mirror: bool) -> tuple[Bits, list[Move]]:
    moves: list[Move] = []
    total = _scan(toks, table, moves)
    n = len(toks)
    if enable_mirror and n >= 2 and n % 2 == 0 and toks == toks[::-1]:
        half_total, half_moves = _describe(toks[: n // 2], table, True)
        mirror = table.mirror
        if half_total + mirror.cost < total - 1e-12:
            return half_total + mirror.cost, half_moves + [mirror]
    return total, moves


def _price_valid(toks_iter: Iterable[tuple[int, ...]],
                 model: CostModel) -> Iterator[Bits]:
    """:func:`price_many` over token tuples that have already passed
    :func:`check_sequence`, such as lottery combinations' numbers."""
    table = move_table(model)
    for toks in toks_iter:
        yield _finite(_scan(toks, table))


def price_many(seqs: Iterable[Sequence[int]],
               model: CostModel = DEFAULT_MODEL) -> Iterator[Bits]:
    """Yield each sequence's cost in turn, lazily, as :func:`analyze` prices it.

    No program is built.  Every move is read from the model's
    :func:`move_table`, so a move priced by an earlier sequence or call is
    not priced again.  Each sequence is checked as it is reached, so a bad
    one raises there.
    """
    return _price_valid(map(check_sequence, seqs), model)


def analyze(seq: Sequence[int], model: CostModel = DEFAULT_MODEL, *,
            enable_mirror: bool = False) -> DescriptionProgram:
    """Describe a sequence and return the program with its total cost.

    With ``enable_mirror``, an even-length palindrome may be read as its
    first half plus one MIRROR operation; the cheaper of the two readings
    wins, with the plain scan preferred on ties.
    """
    toks = check_sequence(seq)
    total, moves = _describe(toks, move_table(model), enable_mirror)
    ops = [op for move in moves for op in move.ops]
    # checked only now: a plain scan past the largest float can lose to a finite mirror
    return DescriptionProgram(tuple(ops), _finite(total), toks)


def derive_10_to_70(model: CostModel = DEFAULT_MODEL) -> DescriptionProgram:
    """The round-tens sequence 10 20 30 40 50 60 70 as one structured account.

    The tens digits climb by one while the units digit stays a copied
    zero.  The whole structure is charged up front on the opening digit
    reading: one translation transfer (copy), the duplication making a
    two-digit slot, the dissociation of the transfer into a step-and-copy
    pair, and the two digits themselves (the leading one at rank cost,
    the zero for free).  Every later element rides the established
    transfer and is emitted free.

    Each part is priced as the scan prices it: the transfer at the copy
    cost, the slot and both digits as the digits reading of 10, and the
    dissociation as a second duplication plus the scan's +1 charge.  A
    model that does not allow the +1 step raises ``ValueError``.  With the
    default ties dup = copy and a unit charge for +1 and for the digit 1,
    the total is 3 * copy_cost + 2.
    """
    plus_one = explained_move(1, model)
    if plus_one is None:
        raise ValueError("the round-tens account needs the +1 step, which "
                         f"allowed_increments {sorted(model.allowed_increments)} lacks")
    digits = dict(split_readings(10, model))[PATH_DIGITS]
    charge = _finite(model.copy_cost + digits + model.dup_cost + plus_one[0].cost)
    ops: list[Operation] = [Operation(OpKind.SPLIT_DIGITS, (10, PATH_DIGITS), charge)]
    tokens = [10]
    for value in range(20, 71, 10):
        ops.append(Operation(OpKind.INSTANTIATE, (value,), 0.0, free=True))
        tokens.append(value)
    return DescriptionProgram(tuple(ops), charge, tuple(tokens))
