"""Exhaustive minimum-cost search over the description language.

The oracle explores every way of explaining each token (copy, allowed
increments, plain instantiation, every digit reading, and optionally a
mirror of the tokens emitted so far) and returns the cheapest valid
program.  Each search node holds its own
:class:`~seqsurprise.program.StmState`, which follows the analyzer's
short-term memory rule, :func:`seqsurprise.program.touch`.  Branch and
bound against the running best keeps the search cheap at the documented
soft limit of 8 tokens; beyond that the tree grows quickly.

Before the search, each position reads its moves by key from the
model's ``move_table``, the one table the analyzer's scan reads, which
lives as long as the process: its step's COPY/INCREMENT pair (a node
takes ``free`` while its memory holds the step, else ``charged``), the
table's mirror move where the prefix is mirrored, and its fresh moves
from the table's ``fresh`` map, built by ``fresh_moves`` in canonical
order.  So each distinct token and step is priced once per model per
process, not once per solve or per search node.  The tree grows
exponentially with length, so past ``SOFT_LENGTH_LIMIT`` the command
line interface needs ``--allow-long`` (or exits 3).  The search recurses
once per emitted token, so a sequence longer than Python's recursion
limit raises ``RecursionError``; :func:`oracle_min_cost` states that
limit, in the message the command line interface prints before it exits
3.  The minimum passes :func:`seqsurprise.costmodel._finite`, as the
analyzer's costs do, so one that is not a finite float raises
``ValueError``.

Ties are broken toward the lexicographically smallest operation stream:
candidates are expanded in canonical order (copy, increment by rising
step, mirror, plain instantiate, digit readings) and only strict
improvements replace the incumbent.

The search needs no length or cost cap.  Every move emits at least one
token with at most two operations, and the first token's moves have
one, so no program is longer than the naive 2n - 1 operations; the naive
program itself is always a candidate, so the minimum never exceeds
``naive_cost``.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass

from .analyzer import Move, check_sequence, move_table
from .costmodel import Bits, CostModel, DEFAULT_MODEL, _finite
from .program import DescriptionProgram, Operation, OpKind, StmState

SOFT_LENGTH_LIMIT = 8

DEFAULT_OPERATORS = frozenset(
    {OpKind.COPY, OpKind.INCREMENT, OpKind.SPLIT_DIGITS})
FULL_OPERATORS = DEFAULT_OPERATORS | {OpKind.MIRROR}


@dataclass(frozen=True)
class SearchBudget:
    """The structure operators the search may use: ``DEFAULT_OPERATORS``,
    or ``FULL_OPERATORS``, which adds the mirror.

    Plain instantiation and segment starts are always available.
    """

    operators: frozenset[OpKind] = DEFAULT_OPERATORS

    def __post_init__(self) -> None:
        if self.operators not in (DEFAULT_OPERATORS, FULL_OPERATORS):
            raise ValueError("operators must be DEFAULT_OPERATORS or FULL_OPERATORS")


def oracle_min_cost(seq: Sequence[int], model: CostModel = DEFAULT_MODEL,
                    budget: SearchBudget | None = None
                    ) -> tuple[Bits, DescriptionProgram]:
    """Minimum description cost and a witness program.

    The witness replays to the input and its summed charges equal the
    reported minimum.  Sequences longer than ``SOFT_LENGTH_LIMIT`` are
    legal but the exhaustive search slows sharply; the command line
    interface refuses them instead.
    """
    toks = check_sequence(seq)
    use_mirror = OpKind.MIRROR in (budget or SearchBudget()).operators
    table = move_table(model)
    # Per position: the COPY/INCREMENT pair, if one applies, and the
    # mirror move, if it applies, followed by the fresh moves.
    steps: list[tuple[Move, Move] | None] = [None]
    rest = [table.fresh[toks[0], True]]
    for pos in range(1, len(toks)):
        steps.append(table.steps[toks[pos] - toks[pos - 1]])
        moves = table.fresh[toks[pos], False]
        # A mirror emits the reversal of everything produced so far.
        if use_mirror and toks[pos: pos + pos] == toks[:pos][::-1]:
            moves = (table.mirror,) + moves
        rest.append(moves)
    best_cost = math.inf
    best_ops: tuple[Operation, ...] = ()

    def search(pos: int, acc: Bits, stm: StmState, ops: list[Operation]) -> None:
        nonlocal best_cost, best_ops
        if acc >= best_cost - 1e-12:
            return
        if pos == len(toks):
            best_cost = acc
            best_ops = tuple(ops)
            return
        moves = rest[pos]
        if steps[pos] is not None:
            charged, free = steps[pos]
            moves = (free if charged.key in stm else charged,) + moves
        for move in moves:
            emitted = pos if move.ops[-1].kind is OpKind.MIRROR else 1
            child = StmState(stm.capacity, stm.slots)
            if move.key is not None:
                child.touch(move.key)
            ops.extend(move.ops)
            search(pos + emitted, acc + move.cost, child, ops)
            del ops[len(ops) - len(move.ops):]

    try:
        search(0, 0.0, StmState(model.stm_capacity), [])
    except RecursionError:
        raise RecursionError(f"exhaustive search of {len(toks)} tokens is deeper than "
                             f"the recursion limit ({sys.getrecursionlimit()})") from None
    return _finite(best_cost), DescriptionProgram(best_ops, best_cost, toks)
