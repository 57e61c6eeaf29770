"""Exhaustive minimum-cost search over the description language.

The oracle explores every way of explaining each token (copy, allowed
increments, plain instantiation, every digit reading, and optionally a
mirror of the tokens emitted so far), tracking the same short-term
memory state the analyzer uses, and returns the cheapest valid program.
Branch and bound against the running best keeps the search cheap at the
documented soft limit of 8 tokens; beyond that the tree grows quickly.

Each solve reads its moves from one ``MoveTable``, the table the
analyzer's scan reads: each position's COPY/INCREMENT reading as a
``(charged, free)`` pair (chosen at each node by whether its short-term
memory key is held), its mirror move and its fresh moves, so each
distinct token and step is priced once per solve.  That removes the
per-node repricing but not a single node: the tree, and so its
exponential growth, is unchanged, which is why ``SOFT_LENGTH_LIMIT``
stays and the command line interface still needs ``--allow-long`` (or
exits 3) past it.  The search recurses once per emitted token, so a
sequence longer than Python's recursion limit raises ``RecursionError``;
the command line interface reports that as a capability limit too.

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
from collections.abc import Sequence
from dataclasses import dataclass

from .analyzer import Move, MoveTable, check_sequence
from .costmodel import Bits, CostModel, DEFAULT_MODEL
from .program import DescriptionProgram, Operation, OpKind, StmState

SOFT_LENGTH_LIMIT = 8

DEFAULT_OPERATORS = frozenset(
    {OpKind.COPY, OpKind.INCREMENT, OpKind.SPLIT_DIGITS})
FULL_OPERATORS = DEFAULT_OPERATORS | {OpKind.MIRROR}


@dataclass(frozen=True)
class SearchBudget:
    """The structure operators the search may use.

    Plain instantiation and segment starts are always available.
    """

    operators: frozenset[OpKind] = DEFAULT_OPERATORS


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
    operators = (budget or SearchBudget()).operators
    table = MoveTable(model, allow_split=OpKind.SPLIT_DIGITS in operators)
    mirror = Move((Operation(OpKind.MIRROR, (), model.mirror_cost),), model.mirror_cost)
    # Per position: the COPY/INCREMENT pair the budget allows, and the
    # mirror move, if it applies, followed by the fresh moves.
    steps: list[tuple[Move, Move] | None] = [None]
    rest = [table.fresh(toks[0], True)[0]]
    for pos in range(1, len(toks)):
        pair = table.explained(toks[pos], toks[pos - 1])
        steps.append(pair if pair is not None and pair[0].ops[0].kind in operators else None)
        moves = table.fresh(toks[pos], False)[0]
        # A mirror emits the reversal of everything produced so far.
        if OpKind.MIRROR in operators and toks[pos: pos + pos] == toks[:pos][::-1]:
            moves = (mirror,) + moves
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
            child = StmState(stm.capacity, list(stm.slots))
            if move.key is not None:
                child.touch(move.key)
            ops.extend(move.ops)
            search(pos + emitted, acc + move.cost, child, ops)
            del ops[len(ops) - len(move.ops):]

    search(0, 0.0, StmState(model.stm_capacity), [])
    return best_cost, DescriptionProgram(best_ops, best_cost, toks)
