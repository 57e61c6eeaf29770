"""Exhaustive minimum-cost search over the description language.

The oracle explores every way of explaining each token (copy, allowed
increments, plain instantiation, every digit reading, and optionally a
mirror of the tokens emitted so far), tracking the same short-term
memory state the analyzer uses, and returns the cheapest valid program.
Branch and bound against the running best keeps the search cheap at the
documented soft limit of 8 tokens; beyond that the tree grows quickly.

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

from .analyzer import Move, check_sequence, explained_move, fresh_moves
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


def _candidates(toks: tuple[int, ...], pos: int, stm: StmState,
                model: CostModel, budget: SearchBudget) -> list[Move]:
    token = toks[pos]
    moves: list[Move] = []
    if pos > 0:
        explained = explained_move(token, toks[pos - 1], stm, model)
        if explained is not None and explained.ops[0].kind in budget.operators:
            moves.append(explained)
        if OpKind.MIRROR in budget.operators and pos >= 1:
            # A mirror emits the reversal of everything produced so far.
            if toks[pos: pos + pos] == toks[:pos][::-1] and pos + pos <= len(toks):
                moves.append(
                    Move(ops=(Operation(OpKind.MIRROR, (), model.mirror_cost),),
                         cost=model.mirror_cost, order=5))
    allow_split = OpKind.SPLIT_DIGITS in budget.operators
    moves.extend(fresh_moves(token, model, first=pos == 0, allow_split=allow_split))
    moves.sort(key=lambda m: m.order)
    return moves


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
    budget = budget or SearchBudget()
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
        for move in _candidates(toks, pos, stm, model, budget):
            emitted = pos if move.ops[-1].kind is OpKind.MIRROR else 1
            child = StmState(stm.capacity, list(stm.slots))
            for key in move.touches:
                child.touch(key)
            ops.extend(move.ops)
            search(pos + emitted, acc + move.cost, child, ops)
            del ops[len(ops) - len(move.ops):]

    search(0, 0.0, StmState(model.stm_capacity), [])
    return best_cost, DescriptionProgram(best_ops, best_cost, toks)
