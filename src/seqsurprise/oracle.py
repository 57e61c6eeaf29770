"""Exhaustive minimum-cost search over the description language.

The oracle explores every way of explaining each token (copy, allowed
increments, plain instantiation, every digit reading, and optionally a
mirror of the tokens emitted so far), tracking the same short-term
memory state the analyzer uses, and returns the cheapest valid program.
Branch and bound against the running best keeps the search cheap at the
documented soft limit of 8 tokens; beyond that the tree grows quickly.

Each position's readings are priced once per solve, before the search
starts: its COPY/INCREMENT reading (charged and free, chosen at each
node by whether its short-term memory key is held), its mirror move and
its fresh moves.  That removes the per-node repricing but not a single
node: the tree, and so its exponential growth, is unchanged, which is
why ``SOFT_LENGTH_LIMIT`` stays and the command line interface still
needs ``--allow-long`` (or exits 3) past it.

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
from typing import NamedTuple

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


class _Readings(NamedTuple):
    """One position's moves, built once per solve.

    ``charged`` and ``free`` are the COPY/INCREMENT reading with its STM
    ``key`` not held and held; all three are None when no such reading
    applies or the budget excludes it.  ``rest`` holds the mirror move,
    if one applies, then the fresh moves, in canonical order.
    """

    key: tuple | None
    charged: Move | None
    free: Move | None
    rest: tuple[Move, ...]


def _reading_table(toks: tuple[int, ...], model: CostModel,
                   budget: SearchBudget) -> list[_Readings]:
    allow_split = OpKind.SPLIT_DIGITS in budget.operators
    mirror = None
    if OpKind.MIRROR in budget.operators:
        mirror = Move(ops=(Operation(OpKind.MIRROR, (), model.mirror_cost),),
                      cost=model.mirror_cost, order=5)
    table: list[_Readings] = []
    for pos, token in enumerate(toks):
        key = charged = free = None
        rest: list[Move] = []
        if pos > 0:
            prev = toks[pos - 1]
            explained = explained_move(token, prev, StmState(model.stm_capacity), model)
            if explained is not None and explained.ops[0].kind in budget.operators:
                key, charged = explained.touches[0], explained
                held = StmState(model.stm_capacity, [key])
                free = explained_move(token, prev, held, model)
            # A mirror emits the reversal of everything produced so far.
            if (mirror is not None and pos + pos <= len(toks)
                    and toks[pos: pos + pos] == toks[:pos][::-1]):
                rest.append(mirror)
        rest.extend(fresh_moves(token, model, first=pos == 0, allow_split=allow_split))
        table.append(_Readings(key, charged, free, tuple(rest)))
    return table


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
    table = _reading_table(toks, model, budget or SearchBudget())
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
        slot, charged, free, rest = table[pos]
        if slot is not None:
            rest = (free if slot in stm else charged,) + rest
        for move in rest:
            emitted = pos if move.ops[-1].kind is OpKind.MIRROR else 1
            child = StmState(stm.capacity, list(stm.slots))
            for key in move.touches:
                child.touch(key)
            ops.extend(move.ops)
            search(pos + emitted, acc + move.cost, child, ops)
            del ops[len(ops) - len(move.ops):]

    search(0, 0.0, StmState(model.stm_capacity), [])
    return best_cost, DescriptionProgram(best_ops, best_cost, toks)
