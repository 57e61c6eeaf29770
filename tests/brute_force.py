"""Reference minimum search for short sequences: every program, no pruning.

Each node's moves are rebuilt from the analyzer's ``explained_move`` and
``fresh_moves`` in canonical order (copy or increment, mirror, plain
instantiate, digit readings), with no table and no bound.  Like the
oracle, a program replaces the incumbent only when it is cheaper by more
than 1e-12, so on ties the first program in canonical order wins.  The
tree is exponential; keep inputs to six tokens or fewer.
"""

from __future__ import annotations

import math

from seqsurprise.analyzer import Move, explained_move, fresh_moves
from seqsurprise.costmodel import CostModel
from seqsurprise.program import Operation, OpKind, StmState


def _moves(toks: tuple[int, ...], pos: int, stm: StmState, model: CostModel,
           operators: frozenset[OpKind]) -> list[Move]:
    moves: list[Move] = []
    if pos > 0:
        pair = explained_move(toks[pos], toks[pos - 1], model)
        if pair is not None and pair[0].ops[0].kind in operators:
            charged, free = pair
            moves.append(free if charged.key in stm else charged)
        if OpKind.MIRROR in operators and toks[pos: 2 * pos] == toks[:pos][::-1]:
            moves.append(Move(ops=(Operation(OpKind.MIRROR, (), model.mirror_cost),),
                              cost=model.mirror_cost))
    moves.extend(fresh_moves(toks[pos], model, first=pos == 0,
                             allow_split=OpKind.SPLIT_DIGITS in operators))
    return moves


def brute_force_min_cost(seq: list[int], model: CostModel,
                         operators: frozenset[OpKind]
                         ) -> tuple[float, tuple[Operation, ...]]:
    """Cheapest cost and the first program in canonical order that attains it."""
    toks = tuple(seq)
    best_cost = math.inf
    best_ops: tuple[Operation, ...] = ()

    def walk(pos: int, acc: float, stm: StmState, ops: tuple[Operation, ...]) -> None:
        nonlocal best_cost, best_ops
        if pos == len(toks):
            if acc < best_cost - 1e-12:
                best_cost, best_ops = acc, ops
            return
        for move in _moves(toks, pos, stm, model, operators):
            child = StmState(stm.capacity, list(stm.slots))
            if move.key is not None:
                child.touch(move.key)
            emitted = pos if move.ops[-1].kind is OpKind.MIRROR else 1
            walk(pos + emitted, acc + move.cost, child, ops + move.ops)

    walk(0, 0.0, StmState(model.stm_capacity), ())
    return best_cost, best_ops
