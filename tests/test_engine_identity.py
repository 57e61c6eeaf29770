"""Every number and program the engine returns on a seeded corpus, pinned.

The corpus draws random cost models (zero charges, short-term memory
capacity 0-4, steps from 1-5 with some charge overrides) and, under
each, ramps, repeats, palindromes and random tokens up to 119.  One
SHA-256 covers every ``price_many`` cost, every ``analyze`` program with
and without the mirror, and every ``oracle_min_cost`` witness of a
sequence of at most 8 tokens under both operator sets.  Costs enter the
digest as ``float.hex``, so a change in the order of a float sum shows.
A change to how the engine prices or chooses moves must leave it
unchanged.
"""

import hashlib
import random

from seqsurprise.analyzer import analyze, price_many
from seqsurprise.costmodel import CostModel
from seqsurprise.oracle import (
    DEFAULT_OPERATORS,
    FULL_OPERATORS,
    SearchBudget,
    oracle_min_cost,
)

ENGINE_DIGEST = "4f374630548303fa532ed93f81d827c786ed418dae5ce556049c1084983c39e1"

N_MODELS = 60
N_SEQUENCES = 16  # per model


def _charge(rnd: random.Random) -> float:
    return 0.0 if rnd.random() < 0.2 else rnd.uniform(0.0, 4.0)


def _model(rnd: random.Random) -> CostModel:
    steps = rnd.sample(range(1, 6), rnd.randint(1, 3))
    overrides = tuple(sorted((k, _charge(rnd)) for k in steps if rnd.random() < 0.3))
    return CostModel(copy_cost=_charge(rnd), dup_cost=_charge(rnd),
                     segment_start_cost=_charge(rnd), mirror_cost=_charge(rnd),
                     zero_after_nine_cost=_charge(rnd),
                     stm_capacity=rnd.randint(0, 4),
                     allowed_increments=frozenset(steps),
                     increment_cost_overrides=overrides)


def _sequence(rnd: random.Random) -> list[int]:
    kind = rnd.randrange(4)
    if kind == 0:  # a ramp, maybe with a repeat
        step = rnd.randint(0, 5)
        start = rnd.randint(0, 119 - 11 * step)
        seq = [start + i * step for i in range(rnd.randint(2, 12))]
        if rnd.random() < 0.5:
            i = rnd.randrange(len(seq))
            seq.insert(i, seq[i])
        return seq
    if kind == 1:  # a palindrome of even length
        half = [rnd.randint(0, 119) for _ in range(rnd.randint(1, 5))]
        return half + half[::-1]
    if kind == 2:  # two-digit tokens whose digits repeat or step
        return [rnd.choice((10, 11, 12, 22, 23, 34, 44, 45, 99, 100, 110))
                for _ in range(rnd.randint(1, 8))]
    return [rnd.randint(0, 119) for _ in range(rnd.randint(1, 12))]


def _ops(ops) -> str:
    return ";".join(f"{op.kind.value}{op.args}{op.charged_cost.hex()}{op.free}"
                    for op in ops)


def engine_digest() -> str:
    rnd = random.Random(2011)
    digest = hashlib.sha256()
    for _ in range(N_MODELS):
        model = _model(rnd)
        seqs = [_sequence(rnd) for _ in range(N_SEQUENCES)]
        digest.update(repr((model, seqs)).encode())
        for bits in price_many(seqs, model):
            digest.update(bits.hex().encode())
        for seq in seqs:
            for mirror in (False, True):
                prog = analyze(seq, model, enable_mirror=mirror)
                digest.update(f"{prog.total_cost.hex()}|{_ops(prog.ops)}".encode())
            if len(seq) <= 8:
                for operators in (DEFAULT_OPERATORS, FULL_OPERATORS):
                    cost, prog = oracle_min_cost(seq, model, SearchBudget(operators))
                    digest.update(f"{cost.hex()}|{_ops(prog.ops)}".encode())
    return digest.hexdigest()


def test_engine_output_is_pinned():
    assert engine_digest() == ENGINE_DIGEST
