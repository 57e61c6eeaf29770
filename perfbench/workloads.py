"""Seeded inputs, timed operations and output checks of the four workloads.

Every input comes from a ``random.Random`` keyed by the workload name and
the run's seed, so one seed always gives the same inputs.  This module does
not import seqsurprise at load time: run.py loads it in the parent process,
and a worker's set-up time must include the package import.  Operations
look library functions up through their modules at call time, so the
wrappers that tracing.py installs are the ones called.
"""

from __future__ import annotations

import io
import json
import math
import pathlib
import random
import re
import statistics
import subprocess
import sys
import time
from collections.abc import Callable, Iterator
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Any

TOLERANCE = 1e-9
MIN_OPS = 100  # timed operations per run, so that 10 lie beyond the 90th percentile

# Host speed.  The reference machine is a shared virtual machine whose speed
# drifts by up to 1.75x over seconds to minutes, and every operation slows
# with it.  So the loop times a fixed piece of pure-Python work after every
# slice of SLICE_S seconds of operations, and scales each latency by the
# host speed around its slice: REFERENCE_S, the mean time of that work on
# the reference machine (2 cores, Python 3.11.7), over its mean time in the
# WINDOW slices centred on the latency's own.  A scaled latency is what the
# operation would have taken on the reference machine at its usual speed.
SLICE_S = 0.25
REFERENCE_S = 0.85e-3
REFERENCE_LOOPS = 2000  # about 1 ms of work
REFERENCE_REPEATS = 5
WINDOW = 9  # slices, about 2 s of operations

SEARCH_KINDS = ("uniform",) * 4 + ("runs", "ramp", "twins", "palindrome")
SEARCH_LENGTHS = range(6, 13)
SEARCH_BLOCK = 8 * len(SEARCH_KINDS) * len(SEARCH_LENGTHS)

# cli-oneshot: 14 of every 20 calls are light (70%).  Experiments are the
# slowest calls and fill 15% of the mix, so the 90th percentile falls
# inside their group instead of on the edge between two groups.
CLI_DECK = (("complexity",) * 7 + ("surprise",) * 4 + ("oracle",) * 3
            + ("refcheck",) + ("rank",) * 2 + ("experiment",) * 3)
CLI_FORMATS = ("plain", "csv", "json")

EXPERIMENT_SUBJECTS = 200
EXPERIMENT_TAU = 7.0
MC_REPLICATIONS = 20_000
SCORING_BATCH = 500
SCORING_POOL = 200


@dataclass(frozen=True)
class Workload:
    """``items`` yields inputs, the first one for the untimed warm-up;
    ``op`` is the timed operation, run in-process; ``check`` returns an
    error or None.  A run ends on a multiple of ``block`` operations, the
    period over which the input mix repeats its proportions."""

    name: str
    items: Callable[[int, pathlib.Path], Iterator[Any]]
    op: Callable[[Any], Any]
    check: Callable[[Any, Any], str | None]
    block: int = 1


def _reference_work() -> float:
    """Fixed pure-Python work: integer arithmetic, dict updates, float logs
    and a sort, the kinds of step the program's operations are made of."""
    table: dict[int, float] = {}
    x = 12345
    for _ in range(REFERENCE_LOOPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x >> 8) & 255
        table[key] = table.get(key, 0.0) + math.log2(1 + (x & 1023))
    return sum(sorted(table.values()))


def reference_times() -> list[float]:
    """REFERENCE_REPEATS timings of the reference work."""
    times = []
    for _ in range(REFERENCE_REPEATS):
        start = time.perf_counter()
        _reference_work()
        times.append(time.perf_counter() - start)
    return times


def host_speed(times: list[float]) -> float:
    """REFERENCE_S over the mean of the reference ``times``."""
    return REFERENCE_S * len(times) / sum(times)


@dataclass
class LoopResult:
    """Wall-clock latencies, each with the slice it fell in, and the
    reference work's timings taken at the end of each slice."""

    latencies: list[float] = field(default_factory=list)
    slice_of: list[int] = field(default_factory=list)
    reference: list[list[float]] = field(default_factory=list)
    busy_s: float = 0.0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def scaled(self) -> list[float]:
        """The latencies scaled to the reference machine (see WINDOW)."""
        n, half = len(self.reference), WINDOW // 2
        speeds = [host_speed([t for times in self.reference[max(0, i - half):i + half + 1]
                              for t in times])
                  for i in range(n)]
        return [t * speeds[i] for t, i in zip(self.latencies, self.slice_of)]

    def summary(self) -> dict:
        """Scaled timings in seconds, the wall-clock ones beside them, and
        the run's mean host speed."""
        scaled = self.scaled()
        return {"attempted": self.attempted, "failed": self.failed, "errors": self.errors,
                "busy_s": sum(scaled),
                "latency_p50_s": statistics.median(scaled),
                "latency_p90_s": statistics.quantiles(scaled, n=10)[8],
                "wall_busy_s": self.busy_s,
                "wall_latency_p50_s": statistics.median(self.latencies),
                "host_speed": host_speed([t for times in self.reference for t in times])}


def closed_loop(items: Iterator[Any], op: Callable[[Any], Any],
                check: Callable[[Any, Any], str | None], *, seconds: float,
                min_ops: int, block: int = 1, max_ops: int | None = None) -> LoopResult:
    """One client: each operation starts when the previous one and its
    check are done.  Only the operation is timed.  Without ``max_ops`` the
    loop stops at the first block boundary after ``seconds`` of timed work
    and ``min_ops`` operations; with it, after exactly ``max_ops``."""
    result = LoopResult()
    slice_s = 0.0
    while True:
        item = next(items)
        start = time.perf_counter()
        try:
            out = op(item)
            error = None
        except Exception as exc:  # a failed operation is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        result.latencies.append(elapsed)
        result.slice_of.append(len(result.reference))
        result.busy_s += elapsed
        slice_s += elapsed
        if slice_s >= SLICE_S:
            result.reference.append(reference_times())
            slice_s = 0.0
        if error is None:
            try:
                error = check(item, out)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            result.failed += 1
            if len(result.errors) < 5:
                result.errors.append(error)
        n = result.attempted
        if max_ops is not None:
            if n >= max_ops:
                break
        elif n >= min_ops and n % block == 0 and result.busy_s >= seconds:
            break
    if slice_s:
        result.reference.append(reference_times())
    return result


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=TOLERANCE, abs_tol=TOLERANCE)


# --- token sequences ------------------------------------------------------

def _sequence(rng: random.Random, kind: str, length: int) -> list[int]:
    if kind == "uniform":
        return [rng.randrange(100) for _ in range(length)]
    if kind == "runs":
        seq: list[int] = []
        while len(seq) < length:
            seq += [rng.randrange(50)] * rng.randint(2, 4)
        return seq[:length]
    if kind == "ramp":
        start, step = rng.randrange(40), rng.choice((1, 2))
        return [start + step * i for i in range(length)]
    if kind == "twins":  # a cycle of digit twins such as 11 22 33 44, repeated
        # Entered at any phase and run either way, so that each length has
        # about a hundred such sequences and the many blocks of a fast run
        # still find unused ones.
        cycle = rng.randint(2, 4)
        first = rng.randint(1, 10 - cycle)
        phase, step = rng.randrange(cycle), rng.choice((1, -1))
        return [11 * (first + (phase + step * i) % cycle) for i in range(length)]
    if kind == "palindrome":
        half = [rng.randrange(50) for _ in range(length // 2)]
        return half + half[::-1]
    raise ValueError(f"unknown sequence kind {kind!r}")


# --- distinct lottery tickets ---------------------------------------------

N_TICKETS = math.comb(49, 6)


class TicketStream:
    """Distinct 6-of-49 tickets in a seeded order, with no memory of the past.

    Ticket i is the combination whose colex rank is the image of i under a
    keyed 24-bit Feistel permutation, cycle-walked into [0, C(49, 6)).  A
    permutation never repeats a value, so no ticket repeats in a run.
    """

    def __init__(self, rng: random.Random) -> None:
        self.keys = [rng.getrandbits(12) for _ in range(4)]
        self.index = 0

    def _permute(self, x: int) -> int:
        left, right = x >> 12, x & 0xFFF
        for key in self.keys:
            left, right = right, left ^ (((right ^ key) * 0x9E3779B1 >> 11) & 0xFFF)
        return (left << 12) | right

    def next(self) -> list[int]:
        if self.index >= N_TICKETS:
            raise RuntimeError("ticket space exhausted")
        rank = self._permute(self.index)
        while rank >= N_TICKETS:
            rank = self._permute(rank)
        self.index += 1
        numbers = []
        c = 49
        for k in range(6, 0, -1):
            c -= 1
            while math.comb(c, k) > rank:
                c -= 1
            rank -= math.comb(c, k)
            numbers.append(c + 1)
        return numbers[::-1]


# --- exact-search ---------------------------------------------------------

def _random_models(rng: random.Random):
    """Two random cost models, the second the mirror image of the first.

    Search time rises steeply with some charges (dup_cost above all), so
    each draw comes with its antithetic partner, every charge x replaced by
    3.5 - x and stm_capacity s by 4 - s.  The pair's summed time varies far
    less from run to run than two independent draws would.
    """
    from seqsurprise.costmodel import CostModel

    steps = frozenset(k for k in (1, 2, 3) if rng.random() < 0.5) or frozenset({1})
    costs = [rng.uniform(0.5, 3.0) for _ in range(5)]
    capacity = rng.randint(0, 4)
    return [CostModel(*(c if side == 0 else 3.5 - c for c in costs),
                      stm_capacity=capacity if side == 0 else 4 - capacity,
                      allowed_increments=steps)
            for side in (0, 1)]


def search_items(seed: int, workdir: pathlib.Path) -> Iterator[tuple]:
    """(tokens, model, operators), no input repeated; a short uniform
    sequence comes first, for the warm-up.

    A block of SEARCH_BLOCK operations holds every (kind, length) pair
    eight times: six under the default model and one under each model of
    an antithetic random pair.  So half the sequences are uniform, a
    quarter of the operations use a random model, and the rare slow
    inputs (long digit-twin cycles) come at the same rate in every block.
    """
    from seqsurprise.costmodel import DEFAULT_MODEL
    from seqsurprise.oracle import DEFAULT_OPERATORS, FULL_OPERATORS

    rng = _rng("exact-search", seed)
    warmup = ([rng.randrange(100) for _ in range(6)], DEFAULT_MODEL, DEFAULT_OPERATORS)
    yield warmup
    seen = {(tuple(warmup[0]), DEFAULT_MODEL, DEFAULT_OPERATORS)}
    pairs = [(kind, length) for kind in SEARCH_KINDS for length in SEARCH_LENGTHS]
    while True:
        block = []
        for kind, length in pairs:
            if kind == "palindrome":
                length -= length % 2
            operators = FULL_OPERATORS if kind == "palindrome" else DEFAULT_OPERATORS
            for model in [DEFAULT_MODEL] * 6 + _random_models(rng):
                for _ in range(10_000):
                    seq = _sequence(rng, kind, length)
                    key = (tuple(seq), model, operators)
                    if key not in seen:
                        break
                else:
                    raise RuntimeError(f"no unused {kind} sequence of length {length}")
                seen.add(key)
                block.append(key)
        rng.shuffle(block)
        for seq, model, operators in block:
            yield list(seq), model, operators


def search_op(item: tuple) -> tuple:
    from seqsurprise import analyzer, oracle
    from seqsurprise.program import OpKind

    seq, model, operators = item
    cost, witness = oracle.oracle_min_cost(seq, model, oracle.SearchBudget(operators=operators))
    greedy = analyzer.analyze(seq, model, enable_mirror=OpKind.MIRROR in operators)
    return cost, witness, greedy.total_cost


def search_check(item: tuple, out: tuple) -> str | None:
    from seqsurprise import analyzer, program

    seq, model, _ = item
    cost, witness, greedy_cost = out
    if program.replay(witness) != seq:
        return f"witness does not replay to {seq}"
    if abs(sum(op.charged_cost for op in witness.ops) - cost) > TOLERANCE:
        return f"witness charges do not sum to {cost}"
    if cost > greedy_cost + TOLERANCE:
        return f"search cost {cost} above analyze cost {greedy_cost}"
    naive = analyzer.naive_cost(seq, model)
    if cost > naive + TOLERANCE:
        return f"search cost {cost} above naive cost {naive}"
    return None


# --- lottery-experiment ---------------------------------------------------

def experiment_items(seed: int, workdir: pathlib.Path) -> Iterator[int]:
    """One distinct experiment seed per operation."""
    rng = _rng("lottery-experiment", seed)
    seen: set[int] = set()
    while True:
        op_seed = rng.getrandbits(48)
        if op_seed not in seen:
            seen.add(op_seed)
            yield op_seed


def experiment_op(op_seed: int) -> tuple:
    from seqsurprise import lottery

    config = lottery.ExperimentConfig(
        seed=op_seed, n_subjects=EXPERIMENT_SUBJECTS,
        choice_model=lottery.ChoiceModel(lottery.COMPLEXITY_WEIGHTED, EXPERIMENT_TAU))
    result = lottery.simulate_subjects(config)
    n_total = len(config.fixed_combinations) + config.n_random
    args = (n_total, config.n_choices_per_subject, 2, config.n_subjects)
    exact = lottery.avoidance_probability(*args)
    mc = lottery.avoidance_probability_mc(*args, n_replications=MC_REPLICATIONS, seed=op_seed)
    return result, exact, mc


def experiment_check(op_seed: int, out: tuple) -> str | None:
    result, exact, mc = out
    config = result.config
    mass = sum(result.histogram.values())
    if mass != config.n_subjects * config.n_choices_per_subject:
        return f"histogram mass {mass}"
    if not result.uniform_fallback:
        low = [b for bits in result.per_subject_chosen_bits for b in bits
               if b < config.choice_model.tau]
        if low:
            return f"chose {low[0]} bits below tau without a uniform fallback"
    stderr = math.sqrt(exact * (1.0 - exact) / MC_REPLICATIONS)
    if abs(mc - exact) > 5.0 * stderr:
        return f"MC estimate {mc} is more than 5 standard errors from {exact}"
    return None


# --- ticket-scoring -------------------------------------------------------

def scoring_items(seed: int, workdir: pathlib.Path) -> Iterator[tuple]:
    """(batch, pool tickets, pool seed): every ticket fresh in the run."""
    from seqsurprise.lottery import LotteryCombination

    rng = _rng("ticket-scoring", seed)
    tickets = TicketStream(rng)
    while True:
        batch = [LotteryCombination(tuple(tickets.next())) for _ in range(SCORING_BATCH)]
        pool = [tickets.next() for _ in range(SCORING_POOL)]
        yield batch, pool, rng.getrandbits(48)


def scoring_op(item: tuple) -> tuple:
    from seqsurprise import lottery, surprise

    batch, pool, pool_seed = item
    ranked = lottery.rank_combinations(batch)
    fresh = iter(pool)
    template = surprise.MonteCarloPool(lambda _rng: next(fresh), len(pool), pool_seed)
    report = surprise.sequence_surprise(list(ranked[0][0].numbers), template)
    return ranked, report


def scoring_check(item: tuple, out: tuple) -> str | None:
    from seqsurprise import analyzer

    batch, _, _ = item
    ranked, report = out
    if sorted(c.numbers for c, _ in ranked) != sorted(c.numbers for c in batch):
        return "ranked rows are not the batch"
    keys = [(bits, combo.numbers) for combo, bits in ranked]
    if keys != sorted(keys):
        return "rows are not sorted by (cost, numbers)"
    for combo, bits in ranked:
        if bits > analyzer.naive_cost(combo.numbers) + TOLERANCE:
            return f"{combo} costs {bits} above its naive cost"
    if report.c_observed != ranked[0][1]:
        return "surprise prices the simplest ticket differently from the ranking"
    if report.p != 2.0 ** -report.u:
        return f"p {report.p} != 2**-u for u {report.u}"
    return None


# --- cli-oneshot ----------------------------------------------------------

def _short_sequence(rng: random.Random, max_tokens: int = 8) -> list[int]:
    kind = rng.choice(SEARCH_KINDS)
    length = rng.randint(2, max_tokens)
    if kind == "palindrome":
        length = max(2, length - length % 2)
    return _sequence(rng, kind, length)


def cli_items(seed: int, workdir: pathlib.Path) -> Iterator[list[str]]:
    """argv lists after ``python -m seqsurprise``, a short ``complexity``
    call first; rank calls read a bulletin file written into ``workdir``
    before the call."""
    rng = _rng("cli-oneshot", seed)
    tickets = TicketStream(rng)
    n_files = 0
    yield ["complexity", *map(str, _short_sequence(rng)), "--format", "plain"]
    while True:
        deck = list(CLI_DECK)
        rng.shuffle(deck)
        for command in deck:
            fmt = ["--format", rng.choice(CLI_FORMATS)]
            trace = ["--trace"] if rng.random() < 1 / 3 else []
            mirror = ["--mirror"] if rng.random() < 1 / 3 else []
            if command == "complexity":
                oracle = ["--oracle"] if rng.random() < 1 / 3 else []
                tokens = _short_sequence(rng)
                yield ["complexity", *map(str, tokens), *fmt, *trace, *mirror, *oracle]
            elif command == "oracle":
                yield ["oracle", *map(str, _short_sequence(rng)), *fmt, *trace, *mirror]
            elif command == "surprise":
                if rng.random() < 0.5:
                    yield ["surprise", str(rng.randrange(1, 10 ** rng.randint(1, 6))),
                           *fmt, *trace]
                else:
                    template = rng.choice((f"kdigit:{rng.randint(2, 12)}",
                                           f"fixed:{rng.uniform(5, 40):.3f}"))
                    yield ["surprise", *map(str, _short_sequence(rng)), "--template", template,
                           *fmt, *trace]
            elif command == "refcheck":
                yield ["lottery", "refcheck", "--format", "json"]
            elif command == "rank":
                n_files += 1
                path = workdir / f"bulletin-{n_files}.txt"
                path.write_text("".join(" ".join(map(str, tickets.next())) + "\n"
                                        for _ in range(14)))
                yield ["lottery", "rank", str(path), "--format", "json"]
            else:
                model = rng.choice(("uniform", "complexity_weighted"))
                yield ["lottery", "experiment", "--seed", str(rng.getrandbits(32)),
                       "--subjects", "26", "--model", model, "--format", "json"]


def cli_subprocess_op(argv: list[str]) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "-m", "seqsurprise", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout


def cli_inprocess_op(argv: list[str]) -> tuple[int, str]:
    from seqsurprise import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


_RECORD_LINE = {"plain": re.compile(r"^([a-z_]+)=(.*)$"),
                "csv": re.compile(r"^([a-z_]+),(.*)$")}


def _parse_record(stdout: str, fmt: str) -> dict:
    """The key/value record a scalar command printed, values as text."""
    if fmt == "json":
        return {k: v for k, v in json.loads(stdout).items() if k != "trace"}
    lines = stdout.splitlines()
    if fmt == "csv":
        if not lines or lines[0] != "key,value":
            raise ValueError("csv output lacks its header")
        lines = lines[1:]
    record = {}
    for line in lines:
        match = _RECORD_LINE[fmt].match(line)
        if match:
            record[match.group(1)] = match.group(2)
    if not record:
        raise ValueError(f"no {fmt} record in output")
    return record


def _flag_value(argv: list[str], flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def _positional_tokens(argv: list[str]) -> list[int]:
    tokens = []
    for arg in argv[1:]:
        if not arg.isdigit():
            break
        tokens.append(int(arg))
    return tokens


def _expected(argv: list[str]) -> dict:
    """Library values for one call, the way the command line computes them."""
    from seqsurprise import analyzer, lottery, oracle, surprise

    command = argv[0]
    if command in ("complexity", "oracle"):
        tokens = _positional_tokens(argv)
        mirror = "--mirror" in argv
        operators = oracle.FULL_OPERATORS if mirror else oracle.DEFAULT_OPERATORS
        budget = oracle.SearchBudget(operators=operators)
        if command == "oracle":
            cost, prog = oracle.oracle_min_cost(tokens, budget=budget)
            return {"tokens": tokens, "cost_bits": cost, "n_ops": len(prog.ops)}
        prog = analyzer.analyze(tokens, enable_mirror=mirror)
        expected = {"tokens": tokens, "cost_bits": prog.total_cost, "n_ops": len(prog.ops)}
        if "--oracle" in argv:
            expected["oracle_bits"] = oracle.oracle_min_cost(tokens, budget=budget)[0]
        return expected
    if command == "surprise":
        tokens = _positional_tokens(argv)
        text = _flag_value(argv, "--template")
        if text is None:
            report = surprise.number_surprise(tokens[0])
        else:
            kind, _, arg = text.partition(":")
            template = (surprise.KDigitNumber(int(arg)) if kind == "kdigit"
                        else surprise.FixedBits(float(arg)))
            report = surprise.sequence_surprise(tokens, template)
        return {"c_exp": report.c_expected, "c_obs": report.c_observed,
                "u": report.u, "p": report.p}
    sub = argv[1]
    if sub == "refcheck":
        rows = lottery.reference_rank_report().rows
        return {"rows": [[list(c.numbers), bits] for c, bits in rows]}
    if sub == "rank":
        combos = lottery.parse_bulletin(pathlib.Path(argv[2]).read_text())
        return {"rows": [[list(c.numbers), bits]
                         for c, bits in lottery.rank_combinations(combos)]}
    config = lottery.ExperimentConfig(
        seed=int(_flag_value(argv, "--seed")),
        n_subjects=int(_flag_value(argv, "--subjects")),
        choice_model=lottery.ChoiceModel(kind=_flag_value(argv, "--model")))
    result = lottery.simulate_subjects(config)
    return {"histogram": {str(b): c for b, c in sorted(result.histogram.items())},
            "avoidance_probability_exact": lottery.avoidance_probability(
                len(config.fixed_combinations) + config.n_random,
                config.n_choices_per_subject, 2, config.n_subjects)}


def _compare_rows(got: list, want: list) -> str | None:
    if len(got) != len(want):
        return f"{len(got)} rows, expected {len(want)}"
    for row, (numbers, bits) in zip(got, want):
        if row["combination"] != numbers or not _close(row["cost_bits"], bits):
            return f"row {row} differs from {numbers} at {bits} bits"
    return None


def cli_check(argv: list[str], out: tuple[int, str]) -> str | None:
    code, stdout = out
    if code != 0:
        return f"exit code {code}"
    want = _expected(argv)
    if argv[0] == "lottery":
        got = json.loads(stdout)
        if argv[1] in ("refcheck", "rank"):
            rows = got["rows"] if argv[1] == "refcheck" else got
            if argv[1] == "refcheck" and got["ok"] is not True:
                return "reference check did not pass"
            return _compare_rows(rows, want["rows"])
        for key, value in want.items():
            if got[key] != value:
                return f"{key} is {got[key]!r}, expected {value!r}"
        return None
    fmt = _flag_value(argv, "--format")
    record = _parse_record(stdout, fmt)
    for key, value in want.items():
        if key not in record:
            return f"output lacks {key}"
        got = record[key]
        if key == "tokens":
            got = got if fmt == "json" else [int(t) for t in got.split()]
            if got != value:
                return f"tokens {got} differ from {value}"
        elif not _close(float(got), value):
            return f"{key} is {got}, expected {value}"
    return None


WORKLOADS = {
    w.name: w for w in (
        Workload("cli-oneshot", cli_items, cli_inprocess_op, cli_check, len(CLI_DECK)),
        Workload("exact-search", search_items, search_op, search_check, SEARCH_BLOCK),
        Workload("lottery-experiment", experiment_items, experiment_op, experiment_check),
        Workload("ticket-scoring", scoring_items, scoring_op, scoring_check),
    )
}
