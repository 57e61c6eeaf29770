"""Spans around seqsurprise's layer boundaries, recorded from outside the package.

``Recorder.install`` replaces each function named in TRACED by a wrapper
wherever a seqsurprise module binds it (``seqsurprise.oracle.fresh_moves``
as well as ``seqsurprise.analyzer.fresh_moves``), so calls between modules
are seen.  Each span keeps its name, start, end, parent span and operation
id in flat arrays, which are written out when the run ends.  The benchmark
opens a root span ``bench.op`` around each timed operation and
``bench.check`` around its check.
"""

from __future__ import annotations

import array
import importlib
import pathlib
import sys
import time
from collections.abc import Callable
from typing import Any

TRACED = {
    "analyzer": ("analyze", "fresh_moves", "explained_move"),
    "costmodel": ("number_complexity",),
    "program": ("replay",),
    "oracle": ("oracle_min_cost",),
    "surprise": ("expected_complexity", "sequence_surprise"),
    "lottery": ("simulate_subjects", "generate_bulletin", "rank_combinations",
                "combination_complexity", "avoidance_probability_mc"),
    "cli": ("main",),
}
OP, CHECK = "bench.op", "bench.check"

# Span names whose descendants the metrics tell apart.
_UNDER = {CHECK: 1, "oracle.oracle_min_cost": 2, "analyzer.analyze": 4}


class Recorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.parent = array.array("q")
        self.name = array.array("H")
        self.op = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")
        self.stack = [-1]
        self.op_id = -1
        self.tickets: dict[int, tuple] = {}  # span id -> combination priced

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, fn: Callable, name: str) -> Callable:
        name_id = self._name_id(name)
        parent, names, ops, starts, ends = self.parent, self.name, self.op, self.start, self.end
        stack, clock = self.stack, time.perf_counter_ns
        tickets = self.tickets if name == "lottery.combination_complexity" else None

        def traced(*args: Any, **kwargs: Any) -> Any:
            span = len(starts)
            parent.append(stack[-1])
            names.append(name_id)
            ops.append(self.op_id)
            ends.append(0)
            stack.append(span)
            if tickets is not None:
                tickets[span] = args[0].numbers
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def root(self, name: str, fn: Callable) -> Callable:
        """``fn`` under a root span; ``bench.op`` starts a new operation id."""
        wrapped = self._wrap(fn, name)

        def call(*args: Any) -> Any:
            if name == OP:
                self.op_id += 1
            return wrapped(*args)

        return call

    def install(self) -> None:
        layers = {layer: importlib.import_module(f"seqsurprise.{layer}") for layer in TRACED}
        modules = [m for n, m in sys.modules.items()
                   if n == "seqsurprise" or n.startswith("seqsurprise.")]
        for layer, functions in TRACED.items():
            for fn_name in functions:
                original = getattr(layers[layer], fn_name)
                wrapper = self._wrap(original, f"{layer}.{fn_name}")
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)

    def write(self, path: pathlib.Path) -> None:
        with path.open("w") as out:
            out.write("span\tparent\top\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                out.write(f"{i}\t{self.parent[i]}\t{self.op[i]}\t{self.names[self.name[i]]}"
                          f"\t{self.start[i]}\t{self.end[i]}\n")

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer counts and times of the spans under ``bench.op``;
        ``program.replay``, which only the checks call, from ``bench.check``.

        A span's self time is its duration minus that of its child spans.
        """
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        in_children = [0] * n
        under = [0] * n
        for i in range(n):
            p = self.parent[i]
            under[i] = (under[p] if p >= 0 else 0) | _UNDER.get(self.names[self.name[i]], 0)
            if p >= 0:
                in_children[p] += duration[i]
        calls: dict[tuple[str, bool], int] = {}
        self_ns: dict[tuple[str, bool], int] = {}
        total_ns: dict[tuple[str, bool], int] = {}
        nested = {"oracle": 0, "analyze_fresh": 0, "analyze_explained": 0}
        tickets = []
        for i in range(n):
            name = self.names[self.name[i]]
            key = (name, bool(under[i] & 1))
            calls[key] = calls.get(key, 0) + 1
            self_ns[key] = self_ns.get(key, 0) + duration[i] - in_children[i]
            total_ns[key] = total_ns.get(key, 0) + duration[i]
            if key[1]:
                continue
            if name == "analyzer.fresh_moves" and under[i] & 2:
                nested["oracle"] += 1
            if name == "analyzer.fresh_moves" and under[i] & 4:
                nested["analyze_fresh"] += 1
            if name == "analyzer.explained_move" and under[i] & 4:
                nested["analyze_explained"] += 1
            if i in self.tickets:
                tickets.append(self.tickets[i])

        def count(name: str, check: bool = False) -> int:
            return calls.get((name, check), 0)

        def seconds(name: str, check: bool = False) -> float:
            return self_ns.get((name, check), 0) / 1e9

        def per_call(total: float, name: str) -> float:
            return total / count(name) if count(name) else 0.0

        solves = count("oracle.oracle_min_cost")
        return {
            "cli.main_self_ms": (per_call(seconds("cli.main") * 1e3, "cli.main"), "ms"),
            "oracle.oracle_min_cost.calls": (solves, "count"),
            "oracle.oracle_min_cost.self_s": (seconds("oracle.oracle_min_cost"), "s"),
            "oracle.nodes_expanded": (nested["oracle"], "count"),
            "oracle.nodes_per_solve": (nested["oracle"] / solves if solves else 0.0,
                                       "nodes/solve"),
            "analyzer.analyze.calls": (count("analyzer.analyze"), "count"),
            "analyzer.analyze.self_s": (seconds("analyzer.analyze"), "s"),
            "analyzer.analyze.mean_us": (
                per_call(total_ns.get(("analyzer.analyze", False), 0) / 1e3,
                         "analyzer.analyze"), "us"),
            "analyzer.fresh_moves.calls": (nested["analyze_fresh"], "count"),
            "analyzer.explained_move.calls": (nested["analyze_explained"], "count"),
            "costmodel.number_complexity.calls": (count("costmodel.number_complexity"), "count"),
            "costmodel.number_complexity.self_s": (seconds("costmodel.number_complexity"), "s"),
            "program.replay.calls": (count("program.replay", True), "count"),
            "program.replay.self_s": (seconds("program.replay", True), "s"),
            "surprise.expected_complexity.self_s": (seconds("surprise.expected_complexity"), "s"),
            "surprise.sequence_surprise.calls": (count("surprise.sequence_surprise"), "count"),
            "lottery.simulate_subjects.self_s": (seconds("lottery.simulate_subjects"), "s"),
            "lottery.generate_bulletin.self_s": (seconds("lottery.generate_bulletin"), "s"),
            "lottery.rank_combinations.self_s": (seconds("lottery.rank_combinations"), "s"),
            "lottery.combination_complexity.calls": (len(tickets), "count"),
            "lottery.combination_complexity.distinct_ratio": (
                len(set(tickets)) / len(tickets) if tickets else 0.0, "1"),
            "lottery.avoidance_probability_mc.self_s": (
                seconds("lottery.avoidance_probability_mc"), "s"),
        }
