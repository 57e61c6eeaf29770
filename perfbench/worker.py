"""Worker interpreter: runs one workload's operations in-process.

usage: python3 perfbench/worker.py WORKLOAD SEED SECONDS MODE [SPANS_FILE]

MODE is ``run`` (closed loop for SECONDS, end-to-end metrics), ``pass``
(the first TRACE_OPS operations, untraced) or ``traced`` (the same
operations under tracing.Recorder, spans written to SPANS_FILE).

The worker imports seqsurprise, runs one untimed warm-up operation and
prints ``ready``.  It then waits for ``go`` on stdin, runs, and prints one
JSON line with its results.  Any other input makes it exit at once, which
is how run.py times a set-up without a run.
"""

from __future__ import annotations

import json
import pathlib
import resource
import sys
import tempfile

import seqsurprise  # noqa: F401  (part of the set-up being timed)

import workloads

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "perfbench"
# Operations per trace pass: sized so that an untraced pass takes a few
# seconds on a 2-core machine at the first benchmarked commit, and fixed so
# that the per-layer counts repeat exactly for a seed.
TRACE_OPS = {"cli-oneshot": 100, "exact-search": 40,
             "lottery-experiment": 10, "ticket-scoring": 20}


def main(argv: list[str]) -> int:
    name, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    workload = workloads.WORKLOADS[name]
    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        items = workload.items(seed, pathlib.Path(tmp))
        warmup = next(items)
        workload.op(warmup)
        print("ready", flush=True)
        if sys.stdin.readline().strip() != "go":
            return 0
        op, check = workload.op, workload.check
        recorder = None
        if mode == "traced":
            import tracing

            recorder = tracing.Recorder()
            recorder.install()
            op = recorder.root(tracing.OP, op)
            check = recorder.root(tracing.CHECK, check)
        if mode == "run":
            loop = workloads.closed_loop(items, op, check, seconds=seconds,
                                         min_ops=workloads.MIN_OPS, block=workload.block)
        else:
            loop = workloads.closed_loop(items, op, check, seconds=0, min_ops=0,
                                         max_ops=TRACE_OPS[name])
    result = loop.summary()
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if recorder is not None:
        recorder.write(pathlib.Path(argv[4]))
        result["layers"] = recorder.layer_metrics()
        result["spans"] = len(recorder.start)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
