"""Run one workload of the seqsurprise benchmark and print its metrics.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from its
``src`` directory, so nothing needs installing.  One client drives a
closed loop.  With ``--trace 0`` the run prints the end-to-end metrics;
with ``--trace 1`` it prints the per-layer metrics of a traced pass.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give each
metric with its unit and the provenance of the run.  Scratch files and
span dumps go to ``.bench_build/perfbench`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
WORKER = pathlib.Path(__file__).resolve().parent / "worker.py"
SETUPS = 9  # set-ups per run; setup_s is their median
PROBES = 5  # repetitions of each start-up probe
RUN_TIMEOUT_S = 170


def _median_time(argv: list[str], repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _start_worker(args: argparse.Namespace, mode: str, *extra: str
                  ) -> tuple[subprocess.Popen, float]:
    """Spawn a worker and wait until it is ready; returns it and its set-up time."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), args.workload, str(args.seed), str(args.seconds),
         mode, *extra],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker failed to start ({line.strip()!r})")
    return proc, setup


def _finish_worker(proc: subprocess.Popen) -> dict:
    try:
        out, _ = proc.communicate("go\n", timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out.splitlines()[-1])


def _report_errors(errors: list[str]) -> None:
    for error in errors:
        print(f"failed operation: {error}", file=sys.stderr)


def end_to_end(args: argparse.Namespace) -> tuple[dict, dict, int, int]:
    workload = workloads.WORKLOADS[args.workload]
    if args.workload == "cli-oneshot":
        setup = _median_time([sys.executable, "-c", "import seqsurprise.cli"], SETUPS)
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            items = workload.items(args.seed, pathlib.Path(tmp))
            workloads.cli_subprocess_op(next(items))  # warm-up, untimed
            loop = workloads.closed_loop(
                items, workloads.cli_subprocess_op, workload.check,
                seconds=args.seconds, min_ops=workloads.MIN_OPS, block=workload.block)
        result = loop.summary()
        # Every child has been waited for, so RUSAGE_CHILDREN holds the peak
        # of the largest one.
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    else:
        setups = []
        for i in range(SETUPS):
            proc, setup = _start_worker(args, "run")
            setups.append(setup)
            if i < SETUPS - 1:
                proc.communicate("")
        setup = statistics.median(setups)
        result = _finish_worker(proc)
    _report_errors(result["errors"])
    attempted, failed = result["attempted"], result["failed"]
    speed = result["host_speed"]
    ok = attempted - failed
    metrics = {
        "setup_s": (setup * speed, "s"),
        "ops_per_s": (ok / result["busy_s"], "ops/s"),
        "latency_p50_ms": (result["latency_p50_s"] * 1e3, "ms"),
        "peak_rss_mib": (result["peak_rss_mib"], "MiB"),
    }
    # Printed with the others but left out of the JSON metrics: failed_ratio
    # is 0 on a correct run, the 90th percentile of the in-process workloads
    # moves with the host's slow spells, and the wall-clock timings move with
    # the host's speed (see README.md).
    unsteady = {
        "latency_p90_ms": (result["latency_p90_s"] * 1e3, "ms"),
        "failed_ratio": (failed / attempted, "1"),
        "host_speed": (speed, "1"),
        "wall.setup_s": (setup, "s"),
        "wall.ops_per_s": (ok / result["wall_busy_s"], "ops/s"),
        "wall.latency_p50_ms": (result["wall_latency_p50_s"] * 1e3, "ms"),
    }
    return metrics, unsteady, attempted, failed


def startup_probes() -> dict:
    """Process start-up costs, each the median of fresh interpreters."""
    python = sys.executable
    bare = _median_time([python, "-c", "pass"], PROBES)
    package = _median_time([python, "-c", "import seqsurprise.cli"], PROBES)
    numpy = _median_time([python, "-c", "import numpy"], PROBES)
    loaded = subprocess.run(
        [python, "-c", "import sys, seqsurprise.analyzer; print(int('numpy' in sys.modules))"],
        check=True, capture_output=True, text=True).stdout.strip()
    return {
        "cli.interpreter_ms": (bare * 1e3, "ms"),
        "cli.import_ms": ((package - bare) * 1e3, "ms"),
        "cli.numpy_import_ms": ((numpy - bare) * 1e3, "ms"),
        "cli.numpy_loaded": (int(loaded), "bool"),
    }


def traced(args: argparse.Namespace) -> tuple[dict, dict, int, int]:
    """The same operations in two fresh workers, untraced and then traced."""
    metrics = startup_probes()
    plain = _finish_worker(_start_worker(args, "pass")[0])
    spans = WORK / f"spans-{args.workload}.tsv"
    rich = _finish_worker(_start_worker(args, "traced", str(spans))[0])
    print(f"{rich['spans']} spans of seed {args.seed} written to {spans.relative_to(ROOT)}",
          file=sys.stderr)
    _report_errors(plain["errors"] + rich["errors"])
    attempted = plain["attempted"] + rich["attempted"]
    failed = plain["failed"] + rich["failed"]
    metrics.update({name: tuple(value) for name, value in rich["layers"].items()})
    # Both busy times are scaled to the reference machine, so a change of
    # host speed between the two passes cancels out.
    metrics["bench.trace_overhead_ratio"] = (plain["busy_s"] / rich["busy_s"], "1")
    metrics["failed_ratio"] = (failed / attempted, "1")
    return metrics, {}, attempted, failed


def provenance(args: argparse.Namespace) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True).stdout.strip() or None
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy,
            "git_sha": sha, "src_sha256": digest.hexdigest()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "seqsurprise" / "__init__.py").is_file():
        print(f"error: no seqsurprise sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))  # the cli-oneshot checks call the library
    WORK.mkdir(parents=True, exist_ok=True)

    metrics, unsteady, attempted, failed = (traced if args.trace else end_to_end)(args)
    for name, (value, unit) in {**metrics, **unsteady}.items():
        print(f"{name} = {value} {unit}")
    print("provenance " + json.dumps(provenance(args), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
