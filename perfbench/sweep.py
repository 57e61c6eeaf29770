"""Run the benchmark over several seeds and summarise each metric.

usage: python3 perfbench/sweep.py --workload NAME [--workload NAME ...]
                                  [--seeds 1-10] [--seconds 20] [--trace 0|1]
                                  [--out FILE]

For every workload and seed it runs ``perfbench/run.py`` once, one run
after another, and prints the median, the quartiles and the spread (the
distance between the quartiles over the median) of every metric.  With
``--out`` it also writes the summary and the provenance of the last run as
JSON.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

RUN = pathlib.Path(__file__).resolve().parent / "run.py"


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=pathlib.Path)
    args = parser.parse_args()

    summary: dict = {"seconds": args.seconds, "trace": args.trace,
                     "seeds": args.seeds, "workloads": {}}
    for workload in args.workload:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        failed = 0
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, check=True)
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            summary["provenance"] = json.loads(lines[-2].removeprefix("provenance "))
            failed += result["failed"]
            for line in lines[:-2]:  # "name = value unit": every metric, gated or not
                name, _, rest = line.partition(" = ")
                value, unit = rest.split()
                values.setdefault(name, []).append(float(value))
                units[name] = unit
            print(f"{workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']}", flush=True)
        metrics = {name: {"unit": units[name], **summarise(v)} for name, v in values.items()}
        summary["workloads"][workload] = {"failed": failed, "metrics": metrics}
        for name, m in metrics.items():
            print(f"  {name}: median {m['median']:.6g} {m['unit']} "
                  f"[{m['q1']:.6g}, {m['q3']:.6g}] spread {m['spread']:.3f}", flush=True)
    for key in ("seed", "workload"):
        summary["provenance"].pop(key)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
