#!/usr/bin/env python3
"""Run the bulletin-choice experiment over a seed sweep.

For each seed: simulate subjects choosing from their bulletins, record
whether every subject avoided the two simplest fixed combinations, and
accumulate the complexity histogram of all choices.  Writes a summary
JSON and a plot-ready histogram CSV.  Bad arguments, including sizes the
experiment refuses and an output directory that cannot be made, exit 2
with one error line before any file is written.  A result file that
cannot be written also exits 2, with one error line naming it, and the
other result file is removed if it was written, so a run leaves both
files or neither.

Example:
    python scripts/run_lottery_experiment.py --seeds 200 --tau 7 \
        --choice-model complexity_weighted --out-dir results/
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib

from seqsurprise.lottery import (
    COMPLEXITY_WEIGHTED,
    N_MARKED,
    UNIFORM,
    ChoiceModel,
    ExperimentConfig,
    avoidance_probability,
    histogram_csv,
    simulate_subjects,
)


def parse_args() -> tuple[argparse.ArgumentParser, argparse.Namespace, ExperimentConfig]:
    """The parser, the arguments, and the experiment of the first seed;
    makes the output directory."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=100,
                        help="number of independent experiment replications")
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument("--subjects", type=int, default=26)
    parser.add_argument("--choices", type=int, default=2)
    parser.add_argument("--choice-model", choices=(UNIFORM, COMPLEXITY_WEIGHTED),
                        default=UNIFORM)
    parser.add_argument("--tau", type=float,
                        help="complexity threshold in bits (default 7); "
                             "only with --choice-model complexity_weighted")
    parser.add_argument("--out-dir", type=pathlib.Path, default=pathlib.Path("results"))
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error(f"--seeds must be >= 1, got {args.seeds}")
    try:
        base = ExperimentConfig(
            seed=args.base_seed,
            n_subjects=args.subjects,
            n_choices_per_subject=args.choices,
            choice_model=ChoiceModel(args.choice_model, args.tau),
        )
    except ValueError as exc:
        parser.error(str(exc))
    try:
        args.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        parser.error(f"cannot create --out-dir {str(args.out_dir)!r}: {exc.strerror}")
    return parser, args, base


def main() -> None:
    parser, args, base = parse_args()
    histogram: dict[int, int] = {}
    n_all_avoided = 0
    for rep in range(args.seeds):
        result = simulate_subjects(dataclasses.replace(base, seed=args.base_seed + rep))
        n_all_avoided += result.all_subjects_avoided
        for b, count in result.histogram.items():
            histogram[b] = histogram.get(b, 0) + count

    summary = {
        "replications": args.seeds,
        "subjects": args.subjects,
        "choices_per_subject": args.choices,
        "choice_model": base.choice_model.kind,
        "runs_where_all_subjects_avoided_simplest": n_all_avoided,
        "fraction_all_avoided": n_all_avoided / args.seeds,
        "uniform_avoidance_probability_exact": avoidance_probability(
            base.n_bulletin, args.choices, N_MARKED, args.subjects),
        "total_choices": sum(histogram.values()),
        "min_chosen_bin": min(histogram) if histogram else None,
    }
    if base.choice_model.tau is not None:
        summary["tau"] = base.choice_model.tau

    hist_path = args.out_dir / "histogram.csv"
    summary_path = args.out_dir / "summary.json"
    written: list[pathlib.Path] = []
    for path, text in ((hist_path, histogram_csv(histogram)),
                       (summary_path, json.dumps(summary, sort_keys=True, indent=2) + "\n")):
        try:
            path.write_text(text)
        except OSError as exc:
            for done in written:  # both files or neither
                done.unlink()
            parser.exit(2, f"{parser.prog}: error: cannot write {str(path)!r}: {exc.strerror}\n")
        written.append(path)

    print(json.dumps(summary, sort_keys=True, indent=2))
    print(f"wrote {hist_path} and {summary_path}")


if __name__ == "__main__":
    main()
