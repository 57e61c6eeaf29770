"""Command line front end.

Deterministic and scriptable: the same argv always produces the same
bytes on stdout.  Each subcommand accepts only the options it honours:
``lottery bulletin`` takes no ``--config`` or ``--format``, and
``lottery refcheck`` prints json or plain only.  Exit codes: 0 success,
2 bad usage (including an option the subcommand does not take),
unparsable input or a file that cannot be read or written, 3 capability
limit (exhaustive search on sequences longer than the supported size or
deeper than the recursion limit), 1 internal failure or a failed
consistency check.  Run as a program (``entrypoint``), a stdout closed
by its reader ends the process by SIGPIPE, shell status 141.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import signal
import sys
import traceback

from .analyzer import analyze
from .costmodel import CostModel, DEFAULT_MODEL, model_from_config_text
from .lottery import (
    COMPLEXITY_WEIGHTED,
    UNIFORM,
    ChoiceModel,
    ExperimentConfig,
    GenerationError,
    avoidance_probability,
    avoidance_probability_mc,
    format_bulletin,
    generate_bulletin,
    parse_bulletin,
    rank_combinations,
    reference_rank_report,
    simulate_subjects,
)
from .oracle import (
    DEFAULT_OPERATORS,
    FULL_OPERATORS,
    SOFT_LENGTH_LIMIT,
    SearchBudget,
    oracle_min_cost,
)
from .program import DescriptionProgram, ReplayError
from .surprise import (
    ExpectationTemplate,
    FixedBits,
    KDigitNumber,
    number_surprise,
    sequence_surprise,
)


class UsageError(ValueError):
    """Bad arguments or unparsable input; maps to exit code 2."""


class CapabilityError(RuntimeError):
    """Request exceeds a documented limit; maps to exit code 3."""


def _parse_tokens(raw: list[str]) -> list[int]:
    tokens: list[int] = []
    for chunk in raw:
        for part in chunk.replace(",", " ").split():
            try:
                value = int(part)
            except ValueError:
                raise UsageError(
                    f"cannot parse token {part!r} as a nonnegative integer") from None
            if value < 0:
                raise UsageError(f"token {value} is negative")
            tokens.append(value)
    if not tokens:
        raise UsageError("no tokens given")
    return tokens


def _parse_template(text: str) -> ExpectationTemplate:
    kind, _, arg = text.partition(":")
    try:
        if kind == "kdigit":
            return KDigitNumber(int(arg))
        if kind == "fixed":
            return FixedBits(float(arg))
    except ValueError as exc:
        raise UsageError(f"bad template {text!r}: {exc}") from None
    raise UsageError(f"unknown template {text!r}; use kdigit:<k> or fixed:<bits>")


def _load_model(args: argparse.Namespace) -> CostModel:
    path = getattr(args, "config", None)
    if path is None:
        return DEFAULT_MODEL
    try:
        text = pathlib.Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}") from None
    return model_from_config_text(text)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, (list, tuple)):
        return " ".join(_fmt(v) for v in value)
    return str(value)


def _emit(record: dict, fmt: str, trace: tuple[str, ...] = ()) -> None:
    if fmt == "json":
        obj = dict(record)
        if trace:
            obj["trace"] = list(trace)
        print(json.dumps(obj, sort_keys=True, indent=2))
        return
    if fmt == "csv":
        print("key,value")
        for key in sorted(record):
            print(f"{key},{_fmt(record[key])}")
    else:
        for key in sorted(record):
            print(f"{key}={_fmt(record[key])}")
    for line in trace:
        print(line)


def _exact_search(tokens: list[int], model: CostModel,
                  args: argparse.Namespace) -> tuple[float, DescriptionProgram]:
    if len(tokens) > SOFT_LENGTH_LIMIT and not args.allow_long:
        raise CapabilityError(
            f"exhaustive search supports at most {SOFT_LENGTH_LIMIT} tokens "
            f"(got {len(tokens)}); pass --allow-long to override")
    operators = FULL_OPERATORS if args.mirror else DEFAULT_OPERATORS
    try:
        return oracle_min_cost(tokens, model, SearchBudget(operators=operators))
    except RecursionError:
        raise CapabilityError(
            f"exhaustive search of {len(tokens)} tokens is deeper than "
            f"the recursion limit ({sys.getrecursionlimit()})") from None


def _write_file(path: str, text: str) -> None:
    try:
        pathlib.Path(path).write_text(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path!r}: {exc}") from None


def cmd_complexity(args: argparse.Namespace, model: CostModel) -> int:
    tokens = _parse_tokens(args.tokens)
    prog = analyze(tokens, model, enable_mirror=args.mirror)
    record = {
        "tokens": tokens,
        "cost_bits": prog.total_cost,
        "n_ops": len(prog.ops),
    }
    if args.oracle:
        oracle_bits, _ = _exact_search(tokens, model, args)
        record["oracle_bits"] = oracle_bits
        record["oracle_match"] = abs(oracle_bits - prog.total_cost) <= 1e-9
    _emit(record, args.format, prog.trace_lines() if args.trace else ())
    return 0


def cmd_oracle(args: argparse.Namespace, model: CostModel) -> int:
    tokens = _parse_tokens(args.tokens)
    cost, prog = _exact_search(tokens, model, args)
    record = {"tokens": tokens, "cost_bits": cost, "n_ops": len(prog.ops)}
    _emit(record, args.format, prog.trace_lines() if args.trace else ())
    return 0


def cmd_surprise(args: argparse.Namespace, model: CostModel) -> int:
    tokens = _parse_tokens(args.tokens)
    template = _parse_template(args.template) if args.template else None
    if len(tokens) == 1:
        report = number_surprise(tokens[0], template, model)
    else:
        if template is None:
            raise UsageError("a multi-token sequence needs an explicit --template")
        report = sequence_surprise(tokens, template, model)
    record = {
        "c_exp": report.c_expected,
        "c_obs": report.c_observed,
        "u": report.u,
        "p": report.p,
        "p_exceeds_one": report.p_exceeds_one,
    }
    _emit(record, args.format, report.trace if args.trace else ())
    return 0


def cmd_lottery_rank(args: argparse.Namespace, model: CostModel) -> int:
    if args.file is None or args.file == "-":
        text = sys.stdin.read()
    else:
        try:
            text = pathlib.Path(args.file).read_text()
        except OSError as exc:
            raise UsageError(f"cannot read {args.file!r}: {exc}") from None
    try:
        combos = parse_bulletin(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if not combos:
        raise UsageError("no combinations to rank")
    ranked = rank_combinations(combos, model)
    if args.format == "json":
        rows = [{"combination": list(c.numbers), "cost_bits": bits}
                for c, bits in ranked]
        print(json.dumps(rows, sort_keys=True, indent=2))
    elif args.format == "csv":
        print("combination,cost_bits")
        for combo, bits in ranked:
            print(f"{combo},{_fmt(bits)}")
    else:
        for combo, bits in ranked:
            print(f"{bits:12.6f}  {combo}")
    return 0


def cmd_lottery_refcheck(args: argparse.Namespace, model: CostModel) -> int:
    rep = reference_rank_report(model)
    if args.format == "json":
        obj = {
            "rows": [{"combination": list(c.numbers), "cost_bits": bits}
                     for c, bits in rep.rows],
            "order_ok": rep.order_ok,
            "trio_span_bits": rep.trio_span,
            "trio_span_ok": rep.trio_span_ok,
            "separation_bits": rep.separation,
            "separation_ok": rep.separation_ok,
            "ok": rep.ok,
        }
        print(json.dumps(obj, sort_keys=True, indent=2))
    else:
        for combo, bits in rep.rows:
            print(f"{bits:12.6f}  {combo}")
        print(f"group order ascending: {'PASS' if rep.order_ok else 'FAIL'}")
        print(f"middle trio span {_fmt(rep.trio_span)} <= 1: "
              f"{'PASS' if rep.trio_span_ok else 'FAIL'}")
        print(f"simplest-two separation {_fmt(rep.separation)} >= 2: "
              f"{'PASS' if rep.separation_ok else 'FAIL'}")
        print(f"overall: {'PASS' if rep.ok else 'FAIL'}")
    return 0 if rep.ok else 1


def cmd_lottery_bulletin(args: argparse.Namespace, model: CostModel) -> int:
    config = ExperimentConfig(seed=args.seed, n_random=args.n_random)
    text = format_bulletin(generate_bulletin(config))
    if args.out:
        _write_file(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_lottery_experiment(args: argparse.Namespace, model: CostModel) -> int:
    if args.mc_replications < 0:
        raise UsageError(
            f"--mc-replications must be >= 0, got {args.mc_replications}")
    choice = ChoiceModel(kind=args.model, tau=args.tau)
    config = ExperimentConfig(
        seed=args.seed,
        n_subjects=args.subjects,
        n_choices_per_subject=args.choices,
        n_random=args.n_random,
        choice_model=choice,
    )
    result = simulate_subjects(config, model)
    n_total = len(config.fixed_combinations) + config.n_random
    summary = result.to_json_dict()
    summary["n_bulletin"] = n_total
    summary["avoidance_probability_exact"] = avoidance_probability(
        n_total, config.n_choices_per_subject, 2, config.n_subjects)
    if args.mc_replications > 0:
        summary["avoidance_probability_mc"] = avoidance_probability_mc(
            n_total, config.n_choices_per_subject, 2, config.n_subjects,
            n_replications=args.mc_replications, seed=args.seed)
        summary["mc_replications"] = args.mc_replications
    if args.histogram_csv:
        _write_file(args.histogram_csv, result.histogram_csv())
    if args.format == "json":
        print(json.dumps(summary, sort_keys=True, indent=2))
    elif args.format == "csv":
        sys.stdout.write(result.histogram_csv())
    else:
        hist = summary.pop("histogram")
        for key in sorted(summary):
            print(f"{key}={_fmt(summary[key])}")
        print("histogram:")
        for b in sorted(hist, key=int):
            print(f"{b},{hist[b]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    configured = argparse.ArgumentParser(add_help=False)
    configured.add_argument("--config", metavar="FILE",
                            help="cost model overrides, flat key=value lines")
    common = argparse.ArgumentParser(add_help=False, parents=[configured])
    common.add_argument("--format", choices=("json", "csv", "plain"),
                        default="plain")
    traced = argparse.ArgumentParser(add_help=False)
    traced.add_argument("--trace", action="store_true",
                        help="print the operation-by-operation description")

    parser = argparse.ArgumentParser(
        prog="seqsurprise",
        description="structural complexity and surprise for number sequences")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("complexity", parents=[common, traced],
                       help="analyze a sequence and report its description cost")
    p.add_argument("tokens", nargs="+", metavar="TOKEN")
    p.add_argument("--mirror", action="store_true",
                   help="read a whole even palindrome as its first half plus a "
                        "mirror; the exhaustive search mirrors any prefix, so "
                        "--oracle may then report oracle_match=false")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the exhaustive search")
    p.add_argument("--allow-long", action="store_true",
                   help="run the exhaustive search past its soft length limit")
    p.set_defaults(func=cmd_complexity)

    p = sub.add_parser("oracle", parents=[common, traced],
                       help="exhaustive minimal-description search")
    p.add_argument("tokens", nargs="+", metavar="TOKEN")
    p.add_argument("--mirror", action="store_true")
    p.add_argument("--allow-long", action="store_true")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("surprise", parents=[common, traced],
                       help="unexpectedness and subjective probability")
    p.add_argument("tokens", nargs="+", metavar="TOKEN")
    p.add_argument("--template", metavar="KIND:ARG",
                   help="expected-complexity template, kdigit:<k> or fixed:<bits>")
    p.set_defaults(func=cmd_surprise)

    lot = sub.add_parser("lottery", help="lottery combination tools")
    lotsub = lot.add_subparsers(dest="lottery_command", required=True)

    p = lotsub.add_parser("rank", parents=[common],
                          help="rank combinations from a file or stdin")
    p.add_argument("file", nargs="?", metavar="FILE",
                   help="one combination per line; '-' or absent reads stdin")
    p.set_defaults(func=cmd_lottery_rank)

    p = lotsub.add_parser("refcheck", parents=[configured],
                          help="rank the built-in reference set and verify its order")
    p.add_argument("--format", choices=("json", "plain"), default="plain")
    p.set_defaults(func=cmd_lottery_refcheck)

    p = lotsub.add_parser("bulletin", help="generate a shuffled bulletin")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n-random", type=int, default=4)
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=cmd_lottery_bulletin)

    p = lotsub.add_parser("experiment", parents=[common],
                          help="simulate subjects choosing from bulletins")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--subjects", type=int, default=26)
    p.add_argument("--choices", type=int, default=2)
    p.add_argument("--n-random", type=int, default=4)
    p.add_argument("--model", choices=(UNIFORM, COMPLEXITY_WEIGHTED),
                   default=UNIFORM, help="subject choice model")
    p.add_argument("--tau", type=float, default=7.0,
                   help="complexity threshold in bits for the weighted model")
    p.add_argument("--mc-replications", type=int, default=0,
                   help="also estimate the avoidance probability by simulation")
    p.add_argument("--histogram-csv", metavar="FILE",
                   help="write the complexity histogram as CSV")
    p.set_defaults(func=cmd_lottery_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        model = _load_model(args)
        return args.func(args, model)
    except CapabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (UsageError, GenerationError, ReplayError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


def entrypoint() -> None:
    # A reader that closes the pipe early (``| head``) ends the process the
    # Unix way, by SIGPIPE, instead of a BrokenPipeError traceback and the
    # exit status 1 that means an internal failure.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
