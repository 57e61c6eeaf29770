import argparse
import hashlib
import io
import json
import os
import re
import signal
import subprocess
import sys

import pytest

from seqsurprise.cli import build_parser, main

COMPLEXITY_GOLDEN = "cost_bits=2\nn_ops=6\ntokens=1 2 3 4 5 6\n"
SURPRISE_GOLDEN = (
    "c_exp=17.6096404744\n"
    "c_obs=4.32192809489\n"
    "p=0.0001\n"
    "p_exceeds_one=false\n"
    "u=13.2877123795\n"
)

BULLETIN_SEED_1 = (
    "2 8 21 24 35 45\n"
    "7 8 9 37 38 39\n"
    "13 19 20 32 39 47\n"
    "6 10 18 19 25 43\n"
    "10 20 30 31 32 33\n"
    "34 35 36 37 38 39\n"
    "6 17 21 28 37 42\n"
    "10 11 12 44 45 46\n"
    "5 11 22 27 33 46\n"
    "8 9 26 27 28 29\n"
    "1 2 3 4 5 6\n"
    "16 22 25 37 38 39\n"
    "14 24 36 38 42 44\n"
    "1 2 5 6 15 49\n"
)

# every step from 1 to 40: the reference ranking no longer holds
WIDE_STEPS = "allowed_increments = " + ",".join(str(k) for k in range(1, 41)) + "\n"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_complexity_plain_golden(capsys):
    code, out, _ = run(capsys, ["complexity", "1", "2", "3", "4", "5", "6"])
    assert code == 0
    assert out == COMPLEXITY_GOLDEN


def test_output_is_byte_stable(capsys):
    _, first, _ = run(capsys, ["complexity", "10", "20", "30", "31", "32", "33"])
    _, second, _ = run(capsys, ["complexity", "10", "20", "30", "31", "32", "33"])
    assert first == second


def test_comma_separated_tokens(capsys):
    code, out, _ = run(capsys, ["complexity", "1,2,3,4,5,6"])
    assert code == 0
    assert out == COMPLEXITY_GOLDEN


def test_complexity_oracle_cross_check(capsys):
    code, out, _ = run(capsys, ["complexity", "7", "7", "7",
                                "--oracle", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["cost_bits"] == 4.0
    assert obj["oracle_bits"] == 4.0
    assert obj["oracle_match"] is True


def test_complexity_trace(capsys):
    code, out, _ = run(capsys, ["complexity", "7", "7", "--trace"])
    assert code == 0
    assert "INSTANTIATE(7) charged=3.000000" in out
    assert "COPY() charged=1.000000" in out


def test_missing_tokens_is_usage_error(capsys):
    code, _, _ = run(capsys, ["complexity"])
    assert code == 2


def test_bad_token_named_in_error(capsys):
    code, _, err = run(capsys, ["complexity", "3", "x9"])
    assert code == 2
    assert "x9" in err


def test_oracle_length_capability_limit(capsys):
    code, _, err = run(capsys, ["oracle"] + ["1"] * 9)
    assert code == 3
    assert "--allow-long" in err
    code, out, _ = run(capsys, ["oracle"] + ["1"] * 9 + ["--allow-long"])
    assert code == 0
    assert "cost_bits=2\n" in out


@pytest.mark.parametrize("command", [["oracle"], ["complexity", "--oracle"]])
def test_search_deeper_than_the_recursion_limit_is_a_capability_error(command, capsys):
    # the search recurses once per token; 1,500 is past Python's default limit
    code, out, err = run(capsys, command + ["0"] * 1500 + ["--allow-long"])
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_unhonoured_options_are_usage_errors(tmp_path, capsys):
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("not a config\n")
    for argv in (
        ["oracle", "1", "2", "3", "--max-cost", "1"],
        ["oracle", "1", "2", "3", "--max-length", "4"],
        ["lottery", "bulletin", "--seed", "1", "--format", "json"],
        ["lottery", "bulletin", "--seed", "1", "--config", str(bad_cfg)],
        ["lottery", "refcheck", "--format", "csv"],
        ["complexity", "1", "2", "3", "--allow-long"],
        ["lottery", "experiment", "--seed", "1", "--tau", "5"],
    ):
        code, out, err = run(capsys, argv)
        assert code == 2, argv
        assert out == ""
        assert "error:" in err
        assert "Traceback" not in err


def test_surprise_golden(capsys):
    code, out, _ = run(capsys, ["surprise", "33333"])
    assert code == 0
    assert out == SURPRISE_GOLDEN


def test_surprise_structureless(capsys):
    code, out, _ = run(capsys, ["surprise", "28561", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert abs(obj["u"]) < 1e-9
    assert obj["p"] == pytest.approx(1.0)


def test_surprise_sequence_needs_template(capsys):
    code, _, err = run(capsys, ["surprise", "1", "2", "3"])
    assert code == 2
    assert "--template" in err
    code, out, _ = run(capsys, ["surprise", "1", "2", "3",
                                "--template", "fixed:10", "--format", "json"])
    assert code == 0
    assert json.loads(out)["c_exp"] == 10.0


def test_surprise_bad_template(capsys):
    code, _, err = run(capsys, ["surprise", "33333", "--template", "kdigit:zero"])
    assert code == 2
    assert "template" in err
    code, _, _ = run(capsys, ["surprise", "33333", "--template", "poisson:3"])
    assert code == 2


@pytest.mark.parametrize("bits", ["inf", "nan"])
def test_surprise_rejects_non_finite_fixed_template(bits, capsys):
    # json.dumps would print Infinity or NaN, which is not valid JSON
    code, out, err = run(capsys, ["surprise", "1", "2", "3", "--template",
                                  f"fixed:{bits}", "--format", "json"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# 10**308 digits would print "c_exp": Infinity; 10**309 overflows a float
@pytest.mark.parametrize("k", [10**308, 10**309], ids=["1e308", "1e309"])
def test_surprise_rejects_a_kdigit_template_too_large_for_finite_bits(k, capsys):
    code, out, err = run(capsys, ["surprise", "1", "2", "--template",
                                  f"kdigit:{k}", "--format", "json"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_surprise_rejects_a_kdigit_expectation_that_overflows_the_model(tmp_path, capsys):
    # the k-digit bits are finite; adding copy_cost would print "c_exp": Infinity
    cfg = tmp_path / "model.cfg"
    cfg.write_text("copy_cost = 1e308\n")
    code, out, err = run(capsys, ["surprise", "1", "2", "3", "--template",
                                  f"kdigit:{5 * 10**307}", "--config", str(cfg),
                                  "--format", "json"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_surprise_past_the_largest_float_is_usage_error(capsys):
    # 200 tokens three apart, no allowed step between them: about 1,661 bits
    # observed against 1 expected, so p = 2**1660
    code, out, err = run(capsys, ["surprise", *map(str, range(1, 600, 3)),
                                  "--template", "fixed:1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not a finite float" in err


@pytest.mark.parametrize("argv", [
    ["complexity", "1", "5", "9", "--format", "json"],
    ["oracle", "1", "5", "9"],
    ["surprise", "1", "5", "9", "--template", "fixed:3", "--format", "json"],
    ["lottery", "rank", "{tickets}", "--format", "json"],
    ["lottery", "refcheck", "--format", "json"],
    ["lottery", "experiment", "--seed", "1"],
], ids=["complexity", "oracle", "surprise", "rank", "refcheck", "experiment"])
def test_a_cost_past_the_largest_float_is_usage_error(argv, tmp_path, capsys):
    # each charge is finite, but two segment starts sum past the largest float
    cfg = tmp_path / "model.cfg"
    cfg.write_text("segment_start_cost = 1.7e308\n")
    tickets = tmp_path / "tickets.txt"
    tickets.write_text("1 5 9 20 30 44\n")
    code, out, err = run(capsys, [a.format(tickets=tickets) for a in argv]
                         + ["--config", str(cfg)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not a finite float" in err


def test_a_number_cost_past_the_largest_float_is_usage_error(tmp_path, capsys):
    # one number read digit by digit: the slot copy and the zero after the
    # nine are each finite, but not their sum
    cfg = tmp_path / "model.cfg"
    cfg.write_text("copy_cost = 1.7e308\nzero_after_nine_cost = 1.7e308\n")
    code, out, err = run(capsys, ["surprise", "90", "--config", str(cfg)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "digit-by-digit cost is not a finite float" in err


def test_config_file_changes_costs(tmp_path, capsys):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("copy_cost = 2.0\n")
    code, out, _ = run(capsys, ["complexity", "7", "7", "7", "--config", str(cfg)])
    assert code == 0
    assert "cost_bits=5\n" in out


@pytest.mark.parametrize("command", ["complexity", "oracle"])
def test_large_segment_charge_prices_without_error(tmp_path, capsys, command):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("segment_start_cost = 1e13\n")
    code, out, err = run(capsys, [command, "72", "97", "8", "--config", str(cfg)])
    assert code == 0, err
    assert "tokens=72 97 8\n" in out


def test_config_unknown_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("copy_cost = 2.0\ncopy_costt = 1.0\n")
    code, _, err = run(capsys, ["complexity", "7", "--config", str(cfg)])
    assert code == 2
    assert "line 2" in err


def test_config_override_for_a_disallowed_step_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("increment_cost_5 = 0.1\n")
    code, out, err = run(capsys, ["complexity", "1", "6", "11", "--config", str(cfg)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "increment_cost_5" in err
    # once the step is allowed the override takes effect
    cfg.write_text("allowed_increments = 1,5\nincrement_cost_5 = 0.1\n")
    code, out, _ = run(capsys, ["complexity", "1", "6", "11", "--config", str(cfg)])
    assert code == 0
    assert "cost_bits=1.1\n" in out


def test_refcheck_passes_by_default(capsys):
    code, out, _ = run(capsys, ["lottery", "refcheck"])
    assert code == 0
    assert "overall: PASS" in out


def test_refcheck_fails_under_distorting_config(tmp_path, capsys):
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(WIDE_STEPS)
    code, out, _ = run(capsys, ["lottery", "refcheck", "--config", str(cfg)])
    assert code == 1
    assert "overall: FAIL" in out


def test_bulletin_requires_seed_and_is_reproducible(tmp_path, capsys):
    code, _, _ = run(capsys, ["lottery", "bulletin"])
    assert code == 2
    out_a = tmp_path / "a.txt"
    out_b = tmp_path / "b.txt"
    assert run(capsys, ["lottery", "bulletin", "--seed", "1",
                        "--out", str(out_a)])[0] == 0
    assert run(capsys, ["lottery", "bulletin", "--seed", "1",
                        "--out", str(out_b)])[0] == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    code, stdout, _ = run(capsys, ["lottery", "bulletin", "--seed", "1"])
    assert code == 0
    assert stdout == out_a.read_text() == BULLETIN_SEED_1


def test_rank_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin",
                        io.StringIO("14 24 36 38 42 44\n1 2 3 4 5 6\n"))
    code, out, _ = run(capsys, ["lottery", "rank"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].endswith("1 2 3 4 5 6")
    assert lines[1].endswith("14 24 36 38 42 44")


def test_rank_reports_bad_line(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("1 2 3 4 5 6\n1 2 3 4 5 x\n"))
    code, _, err = run(capsys, ["lottery", "rank"])
    assert code == 2
    assert "line 2" in err


def test_rank_reads_file_csv(tmp_path, capsys):
    path = tmp_path / "combos.txt"
    path.write_text("34 35 36 37 38 39\n")
    code, out, _ = run(capsys, ["lottery", "rank", str(path), "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0] == "combination,cost_bits"
    assert out.splitlines()[1] == "34 35 36 37 38 39,5"


def test_experiment_summary_json(capsys):
    code, out, _ = run(capsys, ["lottery", "experiment", "--seed", "7",
                                "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["n_subjects"] == 26
    assert sum(obj["histogram"].values()) == 52
    assert obj["avoidance_probability_exact"] == pytest.approx(2.3608376564261685e-4)
    assert obj["n_bulletin"] == 14


def test_experiment_weighted_gate(capsys):
    code, out, _ = run(capsys, ["lottery", "experiment", "--seed", "7",
                                "--model", "complexity_weighted", "--tau", "7",
                                "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert all(int(b) >= 7 for b in obj["histogram"])
    assert obj["all_subjects_avoided_simplest"] is True


def _subparser(parser, name):
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices[name]


def test_model_choices_are_the_lottery_kinds():
    # the parser spells the kinds out, so that it does not import the lottery
    from seqsurprise import lottery

    experiment = _subparser(_subparser(build_parser(), "lottery"), "experiment")
    model = next(a for a in experiment._actions if a.dest == "model")
    assert model.choices == (lottery.UNIFORM, lottery.COMPLEXITY_WEIGHTED)
    assert model.default == lottery.UNIFORM


# SHA-256 of the stdout of a weighted 200-subject experiment with a
# Monte-Carlo estimate: every PCG64 stream the command draws feeds it.
EXPERIMENT_STDOUT_DIGEST = "1f030de3edaed016a647eaa6c877c5d3fcd5f7bcf9886c8c806169ae76f961c0"


def test_experiment_stdout_is_pinned(capsys):
    code, out, _ = run(capsys, ["lottery", "experiment", "--seed", "7", "--subjects", "200",
                                "--model", "complexity_weighted",
                                "--mc-replications", "20000", "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXPERIMENT_STDOUT_DIGEST


def test_experiment_mc_estimate(capsys):
    code, out, _ = run(capsys, ["lottery", "experiment", "--seed", "3",
                                "--mc-replications", "50000", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["mc_replications"] == 50000
    assert 0.0 <= obj["avoidance_probability_mc"] <= 0.01


@pytest.mark.parametrize("choices", ["13", "14"])
def test_experiment_choosing_past_the_unmarked_entries(choices, capsys):
    # 13 of 14 picks must hit one of the two simplest tickets
    code, out, err = run(capsys, ["lottery", "experiment", "--seed", "1",
                                  "--choices", choices, "--mc-replications", "200",
                                  "--format", "json"])
    assert (code, err) == (0, "")
    obj = json.loads(out)
    assert obj["avoidance_probability_exact"] == 0.0
    assert obj["avoidance_probability_mc"] == 0.0
    assert '"avoidance_probability_exact": 0.0' in out


@pytest.mark.parametrize("option", [
    ["--tau", "nan", "--model", "complexity_weighted"],
    ["--mc-replications", "-3"],
    ["--tau", "inf", "--model", "complexity_weighted"],
    ["--tau=-inf", "--model", "complexity_weighted"],
    ["--seed", "-1"],
])
def test_experiment_rejects_invalid_option(option, capsys):
    code, out, err = run(capsys, ["lottery", "experiment", "--seed", "7",
                                  "--format", "json"] + option)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    # "--tau=-inf": argparse would take a separate "-inf" for an option
    assert option[0].lstrip("-").partition("=")[0] in err


@pytest.mark.parametrize("command", [["bulletin"], ["experiment", "--format", "json"]])
def test_impossible_bulletin_size_is_usage_error(command, capsys):
    # more random tickets than 6-of-49 holds beside the fixed ones: refused at
    # once, before any search for distinct draws
    code, out, err = run(capsys, ["lottery"] + command
                         + ["--seed", "5", "--n-random", "100000000"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "100000000" in err


@pytest.mark.parametrize("argv", [
    ["lottery", "bulletin", "--seed", "1", "--out", "{missing}/bulletin.txt"],
    ["lottery", "experiment", "--seed", "4", "--histogram-csv", "{missing}/h.csv"],
])
def test_unwritable_output_file_is_usage_error(argv, tmp_path, capsys):
    missing = tmp_path / "no-such-dir"
    code, out, err = run(capsys, [a.format(missing=missing) for a in argv])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(missing) in err


def test_experiment_csv_and_histogram_file(tmp_path, monkeypatch, capsys):
    from seqsurprise import lottery

    hist = tmp_path / "hist.csv"
    argv = ["lottery", "experiment", "--seed", "4", "--format", "csv",
            "--histogram-csv", str(hist)]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out.startswith("bin,count\n")
    assert hist.read_text() == out
    # csv prints the histogram alone, so an estimate is refused before the
    # subjects are simulated and before the file is written
    hist.unlink()
    monkeypatch.setattr(lottery, "simulate_subjects", None)
    code, out, err = run(capsys, argv + ["--mc-replications", "100"])
    assert (code, out) == (2, "")
    assert err == "error: --mc-replications applies only with --format plain or json\n"
    assert not hist.exists()


COMBOS = "1 2 3 4 5 6\n14 24 36 38 42 44\n10 20 30 31 32 33\n"


def _corpus():
    """(argv, stdin) pairs: every subcommand in every accepted format, the
    options that change a record, and the errors the program words itself.
    ``{tmp}`` stands for a temporary directory holding ``combos.txt``,
    ``wide.cfg`` and ``model.cfg``.  Argparse's own messages are left out,
    since their wording differs between Python versions."""
    formats = ("plain", "csv", "json")
    cases = []
    for fmt in formats:
        f = ["--format", fmt]
        cases += [
            (["complexity", "1", "2", "3", "4", "5", "6"] + f, None),
            (["complexity", "10", "20", "30", "31", "32", "33", "--trace"] + f, None),
            (["complexity", "1", "2", "2", "1", "5", "--mirror", "--oracle", "--trace"] + f,
             None),
            (["complexity", "3", "4", "4", "3", "--mirror"] + f, None),
            (["complexity", "7", "7", "7", "--oracle", "--config", "{tmp}/model.cfg"] + f,
             None),
            (["oracle", "7", "7", "8"] + f, None),
            (["oracle", "1", "2", "2", "1", "--mirror", "--trace"] + f, None),
            (["surprise", "33333"] + f, None),
            (["surprise", "1", "2", "3", "--template", "kdigit:3", "--trace"] + f, None),
            (["surprise", "28561", "--template", "fixed:20"] + f, None),
            (["lottery", "rank", "{tmp}/combos.txt"] + f, None),
            (["lottery", "rank"] + f, COMBOS),
            (["lottery", "rank", "-"] + f, COMBOS),
            (["lottery", "experiment", "--seed", "2", "--subjects", "3"] + f, None),
            (["lottery", "experiment", "--seed", "5", "--model", "complexity_weighted",
              "--mc-replications", "3000", "--histogram-csv", "{tmp}/hist.csv"] + f, None),
        ]
    for fmt in ("plain", "json"):
        cases += [
            (["lottery", "refcheck", "--format", fmt], None),
            (["lottery", "refcheck", "--config", "{tmp}/wide.cfg", "--format", fmt], None),
        ]
    cases += [
        (["complexity", "1,2,3", "9"], None),
        (["lottery", "refcheck"], None),
        (["lottery", "bulletin", "--seed", "1"], None),
        (["lottery", "bulletin", "--seed", "3", "--n-random", "2", "--out", "{tmp}/b.txt"],
         None),
        (["oracle"] + ["1"] * 9, None),
        (["oracle"] + ["1"] * 9 + ["--allow-long", "--trace"], None),
        (["complexity"] + ["1"] * 9 + ["--oracle"], None),
        (["complexity", "3", "x9"], None),
        (["complexity", "1,-4"], None),
        (["complexity", "7", "--config", "{tmp}/missing.cfg"], None),
        (["complexity", "7", "--config", "{tmp}/combos.txt"], None),
        (["lottery", "rank", "{tmp}/missing.txt"], None),
        (["lottery", "rank"], "\n"),
        (["lottery", "rank"], "1 2 3 4 5 x\n"),
        (["surprise", "1", "2", "3"], None),
        (["surprise", "33333", "--template", "poisson:3"], None),
        (["lottery", "bulletin", "--seed", "1", "--out", "{tmp}/no-dir/b.txt"], None),
        (["lottery", "experiment", "--seed", "7", "--mc-replications", "-3"], None),
        (["lottery", "experiment", "--seed", "7", "--tau", "inf",
          "--model", "complexity_weighted"], None),
    ]
    return cases


# SHA-256 over the corpus: argv, exit status, stdout, stderr and every file
# the command wrote, with the temporary directory masked.
CORPUS_DIGEST = "de0f75c5b2ba5e83e7cd227543957725fb3782b7b0ee24862e215e28eb8f3317"


def test_cli_bytes_are_pinned(tmp_path, monkeypatch, capsys):
    (tmp_path / "combos.txt").write_text(COMBOS)
    (tmp_path / "wide.cfg").write_text(WIDE_STEPS)
    (tmp_path / "model.cfg").write_text("copy_cost = 2.0\n")
    before = {p.name for p in tmp_path.iterdir()}
    tmp = str(tmp_path)
    digest = hashlib.sha256()
    for argv, stdin in _corpus():
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin or ""))
        code, out, err = run(capsys, [a.format(tmp=tmp) for a in argv])
        written = {p.name: p.read_text() for p in sorted(tmp_path.iterdir())
                   if p.name not in before}
        for p in written:
            (tmp_path / p).unlink()
        record = [argv, stdin, code, out, err.replace(tmp, "{tmp}"), written]
        digest.update(json.dumps(record).encode() + b"\n")
    assert digest.hexdigest() == CORPUS_DIGEST


FORMAT_ARGV = {
    ("complexity",): ["complexity", "7", "7", "8"],
    ("oracle",): ["oracle", "7", "7", "8"],
    ("surprise",): ["surprise", "33333"],
    ("lottery", "rank"): ["lottery", "rank", "{combos}"],
    ("lottery", "refcheck"): ["lottery", "refcheck"],
    ("lottery", "experiment"): ["lottery", "experiment", "--seed", "2",
                                "--subjects", "3"],
}


def _format_choices(parser, path=()):
    """(subcommand path, --format value) for every parser that takes --format."""
    for action in parser._actions:
        if "--format" in action.option_strings:
            for choice in action.choices:
                yield path, choice
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _format_choices(child, path + (name,))


FORMAT_CASES = list(_format_choices(build_parser()))


def _is_json(text):
    try:
        json.loads(text)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("path,fmt", FORMAT_CASES,
                         ids=["-".join(p + (f,)) for p, f in FORMAT_CASES])
def test_every_accepted_format_is_honoured(path, fmt, tmp_path, capsys):
    combos = tmp_path / "combos.txt"
    combos.write_text("1 2 3 4 5 6\n14 24 36 38 42 44\n")
    argv = [a.format(combos=combos) for a in FORMAT_ARGV[path]]
    code, out, _ = run(capsys, argv + ["--format", fmt])
    assert code == 0
    has_csv_header = re.fullmatch(r"[a-z_]+(,[a-z_]+)+", out.splitlines()[0])
    if fmt == "json":
        assert _is_json(out)
    elif fmt == "csv":
        assert has_csv_header and not _is_json(out)
    else:
        assert not has_csv_header and not _is_json(out)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "seqsurprise", "complexity", "1", "2", "3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "cost_bits=" in proc.stdout


# The probe runs in a fresh interpreter, because this one has loaded numpy.
NUMPY_PROBE = """\
import sys
from seqsurprise import MonteCarloPool, expected_complexity
from seqsurprise.cli import main
{call}
print("numpy" in sys.modules, file=sys.stderr)
"""


# name: (statement run after the import, whether numpy must then be loaded)
NUMPY_CASES = {
    "import": ("pass", False),
    "complexity": ("assert main(['complexity', '1', '2', '3', '4', '5', '6', "
                   "'--oracle', '--mirror']) == 0", False),
    "oracle": ("assert main(['oracle', '7', '7', '8']) == 0", False),
    "surprise-number": ("assert main(['surprise', '33333']) == 0", False),
    "surprise-kdigit": ("assert main(['surprise', '1', '2', '3', "
                        "'--template', 'kdigit:3']) == 0", False),
    "surprise-fixed": ("assert main(['surprise', '1', '2', '3', "
                       "'--template', 'fixed:12']) == 0", False),
    "lottery-rank": ("assert main(['lottery', 'rank', {combos!r}]) == 0", False),
    "lottery-refcheck": ("assert main(['lottery', 'refcheck']) == 0", False),
    "lottery-bulletin": ("assert main(['lottery', 'bulletin', '--seed', '1']) == 0", True),
    "lottery-experiment": ("assert main(['lottery', 'experiment', '--seed', '1', "
                           "'--subjects', '3']) == 0", True),
    # the pool draws from the seeded stream without loading the lottery
    "monte-carlo-pool": ("assert expected_complexity(MonteCarloPool("
                         "lambda rng: [int(rng.integers(10))], n_samples=2, seed=0)) > 0; "
                         "assert 'seqsurprise.lottery' not in sys.modules",
                         True),
}


@pytest.mark.parametrize("call,loads_numpy", NUMPY_CASES.values(), ids=NUMPY_CASES)
def test_numpy_loads_only_for_draws(call, loads_numpy, tmp_path):
    combos = tmp_path / "combos.txt"
    combos.write_text("1 2 3 4 5 6\n")
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE.format(call=call.format(combos=str(combos)))],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == f"{loads_numpy}\n"


# The modules only some subcommands run, and those they run on every call.
DEFERRED = ("json", "seqsurprise.lottery", "seqsurprise.oracle", "seqsurprise.surprise",
            "traceback")
DEFERRED_PROBE = """\
import sys
from seqsurprise.cli import main
assert main({argv!r}) == {code}
print(sorted(set({deferred!r}) & sys.modules.keys()), file=sys.stderr)
"""

# name: (argv, exit status, the DEFERRED modules the call must load)
DEFERRED_CASES = {
    "complexity": (["complexity", "1", "2", "3", "--trace"], 0, []),
    "complexity-csv": (["complexity", "1", "2", "3", "--mirror", "--format", "csv"], 0, []),
    "complexity-oracle": (["complexity", "1", "2", "3", "--oracle"], 0,
                          ["seqsurprise.oracle"]),
    "complexity-json": (["complexity", "1", "2", "3", "--format", "json"], 0, ["json"]),
    "oracle": (["oracle", "7", "7", "8", "--format", "csv"], 0, ["seqsurprise.oracle"]),
    "surprise": (["surprise", "1", "2", "3", "--template", "kdigit:3"], 0,
                 ["seqsurprise.surprise"]),
    "surprise-json": (["surprise", "33333", "--format", "json"], 0,
                      ["json", "seqsurprise.surprise"]),
    "lottery-refcheck": (["lottery", "refcheck"], 0, ["seqsurprise.lottery"]),
    "usage-error": (["complexity", "3", "x9"], 2, []),
}


@pytest.mark.parametrize("argv,code,loaded", DEFERRED_CASES.values(), ids=DEFERRED_CASES)
def test_a_call_loads_only_what_its_subcommand_runs(argv, code, loaded):
    proc = subprocess.run(
        [sys.executable, "-c",
         DEFERRED_PROBE.format(argv=argv, code=code, deferred=DEFERRED)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == str(loaded)


def test_import_loads_no_rational_arithmetic():
    # avoidance_probability divides two integers: no Fraction, no Decimal
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, seqsurprise.cli; "
         "print(sorted({'decimal', 'fractions'} & sys.modules.keys()))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_closed_stdout_ends_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the child writes
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "seqsurprise", "lottery", "experiment",
             "--seed", "7", "--format", "json"],
            stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    # killed by SIGPIPE (status 141 in a shell); 1 means an internal failure
    assert proc.returncode == -signal.SIGPIPE
