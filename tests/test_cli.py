import argparse
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


def test_config_file_changes_costs(tmp_path, capsys):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("copy_cost = 2.0\n")
    code, out, _ = run(capsys, ["complexity", "7", "7", "7", "--config", str(cfg)])
    assert code == 0
    assert "cost_bits=5\n" in out


def test_config_unknown_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("copy_cost = 2.0\ncopy_costt = 1.0\n")
    code, _, err = run(capsys, ["complexity", "7", "--config", str(cfg)])
    assert code == 2
    assert "line 2" in err


def test_refcheck_passes_by_default(capsys):
    code, out, _ = run(capsys, ["lottery", "refcheck"])
    assert code == 0
    assert "overall: PASS" in out


def test_refcheck_fails_under_distorting_config(tmp_path, capsys):
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("allowed_increments = " +
                   ",".join(str(k) for k in range(1, 41)) + "\n")
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
    assert stdout == out_a.read_text()


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


def test_experiment_mc_estimate(capsys):
    code, out, _ = run(capsys, ["lottery", "experiment", "--seed", "3",
                                "--mc-replications", "50000", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["mc_replications"] == 50000
    assert 0.0 <= obj["avoidance_probability_mc"] <= 0.01


@pytest.mark.parametrize("option", [
    ["--tau", "nan", "--model", "complexity_weighted"],
    ["--mc-replications", "-3"],
    ["--tau", "inf", "--model", "complexity_weighted"],
    ["--tau=-inf", "--model", "complexity_weighted"],
])
def test_experiment_rejects_invalid_option(option, capsys):
    code, out, err = run(capsys, ["lottery", "experiment", "--seed", "7",
                                  "--format", "json"] + option)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    # "--tau=-inf": argparse would take a separate "-inf" for an option
    assert option[0].lstrip("-").partition("=")[0] in err


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


def test_experiment_csv_and_histogram_file(tmp_path, capsys):
    hist = tmp_path / "hist.csv"
    code, out, _ = run(capsys, ["lottery", "experiment", "--seed", "4",
                                "--format", "csv", "--histogram-csv", str(hist)])
    assert code == 0
    assert out.startswith("bin,count\n")
    assert hist.read_text() == out


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
