"""The library surface that the benchmark in ``perfbench/`` calls and traces.

A benchmark run stops without a result, instead of counting a failed
operation, when a worker's warm-up raises, when its input generator
raises or when a name it traces is missing.  So each workload's first
inputs run here through its operation and its output check, and the
trace recorder installs in a fresh interpreter.  ``perfbench/`` is only
read.
"""

import importlib.util
import itertools
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
WORKLOAD_NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())
                  ["workloads"]]
# Inputs run after the warm-up: one block of the mix, so that cli-oneshot
# calls every subcommand of its deck, but no more than this.
MAX_TIMED = 20


@pytest.fixture(scope="module")
def workloads():
    # loaded from its file, registered only while its dataclasses are built
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        del sys.modules[name]
    return module


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_inputs_run_and_pass_their_check(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name]
    # cli-oneshot's op calls cli.main in-process, as the benchmark's loop does
    items = workload.items(1, tmp_path)
    # Drawing the first timed input builds exact-search's first block, and
    # with it the random cost models, whose five charges are positional.
    for item in itertools.chain([next(items)], itertools.islice(
            items, min(workload.block, MAX_TIMED))):
        assert workload.check(item, workload.op(item)) is None, item


def test_every_traced_name_resolves():
    # a fresh interpreter, since installing replaces functions in every module
    path = [str(PERFBENCH), str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", "import tracing; tracing.Recorder().install()"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
