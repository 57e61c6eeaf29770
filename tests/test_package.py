"""The package namespace resolves its public names on first use (PEP 562)."""

import importlib
import subprocess
import sys

import pytest

import seqsurprise


def test_public_names_are_their_home_modules_objects():
    for name, home in seqsurprise._HOMES.items():
        module = importlib.import_module(f"seqsurprise.{home}")
        assert getattr(seqsurprise, name) is getattr(module, name), name


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from seqsurprise import *", namespace)
    assert set(seqsurprise.__all__) <= namespace.keys()
    assert set(seqsurprise.__all__) <= set(dir(seqsurprise))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        seqsurprise.no_such_name
    assert not hasattr(seqsurprise, "UNIFORM")  # defined in lottery, not public


def test_modules_resolve_after_a_bare_import():
    # a fresh interpreter, since this one has imported every module
    probe = """\
import sys, seqsurprise
assert not any(name.startswith("seqsurprise.") for name in sys.modules)
for name in ("analyzer", "costmodel", "lottery", "oracle", "program", "surprise"):
    assert getattr(seqsurprise, name) is sys.modules["seqsurprise." + name], name
"""
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
