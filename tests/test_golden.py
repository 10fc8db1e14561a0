"""No bit moves unless golden.json is rewritten: a small run of every method, digest by digest.

`tests/make_golden.py` trains the run and writes the file; a change that is
meant to move bits rewrites it with that script and says so.
"""
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent / "make_golden.py"


def load_script():
    spec = importlib.util.spec_from_file_location("iml_make_golden", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_golden_bits(tmp_path):
    golden = load_script()
    want = json.loads(golden.GOLDEN.read_text())
    key = golden.platform_key()
    if key != want["platform"]:
        pytest.skip(f"golden bits were recorded on {want['platform']}; this platform is {key}")
    moved = golden.moved(want["values"], golden.compute(tmp_path))
    assert not moved, "\n".join(moved)
