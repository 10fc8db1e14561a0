"""No bit moves unless golden.json is rewritten: a small run of every method, digest by digest.

`tests/make_golden.py` trains the run and writes the file; a change that is
meant to move bits rewrites it with that script and says so.
"""
import functools
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import iml.data
import iml.model
from iml.evaluator import evaluate
from iml.model import BackboneConfig, embed, init_backbone

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


def wide_embedding_digest() -> str:
    """sha256 of the gate backbone's embedding of 7,680 rows.

    OpenBLAS splits a GEMM across threads only above an m * n * k threshold
    (4 * 65,536 in its default build); the golden study's GEMMs stay below
    it, and this one's first layer is above it.
    """
    params = init_backbone(BackboneConfig(16, (32, 32, 32), 16), 0)
    x = np.random.default_rng(0).standard_normal((7680, 16))
    return hashlib.sha256(embed(params, x).data.tobytes()).hexdigest()


# The thread count is read when numpy loads OpenBLAS, so the two-thread run is
# its own process; it loads numpy before make_golden pins one thread.
TWO_THREADS = """
import ctypes, json, sys, tempfile
from pathlib import Path
import numpy
sys.path.insert(0, sys.argv[1])
import make_golden, test_golden
with tempfile.TemporaryDirectory() as tmp:
    print(json.dumps({"threads": make_golden.openblas_call("get_num_threads", ctypes.c_int),
                      "values": make_golden.compute(Path(tmp)),
                      "wide": test_golden.wide_embedding_digest()}))
"""


def test_golden_bits_hold_under_settings_that_must_not_matter(tmp_path, monkeypatch):
    """Two BLAS threads, two evaluation workers, and one episode per draw and score chunk.

    The pool's chunk order matters only with several chunks, so it also
    runs with one episode per chunk.
    """
    golden = load_script()
    want = json.loads(golden.GOLDEN.read_text())
    if golden.platform_key() != want["platform"]:
        pytest.skip(f"golden bits were recorded on {want['platform']}")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SCRIPT.parents[1] / "src"), os.environ.get("PYTHONPATH")])))
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "2"))
    child = subprocess.Popen([sys.executable, "-c", TWO_THREADS, str(SCRIPT.parent)],
                             env=env, stdout=subprocess.PIPE, text=True)
    try:
        moved = {}
        for workers, chunk in ((2, False), (1, True), (2, True)):
            monkeypatch.undo()
            monkeypatch.setattr(golden, "evaluate", functools.partial(evaluate, workers=workers))
            if chunk:
                monkeypatch.setattr(iml.data, "DRAW_CHUNK_BYTES", 1)
                monkeypatch.setattr(iml.model, "SCORE_CHUNK_BYTES", 1)
            name = f"eval.workers = {workers}" + (", one episode per chunk" if chunk else "")
            run = golden.compute(tmp_path / f"w{workers}c{int(chunk)}")
            moved[name] = golden.moved(want["values"], run)
        out, _ = child.communicate(timeout=120)
    finally:
        child.kill()
        child.wait()
    assert child.returncode == 0
    two = json.loads(out)
    assert two["threads"] == 2
    moved["two BLAS threads"] = golden.moved(want["values"], two["values"])
    if two["wide"] != wide_embedding_digest():
        moved["two BLAS threads"].append("wide embedding")
    assert not any(moved.values()), moved
