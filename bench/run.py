#!/usr/bin/env python3
"""Benchmark of ``iml``: one workload, one seed, closed loop, one caller.

    python3 bench/run.py --workload gate-seed --seed 0 --seconds 30 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with no
tracing.  With ``--trace 1`` it alternates untraced and traced iterations
(at least two of each) and reports the per-layer metrics; the spans are
written to ``bench/out/``.  Either way the outputs are checked: every
iteration must reproduce the first bit for bit, one training call is
repeated and must give the same snapshot digest, and the accuracies must
match the values recorded for the seed in ``bench/reference/`` within
``TOLERANCE_PP``.  Human-readable lines go first; the last line of
standard output is one JSON object.  The exit code is 0 only when every
check passed.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference"

WORKLOADS = ("gate-seed", "eval-grid", "cli-study")
# Set-up, and the import of iml in a fresh interpreter, run this many times
# per run; setup_s is the sum of their medians.
SETUP_REPS = 5
# An accuracy may differ from its recorded value by this many percentage
# points.  Changing the last bits of training and of the distance kernel
# moved no recorded accuracy at all; a relu gradient that leaks for inputs
# in (-0.1, 0] moved them by up to 2.4 pp, a sign error by 17 pp.
TOLERANCE_PP = 1.0
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "train_steps_per_s": "steps/s",
    "eval_episodes_per_s": "episodes/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def prepare_imports() -> None:
    """Put ``src/`` first on the path and keep BLAS on the calling thread.

    The benchmark is one caller, so BLAS gets no threads of its own; with a
    second BLAS thread, iterations ran about 8% slower on a shared 2-core
    machine.  This must run before numpy is imported.
    """
    sys.path.insert(0, str(SRC))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_seconds() -> float:
    """Time ``import iml.cli`` (numpy included) in a fresh interpreter.

    A module imports once per process, so each repetition of this part of
    set-up needs its own process; the child reports its own import time.
    """
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import iml.cli; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                         text=True, check=True, timeout=120)
    return float(out.stdout)


def environment() -> dict:
    """Where the numbers come from: cores, versions, BLAS and CPU."""
    import numpy as np

    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "unknown",
        "blas_threads": None,
        "cpu": platform.processor() or platform.machine(),
    }
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        env["blas"] = f"{blas['name']} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                env["blas_threads"] = fn()
                break
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    env["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return env


def load_reference(workload: str, seed: int) -> dict | None:
    path = REFERENCE / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text())["seeds"].get(str(seed))


def compare(first, later) -> list[str]:
    """Call labels whose values or digests differ between two iterations."""
    bad = [k for k in first.values if first.values[k] != later.values.get(k)]
    bad += [f"digest {k}" for k in first.digests if first.digests[k] != later.digests.get(k)]
    return bad


def check_reference(outputs, ref: dict | None) -> tuple[list[str], str]:
    """Labels off their recorded values (or the IDA-FT gap off its own) by more
    than TOLERANCE_PP, and a summary."""
    bad = []
    for label, vals in outputs.values.items():
        if any(not (math.isfinite(v) and 0.0 <= v <= 100.0) for v in vals.values()):
            bad.append(label)
    if ref is None:
        return bad, "no recorded values for this seed; range checks only"
    worst = 0.0
    for label, vals in ref["values"].items():
        got = outputs.values.get(label, {})
        devs = [abs(got[k] - v) if k in got else math.inf for k, v in vals.items()]
        worst = max([worst, *devs])
        if any(d > TOLERANCE_PP for d in devs) and label not in bad:
            bad.append(label)
    gap = outputs.gap_pp()
    if "gap_pp" in ref and (gap is None or abs(gap - ref["gap_pp"]) > TOLERANCE_PP):
        bad.append("ida_ft_old_gap_pp")
    n = sum(len(v) for v in ref["values"].values())
    return bad, f"{n} recorded values, largest deviation {worst:.3f} pp (tolerance {TOLERANCE_PP} pp)"


def make_workload(name: str, workloads):
    if name == "gate-seed":
        return workloads.GateSeed()
    if name == "eval-grid":
        return workloads.EvalGrid()
    return workloads.CliStudy(OUT)


@dataclass
class Measured:
    """Everything one run observed, before it is checked and reported."""

    setup_times: list[float] = field(default_factory=list)
    walls: dict[str, list[float]] = field(
        default_factory=lambda: {"untraced": [], "traced": []})
    first: object = None
    mismatched: set[str] = field(default_factory=set)
    bytes_written: int = 0


def measure(wl, seed: int, seconds: float, tracer, meters) -> Measured:
    """Set up several times, then iterate until --seconds; check as it goes.

    With a tracer, iterations alternate untraced and traced, at least two of
    each.  Raises ``CallFailed`` when a call fails; the workload is closed
    either way.
    """
    setup_meter, meter, repeat_meter = meters
    m = Measured()
    st = None
    try:
        for _ in range(SETUP_REPS):
            if st is not None:
                wl.close(st)
            t = time.perf_counter()
            st = wl.setup(seed, setup_meter)
            m.setup_times.append(time.perf_counter() - t)

        start = time.perf_counter()
        k = 0
        while True:
            traced = tracer is not None and k % 2 == 1
            if traced:
                tracer.install()
                tracer.begin_iteration()
            try:
                t = time.perf_counter()
                wl.iterate(st, meter)
                dt = time.perf_counter() - t
                m.walls["traced" if traced else "untraced"].append(dt)
            finally:
                if traced:
                    tracer.end_iteration()
                    tracer.remove()
            if traced and hasattr(wl, "run_bytes"):
                m.bytes_written = wl.run_bytes(st)
            out = wl.outputs(st)
            if m.first is None:
                m.first = out
            else:
                m.mismatched.update(compare(m.first, out))
            k += 1
            # Stop before an iteration that would end after --seconds.
            enough = tracer is None or min(map(len, m.walls.values())) >= 2
            if enough and time.perf_counter() - start + dt > seconds:
                break

        key, digest = wl.repeat_digest(st, repeat_meter)
        if digest != m.first.digests.get(key):
            m.mismatched.add(f"repeat digest {key}")
        if tracer is not None and any(c != tracer.iter_counts[0] for c in tracer.iter_counts):
            m.mismatched.add("exact counts differ between traced iterations")
        return m
    finally:
        if st is not None:
            wl.close(st)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "iml" / "__init__.py").is_file():
        print(f"error: {SRC / 'iml'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    prepare_imports()
    import_s = 0.0 if args.trace else statistics.median(
        import_seconds() for _ in range(SETUP_REPS))
    import tracer as tracing
    import workloads

    env = environment()
    wl = make_workload(args.workload, workloads)
    meters = (workloads.Meter(), workloads.Meter(), workloads.Meter())
    setup_meter, meter, _ = meters
    tracer = tracing.Tracer() if args.trace else None
    try:
        m = measure(wl, args.seed, args.seconds, tracer, meters)
    except workloads.CallFailed:
        m = None

    errors = [e for mt in meters for e in mt.errors]
    attempted = sum(mt.attempted for mt in meters)
    failed = sum(mt.failed for mt in meters)
    ref = load_reference(args.workload, args.seed)
    if m is not None:
        off_ref, ref_note = check_reference(m.first, ref)
        m.mismatched.update(off_ref)
        failed = min(attempted, failed + len(m.mismatched))
    else:
        ref_note = "the run stopped at a failed call"
    correct = m is not None and failed == 0

    print(f"env {json.dumps(env, sort_keys=True)}")
    if m is not None:
        print(f"workload {args.workload} seed {args.seed}: {len(m.walls['untraced'])} untraced "
              f"and {len(m.walls['traced'])} traced iterations, {len(m.setup_times)} set-ups; "
              f"closed loop, one caller")
        print("iteration wall_s " + " ".join(f"{w:.3f}" for w in m.walls["untraced"]))
    print(f"check reference: {ref_note}")
    for item in sorted(m.mismatched if m is not None else ()):
        print(f"check mismatch: {item}")
    for err in errors:
        print(f"check error: {err}")
    gap = m.first.gap_pp() if m is not None else None
    if gap is not None:
        print(f"metric ida_ft_old_gap_pp {gap:.4f} pp"
              + (f" (recorded {ref['gap_pp']:.4f})" if ref and "gap_pp" in ref else ""))
    print(f"metric failed_ratio {failed / attempted if attempted else 1.0:.6f} share of calls "
          f"({failed} of {attempted})")

    if tracer is None:
        units = END_TO_END
        train = setup_meter if args.workload == "eval-grid" else meter
        untraced = m.walls["untraced"] if m is not None else []
        metrics = {
            "setup_s": import_s + (statistics.median(m.setup_times) if m is not None else 0.0),
            "wall_s": statistics.median(untraced) if untraced else 0.0,
            "train_steps_per_s": train.steps / train.train_s if train.train_s else 0.0,
            "eval_episodes_per_s": meter.episodes / meter.eval_s if meter.eval_s else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        units = tracing.metric_units()
        walls = m.walls if m is not None else {"traced": [], "untraced": []}
        metrics = tracer.metrics(walls["traced"], walls["untraced"],
                                 m.bytes_written if m is not None else 0)
        OUT.mkdir(parents=True, exist_ok=True)
        spans = OUT / f"trace-{args.workload}-seed{args.seed}.npz"
        tracer.save(spans, env)
        print(f"spans {len(tracer.start)} written to {spans.relative_to(ROOT)}")
    for name, unit in units.items():
        print(f"metric {name} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
