#!/usr/bin/env python3
"""Short smoke run of every benchmark workload.

    python3 bench/smoke.py

For each workload: one untraced run and two traced runs of about one
second each (each run does at least one iteration; a traced run at least
two untraced and two traced).  It asserts that every run passes its
correctness check, that the metrics are exactly those in
``BENCHMARK.json`` with their units, that the exact counts repeat across
the two traced runs, and that the trainer phases cover at least 90% of
training time on gate-seed.  It is not part of the test suite, so the
suite's runtime does not change.  Exit code 0 means all passed.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402  (needs src/ on the path)


def run(workload: str, trace: int, seed: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}\n"
                             f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect_metrics(result: dict, spec: list[dict], what: str) -> None:
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        raise AssertionError(f"{what}: missing {missing}, extra {extra}, wrong unit {wrong}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"{what}: check failed: {result}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for wl in (w["name"] for w in spec["workloads"]):
        expect_metrics(run(wl, 0), spec["end_to_end"], f"{wl} untraced")
        a, b = run(wl, 1), run(wl, 1)
        expect_metrics(a, spec["per_layer"], f"{wl} traced")
        expect_metrics(b, spec["per_layer"], f"{wl} traced again")
        for key in tracer.exact_count_keys(a["metrics"]):
            if a["metrics"][key]["value"] != b["metrics"][key]["value"]:
                raise AssertionError(f"{wl}: count {key} differs between traced runs")
        coverage = a["metrics"]["trainer.phase_coverage"]["value"]
        if wl == "gate-seed" and coverage < 0.9:
            raise AssertionError(f"gate-seed: trainer.phase_coverage {coverage:.3f} < 0.9")
        print(f"smoke {wl}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
