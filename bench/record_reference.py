#!/usr/bin/env python3
"""Record the reference accuracies the benchmark checks its outputs against.

    python3 bench/record_reference.py --workload gate-seed --seeds 0-31

Runs one iteration of the workload for each seed and writes
``bench/reference/<workload>.json``, keeping seeds already recorded.
Record only from a commit whose outputs are known good: the benchmark
treats these values as correct.
"""
from __future__ import annotations

import argparse
import json
import sys

import run


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=run.WORKLOADS)
    p.add_argument("--seeds", required=True, type=seed_range, help="first-last, e.g. 0-31")
    args = p.parse_args(argv)
    run.prepare_imports()
    import workloads

    path = run.REFERENCE / f"{args.workload}.json"
    doc = json.loads(path.read_text()) if path.is_file() else {
        "workload": args.workload, "env": run.environment(), "seeds": {}}
    for seed in args.seeds:
        wl = run.make_workload(args.workload, workloads)
        meter = workloads.Meter()
        st = wl.setup(seed, meter)
        try:
            wl.iterate(st, meter)
            out = wl.outputs(st)
        finally:
            wl.close(st)
        entry = {"values": out.values}
        if out.gap_pp() is not None:
            entry["gap_pp"] = out.gap_pp()
        doc["seeds"][str(seed)] = entry
        print(f"{args.workload} seed {seed}: recorded", flush=True)
    doc["seeds"] = dict(sorted(doc["seeds"].items(), key=lambda kv: int(kv[0])))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
