"""Write or check tests/data/golden.json: the exact bits of a small run of every method.

The run uses criterion 9's shapes: 6-dim synthetic data, a 16-unit hidden
layer and 8-dim embeddings, 3-way 2-shot 5-query episodes, 2 epochs of 10
tasks.  It trains base, FT, DFA, IDA, EIML (split weights, teacher-first
KL), PAR and two teacher-first IDA rounds, and records

- the sha256 of every snapshot's parameter and anchor bytes,
- the sha256 of every epoch log,
- a few `evaluate` accuracies as `float.hex`.

GEMM kernels differ by CPU and BLAS build, so the digests are keyed by the
numpy version and the OpenBLAS configuration the process runs with.

    PYTHONPATH=src python3 tests/make_golden.py          # rewrite golden.json
    PYTHONPATH=src python3 tests/make_golden.py --check  # exit 1 and list every moved key

`--check` exits 2 when golden.json was recorded on another platform key.
"""
import os

# One BLAS thread, as tests/conftest.py sets it; this must happen before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from iml.anchorstore import snapshot_digest  # noqa: E402
from iml.data import (  # noqa: E402
    EpisodeSpec, SyntheticSpec, concat_datasets, gen_synthetic, uniform_offset,
)
from iml.evaluator import evaluate  # noqa: E402
from iml.losses import MethodKind  # noqa: E402
from iml.model import BackboneConfig  # noqa: E402
from iml.trainer import (  # noqa: E402
    TrainConfig, run_rounds, seeded_exemplars, train_base, train_incremental, train_paragon,
)

GOLDEN = Path(__file__).resolve().parent / "data" / "golden.json"
EPISODE = EpisodeSpec(3, 2, 5)
EVAL_EPISODES, EVAL_SEED = 40, 7


def openblas_call(name: str, restype):
    """Call numpy's bundled OpenBLAS function `scipy_openblas_<name>64_`; None if there is none."""
    libs = os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")
    for lib in sorted(glob.glob(libs)):
        try:
            fn = getattr(ctypes.CDLL(lib), f"scipy_openblas_{name}64_")
        except (OSError, AttributeError):
            continue
        fn.restype = restype
        return fn()
    return None


def platform_key() -> dict[str, str]:
    """The numpy version and the runtime OpenBLAS config (not numpy's build-time string)."""
    config = openblas_call("get_config", ctypes.c_char_p)
    return {"numpy": np.__version__,
            "openblas": "unknown" if config is None else config.decode().strip()}


def compute(workdir: Path) -> dict[str, str]:
    """Train every method once into `workdir` and return each recorded key's value."""
    spec = SyntheticSpec(classes_per_domain=8, dim=6, cluster_std=0.4,
                         domain_offset=uniform_offset(2.5, 6), samples_per_class=30, seed=0)
    tables = [gen_synthetic(spec, sample_seed=s) for s in (0, 1, 2)]
    old_tr, old_va, old_te = (t.subset_classes(range(5), "old") for t in tables)
    new_tr, new_va, new_te = (t.subset_classes(range(8, 13), "new") for t in tables)
    more_tr, more_va = (t.subset_classes(range(13, 16), "more") for t in tables[:2])
    unseen_te = tables[2].subset_classes(range(5, 8), "unseen")

    def cfg(name: str, **kw) -> TrainConfig:
        return TrainConfig(epochs=2, tasks_per_epoch=10, episode=EPISODE, seed=0,
                           val_episodes=5, backbone=BackboneConfig(6, (16,), 8),
                           log_path=str(workdir / f"{name}.csv"), **kw)

    base = train_base(old_tr, old_va, cfg("base"))
    snaps = {"base": base}
    for m in (MethodKind.FT, MethodKind.DFA, MethodKind.IDA):
        snaps[m.value] = train_incremental(base, new_tr, new_va, m, cfg(m.value))
    snaps["eiml"] = train_incremental(
        base, new_tr, new_va, MethodKind.EIML,
        cfg("eiml", lam_old=0.5, lam_new=2.0, kl_order="teacher_first"),
        exemplars=seeded_exemplars(old_tr, 4, 0))
    snaps["par"] = train_paragon(concat_datasets(old_tr, new_tr, "union"),
                                 concat_datasets(old_va, new_va, "union"), cfg("par"))
    rounds = run_rounds(base, [new_tr, more_tr], MethodKind.IDA,
                        cfg("rounds", kl_order="teacher_first"), round_vals=[new_va, more_va])
    snaps.update({f"ida_r{k}": s for k, s in enumerate(rounds, 1)})

    out = {f"snapshot/{name}": snapshot_digest(s) for name, s in snaps.items()}
    for log in sorted(workdir.glob("*.csv")):
        out[f"log/{log.stem}"] = hashlib.sha256(log.read_bytes()).hexdigest()
    for name, split in (("base", old_te), ("ida", old_te), ("ida", new_te),
                        ("eiml", unseen_te), ("ida_r2", old_te)):
        acc = evaluate(snaps[name], split, EPISODE, EVAL_EPISODES, EVAL_SEED).mean_acc
        out[f"accuracy/{name}/{split.split_name}"] = float(acc).hex()
    return out


def moved(want: dict[str, str], got: dict[str, str]) -> list[str]:
    """One line per key whose value differs, is missing or is new: `key: old -> new`."""
    return [f"{k}: {want.get(k)} -> {got.get(k)}"
            for k in sorted(want.keys() | got.keys()) if want.get(k) != got.get(k)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--check", action="store_true",
                    help="compare with golden.json instead of rewriting it")
    args = ap.parse_args(argv)
    key = platform_key()
    with tempfile.TemporaryDirectory() as tmp:
        values = compute(Path(tmp))
    if not args.check:
        GOLDEN.write_text(json.dumps({"platform": key, "values": values}, indent=1,
                                     sort_keys=True) + "\n")
        print(f"wrote {len(values)} values to {GOLDEN}")
        return 0
    golden = json.loads(GOLDEN.read_text())
    if golden["platform"] != key:
        print(f"golden.json was recorded on {golden['platform']}, this is {key}")
        return 2
    lines = moved(golden["values"], values)
    for line in lines:
        print(line)
    print(f"{len(lines)} of {len(values)} values moved" if lines else "no value moved")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
