"""The three benchmark workloads: gate-seed, eval-grid and cli-study.

Every workload is a closed loop with one caller: the benchmark makes one
call into ``iml`` at a time and waits for it, with ``eval.workers = 1`` and
no threads of its own.  A workload has a set-up, which the benchmark runs
several times and times as ``setup_s``, and an iteration, which it repeats
on identical inputs for the measured seconds.

Calls go through module attributes (``trainer.train_base``, not a name
bound at import), so the tracer's wrappers see them in a traced run.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from iml import anchorstore, cli, data, evaluator, trainer
from iml.losses import MethodKind
from iml.model import BackboneConfig

# Shapes of criterion 4 of the acceptance gate, copied here so that the
# benchmark does not depend on the test suite: 16-dim inputs, 64 classes
# (32 per domain), 120 rows per class, backbone 16->32->32->32->16, 5-way
# 5-shot 15-query episodes.  Epochs and episode counts are cut so that an
# iteration takes seconds, not minutes.
EPISODE = data.EpisodeSpec(5, 5, 15)
BACKBONE = BackboneConfig(16, (32, 32, 32), 16)
EVAL_SEED = 1234
SPLITS = ("old", "new", "unseen")
METHODS = ("nu", "ft", "dfa", "ida", "eiml", "par")

GATE_EPOCHS = 3
GATE_EVAL_EPISODES = 200
GRID_EPOCHS = 2
GRID_EVAL_EPISODES = 200
GRID_WAYS = (5, 10, 20)
GRID_SHOTS = (1, 5)
CLI_SETTINGS = {
    "train.epochs": 1,
    "train.tasks_per_epoch": 100,
    "train.val_episodes": 20,
    "eval.n_episodes": 100,
    "eval.workers": 1,
}


class CallFailed(RuntimeError):
    """A workload call raised or exited non-zero; the iteration stops there."""


@dataclass
class Meter:
    """End-to-end accounting of the calls a workload makes.

    ``attempted``/``failed`` count top-level calls.  ``train_s``/``steps``
    and ``eval_s``/``episodes`` accumulate the time inside training and
    evaluation calls and the work they did.
    """

    attempted: int = 0
    failed: int = 0
    train_s: float = 0.0
    steps: int = 0
    eval_s: float = 0.0
    episodes: int = 0
    errors: list[str] = field(default_factory=list)

    def call(self, label: str, fn, *args, **kwargs):
        """Run one top-level call; count it, and count it failed if it raises."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as e:
            self.failed += 1
            self.errors.append(f"{label}: {type(e).__name__}: {e}")
            raise CallFailed(label) from e

    def train(self, fn, *args, **kwargs):
        """Time a training call and count its optimizer steps."""
        cfg = next(a for a in (*args, *kwargs.values()) if isinstance(a, trainer.TrainConfig))
        rounds = len(args[1]) if isinstance(args[1], list) else 1  # run_rounds
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.train_s += time.perf_counter() - t0
        self.steps += rounds * cfg.epochs * cfg.tasks_per_epoch
        return out

    def evaluate(self, fn, *args, **kwargs):
        """Time an evaluation call and count the episodes it scored."""
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.eval_s += time.perf_counter() - t0
        if isinstance(out, evaluator.SweepTable):
            self.episodes += sum(row.report.n_episodes for row in out.rows)
        else:
            self.episodes += out.n_episodes
        return out


@dataclass
class Outputs:
    """What one iteration produced, for the correctness check.

    ``values`` maps a call label to the accuracies (percent) it returned;
    ``digests`` maps a trained snapshot to its sha256 identity.
    """

    values: dict[str, dict[str, float]] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)

    def gap_pp(self) -> float | None:
        """IDA minus FT old-split accuracy, in percentage points."""
        try:
            return self.values["eval.ida"]["old"] - self.values["eval.ft"]["old"]
        except KeyError:
            return None


def bench_splits(seed: int) -> dict[str, data.Dataset]:
    """The seven tables of criterion 4 for one seed."""
    spec = data.SyntheticSpec(classes_per_domain=32, dim=16, cluster_std=0.5,
                              domain_offset=data.uniform_offset(3.0, 16),
                              samples_per_class=120, seed=seed)
    tr, va, te = (data.gen_synthetic(spec, sample_seed=s) for s in (0, 1, 2))
    a_tr, a_un = list(range(0, 16)), list(range(16, 32))
    b_tr, b_un = list(range(32, 48)), list(range(48, 64))
    return {
        "old_train": tr.subset_classes(a_tr, "old"),
        "old_val": va.subset_classes(a_tr, "old"),
        "old_test": te.subset_classes(a_tr, "old"),
        "new_train": tr.subset_classes(b_tr, "new"),
        "new_val": va.subset_classes(b_tr, "new"),
        "new_test": te.subset_classes(b_tr, "new"),
        "unseen_test": te.subset_classes(a_un + b_un, "unseen"),
    }


def bench_cfg(seed: int, epochs: int) -> trainer.TrainConfig:
    return trainer.TrainConfig(epochs=epochs, tasks_per_epoch=100, episode=EPISODE,
                               lam=1.0, lr=3e-3, seed=seed, val_episodes=50,
                               backbone=BACKBONE)


def _pct(report) -> float:
    return 100.0 * report.mean_acc


def _report_values(reports: dict) -> dict[str, dict[str, float]]:
    """{(method, split): EvalReport} -> {"eval.<method>": {split: percent}}."""
    values: dict[str, dict[str, float]] = {}
    for (method, split), rep in reports.items():
        values.setdefault(f"eval.{method}", {})[split] = _pct(rep)
    return values


class GateSeed:
    """One seed of criterion 4: train base, FT, DFA, IDA, EIML, PAR; evaluate all six.

    This is the work a reproduction and the gate's ``c4_seconds`` pay for.
    Most of it is training, so trainer, losses, autodiff and model do the
    work; it touches no file.
    """

    name = "gate-seed"

    def setup(self, seed: int, meter: Meter):
        return {"seed": seed, "d": bench_splits(seed), "cfg": bench_cfg(seed, GATE_EPOCHS)}

    def _incremental(self, st, meter: Meter, method: str):
        d, cfg = st["d"], st["cfg"]
        exemplars = None
        if method == "eiml":
            exemplars = data.reserve_exemplars(
                d["old_train"], cfg.exemplars_per_class,
                np.random.default_rng([st["seed"], 301, cfg.exemplars_per_class]))
        return meter.call(f"train.{method}", meter.train, trainer.train_incremental,
                          st["base"], d["new_train"], d["new_val"], MethodKind(method), cfg,
                          exemplars=exemplars)

    def iterate(self, st, meter: Meter) -> None:
        d, cfg = st["d"], st["cfg"]
        st["base"] = meter.call("train.base", meter.train, trainer.train_base,
                                d["old_train"], d["old_val"], cfg)
        snaps = st["snaps"] = {"nu": st["base"]}
        for method in ("ft", "dfa", "ida", "eiml"):
            snaps[method] = self._incremental(st, meter, method)
        snaps["par"] = meter.call(
            "train.par", meter.train, trainer.train_paragon,
            data.concat_datasets(d["old_train"], d["new_train"], "union"),
            data.concat_datasets(d["old_val"], d["new_val"], "union"), cfg)
        st["reports"] = {
            (method, split): meter.call(f"eval.{method}.{split}", meter.evaluate,
                                        evaluator.evaluate, snap, d[f"{split}_test"],
                                        EPISODE, GATE_EVAL_EPISODES, EVAL_SEED)
            for method, snap in snaps.items() for split in SPLITS
        }

    def outputs(self, st) -> Outputs:
        return Outputs(_report_values(st["reports"]),
                       {m: anchorstore.snapshot_digest(s) for m, s in st["snaps"].items()})

    def repeat_digest(self, st, meter: Meter) -> tuple[str, str]:
        """Train FT again on the same inputs: ("ft", its digest)."""
        return "ft", anchorstore.snapshot_digest(self._incremental(st, meter, "ft"))

    def close(self, st) -> None:
        pass


class EvalGrid:
    """Evaluate base and IDA snapshots on every split and over a ways x shots grid.

    There is no backward pass and no optimizer step here, and episodes
    range from 80 to 400 rows.  An evaluator change shows here; a
    training-only change should not.  The snapshots are trained in set-up,
    which is why this workload's ``train_steps_per_s`` is that of set-up.
    """

    name = "eval-grid"

    def setup(self, seed: int, meter: Meter):
        d = bench_splits(seed)
        cfg = bench_cfg(seed, GRID_EPOCHS)
        base = meter.call("train.base", meter.train, trainer.train_base,
                          d["old_train"], d["old_val"], cfg)
        ida = meter.call("train.ida", meter.train, trainer.train_incremental,
                         base, d["new_train"], d["new_val"], MethodKind.IDA, cfg)
        return {"seed": seed, "d": d, "snaps": {"nu": base, "ida": ida}}

    def iterate(self, st, meter: Meter) -> None:
        d, snaps = st["d"], st["snaps"]
        st["reports"] = {
            (method, split): meter.call(f"eval.{method}.{split}", meter.evaluate,
                                        evaluator.evaluate, snap, d[f"{split}_test"],
                                        EPISODE, GRID_EVAL_EPISODES, EVAL_SEED)
            for method, snap in snaps.items() for split in SPLITS
        }
        st["table"] = meter.call("cross_way_shot", meter.evaluate, evaluator.cross_way_shot,
                                 list(snaps.values()), GRID_WAYS, GRID_SHOTS,
                                 d["unseen_test"], GRID_EVAL_EPISODES, EVAL_SEED,
                                 labels=list(snaps))

    def outputs(self, st) -> Outputs:
        values = _report_values(st["reports"])
        values["cross_way_shot"] = {
            f"{row.label}.{row.axis_value[0]}w{row.axis_value[1]}s": _pct(row.report)
            for row in st["table"].rows
        }
        return Outputs(values,
                       {m: anchorstore.snapshot_digest(s) for m, s in st["snaps"].items()})

    def repeat_digest(self, st, meter: Meter) -> tuple[str, str]:
        """Train the set-up's IDA snapshot again: ("ida", its digest)."""
        d, cfg = st["d"], bench_cfg(st["seed"], GRID_EPOCHS)
        ida = meter.call("train.ida", trainer.train_incremental, st["snaps"]["nu"],
                         d["new_train"], d["new_val"], MethodKind.IDA, cfg)
        return "ida", anchorstore.snapshot_digest(ida)

    def close(self, st) -> None:
        pass


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class CliStudy:
    """The ``iml`` command driven in-process through ``iml.cli.cmd_dispatch``.

    One study: gen-data, train-base, train-incr for ft/dfa/ida/eiml,
    train-paragon, eval for all six methods, rounds --method ida, report,
    into a fresh run directory.  It writes seven CSV tables (about 4.8 MB)
    and snapshots and reads them back, so data, anchorstore and cli I/O are
    a visible share beside trainer and evaluator.

    ``IML_SEED`` is removed from the environment, because it overrides even
    ``--set train.seed``.  Training and evaluation time is taken by thin
    timers on the names ``iml.cli`` calls, which cost microseconds per call.
    """

    name = "cli-study"
    TIMED = {"train_base": "train", "train_incremental": "train",
             "train_paragon": "train", "run_rounds": "train",
             "evaluate": "evaluate", "cross_way_shot": "evaluate"}

    def __init__(self, out_root: Path):
        self.out_root = out_root

    def setup(self, seed: int, meter: Meter):
        os.environ.pop("IML_SEED", None)
        self.out_root.mkdir(parents=True, exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix="cli-study-", dir=self.out_root))
        sets = {"train.seed": seed, **CLI_SETTINGS}
        common = [arg for k, v in sets.items() for arg in ("--set", f"{k}={v}")]
        return {"work": work, "common": common, "run": None, "n": 0}

    def _commands(self) -> list[list[str]]:
        cmds = [["gen-data"], ["train-base"]]
        cmds += [["train-incr", "--method", m] for m in ("ft", "dfa", "ida", "eiml")]
        cmds += [["train-paragon"]]
        cmds += [["eval", "--method", m] for m in METHODS]
        cmds += [["rounds", "--method", "ida"], ["report"]]
        return cmds

    def _dispatch(self, st, meter: Meter, argv: list[str]) -> None:
        label = "cli." + ".".join(a for a in argv if not a.startswith("-"))
        full = argv + ["--out", str(st["run"])] + st["common"]
        sink = io.StringIO()

        def run() -> int:
            with contextlib.redirect_stdout(sink):
                return cli.cmd_dispatch(full)

        code = meter.call(label, run)
        if code != 0:
            meter.failed += 1
            meter.errors.append(f"{label}: exit code {code}")
            raise CallFailed(label)

    @contextlib.contextmanager
    def _timers(self, meter: Meter):
        originals = {name: getattr(cli, name) for name in self.TIMED}
        for name, kind in self.TIMED.items():
            fn, timed = originals[name], getattr(meter, kind)
            setattr(cli, name, lambda *a, _fn=fn, _t=timed, **k: _t(_fn, *a, **k))
        try:
            yield
        finally:
            for name, fn in originals.items():
                setattr(cli, name, fn)

    def iterate(self, st, meter: Meter) -> None:
        st["n"] += 1
        st["run"] = st["work"] / f"run{st['n']}"
        with self._timers(meter):
            for argv in self._commands():
                self._dispatch(st, meter, argv)

    def outputs(self, st) -> Outputs:
        """Accuracies from the eval CSVs; sha256 of every snapshot file and the summary.

        Files are hashed whole rather than loaded, so that no ``iml`` call is
        made outside the study.  Run directories before the latest are removed.
        """
        run, out = st["run"], Outputs()
        for method in METHODS:
            lines = (run / "reports" / f"eval_{method}.csv").read_text().splitlines()[1:]
            out.values[f"eval.{method}"] = {
                ln.split(",")[0]: 100.0 * float(ln.split(",")[2]) for ln in lines if ln
            }
        for path in sorted((run / "snapshots").glob("*.imlsnap")) + [run / "reports" / "summary.md"]:
            out.digests[path.name] = _sha256(path)
        for old in st["work"].iterdir():
            if old != run:
                shutil.rmtree(old)
        return out

    def run_bytes(self, st) -> int:
        """Bytes in the run directory when the study ends."""
        return sum(p.stat().st_size for p in st["run"].rglob("*") if p.is_file())

    def repeat_digest(self, st, meter: Meter) -> tuple[str, str]:
        """Run ``train-incr --method ft`` again in the last run directory."""
        with self._timers(meter):
            self._dispatch(st, meter, ["train-incr", "--method", "ft"])
        return "incr_ft.imlsnap", _sha256(st["run"] / "snapshots" / "incr_ft.imlsnap")

    def close(self, st) -> None:
        shutil.rmtree(st["work"], ignore_errors=True)
