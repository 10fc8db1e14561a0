"""Episodic evaluation protocol, confidence intervals, and sweep studies.

Episode i of an evaluation is drawn from its own generator seeded by
(seed, i), so reports do not depend on execution order or worker count,
and re-running with the same snapshot and seed is bit-identical.  The
episodes depend on the table, shape, count and seed alone, never on the
snapshot: they are drawn once per table (`data.eval_episode_rows`) and
every snapshot scored on that table meets the same ones, so comparisons
between methods are paired.  Scoring needs only each query's nearest class
mean, which `model.nearest_prototypes` finds from a GEMM and certifies
against the exact difference kernel, so every accuracy is bitwise the one
that kernel gives an episode at a time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import Array
from .data import Dataset, EpisodeSpec, eval_episode_rows, reserve_exemplars
from .losses import MethodKind
from .model import ModelSnapshot, embed, score_episodes
from .trainer import TrainConfig, train_incremental


@dataclass(frozen=True)
class EvalReport:
    split: str
    n_episodes: int
    mean_acc: float
    ci95: float
    ways: int
    shots: int
    queries: int
    seed: int

    def csv_row(self) -> str:
        return (
            f"{self.split},{self.n_episodes},{self.mean_acc!r},{self.ci95!r},"
            f"{self.ways},{self.shots},{self.seed}"
        )


CSV_HEADER = "split,n,mean,ci,ways,shots,seed"


def confidence_interval(values) -> tuple[float, float]:
    """(mean, 1.96 * sample-sd / sqrt(n)); needs at least two values."""
    vals = [float(v) for v in values]
    n = len(vals)
    if n < 2:
        raise ValueError("confidence interval needs at least two values")
    mean = math.fsum(vals) / n
    var = math.fsum((v - mean) ** 2 for v in vals) / (n - 1)
    return mean, 1.96 * math.sqrt(var / n)


def embed_table(snapshot: ModelSnapshot, dataset: Dataset) -> Array:
    """The snapshot's embedding of every row of `dataset`, which `evaluate` scores from."""
    if snapshot.config.input_dim != dataset.dim:
        raise ValueError(
            f"snapshot expects {snapshot.config.input_dim}-dim inputs, "
            f"dataset '{dataset.split_name}' is {dataset.dim}-dim"
        )
    return embed(snapshot.params, dataset.features).data


def evaluate(
    snapshot: ModelSnapshot,
    dataset: Dataset,
    spec: EpisodeSpec,
    n_episodes: int,
    seed: int,
    workers: int = 1,
    *,
    z: Array | None = None,
) -> EvalReport:
    """Mean episode accuracy with a 95% interval over n independent episodes.

    The episodes are `eval_episode_rows(dataset, spec, n_episodes, seed)`,
    scored from one embedding of the dataset: `z` if the caller already
    holds `embed_table(snapshot, dataset)`, else embedded here.
    """
    if n_episodes < 2:
        raise ValueError("evaluation needs at least two episodes for an interval")
    if z is None:
        z = embed_table(snapshot, dataset)
    elif z.shape != (len(dataset), snapshot.config.embed_dim):
        raise ValueError(
            f"z has shape {z.shape}, but embedding dataset '{dataset.split_name}' "
            f"gives {(len(dataset), snapshot.config.embed_dim)}"
        )
    picks = eval_episode_rows(dataset, spec, n_episodes, seed)
    accs, _ = score_episodes(z, picks, spec.shots, workers=workers)
    mean, half = confidence_interval(accs)
    return EvalReport(
        dataset.split_name, n_episodes, mean, half,
        spec.ways, spec.shots, spec.queries, seed,
    )


@dataclass(frozen=True)
class SweepRow:
    axis_value: object
    label: str
    report: EvalReport


@dataclass
class SweepTable:
    """Rows of evaluations along one swept axis, plus optional per-column ranges."""

    axis: str
    rows: list[SweepRow]
    ranges: dict | None = None

    def csv_lines(self) -> list[str]:
        lines = [f"{self.axis},label,{CSV_HEADER}"]
        for row in self.rows:
            lines.append(f"{_axis_str(row.axis_value)},{row.label},{row.report.csv_row()}")
        if self.ranges:
            for key, span in self.ranges.items():
                lines.append(f"{_axis_str(key)},range,,0,{span!r},,,,")
        return lines


def _axis_str(value) -> str:
    if isinstance(value, tuple):
        return f"{value[0]}w{value[1]}s"
    return repr(value) if isinstance(value, float) else str(value)


def sweep_lambda(
    base: ModelSnapshot,
    new_ds: Dataset,
    new_val: Dataset,
    eval_splits: dict[str, Dataset],
    values,
    cfg: TrainConfig,
    n_episodes: int,
    eval_seed: int,
) -> SweepTable:
    """Retrain the anchor-KL method at each weight and evaluate every split.

    Every weight is checked before the first run.  All runs share the
    config seed, so the zero-weight row coincides with plain fine-tuning.
    """
    values = list(values)
    negative = [lam for lam in values if lam < 0]
    if negative:
        raise ValueError(f"alignment weights must be non-negative, got {negative}")
    rows = []
    for lam in values:
        snap = train_incremental(
            base, new_ds, new_val, MethodKind.IDA, replace(cfg, lam=float(lam))
        )
        for name, ds in eval_splits.items():
            rep = evaluate(snap, ds, cfg.episode, n_episodes, eval_seed)
            rows.append(SweepRow(float(lam), name, rep))
    return SweepTable("lambda", rows)


def sweep_exemplars(
    base: ModelSnapshot,
    old_ds: Dataset,
    new_ds: Dataset,
    new_val: Dataset,
    counts,
    cfg: TrainConfig,
    eval_splits: dict[str, Dataset],
    n_episodes: int,
    eval_seed: int,
) -> SweepTable:
    """Retrain the exemplar method at each per-class budget and evaluate.

    Every budget is checked before the first run.
    """
    counts = [int(c) for c in counts]
    empty = [c for c in counts if c < 1]
    if empty:
        raise ValueError(f"exemplar budgets must be at least 1 per class, got {empty}")
    rows = []
    for count in counts:
        ex = reserve_exemplars(
            old_ds, count, np.random.default_rng([cfg.seed, 301, count])
        )
        snap = train_incremental(
            base, new_ds, new_val, MethodKind.EIML,
            replace(cfg, exemplars_per_class=count), exemplars=ex,
        )
        for name, ds in eval_splits.items():
            rep = evaluate(snap, ds, cfg.episode, n_episodes, eval_seed)
            rows.append(SweepRow(count, name, rep))
    return SweepTable("exemplars", rows)


def cross_way_shot(
    snapshots,
    ways,
    shots,
    dataset: Dataset,
    n_episodes: int,
    seed: int,
    queries: int = 15,
    labels: list[str] | None = None,
) -> SweepTable:
    """Evaluate snapshots across a grid of episode shapes.

    Each snapshot embeds the dataset once and scores every cell from it.

    The `ranges` attribute holds max-min of the mean accuracy across the
    snapshots for every (way, shot) cell.
    """
    if isinstance(snapshots, ModelSnapshot):
        snapshots = [snapshots]
    if labels is None:
        labels = []
        for i, snap in enumerate(snapshots):
            label = snap.meta.method
            if label in labels:
                label = f"{label}{i}"
            labels.append(label)
    if len(labels) != len(snapshots):
        raise ValueError("need exactly one label per snapshot")
    rows = []
    means: dict[tuple[int, int], list[float]] = {}
    for label, snap in zip(labels, snapshots):
        z = embed_table(snap, dataset)
        for way in ways:
            for shot in shots:
                spec = EpisodeSpec(int(way), int(shot), queries)
                rep = evaluate(snap, dataset, spec, n_episodes, seed, z=z)
                rows.append(SweepRow((int(way), int(shot)), label, rep))
                means.setdefault((int(way), int(shot)), []).append(rep.mean_acc)
    ranges = {key: max(vals) - min(vals) for key, vals in means.items()}
    return SweepTable("way_shot", rows, ranges)
