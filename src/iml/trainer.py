"""Episodic training loops: base training, incremental updates, paragon.

All randomness is derived from the config seed through named sub-streams
(episode sampling, anchor subsets, exemplar episodes, validation), so a
run is a pure function of its config and inputs.  Training is plain Adam
with a reduce-on-plateau learning-rate schedule driven by validation
episode accuracy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .anchorstore import extract_anchors
from .autodiff import Array, Tape, Tensor
from .data import (
    Dataset, Episode, EpisodeSpec, draw_episode_rows, sample_anchor_subset,
    sample_episode, write_text_atomic,
)
from .losses import KL_ORDERS, AlignAux, MethodKind, incremental_objective, meta_xent_loss
from .model import (
    BackboneConfig,
    BoundParams,
    ModelSnapshot,
    ParamStore,
    SnapshotMeta,
    embed,
    freeze_snapshot,
    init_backbone,
    merge_anchor_sets,
    nearest_prototype_accuracy,
    score_episodes,
)

# Sub-stream tags hashed into every rng seed.
_EPISODE_STREAM = 101
_ANCHOR_STREAM = 102
_EXEMPLAR_STREAM = 103
_VAL_STREAM = 104


class TrainingDivergenceError(RuntimeError):
    """Loss or gradients stopped being finite."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    tasks_per_epoch: int = 100
    episode: EpisodeSpec = field(default_factory=lambda: EpisodeSpec(5, 5, 15))
    lam: float = 1.0
    lam_old: float | None = None
    lam_new: float | None = None
    temperature: float = 2.0
    lr: float = 1e-3
    lr_decay: float = 0.5
    patience: int = 3
    seed: int = 0
    val_episodes: int = 50
    exemplars_per_class: int = 15
    anchors_per_step: int | None = None
    kl_order: str = "student_first"
    backbone: BackboneConfig | None = None
    log_path: str | None = None

    def __post_init__(self):
        if self.epochs < 1 or self.tasks_per_epoch < 1:
            raise ValueError("epochs and tasks_per_epoch must be at least 1")
        for name, lam in (("lambda", self.lam), ("lambda_old", self.lam_old),
                          ("lambda_new", self.lam_new)):
            if lam is not None and lam < 0:
                raise ValueError(f"{name} must be non-negative, got {lam}")
        if self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if not 0 < self.lr_decay <= 1:
            raise ValueError(f"lr_decay must be in (0, 1], got {self.lr_decay}")
        if self.patience < 0:
            raise ValueError("patience must be non-negative")
        if self.val_episodes < 1:
            raise ValueError("val_episodes must be at least 1")
        if self.anchors_per_step is not None and self.anchors_per_step < 1:
            raise ValueError(f"anchors_per_step must be at least 1, got {self.anchors_per_step}")
        if self.kl_order not in KL_ORDERS:
            raise ValueError(f"kl_order must be one of {KL_ORDERS}, got {self.kl_order!r}")


@dataclass
class OptimState:
    """Adam moments plus the plateau-schedule bookkeeping.

    Each moment is one flat vector laid out like ``ParamStore.flat``.
    """

    m: Array
    v: Array
    step: int = 0
    lr: float = 1e-3
    best: float = -math.inf
    plateau: int = 0
    decays: int = 0


def init_optim(params: ParamStore, cfg: TrainConfig) -> OptimState:
    return OptimState(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat), lr=cfg.lr)


def adam_step(
    params: ParamStore,
    grads: list[Array],
    state: OptimState,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One bias-corrected Adam update, in place on the live parameters.

    Adam is elementwise, so one pass over ``params.flat`` and the flat
    moments is bitwise the per-array update.
    """
    arrays = params.arrays()
    if len(grads) != len(arrays):
        raise ValueError(f"got {len(grads)} gradients for {len(arrays)} parameter arrays")
    for a, g in zip(arrays, grads):
        if np.shape(g) != a.shape:
            raise ValueError(f"gradient of shape {np.shape(g)} for a {a.shape} parameter")
    g = np.concatenate([np.ravel(x) for x in grads])
    if not np.isfinite(g).all():
        raise TrainingDivergenceError(f"non-finite gradient at optimizer step {state.step + 1}")
    state.step += 1
    c1 = 1.0 - beta1 ** state.step
    c2 = 1.0 - beta2 ** state.step
    m, v = state.m, state.v
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * (g * g)
    params.flat -= state.lr * (m / c1) / (np.sqrt(v / c2) + eps)


def lr_schedule_update(state: OptimState, val_metric: float, cfg: TrainConfig) -> None:
    """Decay lr once the metric has failed to improve for more than `patience` epochs."""
    if val_metric > state.best:
        state.best = val_metric
        state.plateau = 0
        return
    state.plateau += 1
    if state.plateau > cfg.patience:
        state.lr *= cfg.lr_decay
        state.decays += 1
        state.plateau = 0


class _EpochLog:
    """CSV lines `epoch,split,loss,acc,lr`; overwrites any previous log.

    A `train` row's loss and acc are means over the epoch's steps, both
    taken from each step's forward pass, before its update: acc is the
    nearest-prototype accuracy of the distances the loss was computed
    from.  A `val` row scores the parameters at the end of the epoch.

    Every write replaces the whole file atomically, so the file on disk is
    always a complete log: the previous run's, or this run's up to its last
    row.
    """

    def __init__(self, path: str | None):
        self.path = Path(path) if path else None
        self.lines = ["epoch,split,loss,acc,lr\n"]
        if self.path:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            write_text_atomic(self.path, self.lines[0])

    def row(self, epoch: int, split: str, loss: float, acc: float, lr: float) -> None:
        if self.path:
            self.lines.append(f"{epoch},{split},{loss:.6f},{acc:.4f},{lr:.8g}\n")
            write_text_atomic(self.path, "".join(self.lines))


def _validate(
    params: ParamStore, val_ds: Dataset, cfg: TrainConfig, round_index: int, epoch: int
) -> tuple[float, float]:
    """Mean meta loss and accuracy over validation episodes, from one embedding of `val_ds`."""
    rng = np.random.default_rng([cfg.seed, _VAL_STREAM, round_index, epoch])
    picks = np.stack([draw_episode_rows(val_ds, cfg.episode, rng)[1]
                      for _ in range(cfg.val_episodes)])
    z = embed(params, val_ds.features).data
    accs, losses = score_episodes(z, picks, cfg.episode.shots, cfg.temperature)
    return float(np.mean(losses)), float(np.mean(accs))


def _episode_rows(table: Array, ep: Episode) -> Array:
    """Rows of a per-row table for ``ep.all_inputs()``: support rows, then query rows."""
    return table[np.concatenate((ep.support_rows, ep.query_rows))]


def _exemplar_episode_spec(cfg: TrainConfig, exemplar_ds: Dataset) -> EpisodeSpec:
    """Shrink the episode spec so it fits inside the retained exemplar rows."""
    avail = exemplar_ds.min_class_count()
    if avail < 2:
        raise ValueError("exemplar episodes need at least 2 rows per class")
    ways = min(cfg.episode.ways, exemplar_ds.n_classes)
    shots = max(1, min(cfg.episode.shots, avail - 1))
    queries = max(1, min(cfg.episode.queries, avail - shots))
    return EpisodeSpec(ways, shots, queries)


def _fit(
    params: ParamStore, train_ds: Dataset, val_ds: Dataset, cfg: TrainConfig,
    round_index: int, objective: Callable[[BoundParams, Episode], tuple[Tensor, Tensor]],
) -> None:
    """Adam on `objective(bound, episode)` over sampled tasks, in place on `params`.

    The objective returns the loss and the query-to-prototype distances it
    was computed from; the step's train accuracy is read off those.  Each
    epoch logs the mean train loss and accuracy, validates, and steps the
    lr schedule; `round_index` keys the episode and validation streams.
    """
    state = init_optim(params, cfg)
    epi_rng = np.random.default_rng([cfg.seed, _EPISODE_STREAM, round_index])
    log = _EpochLog(cfg.log_path)
    for epoch in range(cfg.epochs):
        ep_losses, ep_accs = [], []
        for task in range(cfg.tasks_per_epoch):
            ep = sample_episode(train_ds, cfg.episode, epi_rng)
            tape = Tape()
            bound = params.bind(tape)
            loss, sqdists = objective(bound, ep)
            value = float(loss)
            if not math.isfinite(value):
                raise TrainingDivergenceError(
                    f"non-finite loss {value} at epoch {epoch}, task {task}"
                )
            ep_losses.append(value)
            ep_accs.append(nearest_prototype_accuracy(sqdists.data, ep.query_y))
            grads = tape.backward(loss, bound.ids)
            adam_step(params, [grads[i] for i in bound.ids], state)
        log.row(epoch, "train", float(np.mean(ep_losses)), float(np.mean(ep_accs)), state.lr)
        val_loss, val_acc = _validate(params, val_ds, cfg, round_index, epoch)
        log.row(epoch, "val", val_loss, val_acc, state.lr)
        lr_schedule_update(state, val_acc, cfg)


def train_base(
    train_ds: Dataset,
    val_ds: Dataset,
    cfg: TrainConfig,
    method_tag: str = "base",
) -> ModelSnapshot:
    """Meta-train a fresh backbone on episodic tasks, then freeze it with anchors."""
    backbone = cfg.backbone or BackboneConfig(train_ds.dim)
    if backbone.input_dim != train_ds.dim:
        raise ValueError(
            f"backbone expects {backbone.input_dim}-dim inputs, data is {train_ds.dim}-dim"
        )
    params = init_backbone(backbone, cfg.seed)
    _fit(params, train_ds, val_ds, cfg, 0,
         lambda bound, ep: meta_xent_loss(bound, ep, cfg.temperature))
    anchors = extract_anchors(params, train_ds, round_tag=0)
    meta = SnapshotMeta(seed=cfg.seed, round_index=0, method=method_tag)
    return freeze_snapshot(backbone, params, anchors, meta)


def train_paragon(union_ds: Dataset, val_ds: Dataset, cfg: TrainConfig) -> ModelSnapshot:
    """Same recipe as base training, run on the union of old and new data."""
    return train_base(union_ds, val_ds, cfg, method_tag=MethodKind.PAR.value)


def train_incremental(
    old: ModelSnapshot,
    new_ds: Dataset,
    val_ds: Dataset,
    method: MethodKind | str,
    cfg: TrainConfig,
    exemplars: Dataset | None = None,
) -> ModelSnapshot:
    """Continue from a frozen teacher on new-class data with one method's objective.

    The returned snapshot carries the union of the teacher's anchors
    (bit-for-bit) and anchors freshly extracted from the new data.
    """
    method = MethodKind(method)
    if method in (MethodKind.NU, MethodKind.PAR):
        raise ValueError(
            f"{method.value} is not an incremental update: nu keeps the teacher, "
            "par retrains from scratch on the union"
        )
    if method is MethodKind.EIML and exemplars is None:
        raise ValueError("eiml needs reserved exemplars from the old data")
    if old.config.input_dim != new_ds.dim:
        raise ValueError(
            f"teacher expects {old.config.input_dim}-dim inputs, data is {new_ds.dim}-dim"
        )
    overlap = set(old.anchors.class_ids) & set(new_ds.classes)
    if overlap:
        raise ValueError(f"new data reuses already-anchored classes {sorted(overlap)}")

    round_index = old.meta.round_index + 1
    params = old.params.copy()
    anchor_rng = np.random.default_rng([cfg.seed, _ANCHOR_STREAM, round_index])
    ex_rng = np.random.default_rng([cfg.seed, _EXEMPLAR_STREAM, round_index])

    # eiml's unset weights fall back to lam, as in incremental_objective
    weights = (cfg.lam_old, cfg.lam_new) if method is MethodKind.EIML else (cfg.lam,)
    need_align = method is not MethodKind.FT and any(
        (cfg.lam if w is None else w) != 0.0 for w in weights
    )
    k = cfg.anchors_per_step or min(cfg.episode.ways, len(old.anchors))
    if need_align and method is MethodKind.IDA and k > len(old.anchors):
        raise ValueError(
            f"anchors_per_step is {k} but the teacher stores only {len(old.anchors)} anchors"
        )
    use_exemplars = method is MethodKind.EIML and need_align
    exemplar_spec = _exemplar_episode_spec(cfg, exemplars) if use_exemplars else None
    # The teacher is frozen, so its embedding of a row never changes: embed
    # each table once per round and gather every step's rows from it.
    teacher_z = embed(old.params, new_ds.features).data if need_align else None
    exemplar_teacher_z = embed(old.params, exemplars.features).data if use_exemplars else None

    def objective(bound, ep):
        aux = AlignAux()
        if need_align:
            teacher = _episode_rows(teacher_z, ep)
            if method is MethodKind.IDA:
                aux = AlignAux(anchors=sample_anchor_subset(old.anchors, k, anchor_rng),
                               teacher_z=teacher)
            elif method is MethodKind.EIML:
                ex = sample_episode(exemplars, exemplar_spec, ex_rng)
                aux = AlignAux(exemplar_episode=ex, teacher_z=teacher,
                               exemplar_teacher_z=_episode_rows(exemplar_teacher_z, ex))
            else:
                aux = AlignAux(teacher_z=teacher)
        br = incremental_objective(
            method, old, bound, ep, aux,
            cfg.lam, cfg.temperature, cfg.kl_order, cfg.lam_old, cfg.lam_new,
        )
        return br.total, br.sqdists

    _fit(params, new_ds, val_ds, cfg, round_index, objective)
    new_anchors = extract_anchors(params, new_ds, round_tag=round_index)
    anchors = merge_anchor_sets(old.anchors, new_anchors)
    meta = SnapshotMeta(seed=cfg.seed, round_index=round_index, method=method.value)
    return freeze_snapshot(old.config, params, anchors, meta)


def run_rounds(
    base: ModelSnapshot,
    round_datasets: list[Dataset],
    method: MethodKind | str,
    cfg: TrainConfig,
    round_vals: list[Dataset] | None = None,
) -> list[ModelSnapshot]:
    """Chain incremental updates; each round's snapshot teaches the next.

    Without explicit validation sets a round validates on its own data
    (fresh episodes, metric only steers the lr schedule).
    """
    if not round_datasets:
        raise ValueError("need at least one round dataset")
    if round_vals is not None and len(round_vals) != len(round_datasets):
        raise ValueError("need one validation dataset per round")
    snapshots: list[ModelSnapshot] = []
    teacher = base
    for i, ds in enumerate(round_datasets):
        val = round_vals[i] if round_vals is not None else ds
        snap = train_incremental(teacher, ds, val, method, cfg)
        snapshots.append(snap)
        teacher = snap
    return snapshots
