"""Datasets, synthetic two-domain generation, and episodic sampling.

A dataset is a flat (features, labels) table indexed by class.  Episodes
are K-way N-shot tasks with Q query points per class, sampled without
replacement.  The synthetic generator draws class centers uniformly in
[-1, 1]^dim and shifts the second domain's centers by a fixed offset
vector, with isotropic Gaussian samples around each center.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import Array

# Independent sub-streams of the dataset seed.
_CENTER_STREAM = 11
_SAMPLE_STREAM = 12


class DatasetFormatError(ValueError):
    """Raised when a dataset file cannot be parsed."""


@dataclass
class Dataset:
    features: Array
    labels: Array
    split_name: str = ""
    class_index: dict[int, Array] = field(init=False, repr=False)
    class_ids: Array = field(init=False, repr=False)  # sorted, int64
    # eval_episode_rows' draws, keyed by (spec, n, seed)
    _eval_rows: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {self.features.shape}")
        if self.labels.ndim != 1 or self.labels.shape[0] != self.features.shape[0]:
            raise ValueError("need exactly one label per feature row")
        self.class_ids = np.unique(self.labels)
        self.class_index = {int(c): np.flatnonzero(self.labels == c) for c in self.class_ids}

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def classes(self) -> tuple[int, ...]:
        return tuple(self.class_ids.tolist())

    @property
    def n_classes(self) -> int:
        return len(self.class_index)

    def min_class_count(self) -> int:
        return min((idx.size for idx in self.class_index.values()), default=0)

    def subset_classes(self, class_ids, split_name: str | None = None) -> "Dataset":
        wanted = sorted(int(c) for c in class_ids)
        missing = [c for c in wanted if c not in self.class_index]
        if missing:
            raise ValueError(f"dataset has no classes {missing}")
        rows = np.concatenate([self.class_index[c] for c in wanted]) if wanted else \
            np.empty(0, dtype=np.int64)
        return Dataset(
            self.features[rows],
            self.labels[rows],
            self.split_name if split_name is None else split_name,
        )


def concat_datasets(a: Dataset, b: Dataset, split_name: str) -> Dataset:
    """Row-wise union of two class-disjoint datasets."""
    overlap = set(a.classes) & set(b.classes)
    if overlap:
        raise ValueError(f"datasets share classes {sorted(overlap)}")
    if a.dim != b.dim:
        raise ValueError(f"feature dims differ: {a.dim} vs {b.dim}")
    return Dataset(
        np.vstack([a.features, b.features]),
        np.concatenate([a.labels, b.labels]),
        split_name,
    )


@dataclass(frozen=True)
class EpisodeSpec:
    """K-way N-shot with Q query points per class."""

    ways: int
    shots: int
    queries: int

    def __post_init__(self):
        if self.ways < 2:
            raise ValueError("an episode needs at least 2 ways to pose a task")
        if self.shots < 1 or self.queries < 1:
            raise ValueError("shots and queries must be at least 1")


@dataclass(frozen=True)
class Episode:
    """One sampled task; labels are local 0..K-1, class_map holds global ids.

    `support_rows` and `query_rows` are the dataset rows the inputs were
    drawn from, so a table of per-row embeddings can be gathered instead of
    re-embedding the inputs; hand-built episodes leave them unset.
    """

    support_x: Array
    support_y: Array
    query_x: Array
    query_y: Array
    class_map: tuple[int, ...]
    support_rows: Array | None = None
    query_rows: Array | None = None

    @property
    def n_ways(self) -> int:
        return len(self.class_map)

    def all_inputs(self) -> Array:
        return np.vstack([self.support_x, self.query_x])


@dataclass(frozen=True)
class SyntheticSpec:
    """Two domains of `classes_per_domain` Gaussian clusters each.

    Class ids [0, C) are the first domain; [C, 2C) are the second, whose
    centers carry the extra `domain_offset`.
    """

    classes_per_domain: int
    dim: int
    cluster_std: float
    domain_offset: tuple[float, ...]
    samples_per_class: int
    seed: int

    def __post_init__(self):
        object.__setattr__(
            self, "domain_offset", tuple(float(v) for v in self.domain_offset)
        )
        if self.classes_per_domain < 1:
            raise ValueError("need at least one class per domain")
        if self.dim < 1 or len(self.domain_offset) != self.dim:
            raise ValueError("domain_offset length must equal dim")
        if self.cluster_std < 0:
            raise ValueError("cluster_std must be non-negative")
        if self.samples_per_class < 1:
            raise ValueError("samples_per_class must be at least 1")

    @property
    def n_classes(self) -> int:
        return 2 * self.classes_per_domain


def uniform_offset(magnitude: float, dim: int) -> tuple[float, ...]:
    """Offset vector of L2 length `magnitude` spread evenly over all coordinates."""
    return (magnitude / math.sqrt(dim),) * dim


def class_centers(spec: SyntheticSpec) -> Array:
    """True cluster centers, depending only on spec.seed."""
    rng = np.random.default_rng([spec.seed, _CENTER_STREAM])
    centers = rng.uniform(-1.0, 1.0, size=(spec.n_classes, spec.dim))
    centers[spec.classes_per_domain:] += np.asarray(spec.domain_offset)
    return centers


def gen_synthetic(
    spec: SyntheticSpec, sample_seed: int = 0, split_name: str = "synthetic"
) -> Dataset:
    """Draw samples_per_class points around every center.

    `sample_seed` varies the draw while keeping the centers fixed, which is
    how train/val/test tables of the same world are produced.
    """
    centers = class_centers(spec)
    rng = np.random.default_rng([spec.seed, _SAMPLE_STREAM, sample_seed])
    n, d = spec.samples_per_class, spec.dim
    noise = rng.standard_normal((spec.n_classes, n, d)) * spec.cluster_std
    features = (centers[:, None, :] + noise).reshape(spec.n_classes * n, d)
    labels = np.repeat(np.arange(spec.n_classes, dtype=np.int64), n)
    return Dataset(features, labels, split_name)


def write_text_atomic(path, text: str) -> None:
    """Write through a temp file and a rename, so a crash never leaves a half-written file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_dataset(dataset: Dataset, path) -> None:
    """Write `label,f0,f1,...` rows; float repr so a round trip is bit-exact."""
    lines = ["label," + ",".join(f"f{i}" for i in range(dataset.dim))]
    for row, lab in zip(dataset.features, dataset.labels):
        lines.append(str(int(lab)) + "," + ",".join(repr(float(v)) for v in row))
    write_text_atomic(path, "\n".join(lines) + "\n")


def load_dataset(path, split_name: str | None = None) -> Dataset:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise DatasetFormatError(f"{path}: {e}") from e
    lines = [ln for ln in text.splitlines()]
    if not lines or not lines[0].startswith("label"):
        raise DatasetFormatError(f"{path}: line 1: expected a 'label,f0,...' header")
    width = len(lines[0].split(","))
    if width < 2:
        raise DatasetFormatError(f"{path}: line 1: header has no feature columns")
    features, labels, line_nos = [], [], []
    for no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise DatasetFormatError(
                f"{path}: line {no}: expected {width} fields, found {len(parts)}"
            )
        try:
            labels.append(int(parts[0]))
            features.append([float(v) for v in parts[1:]])
        except ValueError as e:
            raise DatasetFormatError(f"{path}: line {no}: {e}") from e
        line_nos.append(no)
    if not features:
        raise DatasetFormatError(f"{path}: no data rows")
    features = np.asarray(features)
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad.size:
        raise DatasetFormatError(
            f"{path}: line {line_nos[bad[0]]}: non-finite feature value"
        )
    return Dataset(features, np.asarray(labels), split_name or path.stem)


def draw_episode_rows(
    dataset: Dataset, spec: EpisodeSpec, rng: np.random.Generator
) -> tuple[Array, Array]:
    """Draw ways classes, then shots+queries rows per class, all without replacement.

    Returns the class ids and a (ways, shots + queries) array of row
    indices: class k's support rows, then its query rows, in row k.
    """
    classes = dataset.class_ids
    if classes.size < spec.ways:
        raise ValueError(
            f"dataset '{dataset.split_name}' has {classes.size} classes; "
            f"episode needs {spec.ways}"
        )
    chosen = rng.choice(classes, size=spec.ways, replace=False)
    need = spec.shots + spec.queries
    picks = np.empty((spec.ways, need), dtype=np.int64)
    for k, cid in enumerate(chosen.tolist()):
        rows = dataset.class_index[cid]
        if rows.size < need:
            raise ValueError(f"class {cid} has {rows.size} rows; episode needs {need}")
        picks[k] = rng.choice(rows, size=need, replace=False)
    return chosen, picks


def eval_episode_rows(dataset: Dataset, spec: EpisodeSpec, n: int, seed: int) -> Array:
    """The (n, ways, shots + queries) rows of evaluation episodes 0..n-1.

    Episode i is `draw_episode_rows`' draw from the generator seeded by
    (seed, i), so it depends on the table, spec, n and seed alone.  The
    array is drawn once per table and key, stored read-only, and shared by
    every later call.
    """
    key = (spec, n, seed)
    picks = dataset._eval_rows.get(key)
    if picks is None:
        picks = np.empty((n, spec.ways, spec.shots + spec.queries), dtype=np.int64)
        for i in range(n):
            picks[i] = draw_episode_rows(dataset, spec, np.random.default_rng([seed, i]))[1]
        picks.flags.writeable = False
        dataset._eval_rows[key] = picks
    return picks


def sample_episode(dataset: Dataset, spec: EpisodeSpec, rng: np.random.Generator) -> Episode:
    """`draw_episode_rows`' draw, with the drawn inputs and local labels gathered."""
    chosen, picks = draw_episode_rows(dataset, spec, rng)
    support_rows = picks[:, :spec.shots].ravel()
    query_rows = picks[:, spec.shots:].ravel()
    local = np.arange(spec.ways, dtype=np.int64)
    return Episode(
        dataset.features[support_rows], np.repeat(local, spec.shots),
        dataset.features[query_rows], np.repeat(local, spec.queries),
        tuple(chosen.tolist()), support_rows, query_rows,
    )


def sample_anchor_subset(anchors, k: int, rng: np.random.Generator):
    """Uniform subset of k stored anchors, without replacement."""
    if k < 1:
        raise ValueError("anchor subset must contain at least one anchor")
    if k > len(anchors):
        raise ValueError(f"asked for {k} anchors but only {len(anchors)} are stored")
    idx = np.sort(rng.choice(len(anchors), size=k, replace=False))
    return anchors.restrict([anchors.class_ids[i] for i in idx])


def reserve_exemplars(dataset: Dataset, per_class: int, rng: np.random.Generator) -> Dataset:
    """The ``exemplars`` split: up to per_class rows of every class, in drawn order."""
    if per_class < 1:
        raise ValueError("per_class must be at least 1")
    rows = np.concatenate([
        rng.choice(idx, size=min(per_class, idx.size), replace=False)
        for idx in dataset.class_index.values()  # built in sorted class order
    ])
    return Dataset(dataset.features[rows], dataset.labels[rows], "exemplars")
