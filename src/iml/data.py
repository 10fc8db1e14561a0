"""Datasets, synthetic two-domain generation, and episodic sampling.

A dataset is a flat (features, labels) table indexed by class.  Episodes
are K-way N-shot tasks with Q query points per class, sampled without
replacement.  The synthetic generator draws class centers uniformly in
[-1, 1]^dim and shifts the second domain's centers by a fixed offset
vector, with isotropic Gaussian samples around each center.
"""
from __future__ import annotations

import hashlib
import io
import math
import os
import re
import warnings
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Iterable

import numpy as np

from .autodiff import Array

# Independent sub-streams of the dataset seed.
_CENTER_STREAM = 11
_SAMPLE_STREAM = 12

# Bytes of draws and replay temporaries per `draw_episodes` chunk; 1 MiB drew no faster.
DRAW_CHUNK_BYTES = 1 << 19


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

    `inputs` holds the support rows, then the query rows: the layout
    `autodiff.proto_sqdist` reads.  `rows` are the dataset rows they were
    gathered from, so a table of per-row embeddings can be gathered instead
    of re-embedding them; hand-built episodes leave it unset.
    """

    inputs: Array
    support_y: Array
    query_y: Array
    class_map: tuple[int, ...]
    rows: Array | None = None

    @property
    def n_ways(self) -> int:
        return len(self.class_map)


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


def gen_synthetic(spec: SyntheticSpec, sample_seed: int = 0) -> Dataset:
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
    return Dataset(features, labels, "synthetic")


def write_text_atomic(path, text: str) -> None:
    """Write through a temp file and a rename, so a crash never leaves a half-written file."""
    _write_atomic(path, lambda tmp: tmp.write_text(text))


def _write_atomic(path, write) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _copy_path(path) -> Path:
    return Path(f"{path}.bin")


def save_dataset(dataset: Dataset, path) -> None:
    """Write `label,f0,f1,...` rows; float repr so a round trip is bit-exact.

    Unless the parse would reject the table, then write a copy for
    `load_dataset`: the CSV's sha256, then `np.save` of labels and features.
    """
    lines = ["label," + ",".join(f"f{i}" for i in range(dataset.dim))]
    lines += [
        f"{lab}," + ",".join(map(repr, row))
        for lab, row in zip(dataset.labels.tolist(), dataset.features.tolist())
    ]
    text = "\n".join(lines) + "\n"
    write_text_atomic(path, text)
    if len(dataset) and dataset.dim and np.isfinite(dataset.features).all():
        buf = io.BytesIO()
        buf.write(hashlib.sha256(text.encode()).digest())
        np.save(buf, dataset.labels)
        np.save(buf, dataset.features)
        _write_atomic(_copy_path(path), lambda tmp: tmp.write_bytes(buf.getvalue()))


def remove_dataset(path) -> None:
    """Delete a table and its binary copy; one that is not there is no error."""
    path = Path(path)
    path.unlink(missing_ok=True)
    _copy_path(path).unlink(missing_ok=True)


def _read_npy(f, dtype) -> Array:
    """The next array `np.save` wrote to `f`, read into one buffer of its own.

    Anything but a C-order version 1.0 array of `dtype` with all its bytes
    present is an error, so the caller parses the CSV instead.
    """
    if np.lib.format.read_magic(f) != (1, 0):
        raise ValueError("not a version 1.0 .npy array")
    shape, fortran_order, stored = np.lib.format.read_array_header_1_0(f)
    if fortran_order or stored != dtype:
        raise ValueError(f"copy holds {stored} in {'F' if fortran_order else 'C'} order")
    out = np.empty(shape, dtype)
    if f.readinto(out.data) != out.nbytes:
        raise EOFError("copy ends inside an array")
    return out


def load_dataset(path, split_name: str | None = None) -> Dataset:
    """Read a `label,f0,f1,...` table: a decimal-integer label, then finite floats.

    The header's first field is exactly `label`.  Whitespace-only lines are
    skipped; there are no comments and no quotes.  numpy's C reader parses
    every row in one call.  Only when it rejects the table does `_row_error`
    go through the rows one by one, to name the first bad line.  The binary
    copy `save_dataset` writes is read instead while it matches these bytes.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as e:
        raise DatasetFormatError(f"{path}: {e}") from e
    try:  # opening the copy comes first, so a table with none costs no hash
        with open(_copy_path(path), "rb") as f:
            if f.read(32) == hashlib.sha256(raw).digest():
                labels = _read_npy(f, np.int64)
                return Dataset(_read_npy(f, np.float64), labels, split_name or path.stem)
    except (OSError, ValueError, EOFError):
        pass  # no copy, or a truncated or unreadable one: parse the CSV
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        # the bytes before the bad one are valid; the "x" counts the line it is on
        no = len((raw[:e.start].decode("utf-8") + "x").splitlines())
        raise DatasetFormatError(
            f"{path}: line {no}: byte 0x{raw[e.start]:02x} is not UTF-8 text"
        ) from e
    lines = text.splitlines()
    header = lines[0].split(",") if lines else [""]
    if header[0] != "label":
        raise DatasetFormatError(f"{path}: line 1: expected a 'label,f0,...' header")
    width = len(header)
    if width < 2:
        raise DatasetFormatError(f"{path}: line 1: header has no feature columns")
    rows = list(filter(str.strip, lines[1:]))
    if not rows:
        raise DatasetFormatError(f"{path}: no data rows")
    dtype = np.dtype([("label", np.int64), ("features", np.float64, (width - 1,))])
    try:
        with warnings.catch_warnings():
            # numpy from 1.23 until that deprecation expired parses an integer
            # field through float with a DeprecationWarning; raised as an
            # error, it keeps `3.0` a bad label.
            warnings.simplefilter("error", DeprecationWarning)
            table = np.loadtxt(rows, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except (ValueError, DeprecationWarning) as e:
        raise _row_error(path, lines, width) or DatasetFormatError(f"{path}: {e}") from e
    features = table["features"].copy()
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad.size:
        no = list(_numbered_rows(lines))[bad[0]][0]
        raise DatasetFormatError(f"{path}: line {no}: non-finite feature value")
    return Dataset(features, table["label"].copy(), split_name or path.stem)


# The field grammar of numpy's reader: ASCII digits, no underscores.
_LABEL = re.compile(r"[+-]?[0-9]+")
_FEATURE = re.compile(
    r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf(?:inity)?|nan)", re.I
)


def _numbered_rows(lines):
    """(file line number, line) of every non-blank line after the header."""
    return ((no, ln) for no, ln in enumerate(lines[1:], start=2) if ln.strip())


def _row_error(path: Path, lines, width: int) -> DatasetFormatError | None:
    """Name the first row numpy's reader rejects, by the checks it makes.

    A row has `width` fields.  Its label is a signed decimal inside int64
    and its features match `_FEATURE`; any field may be padded with
    whitespace.
    """
    for no, line in _numbered_rows(lines):
        parts = line.split(",")
        if len(parts) != width:
            return DatasetFormatError(
                f"{path}: line {no}: expected {width} fields, found {len(parts)}"
            )
        label = parts[0].strip()
        if not (_LABEL.fullmatch(label) and -2**63 <= int(label) < 2**63):
            return DatasetFormatError(f"{path}: line {no}: bad label {parts[0]!r}")
        for v in parts[1:]:
            if not _FEATURE.fullmatch(v.strip()):
                return DatasetFormatError(f"{path}: line {no}: bad feature value {v!r}")
    return None


def draw_episodes(
    dataset: Dataset, spec: EpisodeSpec, rngs: Iterable[np.random.Generator]
) -> tuple[Array, Array]:
    """Class ids (n, ways) and rows (n, ways, shots + queries) of an episode per generator.

    Episode i is generator i's `choice` of ways classes, then its `choice`
    of shots + queries rows of each (support rows first), all without
    replacement, bit for bit; it leaves the generator in their state: pass
    one generator n times for its next n.
    """
    ways, need = spec.ways, spec.shots + spec.queries
    if dataset.n_classes < ways:
        raise ValueError(f"dataset '{dataset.split_name}' has {dataset.n_classes} classes; "
                         f"episode needs {ways}")
    counts = np.array([idx.size for idx in dataset.class_index.values()])
    rows, starts = np.concatenate(list(dataset.class_index.values())), np.cumsum(counts) - counts
    # An episode is a class choice, then one `integers` call of every draw its row
    # choices make; row k bounds those of `choice(counts[k], need)`.  Floyd's branch
    # draws in [0, count - need + t] for t < need, then in [0, i] for i = need - 1
    # ... 1; the tail branch in [0, i] for i = count - 1 ... count - need.  A bound
    # of 0 draws nothing: it pads shorter rows, and empties a class too small.
    t, n = np.arange(2 * need - 1), counts[:, None]
    bounds = (n >= need) * np.where(
        (n <= 10000) | (need <= n // 50), np.where(t < need, n - need + t, 2 * need - 1 - t),
        np.where(t < need, n - 1 - t, 0))
    rngs, chosen = iter(rngs), [np.empty((0, ways), dtype=np.int64)]
    picks = [np.empty((0, ways, need), dtype=np.int64)]
    while batch := list(islice(rngs, max(1, DRAW_CHUNK_BYTES // (60 * ways * need)))):
        pos, draws = np.empty((len(batch), ways), dtype=np.int64), []
        for i, rng in enumerate(batch):
            pos[i] = rng.choice(len(counts), size=ways, replace=False)
            draws.append(rng.integers(0, bounds[pos[i]], endpoint=True))
        if (short := counts[pos] < need).any():
            c = pos.flat[short.argmax()]
            raise ValueError(f"class {dataset.class_ids[c]} has {counts[c]} rows; "
                             f"episode needs {need}")
        local = _replay_choice(np.concatenate(draws), counts[pos].ravel(), need)
        chosen.append(dataset.class_ids[pos])
        picks.append(rows[starts[pos][..., None] + local.reshape(*pos.shape, need)])
    return np.concatenate(chosen), np.concatenate(picks)


def _replay_choice(draws: Array, pop: Array, size: int) -> Array:
    """Row k: `Generator.choice(pop[k], size, replace=False)`, replayed from row k of `draws`.

    numpy's algorithm, each step made for all rows at once (held transposed).
    Floyd's step t keeps its draw unless an earlier step kept that value, and
    then keeps pop - size + t; a Fisher-Yates shuffle follows.
    """
    picked, every = draws[:, :size].T.copy(), np.arange(len(pop))
    for t in range(1, size):  # row t holds step t's draw until the step replaces it
        picked[t] = np.where((picked[:t] == picked[t]).any(axis=0), pop - size + t, picked[t])
    for i, x in zip(range(size - 1, 0, -1), draws[:, size:].T):
        top = picked[i].copy()  # swap entry i of each column with its entry x
        picked[i] = picked[x, every]
        picked[x, every] = top
    for k in np.flatnonzero((pop > 10000) & (size > pop // 50)):  # the tail branch
        perm = list(range(pop[k]))
        for i, x in zip(range(pop[k] - 1, pop[k] - size - 1, -1), draws[k].tolist()):
            perm[i], perm[x] = perm[x], perm[i]
        picked[:, k] = perm[-size:]
    return picked.T


def eval_episode_rows(dataset: Dataset, spec: EpisodeSpec, n: int, seed: int) -> Array:
    """The (n, ways, shots + queries) rows of evaluation episodes 0..n-1.

    Episode i is `draw_episodes`' draw from the generator seeded by
    (seed, i), so it depends on the table, spec, n and seed alone.  The
    array is drawn once per table and key, stored read-only, and shared by
    every later call.
    """
    key = (spec, n, seed)
    picks = dataset._eval_rows.get(key)
    if picks is None:
        rngs = (np.random.default_rng([seed, i]) for i in range(n))
        picks = draw_episodes(dataset, spec, rngs)[1]
        picks.flags.writeable = False
        dataset._eval_rows[key] = picks
    return picks


def gather_episode(dataset: Dataset, spec: EpisodeSpec, chosen: Array, picks: Array) -> Episode:
    """The episode of one draw: its inputs, support rows first, and local labels."""
    rows = np.concatenate((picks[:, :spec.shots].ravel(), picks[:, spec.shots:].ravel()))
    local = np.arange(spec.ways, dtype=np.int64)
    return Episode(dataset.features[rows], np.repeat(local, spec.shots),
                   np.repeat(local, spec.queries), tuple(chosen.tolist()), rows)


def sample_episode(dataset: Dataset, spec: EpisodeSpec, rng: np.random.Generator) -> Episode:
    """One episode of `draw_episodes` from ``rng``, with its inputs and local labels gathered."""
    chosen, picks = draw_episodes(dataset, spec, [rng])
    return gather_episode(dataset, spec, chosen[0], picks[0])


def sample_anchor_subset(n: int, k: int, rng: np.random.Generator) -> Array:
    """Sorted rows of a uniform draw of k of n stored anchors, without replacement."""
    if k < 1:
        raise ValueError("anchor subset must contain at least one anchor")
    if k > n:
        raise ValueError(f"asked for {k} anchors but only {n} are stored")
    return np.sort(rng.choice(n, size=k, replace=False))


def reserve_exemplars(dataset: Dataset, per_class: int, rng: np.random.Generator) -> Dataset:
    """The ``exemplars`` split: up to per_class rows of every class, in drawn order."""
    if per_class < 1:
        raise ValueError("per_class must be at least 1")
    rows = np.concatenate([
        rng.choice(idx, size=min(per_class, idx.size), replace=False)
        for idx in dataset.class_index.values()  # built in sorted class order
    ])
    return Dataset(dataset.features[rows], dataset.labels[rows], "exemplars")
