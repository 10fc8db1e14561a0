"""Embedding backbone, parameter store, class anchors, and frozen snapshots.

The backbone is a plain MLP with relu between layers and a linear final
layer, so embeddings live in all of R^F.  Classification is metric-based:
a query point is scored against class centers by (negative) squared
Euclidean distance, optionally tempered into a posterior.
"""
from __future__ import annotations

import copy
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Array, Tape, Tensor

# Bytes of query-minus-prototype differences `score_episodes` holds at once;
# the kernel is memory-bound, and larger chunks measured slower at 20-way.
SCORE_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class BackboneConfig:
    """MLP layout: input_dim -> hidden_dims... -> embed_dim."""

    input_dim: int
    hidden_dims: tuple[int, ...] = (32,)
    embed_dim: int = 16

    def __post_init__(self):
        dims = (self.input_dim, *self.hidden_dims, self.embed_dim)
        if any(int(d) <= 0 for d in dims):
            raise ValueError(f"backbone dims must be positive, got {dims}")
        object.__setattr__(self, "hidden_dims", tuple(int(d) for d in self.hidden_dims))

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_dims, self.embed_dim)


def flat_views(arrays: list[Array]) -> tuple[Array, list[Array]]:
    """Copy `arrays` into one new float64 vector; return it and a view of it per array."""
    flat = np.concatenate([np.ravel(a) for a in arrays]) if arrays else np.zeros(0)
    views, start = [], 0
    for a in arrays:
        views.append(flat[start:start + a.size].reshape(a.shape))
        start += a.size
    return flat, views


class ParamStore:
    """Weight/bias arrays for one backbone; the live copy a trainer mutates.

    All parameters live in one float64 vector, ``flat``, in the order of
    :meth:`arrays`; ``weights`` and ``biases`` are views into it.  The
    constructor copies its inputs.
    """

    def __init__(self, weights: list[Array], biases: list[Array]):
        if len(weights) != len(biases) or not weights:
            raise ValueError("need one bias per weight matrix and at least one layer")
        weights = [np.asarray(w, dtype=np.float64) for w in weights]
        biases = [np.asarray(b, dtype=np.float64) for b in biases]
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.ndim != 2 or b.ndim != 1 or b.shape[0] != w.shape[1]:
                raise ValueError(f"layer {i}: weight {w.shape} and bias {b.shape} disagree")
            if i and weights[i - 1].shape[1] != w.shape[0]:
                raise ValueError(f"layer {i}: fan-in does not match previous fan-out")
        self.flat, self._arrays = flat_views([a for wb in zip(weights, biases) for a in wb])
        self.weights = self._arrays[0::2]
        self.biases = self._arrays[1::2]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def arrays(self) -> list[Array]:
        """All parameter arrays in fixed order: W0, b0, W1, b1, ..."""
        return list(self._arrays)

    def n_params(self) -> int:
        return self.flat.size

    def copy(self) -> "ParamStore":
        return ParamStore(self.weights, self.biases)

    def bind(self, tape: Tape) -> "BoundParams":
        """Register every array as a tape leaf for one differentiable step."""
        return BoundParams([tape.leaf(a) for a in self.arrays()])


@dataclass
class BoundParams:
    """Tape-bound view of a ParamStore for a single forward/backward pass."""

    tensors: list[Tensor]

    @property
    def ids(self) -> list[int]:
        return [t.node for t in self.tensors]

    @property
    def n_layers(self) -> int:
        return len(self.tensors) // 2

    def layer(self, i: int) -> tuple[Tensor, Tensor]:
        return self.tensors[2 * i], self.tensors[2 * i + 1]


def init_backbone(config: BackboneConfig, seed: int) -> ParamStore:
    """He-style init: W ~ U(-a, a) with a = sqrt(6/fan_in) (variance 2/fan_in), zero biases."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    dims = config.dims
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = math.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return ParamStore(weights, biases)


def _layer(params: ParamStore | BoundParams, i: int) -> tuple[Tensor, Tensor]:
    if isinstance(params, BoundParams):
        return params.layer(i)
    return ad.constant(params.weights[i]), ad.constant(params.biases[i])


def embed(params: ParamStore | BoundParams, x) -> Tensor:
    """Map a batch of input rows through the backbone; relu between layers only."""
    t = ad.as_tensor(x)
    if t.data.ndim != 2:
        raise ValueError(f"embed expects a 2-D batch, got shape {t.data.shape}")
    n = params.n_layers
    for i in range(n):
        w, b = _layer(params, i)
        t = ad.linear(t, w, b, relu=i < n - 1)
    return t


@dataclass(frozen=True)
class AnchorSet:
    """Stored class centers in embedding space, tagged by the round that made them."""

    class_ids: tuple[int, ...]
    centers: Array
    round_tag: int = 0

    def __post_init__(self):
        object.__setattr__(self, "class_ids", tuple(int(c) for c in self.class_ids))
        object.__setattr__(self, "centers", np.asarray(self.centers, dtype=np.float64))
        if self.centers.ndim != 2 or self.centers.shape[0] != len(self.class_ids):
            raise ValueError("anchor centers must be one row per class id")
        if len(set(self.class_ids)) != len(self.class_ids):
            raise ValueError("anchor class ids must be unique")

    def __len__(self) -> int:
        return len(self.class_ids)

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    def restrict(self, class_ids) -> "AnchorSet":
        """Sub-anchor-set for the given class ids, in the given order."""
        pos = {c: i for i, c in enumerate(self.class_ids)}
        wanted = [int(c) for c in class_ids]
        missing = [c for c in wanted if c not in pos]
        if missing:
            raise ValueError(f"classes {missing} have no stored anchors")
        idx = [pos[c] for c in wanted]
        return AnchorSet(tuple(wanted), self.centers[idx].copy(), self.round_tag)


def merge_anchor_sets(old: AnchorSet, new: AnchorSet) -> AnchorSet:
    """Union of two anchor sets; class ids must be disjoint, old rows kept bit-for-bit."""
    overlap = set(old.class_ids) & set(new.class_ids)
    if overlap:
        raise ValueError(f"anchor sets overlap on classes {sorted(overlap)}")
    return AnchorSet(
        old.class_ids + new.class_ids,
        np.vstack([old.centers, new.centers]),
        new.round_tag,
    )


def discriminant(z, anchors, temperature: float) -> Tensor:
    """Posterior over anchors: softmax over -||z - c_k||^2 / T, row-wise."""
    centers = anchors.centers if isinstance(anchors, AnchorSet) else anchors
    d = ad.pairwise_sqdist(ad.as_tensor(z), ad.as_tensor(centers))
    return ad.softmax_rows(ad.scale(d, -1.0), temperature)


@dataclass(frozen=True)
class SnapshotMeta:
    seed: int
    round_index: int
    method: str


@dataclass(frozen=True)
class ModelSnapshot:
    """Frozen (config, params, anchors, meta); the teacher side of alignment."""

    config: BackboneConfig
    params: ParamStore
    anchors: AnchorSet
    meta: SnapshotMeta


def freeze_snapshot(
    config: BackboneConfig, params: ParamStore, anchors: AnchorSet, meta: SnapshotMeta
) -> ModelSnapshot:
    """Deep-copy everything so later training cannot mutate the snapshot."""
    got = tuple([params.weights[0].shape[0]] + [w.shape[1] for w in params.weights])
    if got != config.dims:
        raise ValueError(f"params with dims {got} do not fit backbone dims {config.dims}")
    if len(anchors) and anchors.dim != config.embed_dim:
        raise ValueError(
            f"anchor width {anchors.dim} does not match embed_dim {config.embed_dim}"
        )
    return ModelSnapshot(
        config,
        params.copy(),
        AnchorSet(anchors.class_ids, anchors.centers.copy(), anchors.round_tag),
        copy.deepcopy(meta),
    )


def prototype_sqdists(zs: Array, zq: Array, episode) -> Array:
    """Squared distances from query embeddings to the episode's support prototypes.

    Off the tape, for scoring, through the kernel of the training loss's
    `autodiff.proto_sqdist`.  Every class needs the same number of support
    rows, the layout `sample_episode` draws.
    """
    labels = np.asarray(episode.support_y)
    counts = np.bincount(labels, minlength=episode.n_ways)
    if counts.size != episode.n_ways or counts.min() < 1 or counts.max() != counts.min():
        raise ValueError(
            f"support needs equally many rows for each of {episode.n_ways} classes, "
            f"got counts {counts.tolist()}"
        )
    support = zs[np.argsort(labels, kind="stable")].reshape(1, counts.size, -1, zs.shape[1])
    return ad.prototype_distances(support, zq[None])[0]


def nearest_prototype_accuracy(d: Array, query_y) -> float:
    """Fraction of rows of `d` whose smallest distance is at the true label.

    Ties in distance resolve to the lowest class index (argmin order).
    """
    return float((d.argmin(axis=1) == query_y).mean())


def score_episode(params: ParamStore, episode) -> float:
    """Fraction of query points whose nearest support prototype has the right label."""
    z = embed(params, episode.all_inputs()).data
    n = len(episode.support_x)
    return nearest_prototype_accuracy(
        prototype_sqdists(z[:n], z[n:], episode), episode.query_y
    )


def score_episodes(
    z: Array,
    picks: Array,
    shots: int,
    temperature: float | None = None,
    workers: int = 1,
) -> tuple[Array, Array | None]:
    """Per-episode accuracy, and meta loss at `temperature` if given, of drawn episodes.

    `picks` holds one episode per row, (n, ways, shots + queries) indices
    into `z`, support rows first, as `data.draw_episode_rows` draws them;
    `z` embeds every row of their dataset.  Each episode scores bitwise as
    `score_episode` and `proto_xent` score it.  Episodes go in order, in
    chunks of `SCORE_CHUNK_BYTES`; with workers > 1 a thread pool maps over
    the chunks.
    """
    n, ways, need = picks.shape
    f = z.shape[1]
    queries = need - shots
    per_chunk = max(1, SCORE_CHUNK_BYTES // (z.itemsize * ways * queries * ways * f))
    query_y = np.repeat(np.arange(ways), queries)

    def chunk(lo: int) -> tuple[Array, Array | None]:
        part = picks[lo:lo + per_chunk]
        e = part.shape[0]
        d = ad.prototype_distances(z[part[:, :, :shots]],
                                   z[part[:, :, shots:]].reshape(e, -1, f))
        accs = (d.argmin(axis=2) == query_y).mean(axis=1)
        if temperature is None:
            return accs, None
        rows = ad.proto_xent_rows(d.reshape(-1, ways), np.tile(query_y, e), temperature)
        return accs, rows.reshape(e, -1).mean(axis=1)

    starts = range(0, n, per_chunk)
    if workers <= 1:
        parts = [chunk(lo) for lo in starts]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(chunk, starts))
    accs = np.concatenate([a for a, _ in parts])
    return accs, None if temperature is None else np.concatenate([x for _, x in parts])
