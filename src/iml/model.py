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

# Bytes of working arrays `score_episodes` holds per chunk: validation's
# query-minus-prototype differences, or evaluation's gathered rows plus its
# (queries, ways) distances and mask.  1-4 MiB measured fastest, 256 KiB and
# 16 MiB slower.
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


class ParamStore:
    """Weight/bias arrays for one backbone; the live copy a trainer mutates.

    All parameters live in one float64 vector, ``flat``: W0, b0, W1, b1, ...
    ``layout`` gives each layer's ``(w_lo, b_lo, b_hi, fan_in)`` offsets in
    it (see `autodiff.mlp`), and ``weights`` and ``biases`` are views into
    it.  The constructor copies its inputs.
    """

    def __init__(self, weights: list[Array], biases: list[Array]):
        if len(weights) != len(biases) or not weights:
            raise ValueError("need one bias per weight matrix and at least one layer")
        weights = [np.asarray(w, dtype=np.float64) for w in weights]
        biases = [np.asarray(b, dtype=np.float64) for b in biases]
        layout, lo = [], 0
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.ndim != 2 or b.ndim != 1 or b.shape[0] != w.shape[1]:
                raise ValueError(f"layer {i}: weight {w.shape} and bias {b.shape} disagree")
            if i and weights[i - 1].shape[1] != w.shape[0]:
                raise ValueError(f"layer {i}: fan-in does not match previous fan-out")
            layout.append((lo, lo + w.size, lo + w.size + b.size, w.shape[0]))
            lo += w.size + b.size
        self.layout = tuple(layout)
        self.flat = np.concatenate([a.ravel() for wb in zip(weights, biases) for a in wb])
        self.weights = [self.flat[w_lo:b_lo].reshape(fan_in, -1)
                        for w_lo, b_lo, _, fan_in in layout]
        self.biases = [self.flat[b_lo:b_hi] for _, b_lo, b_hi, _ in layout]

    def arrays(self) -> list[Array]:
        """All parameter arrays in ``flat``'s order: W0, b0, W1, b1, ..."""
        return [a for wb in zip(self.weights, self.biases) for a in wb]

    def copy(self) -> "ParamStore":
        return ParamStore(self.weights, self.biases)

    def bind(self, tape: Tape) -> "BoundParams":
        """Register ``flat`` as one tape leaf for one differentiable step."""
        return BoundParams(tape.leaf(self.flat), self.layout)


@dataclass(frozen=True)
class BoundParams:
    """Tape-bound view of a ParamStore for a single forward/backward pass."""

    flat: Tensor
    layout: tuple[tuple[int, int, int, int], ...]


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


def embed(params: ParamStore | BoundParams, x) -> Tensor:
    """Map a batch of input rows through the backbone; relu between layers only."""
    return ad.mlp(x, params.flat, params.layout)


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


def nearest_prototype_accuracy(d: Array, query_y) -> float:
    """Fraction of rows of `d` whose smallest distance is at the true label.

    Ties in distance resolve to the lowest class index (argmin order).
    """
    return float((d.argmin(axis=1) == query_y).mean())


def score_episode(params: ParamStore, episode) -> float:
    """Fraction of query points whose nearest support prototype has the right label.

    The distances are `meta_xent_loss`'s, so any support counts per class score.
    """
    d = ad.proto_sqdist(embed(params, episode.inputs), episode.support_y, episode.n_ways).data
    return nearest_prototype_accuracy(d, episode.query_y)


def nearest_prototypes(support: Array, queries: Array) -> Array:
    """``prototype_distances(support, queries).argmin(axis=2)``, from a GEMM.

    ``support`` is (E, K, S, F) and ``queries`` (E, Q, F), as for
    `autodiff.prototype_distances`; the result is (E, Q) class indices.  The
    class means are that kernel's, bitwise, and d = |q|^2 - 2 q.c + |c|^2
    comes from one batched matmul.  With n = F + 3, u the unit roundoff and
    g = n u / (1 - n u), each d lies within b = 2 g (|q| + max_k |c_k|)^2
    (plus n times the smallest normal, for underflow) of the exact kernel's
    float output.  A query whose only class with d <= min d + 2b is its
    argmin therefore has that exact argmin, with no tie.  Every other query
    is decided by the exact kernel, called on its episode alone.  That
    covers non-finite values: a nan in a query's distances lets no class
    pass, and an inf in its rows or its episode's means makes b infinite,
    so that every class passes.
    """
    protos = np.add.reduce(support, axis=2) / support.shape[2]
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values fall back
        qq = np.einsum("eqf,eqf->eq", queries, queries)
        cc = np.einsum("ekf,ekf->ek", protos, protos)
        d = np.matmul(protos, queries.transpose(0, 2, 1))  # (E, K, Q)
        d *= -2.0
        d += qq[:, None, :]
        d += cc[:, :, None]
        fi = np.finfo(d.dtype)
        n = queries.shape[2] + 3
        g = n * (fi.eps / 2) / (1 - n * (fi.eps / 2))
        reach = np.sqrt(qq) + np.sqrt(cc.max(axis=1))[:, None]
        top = d.min(axis=1) + 2 * (2 * g * reach * reach + n * fi.tiny)
        below = d <= top[:, None, :]
    nearest = below.argmax(axis=1)
    for i in np.flatnonzero((below.sum(axis=1) != 1).any(axis=1)):
        nearest[i] = ad.prototype_distances(support[i:i + 1], queries[i:i + 1])[0].argmin(axis=1)
    return nearest


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
    `score_episode` and `proto_xent` score it: accuracy alone goes through
    `nearest_prototypes`, the loss through `autodiff.prototype_distances`.
    Episodes go in order, in chunks of `SCORE_CHUNK_BYTES`; with workers > 1
    a thread pool maps over the chunks.
    """
    n, ways, need = picks.shape
    f = z.shape[1]
    q = ways * (need - shots)
    held = ways * need * f + 2 * q * ways if temperature is None else q * ways * f
    per_chunk = max(1, SCORE_CHUNK_BYTES // (z.itemsize * held))
    query_y = np.repeat(np.arange(ways), need - shots)

    def chunk(lo: int) -> tuple[Array, Array | None]:
        part = picks[lo:lo + per_chunk]
        e = part.shape[0]
        support, queries = z[part[:, :, :shots]], z[part[:, :, shots:]].reshape(e, -1, f)
        if temperature is None:
            return (nearest_prototypes(support, queries) == query_y).mean(axis=1), None
        d = ad.prototype_distances(support, queries)
        accs = (d.argmin(axis=2) == query_y).mean(axis=1)
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
