"""Embedding backbone, parameter store, class anchors, and frozen snapshots.

The backbone is a plain MLP with relu between layers and a linear final
layer, so embeddings live in all of R^F.  Classification is metric-based:
a query point is scored against class centers by (negative) squared
Euclidean distance.
"""
from __future__ import annotations

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
    """Weight/bias arrays for one backbone config; the live copy a trainer mutates.

    All parameters live in one float64 vector, ``flat``: W0, b0, W1, b1, ...
    ``layout`` gives each layer's ``(w_lo, b_lo, b_hi, fan_in)`` offsets in
    it (see `autodiff.mlp`); it is worked out from ``config.dims`` here and
    nowhere else.  ``weights`` and ``biases`` are views into ``flat``.  The
    constructor copies ``flat``.
    """

    def __init__(self, config: BackboneConfig, flat):
        layout, lo = [], 0
        for fan_in, fan_out in zip(config.dims[:-1], config.dims[1:]):
            b_lo = lo + fan_in * fan_out
            layout.append((lo, b_lo, b_lo + fan_out, fan_in))
            lo = b_lo + fan_out
        self.config = config
        self.layout = tuple(layout)
        self.flat = np.array(flat, dtype=np.float64)
        if self.flat.shape != (lo,):
            raise ValueError(f"parameters of shape {self.flat.shape} do not fit backbone dims "
                             f"{config.dims}, which take {lo}")
        self.weights = [self.flat[w_lo:b_lo].reshape(fan_in, -1)
                        for w_lo, b_lo, _, fan_in in layout]
        self.biases = [self.flat[b_lo:b_hi] for _, b_lo, b_hi, _ in layout]

    def arrays(self) -> list[Array]:
        """All parameter arrays in ``flat``'s order: W0, b0, W1, b1, ..."""
        return [a for wb in zip(self.weights, self.biases) for a in wb]

    def copy(self) -> "ParamStore":
        return ParamStore(self.config, self.flat)

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
    dims = config.dims
    params = ParamStore(config, np.zeros(sum((i + 1) * o for i, o in zip(dims[:-1], dims[1:]))))
    for w in params.weights:
        bound = math.sqrt(6.0 / w.shape[0])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return params


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


@dataclass(frozen=True)
class SnapshotMeta:
    seed: int
    round_index: int
    method: str


@dataclass(frozen=True)
class ModelSnapshot:
    """Frozen (params, anchors, meta); the teacher side of alignment."""

    params: ParamStore
    anchors: AnchorSet
    meta: SnapshotMeta

    @property
    def config(self) -> BackboneConfig:
        return self.params.config


def freeze_snapshot(params: ParamStore, anchors: AnchorSet, meta: SnapshotMeta) -> ModelSnapshot:
    """Copy the arrays so later training cannot mutate the snapshot."""
    embed_dim = params.config.embed_dim
    if len(anchors) and anchors.dim != embed_dim:
        raise ValueError(f"anchor width {anchors.dim} does not match embed_dim {embed_dim}")
    return ModelSnapshot(
        params.copy(),
        AnchorSet(anchors.class_ids, anchors.centers.copy(), anchors.round_tag),
        meta,
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


def nearest_prototypes(support: Array, queries: Array, query_norms: Array, labels: Array) -> Array:
    """Whether each query's nearest class mean is at its label, from a GEMM.

    ``support`` is (E, K, S, F) and ``queries`` (E, Q, F), as for
    `autodiff.prototype_distances`; ``query_norms`` (E, Q) holds each
    query's ||q|| and ``labels`` (Q,) its class.  The result is the (E, Q)
    hits ``prototype_distances(support, queries).argmin(axis=2) == labels``.

    The class means c_k are that kernel's, bitwise.  One batched matmul
    gives d_k = (-2 c_k).q + |c_k|^2, which is |q - c_k|^2 - |q|^2 up to
    rounding.  Let u be the unit roundoff, g_m = m u / (1 - m u) and
    R = |q| + max_k |c_k|.  The exact kernel's float output e_k lies within
    g_{F+2} R^2 of the real |q - c_k|^2, and the real sum d_k + |q|^2 within
    g_{F+1} R^2 of it.  |q|^2 is the same real number for every class of a
    query, so it cancels from e_k - e_j: d_k - d_j > 2b, with
    b = 2 g_{F+3} R^2, gives e_k > e_j.  So |q|^2 may leave d, but |q| may
    not leave b, as both kernels' errors grow with it.  A query whose band
    d <= min d + 2b holds exactly one class is certified: that class is the
    exact kernel's unique argmin, and the query is a hit when its label's d
    is in the band.  b spends one g step more than the two kernels need.
    That step pays for rounding the band's top, and for the norms that size
    b: |c_k|^2 here and the caller's ||q|| are sums of squares in any order
    (`score_episodes` takes ||q|| from one pass over its whole embedded
    table), so each is within g_F of its real value, which shrinks b by a
    factor of about 1 - (F + 6) u, inside the spare step for F below about
    1e7.  b also adds F + 3 times the smallest normal, for underflow.  Every
    episode with an uncertain query is decided by the exact kernel, called
    on that episode alone.  That covers non-finite values: a nan in a
    query's d or b lets no class into its band, and an inf in its row or
    its episode's means makes b infinite, so that every class enters.
    """
    protos = np.add.reduce(support, axis=2) / support.shape[2]
    e, k, q = protos.shape[0], protos.shape[1], queries.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values fall back
        cc = np.einsum("ekf,ekf->ek", protos, protos)
        d = np.matmul(protos * -2.0, queries.transpose(0, 2, 1))  # (E, K, Q)
        d += cc[:, :, None]
        fi = np.finfo(d.dtype)
        n = queries.shape[2] + 3
        g = n * (fi.eps / 2) / (1 - n * (fi.eps / 2))
        reach = query_norms + np.sqrt(cc.max(axis=1))[:, None]
        top = d.min(axis=1) + 2 * (2 * g * reach * reach + n * fi.tiny)
        band = np.add.reduce(d <= top[:, None, :], axis=1, dtype=np.min_scalar_type(k))
        hits = np.take(d.reshape(e, k * q), labels * q + np.arange(q), axis=1) <= top
    for i in np.flatnonzero((band != 1).any(axis=1)):
        exact = ad.prototype_distances(support[i:i + 1], queries[i:i + 1])[0]
        hits[i] = exact.argmin(axis=1) == labels
    return hits


def score_episodes(
    z: Array,
    picks: Array,
    shots: int,
    temperature: float | None = None,
    workers: int = 1,
) -> tuple[Array, Array | None]:
    """Per-episode accuracy, and meta loss at `temperature` if given, of drawn episodes.

    `picks` holds one episode per row, (n, ways, shots + queries) indices
    into `z`, support rows first, as `data.draw_episodes` draws them;
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
    if temperature is None:
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite rows fall back
            norms = np.sqrt(np.einsum("nf,nf->n", z, z))

    def chunk(lo: int) -> tuple[Array, Array | None]:
        part = picks[lo:lo + per_chunk]
        e = part.shape[0]
        support, queries = z[part[:, :, :shots]], z[part[:, :, shots:]].reshape(e, -1, f)
        if temperature is None:
            query_norms = norms[part[:, :, shots:]].reshape(e, -1)
            return nearest_prototypes(support, queries, query_norms, query_y).mean(axis=1), None
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
