"""Reverse-mode automatic differentiation on an explicit operation tape.

Everything is 64-bit float numpy underneath.  A :class:`Tensor` either
carries a ``(tape, node)`` pair -- in which case feeding it to an op
records a new node on that tape -- or it is a plain constant and ops just
compute values without recording anything.  The tape is a flat Wengert
list: node ids are list positions, so the list order *is* a topological
order and :meth:`Tape.backward` is one reverse sweep.

Each primitive op is a (forward, vjp) pair of pure functions registered
in ``_OPS``; nodes store only the op name, input ids, which inputs are
tape nodes (and so need a gradient), the output, static auxiliary data
and, for ops that declare it, the forward's intermediates that the vjp
reads instead of recomputing.  A vjp may return ``None`` for an input
that needs no gradient.  Off the tape the intermediates are dropped.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

Array = np.ndarray

# Gradient maps returned by Tape.backward: leaf node id -> dense gradient.
Gradients = dict[int, Array]


def _as_array(x) -> Array:
    return np.asarray(x, dtype=np.float64)


class Tensor:
    """Dense float64 value, optionally attached to a tape node."""

    __slots__ = ("data", "tape", "node")

    def __init__(self, data, tape: "Tape | None" = None, node: int | None = None):
        self.data = _as_array(data)
        self.tape = tape
        self.node = node

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __float__(self) -> float:
        if self.data.shape != ():
            raise ValueError(f"tensor of shape {self.data.shape} is not a scalar")
        return float(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = "const" if self.node is None else f"node={self.node}"
        return f"Tensor(shape={self.shape}, {tag})"


def constant(x) -> Tensor:
    """Wrap a value as an off-tape constant tensor."""
    return Tensor(x)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


@dataclass
class Node:
    """One tape record: which op ran, on which node ids, and what came out."""

    op: str
    inputs: tuple[int, ...]
    value: Array
    aux: tuple = ()
    needs: tuple[bool, ...] = ()  # per input: is it a tape node (not a constant)?
    saved: object = None  # forward intermediates the vjp reads (ops with `saves`)


@dataclass(frozen=True)
class OpSpec:
    # (values, aux) -> out, or (out, saved) when `saves`
    fwd: Callable[[list[Array], tuple], object]
    # (values, aux, out, saved, g, needs) -> one gradient per input, None where not needed
    vjp: Callable[[list[Array], tuple, Array, object, Array, tuple[bool, ...]],
                  list["Array | None"]]
    saves: bool = False


class Tape:
    """Append-only record of primitive ops, differentiated by one reverse sweep."""

    def __init__(self) -> None:
        self.nodes: list[Node] = []

    def _push(self, node: Node) -> int:
        self.nodes.append(node)
        return len(self.nodes) - 1

    def leaf(self, value) -> Tensor:
        """Register a parameter whose gradient may be requested later."""
        nid = self._push(Node("leaf", (), _as_array(value).copy()))
        return Tensor(self.nodes[nid].value, self, nid)

    def const(self, value) -> int:
        """Intern a constant operand as a terminal node."""
        return self._push(Node("const", (), _as_array(value)))

    def backward(self, loss: Tensor, params: Sequence[int]) -> Gradients:
        """Reverse sweep from a scalar loss.

        Returns one gradient per requested leaf id; leaves the loss never
        touched get explicit zeros.  Accumulation order is the fixed
        reverse tape order, so repeated calls are bit-identical.  Returned
        arrays may share memory with each other: treat them as read-only.
        """
        if loss.tape is not self or loss.node is None:
            raise ValueError("loss is not recorded on this tape")
        if loss.data.shape != ():
            raise ValueError(
                f"backward needs a scalar loss, got shape {loss.data.shape}"
            )
        for pid in params:
            if not (0 <= pid < len(self.nodes)) or self.nodes[pid].op != "leaf":
                raise ValueError(f"parameter id {pid} is not a leaf on this tape")

        grads: list[Array | None] = [None] * len(self.nodes)
        grads[loss.node] = np.ones((), dtype=np.float64)
        for nid in range(loss.node, -1, -1):
            g = grads[nid]
            if g is None:
                continue
            node = self.nodes[nid]
            if not node.inputs:  # leaf or const
                continue
            values = [self.nodes[i].value for i in node.inputs]
            parts = _OPS[node.op].vjp(values, node.aux, node.value, node.saved, g, node.needs)
            for i, need, part in zip(node.inputs, node.needs, parts):
                # constants never have their gradient read; parts may alias
                # each other (`add` returns [g, g]), so sum out of place
                if need and part is not None:
                    grads[i] = part if grads[i] is None else grads[i] + part
        return {
            pid: (
                grads[pid]
                if grads[pid] is not None
                else np.zeros_like(self.nodes[pid].value)
            )
            for pid in params
        }


def _apply(op: str, tensors: Sequence[Tensor], aux: tuple = ()) -> Tensor:
    tape: Tape | None = None
    for t in tensors:
        if t.tape is not None:
            if tape is None:
                tape = t.tape
            elif tape is not t.tape:
                raise ValueError("operands live on different tapes")
    spec = _OPS[op]
    out = spec.fwd([t.data for t in tensors], aux)
    saved = None
    if spec.saves:
        out, saved = out
    if tape is None:
        return Tensor(out)
    needs = tuple(t.tape is tape and t.node is not None for t in tensors)
    ids = tuple(t.node if need else tape.const(t.data) for t, need in zip(tensors, needs))
    nid = tape._push(Node(op, ids, out, aux, needs, saved))
    return Tensor(out, tape, nid)


# ---------------------------------------------------------------------------
# primitive ops: forward + vector-Jacobian product


def _need_same_shape(a: Array, b: Array, op: str) -> None:
    if a.shape != b.shape:
        raise ValueError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


def _fwd_matmul(v, aux):
    a, b = v
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {a.shape} @ {b.shape}")
    return a @ b


def _vjp_matmul(v, aux, out, saved, g, needs):
    a, b = v
    return [g @ b.T, a.T @ g]


def _fwd_add(v, aux):
    _need_same_shape(v[0], v[1], "add")
    return v[0] + v[1]


def _fwd_sub(v, aux):
    _need_same_shape(v[0], v[1], "sub")
    return v[0] - v[1]


def _fwd_mul(v, aux):
    _need_same_shape(v[0], v[1], "mul")
    return v[0] * v[1]


def _fwd_scale(v, aux):
    return v[0] * aux[0]


def _fwd_addrow(v, aux):
    m, row = v
    if m.ndim != 2 or row.ndim != 1 or m.shape[1] != row.shape[0]:
        raise ValueError(f"add_rowvec: shapes {m.shape} and {row.shape}")
    return m + row[None, :]


def _fwd_relu(v, aux):
    return np.maximum(v[0], 0.0)


def _vjp_relu(v, aux, out, saved, g, needs):
    # Subgradient 0 at the kink.
    return [g * (v[0] > 0.0)]


def _fwd_linear(v, aux):
    x, w, b = v
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ValueError(f"linear: incompatible shapes {x.shape} @ {w.shape}")
    if b.ndim != 1 or b.shape[0] != w.shape[1]:
        raise ValueError(f"linear: bias {b.shape} does not fit weight {w.shape}")
    out = x @ w
    out += b
    return np.maximum(out, 0.0, out=out) if aux[0] else out


def _vjp_linear(v, aux, out, saved, g, needs):
    x, w, _ = v
    if aux[0]:
        # relu output > 0 exactly where its input was; subgradient 0 at the kink
        g = g * (out > 0.0)
    return [g @ w.T if needs[0] else None, x.T @ g if needs[1] else None,
            g.sum(axis=0) if needs[2] else None]


def _pair_diffs(z: Array, c: Array) -> Array:
    """d[i, k] = z[i] - c[k]; repeating z lets one subtraction span each (k, F) block."""
    d = np.repeat(z, c.shape[0], axis=0).reshape(z.shape[0], c.shape[0], z.shape[1])
    d -= c
    return d


def _fwd_pairsq(v, aux):
    z, c = v
    if z.ndim != 2 or c.ndim != 2 or z.shape[1] != c.shape[1]:
        raise ValueError(f"pairwise_sqdist: shapes {z.shape} and {c.shape}")
    d = _pair_diffs(z, c)
    return np.einsum("ikj,ikj->ik", d, d), d


def _vjp_pairsq(v, aux, out, d, g, needs):
    gz = 2.0 * np.einsum("ik,ikj->ij", g, d) if needs[0] else None
    gc = -2.0 * np.einsum("ik,ikj->kj", g, d) if needs[1] else None
    return [gz, gc]


def _fwd_lse_rows(v, aux):
    (x,) = v
    if x.ndim != 2 or x.shape[1] == 0:
        raise ValueError("logsumexp_rows: need a 2-D input with columns")
    m = x.max(axis=1, keepdims=True)
    e = np.exp(x - m)
    s = e.sum(axis=1, keepdims=True)
    return (m + np.log(s))[:, 0], (e, s)


def _vjp_lse_rows(v, aux, out, saved, g, needs):
    e, s = saved
    return [g[:, None] * (e / s)]


def _fwd_softmax_rows(v, aux):
    if aux[0] <= 0.0:
        raise ValueError(f"temperature must be positive, got {aux[0]}")
    (x,) = v
    if x.ndim != 2 or x.shape[1] == 0:
        raise ValueError("softmax_rows: need a 2-D input with columns")
    e = np.exp((x - x.max(axis=1, keepdims=True)) / aux[0])
    return e / e.sum(axis=1, keepdims=True)


def _vjp_softmax_rows(v, aux, out, saved, g, needs):
    return [(out * (g - (g * out).sum(axis=1, keepdims=True))) / aux[0]]


def _fwd_kl_rows(v, aux):
    p, q = v
    _need_same_shape(p, q, "kl_div_rows")
    if p.ndim != 2 or p.shape[1] == 0:
        raise ValueError("kl_div_rows: need 2-D row distributions")
    for x in (p, q):
        if np.any(np.abs(x.sum(axis=1) - 1.0) > 1e-6):
            raise ValueError("kl_div_rows: inputs must sum to 1 along the class axis")
    if np.any(p < 0.0) or np.any(q < 0.0):
        raise ValueError("kl_div_rows: distributions must be non-negative")
    pos = p > 0.0
    if np.any(pos & (q == 0.0)):
        raise ValueError("kl_div_rows: q has zero mass where p is positive")
    terms = np.zeros_like(p)
    # 0 * log 0 taken as 0.
    ratio = p[pos] / q[pos]
    log_ratio = np.log(ratio)
    terms[pos] = p[pos] * log_ratio
    return terms.sum(axis=1), (pos, ratio, log_ratio)


def _vjp_kl_rows(v, aux, out, saved, g, needs):
    pos, ratio, log_ratio = saved
    grow = np.broadcast_to(g[:, None], pos.shape)[pos]
    gp = gq = None
    if needs[0]:
        gp = np.zeros(pos.shape)
        gp[pos] = (log_ratio + 1.0) * grow
    if needs[1]:
        gq = np.zeros(pos.shape)
        gq[pos] = -ratio * grow
    return [gp, gq]


def _fwd_rowsel(v, aux):
    (m,) = v
    idx = aux[0]
    if m.ndim != 2 or idx.ndim != 1 or idx.shape[0] != m.shape[0]:
        raise ValueError("take_per_row: need one column index per row")
    if idx.min(initial=0) < 0 or idx.max(initial=-1) >= m.shape[1]:
        raise ValueError("take_per_row: column index out of range")
    return m[np.arange(m.shape[0]), idx]


def _vjp_rowsel(v, aux, out, saved, g, needs):
    (m,) = v
    gm = np.zeros_like(m)
    gm[np.arange(m.shape[0]), aux[0]] = g
    return [gm]


def _class_counts(z: Array, labels: Array, k: int) -> Array:
    """Rows per class, after checking that every row has a label and every class a row."""
    if z.ndim != 2 or labels.ndim != 1 or labels.shape[0] != z.shape[0]:
        raise ValueError("class_means: need one label per row")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"class_means: labels must lie in [0, {k})")
    counts = np.bincount(labels, minlength=k)
    if counts.min(initial=1) == 0:
        raise ValueError(f"class_means: class {int(counts.argmin())} has no members")
    return counts


def _class_means(z: Array, labels: Array, counts: Array) -> Array:
    # A stable sort keeps each class's rows in order, so summing each slice
    # and dividing by its count is bitwise that class's `mean(axis=0)`.
    grouped = z[np.argsort(labels, kind="stable")]
    if counts.size and counts.max() == counts.min():
        # equal counts (every sampled episode): one reduction over (k, n, F)
        # adds each class's rows in the same order as its own slice would
        out = np.add.reduce(grouped.reshape(counts.size, -1, z.shape[1]), axis=1)
    else:
        out = np.empty((counts.size, z.shape[1]), dtype=np.float64)
        start = 0
        for c, n in enumerate(counts.tolist()):
            np.add.reduce(grouped[start:start + n], axis=0, out=out[c])
            start += n
    out /= counts[:, None]
    return out


def _class_means_grad(g: Array, labels: Array, counts: Array) -> Array:
    """Per-row gradient of the class means: each row gets its class's g over the count."""
    return g[labels] / counts.astype(np.float64)[labels][:, None]


def _fwd_cmeans(v, aux):
    return _class_means(v[0], aux[0], _class_counts(v[0], *aux))


def _vjp_cmeans(v, aux, out, saved, g, needs):
    labels, k = aux
    return [_class_means_grad(g, labels, np.bincount(labels, minlength=k))]


def _fwd_proto_sqdist(v, aux):
    (z,) = v
    labels, k = aux
    if z.ndim != 2 or labels.ndim != 1 or z.shape[0] < labels.shape[0]:
        raise ValueError(f"proto_sqdist: {labels.shape[0]} support rows in shape {z.shape}")
    zs = z[:labels.shape[0]]
    counts = _class_counts(zs, labels, k)
    out, d = _fwd_pairsq([z[labels.shape[0]:], _class_means(zs, labels, counts)], ())
    return out, (counts, d)


def _vjp_proto_sqdist(v, aux, out, saved, g, needs):
    # the class_means -> pairwise_sqdist vjps; queries after the support rows
    counts, d = saved
    labels = aux[0]
    n = labels.shape[0]
    gq, gc = _vjp_pairsq(None, (), out, d, g, (True, True))
    gz = np.empty_like(v[0])
    gz[:n] = _class_means_grad(gc, labels, counts)
    gz[n:] = gq
    return [gz]


def _xent_rows(d: Array, y: Array, t: float) -> tuple[Array, tuple]:
    """Per-row d[y] / t + log sum_k exp(-d_k / t), and logsumexp's saved exponentials."""
    if t <= 0.0:
        raise ValueError(f"temperature must be positive, got {t}")
    pull = _fwd_rowsel([d], (y,)) * (1.0 / t)
    spread, exps = _fwd_lse_rows([d * (-1.0 / t)], ())
    return _fwd_add([pull, spread], ()), exps


def _fwd_proto_xent(v, aux):
    rows, exps = _xent_rows(v[0], *aux)
    return _fwd_mean([rows], ()), exps


def _vjp_proto_xent(v, aux, out, saved, g, needs):
    # the tmean -> add -> (scale . take_per_row, logsumexp_rows . scale) vjps;
    # `saved` holds logsumexp_rows' exponentials and their row sums
    (d,) = v
    y, t = aux
    rows = np.full(d.shape[0], 1.0) * (g / d.shape[0])
    gd = _vjp_lse_rows(None, (), None, saved, rows, needs)[0] * (-1.0 / t)
    gd[np.arange(d.shape[0]), y] += rows * (1.0 / t)
    return [gd]


def _fwd_sum(v, aux):
    return np.asarray(v[0].sum())


def _vjp_sum(v, aux, out, saved, g, needs):
    return [np.full_like(v[0], 1.0) * g]


def _fwd_mean(v, aux):
    if v[0].size == 0:
        raise ValueError("mean of an empty tensor is undefined")
    return np.asarray(v[0].mean())


def _vjp_mean(v, aux, out, saved, g, needs):
    return [np.full_like(v[0], 1.0) * (g / v[0].size)]


_OPS: dict[str, OpSpec] = {
    "matmul": OpSpec(_fwd_matmul, _vjp_matmul),
    "add": OpSpec(_fwd_add, lambda v, aux, out, saved, g, needs: [g, g]),
    "sub": OpSpec(_fwd_sub, lambda v, aux, out, saved, g, needs: [g, -g]),
    "mul": OpSpec(_fwd_mul, lambda v, aux, out, saved, g, needs: [g * v[1], g * v[0]]),
    "scale": OpSpec(_fwd_scale, lambda v, aux, out, saved, g, needs: [g * aux[0]]),
    "add_rowvec": OpSpec(_fwd_addrow, lambda v, aux, out, saved, g, needs: [g, g.sum(axis=0)]),
    "relu": OpSpec(_fwd_relu, _vjp_relu),
    "linear": OpSpec(_fwd_linear, _vjp_linear),
    "pairwise_sqdist": OpSpec(_fwd_pairsq, _vjp_pairsq, saves=True),
    "logsumexp_rows": OpSpec(_fwd_lse_rows, _vjp_lse_rows, saves=True),
    "softmax_rows": OpSpec(_fwd_softmax_rows, _vjp_softmax_rows),
    "kl_div_rows": OpSpec(_fwd_kl_rows, _vjp_kl_rows, saves=True),
    "take_per_row": OpSpec(_fwd_rowsel, _vjp_rowsel),
    "class_means": OpSpec(_fwd_cmeans, _vjp_cmeans),
    "proto_sqdist": OpSpec(_fwd_proto_sqdist, _vjp_proto_sqdist, saves=True),
    "proto_xent": OpSpec(_fwd_proto_xent, _vjp_proto_xent, saves=True),
    "sum": OpSpec(_fwd_sum, _vjp_sum),
    "mean": OpSpec(_fwd_mean, _vjp_mean),
}


# ---------------------------------------------------------------------------
# public op surface


def matmul(a, b) -> Tensor:
    return _apply("matmul", (as_tensor(a), as_tensor(b)))


def add(a, b) -> Tensor:
    return _apply("add", (as_tensor(a), as_tensor(b)))


def sub(a, b) -> Tensor:
    return _apply("sub", (as_tensor(a), as_tensor(b)))


def mul(a, b) -> Tensor:
    return _apply("mul", (as_tensor(a), as_tensor(b)))


def scale(a, s) -> Tensor:
    if not isinstance(s, numbers.Real):
        raise ValueError("scale expects a python scalar factor")
    return _apply("scale", (as_tensor(a),), (float(s),))


def relu(x) -> Tensor:
    return _apply("relu", (as_tensor(x),))


def add_rowvec(m, row) -> Tensor:
    """Add a length-F row vector to every row of an (n, F) matrix."""
    return _apply("add_rowvec", (as_tensor(m), as_tensor(row)))


def linear(x, w, b, relu: bool = False) -> Tensor:
    """One dense layer, x @ w + b, optionally through relu, as a single tape node.

    Bitwise equal to ``matmul`` then ``add_rowvec`` (then ``relu``), forward
    and gradients.
    """
    return _apply("linear", (as_tensor(x), as_tensor(w), as_tensor(b)), (bool(relu),))


def pairwise_sqdist(z, c) -> Tensor:
    """All squared Euclidean distances between rows of z and rows of c."""
    return _apply("pairwise_sqdist", (as_tensor(z), as_tensor(c)))


def logsumexp_rows(m) -> Tensor:
    return _apply("logsumexp_rows", (as_tensor(m),))


def softmax_rows(m, temperature: float = 1.0) -> Tensor:
    return _apply("softmax_rows", (as_tensor(m),), (float(temperature),))


def kl_div_rows(p, q) -> Tensor:
    """Row-wise KL divergence between matching rows of two matrices."""
    return _apply("kl_div_rows", (as_tensor(p), as_tensor(q)))


# The index ops keep a private integer copy of their indices, so a caller
# editing its array between forward and backward cannot change the tape.


def take_per_row(m, indices) -> Tensor:
    return _apply("take_per_row", (as_tensor(m),), (np.array(indices, dtype=np.intp),))


def class_means(z, labels, n_classes: int) -> Tensor:
    """Per-class mean of rows of z grouped by integer labels 0..n_classes-1."""
    return _apply(
        "class_means", (as_tensor(z),), (np.array(labels, dtype=np.intp), int(n_classes))
    )


def proto_sqdist(z, support_y, n_ways: int) -> Tensor:
    """Squared distances from the query rows of z to the support prototypes, as one node.

    The first ``len(support_y)`` rows of z are the support, labelled
    0..n_ways-1; each prototype is its class's mean row (Snell et al. 2017),
    and the remaining rows are the queries.  Bitwise equal to ``class_means``
    of the support rows then ``pairwise_sqdist`` from the queries, value and
    gradient.
    """
    return _apply(
        "proto_sqdist", (as_tensor(z),), (np.array(support_y, dtype=np.intp), int(n_ways))
    )


def proto_xent(d, y, temperature: float) -> Tensor:
    """Mean over rows of d[y] / T + log sum_k exp(-d_k / T), as one node.

    Bitwise equal to ``take_per_row`` and ``scale`` by 1/T, plus
    ``logsumexp_rows`` of d scaled by -1/T, then ``tmean``: value and gradient.
    """
    return _apply(
        "proto_xent", (as_tensor(d),), (np.array(y, dtype=np.intp), float(temperature))
    )


def proto_xent_rows(d: Array, y: Array, temperature: float) -> Array:
    """``proto_xent``'s per-row terms, off the tape: their mean is its value, bitwise."""
    return _xent_rows(d, y, temperature)[0]


def prototype_distances(support: Array, queries: Array) -> Array:
    """``proto_sqdist``'s kernel, off the tape, bitwise, on E episodes at once.

    ``support`` (E, K, S, F) holds S rows of each of K classes, ``queries``
    is (E, Q, F); the result is (E, Q, K).  The caller checks the shapes.
    """
    e, q, f = queries.shape
    k = support.shape[1]
    d = np.repeat(queries, k, axis=1).reshape(e, q, k, f)
    d -= (np.add.reduce(support, axis=2) / support.shape[2])[:, None]
    d = d.reshape(e * q, k, f)
    return np.einsum("ikj,ikj->ik", d, d).reshape(e, q, k)


def tsum(x) -> Tensor:
    return _apply("sum", (as_tensor(x),))


def tmean(x) -> Tensor:
    return _apply("mean", (as_tensor(x),))


def grad_check(f, params: Sequence[Array], h: float = 1e-4) -> float:
    """Compare tape gradients of ``f`` against central finite differences.

    ``f`` takes a list of tensors and returns a scalar tensor.  Returns the
    worst coordinate-wise relative error |analytic - central| / max(1, |a|, |c|).
    """
    arrays = [_as_array(p) for p in params]
    tape = Tape()
    leaves = [tape.leaf(a) for a in arrays]
    out = f(leaves)
    if not isinstance(out, Tensor) or out.data.shape != ():
        raise ValueError("grad_check expects f to return a scalar tensor")
    grads = tape.backward(out, [t.node for t in leaves])

    def value_at(replaced: list[Array]) -> float:
        return float(f([Tensor(a) for a in replaced]))

    worst = 0.0
    for pi, base in enumerate(arrays):
        analytic = grads[leaves[pi].node]
        for idx in np.ndindex(*base.shape):
            plus = [a.copy() for a in arrays]
            minus = [a.copy() for a in arrays]
            plus[pi][idx] += h
            minus[pi][idx] -= h
            central = (value_at(plus) - value_at(minus)) / (2.0 * h)
            a_val = float(analytic[idx])
            err = abs(a_val - central) / max(1.0, abs(a_val), abs(central))
            worst = max(worst, err)
    return worst
