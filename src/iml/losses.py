"""Training objectives for the incremental few-shot methods.

The episodic loss is metric cross-entropy: a query point's negative log
posterior under the tempered softmax over negative squared distances to
the episode prototypes.  Incremental methods add an alignment term that
keeps the updated backbone consistent with a frozen teacher snapshot:

- ``ida``  -- KL between updated-model and teacher posteriors over a
  sampled subset of the teacher's stored anchors, on current-task inputs;
  no old data is touched.
- ``dfa``  -- mean squared distance between updated and teacher embeddings.
- ``eiml`` -- anchor-KL plus a second KL on episodes rebuilt from a few
  retained exemplars of old classes, prototypes recomputed through both
  backbones.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import autodiff as ad
from .autodiff import Array, Tensor
from .data import Episode
from .model import BoundParams, ParamStore, embed


class MethodKind(str, Enum):
    NU = "nu"      # no update: keep the teacher as-is
    FT = "ft"      # plain fine-tuning on new data
    DFA = "dfa"    # direct feature alignment
    IDA = "ida"    # indirect alignment of anchor posteriors (anchors only)
    EIML = "eiml"  # exemplar-based alignment
    PAR = "par"    # paragon: retrain on the union of old and new data


KL_ORDERS = ("student_first", "teacher_first")


@dataclass
class LossBreakdown:
    """Total objective plus its components, all as scalar tensors.

    ``terms`` maps each alignment term the method adds -- ``align`` for ida
    and dfa, ``align_old`` then ``align_new`` for eiml -- to its
    ``(weight, value)``.  ``total`` is ``meta_ce`` plus each weighted term,
    added in that order; a method that `align_weights` gives no weights has
    no terms and ``total is meta_ce``.  ``sqdists`` holds the
    query-to-prototype squared distances meta_ce was computed from.
    """

    method: MethodKind
    total: Tensor
    meta_ce: Tensor
    sqdists: Tensor
    terms: dict[str, tuple[float, Tensor]]


# ---- cores: each formula once, on embeddings of the rows it scores ----


def posterior_kl(d, d_teacher, temperature: float, teacher_first: bool) -> Tensor:
    """Mean over rows of the KL between softmax(-d / T) and softmax(-d_teacher / T).

    ``d`` and the teacher's constant ``d_teacher`` hold squared distances
    from the same rows to the same class centres; the tempered posteriors
    are distillation's softened softmax (Hinton et al. 2015).  The
    student's posterior is the KL's first argument unless ``teacher_first``.
    """
    student = ad.softmax_rows(ad.scale(d, -1.0), temperature)
    teacher = ad.softmax_rows(ad.scale(d_teacher, -1.0), temperature)
    p, q = (teacher, student) if teacher_first else (student, teacher)
    return ad.tmean(ad.kl_div_rows(p, q))


def ida_kl(
    z, z_teacher: Array, centers: Array, temperature: float, kl_order: str = "student_first",
) -> Tensor:
    """`posterior_kl` of `z` and the teacher's `z_teacher` over the stored anchor ``centers``.

    ``kl_order`` picks which distribution is the KL's first argument.
    """
    if kl_order not in KL_ORDERS:
        raise ValueError(f"kl_order must be one of {KL_ORDERS}, got {kl_order!r}")
    if len(centers) == 0:
        raise ValueError("anchor subset is empty")
    return posterior_kl(ad.pairwise_sqdist(z, centers), ad.pairwise_sqdist(z_teacher, centers),
                        temperature, kl_order == "teacher_first")


def feature_drift(z, z_teacher: Array) -> Tensor:
    """Mean over rows of the squared L2 distance between `z` and the teacher's `z_teacher`."""
    diff = ad.sub(z, ad.constant(z_teacher))
    return ad.scale(ad.tsum(ad.mul(diff, diff)), 1.0 / z_teacher.shape[0])


def exemplar_kl(z, z_teacher: Array, exemplar_episode: Episode, temperature: float) -> Tensor:
    """EIML's align_old from both models' embeddings of ``exemplar_episode.inputs``.

    `posterior_kl`, teacher first, where each model scores the exemplar
    queries against prototypes recomputed from its own embedding of the
    exemplar support (Snell et al. 2017).
    """
    sy, ways = exemplar_episode.support_y, exemplar_episode.n_ways
    return posterior_kl(ad.proto_sqdist(z, sy, ways), ad.proto_sqdist(z_teacher, sy, ways),
                        temperature, teacher_first=True)


# ---- objectives: embed, then call the cores ----


def meta_xent_loss(
    params: ParamStore | BoundParams, episode: Episode, temperature: float,
) -> tuple[Tensor, Tensor]:
    """Mean over queries of ||z - c_y||^2 / T + log sum_k exp(-||z - c_k||^2 / T).

    Returns ``(loss, sqdists)``: the loss and the query-to-prototype
    squared distances it was computed from.
    """
    d = ad.proto_sqdist(embed(params, episode.inputs), episode.support_y, episode.n_ways)
    return ad.proto_xent(d, episode.query_y, temperature), d


def align_weights(method: MethodKind, lam: float, lam_old: float | None,
                  lam_new: float | None) -> tuple[float, ...]:
    """Weights of `method`'s alignment terms, lam for ida and dfa; () when it adds none.

    eiml's lam_old and lam_new fall back to lam when unset.  A method whose
    weights are all zero adds none: its objective is the meta term, bitwise.
    """
    if lam < 0:
        raise ValueError(f"lambda must be non-negative, got {lam}")
    if method is MethodKind.EIML:
        weights = (lam if lam_old is None else lam_old, lam if lam_new is None else lam_new)
        if min(weights) < 0:
            raise ValueError("lambda_old and lambda_new must be non-negative")
    elif method in (MethodKind.IDA, MethodKind.DFA):
        weights = (lam,)
    else:
        return ()
    return weights if any(w != 0.0 for w in weights) else ()


# The teacher-side inputs each aligning method reads.
_TEACHER_INPUTS = {
    MethodKind.DFA: ("teacher_z",),
    MethodKind.IDA: ("teacher_z", "anchors"),
    MethodKind.EIML: ("teacher_z", "anchors", "exemplar_episode", "exemplar_teacher_z"),
}


def incremental_objective(
    method: MethodKind | str, new_params: ParamStore | BoundParams, episode: Episode,
    lam: float, temperature: float, kl_order: str = "student_first",
    lam_old: float | None = None, lam_new: float | None = None, *,
    teacher_z: Array | None = None, anchors: Array | None = None,
    exemplar_episode: Episode | None = None, exemplar_teacher_z: Array | None = None,
) -> LossBreakdown:
    """Episodic cross-entropy plus the method's weighted alignment terms.

    The episode's inputs are embedded once, and the meta term and the
    alignment terms both read that embedding.  The teacher's side comes in
    as arrays: ``teacher_z`` and ``exemplar_teacher_z`` are the frozen
    teacher's embeddings of ``episode.inputs`` and ``exemplar_episode.inputs``,
    and ``anchors`` holds the centres of the stored anchors to align on, one
    per row (ida's sampled subset, eiml's exemplar classes in episode
    order).  A missing input the method reads raises ``ValueError``.  When
    `align_weights` gives no weights the alignment is skipped before that
    check, so the total *is* the meta term, bitwise.
    """
    method = MethodKind(method)
    weights = align_weights(method, lam, lam_old, lam_new)
    z = embed(new_params, episode.inputs)
    d = ad.proto_sqdist(z, episode.support_y, episode.n_ways)
    meta = ad.proto_xent(d, episode.query_y, temperature)
    if not weights:
        return LossBreakdown(method, meta, meta, d, {})
    given = {"teacher_z": teacher_z, "anchors": anchors,
             "exemplar_episode": exemplar_episode, "exemplar_teacher_z": exemplar_teacher_z}
    missing = [name for name in _TEACHER_INPUTS[method] if given[name] is None]
    if missing:
        raise ValueError(f"{method.value} needs {', '.join(missing)}")

    if method is MethodKind.EIML:
        a_old = exemplar_kl(embed(new_params, exemplar_episode.inputs), exemplar_teacher_z,
                            exemplar_episode, temperature)
        # align_new is IDA over the exemplar classes' anchors; only it takes kl_order
        terms = {"align_old": (weights[0], a_old),
                 "align_new": (weights[1], ida_kl(z, teacher_z, anchors, temperature, kl_order))}
    elif method is MethodKind.IDA:
        terms = {"align": (weights[0], ida_kl(z, teacher_z, anchors, temperature, kl_order))}
    else:
        terms = {"align": (weights[0], feature_drift(z, teacher_z))}
    total = meta
    for w, value in terms.values():
        total = ad.add(total, ad.scale(value, w))
    return LossBreakdown(method, total, meta, d, terms)
