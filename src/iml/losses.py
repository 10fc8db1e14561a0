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
from .model import (
    AnchorSet,
    BoundParams,
    ModelSnapshot,
    ParamStore,
    discriminant,
    embed,
)


class MethodKind(str, Enum):
    NU = "nu"      # no update: keep the teacher as-is
    FT = "ft"      # plain fine-tuning on new data
    DFA = "dfa"    # direct feature alignment
    IDA = "ida"    # indirect discriminant alignment (anchors only)
    EIML = "eiml"  # exemplar-based alignment
    PAR = "par"    # paragon: retrain on the union of old and new data


KL_ORDERS = ("student_first", "teacher_first")


@dataclass(frozen=True)
class AlignAux:
    """Per-step side inputs the alignment terms need.

    ``teacher_z`` and ``exemplar_teacher_z`` are the frozen teacher's
    embeddings of ``episode.all_inputs()`` and of
    ``exemplar_episode.all_inputs()``, typically gathered from a table
    embedded once per round.  An aligning step with a nonzero weight
    requires them: ``teacher_z`` for ida, dfa and eiml, and
    ``exemplar_teacher_z`` as well for eiml.
    """

    anchors: AnchorSet | None = None
    exemplar_episode: Episode | None = None
    teacher_z: Array | None = None
    exemplar_teacher_z: Array | None = None


@dataclass
class LossBreakdown:
    """Total objective plus its components, all as scalar tensors.

    For non-exemplar methods: total == meta_ce + lam * align.
    For ``eiml``:             total == meta_ce + lam_old * align_old
                                               + lam_new * align_new.
    ``sqdists`` holds the query-to-prototype squared distances meta_ce
    was computed from.
    """

    method: MethodKind
    total: Tensor
    meta_ce: Tensor
    align: Tensor | None
    lam: float
    align_old: Tensor | None = None
    align_new: Tensor | None = None
    lam_old: float | None = None
    lam_new: float | None = None
    sqdists: Tensor | None = None


# ---- cores: each formula once, on embeddings of the rows it scores ----


def ida_kl(
    z, z_teacher: Array, anchors: AnchorSet, temperature: float,
    kl_order: str = "student_first",
) -> Tensor:
    """Mean KL between the posteriors over `anchors` of `z` and of the teacher's `z_teacher`.

    The teacher side is a constant.  ``kl_order`` picks which distribution
    is the KL's first argument.
    """
    if kl_order not in KL_ORDERS:
        raise ValueError(f"kl_order must be one of {KL_ORDERS}, got {kl_order!r}")
    if len(anchors) == 0:
        raise ValueError("anchor subset is empty")
    student = discriminant(z, anchors, temperature)
    teacher = discriminant(z_teacher, anchors, temperature)
    if kl_order == "student_first":
        p, q = student, teacher
    else:
        p, q = teacher, student
    return ad.tmean(ad.kl_div_rows(p, q))


def feature_drift(z, z_teacher: Array) -> Tensor:
    """Mean over rows of the squared L2 distance between `z` and the teacher's `z_teacher`."""
    diff = ad.sub(z, ad.constant(z_teacher))
    return ad.scale(ad.tsum(ad.mul(diff, diff)), 1.0 / z_teacher.shape[0])


def exemplar_kl(z, z_teacher: Array, exemplar_episode: Episode, temperature: float) -> Tensor:
    """EIML's align_old from both models' embeddings of ``exemplar_episode.all_inputs()``.

    Each model scores the exemplar queries against prototypes recomputed
    from its own embedding of the exemplar support; the teacher's
    posterior is the KL's first argument.
    """
    sy, ways = exemplar_episode.support_y, exemplar_episode.n_ways
    d_teacher = ad.proto_sqdist(z_teacher, sy, ways)
    d_student = ad.proto_sqdist(z, sy, ways)
    p_teacher = ad.softmax_rows(ad.scale(d_teacher, -1.0), temperature)
    p_student = ad.softmax_rows(ad.scale(d_student, -1.0), temperature)
    return ad.tmean(ad.kl_div_rows(p_teacher, p_student))


# ---- objectives: embed, then call the cores ----


def meta_xent_loss(
    params: ParamStore | BoundParams, episode: Episode, temperature: float,
) -> tuple[Tensor, Tensor]:
    """Mean over queries of ||z - c_y||^2 / T + log sum_k exp(-||z - c_k||^2 / T).

    Returns ``(loss, sqdists)``: the loss and the query-to-prototype
    squared distances it was computed from.
    """
    d = ad.proto_sqdist(embed(params, episode.all_inputs()), episode.support_y, episode.n_ways)
    return ad.proto_xent(d, episode.query_y, temperature), d


def incremental_objective(
    method: MethodKind | str,
    old: ModelSnapshot | None,
    new_params: ParamStore | BoundParams,
    episode: Episode,
    aux: AlignAux,
    lam: float,
    temperature: float,
    kl_order: str = "student_first",
    lam_old: float | None = None,
    lam_new: float | None = None,
) -> LossBreakdown:
    """Episodic cross-entropy plus the method's weighted alignment term.

    The episode's inputs are embedded once, and the meta term and the
    alignment term both read that embedding; the teacher's side is read
    from `aux`, and a missing ``aux`` field an aligning method needs raises
    ``ValueError``.  With a zero weight the alignment branch is skipped
    outright, before any of those checks, so the total *is* the meta term,
    bitwise.
    """
    method = MethodKind(method)
    if lam < 0:
        raise ValueError(f"lambda must be non-negative, got {lam}")
    z = embed(new_params, episode.all_inputs())
    d = ad.proto_sqdist(z, episode.support_y, episode.n_ways)
    meta = ad.proto_xent(d, episode.query_y, temperature)
    zero = ad.constant(0.0)

    if method in (MethodKind.NU, MethodKind.FT, MethodKind.PAR):
        return LossBreakdown(method, meta, meta, zero, lam, sqdists=d)

    if method is MethodKind.EIML:
        lo = lam if lam_old is None else lam_old
        ln = lam if lam_new is None else lam_new
        if lo < 0 or ln < 0:
            raise ValueError("lambda_old and lambda_new must be non-negative")
        if lo == 0.0 and ln == 0.0:
            return LossBreakdown(method, meta, meta, None, lam, zero, zero, lo, ln, d)
        if old is None:
            raise ValueError("eiml needs a frozen teacher snapshot")
        ex = aux.exemplar_episode
        if ex is None:
            raise ValueError("eiml needs an exemplar episode in aux")
        if aux.teacher_z is None or aux.exemplar_teacher_z is None:
            raise ValueError("eiml needs teacher_z and exemplar_teacher_z in aux")
        a_old = exemplar_kl(embed(new_params, ex.all_inputs()), aux.exemplar_teacher_z,
                            ex, temperature)
        # align_new is IDA over the exemplar classes' stored anchors; only it takes kl_order
        a_new = ida_kl(z, aux.teacher_z, old.anchors.restrict(ex.class_map),
                       temperature, kl_order)
        total = ad.add(ad.add(meta, ad.scale(a_old, lo)), ad.scale(a_new, ln))
        return LossBreakdown(method, total, meta, None, lam, a_old, a_new, lo, ln, d)

    # ida / dfa, both on the episode's own rows
    if lam == 0.0:
        return LossBreakdown(method, meta, meta, zero, lam, sqdists=d)
    if old is None:
        raise ValueError(f"{method.value} needs a frozen teacher snapshot")
    if method is MethodKind.IDA and aux.anchors is None:
        raise ValueError("ida needs an anchor subset in aux")
    if aux.teacher_z is None:
        raise ValueError(f"{method.value} needs teacher_z in aux")
    if method is MethodKind.IDA:
        align = ida_kl(z, aux.teacher_z, aux.anchors, temperature, kl_order)
    else:
        align = feature_drift(z, aux.teacher_z)
    total = ad.add(meta, ad.scale(align, lam))
    return LossBreakdown(method, total, meta, align, lam, sqdists=d)
