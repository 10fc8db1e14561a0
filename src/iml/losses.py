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

import numpy as np

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
    embedded once per round.  When unset, the objective embeds those rows
    through the teacher itself.
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


def episode_sqdists(z, episode: Episode) -> Tensor:
    """Query-to-prototype squared distances from one embedding of ``episode.all_inputs()``.

    Support rows come first, so on a tape one embedding serves prototypes
    and queries.
    """
    return ad.proto_sqdist(z, episode.support_y, episode.n_ways)


def prototype_xent(d, y, temperature: float) -> Tensor:
    """Mean over rows of d[y] / T + log sum_k exp(-d_k / T).

    `d` holds query-to-prototype squared distances, on a tape or as a plain array.
    """
    return ad.proto_xent(d, y, temperature)


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
    d_teacher = episode_sqdists(z_teacher, exemplar_episode)
    d_student = episode_sqdists(z, exemplar_episode)
    p_teacher = ad.softmax_rows(ad.scale(d_teacher, -1.0), temperature)
    p_student = ad.softmax_rows(ad.scale(d_student, -1.0), temperature)
    return ad.tmean(ad.kl_div_rows(p_teacher, p_student))


# ---- public losses: embed, then call the core ----


def _alignment_batch(batch_x: Array) -> Array:
    batch_x = np.asarray(batch_x, dtype=np.float64)
    if batch_x.ndim != 2 or batch_x.shape[0] == 0:
        raise ValueError("alignment batch must be a non-empty 2-D array")
    return batch_x


def query_sqdists(params: ParamStore | BoundParams, episode: Episode) -> tuple[Tensor, Array]:
    """Squared distances from query embeddings to support prototypes."""
    return episode_sqdists(embed(params, episode.all_inputs()), episode), episode.query_y


def meta_xent_loss(
    params: ParamStore | BoundParams, episode: Episode, temperature: float,
    return_sqdists: bool = False,
) -> Tensor | tuple[Tensor, Tensor]:
    """Mean over queries of ||z - c_y||^2 / T + log sum_k exp(-||z - c_k||^2 / T).

    With ``return_sqdists``, returns ``(loss, sqdists)``: the loss and the
    query-to-prototype squared distances it was computed from.
    """
    d, y = query_sqdists(params, episode)
    loss = prototype_xent(d, y, temperature)
    return (loss, d) if return_sqdists else loss


def ida_loss(
    old: ModelSnapshot,
    new_params: ParamStore | BoundParams,
    batch_x: Array,
    anchor_subset: AnchorSet,
    temperature: float,
    kl_order: str = "student_first",
) -> Tensor:
    """Mean KL between updated and frozen posteriors over the anchor subset.

    The teacher side runs through the snapshot's stored params and never
    receives gradients.  ``kl_order`` picks which distribution is the KL's
    first argument.
    """
    batch_x = _alignment_batch(batch_x)
    return ida_kl(embed(new_params, batch_x), embed(old.params, batch_x).data,
                  anchor_subset, temperature, kl_order)


def dfa_loss(
    old: ModelSnapshot, new_params: ParamStore | BoundParams, batch_x: Array
) -> Tensor:
    """Mean squared L2 distance between updated and frozen embeddings."""
    batch_x = _alignment_batch(batch_x)
    return feature_drift(embed(new_params, batch_x), embed(old.params, batch_x).data)


def eiml_loss(
    old: ModelSnapshot,
    new_params: ParamStore | BoundParams,
    exemplar_episode: Episode,
    batch_x: Array,
    temperature: float,
    kl_order: str = "student_first",
) -> tuple[Tensor, Tensor]:
    """(align_old, align_new) for the exemplar method.

    align_old: on the exemplar episode, prototypes are recomputed from the
    exemplar support through *both* backbones, and the frozen model's
    posterior over its own prototypes is matched by the updated model's
    posterior over its recomputed ones (the teacher is always the KL's
    first argument here; ``kl_order`` only affects align_new).

    align_new: identical to :func:`ida_loss` on the current batch, with the
    anchor subset fixed to the stored anchors of the exemplar episode's
    classes.
    """
    x = exemplar_episode.all_inputs()
    align_old = exemplar_kl(embed(new_params, x), embed(old.params, x).data,
                            exemplar_episode, temperature)
    anchors = old.anchors.restrict(exemplar_episode.class_map)
    align_new = ida_loss(old, new_params, batch_x, anchors, temperature, kl_order)
    return align_old, align_new


def _teacher_z(old: ModelSnapshot, rows: Array | None, episode: Episode) -> Array:
    """The teacher's embedding of ``episode.all_inputs()``: `rows` when given."""
    return rows if rows is not None else embed(old.params, episode.all_inputs()).data


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
    alignment term both read that embedding; the teacher's side comes from
    `aux` when given.  With a zero weight the alignment branch is skipped
    outright, so the total *is* the meta term, bitwise.
    """
    method = MethodKind(method)
    if lam < 0:
        raise ValueError(f"lambda must be non-negative, got {lam}")
    z = embed(new_params, episode.all_inputs())
    d = episode_sqdists(z, episode)
    meta = prototype_xent(d, episode.query_y, temperature)
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
        a_old = exemplar_kl(embed(new_params, ex.all_inputs()),
                            _teacher_z(old, aux.exemplar_teacher_z, ex), ex, temperature)
        a_new = ida_kl(z, _teacher_z(old, aux.teacher_z, episode),
                       old.anchors.restrict(ex.class_map), temperature, kl_order)
        total = ad.add(ad.add(meta, ad.scale(a_old, lo)), ad.scale(a_new, ln))
        return LossBreakdown(method, total, meta, None, lam, a_old, a_new, lo, ln, d)

    # ida / dfa, both on the episode's own rows
    if lam == 0.0:
        return LossBreakdown(method, meta, meta, zero, lam, sqdists=d)
    if old is None:
        raise ValueError(f"{method.value} needs a frozen teacher snapshot")
    if method is MethodKind.IDA:
        if aux.anchors is None:
            raise ValueError("ida needs an anchor subset in aux")
        align = ida_kl(z, _teacher_z(old, aux.teacher_z, episode), aux.anchors,
                       temperature, kl_order)
    else:
        align = feature_drift(z, _teacher_z(old, aux.teacher_z, episode))
    total = ad.add(meta, ad.scale(align, lam))
    return LossBreakdown(method, total, meta, align, lam, sqdists=d)
