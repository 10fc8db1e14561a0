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
    compute_prototypes,
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
    """Per-step side inputs the alignment terms need."""

    anchors: AnchorSet | None = None
    batch: Array | None = None
    exemplar_episode: Episode | None = None


@dataclass
class LossBreakdown:
    """Total objective plus its components, all as scalar tensors.

    For non-exemplar methods: total == meta_ce + lam * align.
    For ``eiml``:             total == meta_ce + lam_old * align_old
                                               + lam_new * align_new.
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


def query_sqdists(params: ParamStore | BoundParams, episode: Episode) -> tuple[Tensor, Array]:
    """Squared distances from query embeddings to support prototypes."""
    zs = embed(params, episode.support_x)
    protos = compute_prototypes(zs, episode.support_y, episode.n_ways)
    zq = embed(params, episode.query_x)
    return ad.pairwise_sqdist(zq, protos), episode.query_y


def meta_xent_loss(
    params: ParamStore | BoundParams, episode: Episode, temperature: float
) -> Tensor:
    """Mean over queries of ||z - c_y||^2 / T + log sum_k exp(-||z - c_k||^2 / T)."""
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    return prototype_xent(*query_sqdists(params, episode), temperature)


def prototype_xent(d, y, temperature: float) -> Tensor:
    """Mean over rows of d[y] / T + log sum_k exp(-d_k / T).

    `d` holds query-to-prototype squared distances, on a tape or as a plain array.
    """
    pull = ad.scale(ad.take_per_row(d, y), 1.0 / temperature)
    spread = ad.logsumexp_rows(ad.scale(d, -1.0 / temperature))
    return ad.tmean(ad.add(pull, spread))


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
    if kl_order not in KL_ORDERS:
        raise ValueError(f"kl_order must be one of {KL_ORDERS}, got {kl_order!r}")
    batch_x = np.asarray(batch_x, dtype=np.float64)
    if batch_x.ndim != 2 or batch_x.shape[0] == 0:
        raise ValueError("alignment batch must be a non-empty 2-D array")
    if len(anchor_subset) == 0:
        raise ValueError("anchor subset is empty")
    student = discriminant(embed(new_params, batch_x), anchor_subset, temperature)
    teacher = discriminant(embed(old.params, batch_x), anchor_subset, temperature)
    if kl_order == "student_first":
        p, q = student, teacher
    else:
        p, q = teacher, student
    return ad.tmean(ad.kl_div_rows(p, q))


def dfa_loss(
    old: ModelSnapshot, new_params: ParamStore | BoundParams, batch_x: Array
) -> Tensor:
    """Mean squared L2 distance between updated and frozen embeddings."""
    batch_x = np.asarray(batch_x, dtype=np.float64)
    if batch_x.ndim != 2 or batch_x.shape[0] == 0:
        raise ValueError("alignment batch must be a non-empty 2-D array")
    z_new = embed(new_params, batch_x)
    z_old = embed(old.params, batch_x)
    diff = ad.sub(z_new, ad.constant(z_old.data))
    return ad.scale(ad.tsum(ad.mul(diff, diff)), 1.0 / batch_x.shape[0])


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
    d_teacher, _ = query_sqdists(old.params, exemplar_episode)
    d_student, _ = query_sqdists(new_params, exemplar_episode)
    p_teacher = ad.softmax_rows(ad.scale(d_teacher, -1.0), temperature)
    p_student = ad.softmax_rows(ad.scale(d_student, -1.0), temperature)
    align_old = ad.tmean(ad.kl_div_rows(p_teacher, p_student))

    anchors = old.anchors.restrict(exemplar_episode.class_map)
    align_new = ida_loss(old, new_params, batch_x, anchors, temperature, kl_order)
    return align_old, align_new


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

    With a zero weight the alignment branch is skipped outright, so the
    total *is* the meta term, bitwise.
    """
    method = MethodKind(method)
    if lam < 0:
        raise ValueError(f"lambda must be non-negative, got {lam}")
    meta = meta_xent_loss(new_params, episode, temperature)
    zero = ad.constant(0.0)

    if method in (MethodKind.NU, MethodKind.FT, MethodKind.PAR):
        return LossBreakdown(method, meta, meta, zero, lam)

    if method is MethodKind.EIML:
        lo = lam if lam_old is None else lam_old
        ln = lam if lam_new is None else lam_new
        if lo < 0 or ln < 0:
            raise ValueError("lambda_old and lambda_new must be non-negative")
        if lo == 0.0 and ln == 0.0:
            return LossBreakdown(method, meta, meta, None, lam, zero, zero, lo, ln)
        if old is None:
            raise ValueError("eiml needs a frozen teacher snapshot")
        if aux.exemplar_episode is None:
            raise ValueError("eiml needs an exemplar episode in aux")
        batch = aux.batch if aux.batch is not None else episode.all_inputs()
        a_old, a_new = eiml_loss(
            old, new_params, aux.exemplar_episode, batch, temperature, kl_order
        )
        total = ad.add(ad.add(meta, ad.scale(a_old, lo)), ad.scale(a_new, ln))
        return LossBreakdown(method, total, meta, None, lam, a_old, a_new, lo, ln)

    # ida / dfa
    if lam == 0.0:
        return LossBreakdown(method, meta, meta, zero, lam)
    if old is None:
        raise ValueError(f"{method.value} needs a frozen teacher snapshot")
    batch = aux.batch if aux.batch is not None else episode.all_inputs()
    if method is MethodKind.IDA:
        if aux.anchors is None:
            raise ValueError("ida needs an anchor subset in aux")
        align = ida_loss(old, new_params, batch, aux.anchors, temperature, kl_order)
    else:
        align = dfa_loss(old, new_params, batch)
    total = ad.add(meta, ad.scale(align, lam))
    return LossBreakdown(method, total, meta, align, lam)
