import math

import numpy as np
import pytest

import iml.autodiff as ad
from iml.data import Episode, EpisodeSpec, SyntheticSpec, gen_synthetic, sample_episode, uniform_offset
from iml.losses import (
    MethodKind,
    exemplar_kl,
    feature_drift,
    ida_kl,
    incremental_objective,
    meta_xent_loss,
)
from iml.model import (
    AnchorSet,
    BackboneConfig,
    BoundParams,
    ParamStore,
    SnapshotMeta,
    embed,
    freeze_snapshot,
    init_backbone,
)


def identity_params(dim=2):
    return shifted_params(np.zeros(dim))


def shifted_params(delta):
    """One linear layer: the identity map plus the bias `delta`."""
    dim = len(delta)
    return ParamStore(BackboneConfig(dim, (), dim), np.concatenate([np.eye(dim).ravel(), delta]))


def snapshot_for(params, anchors=None):
    if anchors is None:
        anchors = AnchorSet((0, 1), np.array([[0.0, 0.0], [3.0, 0.0]]))
    return freeze_snapshot(params, anchors, SnapshotMeta(0, 0, "base"))


def two_way_episode():
    # identity net: prototypes land exactly on the single support points
    sx = np.array([[0.0, 0.0], [math.sqrt(2.0), 0.0]])
    sy = np.array([0, 1])
    qx = np.array([[0.0, 0.0]])
    qy = np.array([0])
    return Episode(np.vstack([sx, qx]), sy, qy, class_map=(0, 1))


def synthetic_episode(seed=0, ways=3, shots=2, queries=4):
    spec = SyntheticSpec(classes_per_domain=4, dim=5, cluster_std=0.3,
                         domain_offset=uniform_offset(2.0, 5),
                         samples_per_class=20, seed=seed)
    ds = gen_synthetic(spec)
    return sample_episode(ds, EpisodeSpec(ways, shots, queries), np.random.default_rng(seed))


def test_query_sqdists_shape():
    ep = synthetic_episode()
    params = init_backbone(BackboneConfig(5, (8,), 4), 0)
    loss, d = meta_xent_loss(params, ep, 2.0)
    assert d.data.shape == (12, 3)
    assert float(loss) == float(ad.proto_xent(d, ep.query_y, 2.0))


def test_meta_xent_frozen_value():
    """One query at its own prototype, the other prototype sqdist 2 away, T=2.

    loss = 0/2 + ln(exp(0) + exp(-1)) = ln(1 + e^-1)
    """
    loss, _ = meta_xent_loss(identity_params(), two_way_episode(), 2.0)
    assert abs(float(loss) - 0.31326168751822286) < 1e-15


def test_meta_xent_coincident_prototypes():
    # all prototypes identical -> uniform posterior -> loss = ln K
    sx = np.tile([1.0, -1.0], (4, 1))
    sy = np.arange(4)
    qx = np.array([[5.0, 5.0], [0.0, 0.0]])
    qy = np.array([2, 0])
    ep = Episode(np.vstack([sx, qx]), sy, qy, class_map=(0, 1, 2, 3))
    loss, _ = meta_xent_loss(identity_params(), ep, 2.0)
    assert abs(float(loss) - math.log(4.0)) < 1e-12


def test_meta_xent_decreases_with_separation():
    params = identity_params()
    losses = []
    for gap in (0.5, 2.0, 8.0):
        x = np.array([[0.0, 0.0], [gap, 0.0], [0.0, 0.0]])  # two support rows, one query
        ep = Episode(x, np.array([0, 1]), np.array([0]), class_map=(0, 1))
        losses.append(float(meta_xent_loss(params, ep, 2.0)[0]))
    assert losses[0] > losses[1] > losses[2]


def test_meta_xent_rejects_bad_temperature():
    with pytest.raises(ValueError, match="temperature"):
        meta_xent_loss(identity_params(), two_way_episode(), 0.0)


def embeddings(old, params, x):
    """Student embedding of `x` and the teacher's, as the loss cores take them."""
    return embed(params, x), embed(old.params, x).data


def centers_of(old, class_ids):
    """The teacher's stored centres of `class_ids`, in that order, as the trainer gathers them."""
    return old.anchors.centers[[old.anchors.class_ids.index(c) for c in class_ids]]


def test_ida_zero_when_student_equals_teacher():
    params = identity_params()
    old = snapshot_for(identity_params())
    batch = np.random.default_rng(0).standard_normal((10, 2))
    # same weights on both sides: distributions coincide, KL exactly 0
    old2 = snapshot_for(params)
    loss = ida_kl(*embeddings(old2, params.copy(), batch), old2.anchors.centers, 2.0)
    assert float(loss) == 0.0
    assert float(ida_kl(*embeddings(old, params, batch), old.anchors.centers, 2.0,
                        kl_order="teacher_first")) == 0.0


def test_ida_positive_when_params_differ():
    old = snapshot_for(identity_params())
    moved = shifted_params([0.8, -0.4])
    batch = np.random.default_rng(1).standard_normal((12, 2))
    z, zt = embeddings(old, moved, batch)
    a = float(ida_kl(z, zt, old.anchors.centers, 2.0))
    b = float(ida_kl(z, zt, old.anchors.centers, 2.0, kl_order="teacher_first"))
    assert a > 0 and b > 0
    assert a != b  # KL is asymmetric


def test_ida_validation():
    old = snapshot_for(identity_params())
    z, zt = embeddings(old, identity_params(), np.ones((2, 2)))
    with pytest.raises(ValueError, match="kl_order"):
        ida_kl(z, zt, old.anchors.centers, 2.0, kl_order="both")
    with pytest.raises(ValueError, match="anchor subset is empty"):
        ida_kl(z, zt, np.zeros((0, 2)), 2.0)


def test_ida_gradients():
    rng = np.random.default_rng(2)
    cfg = BackboneConfig(4, (6,), 3)
    old = freeze_snapshot(init_backbone(cfg, 0),
                          AnchorSet((0, 1, 2), rng.standard_normal((3, 3))),
                          SnapshotMeta(0, 0, "base"))
    student = init_backbone(cfg, 1)
    batch = rng.standard_normal((6, 4))
    zt = embed(old.params, batch).data
    for order in ("student_first", "teacher_first"):
        err = ad.grad_check(
            lambda ls: ida_kl(embed(BoundParams(ls[0], student.layout), batch), zt,
                              old.anchors.centers, 2.0, kl_order=order),
            [student.flat],
        )
        assert err < 1e-6, (order, err)


def test_dfa_zero_and_known_displacement():
    old = snapshot_for(identity_params())
    batch = np.random.default_rng(3).standard_normal((7, 2))
    assert float(feature_drift(*embeddings(old, identity_params(), batch))) == 0.0
    # identity vs identity+bias: every embedding moves by delta exactly
    moved = shifted_params([1.0, 2.0])
    assert abs(float(feature_drift(*embeddings(old, moved, batch))) - 5.0) < 1e-12


def test_dfa_gradients():
    rng = np.random.default_rng(4)
    cfg = BackboneConfig(4, (5,), 3)
    old = freeze_snapshot(init_backbone(cfg, 0),
                          AnchorSet((0,), np.zeros((1, 3))), SnapshotMeta(0, 0, "base"))
    student = init_backbone(cfg, 1)
    batch = rng.standard_normal((5, 4))
    zt = embed(old.params, batch).data
    err = ad.grad_check(
        lambda ls: feature_drift(embed(BoundParams(ls[0], student.layout), batch), zt),
        [student.flat])
    assert err < 1e-6


def eiml_fixture(seed=0):
    rng = np.random.default_rng(seed)
    cfg = BackboneConfig(5, (8,), 4)
    old_params = init_backbone(cfg, 10)
    ep = synthetic_episode(seed=seed)
    anchors = AnchorSet(ep.class_map, rng.standard_normal((ep.n_ways, 4)))
    old = freeze_snapshot(old_params, anchors, SnapshotMeta(0, 0, "base"))
    batch = rng.standard_normal((9, 5))
    return old, ep, batch, cfg


def eiml_terms(old, params, ex, batch):
    """EIML's (align_old, align_new) from the cores: exemplar KL, and IDA on `ex`'s anchors."""
    a_old = exemplar_kl(*embeddings(old, params, ex.inputs), ex, 2.0)
    a_new = ida_kl(*embeddings(old, params, batch), centers_of(old, ex.class_map), 2.0)
    return a_old, a_new


def test_eiml_zero_for_identical_params():
    old, ep, batch, _ = eiml_fixture()
    a_old, a_new = eiml_terms(old, old.params.copy(), ep, batch)
    assert float(a_old) == 0.0
    assert float(a_new) == 0.0


def test_eiml_align_new_matches_ida_on_episode_anchors():
    """The objective's align_new is IDA on the task rows over the exemplar classes' anchors."""
    old, ep, _, cfg = eiml_fixture()
    student = init_backbone(cfg, 11)
    task = synthetic_episode(2)
    br = incremental_objective(MethodKind.EIML, student, task, 1.0, 2.0,
                               **eiml_inputs(old, task, ep))
    direct = ida_kl(*embeddings(old, student, task.inputs),
                    centers_of(old, ep.class_map), 2.0)
    assert float(br.terms["align_new"][1]) == float(direct)


def test_eiml_gradients():
    old, ep, batch, cfg = eiml_fixture(1)
    student = init_backbone(cfg, 12)
    err = ad.grad_check(
        lambda ls: ad.add(*eiml_terms(old, BoundParams(ls[0], student.layout), ep, batch)),
        [student.flat])
    assert err < 1e-6


# ---- objective composition ----


def test_objective_ft_is_pure_meta():
    ep = synthetic_episode()
    params = init_backbone(BackboneConfig(5, (8,), 4), 0)
    br = incremental_objective(MethodKind.FT, params, ep, 1.0, 2.0)
    assert br.total is br.meta_ce
    assert br.terms == {}
    want = float(meta_xent_loss(params, ep, 2.0)[0])
    assert float(br.total) == want


def test_objective_nu_and_par_same_shape():
    ep = synthetic_episode()
    params = init_backbone(BackboneConfig(5, (8,), 4), 0)
    for m in (MethodKind.NU, MethodKind.PAR):
        br = incremental_objective(m, params, ep, 1.0, 2.0)
        assert br.total is br.meta_ce
        assert br.method == m


def teacher_rows(old, ep):
    """The teacher's embedding of the episode's rows, as a per-round table would give them."""
    return embed(old.params, ep.inputs).data


def test_objective_ida_lambda_zero_short_circuits():
    old, ep, _, cfg = eiml_fixture()
    student = init_backbone(cfg, 2)
    br = incremental_objective(MethodKind.IDA, student, ep, 0.0, 2.0, anchors=old.anchors.centers,
                               teacher_z=teacher_rows(old, ep))
    assert br.total is br.meta_ce
    assert br.terms == {}


def test_objective_ida_composition():
    old, ep, _, cfg = eiml_fixture()
    student = init_backbone(cfg, 3)
    br = incremental_objective(MethodKind.IDA, student, ep, 2.0, 2.0, anchors=old.anchors.centers,
                               teacher_z=teacher_rows(old, ep))
    meta = float(meta_xent_loss(student, ep, 2.0)[0])
    align = float(ida_kl(*embeddings(old, student, ep.inputs), old.anchors.centers, 2.0))
    assert abs(float(br.total) - (meta + 2.0 * align)) < 1e-12
    assert list(br.terms) == ["align"]
    weight, value = br.terms["align"]
    assert weight == 2.0 and float(value) == align


def test_objective_ida_requires_anchors():
    old, ep, _, cfg = eiml_fixture()
    with pytest.raises(ValueError, match="ida needs anchors$"):
        incremental_objective(MethodKind.IDA, init_backbone(cfg, 5), ep, 1.0, 2.0,
                              teacher_z=teacher_rows(old, ep))


def test_objective_dfa_composition():
    old, ep, _, cfg = eiml_fixture()
    student = init_backbone(cfg, 6)
    br = incremental_objective(MethodKind.DFA, student, ep, 0.5, 2.0,
                               teacher_z=teacher_rows(old, ep))
    meta = float(meta_xent_loss(student, ep, 2.0)[0])
    align = float(feature_drift(*embeddings(old, student, ep.inputs)))
    assert abs(float(br.total) - (meta + 0.5 * align)) < 1e-12
    weight, value = br.terms["align"]
    assert weight == 0.5 and float(value) == align


def eiml_inputs(old, task, ex):
    """EIML's teacher-side inputs as the trainer passes them: `ex`'s classes' anchors."""
    return dict(teacher_z=teacher_rows(old, task), anchors=centers_of(old, ex.class_map),
                exemplar_episode=ex, exemplar_teacher_z=teacher_rows(old, ex))


def test_objective_eiml_composition_and_defaults():
    old, ep, _, cfg = eiml_fixture()
    student = init_backbone(cfg, 7)
    task = synthetic_episode(2)
    br = incremental_objective(MethodKind.EIML, student, task, 1.5, 2.0,
                               **eiml_inputs(old, task, ep))
    # lam_old and lam_new default to lam
    assert list(br.terms) == ["align_old", "align_new"]
    assert [w for w, _ in br.terms.values()] == [1.5, 1.5]
    a_old, a_new = eiml_terms(old, student, ep, task.inputs)
    meta = float(meta_xent_loss(student, task, 2.0)[0])
    want = meta + 1.5 * float(a_old) + 1.5 * float(a_new)
    assert abs(float(br.total) - want) < 1e-12
    assert float(br.terms["align_old"][1]) == float(a_old)
    assert float(br.terms["align_new"][1]) == float(a_new)


def test_objective_eiml_split_weights():
    old, ep, _, cfg = eiml_fixture()
    student = init_backbone(cfg, 8)
    task = synthetic_episode(2)
    br = incremental_objective(MethodKind.EIML, student, task, 1.0, 2.0, lam_old=0.25,
                               lam_new=3.0, **eiml_inputs(old, task, ep))
    assert [w for w, _ in br.terms.values()] == [0.25, 3.0]
    a_old, a_new = eiml_terms(old, student, ep, task.inputs)
    meta = float(meta_xent_loss(student, task, 2.0)[0])
    want = meta + 0.25 * float(a_old) + 3.0 * float(a_new)
    assert abs(float(br.total) - want) < 1e-12


def test_objective_eiml_requires_exemplar_episode():
    old, ep, _, cfg = eiml_fixture()
    with pytest.raises(ValueError, match="eiml needs anchors, exemplar_episode, exemplar_teacher_z"):
        incremental_objective(MethodKind.EIML, init_backbone(cfg, 9), ep, 1.0, 2.0,
                              teacher_z=teacher_rows(old, ep))


def test_objective_aligning_steps_require_teacher_rows():
    """A nonzero weight without a teacher input its method reads raises one error naming
    every missing input; a zero weight never reads them."""
    old, ep, _, cfg = eiml_fixture()
    student = init_backbone(cfg, 13)
    task = synthetic_episode(2)
    inputs = {
        MethodKind.DFA: dict(teacher_z=teacher_rows(old, task)),
        MethodKind.IDA: dict(teacher_z=teacher_rows(old, task), anchors=old.anchors.centers),
        MethodKind.EIML: eiml_inputs(old, task, ep),
    }
    for method, full in inputs.items():
        for drop in [[name] for name in full] + [list(full)]:
            given = {k: v for k, v in full.items() if k not in drop}
            with pytest.raises(ValueError, match=f"^{method.value} needs {', '.join(drop)}$"):
                incremental_objective(method, student, task, 1.0, 2.0, **given)
            br = incremental_objective(method, student, task, 0.0, 2.0, **given)
            assert br.total is br.meta_ce, method
    br = incremental_objective(MethodKind.EIML, student, task, 1.0, 2.0,
                               lam_old=0.0, lam_new=0.0)
    assert br.total is br.meta_ce


def test_objective_eiml_both_zero_short_circuits():
    old, ep, _, cfg = eiml_fixture()
    student = init_backbone(cfg, 9)
    task = synthetic_episode(2)
    br = incremental_objective(MethodKind.EIML, student, task, 0.0, 2.0,
                               **eiml_inputs(old, task, ep))
    assert br.total is br.meta_ce


def test_objective_student_embeds_once_per_episode():
    """One tape embedding of the stacked episode serves the meta and alignment terms."""
    old, ep, _, cfg = eiml_fixture()
    student = init_backbone(cfg, 10)
    task = synthetic_episode(2)
    want = {MethodKind.FT: 1, MethodKind.DFA: 1, MethodKind.IDA: 1, MethodKind.EIML: 2}
    for method, calls in want.items():
        tape = ad.Tape()
        bound = student.bind(tape)
        incremental_objective(method, bound, task, 1.0, 2.0, **eiml_inputs(old, task, ep))
        assert sum(n.op == "mlp" for n in tape.nodes) == calls, method


def test_objective_accepts_method_strings():
    ep = synthetic_episode()
    params = init_backbone(BackboneConfig(5, (8,), 4), 0)
    br = incremental_objective("ft", params, ep, 1.0, 2.0)
    assert br.method == MethodKind.FT
