import numpy as np
import pytest

import iml.autodiff as ad
from iml.data import Episode
from iml.model import (
    AnchorSet,
    BackboneConfig,
    ModelSnapshot,
    ParamStore,
    SnapshotMeta,
    discriminant,
    embed,
    freeze_snapshot,
    init_backbone,
    merge_anchor_sets,
    prototype_sqdists,
    score_episode,
)


def test_backbone_config_dims():
    cfg = BackboneConfig(16, (32, 8), 4)
    assert cfg.dims == (16, 32, 8, 4)
    with pytest.raises(ValueError):
        BackboneConfig(0, (4,), 2)
    with pytest.raises(ValueError):
        BackboneConfig(3, (0,), 2)


def test_init_shapes_and_zero_biases():
    cfg = BackboneConfig(6, (10, 7), 3)
    ps = init_backbone(cfg, 0)
    assert [w.shape for w in ps.weights] == [(6, 10), (10, 7), (7, 3)]
    for b in ps.biases:
        assert np.array_equal(b, np.zeros_like(b))
    assert ps.n_params() == 6 * 10 + 10 + 10 * 7 + 7 + 7 * 3 + 3


def test_init_weight_variance():
    """Uniform fan-in init should land near variance 2/fan_in."""
    cfg = BackboneConfig(100, (200,), 100)
    ps = init_backbone(cfg, 1)
    for w in ps.weights:
        fan_in = w.shape[0]
        v = w.var()
        assert 0.8 * 2.0 / fan_in < v < 1.2 * 2.0 / fan_in


def test_init_deterministic_in_seed():
    cfg = BackboneConfig(5, (8,), 4)
    a = init_backbone(cfg, 42)
    b = init_backbone(cfg, 42)
    c = init_backbone(cfg, 43)
    for x, y in zip(a.arrays(), b.arrays()):
        assert np.array_equal(x, y)
    assert any(not np.array_equal(x, y) for x, y in zip(a.arrays(), c.arrays()))


def test_param_store_validation():
    with pytest.raises(ValueError, match="fan-in"):
        ParamStore([np.zeros((3, 4)), np.zeros((5, 2))], [np.zeros(4), np.zeros(2)])
    with pytest.raises(ValueError, match="disagree"):
        ParamStore([np.zeros((3, 4))], [np.zeros(5)])
    with pytest.raises(ValueError):
        ParamStore([], [])


def test_param_store_copy_is_deep():
    ps = init_backbone(BackboneConfig(3, (4,), 2), 0)
    cp = ps.copy()
    cp.weights[0][0, 0] = 123.0
    assert ps.weights[0][0, 0] != 123.0


def test_param_store_is_one_flat_buffer():
    ps = init_backbone(BackboneConfig(3, (4, 5), 2), 0)
    assert ps.flat.shape == (ps.n_params(),)
    start = 0
    for a in ps.arrays():
        assert a.base is ps.flat
        assert np.array_equal(ps.flat[start:start + a.size], a.ravel())
        start += a.size
    assert start == ps.flat.size
    assert all(a is b for a, b in zip(ps.arrays()[0::2], ps.weights))
    assert all(a is b for a, b in zip(ps.arrays()[1::2], ps.biases))
    ps.flat[0] = 5.0
    assert ps.weights[0][0, 0] == 5.0
    cp = ps.copy()
    assert not np.shares_memory(cp.flat, ps.flat)
    assert all(a.base is cp.flat for a in cp.arrays())
    for x, y in zip(cp.arrays(), ps.arrays()):
        assert np.array_equal(x, y)
    # the constructor copies its inputs too
    w = np.ones((2, 2))
    assert not np.shares_memory(ParamStore([w], [np.zeros(2)]).flat, w)


def test_embed_accepts_store_and_bound():
    rng = np.random.default_rng(0)
    ps = init_backbone(BackboneConfig(4, (6,), 3), 0)
    x = rng.standard_normal((7, 4))
    plain = embed(ps, x)
    tape = ad.Tape()
    bound = embed(ps.bind(tape), tape.leaf(x))
    assert np.array_equal(plain.data, bound.data)
    assert plain.data.shape == (7, 3)


def test_embed_final_layer_linear():
    # a final relu would clip negatives; embeddings must carry both signs
    ps = init_backbone(BackboneConfig(8, (16,), 8), 3)
    x = np.random.default_rng(3).standard_normal((50, 8))
    z = embed(ps, x).data
    assert (z < 0).any() and (z > 0).any()


def test_prototypes_are_exact_class_means():
    rng = np.random.default_rng(1)
    z = rng.standard_normal((12, 5))
    labels = np.array([0, 0, 1, 1, 2, 2, 0, 1, 2, 0, 1, 2])
    tape = ad.Tape()
    protos = ad.class_means(tape.leaf(z), labels, 3)
    for c in range(3):
        assert np.array_equal(protos.data[c], z[labels == c].mean(axis=0))


def test_prototype_sqdists_match_tape_ops():
    """Bitwise the distances to `class_means` prototypes, labels in any order."""
    rng = np.random.default_rng(4)
    for ways, shots in ((2, 1), (5, 5), (20, 5), (7, 3)):
        sy = rng.permutation(np.repeat(np.arange(ways), shots))
        zs = rng.standard_normal((ways * shots, 16)) * 10.0 ** rng.uniform(-3, 3)
        zq = rng.standard_normal((3 * ways, 16))
        ep = Episode(zs, sy, zq, np.zeros(3 * ways, dtype=np.int64), tuple(range(ways)))
        want = ad.pairwise_sqdist(zq, ad.class_means(zs, sy, ways)).data
        assert np.array_equal(prototype_sqdists(zs, zq, ep), want)


def test_prototype_sqdists_needs_equal_classes():
    z = np.zeros((3, 2))
    for sy in ([0, 0, 1], [0, 0, 0]):
        ep = Episode(z, np.array(sy), z, np.array([0, 1, 1]), (5, 6))
        with pytest.raises(ValueError, match="equally many rows"):
            prototype_sqdists(z, z, ep)


def test_anchor_set_basics():
    a = AnchorSet((3, 7), np.ones((2, 4)))
    assert len(a) == 2
    assert a.dim == 4
    with pytest.raises(ValueError, match="unique"):
        AnchorSet((3, 3), np.ones((2, 4)))
    with pytest.raises(ValueError, match="one row per class"):
        AnchorSet((3, 7), np.ones((3, 4)))


def test_anchor_restrict_preserves_request_order():
    a = AnchorSet((1, 2, 3), np.arange(6.0).reshape(3, 2))
    r = a.restrict((3, 1))
    assert r.class_ids == (3, 1)
    assert np.array_equal(r.centers, [[4.0, 5.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="no stored anchors"):
        a.restrict((9,))


def test_merge_anchor_sets():
    a = AnchorSet((0, 1), np.zeros((2, 3)), round_tag=0)
    b = AnchorSet((5, 6), np.ones((2, 3)), round_tag=2)
    m = merge_anchor_sets(a, b)
    assert m.class_ids == (0, 1, 5, 6)
    assert m.round_tag == 2
    assert np.array_equal(m.centers[2:], np.ones((2, 3)))
    with pytest.raises(ValueError, match="overlap"):
        merge_anchor_sets(a, AnchorSet((1, 9), np.ones((2, 3))))


def test_discriminant_rows_sum_to_one():
    rng = np.random.default_rng(2)
    z = rng.standard_normal((30, 6))
    anchors = AnchorSet(tuple(range(8)), rng.standard_normal((8, 6)))
    tape = ad.Tape()
    d = discriminant(tape.leaf(z), anchors, 2.0)
    assert d.data.shape == (30, 8)
    assert np.all(np.abs(d.data.sum(axis=1) - 1.0) < 1e-12)


def test_discriminant_prefers_nearest_anchor():
    anchors = AnchorSet((0, 1), np.array([[0.0, 0.0], [10.0, 10.0]]))
    tape = ad.Tape()
    d = discriminant(tape.leaf(np.array([[0.1, 0.1]])), anchors, 1.0)
    assert d.data[0, 0] > 0.99


def test_freeze_snapshot_detaches_params():
    ps = init_backbone(BackboneConfig(3, (4,), 2), 0)
    anchors = AnchorSet((0,), np.zeros((1, 2)))
    snap = freeze_snapshot(BackboneConfig(3, (4,), 2), ps, anchors,
                           SnapshotMeta(seed=0, round_index=0, method="base"))
    ps.weights[0][0, 0] = 77.0
    assert snap.params.weights[0][0, 0] != 77.0
    assert isinstance(snap, ModelSnapshot)


def test_freeze_snapshot_rejects_mismatched_shapes():
    cfg = BackboneConfig(3, (4,), 2)
    good = init_backbone(cfg, 0)
    wrong = init_backbone(BackboneConfig(3, (5,), 2), 0)
    meta = SnapshotMeta(0, 0, "base")
    with pytest.raises(ValueError, match="do not fit"):
        freeze_snapshot(cfg, wrong, AnchorSet((0,), np.zeros((1, 2))), meta)
    with pytest.raises(ValueError, match="anchor width"):
        freeze_snapshot(cfg, good, AnchorSet((0,), np.zeros((1, 3))), meta)


def episode_for_scoring():
    # class 0 near the origin, class 1 near (4,4): queries unambiguous
    sx = np.array([[0.0, 0.0], [0.1, 0.0], [4.0, 4.0], [4.1, 4.0]])
    sy = np.array([0, 0, 1, 1])
    qx = np.array([[0.05, 0.0], [3.9, 4.0]])
    qy = np.array([0, 1])
    return Episode(sx, sy, qx, qy, class_map=(10, 20))


def test_score_episode_identity_net():
    # single linear layer initialized to identity keeps the geometry
    ps = ParamStore([np.eye(2)], [np.zeros(2)])
    ep = episode_for_scoring()
    assert score_episode(ps, ep) == 1.0

