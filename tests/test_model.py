import numpy as np
import pytest

import iml.autodiff as ad
import iml.model
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
    nearest_prototypes,
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
    assert ps.flat.size == 6 * 10 + 10 + 10 * 7 + 7 + 7 * 3 + 3


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
    cfg = BackboneConfig(3, (4,), 2)  # 3*4 + 4 + 4*2 + 2 = 26 parameters
    assert ParamStore(cfg, np.zeros(26)).flat.shape == (26,)
    for flat in (np.zeros(25), np.zeros(27), np.zeros((2, 13)), np.zeros(0)):
        with pytest.raises(ValueError, match="do not fit backbone dims"):
            ParamStore(cfg, flat)


def test_param_store_copy_is_deep():
    ps = init_backbone(BackboneConfig(3, (4,), 2), 0)
    cp = ps.copy()
    cp.weights[0][0, 0] = 123.0
    assert ps.weights[0][0, 0] != 123.0


def test_param_store_is_one_flat_buffer():
    ps = init_backbone(BackboneConfig(3, (4, 5), 2), 0)
    assert ps.flat.shape == (ps.flat.size,)
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
    assert cp.config == ps.config and cp.layout == ps.layout
    # the constructor copies its input too
    flat = np.ones(6)
    assert not np.shares_memory(ParamStore(BackboneConfig(2, (), 2), flat).flat, flat)


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


def test_score_episode_matches_class_means_chain_on_unequal_support(monkeypatch):
    """Bitwise the distances to `class_means` prototypes, at any support counts and order."""
    seen = []
    real = iml.model.nearest_prototype_accuracy
    monkeypatch.setattr(iml.model, "nearest_prototype_accuracy",
                        lambda d, y: seen.append(d) or real(d, y))
    rng = np.random.default_rng(4)
    ps = init_backbone(BackboneConfig(6, (8,), 16), 0)
    for ways, most in ((2, 1), (5, 5), (20, 5), (7, 3)):
        # class k has 1 + k % most support rows: unequal wherever most > 1
        sy = rng.permutation(np.repeat(np.arange(ways), 1 + np.arange(ways) % most))
        qy = rng.integers(0, ways, size=3 * ways)
        x = rng.standard_normal((sy.size + qy.size, 6)) * 10.0 ** rng.uniform(-3, 3)
        acc = score_episode(ps, Episode(x, sy, qy, tuple(range(ways))))
        z = embed(ps, x).data
        want = ad.pairwise_sqdist(z[sy.size:], ad.class_means(z[:sy.size], sy, ways)).data
        assert np.array_equal(seen[-1], want)
        assert acc == float((want.argmin(axis=1) == qy).mean())


def exact_nearest(support, queries):
    return ad.prototype_distances(support, queries).argmin(axis=2)


def spy_exact_calls(monkeypatch):
    """Record the episode count of every call to the exact distance kernel."""
    calls = []
    real = ad.prototype_distances

    def spy(support, queries):
        calls.append(support.shape[0])
        return real(support, queries)

    monkeypatch.setattr(ad, "prototype_distances", spy)
    return calls


@pytest.mark.parametrize("ways", [2, 5, 20])
def test_nearest_prototypes_is_exact_argmin_at_every_scale(monkeypatch, ways):
    """Spread and offset from 1e-3 to 1e3, near and far queries alike."""
    rng = np.random.default_rng(ways)
    for spread in 10.0 ** np.arange(-3, 4):
        for offset in (0.0, 1e-3, 1.0, 1e3):
            centre = offset * rng.standard_normal(16)
            support = centre + spread * rng.standard_normal((4, ways, 3, 16))
            queries = centre + spread * rng.standard_normal((4, 15 * ways, 16))
            want = exact_nearest(support, queries)
            calls = spy_exact_calls(monkeypatch)
            assert np.array_equal(nearest_prototypes(support, queries), want)
            monkeypatch.undo()
            if offset <= spread:  # no cancellation: every query is certified
                assert calls == []


def test_nearest_prototypes_duplicate_classes_tie_to_lowest_index(monkeypatch):
    rng = np.random.default_rng(0)
    support = rng.standard_normal((3, 5, 4, 16))
    support[:, 3] = support[:, 1]  # classes 1 and 3 share every support row
    queries = support[:, 1].mean(axis=1)[:, None] + 1e-3 * rng.standard_normal((3, 40, 16))
    want = exact_nearest(support, queries)
    assert (want == 1).all()
    calls = spy_exact_calls(monkeypatch)
    assert np.array_equal(nearest_prototypes(support, queries), want)
    assert calls == [1, 1, 1]  # each tied episode took the exact kernel


def test_nearest_prototypes_one_ulp_from_a_tie(monkeypatch):
    """Means 0 and 2 e_0; one episode each for a query one ulp below, at, and above 1 e_0."""
    support = np.zeros((3, 2, 2, 16))
    support[:, 1, :, 0] = 2.0
    queries = np.zeros((3, 1, 16))
    queries[:, 0, 0] = [np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)]
    for scale in (2.0 ** -20, 1.0, 2.0 ** 20):  # powers of two keep the tie exact
        want = exact_nearest(scale * support, scale * queries)
        assert want.tolist() == [[0], [0], [1]]
        calls = spy_exact_calls(monkeypatch)
        assert np.array_equal(nearest_prototypes(scale * support, scale * queries), want)
        assert calls == [1, 1, 1]  # near ties are within the bound, not only exact ones
        monkeypatch.undo()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf means
def test_nearest_prototypes_non_finite_rows_take_the_exact_kernel(monkeypatch):
    rng = np.random.default_rng(1)
    support = rng.standard_normal((6, 5, 3, 16))
    queries = rng.standard_normal((6, 20, 16))
    queries[1, 4, 2] = np.nan
    queries[2, 7] = -np.inf
    support[3, 2, 0, 5] = np.inf
    support[4, 0, 0, 1], support[4, 0, 1, 1] = np.inf, -np.inf  # a nan mean
    queries[5, 0, 0] = np.inf
    want = exact_nearest(support, queries)
    calls = spy_exact_calls(monkeypatch)
    assert np.array_equal(nearest_prototypes(support, queries), want)
    assert calls == [1] * 5  # every episode but the clean first one


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
    snap = freeze_snapshot(ps, anchors, SnapshotMeta(seed=0, round_index=0, method="base"))
    ps.weights[0][0, 0] = 77.0
    assert snap.params.weights[0][0, 0] != 77.0
    assert isinstance(snap, ModelSnapshot)


def test_freeze_snapshot_rejects_mismatched_shapes():
    cfg = BackboneConfig(3, (4,), 2)
    params = init_backbone(cfg, 0)
    meta = SnapshotMeta(0, 0, "base")
    assert freeze_snapshot(params, AnchorSet((0,), np.zeros((1, 2))), meta).config == cfg
    with pytest.raises(ValueError, match="anchor width"):
        freeze_snapshot(params, AnchorSet((0,), np.zeros((1, 3))), meta)


def episode_for_scoring():
    # class 0 near the origin, class 1 near (4,4): queries unambiguous
    sx = np.array([[0.0, 0.0], [0.1, 0.0], [4.0, 4.0], [4.1, 4.0]])
    sy = np.array([0, 0, 1, 1])
    qx = np.array([[0.05, 0.0], [3.9, 4.0]])
    qy = np.array([0, 1])
    return Episode(np.vstack([sx, qx]), sy, qy, class_map=(10, 20))


def test_score_episode_identity_net():
    # single linear layer initialized to identity keeps the geometry
    ps = ParamStore(BackboneConfig(2, (), 2), np.r_[np.eye(2).ravel(), np.zeros(2)])
    ep = episode_for_scoring()
    assert score_episode(ps, ep) == 1.0

