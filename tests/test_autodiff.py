import math

import numpy as np
import pytest

import iml.autodiff as ad


def test_leaf_copies_and_records():
    tape = ad.Tape()
    src = np.ones(3)
    t = tape.leaf(src)
    src[0] = 99.0
    assert t.data[0] == 1.0
    assert t.shape == (3,)


def test_scalar_float_conversion():
    tape = ad.Tape()
    t = tape.leaf(np.asarray(2.5))
    assert float(t) == 2.5
    v = tape.leaf(np.ones(2))
    with pytest.raises(ValueError, match="not a scalar"):
        float(v)


def test_constants_shared_between_ops():
    tape = ad.Tape()
    x = tape.leaf(np.arange(3.0))
    y = ad.add(x, ad.constant(np.ones(3)))
    assert np.allclose(y.data, [1.0, 2.0, 3.0])


def test_different_tapes_rejected():
    t1, t2 = ad.Tape(), ad.Tape()
    a = t1.leaf(np.ones(2))
    b = t2.leaf(np.ones(2))
    with pytest.raises(ValueError, match="different tapes"):
        ad.add(a, b)


def test_backward_loss_must_be_scalar():
    tape = ad.Tape()
    x = tape.leaf(np.ones(3))
    y = ad.scale(x, 2.0)
    with pytest.raises(ValueError):
        tape.backward(y, [x.node])


def test_backward_untouched_param_gets_zeros():
    tape = ad.Tape()
    x = tape.leaf(np.ones(3))
    unused = tape.leaf(np.ones(4))
    loss = ad.tsum(ad.mul(x, x))
    grads = tape.backward(loss, [x.node, unused.node])
    assert np.allclose(grads[x.node], 2.0)
    assert np.array_equal(grads[unused.node], np.zeros(4))


def test_backward_rejects_non_leaf_param():
    tape = ad.Tape()
    x = tape.leaf(np.ones(3))
    y = ad.scale(x, 2.0)
    loss = ad.tsum(y)
    with pytest.raises(ValueError, match="not a leaf"):
        tape.backward(loss, [y.node])


# ---- forward values against plain numpy / closed forms ----


def test_matmul_add_forward():
    rng = np.random.default_rng(1)
    tape = ad.Tape()
    a = tape.leaf(rng.standard_normal((5, 4)))
    b = tape.leaf(rng.standard_normal((4, 3)))
    assert np.array_equal(ad.matmul(a, b).data, a.data @ b.data)
    c = tape.leaf(rng.standard_normal((5, 4)))
    assert np.array_equal(ad.add(a, c).data, a.data + c.data)
    assert np.array_equal(ad.sub(a, c).data, a.data - c.data)
    assert np.array_equal(ad.mul(a, c).data, a.data * c.data)


def test_elementwise_shape_mismatch():
    tape = ad.Tape()
    a = tape.leaf(np.ones((2, 3)))
    b = tape.leaf(np.ones((3, 2)))
    with pytest.raises(ValueError, match="shape mismatch"):
        ad.add(a, b)


def test_relu_forward_and_subgradient_at_zero():
    tape = ad.Tape()
    x = tape.leaf(np.array([-2.0, 0.0, 3.0]))
    y = ad.relu(x)
    assert np.array_equal(y.data, [0.0, 0.0, 3.0])
    grads = tape.backward(ad.tsum(y), [x.node])
    # subgradient 0 at the kink
    assert np.array_equal(grads[x.node], [0.0, 0.0, 1.0])


def test_add_rowvec_broadcast():
    tape = ad.Tape()
    m = tape.leaf(np.zeros((3, 2)))
    r = tape.leaf(np.array([1.0, -1.0]))
    out = ad.add_rowvec(m, r)
    assert np.array_equal(out.data, np.tile([1.0, -1.0], (3, 1)))
    grads = tape.backward(ad.tsum(out), [r.node])
    assert np.array_equal(grads[r.node], [3.0, 3.0])


def test_pairwise_sqdist_matches_norm():
    rng = np.random.default_rng(2)
    z = rng.standard_normal((6, 4))
    c = rng.standard_normal((3, 4))
    tape = ad.Tape()
    d = ad.pairwise_sqdist(tape.leaf(z), tape.leaf(c))
    want = ((z[:, None, :] - c[None, :, :]) ** 2).sum(-1)
    assert np.allclose(d.data, want, atol=1e-12)
    # bitwise the broadcast-difference einsum, up to 20-way episode sizes
    for n, k, f in ((6, 3, 4), (75, 5, 16), (300, 20, 16)):
        z, c = rng.standard_normal((n, f)), rng.standard_normal((k, f))
        diff = z[:, None, :] - c[None, :, :]
        want = np.einsum("ikj,ikj->ik", diff, diff)
        assert np.array_equal(ad.pairwise_sqdist(z, c).data, want)


def test_pairwise_sqdist_equal_rows_exact_zero():
    """A point at its own prototype must give exactly 0, not 1e-16 noise."""
    z = np.array([[0.3, -1.7, 2.9]])
    tape = ad.Tape()
    d = ad.pairwise_sqdist(tape.leaf(z), tape.leaf(z.copy()))
    assert d.data[0, 0] == 0.0


def test_logsumexp_stability_large_inputs():
    tape = ad.Tape()
    x = tape.leaf(np.array([[1000.0, 1000.0]]))
    out = ad.logsumexp_rows(x)
    assert abs(out.data[0] - (1000.0 + math.log(2.0))) < 1e-9


def test_logsumexp_rows():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 4))
    tape = ad.Tape()
    out = ad.logsumexp_rows(tape.leaf(x))
    want = np.log(np.exp(x).sum(axis=1))
    assert np.allclose(out.data, want, atol=1e-12)


def test_softmax_frozen_value():
    # exp(-1)/(exp(-1)+exp(-4)) computed with math.exp by hand
    tape = ad.Tape()
    out = ad.softmax_rows(tape.leaf(np.array([[-1.0, -4.0]])))
    assert abs(out.data[0, 0] - 0.9525741268224333) < 1e-15
    assert abs(out.data[0, 1] - 0.047425873177566774) < 1e-15


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((40, 7)) * 30.0
    tape = ad.Tape()
    out = ad.softmax_rows(tape.leaf(x), temperature=2.0)
    assert np.all(np.abs(out.data.sum(axis=1) - 1.0) < 1e-12)
    assert np.all(out.data > 0)


def test_softmax_temperature_argmax_invariant():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((1, 9))
    outs = []
    for T in (0.5, 1.0, 2.0, 8.0):
        tape = ad.Tape()
        outs.append(int(np.argmax(ad.softmax_rows(tape.leaf(x), temperature=T).data)))
    assert len(set(outs)) == 1


def test_softmax_rejects_bad_temperature():
    tape = ad.Tape()
    with pytest.raises(ValueError, match="temperature"):
        ad.softmax_rows(tape.leaf(np.ones((1, 3))), temperature=0.0)


def test_kl_frozen_value():
    # 0.5*ln(2) + 0.5*ln(2/3), computed independently
    want = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    tape = ad.Tape()
    p = tape.leaf(np.array([[0.5, 0.5]]))
    q = tape.leaf(np.array([[0.25, 0.75]]))
    assert abs(ad.kl_div_rows(p, q).data[0] - want) < 1e-15
    assert abs(want - 0.14384103622589042) < 1e-16


def test_kl_self_is_zero_and_nonnegative():
    rng = np.random.default_rng(6)
    for _ in range(50):
        v = rng.uniform(0.05, 1.0, size=(1, 6))
        v = v / v.sum()
        w = rng.uniform(0.05, 1.0, size=(1, 6))
        w = w / w.sum()
        tape = ad.Tape()
        assert ad.kl_div_rows(tape.leaf(v), tape.leaf(v.copy())).data[0] == 0.0
        tape = ad.Tape()
        assert ad.kl_div_rows(tape.leaf(v), tape.leaf(w)).data[0] >= 0.0


def test_kl_zero_mass_handling():
    tape = ad.Tape()
    p = tape.leaf(np.array([[0.0, 1.0]]))
    q = tape.leaf(np.array([[0.5, 0.5]]))
    # 0 * log 0 treated as 0
    assert abs(ad.kl_div_rows(p, q).data[0] - math.log(2.0)) < 1e-15
    tape = ad.Tape()
    bad_q = tape.leaf(np.array([[0.0, 1.0]]))
    ok_p = tape.leaf(np.array([[0.5, 0.5]]))
    with pytest.raises(ValueError, match="zero mass"):
        ad.kl_div_rows(ok_p, bad_q)


def test_kl_rejects_unnormalized():
    tape = ad.Tape()
    with pytest.raises(ValueError, match="sum to 1"):
        ad.kl_div_rows(tape.leaf(np.array([[0.7, 0.7]])), tape.leaf(np.array([[0.5, 0.5]])))


def test_kl_rows_mean_matches_loop():
    rng = np.random.default_rng(7)
    p = rng.uniform(0.1, 1.0, (8, 5))
    p /= p.sum(axis=1, keepdims=True)
    q = rng.uniform(0.1, 1.0, (8, 5))
    q /= q.sum(axis=1, keepdims=True)
    tape = ad.Tape()
    rows = ad.kl_div_rows(tape.leaf(p), tape.leaf(q))
    want = (p * np.log(p / q)).sum(axis=1)
    assert np.allclose(rows.data, want, atol=1e-12)


def test_take_per_row():
    tape = ad.Tape()
    m = tape.leaf(np.arange(12.0).reshape(3, 4))
    out = ad.take_per_row(m, [1, 0, 3])
    assert np.array_equal(out.data, [1.0, 4.0, 11.0])
    grads = tape.backward(ad.tsum(out), [m.node])
    want = np.zeros((3, 4))
    want[0, 1] = want[1, 0] = want[2, 3] = 1.0
    assert np.array_equal(grads[m.node], want)
    tape = ad.Tape()
    m = tape.leaf(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="out of range"):
        ad.take_per_row(m, [0, 5])


def test_class_means_exact():
    """Prototype op must agree bitwise with numpy per-class means."""
    rng = np.random.default_rng(8)
    z = rng.standard_normal((10, 3))
    labels = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, 0])
    tape = ad.Tape()
    out = ad.class_means(tape.leaf(z), labels, 3)
    for c in range(3):
        assert np.array_equal(out.data[c], z[labels == c].mean(axis=0))
    # shuffled labels with unequal and with equal counts, 1 to 40 rows per
    # class, 1 to 16 features (one feature makes numpy sum each class pairwise)
    for k in (2, 5, 20):
        for counts in (rng.integers(1, 41, size=k), np.full(k, rng.integers(1, 41))):
            for f in (16, 1):
                labels = rng.permutation(np.repeat(np.arange(k), counts))
                z = rng.standard_normal((labels.size, f)) * 10.0 ** rng.integers(-3, 4)
                out = ad.class_means(z, labels, k).data
                for c in range(k):
                    assert np.array_equal(out[c], z[labels == c].mean(axis=0)), (k, c, f)


def test_class_means_missing_class():
    tape = ad.Tape()
    z = tape.leaf(np.ones((3, 2)))
    with pytest.raises(ValueError, match="class 2 has no members"):
        ad.class_means(z, [0, 1, 0], 3)


def test_sum_mean():
    tape = ad.Tape()
    x = tape.leaf(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert float(ad.tsum(x)) == 10.0
    assert float(ad.tmean(x)) == 2.5


# ---- vjp correctness through grad_check ----


def check(f, arrays, tol=1e-6):
    err = ad.grad_check(f, arrays)
    assert err < tol, f"worst relative error {err}"


def test_grads_matmul_chain():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((4, 3))
    b = rng.standard_normal((3, 2))
    check(lambda ls: ad.tsum(ad.matmul(ls[0], ls[1])), [a, b])


def test_grads_elementwise_and_scale():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3))
    check(lambda ls: ad.tmean(ad.mul(ad.add(ls[0], ls[1]), ad.sub(ls[0], ls[1]))), [a, b])
    check(lambda ls: ad.tsum(ad.scale(ls[0], -1.7)), [a])


def test_grads_relu():
    rng = np.random.default_rng(12)
    # keep values away from the kink so finite differences are clean
    a = rng.standard_normal((5, 4))
    a[np.abs(a) < 0.05] += 0.1
    check(lambda ls: ad.tsum(ad.relu(ls[0])), [a])


def test_grads_add_rowvec():
    rng = np.random.default_rng(13)
    m = rng.standard_normal((4, 3))
    r = rng.standard_normal(3)
    check(lambda ls: ad.tmean(ad.mul(ad.add_rowvec(ls[0], ls[1]),
                                     ad.add_rowvec(ls[0], ls[1]))), [m, r])


def test_linear_matches_unfused_layer_bitwise():
    """The fused layer equals matmul -> add_rowvec (-> relu) bit for bit, values and gradients."""
    rng = np.random.default_rng(20)
    x = rng.standard_normal((7, 5))
    w = rng.standard_normal((5, 4))
    b = rng.standard_normal(4)
    b[0] = -50.0  # one column entirely below the relu kink
    r = rng.standard_normal((7, 4))  # weights that make the loss use every output

    def layer(relu, fused):
        tape = ad.Tape()
        leaves = [tape.leaf(a) for a in (x, w, b)]
        if fused:
            out = ad.linear(*leaves, relu=relu)
        else:
            out = ad.add_rowvec(ad.matmul(leaves[0], leaves[1]), leaves[2])
            out = ad.relu(out) if relu else out
        grads = tape.backward(ad.tsum(ad.mul(out, ad.constant(r))), [t.node for t in leaves])
        return [out.data] + [grads[t.node] for t in leaves]

    for relu in (False, True):
        for got, want in zip(layer(relu, True), layer(relu, False)):
            assert np.array_equal(got, want), relu


def test_grads_linear():
    rng = np.random.default_rng(22)
    x = rng.standard_normal((6, 3))
    w = rng.standard_normal((3, 4))
    b = rng.standard_normal(4)
    for relu in (False, True):
        # tmean of a square keeps the gradient away from a constant
        check(lambda ls: ad.tmean(ad.mul(ad.linear(ls[0], ls[1], ls[2], relu=relu),
                                         ad.linear(ls[0], ls[1], ls[2], relu=relu))),
              [x, w, b])


def test_linear_rejects_bad_shapes():
    with pytest.raises(ValueError, match="incompatible"):
        ad.linear(np.ones((2, 3)), np.ones((4, 2)), np.ones(2))
    with pytest.raises(ValueError, match="bias"):
        ad.linear(np.ones((2, 3)), np.ones((3, 2)), np.ones(3))


def test_grads_pairwise_sqdist():
    rng = np.random.default_rng(14)
    z = rng.standard_normal((5, 3))
    c = rng.standard_normal((4, 3))
    check(lambda ls: ad.tmean(ad.pairwise_sqdist(ls[0], ls[1])), [z, c])


def test_grads_logsumexp_both_forms():
    rng = np.random.default_rng(15)
    v = rng.standard_normal((1, 6))
    m = rng.standard_normal((4, 5))
    check(lambda ls: ad.tsum(ad.logsumexp_rows(ls[0])), [v])
    check(lambda ls: ad.tsum(ad.logsumexp_rows(ls[0])), [m])


def test_grads_softmax_with_temperature():
    rng = np.random.default_rng(16)
    v = rng.standard_normal((1, 5))
    m = rng.standard_normal((3, 4))
    w = rng.standard_normal((1, 5))
    check(lambda ls: ad.tsum(ad.mul(ad.softmax_rows(ls[0], temperature=2.0),
                                    ad.constant(w))), [v])
    check(lambda ls: ad.tmean(ad.softmax_rows(ls[0], temperature=0.7)), [m])


def test_grads_kl_both_sides():
    rng = np.random.default_rng(17)
    p = rng.uniform(0.2, 1.0, (1, 5))
    p /= p.sum()
    q = rng.uniform(0.2, 1.0, (1, 5))
    q /= q.sum()

    def through_softmax(ls):
        # differentiate through both distributions, normalization included
        return ad.tsum(ad.kl_div_rows(ad.softmax_rows(ls[0]), ad.softmax_rows(ls[1])))

    a = rng.standard_normal((1, 5))
    b = rng.standard_normal((1, 5))
    check(through_softmax, [a, b])

    def rows(ls):
        return ad.tmean(ad.kl_div_rows(ad.softmax_rows(ls[0]), ad.softmax_rows(ls[1])))

    check(rows, [rng.standard_normal((4, 5)), rng.standard_normal((4, 5))])


def test_grads_take_and_means():
    rng = np.random.default_rng(18)
    z = rng.standard_normal((8, 3))
    labels = [0, 1, 2, 0, 1, 2, 1, 0]
    check(lambda ls: ad.tmean(ad.class_means(ls[0], labels, 3)), [z])
    m = rng.standard_normal((4, 6))
    check(lambda ls: ad.tsum(ad.take_per_row(ls[0], [5, 0, 2, 2])), [m])


# ---- fused prototype ops against the chains they replace ----


def support_layout(rng, ways, shuffled=True, equal=False):
    """Support labels 0..ways-1, 1 to 7 rows per class (or 5 each), optionally shuffled."""
    counts = np.full(ways, 5) if equal else rng.integers(1, 8, size=ways)
    labels = np.repeat(np.arange(ways), counts)
    return rng.permutation(labels) if shuffled else labels


def proto_layouts():
    rng = np.random.default_rng(30)
    for ways in (2, 3, 5, 11, 20):
        for shuffled, equal in ((False, True), (True, True), (True, False)):
            sy = support_layout(rng, ways, shuffled, equal)
            q = int(rng.integers(1, 4 * ways))
            z = rng.standard_normal((sy.size + q, 16)) * 10.0 ** rng.uniform(-2, 2)
            yield z, sy, ways, rng.integers(0, ways, size=q), rng.standard_normal((q, ways))


def unfused_sqdist(zs, zq, sy, ways):
    return ad.pairwise_sqdist(zq, ad.class_means(zs, sy, ways))


def unfused_xent(d, y, t):
    pull = ad.scale(ad.take_per_row(d, y), 1.0 / t)
    return ad.tmean(ad.add(pull, ad.logsumexp_rows(ad.scale(d, -1.0 / t))))


def test_proto_sqdist_matches_unfused_chain_bitwise():
    for z, sy, ways, _, r in proto_layouts():
        n = sy.size
        tape = ad.Tape()
        leaf = tape.leaf(z)
        fused = ad.proto_sqdist(leaf, sy, ways)
        g_fused = tape.backward(ad.tsum(ad.mul(fused, ad.constant(r))), [leaf.node])[leaf.node]
        tape = ad.Tape()
        zs, zq = tape.leaf(z[:n]), tape.leaf(z[n:])
        chain = unfused_sqdist(zs, zq, sy, ways)
        g = tape.backward(ad.tsum(ad.mul(chain, ad.constant(r))), [zs.node, zq.node])
        assert np.array_equal(fused.data, chain.data), (ways, n)
        assert np.array_equal(g_fused, np.vstack([g[zs.node], g[zq.node]])), (ways, n)
        # off the tape, and through the public kernel
        off = ad.proto_sqdist(z, sy, ways).data
        assert np.array_equal(off, unfused_sqdist(z[:n], z[n:], sy, ways).data)
        if n % ways == 0 and np.all(np.bincount(sy) == n // ways):
            support = z[:n][np.argsort(sy, kind="stable")].reshape(1, ways, n // ways, -1)
            assert np.array_equal(ad.prototype_distances(support, z[n:][None])[0], off)


def test_proto_xent_matches_unfused_chain_bitwise():
    for z, sy, ways, y, _ in proto_layouts():
        d = ad.proto_sqdist(z, sy, ways).data
        for t in (0.5, 2.0, 3.0):
            got = []
            for loss_of in (lambda x: ad.proto_xent(x, y, t), lambda x: unfused_xent(x, y, t)):
                tape = ad.Tape()
                leaf = tape.leaf(d)
                loss = loss_of(leaf)
                # an upstream gradient other than 1, as a weighted loss term gets
                grads = tape.backward(ad.scale(loss, 0.37), [leaf.node])
                got.append((loss.data, grads[leaf.node]))
            assert np.array_equal(got[0][0], got[1][0]), (ways, t)
            assert np.array_equal(got[0][1], got[1][1]), (ways, t)
            assert np.array_equal(ad.proto_xent(d, y, t).data, unfused_xent(d, y, t).data)


def test_proto_ops_reject_bad_inputs():
    z = np.zeros((4, 2))
    with pytest.raises(ValueError, match="class 1 has no members"):
        ad.proto_sqdist(z, [0, 0], 2)
    with pytest.raises(ValueError, match="support rows"):
        ad.proto_sqdist(z, [0, 1, 0, 1, 0], 2)
    with pytest.raises(ValueError, match="temperature"):
        ad.proto_xent(z, [0, 1, 0, 1], 0.0)
    with pytest.raises(ValueError, match="out of range"):
        ad.proto_xent(z, [0, 1, 0, 2], 1.0)


def test_grads_proto_ops():
    rng = np.random.default_rng(31)
    sy = np.array([1, 0, 2, 1, 0, 2, 2])  # shuffled, unequal counts
    z = rng.standard_normal((sy.size + 5, 4))
    y = np.array([0, 2, 1, 1, 0])
    d = rng.uniform(0.5, 3.0, size=(5, 3))
    r = rng.standard_normal((5, 3))
    for f, arrays in (
        (lambda ls: ad.tsum(ad.mul(ad.proto_sqdist(ls[0], sy, 3), ad.constant(r))), [z]),
        (lambda ls: ad.proto_xent(ls[0], y, 2.0), [d]),
        (lambda ls: ad.proto_xent(ad.proto_sqdist(ls[0], sy, 3), y, 1.5), [z]),
    ):
        check(f, arrays, tol=1e-5)


# ---- needs-grad masks and gradient accumulation ----


def test_masked_vjp_skips_constant_inputs():
    rng = np.random.default_rng(32)
    x, w, b = rng.standard_normal((6, 4)), rng.standard_normal((4, 3)), rng.standard_normal(3)
    z, c = rng.standard_normal((6, 3)), rng.standard_normal((4, 3))
    p = ad.softmax_rows(rng.standard_normal((6, 4))).data
    q = ad.softmax_rows(rng.standard_normal((6, 4))).data
    cases = (("linear", [x, w, b], (True,)), ("linear", [x, w, b], (False,)),
             ("pairwise_sqdist", [z, c], ()), ("kl_div_rows", [p, q], ()))
    for op, values, aux in cases:
        spec = ad._OPS[op]
        out, saved = spec.fwd(values, aux) if spec.saves else (spec.fwd(values, aux), None)
        g = rng.standard_normal(out.shape)
        full = spec.vjp(values, aux, out, saved, g, (True,) * len(values))
        for skip in range(len(values)):
            needs = tuple(i != skip for i in range(len(values)))
            parts = spec.vjp(values, aux, out, saved, g, needs)
            assert parts[skip] is None, (op, skip)
            for i in range(len(values)):
                if i != skip:
                    assert np.array_equal(parts[i], full[i]), (op, skip, i)


# ---- vjps read what their forwards saved ----


def recomputed_pairsq_vjp(z, c, g):
    """pairwise_sqdist's vjp rebuilding the differences from its inputs."""
    d = ad._pair_diffs(z, c)
    return 2.0 * np.einsum("ik,ikj->ij", g, d), -2.0 * np.einsum("ik,ikj->kj", g, d)


def recomputed_kl_vjp(p, q, g):
    """kl_div_rows' vjp rebuilding its positive mask, p / q and log(p / q) from its inputs."""
    pos = p > 0.0
    grow = np.broadcast_to(g[:, None], p.shape)
    gp, gq = np.zeros_like(p), np.zeros_like(q)
    gp[pos] = (np.log(p[pos] / q[pos]) + 1.0) * grow[pos]
    gq[pos] = -(p[pos] / q[pos]) * grow[pos]
    return gp, gq


def recomputed_lse_vjp(x, g):
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return g[:, None] * (e / e.sum(axis=1, keepdims=True))


def saved_vjp_grads(op, a, b, needs, r):
    """Gradients of sum(op(a, b) * r) for the inputs marked in `needs` (the others constant)."""
    tape = ad.Tape()
    ins = [tape.leaf(x) if need else ad.constant(x) for x, need in zip((a, b), needs)]
    out = op(*ins)
    grads = tape.backward(ad.tsum(ad.mul(out, ad.constant(r))),
                          [t.node for t in ins if t.node is not None])
    return [grads[t.node] if t.node is not None else None for t in ins]


MASKS = ((True, True), (True, False), (False, True))


def test_pairwise_sqdist_saved_vjp_equals_recomputed():
    rng = np.random.default_rng(40)
    for n, k, f in ((1, 1, 1), (7, 3, 4), (100, 5, 16), (30, 20, 8)):
        z = rng.standard_normal((n, f)) * 10.0 ** rng.uniform(-2, 2)
        c = rng.standard_normal((k, f))
        r = rng.standard_normal((n, k))
        want = recomputed_pairsq_vjp(z, c, r)
        for needs in MASKS:
            got = saved_vjp_grads(ad.pairwise_sqdist, z, c, needs, r)
            for part, w, need in zip(got, want, needs):
                assert (part is None) if not need else np.array_equal(part, w), (n, k, needs)


def test_kl_div_rows_saved_vjp_equals_recomputed():
    rng = np.random.default_rng(41)
    for n, k in ((1, 2), (6, 5), (100, 5)):
        p = rng.uniform(0.0, 1.0, (n, k))
        p[rng.uniform(size=(n, k)) < 0.3] = 0.0  # 0 * log 0 entries
        p[:, 0] += 0.1
        p /= p.sum(axis=1, keepdims=True)
        q = rng.uniform(0.05, 1.0, (n, k))
        q /= q.sum(axis=1, keepdims=True)
        r = rng.standard_normal(n)
        want = recomputed_kl_vjp(p, q, r)
        for needs in MASKS:
            got = saved_vjp_grads(ad.kl_div_rows, p, q, needs, r)
            for part, w, need in zip(got, want, needs):
                assert (part is None) if not need else np.array_equal(part, w), (n, k, needs)


def test_logsumexp_rows_saved_vjp_equals_recomputed():
    rng = np.random.default_rng(42)
    for shape in ((1, 1), (4, 5), (75, 20)):
        x = rng.standard_normal(shape) * 30.0
        r = rng.standard_normal(shape[0])
        tape = ad.Tape()
        leaf = tape.leaf(x)
        grads = tape.backward(ad.tsum(ad.mul(ad.logsumexp_rows(leaf), ad.constant(r))),
                              [leaf.node])
        assert np.array_equal(grads[leaf.node], recomputed_lse_vjp(x, r)), shape


def test_off_tape_calls_keep_nothing():
    rng = np.random.default_rng(43)
    z, c = rng.standard_normal((9, 3)), rng.standard_normal((3, 3))
    sy, y = np.repeat(np.arange(3), 2), np.array([0, 2, 1])
    p = ad.softmax_rows(ad.scale(ad.pairwise_sqdist(z, c), -1.0))
    # constants in, a bare value out: no tape, no node to keep intermediates on
    for t in (ad.pairwise_sqdist(z, c), ad.kl_div_rows(p, p), ad.logsumexp_rows(z),
              ad.proto_sqdist(z, sy, 3), ad.proto_xent(ad.proto_sqdist(z, sy, 3), y, 2.0)):
        assert t.tape is None and t.node is None
    assert type(ad.prototype_distances(z[:6].reshape(1, 3, 2, 3), z[None, 6:])) is np.ndarray

    # on a tape, the constant teacher side records nothing; only tape nodes of
    # saving ops keep their intermediates
    tape = ad.Tape()
    leaf = tape.leaf(z)
    teacher = ad.softmax_rows(ad.scale(ad.pairwise_sqdist(z + 1.0, c), -1.0))
    student = ad.softmax_rows(ad.scale(ad.pairwise_sqdist(leaf, c), -1.0))
    ad.tmean(ad.kl_div_rows(student, teacher))
    ad.proto_xent(ad.proto_sqdist(leaf, sy, 3), y, 2.0)
    kept = [n.op for n in tape.nodes if n.saved is not None]
    assert kept == ["pairwise_sqdist", "kl_div_rows", "proto_sqdist", "proto_xent"]
    assert [n.op for n in tape.nodes].count("pairwise_sqdist") == 1


def test_tape_records_which_inputs_need_gradients():
    tape = ad.Tape()
    w = tape.leaf(np.ones((2, 3)))
    out = ad.linear(np.ones((4, 2)), w, np.zeros(3))
    node = tape.nodes[out.node]
    assert node.needs == (False, True, False)
    assert [tape.nodes[i].op for i in node.inputs] == ["const", "leaf", "const"]


def test_backward_sums_aliased_parts_out_of_place():
    """`add` hands the same array to both inputs; a later in-place sum would leak into both."""
    tape = ad.Tape()
    a = tape.leaf(np.zeros(3))
    b = tape.leaf(np.zeros(3))
    early = ad.tsum(ad.scale(b, 2.0))  # reaches b last in the reverse sweep
    loss = ad.add(early, ad.tsum(ad.add(a, b)))
    grads = tape.backward(loss, [a.node, b.node])
    assert np.array_equal(grads[a.node], np.ones(3))
    assert np.array_equal(grads[b.node], np.full(3, 3.0))
