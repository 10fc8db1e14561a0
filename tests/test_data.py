import math
import os

import numpy as np
import pytest

from iml.data import (
    Dataset,
    DatasetFormatError,
    Episode,
    EpisodeSpec,
    SyntheticSpec,
    class_centers,
    concat_datasets,
    draw_episode_rows,
    eval_episode_rows,
    gen_synthetic,
    load_dataset,
    reserve_exemplars,
    sample_anchor_subset,
    sample_episode,
    save_dataset,
    uniform_offset,
)
from iml.model import AnchorSet


def small_spec(**kw):
    base = dict(classes_per_domain=4, dim=3, cluster_std=0.2,
                domain_offset=uniform_offset(2.0, 3), samples_per_class=30, seed=0)
    base.update(kw)
    return SyntheticSpec(**base)


def test_uniform_offset_magnitude():
    v = uniform_offset(3.0, 16)
    assert len(v) == 16
    assert abs(math.sqrt(sum(x * x for x in v)) - 3.0) < 1e-12


def test_spec_validation():
    with pytest.raises(ValueError, match="offset length"):
        small_spec(domain_offset=(1.0, 2.0))
    with pytest.raises(ValueError, match="cluster_std"):
        small_spec(cluster_std=-0.1)
    with pytest.raises(ValueError, match="samples_per_class"):
        small_spec(samples_per_class=0)


def test_gen_is_deterministic():
    a = gen_synthetic(small_spec())
    b = gen_synthetic(small_spec())
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_gen_draws_differ_but_share_centers():
    spec = small_spec()
    a = gen_synthetic(spec, sample_seed=0)
    b = gen_synthetic(spec, sample_seed=1)
    assert not np.array_equal(a.features, b.features)
    # same centers: per-class means should agree to sampling noise
    centers = class_centers(spec)
    for c in a.classes:
        ma = a.features[a.labels == c].mean(axis=0)
        mb = b.features[b.labels == c].mean(axis=0)
        assert np.linalg.norm(ma - centers[c]) < 0.3
        assert np.linalg.norm(mb - centers[c]) < 0.3


def test_class_layout_and_counts():
    ds = gen_synthetic(small_spec())
    assert ds.n_classes == 8
    assert ds.classes == tuple(range(8))
    assert ds.min_class_count() == 30
    assert len(ds) == 240
    assert ds.dim == 3


def test_zero_std_collapses_to_centers():
    ds = gen_synthetic(small_spec(cluster_std=0.0))
    centers = class_centers(small_spec(cluster_std=0.0))
    for c in ds.classes:
        rows = ds.features[ds.labels == c]
        assert np.array_equal(rows, np.tile(centers[c], (30, 1)))


def test_sample_means_near_centers():
    """CLT bound: per-class sample mean within 5*std/sqrt(n) of its center."""
    spec = small_spec(samples_per_class=200)
    ds = gen_synthetic(spec)
    centers = class_centers(spec)
    bound = 5.0 * spec.cluster_std / math.sqrt(spec.samples_per_class)
    for c in ds.classes:
        mean = ds.features[ds.labels == c].mean(axis=0)
        # per-coordinate deviation
        assert np.max(np.abs(mean - centers[c])) < bound


def test_domain_offset_applied_to_second_domain():
    spec = small_spec(cluster_std=0.0)
    centers = class_centers(spec)
    # centers of domain B = fresh uniforms + offset; all coordinates of the
    # offset are positive so B means exceed A means on average
    assert centers.shape == (8, 3)
    a_mean = centers[:4].mean()
    b_mean = centers[4:].mean()
    assert b_mean - a_mean > 0.5


def test_domain_gap_in_center_distances():
    # mean cross-domain center distance exceeds within-domain mean by
    # at least half the offset magnitude (checked at low dim where the
    # geometry gives slack; the margin thins as dim grows)
    spec = SyntheticSpec(classes_per_domain=24, dim=4, cluster_std=0.1,
                         domain_offset=uniform_offset(3.0, 4),
                         samples_per_class=1, seed=2)
    centers = class_centers(spec)
    A, B = centers[:24], centers[24:]
    within = np.linalg.norm(A[:, None] - A[None], axis=-1)
    within = within[np.triu_indices(24, 1)].mean()
    cross = np.linalg.norm(A[:, None] - B[None], axis=-1).mean()
    assert cross - within >= 1.5


def test_dataset_rejects_bad_shapes():
    with pytest.raises(ValueError, match="2-D"):
        Dataset(np.ones(4), np.zeros(4, dtype=int))
    with pytest.raises(ValueError, match="one label per"):
        Dataset(np.ones((4, 2)), np.zeros(3, dtype=int))


def test_subset_and_concat():
    ds = gen_synthetic(small_spec())
    sub = ds.subset_classes([1, 5], "picked")
    assert sub.classes == (1, 5)
    assert sub.split_name == "picked"
    with pytest.raises(ValueError, match="no classes"):
        ds.subset_classes([99], "x")
    other = ds.subset_classes([0, 2], "o")
    merged = concat_datasets(sub, other, "m")
    assert merged.classes == (0, 1, 2, 5)
    with pytest.raises(ValueError, match="share classes"):
        concat_datasets(sub, sub, "m")


def test_csv_round_trip_bit_exact(tmp_path):
    ds = gen_synthetic(small_spec())
    p = tmp_path / "d.csv"
    save_dataset(ds, p)
    back = load_dataset(p, "synthetic")
    assert np.array_equal(ds.features, back.features)
    assert np.array_equal(ds.labels, back.labels)


def test_csv_header_round_trip(tmp_path):
    p = tmp_path / "d.csv"
    save_dataset(gen_synthetic(small_spec()), p)
    header = p.read_text().splitlines()[0]
    assert header == "label,f0,f1,f2"


def test_failed_rename_keeps_previous_file(tmp_path, monkeypatch):
    p = tmp_path / "d.csv"
    save_dataset(gen_synthetic(small_spec()), p)
    before = p.read_bytes()

    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="rename failed"):
        save_dataset(gen_synthetic(small_spec(seed=1)), p)
    assert p.read_bytes() == before
    assert sorted(x.name for x in tmp_path.iterdir()) == ["d.csv"]


def test_load_errors_name_the_line(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("label,f0,f1\n0,1.0,2.0\n1,3.0\n")
    with pytest.raises(DatasetFormatError, match="line 3"):
        load_dataset(p, "x")
    p.write_text("label,f0,f1\n0,1.0,abc\n")
    with pytest.raises(DatasetFormatError, match="line 2"):
        load_dataset(p, "x")
    for bad in ("nan", "inf", "-inf"):
        p.write_text(f"label,f0,f1\n0,1.0,2.0\n\n1,3.0,{bad}\n")
        with pytest.raises(DatasetFormatError, match="line 4: non-finite"):
            load_dataset(p, "x")
    p.write_text("nope,f0\n0,1.0\n")
    with pytest.raises(DatasetFormatError, match="line 1"):
        load_dataset(p, "x")
    p.write_text("label,f0\n")
    with pytest.raises(DatasetFormatError, match="no data rows"):
        load_dataset(p, "x")
    with pytest.raises(DatasetFormatError):
        load_dataset(tmp_path / "missing.csv", "x")


def test_episode_spec_validation():
    with pytest.raises(ValueError, match="at least 2 ways"):
        EpisodeSpec(1, 1, 1)
    with pytest.raises(ValueError):
        EpisodeSpec(3, 0, 1)


def test_sample_episode_shapes_and_counts():
    ds = gen_synthetic(small_spec())
    rng = np.random.default_rng(0)
    ep = sample_episode(ds, EpisodeSpec(5, 5, 15), rng)
    assert ep.support_x.shape == (25, 3)
    assert ep.query_x.shape == (75, 3)
    assert ep.n_ways == 5
    assert len(ep.class_map) == 5
    # local labels are 0..K-1
    assert set(ep.support_y) == set(range(5))
    assert set(ep.query_y) == set(range(5))


def test_sample_episode_support_query_disjoint():
    ds = gen_synthetic(small_spec(samples_per_class=25))
    rng = np.random.default_rng(1)
    for _ in range(200):
        ep = sample_episode(ds, EpisodeSpec(4, 5, 10), rng)
        sup = {tuple(r) for r in ep.support_x}
        qry = {tuple(r) for r in ep.query_x}
        assert not (sup & qry)


def test_sample_episode_class_inclusion_uniform():
    ds = gen_synthetic(small_spec())  # 8 classes
    rng = np.random.default_rng(2)
    hits = {c: 0 for c in ds.classes}
    n = 4000
    for _ in range(n):
        ep = sample_episode(ds, EpisodeSpec(2, 1, 1), rng)
        for c in ep.class_map:
            hits[c] += 1
    p = 2.0 / 8.0
    sigma = math.sqrt(p * (1 - p) / n)
    for c, h in hits.items():
        assert abs(h / n - p) < 4 * sigma, f"class {c} frequency off: {h / n}"


def test_sample_episode_errors():
    ds = gen_synthetic(small_spec(samples_per_class=5))
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError, match="classes"):
        sample_episode(ds, EpisodeSpec(20, 1, 1), rng)
    with pytest.raises(ValueError, match="rows"):
        sample_episode(ds, EpisodeSpec(3, 4, 4), rng)


def test_sample_episode_deterministic():
    ds = gen_synthetic(small_spec())
    e1 = sample_episode(ds, EpisodeSpec(3, 2, 4), np.random.default_rng(5))
    e2 = sample_episode(ds, EpisodeSpec(3, 2, 4), np.random.default_rng(5))
    assert np.array_equal(e1.support_x, e2.support_x)
    assert np.array_equal(e1.query_x, e2.query_x)
    assert e1.class_map == e2.class_map


def test_sample_episode_records_rows():
    ds = gen_synthetic(small_spec())
    spec = EpisodeSpec(4, 3, 5)
    for seed in range(20):
        ep = sample_episode(ds, spec, np.random.default_rng(seed))
        assert np.array_equal(ds.features[ep.support_rows], ep.support_x)
        assert np.array_equal(ds.features[ep.query_rows], ep.query_x)
        assert np.array_equal(ds.labels[ep.support_rows], np.take(ep.class_map, ep.support_y))
        assert np.array_equal(ds.labels[ep.query_rows], np.take(ep.class_map, ep.query_y))
        # the draws are those of one class choice, then one row choice per class
        rng = np.random.default_rng(seed)
        chosen = rng.choice(np.asarray(ds.classes), size=spec.ways, replace=False)
        picks = [rng.choice(ds.class_index[int(c)], size=8, replace=False) for c in chosen]
        assert ep.class_map == tuple(int(c) for c in chosen)
        assert np.array_equal(ep.support_rows, np.concatenate([p[:3] for p in picks]))
        assert np.array_equal(ep.query_rows, np.concatenate([p[3:] for p in picks]))


def uneven_dataset():
    """Classes with 9 to 40 rows each, unsorted ids, rows of a class scattered."""
    rng = np.random.default_rng(17)
    ids = rng.permutation(np.arange(100, 100 + 3 * 12, 3))
    labels = rng.permutation(np.repeat(ids, rng.integers(9, 41, size=ids.size)))
    return Dataset(rng.standard_normal((labels.size, 2)), labels, "uneven")


@pytest.mark.parametrize("make,spec", [
    (lambda: gen_synthetic(small_spec()), EpisodeSpec(2, 1, 1)),
    (lambda: gen_synthetic(small_spec()), EpisodeSpec(5, 5, 15)),
    (lambda: gen_synthetic(small_spec(classes_per_domain=12)), EpisodeSpec(20, 1, 15)),
    (uneven_dataset, EpisodeSpec(6, 3, 5)),
], ids=["2w1s", "5w5s", "20w1s", "uneven"])
def test_draw_episode_rows_is_sample_episode_draw(make, spec):
    ds = make()
    for seed in range(6):
        for i in range(8):
            a, b, c = (np.random.default_rng([seed, i]) for _ in range(3))
            chosen, picks = draw_episode_rows(ds, spec, a)
            ep = sample_episode(ds, spec, b)
            assert chosen.dtype == picks.dtype == np.int64
            assert picks.shape == (spec.ways, spec.shots + spec.queries)
            assert tuple(chosen.tolist()) == ep.class_map
            assert np.array_equal(picks[:, :spec.shots].ravel(), ep.support_rows)
            assert np.array_equal(picks[:, spec.shots:].ravel(), ep.query_rows)
            assert np.array_equal(ds.labels[picks], np.repeat(chosen[:, None], picks.shape[1], 1))
            # the rows of one class choice, then one row choice per class
            want = c.choice(ds.class_ids, size=spec.ways, replace=False)
            assert np.array_equal(chosen, want)
            for k, cid in enumerate(want):
                rows = c.choice(ds.class_index[int(cid)], size=picks.shape[1], replace=False)
                assert np.array_equal(picks[k], rows)
            # all three made the same draws: the generators stand at the same state
            assert a.random() == b.random() == c.random()


def oracle_eval_rows(ds, spec, n, seed):
    return np.stack([draw_episode_rows(ds, spec, np.random.default_rng([seed, i]))[1]
                     for i in range(n)])


def test_eval_episode_rows_of_each_count_are_correct():
    """n = 100 and n = 200 on one table each hold episodes 0..n-1 of their seed."""
    ds, spec = gen_synthetic(small_spec()), EpisodeSpec(5, 2, 3)
    short, long = eval_episode_rows(ds, spec, 100, 4), eval_episode_rows(ds, spec, 200, 4)
    assert short.shape == (100, 5, 5) and long.shape == (200, 5, 5)
    assert np.array_equal(short, oracle_eval_rows(ds, spec, 100, 4))
    assert np.array_equal(long, oracle_eval_rows(ds, spec, 200, 4))


def test_eval_episode_rows_keeps_one_entry_per_key():
    """A key differing from another in any one field gets its own draw."""
    ds, spec = gen_synthetic(small_spec()), EpisodeSpec(5, 2, 3)
    first = eval_episode_rows(ds, spec, 10, 1)
    keys = [(EpisodeSpec(4, 2, 3), 10, 1), (EpisodeSpec(5, 1, 3), 10, 1),
            (EpisodeSpec(5, 2, 4), 10, 1), (spec, 11, 1), (spec, 10, 2)]
    for key in keys:
        got = eval_episode_rows(ds, *key)
        assert got is not first
        assert np.array_equal(got, oracle_eval_rows(ds, *key))
        assert eval_episode_rows(ds, *key) is got
    assert eval_episode_rows(ds, spec, 10, 1) is first
    assert np.array_equal(first, oracle_eval_rows(ds, spec, 10, 1))
    # the store belongs to the table: a fresh copy draws again, the same rows
    copy = Dataset(ds.features, ds.labels, ds.split_name)
    again = eval_episode_rows(copy, spec, 10, 1)
    assert again is not first and np.array_equal(again, first)
    assert "_eval_rows" not in repr(ds)


def test_eval_episode_rows_are_read_only():
    ds = gen_synthetic(small_spec())
    picks = eval_episode_rows(ds, EpisodeSpec(3, 1, 2), 5, 0)
    with pytest.raises(ValueError, match="read-only"):
        picks[0, 0, 0] = 0
    assert eval_episode_rows(ds, EpisodeSpec(3, 1, 2), 5, 0) is picks


def test_class_ids_built_once_and_sorted():
    labels = np.array([7, 2, 7, 11, 2, 2])
    ds = Dataset(np.zeros((6, 2)), labels)
    assert ds.class_ids.dtype == np.int64
    assert ds.class_ids.tolist() == [2, 7, 11]
    assert ds.classes == (2, 7, 11) and all(type(c) is int for c in ds.classes)
    assert ds.class_ids is ds.class_ids
    assert list(ds.class_index) == [2, 7, 11]
    empty = Dataset(np.zeros((0, 2)), np.zeros(0))
    assert empty.classes == () and empty.class_ids.dtype == np.int64


def test_support_layout_is_every_drawn_episode_layout():
    ds = gen_synthetic(small_spec())
    # shots rows per class, in class order: the layout scoring relies on
    for spec in (EpisodeSpec(2, 1, 1), EpisodeSpec(4, 3, 5), EpisodeSpec(8, 2, 2)):
        labels = np.repeat(np.arange(spec.ways), spec.shots)
        for seed in range(5):
            ep = sample_episode(ds, spec, np.random.default_rng(seed))
            assert ep.support_y.dtype == ep.query_y.dtype == np.int64
            assert np.array_equal(ep.support_y, labels)
            assert np.array_equal(ep.query_y, np.repeat(np.arange(spec.ways), spec.queries))


def test_episode_all_inputs():
    ds = gen_synthetic(small_spec())
    ep = sample_episode(ds, EpisodeSpec(3, 2, 4), np.random.default_rng(6))
    allx = ep.all_inputs()
    assert allx.shape == (3 * 2 + 3 * 4, 3)
    assert np.array_equal(allx[:6], ep.support_x)


def test_sample_anchor_subset():
    anchors = AnchorSet(tuple(range(32)), np.random.default_rng(0).standard_normal((32, 4)))
    rng = np.random.default_rng(1)
    sub = sample_anchor_subset(anchors, 5, rng)
    assert len(sub) == 5
    assert set(sub.class_ids) <= set(anchors.class_ids)
    full = sample_anchor_subset(anchors, 32, rng)
    assert set(full.class_ids) == set(anchors.class_ids)
    with pytest.raises(ValueError, match="at least one"):
        sample_anchor_subset(anchors, 0, rng)
    with pytest.raises(ValueError, match="only 32"):
        sample_anchor_subset(anchors, 33, rng)


def test_sample_anchor_subset_uniform():
    anchors = AnchorSet(tuple(range(32)), np.zeros((32, 2)))
    rng = np.random.default_rng(2)
    hits = np.zeros(32)
    n = 10000
    for _ in range(n):
        for cid in sample_anchor_subset(anchors, 5, rng).class_ids:
            hits[cid] += 1
    p = 5.0 / 32.0
    sigma = math.sqrt(p * (1 - p) / n)
    assert np.all(np.abs(hits / n - p) < 3.5 * sigma)


def test_reserve_exemplars():
    ds = gen_synthetic(small_spec(samples_per_class=20))
    ex = reserve_exemplars(ds, 15, np.random.default_rng(0))
    assert ex.split_name == "exemplars"
    assert ex.classes == ds.classes
    assert all(ex.class_index[c].size == 15 for c in ex.classes)
    assert len(ex) == 15 * ds.n_classes
    # rows come from the dataset, each under its own class
    all_rows = {tuple(r): int(y) for r, y in zip(ds.features, ds.labels)}
    for c in ex.classes:
        for row in ex.features[ex.class_index[c]]:
            assert all_rows[tuple(row)] == c


def test_reserve_exemplars_caps_at_class_size():
    ds = gen_synthetic(small_spec(samples_per_class=6))
    ex = reserve_exemplars(ds, 50, np.random.default_rng(1))
    assert all(ex.class_index[c].size == 6 for c in ex.classes)


def test_reserve_exemplars_deterministic():
    ds = gen_synthetic(small_spec())
    a = reserve_exemplars(ds, 5, np.random.default_rng(9))
    b = reserve_exemplars(ds, 5, np.random.default_rng(9))
    for c in a.classes:
        assert np.array_equal(a.features[a.class_index[c]], b.features[b.class_index[c]])
    with pytest.raises(ValueError, match="per_class"):
        reserve_exemplars(ds, 0, np.random.default_rng(0))
