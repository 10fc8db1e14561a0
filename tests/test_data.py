import math
import os
from pathlib import Path

import numpy as np
import pytest

import iml.data
from iml.data import (
    Dataset,
    DatasetFormatError,
    Episode,
    EpisodeSpec,
    SyntheticSpec,
    class_centers,
    concat_datasets,
    draw_episodes,
    eval_episode_rows,
    gen_synthetic,
    load_dataset,
    reserve_exemplars,
    sample_anchor_subset,
    sample_episode,
    save_dataset,
    uniform_offset,
)


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


def files(d: Path) -> dict[str, bytes]:
    return {x.name: x.read_bytes() for x in d.iterdir()}


def assert_bitwise_equal(a: Dataset, b: Dataset):
    assert a.features.tobytes() == b.features.tobytes()
    assert a.labels.tobytes() == b.labels.tobytes()


def test_failed_rename_keeps_previous_file(tmp_path, monkeypatch):
    p = tmp_path / "d.csv"
    previous = gen_synthetic(small_spec())
    save_dataset(previous, p)
    before = files(tmp_path)
    assert sorted(before) == ["d.csv", "d.csv.bin"]

    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="rename failed"):
        save_dataset(gen_synthetic(small_spec(seed=1)), p)
    assert files(tmp_path) == before  # both intact, and no temp file left
    monkeypatch.undo()

    def no_parse(*a, **k):
        raise AssertionError("the CSV was parsed, so the copy no longer matches it")

    monkeypatch.setattr(np, "loadtxt", no_parse)
    assert_bitwise_equal(load_dataset(p), previous)


def test_failed_copy_write_leaves_the_new_table_to_the_parse(tmp_path, monkeypatch):
    p = tmp_path / "d.csv"
    save_dataset(gen_synthetic(small_spec()), p)
    new = gen_synthetic(small_spec(seed=1))
    replace = os.replace

    def fail_copy(src, dst):
        if str(dst).endswith(".bin"):
            raise OSError("copy rename failed")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", fail_copy)
    with pytest.raises(OSError, match="copy rename failed"):
        save_dataset(new, p)
    assert sorted(files(tmp_path)) == ["d.csv", "d.csv.bin"]  # the old copy, now stale
    assert_bitwise_equal(load_dataset(p), new)


@pytest.mark.parametrize("features, labels, what", [
    (np.empty((0, 3)), np.empty(0), "no data rows"),
    (np.ones((4, 0)), np.arange(4), "line 2: bad feature value ''"),
    (np.array([[1.0, np.inf]]), np.zeros(1), "line 2: non-finite feature value"),
])
def test_table_the_parse_rejects_gets_no_copy(tmp_path, features, labels, what):
    p = tmp_path / "d.csv"
    save_dataset(Dataset(features, labels), p)
    assert sorted(files(tmp_path)) == ["d.csv"]
    with pytest.raises(DatasetFormatError, match=what):
        load_dataset(p)


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
    for header in ("nope,f0", "labels,f0", "label_id,f0", " label,f0"):
        p.write_text(f"{header}\n0,1.0\n")
        with pytest.raises(DatasetFormatError, match="line 1"):
            load_dataset(p, "x")
    for raw, no in ((b"label,f0\n1,0.5\xff\n", 2), (b"label,f0\n1,\xc3\xa9\n\n\xff,1\n", 4)):
        p.write_bytes(raw)
        with pytest.raises(DatasetFormatError, match=f"bad.csv: line {no}: byte 0xff is not UTF-8"):
            load_dataset(p, "x")
    p.write_text("label,f0\n")
    with pytest.raises(DatasetFormatError, match="no data rows"):
        load_dataset(p, "x")
    with pytest.raises(DatasetFormatError):
        load_dataset(tmp_path / "missing.csv", "x")


TINY = Path(__file__).parent / "data" / "tiny.csv"


def test_golden_csv_round_trips_byte_for_byte(tmp_path):
    # written by the per-value float-repr writer; a later writer must keep its bytes
    ds = load_dataset(TINY)
    assert ds.features.shape == (12, 3) and ds.classes == (0, 1, 2)
    assert math.copysign(1.0, ds.features[0, 0]) == -1.0  # -0.0 keeps its sign
    assert ds.features[0, 1] == 5e-324
    save_dataset(ds, tmp_path / "tiny.csv")
    assert (tmp_path / "tiny.csv").read_bytes() == TINY.read_bytes()


def test_csv_round_trip_random_doubles_bitwise(tmp_path):
    rng = np.random.default_rng(5)
    mant = rng.uniform(1.0, 10.0, 10_000) * rng.choice([-1.0, 1.0], 10_000)
    feats = (mant * 10.0 ** rng.integers(-300, 301, 10_000)).reshape(2_000, 5)
    ds = Dataset(feats, rng.integers(-5, 5, 2_000))
    save_dataset(ds, tmp_path / "r.csv")
    back = load_dataset(tmp_path / "r.csv")
    assert back.features.tobytes() == ds.features.tobytes()
    assert back.labels.tobytes() == ds.labels.tobytes()


def test_loaded_arrays_are_contiguous_copies():
    ds = load_dataset(TINY)
    for a, dtype in ((ds.features, np.float64), (ds.labels, np.int64)):
        assert a.dtype == dtype and a.flags.c_contiguous and a.base is None


@pytest.mark.parametrize("body, no, what", [
    ("0,1.0,2.0\n1,3.0\n", 3, "expected 3 fields, found 2"),  # short row
    ("0,1.0,2.0,4.0\n", 2, "expected 3 fields, found 4"),  # long row
    ("0,1.0,2.0,\n", 2, "expected 3 fields, found 4"),  # trailing comma
    ("0,1.0,2.0\n0,abc,2.0\n", 3, "bad feature value"),
    ("3.0,1.0,2.0\n", 2, "bad label"),
    ("x,1.0,2.0\n", 2, "bad label"),
    ("1_0,1.0,2.0\n", 2, "bad label"),  # plain decimal only
    ("\u0661,1.0,2.0\n", 2, "bad label"),  # ASCII digits only
    ("0,1.0,2.0\n\n1,nan,2.0\n", 4, "non-finite feature value"),
    ("0,1.0,2.0\n# a comment\n", 3, "expected 3 fields, found 1"),
    ("# a,b,c\n", 2, "bad label"),  # comments are off
    ('0,"1.0",2.0\n', 2, "bad feature value"),  # no quoting
    ("0,1_0,2.0\n", 2, "bad feature value"),
    ("9223372036854775808,1.0,2.0\n", 2, "bad label"),  # beyond int64
])
def test_load_rejects_malformed_rows(tmp_path, body, no, what):
    p = tmp_path / "bad.csv"
    p.write_text("label,f0,f1\n" + body)
    with pytest.raises(DatasetFormatError, match=f"line {no}: {what}"):
        load_dataset(p, "x")


@pytest.mark.parametrize("field", [
    "7", " +7 ", "-0", "+-7", "7.", ".5", "e5", "1e5", "1E-5", "1d5", "0x10", "", " ", "\t",
    "Infinity", "-iNf", "infinit", "NaN", "nan(1)", "\u30007", "7\u3000", "\xa07", "7\x00",
    "9223372036854775807", "-9223372036854775809", "1,5",
])
def test_every_rejected_field_names_its_line(tmp_path, field):
    # the row-by-row checks must reject exactly what numpy's reader rejects
    p = tmp_path / "f.csv"
    for body in (f"0,1.0\n\n{field},2.0\n", f"0,1.0\n\n1,{field}\n"):
        p.write_text("label,f0\n" + body)
        try:
            load_dataset(p, "x")
        except DatasetFormatError as e:
            assert "line 4: " in str(e)


def test_load_skips_whitespace_lines_and_takes_small_tables(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("label,f0,f1\n \t \n0,1.5,-2.0\n\n   \n")
    ds = load_dataset(p)
    assert ds.features.tolist() == [[1.5, -2.0]] and ds.labels.tolist() == [0]
    p.write_text("label,f0\n3,0.25\n-1,+7\n")
    ds = load_dataset(p)
    assert ds.features.shape == (2, 1) and ds.features[:, 0].tolist() == [0.25, 7.0]
    assert ds.labels.tolist() == [3, -1]


def test_episode_spec_validation():
    with pytest.raises(ValueError, match="at least 2 ways"):
        EpisodeSpec(1, 1, 1)
    with pytest.raises(ValueError):
        EpisodeSpec(3, 0, 1)


def test_sample_episode_shapes_and_counts():
    ds = gen_synthetic(small_spec())
    rng = np.random.default_rng(0)
    ep = sample_episode(ds, EpisodeSpec(5, 5, 15), rng)
    assert ep.inputs.shape == (25 + 75, 3)
    assert ep.rows.shape == (25 + 75,)
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
        sup = {tuple(r) for r in ep.inputs[:20]}
        qry = {tuple(r) for r in ep.inputs[20:]}
        assert not (sup & qry)
        assert np.unique(ep.rows).size == ep.rows.size


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
    assert np.array_equal(e1.inputs, e2.inputs)
    assert np.array_equal(e1.rows, e2.rows)
    assert e1.class_map == e2.class_map


def test_sample_episode_records_rows():
    ds = gen_synthetic(small_spec())
    spec = EpisodeSpec(4, 3, 5)
    for seed in range(20):
        ep = sample_episode(ds, spec, np.random.default_rng(seed))
        assert np.array_equal(ds.features[ep.rows], ep.inputs)
        local = np.concatenate((ep.support_y, ep.query_y))
        assert np.array_equal(ds.labels[ep.rows], np.take(ep.class_map, local))
        # the draws are those of one class choice, then one row choice per class
        rng = np.random.default_rng(seed)
        chosen = rng.choice(np.asarray(ds.classes), size=spec.ways, replace=False)
        picks = [rng.choice(ds.class_index[int(c)], size=8, replace=False) for c in chosen]
        assert ep.class_map == tuple(int(c) for c in chosen)
        assert np.array_equal(ep.rows, np.concatenate([p[:3] for p in picks] +
                                                      [p[3:] for p in picks]))


def uneven_dataset():
    """Classes with 9 to 40 rows each, unsorted ids, rows of a class scattered."""
    rng = np.random.default_rng(17)
    ids = rng.permutation(np.arange(100, 100 + 3 * 12, 3))
    labels = rng.permutation(np.repeat(ids, rng.integers(9, 41, size=ids.size)))
    return Dataset(rng.standard_normal((labels.size, 2)), labels, "uneven")


def exact_dataset():
    """Six classes of exactly 8 rows: every row of a drawn class is in the episode."""
    return gen_synthetic(small_spec(classes_per_domain=3, samples_per_class=8))


def two_classes(rows):
    """Two classes of `rows` rows each, for numpy's choice branches on large classes."""
    labels = np.repeat([3, 8], rows)
    return Dataset(np.arange(labels.size, dtype=np.float64)[:, None], labels, "large")


def choice_draw(ds, spec, rng):
    """The oracle: one `rng.choice` of the classes, then one per drawn class of its rows."""
    chosen = rng.choice(ds.class_ids, size=spec.ways, replace=False)
    need = spec.shots + spec.queries
    return chosen, np.stack([rng.choice(ds.class_index[int(c)], size=need, replace=False)
                             for c in chosen])


@pytest.mark.parametrize("make,spec", [
    (lambda: gen_synthetic(small_spec()), EpisodeSpec(2, 1, 1)),
    (lambda: gen_synthetic(small_spec()), EpisodeSpec(5, 5, 15)),
    (lambda: gen_synthetic(small_spec(classes_per_domain=12)), EpisodeSpec(20, 1, 15)),
    (uneven_dataset, EpisodeSpec(6, 3, 5)),
    (exact_dataset, EpisodeSpec(3, 3, 5)),
    # choice(pop, size) takes Floyd's branch when pop <= 10,000 or size <= pop // 50, else the tail
    (lambda: two_classes(10_001), EpisodeSpec(2, 1, 200)),
    (lambda: two_classes(10_000), EpisodeSpec(2, 1, 200)),
    (lambda: two_classes(10_001), EpisodeSpec(2, 1, 199)),
], ids=["2w1s", "5w5s", "20w1s", "uneven", "exact", "tail", "floyd-10000", "floyd-50th"])
def test_draw_episode_rows_is_sample_episode_draw(make, spec):
    """`draw_episodes` with one generator draws `sample_episode`'s episode and `choice`'s rows."""
    ds = make()
    seeds = range(1) if ds.split_name == "large" else range(6)
    for seed in seeds:
        for i in range(8):
            a, b, c = (np.random.default_rng([seed, i]) for _ in range(3))
            (chosen,), (picks,) = draw_episodes(ds, spec, [a])
            ep = sample_episode(ds, spec, b)
            assert chosen.dtype == picks.dtype == np.int64
            assert picks.shape == (spec.ways, spec.shots + spec.queries)
            assert tuple(chosen.tolist()) == ep.class_map
            assert np.array_equal(ep.rows, np.concatenate((picks[:, :spec.shots].ravel(),
                                                           picks[:, spec.shots:].ravel())))
            assert np.array_equal(ep.inputs, ds.features[ep.rows])
            assert np.array_equal(ds.labels[picks], np.repeat(chosen[:, None], picks.shape[1], 1))
            # the rows of one class choice, then one row choice per class
            want_chosen, want_picks = choice_draw(ds, spec, c)
            assert np.array_equal(chosen, want_chosen)
            assert np.array_equal(picks, want_picks)
            # all three made the same draws: the generators stand at the same state
            assert a.random() == b.random() == c.random()
        # a batch from one generator is that generator's next 7 draws
        a, c = np.random.default_rng([seed, 99]), np.random.default_rng([seed, 99])
        chosen, picks = draw_episodes(ds, spec, [a] * 7)
        want = [choice_draw(ds, spec, c) for _ in range(7)]
        assert chosen.shape == (7, spec.ways) and picks.shape[:2] == (7, spec.ways)
        assert np.array_equal(chosen, np.stack([w[0] for w in want]))
        assert np.array_equal(picks, np.stack([w[1] for w in want]))
        assert a.random() == c.random()
        # a batch of one generator per episode is each one's draw
        gens = [np.random.default_rng([seed, 7, i]) for i in range(5)]
        oracles = [np.random.default_rng([seed, 7, i]) for i in range(5)]
        chosen, picks = draw_episodes(ds, spec, iter(gens))
        for k, (g, o) in enumerate(zip(gens, oracles)):
            want_chosen, want_picks = choice_draw(ds, spec, o)
            assert np.array_equal(chosen[k], want_chosen)
            assert np.array_equal(picks[k], want_picks)
            assert g.random() == o.random()


@pytest.mark.parametrize("chunk_bytes", [1, iml.data.DRAW_CHUNK_BYTES], ids=["1", "default"])
def test_draw_errors_name_the_first_short_class_drawn(monkeypatch, chunk_bytes):
    """Both messages stay; the short class named is the first one in draw order."""
    ds, spec = uneven_dataset(), EpisodeSpec(4, 10, 10)
    with pytest.raises(ValueError, match=r"^dataset 'uneven' has 12 classes; episode needs 13$"):
        draw_episodes(ds, EpisodeSpec(13, 1, 1), [np.random.default_rng(0)])
    monkeypatch.setattr(iml.data, "DRAW_CHUNK_BYTES", chunk_bytes)  # 1: an episode per chunk
    for seed in range(20):
        rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(50):  # the oracle's first short class, in its first episode with one
            chosen = oracle.choice(ds.class_ids, size=spec.ways, replace=False)
            sizes = [ds.class_index[int(c)].size for c in chosen]
            if min(sizes) < 20:
                break
            for c in chosen:
                oracle.choice(ds.class_index[int(c)], size=20, replace=False)
        first = next(c for c, n in zip(chosen, sizes) if n < 20)
        msg = f"^class {first} has {ds.class_index[int(first)].size} rows; episode needs 20$"
        with pytest.raises(ValueError, match=msg):
            draw_episodes(ds, spec, [rng] * 50)


def test_draw_episodes_is_the_same_in_any_chunking(monkeypatch):
    """Chunks bound the working set only: any chunk size gives the same draws and states."""
    ds, spec = uneven_dataset(), EpisodeSpec(5, 2, 3)
    runs = []
    for chunk_bytes in (1, 60 * 5 * 5 * 7, iml.data.DRAW_CHUNK_BYTES):  # 1, 7 and 30 per chunk
        monkeypatch.setattr(iml.data, "DRAW_CHUNK_BYTES", chunk_bytes)
        rng = np.random.default_rng(4)
        runs.append((*draw_episodes(ds, spec, [rng] * 30), rng.random()))
    for chosen, picks, after in runs[1:]:
        assert np.array_equal(chosen, runs[0][0]) and np.array_equal(picks, runs[0][1])
        assert after == runs[0][2]


def oracle_eval_rows(ds, spec, n, seed):
    return np.stack([choice_draw(ds, spec, np.random.default_rng([seed, i]))[1]
                     for i in range(n)])


def test_eval_episode_rows_of_each_count_are_correct():
    """n = 100 and n = 200 on one table each hold episodes 0..n-1 of their seed; n = 0 none."""
    ds, spec = gen_synthetic(small_spec()), EpisodeSpec(5, 2, 3)
    assert eval_episode_rows(ds, spec, 0, 4).shape == (0, 5, 5)
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


def test_episode_inputs_are_support_rows_then_query_rows():
    ds = gen_synthetic(small_spec())
    ep = sample_episode(ds, EpisodeSpec(3, 2, 4), np.random.default_rng(6))
    assert ep.inputs.shape == (3 * 2 + 3 * 4, 3)
    assert np.array_equal(ep.inputs, ds.features[ep.rows])
    # the first len(support_y) rows are the support, two per class in class order
    assert np.array_equal(ds.labels[ep.rows[:6]], np.repeat(ep.class_map, 2))
    assert np.array_equal(ds.labels[ep.rows[6:]], np.repeat(ep.class_map, 4))


def test_sample_anchor_subset():
    rng = np.random.default_rng(1)
    sub = sample_anchor_subset(32, 5, rng)
    assert sub.shape == (5,)
    assert np.issubdtype(sub.dtype, np.integer)
    # distinct rows of the 32 stored anchors, in ascending order
    assert np.all(np.diff(sub) > 0) and 0 <= sub[0] and sub[-1] < 32
    assert np.array_equal(sample_anchor_subset(32, 32, rng), np.arange(32))
    with pytest.raises(ValueError, match="at least one"):
        sample_anchor_subset(32, 0, rng)
    with pytest.raises(ValueError, match="only 32"):
        sample_anchor_subset(32, 33, rng)


def test_sample_anchor_subset_uniform():
    rng = np.random.default_rng(2)
    hits = np.zeros(32)
    n = 10000
    for _ in range(n):
        for row in sample_anchor_subset(32, 5, rng):
            hits[row] += 1
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
