import tracemalloc

import numpy as np
import pytest

import iml.autodiff
import iml.data
import iml.evaluator
import iml.model
from iml.anchorstore import snapshot_digest
from iml.data import (
    Dataset, EpisodeSpec, SyntheticSpec, gen_synthetic, sample_episode, uniform_offset,
)
from iml.evaluator import (
    CSV_HEADER,
    EvalReport,
    SweepRow,
    SweepTable,
    confidence_interval,
    cross_way_shot,
    evaluate,
    sweep_exemplars,
    sweep_lambda,
)
from iml.losses import MethodKind
from iml.model import (
    SCORE_CHUNK_BYTES,
    AnchorSet,
    BackboneConfig,
    SnapshotMeta,
    freeze_snapshot,
    init_backbone,
    score_episode,
)
from iml.trainer import TrainConfig, train_base, train_incremental

DIM = 4
CLASSES = 6  # per domain


def make_data():
    spec = SyntheticSpec(classes_per_domain=CLASSES, dim=DIM, cluster_std=0.3,
                         domain_offset=uniform_offset(2.0, DIM),
                         samples_per_class=25, seed=3)
    tr = gen_synthetic(spec, sample_seed=0)
    va = gen_synthetic(spec, sample_seed=1)
    te = gen_synthetic(spec, sample_seed=2)
    a = list(range(CLASSES))
    b = list(range(CLASSES, 2 * CLASSES))
    return {
        "old_tr": tr.subset_classes(a, "old"), "old_va": va.subset_classes(a, "old"),
        "old_te": te.subset_classes(a, "old"),
        "new_tr": tr.subset_classes(b, "new"), "new_va": va.subset_classes(b, "new"),
        "new_te": te.subset_classes(b, "new"),
    }


def quick_cfg(**kw):
    base = dict(epochs=1, tasks_per_epoch=5, episode=EpisodeSpec(3, 2, 4),
                seed=0, val_episodes=3, backbone=BackboneConfig(DIM, (8,), DIM))
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def data():
    return make_data()


@pytest.fixture(scope="module")
def base_snap(data):
    return train_base(data["old_tr"], data["old_va"], quick_cfg(epochs=2))


# ---- confidence intervals ----


def test_ci_two_point_values():
    # mean 0.5, sample sd sqrt(0.5), half-width 1.96 * sqrt(0.5 / 2) = 0.98
    mean, half = confidence_interval([0.0, 1.0])
    assert mean == 0.5
    assert half == 0.98


def test_ci_constant_sequence():
    mean, half = confidence_interval([0.7] * 10)
    assert mean == pytest.approx(0.7, abs=1e-15)
    assert half == 0.0
    assert confidence_interval([1.0] * 5) == (1.0, 0.0)


def test_ci_shrinks_with_replication():
    # with the n-1 denominator the 1/sqrt(n) shrink is only asymptotic:
    # replicating 4x lands near, not exactly at, half the width
    rng = np.random.default_rng(2)
    vals = list(rng.uniform(size=100))
    _, half1 = confidence_interval(vals)
    _, half4 = confidence_interval(vals * 4)
    assert half4 < half1
    assert abs(half4 / half1 - 0.5) < 0.01


def test_ci_needs_two_values():
    with pytest.raises(ValueError):
        confidence_interval([0.5])
    with pytest.raises(ValueError):
        confidence_interval([])


def test_ci_matches_numpy():
    rng = np.random.default_rng(11)
    vals = rng.uniform(size=50)
    mean, half = confidence_interval(vals)
    assert abs(mean - vals.mean()) < 1e-12
    assert abs(half - 1.96 * vals.std(ddof=1) / np.sqrt(50)) < 1e-12


# ---- evaluate ----


def test_evaluate_needs_two_episodes(base_snap, data):
    with pytest.raises(ValueError):
        evaluate(base_snap, data["old_te"], EpisodeSpec(3, 2, 4), 1, 0)


def test_evaluate_report_fields(base_snap, data):
    rep = evaluate(base_snap, data["old_te"], EpisodeSpec(3, 2, 4), 10, 42)
    assert rep.split == "old"
    assert rep.n_episodes == 10
    assert (rep.ways, rep.shots, rep.queries) == (3, 2, 4)
    assert rep.seed == 42
    assert 0.0 <= rep.mean_acc <= 1.0
    assert rep.ci95 >= 0.0


def test_evaluate_deterministic(base_snap, data):
    a = evaluate(base_snap, data["old_te"], EpisodeSpec(3, 2, 4), 25, 7)
    b = evaluate(base_snap, data["old_te"], EpisodeSpec(3, 2, 4), 25, 7)
    assert a == b


def test_evaluate_worker_count_does_not_change_result(base_snap, data):
    spec = EpisodeSpec(3, 2, 4)
    serial = evaluate(base_snap, data["old_te"], spec, 30, 5, workers=1)
    threaded = evaluate(base_snap, data["old_te"], spec, 30, 5, workers=3)
    assert serial == threaded


def grid_data():
    """20 classes of 22 rows: room for 20-way 5-shot 15-query episodes."""
    spec = SyntheticSpec(classes_per_domain=10, dim=DIM, cluster_std=0.6,
                         domain_offset=uniform_offset(1.0, DIM),
                         samples_per_class=22, seed=4)
    return gen_synthetic(spec, sample_seed=0)


@pytest.mark.parametrize("ways,shots", [(5, 1), (5, 5), (20, 5)])
def test_evaluate_matches_per_episode_oracle(base_snap, ways, shots):
    """Scoring from one embedding table is bitwise re-embedding every episode."""
    ds = grid_data()
    ep_spec = EpisodeSpec(ways, shots, 15)
    accs = [score_episode(base_snap.params,
                          sample_episode(ds, ep_spec, np.random.default_rng([9, i])))
            for i in range(12)]
    mean, half = confidence_interval(accs)
    rep = evaluate(base_snap, ds, ep_spec, 12, 9)
    assert rep.mean_acc == mean and rep.ci95 == half
    assert 0.0 < half
    assert evaluate(base_snap, ds, ep_spec, 12, 9, workers=2) == rep


def wide_snapshot(embed_dim=16, seed=5):
    """An untrained snapshot with the benchmark's 16-dim embedding."""
    config = BackboneConfig(DIM, (8,), embed_dim)
    return freeze_snapshot(init_backbone(config, seed),
                           AnchorSet((), np.zeros((0, embed_dim))), SnapshotMeta(seed, 0, "nu"))


@pytest.mark.parametrize("ways,shots,n,per_chunk", [(5, 5, 47, 21), (20, 5, 7, 1)])
def test_evaluate_matches_oracle_across_chunks(monkeypatch, ways, shots, n, per_chunk):
    """A last, partial chunk (and one-episode chunks) score bitwise like single episodes."""
    snap, ds, spec = wide_snapshot(), grid_data(), EpisodeSpec(ways, shots, 15)
    # accuracy holds an episode's gathered rows plus two (queries, ways) arrays
    episode_bytes = 8 * (ways * (shots + 15) * 16 + 2 * (ways * 15) * ways)
    assert SCORE_CHUNK_BYTES // episode_bytes > per_chunk  # the real budget holds more
    monkeypatch.setattr(iml.model, "SCORE_CHUNK_BYTES", per_chunk * episode_bytes)
    chunks = []
    real = iml.model.nearest_prototypes

    def spy(support, queries, query_norms, labels):
        chunks.append(support.shape[0])
        return real(support, queries, query_norms, labels)

    monkeypatch.setattr(iml.model, "nearest_prototypes", spy)
    accs = [score_episode(snap.params, sample_episode(ds, spec, np.random.default_rng([3, i])))
            for i in range(n)]
    mean, half = confidence_interval(accs)
    rep = evaluate(snap, ds, spec, n, 3)
    assert chunks == [per_chunk] * (n // per_chunk) + [n % per_chunk] * (n % per_chunk > 0)
    assert rep.mean_acc == mean and rep.ci95 == half
    assert 0.0 < half
    assert evaluate(snap, ds, spec, n, 3, workers=2) == rep


@pytest.mark.parametrize("ways", [10, 20])
def test_evaluate_far_from_the_origin_matches_exact_oracle(monkeypatch, ways):
    """A table at offset 1e3 and spread 1e-2, where |q|^2 dominates every distance:
    each accuracy is bitwise the exact kernel's, and the GEMM certifies episodes."""
    ds, spec, n = grid_data(), EpisodeSpec(ways, 5, 15), 30
    rng = np.random.default_rng(ways)
    centres = rng.standard_normal((ds.n_classes, 16))
    z = 1e3 * rng.standard_normal(16) + 1e-2 * (
        centres[ds.labels] + 1.5 * rng.standard_normal((len(ds), 16)))
    picks = iml.data.eval_episode_rows(ds, spec, n, 6)
    query_y = np.repeat(np.arange(ways), 15)
    accs = []
    for p in picks:
        support, queries = z[p[None, :, :5]], z[p[None, :, 5:]].reshape(1, -1, 16)
        d = iml.autodiff.prototype_distances(support, queries)[0]
        accs.append(float((d.argmin(axis=1) == query_y).mean()))
    calls = []
    real = iml.autodiff.prototype_distances
    monkeypatch.setattr(iml.autodiff, "prototype_distances",
                        lambda s, q: calls.append(s.shape[0]) or real(s, q))
    rep = evaluate(wide_snapshot(), ds, spec, n, 6, z=z)
    assert (rep.mean_acc, rep.ci95) == confidence_interval(accs)
    assert 0.5 < rep.mean_acc < 1.0  # neither trivial nor chance
    assert len(calls) < n  # most episodes are certified, not rescored


def test_evaluate_peak_memory_is_one_chunk():
    """Scoring holds one chunk at a time: 200 20-way 5-shot episodes need no more."""
    snap, ds, spec = wide_snapshot(), grid_data(), EpisodeSpec(20, 5, 15)
    table = len(ds) * 16 * 8  # the embedding of every row
    evaluate(snap, ds, spec, 2, 0)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        evaluate(snap, ds, spec, 200, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a chunk's working arrays fit in 1 MiB; the exact kernel on all 200 at once would take 154 MB
    assert peak - table < 4 * 2 ** 20, peak


def fresh(ds):
    """A copy of `ds` that shares no drawn episodes with it."""
    return Dataset(ds.features, ds.labels, ds.split_name)


def test_evaluations_share_one_draw_per_split(monkeypatch, data):
    """Six snapshots on three splits draw each split's n episodes once: 3 draws of n."""
    draws = []
    real = iml.data.draw_episodes

    def counting(dataset, spec, rngs):
        chosen, picks = real(dataset, spec, rngs)
        draws.append((dataset, len(picks)))
        return chosen, picks

    monkeypatch.setattr(iml.data, "draw_episodes", counting)
    splits = [fresh(data[k]) for k in ("old_te", "new_te", "old_va")]
    snaps = [wide_snapshot(embed_dim=DIM, seed=s) for s in range(6)]
    reports = [evaluate(snap, ds, EpisodeSpec(3, 2, 4), 20, 8) for snap in snaps for ds in splits]
    assert [(id(ds), n) for ds, n in draws] == [(id(ds), 20) for ds in splits]
    assert len({(r.mean_acc, r.ci95) for r in reports}) > 3  # the snapshots do differ


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("ways,shots", [(5, 1), (20, 5)])
def test_warm_table_reports_equal_fresh_copy(ways, shots, workers):
    """Scoring from stored draws gives the reports a table that draws anew gives."""
    ds, spec = grid_data(), EpisodeSpec(ways, shots, 15)
    snaps = [wide_snapshot(seed=s) for s in (5, 6)]
    for snap in snaps:  # the first call draws, every later one reads the stored rows
        evaluate(snap, ds, spec, 30, 2, workers=workers)
    warm = [evaluate(snap, ds, spec, 30, 2, workers=workers) for snap in snaps]
    cold = [evaluate(snap, fresh(ds), spec, 30, 2, workers=workers) for snap in snaps]
    assert warm == cold
    assert warm[0] != warm[1]


def test_cross_way_shot_embeds_each_snapshot_once(monkeypatch):
    """One embedding per snapshot serves every cell, and the rows are per-cell `evaluate`'s."""
    embedded = []
    real = iml.evaluator.embed

    def counting(params, x):
        embedded.append(x.shape[0])
        return real(params, x)

    ds, snaps = grid_data(), [wide_snapshot(seed=s) for s in (5, 6, 7)]
    monkeypatch.setattr(iml.evaluator, "embed", counting)
    table = cross_way_shot(snaps, [5, 10], [1, 5], ds, 12, 0, labels=["a", "b", "c"])
    assert embedded == [len(ds)] * len(snaps)
    monkeypatch.undo()
    cells = [(snap, (way, shot)) for snap in snaps for way in (5, 10) for shot in (1, 5)]
    assert len(table.rows) == len(cells)
    for row, (snap, (way, shot)) in zip(table.rows, cells):
        assert row.axis_value == (way, shot)
        assert row.report == evaluate(snap, fresh(ds), EpisodeSpec(way, shot, 15), 12, 0)


def test_evaluate_rejects_dim_mismatch(base_snap):
    ds = Dataset(np.zeros((40, DIM + 3)), np.repeat(np.arange(4), 10), "wide")
    with pytest.raises(ValueError, match=f"{DIM}-dim inputs.*'wide' is {DIM + 3}-dim"):
        evaluate(base_snap, ds, EpisodeSpec(3, 1, 2), 5, 0)


def test_evaluate_rejects_table_of_wrong_shape(base_snap, data):
    ds = data["old_te"]
    good = iml.evaluator.embed_table(base_snap, ds)
    for z in (good[:, :3], good[1:], np.zeros((len(ds), DIM + 1))):
        with pytest.raises(ValueError, match=rf"z has shape \({z.shape[0]}, {z.shape[1]}\).*"
                                             rf"gives \({len(ds)}, {DIM}\)"):
            evaluate(base_snap, ds, EpisodeSpec(3, 2, 4), 5, 0, z=z)
    assert evaluate(base_snap, ds, EpisodeSpec(3, 2, 4), 5, 0, z=good) == \
        evaluate(base_snap, ds, EpisodeSpec(3, 2, 4), 5, 0)


def test_evaluate_seed_changes_episodes(base_snap, data):
    spec = EpisodeSpec(3, 2, 4)
    a = evaluate(base_snap, data["old_te"], spec, 60, 1)
    b = evaluate(base_snap, data["old_te"], spec, 60, 2)
    assert (a.mean_acc, a.ci95) != (b.mean_acc, b.ci95)


def test_evaluate_ci_bounded_by_worst_case(base_snap, data):
    # per-episode accuracies live in [0,1], so sd <= 0.5
    rep = evaluate(base_snap, data["old_te"], EpisodeSpec(3, 2, 4), 50, 3)
    assert rep.ci95 <= 1.96 * 0.5 / np.sqrt(50) + 1e-12


def test_evaluate_leaves_snapshot_untouched(base_snap, data):
    before = snapshot_digest(base_snap)
    evaluate(base_snap, data["old_te"], EpisodeSpec(3, 2, 4), 20, 0)
    assert snapshot_digest(base_snap) == before


def test_evaluate_collapsed_clusters_are_trivial(base_snap):
    # zero spread: every query coincides with its class prototype
    spec = SyntheticSpec(classes_per_domain=CLASSES, dim=DIM, cluster_std=0.0,
                         domain_offset=uniform_offset(2.0, DIM),
                         samples_per_class=12, seed=8)
    ds = gen_synthetic(spec, sample_seed=0).subset_classes(
        list(range(CLASSES)), "old")
    rep = evaluate(base_snap, ds, EpisodeSpec(3, 1, 4), 25, 0)
    assert rep.mean_acc == 1.0
    assert rep.ci95 == 0.0


def test_evaluate_tied_scores_give_exact_chance():
    # All-identical features make every prototype coincide; argmin tie-break
    # always answers local class 0, so each episode scores exactly 1/ways.
    ways = 4
    feats = np.zeros((8 * 10, DIM))
    labels = np.repeat(np.arange(8), 10)
    ds = Dataset(feats, labels, "flat")
    params = init_backbone(BackboneConfig(DIM, (8,), DIM), seed=0)
    snap = freeze_snapshot(params, AnchorSet((), np.zeros((0, DIM))), SnapshotMeta(0, 0, "nu"))
    rep = evaluate(snap, ds, EpisodeSpec(ways, 1, 5), 20, 0)
    assert rep.mean_acc == 1.0 / ways
    assert rep.ci95 == 0.0


def test_evaluate_unstructured_data_near_chance():
    # Labels carry no information about the features, so a 5-way episode
    # should land near 20% regardless of the (untrained) backbone.
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(8 * 25, DIM))
    labels = np.repeat(np.arange(8), 25)
    ds = Dataset(feats, labels, "noise")
    params = init_backbone(BackboneConfig(DIM, (8,), DIM), seed=1)
    snap = freeze_snapshot(params, AnchorSet((), np.zeros((0, DIM))), SnapshotMeta(1, 0, "nu"))
    rep = evaluate(snap, ds, EpisodeSpec(5, 1, 5), 100, 0)
    assert 0.10 < rep.mean_acc < 0.35


# ---- csv output ----


def test_csv_row_matches_header():
    rep = EvalReport("old", 500, 0.9321, 0.0123, 5, 5, 15, 1234)
    fields = rep.csv_row().split(",")
    assert len(fields) == len(CSV_HEADER.split(","))
    assert fields[0] == "old"
    assert int(fields[1]) == 500
    # float fields are written with repr so parsing them back is lossless
    assert float(fields[2]) == rep.mean_acc
    assert float(fields[3]) == rep.ci95
    assert [int(f) for f in fields[4:]] == [5, 5, 1234]


def test_sweep_table_csv_lines():
    rep = EvalReport("old", 10, 0.5, 0.1, 3, 2, 4, 0)
    table = SweepTable("lambda", [SweepRow(0.5, "old", rep)], {0.5: 0.25})
    lines = table.csv_lines()
    assert lines[0] == f"lambda,label,{CSV_HEADER}"
    assert lines[1].startswith("0.5,old,old,10,")
    assert lines[2].split(",")[:2] == ["0.5", "range"]
    # every line has the same number of columns
    assert {len(l.split(",")) for l in lines} == {len(lines[0].split(","))}


# ---- lambda sweep ----


def test_sweep_lambda_rejects_negative(base_snap, data):
    with pytest.raises(ValueError):
        sweep_lambda(base_snap, data["new_tr"], data["new_va"],
                     {"old": data["old_te"]}, [-1.0], quick_cfg(), 5, 0)


def test_sweeps_check_the_whole_grid_before_training(monkeypatch, base_snap, data):
    runs = []
    real = iml.evaluator.train_incremental

    def counting(*args, **kwargs):
        runs.append(args[3])
        return real(*args, **kwargs)

    monkeypatch.setattr(iml.evaluator, "train_incremental", counting)
    splits = {"old": data["old_te"]}
    with pytest.raises(ValueError, match=r"non-negative, got \[-1\]"):
        sweep_lambda(base_snap, data["new_tr"], data["new_va"], splits,
                     [0.5, -1], quick_cfg(), 5, 0)
    with pytest.raises(ValueError, match=r"at least 1 per class, got \[0\]"):
        sweep_exemplars(base_snap, data["old_tr"], data["new_tr"], data["new_va"],
                        iter([2, 0]), quick_cfg(), splits, 5, 0)
    assert runs == []
    sweep_exemplars(base_snap, data["old_tr"], data["new_tr"], data["new_va"],
                    iter([2, 3]), quick_cfg(), splits, 5, 0)
    assert runs == [MethodKind.EIML] * 2


def test_sweep_lambda_zero_weight_equals_plain_finetune(base_snap, data):
    cfg = quick_cfg()
    splits = {"old": data["old_te"], "new": data["new_te"]}
    table = sweep_lambda(base_snap, data["new_tr"], data["new_va"], splits,
                         [0.0], cfg, 10, 9)
    ft = train_incremental(base_snap, data["new_tr"], data["new_va"],
                           MethodKind.FT, cfg)
    for row in table.rows:
        direct = evaluate(ft, splits[row.label], cfg.episode, 10, 9)
        assert row.report.mean_acc == direct.mean_acc
        assert row.report.ci95 == direct.ci95


def test_sweep_lambda_row_layout(base_snap, data):
    splits = {"old": data["old_te"], "new": data["new_te"]}
    table = sweep_lambda(base_snap, data["new_tr"], data["new_va"], splits,
                         [0.0, 1.0], quick_cfg(), 5, 0)
    assert table.axis == "lambda"
    assert [(r.axis_value, r.label) for r in table.rows] == [
        (0.0, "old"), (0.0, "new"), (1.0, "old"), (1.0, "new")]
    assert all(r.report.split == r.label for r in table.rows)


# ---- exemplar sweep ----


def test_sweep_exemplars_row_layout(base_snap, data):
    splits = {"old": data["old_te"]}
    table = sweep_exemplars(base_snap, data["old_tr"], data["new_tr"],
                            data["new_va"], [2, 3], quick_cfg(), splits, 5, 0)
    assert table.axis == "exemplars"
    assert [r.axis_value for r in table.rows] == [2, 3]
    assert all(r.label == "old" for r in table.rows)


def test_sweep_exemplars_budget_changes_model(base_snap, data):
    splits = {"old": data["old_te"], "new": data["new_te"]}
    cfg = quick_cfg(epochs=2, tasks_per_epoch=15, episode=EpisodeSpec(5, 1, 6),
                    lam=1.0, lr=3e-3)
    table = sweep_exemplars(base_snap, data["old_tr"], data["new_tr"],
                            data["new_va"], [2, 20], cfg, splits, 60, 0)
    by_count = {}
    for row in table.rows:
        by_count.setdefault(row.axis_value, []).append(
            (row.report.mean_acc, row.report.ci95))
    assert by_count[2] != by_count[20]


# ---- ways/shots grid ----


def test_cross_way_shot_grid(base_snap, data):
    table = cross_way_shot([base_snap], [2, 3], [1, 2], data["old_te"], 10, 0,
                           queries=4, labels=["base"])
    assert table.axis == "way_shot"
    assert [r.axis_value for r in table.rows] == [(2, 1), (2, 2), (3, 1), (3, 2)]
    assert all(r.label == "base" for r in table.rows)
    # a single snapshot spans no range at all
    assert set(table.ranges) == {(2, 1), (2, 2), (3, 1), (3, 2)}
    assert all(v == 0.0 for v in table.ranges.values())
    for row in table.rows:
        assert (row.report.ways, row.report.shots) == row.axis_value


def test_cross_way_shot_range_tracks_spread(base_snap, data):
    ft = train_incremental(base_snap, data["new_tr"], data["new_va"],
                           MethodKind.FT, quick_cfg())
    table = cross_way_shot([base_snap, ft], [3], [2], data["new_te"], 20, 0,
                           queries=4, labels=["base", "ft"])
    means = [r.report.mean_acc for r in table.rows]
    assert table.ranges[(3, 2)] == max(means) - min(means)


def test_cross_way_shot_label_count_checked(base_snap, data):
    with pytest.raises(ValueError):
        cross_way_shot([base_snap], [2], [1], data["old_te"], 3, 0,
                       labels=["a", "b"])


def test_cross_way_shot_explicit_labels(base_snap, data):
    table = cross_way_shot([base_snap], [2], [1], data["old_te"], 3, 0,
                           queries=4, labels=["teacher"])
    assert all(r.label == "teacher" for r in table.rows)


def test_cross_way_shot_cell_matches_direct_evaluate(base_snap, data):
    table = cross_way_shot([base_snap], [3], [2], data["old_te"], 15, 6,
                           queries=4, labels=["base"])
    direct = evaluate(base_snap, data["old_te"], EpisodeSpec(3, 2, 4), 15, 6)
    assert table.rows[0].report == direct


def test_more_ways_is_harder(base_snap, data):
    table = cross_way_shot([base_snap], [2, 5], [2], data["old_te"], 40, 0,
                           queries=4, labels=["base"])
    by_ways = {r.axis_value[0]: r.report.mean_acc for r in table.rows}
    assert by_ways[2] >= by_ways[5]
