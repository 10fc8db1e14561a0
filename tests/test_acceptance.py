"""Acceptance gate: nine numbered end-to-end requirements.

Each test_cN_* function checks one requirement; the terminal summary
(see conftest) prints one PASS/FAIL line per criterion.  The synthetic
two-domain benchmark used by criteria 4-7 is computed once per test run
by the module-scoped `bench` fixture (roughly seven minutes of training
across five seeds).
"""
import filecmp
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import iml.autodiff as ad
from iml.anchorstore import extract_anchors, snapshot_digest
from iml.autodiff import grad_check
from iml.data import (
    Dataset,
    EpisodeSpec,
    SyntheticSpec,
    concat_datasets,
    gen_synthetic,
    reserve_exemplars,
    sample_episode,
    uniform_offset,
)
from iml.evaluator import confidence_interval, evaluate
from iml.losses import MethodKind, exemplar_kl, feature_drift, ida_kl, meta_xent_loss
from iml.model import (
    BackboneConfig,
    BoundParams,
    ParamStore,
    SnapshotMeta,
    discriminant,
    embed,
    freeze_snapshot,
    init_backbone,
)
from iml.trainer import (
    TrainConfig,
    run_rounds,
    train_base,
    train_incremental,
    train_paragon,
)

# ---------------------------------------------------------------------------
# the shared synthetic two-domain benchmark (criteria 4-7)

BENCH_EPISODE = EpisodeSpec(5, 5, 15)
BENCH_BACKBONE = BackboneConfig(16, (32, 32, 32), 16)
BENCH_SEEDS = range(5)
EVAL_EPISODES = 500
EVAL_SEED = 1234


def bench_data(seed):
    spec = SyntheticSpec(classes_per_domain=32, dim=16, cluster_std=0.5,
                         domain_offset=uniform_offset(3.0, 16),
                         samples_per_class=120, seed=seed)
    tr = gen_synthetic(spec, sample_seed=0)
    va = gen_synthetic(spec, sample_seed=1)
    te = gen_synthetic(spec, sample_seed=2)
    a_tr, a_un = list(range(0, 16)), list(range(16, 32))
    b_tr, b_un = list(range(32, 48)), list(range(48, 64))
    return {
        "old_train": tr.subset_classes(a_tr, "old"),
        "old_val": va.subset_classes(a_tr, "old"),
        "old_test": te.subset_classes(a_tr, "old"),
        "new_train": tr.subset_classes(b_tr, "new"),
        "new_val": va.subset_classes(b_tr, "new"),
        "new_test": te.subset_classes(b_tr, "new"),
        "unseen_test": te.subset_classes(a_un + b_un, "unseen"),
    }


def bench_cfg(seed, **kw):
    base = dict(epochs=30, tasks_per_epoch=100, episode=BENCH_EPISODE, lam=1.0,
                lr=3e-3, seed=seed, val_episodes=50, backbone=BENCH_BACKBONE)
    base.update(kw)
    return TrainConfig(**base)


def pct(snap, d, split):
    rep = evaluate(snap, d[f"{split}_test"], BENCH_EPISODE, EVAL_EPISODES, EVAL_SEED)
    return 100.0 * rep.mean_acc


@pytest.fixture(scope="module")
def bench():
    """Train every method on every seed once; later tests only read numbers."""
    acc = {m: {s: [] for s in ("old", "new", "unseen")}
           for m in ("nu", "ft", "dfa", "ida", "eiml", "par")}
    ida10 = {"old": [], "new": []}
    budgets = {n: {s: [] for s in ("old", "new", "unseen")} for n in (15, 30, 60, 120)}
    rounds_old = {"ft": [], "ida": []}
    anchor_counts = []
    c4_seconds = 0.0

    for seed in BENCH_SEEDS:
        t0 = time.time()
        d = bench_data(seed)
        cfg = bench_cfg(seed)
        base = train_base(d["old_train"], d["old_val"], cfg)
        snaps = {"nu": base}
        for m in (MethodKind.FT, MethodKind.DFA, MethodKind.IDA):
            snaps[m.value] = train_incremental(
                base, d["new_train"], d["new_val"], m, cfg)
        ex = reserve_exemplars(d["old_train"], 15,
                               np.random.default_rng([seed, 301, 15]))
        snaps["eiml"] = train_incremental(
            base, d["new_train"], d["new_val"], MethodKind.EIML, cfg, exemplars=ex)
        snaps["par"] = train_paragon(
            concat_datasets(d["old_train"], d["new_train"], "union"),
            concat_datasets(d["old_val"], d["new_val"], "union"), cfg)
        for name, snap in snaps.items():
            for split in ("old", "new", "unseen"):
                acc[name][split].append(pct(snap, d, split))
        c4_seconds += time.time() - t0

        snap10 = train_incremental(base, d["new_train"], d["new_val"],
                                   MethodKind.IDA, bench_cfg(seed, lam=10.0))
        for split in ("old", "new"):
            ida10[split].append(pct(snap10, d, split))

        for split in ("old", "new", "unseen"):
            budgets[15][split].append(acc["eiml"][split][-1])
        for n_ex in (30, 60, 120):
            ex_n = reserve_exemplars(d["old_train"], n_ex,
                                     np.random.default_rng([seed, 301, n_ex]))
            snap_n = train_incremental(base, d["new_train"], d["new_val"],
                                       MethodKind.EIML, cfg, exemplars=ex_n)
            for split in ("old", "new", "unseen"):
                budgets[n_ex][split].append(pct(snap_n, d, split))

        b1, b2 = list(range(32, 40)), list(range(40, 48))
        rds = [d["new_train"].subset_classes(b1, "new_r1"),
               d["new_train"].subset_classes(b2, "new_r2")]
        rvs = [d["new_val"].subset_classes(b1, "new_r1"),
               d["new_val"].subset_classes(b2, "new_r2")]
        for m in (MethodKind.FT, MethodKind.IDA):
            chain = run_rounds(base, rds, m, cfg, round_vals=rvs)
            rounds_old[m.value].append(pct(chain[-1], d, "old"))
            if m is MethodKind.IDA:
                anchor_counts.append([len(s.anchors) for s in chain])

    return {
        "acc": acc, "ida10": ida10, "budgets": budgets,
        "rounds_old": rounds_old, "anchor_counts": anchor_counts,
        "c4_seconds": c4_seconds,
    }


def mean(xs):
    return sum(xs) / len(xs)


# ---------------------------------------------------------------------------
# criterion 1: analytic gradients vs central differences


def test_c1_gradient_check():
    t0 = time.time()
    dim, temp = 8, 2.0
    spec = SyntheticSpec(classes_per_domain=5, dim=dim, cluster_std=0.4,
                         domain_offset=uniform_offset(2.0, dim),
                         samples_per_class=20, seed=0)
    ds = gen_synthetic(spec, sample_seed=0).subset_classes(list(range(5)), "old")
    episode = sample_episode(ds, EpisodeSpec(5, 2, 3), np.random.default_rng(1))
    config = BackboneConfig(dim, (8,), dim)  # two weight layers
    teacher_params = init_backbone(config, seed=1)
    teacher = freeze_snapshot(config, teacher_params,
                              extract_anchors(teacher_params, ds),
                              SnapshotMeta(1, 0, "base"))
    student = init_backbone(config, seed=2)
    arrays = student.arrays()
    batch = episode.all_inputs()
    batch_teacher = embed(teacher.params, batch).data
    exemplar_ep = sample_episode(ds, EpisodeSpec(5, 2, 2), np.random.default_rng(2))
    exemplar_x = exemplar_ep.all_inputs()
    exemplar_teacher = embed(teacher.params, exemplar_x).data

    def check(f):
        err = grad_check(f, arrays, h=1e-4)
        assert err <= 1e-5, f"relative error {err:.2e}"

    def student_z(ls, x=batch):
        return embed(BoundParams(list(ls)), x)

    check(lambda ls: meta_xent_loss(BoundParams(list(ls)), episode, temp)[0])
    check(lambda ls: ida_kl(student_z(ls), batch_teacher, teacher.anchors, temp))
    check(lambda ls: feature_drift(student_z(ls), batch_teacher))

    def eiml_total(ls):
        a_old = exemplar_kl(student_z(ls, exemplar_x), exemplar_teacher, exemplar_ep, temp)
        a_new = ida_kl(student_z(ls), batch_teacher,
                       teacher.anchors.restrict(exemplar_ep.class_map), temp)
        return ad.add(a_old, a_new)

    check(eiml_total)
    assert time.time() - t0 < 30.0


# ---------------------------------------------------------------------------
# criterion 2: numeric kernels vs high-precision scalar oracles


def test_c2_kernel_oracles():
    t0 = time.time()
    rng = np.random.default_rng(0)
    n, k = 1000, 8

    with mp.workdps(30):
        # softmax and logsumexp share the same 1000 rows, some at x100 scale
        x = rng.normal(scale=4.0, size=(n, k))
        x[::7] *= 100.0
        got_sm = ad.softmax_rows(ad.constant(x)).data
        got_lse = ad.logsumexp_rows(ad.constant(x)).data
        worst_sm = worst_lse = 0.0
        for i in range(n):
            exps = [mp.e ** mp.mpf(v) for v in x[i]]
            total = mp.fsum(exps)
            worst_lse = max(worst_lse, abs(float(mp.log(total)) - got_lse[i]))
            for j in range(k):
                worst_sm = max(worst_sm, abs(float(exps[j] / total) - got_sm[i, j]))
        assert worst_sm <= 1e-10
        assert worst_lse <= 1e-10

        # KL between 1000 random distribution pairs
        p = rng.uniform(0.05, 1.0, size=(n, k))
        q = rng.uniform(0.05, 1.0, size=(n, k))
        p /= p.sum(axis=1, keepdims=True)
        q /= q.sum(axis=1, keepdims=True)
        got_kl = ad.kl_div_rows(ad.constant(p), ad.constant(q)).data
        worst_kl = 0.0
        for i in range(n):
            ref = mp.fsum(mp.mpf(a) * (mp.log(mp.mpf(a)) - mp.log(mp.mpf(b)))
                          for a, b in zip(p[i], q[i]))
            worst_kl = max(worst_kl, abs(float(ref) - got_kl[i]))
        assert worst_kl <= 1e-10

        # squared distances from 1000 points to 4 centers
        pts = rng.normal(scale=3.0, size=(n, k))
        ctr = rng.normal(scale=3.0, size=(4, k))
        got_d = ad.pairwise_sqdist(ad.constant(pts), ad.constant(ctr)).data
        worst_d = 0.0
        for i in range(n):
            for j in range(4):
                ref = mp.fsum((mp.mpf(a) - mp.mpf(b)) ** 2
                              for a, b in zip(pts[i], ctr[j]))
                worst_d = max(worst_d, abs(float(ref) - got_d[i, j]))
        assert worst_d <= 1e-10

    assert time.time() - t0 < 10.0


# ---------------------------------------------------------------------------
# criterion 3: zero alignment weight reproduces plain fine-tuning bitwise


def test_c3_zero_weight_collapse():
    dim = 6
    spec = SyntheticSpec(classes_per_domain=8, dim=dim, cluster_std=0.4,
                         domain_offset=uniform_offset(2.0, dim),
                         samples_per_class=30, seed=5)
    tr = gen_synthetic(spec, sample_seed=0)
    va = gen_synthetic(spec, sample_seed=1)
    a, b = list(range(8)), list(range(8, 16))
    old_tr, old_va = tr.subset_classes(a, "old"), va.subset_classes(a, "old")
    new_tr, new_va = tr.subset_classes(b, "new"), va.subset_classes(b, "new")

    def cfg(tasks):
        return TrainConfig(epochs=1, tasks_per_epoch=tasks,
                           episode=EpisodeSpec(5, 2, 4), lam=0.0, seed=9,
                           val_episodes=5, backbone=BackboneConfig(dim, (12,), dim))

    base = train_base(old_tr, old_va, cfg(20))
    # sample the parameter trajectory at 10, 25 and 50 optimizer steps
    for tasks in (10, 25, 50):
        ft = train_incremental(base, new_tr, new_va, MethodKind.FT, cfg(tasks))
        ida = train_incremental(base, new_tr, new_va, MethodKind.IDA, cfg(tasks))
        assert snapshot_digest(ft) == snapshot_digest(ida), f"diverged by step {tasks}"


# ---------------------------------------------------------------------------
# criteria 4-7: benchmark orderings


def test_c4_benchmark_margins(bench):
    acc = bench["acc"]
    d_old = mean(acc["ida"]["old"]) - mean(acc["ft"]["old"])
    assert d_old >= 5.0, f"old-split margin {d_old:.2f}"
    d_unseen = mean(acc["ida"]["unseen"]) - mean(acc["nu"]["unseen"])
    assert d_unseen >= 3.0, f"unseen-split margin {d_unseen:.2f}"
    par = mean(acc["par"]["unseen"])
    for m in ("nu", "ft", "dfa", "ida", "eiml"):
        other = mean(acc[m]["unseen"])
        assert par >= other - 1.0, f"paragon {par:.2f} vs {m} {other:.2f}"
    assert bench["c4_seconds"] <= 600.0


def test_paragon_margin_over_frozen(bench):
    # the joint-training ceiling clearly beats the untouched model on
    # classes neither of them trained on
    acc = bench["acc"]
    assert mean(acc["par"]["unseen"]) >= mean(acc["nu"]["unseen"]) + 2.0


def test_c5_weight_endpoints(bench):
    # lambda=0 is bitwise fine-tuning, so the ft row is the zero endpoint
    acc, ida10 = bench["acc"], bench["ida10"]
    gain_old = mean(ida10["old"]) - mean(acc["ft"]["old"])
    assert gain_old >= 3.0, f"old-split gain {gain_old:.2f}"
    cost_new = mean(acc["ft"]["new"]) - mean(ida10["new"])
    assert cost_new >= 2.0, f"new-split cost {cost_new:.2f}"


def test_c6_exemplar_flatness(bench):
    budgets = bench["budgets"]
    for split in ("old", "new", "unseen"):
        means = [mean(budgets[n][split]) for n in (15, 30, 60, 120)]
        spread = max(means) - min(means)
        assert spread <= 2.0, f"{split} spread {spread:.2f} over {means}"


def test_c7_two_rounds(bench):
    for counts in bench["anchor_counts"]:
        assert counts == [16 + 8, 16 + 8 + 8]
    margin = mean(bench["rounds_old"]["ida"]) - mean(bench["rounds_old"]["ft"])
    assert margin >= 3.0, f"round-2 old-split margin {margin:.2f}"


# ---------------------------------------------------------------------------
# criterion 8: protocol invariants


def test_c8_protocol_invariants():
    rng = np.random.default_rng(3)
    dim = 6
    config = BackboneConfig(dim, (8,), dim)
    params = init_backbone(config, seed=0)

    spec = SyntheticSpec(classes_per_domain=6, dim=dim, cluster_std=0.4,
                         domain_offset=uniform_offset(2.0, dim),
                         samples_per_class=25, seed=2)
    tr = gen_synthetic(spec, sample_seed=0)
    va = gen_synthetic(spec, sample_seed=1)
    a, b = list(range(6)), list(range(6, 12))
    old_tr, old_va = tr.subset_classes(a, "old"), va.subset_classes(a, "old")
    new_tr, new_va = tr.subset_classes(b, "new"), va.subset_classes(b, "new")

    # discriminant rows are distributions
    anchors = extract_anchors(params, old_tr)
    post = discriminant(embed(params, rng.normal(size=(40, dim))), anchors, 2.0)
    np.testing.assert_allclose(post.data.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    # KL is non-negative
    p = ad.softmax_rows(ad.constant(rng.normal(size=(200, 5)))).data
    q = ad.softmax_rows(ad.constant(rng.normal(size=(200, 5)))).data
    assert ad.kl_div_rows(ad.constant(p), ad.constant(q)).data.min() >= 0.0

    # prototypes are exact class means
    z = ad.constant(rng.normal(size=(12, dim)))
    y = np.repeat(np.arange(4), 3)
    protos = ad.class_means(z, y, 4).data
    for c in range(4):
        assert np.array_equal(protos[c], z.data[y == c].mean(axis=0))

    # incremental training never touches the frozen teacher
    small = TrainConfig(epochs=1, tasks_per_epoch=5, episode=EpisodeSpec(4, 2, 3),
                        seed=0, val_episodes=3, backbone=config)
    base = train_base(old_tr, old_va, small)
    before = snapshot_digest(base)
    snap = train_incremental(base, new_tr, new_va, MethodKind.IDA, small)
    assert snapshot_digest(base) == before
    assert snapshot_digest(snap) != before

    # evaluation is deterministic and does not depend on the worker count
    r1 = evaluate(snap, old_va, EpisodeSpec(4, 2, 3), 30, 11, workers=1)
    r2 = evaluate(snap, old_va, EpisodeSpec(4, 2, 3), 30, 11, workers=3)
    r3 = evaluate(snap, old_va, EpisodeSpec(4, 2, 3), 30, 11, workers=1)
    assert r1 == r2 == r3

    # interval halfwidth on {0,1}: 1.96 * sqrt(0.5 / 2) = 0.980 exactly
    m, half = confidence_interval([0.0, 1.0])
    assert (m, half) == (0.5, 0.98)


# ---------------------------------------------------------------------------
# criterion 9: the command pipeline is byte-for-byte reproducible


PIPE_INI = """\
[data]
train_classes_per_domain = 5
unseen_classes_per_domain = 3
dim = 6
cluster_std = 0.4
offset_magnitude = 2.5
samples_per_class = 30

[train]
epochs = 2
tasks_per_epoch = 10
ways = 3
shots = 2
queries = 5
val_episodes = 5
hidden_dims = 16
embed_dim = 8

[eval]
n_episodes = 40
"""


def run_pipeline(cfg_path, out_dir):
    for argv in (
        ["gen-data"],
        ["train-base"],
        ["train-incr", "--method", "ida"],
        ["eval", "--method", "ida"],
        ["report"],
    ):
        cmd = [sys.executable, "-m", "iml.cli", *argv,
               "-c", str(cfg_path), "--out", str(out_dir)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, f"{argv}: {proc.stderr}"


def tree_files(root):
    return sorted(p.relative_to(root) for p in Path(root).rglob("*") if p.is_file())


def test_c9_pipeline_reproducibility(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(PIPE_INI)
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    run_pipeline(cfg, run_a)
    run_pipeline(cfg, run_b)

    files_a, files_b = tree_files(run_a), tree_files(run_b)
    assert files_a == files_b and files_a
    for rel in files_a:
        assert filecmp.cmp(run_a / rel, run_b / rel, shallow=False), rel
    # and the human-readable report actually has results in it
    assert "| IDA |" in (run_a / "reports" / "summary.md").read_text()
