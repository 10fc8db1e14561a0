import math
import os
import re

import numpy as np
import pytest

import iml.losses
import iml.trainer
from iml.anchorstore import snapshot_digest
from iml.autodiff import proto_xent, prototype_distances
from iml.data import (
    Dataset,
    EpisodeSpec,
    SyntheticSpec,
    concat_datasets,
    gen_synthetic,
    reserve_exemplars,
    uniform_offset,
)
from iml.data import sample_episode
from iml.losses import MethodKind, meta_xent_loss
from iml.model import (
    AnchorSet, BackboneConfig, ParamStore, embed, freeze_snapshot, init_backbone, score_episode,
)
from iml.trainer import (
    OptimState,
    _EpochLog,
    TrainConfig,
    TrainingDivergenceError,
    _EPISODE_STREAM,
    _VAL_STREAM,
    _validate,
    adam_step,
    init_optim,
    lr_schedule_update,
    run_rounds,
    train_base,
    train_incremental,
)


def reference_adam(g_seq, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Scalar Adam recurrence, written straight from the update equations."""
    x, m, v = 0.0, 0.0, 0.0
    xs = [x]
    for t, g in enumerate(g_seq, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1 ** t)
        vhat = v / (1 - beta2 ** t)
        x = x - lr * mhat / (math.sqrt(vhat) + eps)
        xs.append(x)
    return xs


def scalar_store():
    # 1x1 linear layer: a single weight plus a single bias
    return ParamStore(BackboneConfig(1, (), 1), np.zeros(2))


def small_cfg(**kw):
    base = dict(epochs=2, tasks_per_epoch=10, episode=EpisodeSpec(3, 2, 4),
                seed=0, val_episodes=5, backbone=BackboneConfig(4, (8,), 4))
    base.update(kw)
    return TrainConfig(**base)


def domain_data(seed=0, classes=6, dim=4, std=0.3, n=25):
    spec = SyntheticSpec(classes_per_domain=classes, dim=dim, cluster_std=std,
                         domain_offset=uniform_offset(2.0, dim),
                         samples_per_class=n, seed=seed)
    tr = gen_synthetic(spec, sample_seed=0)
    va = gen_synthetic(spec, sample_seed=1)
    a = list(range(classes))
    b = list(range(classes, 2 * classes))
    return (tr.subset_classes(a, "old"), va.subset_classes(a, "old"),
            tr.subset_classes(b, "new"), va.subset_classes(b, "new"))


# ---- optimizer ----


def test_config_validation():
    with pytest.raises(ValueError):
        small_cfg(lr=0.0)
    with pytest.raises(ValueError):
        small_cfg(lr_decay=0.0)
    with pytest.raises(ValueError):
        small_cfg(lam=-1.0)
    with pytest.raises(ValueError):
        small_cfg(epochs=0)
    with pytest.raises(ValueError):
        small_cfg(temperature=0.0)
    with pytest.raises(ValueError):
        small_cfg(kl_order="sideways")
    for bad, needle in ((dict(lam_old=-0.5), "lambda_old"), (dict(lam_new=-1.0), "lambda_new")):
        with pytest.raises(ValueError, match=needle):
            small_cfg(**bad)


def test_init_optim_shapes():
    params = init_backbone(BackboneConfig(3, (5,), 2), 0)
    st = init_optim(params, small_cfg(lr=0.01))
    assert st.m.shape == st.v.shape == params.flat.shape
    assert not st.m.any() and not st.v.any()
    assert st.lr == 0.01
    assert st.step == 0


def test_adam_matches_scalar_recurrence():
    """Drive the in-place update with a fixed gradient sequence and compare
    against the reference recurrence, coordinate by coordinate."""
    g_seq = [0.3, -1.2, 0.7, 0.7, -0.1, 2.0, -2.0, 0.5]
    lr = 0.05
    ps = scalar_store()
    st = init_optim(ps, small_cfg(lr=lr))
    ref = reference_adam(g_seq, lr)
    for i, g in enumerate(g_seq):
        adam_step(ps, np.full(2, g), st)
        assert abs(ps.weights[0][0, 0] - ref[i + 1]) < 1e-14
        assert abs(ps.biases[0][0] - ref[i + 1]) < 1e-14
    assert st.step == len(g_seq)


def test_adam_first_step_is_minus_lr():
    # bias correction makes the first step -lr * g/(|g| + eps') exactly
    ps = scalar_store()
    st = init_optim(ps, small_cfg(lr=0.01))
    adam_step(ps, np.array([3.7, -0.2]), st)
    assert abs(ps.weights[0][0, 0] + 0.01) < 1e-9
    assert abs(ps.biases[0][0] - 0.01) < 1e-9


def test_adam_constant_gradient_step_size():
    # after enough steps the update magnitude settles at lr
    ps = scalar_store()
    st = init_optim(ps, small_cfg(lr=0.02))
    prev = 0.0
    for _ in range(500):
        prev = ps.weights[0][0, 0]
        adam_step(ps, np.full(2, 0.9), st)
    delta = abs(ps.weights[0][0, 0] - prev)
    assert abs(delta - 0.02) < 0.01 * 0.02


def test_adam_rejects_nonfinite_grads():
    ps = scalar_store()
    st = init_optim(ps, small_cfg())
    with pytest.raises(TrainingDivergenceError):
        adam_step(ps, np.array([np.nan, 0.0]), st)


def test_adam_rejects_wrong_grad_shape():
    ps = scalar_store()
    st = init_optim(ps, small_cfg())
    with pytest.raises(ValueError, match=r"gradient of shape \(3,\) for \(2,\) parameters"):
        adam_step(ps, np.zeros(3), st)
    assert st.step == 0 and np.array_equal(ps.flat, np.zeros(2))


def test_flat_adam_matches_per_array_recurrence_bitwise():
    """One pass over the flat moments equals the per-array update, bit for bit."""
    ps = init_backbone(BackboneConfig(5, (7, 6), 4), 3)
    st = init_optim(ps, small_cfg(lr=0.01))
    ref = [a.copy() for a in ps.arrays()]
    m = [np.zeros_like(a) for a in ref]
    v = [np.zeros_like(a) for a in ref]
    rng = np.random.default_rng(9)
    for step in range(1, 61):
        grads = [rng.standard_normal(a.shape) * 10.0 ** rng.uniform(-4, 2) for a in ref]
        adam_step(ps, np.concatenate([g.ravel() for g in grads]), st)
        c1, c2 = 1.0 - 0.9 ** step, 1.0 - 0.999 ** step
        for a, g, ma, va in zip(ref, grads, m, v):
            ma *= 0.9
            ma += (1.0 - 0.9) * g
            va *= 0.999
            va += (1.0 - 0.999) * (g * g)
            a -= 0.01 * (ma / c1) / (np.sqrt(va / c2) + 1e-8)
        for got, want in zip(ps.arrays(), ref):
            assert np.array_equal(got, want), step
        assert np.array_equal(st.m, np.concatenate([x.ravel() for x in m])), step
        assert np.array_equal(st.v, np.concatenate([x.ravel() for x in v])), step


# ---- plateau schedule ----


def walk_schedule(metrics, cfg):
    st = OptimState(m=np.zeros(0), v=np.zeros(0), lr=cfg.lr)
    lrs = []
    for x in metrics:
        lr_schedule_update(st, x, cfg)
        lrs.append(st.lr)
    return st, lrs


def test_schedule_flat_sequence_decays_once():
    cfg = small_cfg(lr=0.1, patience=3, lr_decay=0.5)
    st, lrs = walk_schedule([0.5] * 5, cfg)
    # first 0.5 sets best; then 4 flat epochs, decay fires at the 4th
    assert lrs == [0.1, 0.1, 0.1, 0.1, 0.05]
    assert st.decays == 1


def test_schedule_improving_never_decays():
    cfg = small_cfg(lr=0.1, patience=1)
    st, lrs = walk_schedule([0.1, 0.2, 0.3, 0.4, 0.5, 0.6], cfg)
    assert st.decays == 0
    assert lrs[-1] == 0.1


def test_schedule_strict_improvement_required():
    # equal metric counts as plateau, not improvement
    cfg = small_cfg(lr=0.1, patience=0)
    st, _ = walk_schedule([0.4, 0.4], cfg)
    assert st.decays == 1


def test_schedule_counter_resets_after_decay():
    cfg = small_cfg(lr=0.8, patience=1, lr_decay=0.5)
    st, lrs = walk_schedule([0.9] + [0.1] * 8, cfg)
    # decay every patience+1 flat epochs: epochs 2..9 give 4 decays
    assert st.decays == 4
    assert abs(st.lr - 0.8 * 0.5 ** 4) < 1e-15


def test_schedule_recovery_resets_plateau():
    cfg = small_cfg(lr=0.1, patience=2)
    st, _ = walk_schedule([0.5, 0.4, 0.4, 0.6, 0.5, 0.5], cfg)
    assert st.decays == 0


# ---- training loops ----


def test_train_base_learns_separable_data(tmp_path):
    """Well-separated clusters: episodic validation accuracy reaches 0.95
    within 20 epochs of 100 tasks."""
    spec = SyntheticSpec(classes_per_domain=4, dim=6, cluster_std=0.1,
                         domain_offset=uniform_offset(2.0, 6),
                         samples_per_class=30, seed=1)
    tr = gen_synthetic(spec, sample_seed=0)
    va = gen_synthetic(spec, sample_seed=1)
    log = tmp_path / "log.csv"
    cfg = TrainConfig(epochs=20, tasks_per_epoch=100, episode=EpisodeSpec(5, 5, 10),
                      seed=0, val_episodes=20, backbone=BackboneConfig(6, (16,), 8),
                      log_path=str(log))
    train_base(tr, va, cfg)
    rows = [r.split(",") for r in log.read_text().splitlines()[1:]]
    val_accs = [float(r[3]) for r in rows if r[1] == "val"]
    assert max(val_accs) >= 0.95


def test_train_base_log_format(tmp_path):
    old_tr, old_va, _, _ = domain_data()
    log = tmp_path / "log.csv"
    cfg = small_cfg(log_path=str(log))
    train_base(old_tr, old_va, cfg)
    lines = log.read_text().splitlines()
    assert lines[0] == "epoch,split,loss,acc,lr"
    assert len(lines) == 1 + cfg.epochs * 2  # train + val row per epoch
    for line in lines[1:]:
        epoch, split, loss, acc, lr = line.split(",")
        assert split in ("train", "val")
        assert math.isfinite(float(loss))
        assert 0.0 <= float(acc) <= 1.0
        assert float(lr) > 0


def test_train_base_deterministic():
    old_tr, old_va, _, _ = domain_data()
    a = train_base(old_tr, old_va, small_cfg())
    b = train_base(old_tr, old_va, small_cfg())
    c = train_base(old_tr, old_va, small_cfg(seed=1))
    assert snapshot_digest(a) == snapshot_digest(b)
    assert snapshot_digest(a) != snapshot_digest(c)


def test_train_base_anchor_layout():
    old_tr, old_va, _, _ = domain_data()
    snap = train_base(old_tr, old_va, small_cfg())
    assert snap.anchors.class_ids == old_tr.classes
    assert snap.anchors.round_tag == 0
    assert snap.meta.round_index == 0
    assert snap.meta.method == "base"


def test_train_base_dim_mismatch():
    old_tr, old_va, _, _ = domain_data()
    with pytest.raises(ValueError, match="dim"):
        train_base(old_tr, old_va, small_cfg(backbone=BackboneConfig(9, (8,), 4)))


def test_bad_tables_fail_before_the_first_step(monkeypatch):
    """A table the run's episodes cannot be drawn from fails before any step, naming its split."""
    old_tr, old_va, new_tr, new_va = domain_data()
    base = train_base(old_tr, old_va, small_cfg())
    steps = []
    real = iml.trainer.adam_step
    monkeypatch.setattr(iml.trainer, "adam_step", lambda *args: steps.append(1) or real(*args))
    narrow = domain_data(dim=3)

    def short_class(ds):
        keep = np.ones(len(ds), dtype=bool)
        keep[ds.class_index[ds.classes[0]][10:]] = False
        return Dataset(ds.features[keep], ds.labels[keep], ds.split_name)

    cases = [  # (episode, base run's tables, incremental run's tables, error)
        (EpisodeSpec(5, 2, 4), (old_tr, old_va.subset_classes(old_va.classes[:3])),
         (new_tr, new_va.subset_classes(new_va.classes[:3])),
         r"validation table '\w+' has 3 classes; episodes need 5"),
        (EpisodeSpec(3, 2, 4), (old_tr, narrow[1]), (new_tr, narrow[3]),
         r"model expects 4-dim inputs, validation table '\w+' is 3-dim"),
        (EpisodeSpec(3, 5, 15), (short_class(old_tr), old_va), (short_class(new_tr), new_va),
         r"training table '\w+' has a class with 10 rows; episodes need 20"),
    ]
    for episode, (tr, va), (new, new_val), error in cases:
        cfg = small_cfg(episode=episode)
        with pytest.raises(ValueError, match=error):
            train_base(tr, va, cfg)
        with pytest.raises(ValueError, match=error):
            train_incremental(base, new, new_val, MethodKind.IDA, cfg)
    assert steps == []


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_train_base_divergence_on_bad_data():
    old_tr, old_va, _, _ = domain_data()
    feats = old_tr.features.copy()
    feats[0, 0] = np.inf
    poisoned = Dataset(feats, old_tr.labels.copy(), "old")
    with pytest.raises(TrainingDivergenceError):
        train_base(poisoned, old_va, small_cfg())


def test_incremental_rejects_nu_and_par():
    old_tr, old_va, new_tr, new_va = domain_data()
    base = train_base(old_tr, old_va, small_cfg())
    for m in (MethodKind.NU, MethodKind.PAR):
        with pytest.raises(ValueError, match="incremental"):
            train_incremental(base, new_tr, new_va, m, small_cfg())


def test_validate_matches_per_episode_oracle():
    """Validation from one embedding table is bitwise re-embedding every episode."""
    _, old_va, _, _ = domain_data()
    cfg = small_cfg(val_episodes=12, episode=EpisodeSpec(4, 3, 5))
    params = init_backbone(cfg.backbone, 2)
    rng = np.random.default_rng([cfg.seed, _VAL_STREAM, 1, 3])
    episodes = [sample_episode(old_va, cfg.episode, rng) for _ in range(cfg.val_episodes)]
    want_loss = float(np.mean([float(meta_xent_loss(params, ep, cfg.temperature)[0])
                               for ep in episodes]))
    want_acc = float(np.mean([score_episode(params, ep) for ep in episodes]))
    assert _validate(params, old_va, cfg, 1, 3) == (want_loss, want_acc)


@pytest.mark.parametrize("round_index", [0, 1])
@pytest.mark.parametrize("chunk_bytes", [None, 5 * 8 * 12 * 3 * 4])
def test_validate_matches_one_episode_kernels(monkeypatch, round_index, chunk_bytes):
    """Chunked validation is bitwise the off-tape kernels run one episode at a time.

    Round 0 is base training's stream, round 1 an incremental round's; the
    small chunk budget holds 5 of these episodes, so 17 end in a partial chunk.
    """
    _, old_va, _, new_va = domain_data()
    val = new_va if round_index else old_va
    cfg = small_cfg(val_episodes=17, temperature=0.7)
    if chunk_bytes is not None:
        monkeypatch.setattr(iml.model, "SCORE_CHUNK_BYTES", chunk_bytes)
    params = init_backbone(cfg.backbone, 2)
    z = embed(params, val.features).data
    rng = np.random.default_rng([cfg.seed, _VAL_STREAM, round_index, 4])
    losses, accs = [], []
    for _ in range(cfg.val_episodes):
        ep = sample_episode(val, cfg.episode, rng)
        n = len(ep.support_y)
        support = z[ep.rows[:n]].reshape(1, ep.n_ways, cfg.episode.shots, -1)
        d = prototype_distances(support, z[ep.rows[n:]][None])[0]
        losses.append(float(proto_xent(d, ep.query_y, cfg.temperature)))
        accs.append(float((d.argmin(axis=1) == ep.query_y).mean()))
    want = (float(np.mean(losses)), float(np.mean(accs)))
    assert _validate(params, val, cfg, round_index, 4) == want


def spy_pre_update_params(monkeypatch):
    """Record a copy of the live params before every optimizer step."""
    pre = []
    real = iml.trainer.adam_step

    def spy(params, *args, **kwargs):
        pre.append(params.copy())
        return real(params, *args, **kwargs)

    monkeypatch.setattr(iml.trainer, "adam_step", spy)
    return pre


def test_train_accuracy_is_pre_update_score_of_each_step(tmp_path, monkeypatch):
    """A train row's acc is the mean over the epoch of each step's accuracy before its update."""
    old_tr, old_va, new_tr, new_va = domain_data()
    base = train_base(old_tr, old_va, small_cfg())
    runs = (
        (0, old_tr, lambda cfg: train_base(old_tr, old_va, cfg)),
        (1, new_tr, lambda cfg: train_incremental(base, new_tr, new_va, MethodKind.IDA, cfg)),
    )
    for round_index, ds, train in runs:
        pre = spy_pre_update_params(monkeypatch)
        log = tmp_path / f"round{round_index}.csv"
        cfg = small_cfg(epochs=3, log_path=str(log))
        train(cfg)
        rng = np.random.default_rng([cfg.seed, _EPISODE_STREAM, round_index])
        steps = cfg.epochs * cfg.tasks_per_epoch
        assert len(pre) == steps
        accs = [score_episode(p, sample_episode(ds, cfg.episode, rng)) for p in pre]
        rows = [r.split(",") for r in log.read_text().splitlines()[1:]]
        got = [r[3] for r in rows if r[1] == "train"]
        n = cfg.tasks_per_epoch
        want = [f"{float(np.mean(accs[e * n:(e + 1) * n])):.4f}" for e in range(cfg.epochs)]
        assert got == want, round_index


def test_tape_nodes_per_step_pinned(monkeypatch):
    """Tape nodes of one step per method at the acceptance benchmark's backbone."""
    counts = []
    real = iml.trainer.Tape.backward

    def spy(tape, loss, params):
        counts.append(len(tape.nodes))
        return real(tape, loss, params)

    monkeypatch.setattr(iml.trainer.Tape, "backward", spy)
    old_tr, old_va, new_tr, new_va = domain_data(dim=16, n=12)
    cfg = small_cfg(epochs=1, tasks_per_epoch=1, val_episodes=1,
                    episode=EpisodeSpec(5, 5, 5), backbone=BackboneConfig(16, (32, 32, 32), 16))
    base = train_base(old_tr, old_va, cfg)
    ex = reserve_exemplars(old_tr, 6, np.random.default_rng(0))
    for method in (MethodKind.FT, MethodKind.DFA, MethodKind.IDA, MethodKind.EIML):
        train_incremental(base, new_tr, new_va, method, cfg, exemplars=ex)
    iml.trainer.train_paragon(old_tr, old_va, cfg)
    assert counts == [4, 4, 10, 11, 19, 4]  # base, ft, dfa, ida, eiml, par


def test_incremental_rejects_anchorless_teacher_before_logging(tmp_path):
    """IDA with a teacher that stores no anchors fails before the previous log is cut."""
    old_tr, old_va, new_tr, new_va = domain_data()
    base = train_base(old_tr, old_va, small_cfg())
    anchorless = freeze_snapshot(base.params, AnchorSet((), np.zeros((0, 4))), base.meta)
    log = tmp_path / "incr.csv"
    log.write_text("previous run\n")
    with pytest.raises(ValueError, match="ida aligns on stored anchors, but the teacher stores"):
        train_incremental(anchorless, new_tr, new_va, MethodKind.IDA, small_cfg(log_path=str(log)))
    assert log.read_text() == "previous run\n"
    # without an alignment weight IDA reads no anchors, so it trains
    train_incremental(anchorless, new_tr, new_va, MethodKind.IDA, small_cfg(lam=0.0))


def test_epoch_log_failed_rename_keeps_previous_log(tmp_path, monkeypatch):
    path = tmp_path / "log.csv"
    log = _EpochLog(str(path))
    log.row(0, "train", 1.25, 0.5, 1e-3)
    before = path.read_bytes()
    assert before == b"epoch,split,loss,acc,lr\n0,train,1.250000,0.5000,0.001\n"

    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="rename failed"):
        log.row(0, "val", 1.5, 0.25, 1e-3)
    assert path.read_bytes() == before
    assert sorted(x.name for x in tmp_path.iterdir()) == ["log.csv"]


def spy_objective(monkeypatch):
    """Record (episode, teacher-side keyword inputs) of every training step's objective call."""
    calls = []
    real = iml.trainer.incremental_objective

    def spy(method, params, episode, *args, **kwargs):
        calls.append((episode, kwargs))
        return real(method, params, episode, *args, **kwargs)

    monkeypatch.setattr(iml.trainer, "incremental_objective", spy)
    return calls


def test_gathered_teacher_rows_equal_teacher_embedding(monkeypatch):
    old_tr, old_va, new_tr, new_va = domain_data()
    base = train_base(old_tr, old_va, small_cfg())
    ex = reserve_exemplars(old_tr, 6, np.random.default_rng(0))
    inputs = {MethodKind.DFA: {"teacher_z"}, MethodKind.IDA: {"teacher_z", "anchors"},
              MethodKind.EIML: {"teacher_z", "anchors", "exemplar_episode", "exemplar_teacher_z"}}
    centers = base.anchors.centers
    for method, names in inputs.items():
        calls = spy_objective(monkeypatch)
        train_incremental(base, new_tr, new_va, method, small_cfg(), exemplars=ex)
        assert len(calls) == small_cfg().epochs * small_cfg().tasks_per_epoch
        # IDA's rows: a sorted draw of k = min(ways, stored) from round 1's anchor stream
        anchor_rng = np.random.default_rng([small_cfg().seed, 102, 1])
        k = min(small_cfg().episode.ways, len(centers))
        for ep, given in calls:
            assert given.keys() == names, method
            want = embed(base.params, ep.inputs).data
            assert np.array_equal(given["teacher_z"], want), method
            if method is MethodKind.IDA:
                rows = np.sort(anchor_rng.choice(len(centers), size=k, replace=False))
                assert np.array_equal(given["anchors"], centers[rows])
            if method is MethodKind.EIML:
                ex_ep = given["exemplar_episode"]
                want = embed(base.params, ex_ep.inputs).data
                assert np.array_equal(given["exemplar_teacher_z"], want)
                # align_new reads the stored anchors of the exemplar episode's classes only
                rows = [base.anchors.class_ids.index(c) for c in ex_ep.class_map]
                assert np.array_equal(given["anchors"], centers[rows])


def test_eiml_rejects_unanchored_exemplars_before_logging(tmp_path):
    """Exemplars of classes the teacher stores no anchors for fail before the log is cut."""
    old_tr, old_va, new_tr, new_va = domain_data()
    base = train_base(old_tr, old_va, small_cfg())
    log = tmp_path / "incr.csv"
    log.write_bytes(b"previous run\n")
    rng = np.random.default_rng(0)
    mixed = concat_datasets(reserve_exemplars(old_tr, 6, rng),
                            reserve_exemplars(new_va.subset_classes([7, 9]), 6, rng), "exemplars")
    with pytest.raises(ValueError, match=re.escape("classes [7, 9] have no stored anchors")):
        train_incremental(base, new_tr, new_va, MethodKind.EIML,
                          small_cfg(log_path=str(log)), exemplars=mixed)
    assert log.read_bytes() == b"previous run\n"


def test_teacher_embedded_once_per_round_per_table(monkeypatch):
    old_tr, old_va, new_tr, new_va = domain_data(classes=8)
    base = train_base(old_tr, old_va, small_cfg())
    teachers = [base]
    calls = []

    def counting(params, x):
        if any(params is t.params for t in teachers):
            calls.append(params)
        return embed(params, x)

    for module in (iml.trainer, iml.losses):
        monkeypatch.setattr(module, "embed", counting)
    ex = reserve_exemplars(old_tr, 6, np.random.default_rng(0))
    # ft has no alignment; eiml's second table holds the exemplar rows
    tables = {MethodKind.FT: 0, MethodKind.DFA: 1, MethodKind.IDA: 1, MethodKind.EIML: 2}
    for method, n in tables.items():
        calls.clear()
        train_incremental(base, new_tr, new_va, method, small_cfg(), exemplars=ex)
        assert len(calls) == n, method
    calls.clear()
    train_incremental(base, new_tr, new_va, MethodKind.IDA, small_cfg(lam=0.0))
    assert calls == []

    # in a chain, each round embeds its own teacher, the previous round's snapshot, once
    b = new_tr.classes
    rounds = [new_tr.subset_classes(b[:4], "r1"), new_tr.subset_classes(b[4:], "r2")]
    real_train = iml.trainer.train_incremental

    def remember_teacher(old, *args, **kwargs):
        teachers.append(old)
        return real_train(old, *args, **kwargs)

    monkeypatch.setattr(iml.trainer, "train_incremental", remember_teacher)
    calls.clear()
    chain = run_rounds(base, rounds, MethodKind.IDA, small_cfg(), round_vals=rounds)
    assert calls == [base.params, chain[0].params]


def test_incremental_rejects_seen_classes():
    old_tr, old_va, _, _ = domain_data()
    base = train_base(old_tr, old_va, small_cfg())
    with pytest.raises(ValueError, match="anchor"):
        train_incremental(base, old_tr, old_va, MethodKind.FT, small_cfg())


def test_incremental_grows_anchors_and_round():
    old_tr, old_va, new_tr, new_va = domain_data()
    base = train_base(old_tr, old_va, small_cfg())
    snap = train_incremental(base, new_tr, new_va, MethodKind.IDA, small_cfg())
    assert snap.meta.round_index == 1
    assert snap.meta.method == "ida"
    assert snap.anchors.class_ids == old_tr.classes + new_tr.classes
    assert snap.anchors.round_tag == 1
    # old anchor rows are carried over untouched
    n_old = len(old_tr.classes)
    assert np.array_equal(snap.anchors.centers[:n_old], base.anchors.centers)


def test_incremental_teacher_untouched():
    old_tr, old_va, new_tr, new_va = domain_data()
    base = train_base(old_tr, old_va, small_cfg())
    before = snapshot_digest(base)
    for m in (MethodKind.FT, MethodKind.DFA, MethodKind.IDA):
        train_incremental(base, new_tr, new_va, m, small_cfg())
        assert snapshot_digest(base) == before


def test_lambda_zero_trajectories_bitwise_equal():
    old_tr, old_va, new_tr, new_va = domain_data()
    base = train_base(old_tr, old_va, small_cfg())
    cfg0 = small_cfg(lam=0.0)
    digests = set()
    for m in (MethodKind.FT, MethodKind.IDA, MethodKind.DFA):
        snap = train_incremental(base, new_tr, new_va, m, cfg0)
        # method tag differs per run; hash only the numerical payload
        digests.add(snapshot_digest(snap))
    assert len(digests) == 1


def test_eiml_needs_exemplars():
    old_tr, old_va, new_tr, new_va = domain_data()
    base = train_base(old_tr, old_va, small_cfg())
    with pytest.raises(ValueError, match="exemplar"):
        train_incremental(base, new_tr, new_va, MethodKind.EIML, small_cfg())


def test_eiml_with_tiny_exemplar_budget():
    old_tr, old_va, new_tr, new_va = domain_data()
    base = train_base(old_tr, old_va, small_cfg())
    ex = reserve_exemplars(old_tr, 2, np.random.default_rng(0))
    snap = train_incremental(base, new_tr, new_va, MethodKind.EIML, small_cfg(),
                             exemplars=ex)
    assert snap.meta.method == "eiml"
    too_small = reserve_exemplars(old_tr, 1, np.random.default_rng(0))
    with pytest.raises(ValueError, match="at least 2 rows"):
        train_incremental(base, new_tr, new_va, MethodKind.EIML, small_cfg(),
                          exemplars=too_small)


def test_eiml_one_class_exemplar_table_fails_before_the_first_step(monkeypatch):
    """An exemplar table of one class cannot pose a task; the error names the table."""
    old_tr, old_va, new_tr, new_va = domain_data()
    base = train_base(old_tr, old_va, small_cfg())
    steps = []
    real = iml.trainer.adam_step
    monkeypatch.setattr(iml.trainer, "adam_step", lambda *args: steps.append(1) or real(*args))
    rng = np.random.default_rng(0)
    one_class = reserve_exemplars(old_tr.subset_classes([0]), 6, rng)
    with pytest.raises(ValueError, match=r"exemplar table 'exemplars' has 1 class\(es\); "
                                         "exemplar episodes need at least 2 ways"):
        train_incremental(base, new_tr, new_va, MethodKind.EIML, small_cfg(),
                          exemplars=one_class)
    assert steps == []


def test_eiml_trains_with_default_budget():
    old_tr, old_va, new_tr, new_va = domain_data()
    base = train_base(old_tr, old_va, small_cfg())
    ex = reserve_exemplars(old_tr, 15, np.random.default_rng(1))
    snap = train_incremental(base, new_tr, new_va, MethodKind.EIML, small_cfg(),
                             exemplars=ex)
    assert snap.anchors.class_ids == old_tr.classes + new_tr.classes


def two_rounds():
    """A base snapshot, then two rounds of 4 new classes each, with validation tables."""
    old_tr, old_va, new_tr, new_va = domain_data(classes=8)
    base = train_base(old_tr, old_va, small_cfg())
    groups = [list(new_tr.classes[:4]), list(new_tr.classes[4:])]
    rounds = [new_tr.subset_classes(g, f"r{k}") for k, g in enumerate(groups, 1)]
    vals = [new_va.subset_classes(g, f"r{k}") for k, g in enumerate(groups, 1)]
    return old_tr, base, rounds, vals


def test_run_rounds_chains_snapshots():
    old_tr, base, rounds, vals = two_rounds()
    r1, r2 = rounds[0].classes, rounds[1].classes
    chain = run_rounds(base, rounds, MethodKind.IDA, small_cfg(), round_vals=vals)
    assert len(chain) == 2
    assert [s.meta.round_index for s in chain] == [1, 2]
    assert len(chain[0].anchors) == 8 + 4
    assert len(chain[1].anchors) == 8 + 8
    assert chain[1].anchors.class_ids == old_tr.classes + tuple(r1) + tuple(r2)


def test_run_rounds_logs_each_round(tmp_path):
    _, base, rounds, vals = two_rounds()
    cfg = small_cfg(log_path=str(tmp_path / "rounds_ida.csv"))
    chain = run_rounds(base, rounds, MethodKind.IDA, cfg, round_vals=vals)
    logs = [tmp_path / "rounds_ida_r1.csv", tmp_path / "rounds_ida_r2.csv"]
    assert sorted(tmp_path.iterdir()) == logs
    # each round's log is the whole log of that round trained alone
    for log, teacher, ds, val in zip(logs, [base, chain[0]], rounds, vals):
        rows = log.read_text().splitlines()[1:]
        assert [r.split(",")[:2] for r in rows] == [
            [str(e), s] for e in range(cfg.epochs) for s in ("train", "val")]
        lone = tmp_path / "lone" / log.name
        train_incremental(teacher, ds, val, MethodKind.IDA, small_cfg(log_path=str(lone)))
        assert lone.read_text() == log.read_text()


def test_run_rounds_rejects_nu():
    old_tr, old_va, new_tr, new_va = domain_data()
    base = train_base(old_tr, old_va, small_cfg())
    with pytest.raises(ValueError):
        run_rounds(base, [new_tr], MethodKind.NU, small_cfg(), round_vals=[new_va])


def test_kl_order_changes_trajectory():
    old_tr, old_va, new_tr, new_va = domain_data()
    base = train_base(old_tr, old_va, small_cfg())
    a = train_incremental(base, new_tr, new_va, MethodKind.IDA, small_cfg())
    b = train_incremental(base, new_tr, new_va, MethodKind.IDA,
                          small_cfg(kl_order="teacher_first"))
    assert snapshot_digest(a) != snapshot_digest(b)
