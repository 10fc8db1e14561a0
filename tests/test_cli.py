import os
from pathlib import Path

import numpy as np
import pytest

import iml.cli
from iml.anchorstore import load_snapshot, save_snapshot
from iml.cli import (
    _SETTINGS,
    CSV_HEADER,
    ConfigError,
    RunConfig,
    cmd_dispatch,
    dump_config,
    parse_config,
    summary_markdown,
)
from iml.model import AnchorSet, BackboneConfig, SnapshotMeta, freeze_snapshot, init_backbone

TINY_INI = """\
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


@pytest.fixture()
def tiny_cfg(tmp_path):
    p = tmp_path / "tiny.ini"
    p.write_text(TINY_INI)
    return str(p)


# ---- config parsing ----


def test_defaults_without_config():
    rc = parse_config(None, env={})
    assert rc == RunConfig()
    assert rc.profile == "desk"
    assert rc.train.epochs == 30
    assert rc.train.tasks_per_epoch == 100
    assert rc.eval.n_episodes == 500
    assert (rc.train.episode.ways, rc.train.episode.shots,
            rc.train.episode.queries) == (5, 5, 15)
    assert rc.train.lr == 1e-3
    assert rc.data.train_classes_per_domain == 16
    assert rc.data.dim == 16
    assert rc.data.cluster_std == 0.5
    assert rc.hidden_dims == (32,)
    assert rc.embed_dim == 16
    assert rc.rounds == 2


def test_profile_fills_unset_knobs(tmp_path):
    p = tmp_path / "c.ini"
    p.write_text("[train]\nprofile = paper-scale\n")
    rc = parse_config(str(p), env={})
    assert (rc.train.epochs, rc.train.tasks_per_epoch) == (200, 800)
    assert rc.eval.n_episodes == 2000


def test_explicit_value_beats_profile(tmp_path):
    p = tmp_path / "c.ini"
    p.write_text("[train]\nprofile = paper-scale\nepochs = 7\n")
    rc = parse_config(str(p), env={})
    assert rc.train.epochs == 7
    assert rc.train.tasks_per_epoch == 800  # still from the profile


def test_unknown_profile(tmp_path):
    p = tmp_path / "c.ini"
    p.write_text("[train]\nprofile = warehouse\n")
    with pytest.raises(ConfigError, match="profile"):
        parse_config(str(p), env={})


def test_unknown_section_and_key(tmp_path):
    """Names must match config.resolved exactly, lower case included."""
    p = tmp_path / "c.ini"
    cases = [
        ("[optimizer]\nlr = 0.1\n", [], "unknown config section"),
        ("[train]\nlearning_rate = 0.1\n", [], "unknown config key train.learning_rate"),
        ("[TRAIN]\nlr = 0.01\n", [], r"unknown config section \[TRAIN\]"),
        ("[train]\nLR = 0.01\n", [], "unknown config key train.LR"),
        ("", ["TRAIN.lr=0.01"], r"unknown config section \[TRAIN\]"),
        ("", ["train.LR=0.01"], "unknown config key train.LR"),
    ]
    for text, sets, needle in cases:
        p.write_text(text)
        with pytest.raises(ConfigError, match=needle):
            parse_config(str(p), sets, env={})


def test_missing_config_file():
    with pytest.raises(ConfigError, match="not found"):
        parse_config("/no/such/file.ini", env={})


def test_empty_config_file_is_all_defaults(tmp_path):
    p = tmp_path / "empty.ini"
    p.write_text("")
    assert parse_config(str(p), env={}) == parse_config(None, env={})


def test_unparseable_value_names_the_key(tmp_path):
    p = tmp_path / "c.ini"
    p.write_text("[train]\nlr = fast\n")
    with pytest.raises(ConfigError, match="train.lr"):
        parse_config(str(p), env={})


def test_out_of_range_values(tmp_path):
    p = tmp_path / "c.ini"
    cases = [
        ("[train]\nlambda = -1\n", "train.lambda"),
        ("[train]\nlr = 0\n", "train.lr"),
        ("[train]\nways = 1\n", "train.ways"),
        ("[train]\nkl_order = sideways\n", "kl_order"),
        ("[data]\nkind = parquet\n", "data.kind"),
        ("[data]\ncluster_std = -0.5\n", "cluster_std"),
        ("[eval]\nn_episodes = 1\n", "n_episodes"),
        ("[eval]\nworkers = 0\n", "workers"),
        ("[eval]\nlambda_grid = 0.5,-2\n", "lambda_grid"),
        ("[eval]\nexemplar_grid = 0,5\n", "exemplar_grid"),
        ("[eval]\nways_grid = 1,5\n", "ways_grid"),
        ("[eval]\nshots_grid = 0\n", "shots_grid"),
        ("[eval]\nlambda_grid =\n", "lambda_grid"),
        ("[eval]\nexemplar_grid = ,\n", "exemplar_grid"),
        ("[eval]\nways_grid =\n", "ways_grid"),
        ("[eval]\nshots_grid =\n", "shots_grid"),
    ]
    for text, needle in cases:
        p.write_text(text)
        with pytest.raises(ConfigError, match=needle):
            parse_config(str(p), env={})
    # an empty layer list is valid: one linear layer
    p.write_text("[train]\nhidden_dims =\n")
    assert parse_config(str(p), env={}).hidden_dims == ()


def test_set_overrides_file(tiny_cfg):
    rc = parse_config(tiny_cfg, ["train.epochs=9", "data.dim=4"], env={})
    assert rc.train.epochs == 9
    assert rc.data.dim == 4


def test_set_syntax_checked():
    with pytest.raises(ConfigError, match="--set"):
        parse_config(None, ["epochs=9"], env={})
    with pytest.raises(ConfigError, match="--set"):
        parse_config(None, ["train.epochs"], env={})


def test_seed_env_override(tiny_cfg):
    rc = parse_config(tiny_cfg, env={"IML_SEED": "77"})
    assert rc.train.seed == 77
    rc = parse_config(tiny_cfg, env={"IML_SEED": ""})
    assert rc.train.seed == 0  # empty value is ignored
    with pytest.raises(ConfigError, match="IML_SEED"):
        parse_config(tiny_cfg, env={"IML_SEED": "lucky"})


def test_dump_config_round_trip(tiny_cfg, tmp_path):
    rc = parse_config(tiny_cfg, ["train.lr=0.003"], env={})
    text = dump_config(rc)
    assert text == dump_config(rc)  # deterministic
    p = tmp_path / "resolved.ini"
    p.write_text(text)
    rc2 = parse_config(str(p), env={})
    assert dump_config(rc2) == text
    assert rc2.train.lr == 0.003
    assert rc2.train.episode == rc.train.episode
    # every table key appears exactly once
    names, sec = [], None
    for line in text.splitlines():
        if line.startswith("["):
            sec = line[1:-1]
        elif line:
            names.append(f"{sec}.{line.split(' = ')[0]}")
    assert sorted(names) == sorted(s.name for s in _SETTINGS)


# ---- dispatch and exit codes ----


def test_dispatch_usage_errors(capsys):
    assert cmd_dispatch([]) == 1
    assert cmd_dispatch(["--help"]) == 0
    assert cmd_dispatch(["no-such-command"]) == 1
    # nu is not trainable incrementally; argparse rejects it as a choice
    assert cmd_dispatch(["train-incr", "--method", "nu"]) == 1


def test_dispatch_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[train]\nlr = 0\n")
    code = cmd_dispatch(["gen-data", "-c", str(bad), "--out", str(tmp_path / "r")])
    assert code == 1
    assert "config error" in capsys.readouterr().err


def test_dispatch_runtime_error(tiny_cfg, tmp_path, capsys):
    # evaluating before gen-data/train-base has produced anything
    code = cmd_dispatch(["eval", "--method", "ft", "-c", tiny_cfg,
                         "--out", str(tmp_path / "r")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_eval_needs_exactly_one_target(tiny_cfg, tmp_path):
    out = str(tmp_path / "r")
    assert cmd_dispatch(["eval", "-c", tiny_cfg, "--out", out]) == 1
    assert cmd_dispatch(["eval", "--method", "ft", "--snapshot", "x.imlsnap",
                         "-c", tiny_cfg, "--out", out]) == 1


# ---- gen-data ----


def test_gen_data_layout(tiny_cfg, tmp_path):
    out = tmp_path / "run"
    assert cmd_dispatch(["gen-data", "-c", tiny_cfg, "--out", str(out)]) == 0
    names = sorted(p.name for p in (out / "data").glob("*.csv"))
    assert names == ["new_test.csv", "new_train.csv", "new_val.csv",
                     "old_test.csv", "old_train.csv", "old_val.csv",
                     "unseen_test.csv"]
    assert (out / "config.resolved").exists()
    # 5 train classes per domain, 30 rows each
    lines = (out / "data" / "old_train.csv").read_text().splitlines()
    assert len(lines) == 1 + 5 * 30


def test_gen_data_deterministic(tiny_cfg, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cmd_dispatch(["gen-data", "-c", tiny_cfg, "--out", str(a)]) == 0
    assert cmd_dispatch(["gen-data", "-c", tiny_cfg, "--out", str(b)]) == 0
    for name in ("old_train.csv", "new_train.csv", "unseen_test.csv"):
        assert (a / "data" / name).read_bytes() == (b / "data" / name).read_bytes()


def test_gen_data_without_unseen(tiny_cfg, tmp_path):
    out = tmp_path / "run"
    code = cmd_dispatch(["gen-data", "-c", tiny_cfg, "--out", str(out),
                         "--set", "data.unseen_classes_per_domain=0"])
    assert code == 0
    assert not (out / "data" / "unseen_test.csv").exists()


# ---- end-to-end pipeline ----


def test_pipeline_smoke(tiny_cfg, tmp_path):
    out = str(tmp_path / "run")
    for argv in (
        ["gen-data", "-c", tiny_cfg, "--out", out],
        ["train-base", "-c", tiny_cfg, "--out", out],
        ["train-incr", "--method", "ida", "-c", tiny_cfg, "--out", out],
        ["eval", "--method", "ida", "-c", tiny_cfg, "--out", out],
        ["report", "-c", tiny_cfg, "--out", out],
    ):
        assert cmd_dispatch(argv) == 0, argv
    run = Path(out)
    assert (run / "snapshots" / "base.imlsnap").exists()
    assert (run / "snapshots" / "incr_ida.imlsnap").exists()
    eval_csv = (run / "reports" / "eval_ida.csv").read_text().splitlines()
    assert eval_csv[0] == CSV_HEADER
    assert len(eval_csv) == 4  # header + old,new,unseen
    summary = (run / "reports" / "summary.md").read_text()
    assert "| IDA |" in summary
    assert "3-way 2-shot (40 episodes)" in summary
    # training logs captured per stage
    assert (run / "logs" / "base.csv").exists()
    assert (run / "logs" / "incr_ida.csv").exists()


def test_eval_custom_snapshot_label(tiny_cfg, tmp_path, monkeypatch):
    out = str(tmp_path / "run")
    assert cmd_dispatch(["gen-data", "-c", tiny_cfg, "--out", out]) == 0
    assert cmd_dispatch(["train-base", "-c", tiny_cfg, "--out", out]) == 0
    snap = str(Path(out) / "snapshots" / "base.imlsnap")
    code = cmd_dispatch(["eval", "--snapshot", snap, "--label", "teacher",
                         "--splits", "old", "-c", tiny_cfg, "--out", out])
    assert code == 0
    assert (Path(out) / "reports" / "eval_teacher.csv").exists()
    # without --label the label comes from the snapshot, read only once
    calls = []

    def counting_load(path):
        calls.append(path)
        return load_snapshot(path)

    monkeypatch.setattr(iml.cli, "load_snapshot", counting_load)
    code = cmd_dispatch(["eval", "--snapshot", snap, "--splits", "old",
                         "-c", tiny_cfg, "--out", out])
    assert code == 0
    assert len(calls) == 1
    assert (Path(out) / "reports" / "eval_base.csv").exists()


def test_eval_snapshot_dim_mismatch(tiny_cfg, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert cmd_dispatch(["gen-data", "-c", tiny_cfg, "--out", out]) == 0
    cfg = BackboneConfig(3, (4,), 2)
    snap = freeze_snapshot(cfg, init_backbone(cfg, 0), AnchorSet((), np.zeros((0, 2))),
                           SnapshotMeta(0, 0, "base"))
    path = str(tmp_path / "narrow.imlsnap")
    save_snapshot(snap, path)
    capsys.readouterr()
    code = cmd_dispatch(["eval", "--snapshot", path, "--splits", "old",
                         "-c", tiny_cfg, "--out", out])
    assert code == 2
    err = capsys.readouterr().err
    assert "3-dim inputs" in err and "6-dim" in err


def test_eval_rejects_unknown_split(tiny_cfg, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert cmd_dispatch(["gen-data", "-c", tiny_cfg, "--out", out]) == 0
    assert cmd_dispatch(["train-base", "-c", tiny_cfg, "--out", out]) == 0
    code = cmd_dispatch(["eval", "--method", "nu", "--splits", "old,bogus",
                         "-c", tiny_cfg, "--out", out])
    assert code == 1
    # empty lists are rejected before any report is written
    for argv in (["eval", "--method", "nu", "--splits", ","],
                 ["cross-way-shot", "--methods", ","],
                 ["cross-way-shot", "--set", "eval.ways_grid="]):
        capsys.readouterr()
        assert cmd_dispatch(argv + ["-c", tiny_cfg, "--out", out]) == 1, argv
        assert "config error" in capsys.readouterr().err
    assert not list((Path(out) / "reports").glob("*.csv"))


def test_rounds_needs_enough_classes(tiny_cfg, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert cmd_dispatch(["gen-data", "-c", tiny_cfg, "--out", out]) == 0
    assert cmd_dispatch(["train-base", "-c", tiny_cfg, "--out", out]) == 0
    # 5 new classes cannot make two rounds of 3-way episodes
    code = cmd_dispatch(["rounds", "--method", "ida", "-c", tiny_cfg,
                         "--out", out, "--set", "train.rounds=2"])
    assert code == 1
    assert "rounds" in capsys.readouterr().err


# ---- report rendering ----


def eval_row(method, split, n, mean, ci, ways, shots, seed):
    """One eval CSV row as the report reads it, tagged with its method."""
    return {"method": method, "split": split, "n": str(n), "mean": repr(mean),
            "ci": repr(ci), "ways": str(ways), "shots": str(shots), "seed": str(seed)}


def sample_rows():
    mk = lambda m, s, mean: eval_row(m, s, 10, mean, 0.01, 3, 2, 0)
    return [
        mk("nu", "old", 0.95), mk("nu", "new", 0.40),
        mk("ft", "old", 0.80), mk("ft", "new", 0.90),
        mk("ida", "old", 0.92), mk("ida", "new", 0.90),
        mk("par", "old", 0.96), mk("par", "new", 0.93),
    ]


def test_summary_orders_and_bolds():
    text = summary_markdown(sample_rows())
    lines = text.splitlines()
    table = [l for l in lines if l.startswith("| ")]
    assert table[0] == "| method | old | new |"
    assert [l.split("|")[1].strip() for l in table[2:]] == ["NU", "FT", "IDA", "PAR"]
    # best adapted method per column is bold; nu/par never are
    ida_line = next(l for l in table if l.startswith("| IDA"))
    assert "**92.00 ± 1.00**" in ida_line
    ft_line = next(l for l in table if l.startswith("| FT"))
    assert "**" not in ft_line.split("|")[2]  # old column lost to ida
    nu_line = next(l for l in table if l.startswith("| NU"))
    par_line = next(l for l in table if l.startswith("| PAR"))
    assert "**" not in nu_line and "**" not in par_line


def test_summary_bold_ties_and_gaps():
    rows = sample_rows()
    # tie ft with ida on the new split, and drop ida's old cell
    rows = [r for r in rows if not (r["method"] == "ida" and r["split"] == "old")]
    text = summary_markdown(rows)
    ft_line = next(l for l in text.splitlines() if l.startswith("| FT"))
    ida_line = next(l for l in text.splitlines() if l.startswith("| IDA"))
    assert ft_line.count("**90.00 ± 1.00**") == 1
    assert ida_line.count("**90.00 ± 1.00**") == 1
    assert "—" in ida_line


def test_summary_groups_by_episode_shape():
    rows = sample_rows() + [eval_row("ft", "old", 20, 0.5, 0.02, 5, 1, 0)]
    text = summary_markdown(rows)
    assert "## 3-way 2-shot (10 episodes)" in text
    assert "## 5-way 1-shot (20 episodes)" in text


def test_summary_separates_episode_counts():
    # eval CSVs made with different eval.n_episodes at one shape get a table each
    rows = [eval_row("ft", "old", 40, 0.80, 0.03, 5, 5, 0),
            eval_row("ida", "old", 40, 0.85, 0.03, 5, 5, 0),
            eval_row("ft", "old", 2000, 0.70, 0.01, 5, 5, 0),
            eval_row("ida", "old", 2000, 0.75, 0.01, 5, 5, 0)]
    text = summary_markdown(rows)
    lines = text.splitlines()
    assert [l for l in lines if l.startswith("## ")] == [
        "## 5-way 5-shot (40 episodes)", "## 5-way 5-shot (2000 episodes)"]
    assert text.count("| method | old |") == 2
    few, many = text.split("## 5-way 5-shot (2000 episodes)")
    assert "**85.00 ± 3.00**" in few and "75.00" not in few
    assert "**75.00 ± 1.00**" in many and "85.00" not in many


def test_report_includes_sweep_sections(tiny_cfg, tmp_path):
    out = tmp_path / "run"
    reports = out / "reports"
    reports.mkdir(parents=True)
    reports.joinpath("eval_ft.csv").write_text(
        CSV_HEADER + "\nold,10,0.8,0.01,3,2,0\n")
    reports.joinpath("sweep_lambda.csv").write_text(
        "lambda,label,split,n,mean,ci,ways,shots,seed\n"
        "0.0,old,old,10,0.7,0.01,3,2,0\n"
        "10.0,old,old,10,0.9,0.01,3,2,0\n")
    assert cmd_dispatch(["report", "-c", tiny_cfg, "--out", str(out)]) == 0
    text = (reports / "summary.md").read_text()
    assert "## Alignment-weight sweep" in text
    assert "| 0.0 | 70.00 ± 1.00 |" in text
    assert "| 10.0 | 90.00 ± 1.00 |" in text


REPORT_INPUTS = {
    "eval_nu.csv": "old,40,0.95,0.02,3,2,7\nnew,40,0.4,0.05,3,2,7\n",
    "eval_ft.csv": "old,40,0.8,0.03,3,2,7\nnew,40,0.9166666666666666,0.025,3,2,7\n"
                   "unseen,40,0.7,0.04,3,2,7\n\nold,20,0.61,0.05,5,1,7\n",
    "eval_ida.csv": "new,40,0.9166666666666666,0.026,3,2,7\nold,40,0.85,0.03,3,2,7\n"
                    "old,20,0.66,0.04,5,1,7\nnew,20,0.5,0.06,5,1,7\n",
    "eval_par.csv": "old,40,0.97,0.01,3,2,7\nnew,40,0.96,0.015,3,2,7\n"
                    "unseen,40,0.9,0.02,3,2,7\n",
    "eval_teacher.csv": "old,40,0.88,0.02,3,2,7\nheld_out,40,0.5,0.1,3,2,7\n"
                        "old,20,0.66,0.05,5,1,7\n",
    "eval_alt.csv": "aux,40,0.25,0.125,3,2,7\n",
    "sweep_lambda.csv": "lambda,label,split,n,mean,ci,ways,shots,seed\n"
                        "0.0,old,old,40,0.775,0.0373,3,2,1234\n"
                        "0.0,new,new,40,0.78,0.0434,3,2,1234\n"
                        "0.0,unseen,unseen,40,0.8517,0.0364,3,2,1234\n"
                        "1.0,old,old,40,0.7833,0.0388,3,2,1234\n"
                        "1.0,new,new,40,0.7817,0.0429,3,2,1234\n",
    "sweep_exemplars.csv": "exemplars,label,split,n,mean,ci,ways,shots,seed\n"
                           "3,old,old,40,0.7817,0.0383,3,2,1234\n"
                           "6,old,old,40,0.7833,0.0388,3,2,1234\n"
                           "6,new,new,40,0.7817,0.0429,3,2,1234\n",
    "cross_way_shot.csv": "way_shot,label,split,n,mean,ci,ways,shots,seed\n"
                          "2w1s,nu,unseen,40,0.9275,0.0384,2,1,1234\n"
                          "3w1s,nu,unseen,40,0.795,0.0487,3,1,1234\n"
                          "2w1s,ida,unseen,40,0.925,0.0414,2,1,1234\n"
                          "3w1s,ida,unseen,40,0.81,0.0492,3,1,1234\n"
                          "2w1s,range,,0,0.0025000000000000577,,,,\n"
                          "3w1s,range,,0,0.015000000000000013,,,,\n",
}

# What `iml report` renders from REPORT_INPUTS: unknown methods and splits
# after the known ones by name, bold ties, missing cells, range columns.
REPORT_SUMMARY = (
    "# Results\n"
    "\n"
    "## 3-way 2-shot (40 episodes)\n"
    "\n"
    "| method | old | new | unseen | aux | held_out |\n"
    "| --- | --- | --- | --- | --- | --- |\n"
    "| NU | 95.00 ± 2.00 | 40.00 ± 5.00 | — | — | — |\n"
    "| FT | 80.00 ± 3.00 | **91.67 ± 2.50** | **70.00 ± 4.00** | — | — |\n"
    "| IDA | 85.00 ± 3.00 | **91.67 ± 2.60** | — | — | — |\n"
    "| PAR | 97.00 ± 1.00 | 96.00 ± 1.50 | 90.00 ± 2.00 | — | — |\n"
    "| ALT | — | — | — | **25.00 ± 12.50** | — |\n"
    "| TEACHER | **88.00 ± 2.00** | — | — | — | **50.00 ± 10.00** |\n"
    "\n"
    "## 5-way 1-shot (20 episodes)\n"
    "\n"
    "| method | old | new |\n"
    "| --- | --- | --- |\n"
    "| FT | 61.00 ± 5.00 | — |\n"
    "| IDA | **66.00 ± 4.00** | **50.00 ± 6.00** |\n"
    "| TEACHER | **66.00 ± 5.00** | — |\n"
    "\n"
    "## Alignment-weight sweep\n"
    "\n"
    "| lambda | old | new | unseen |\n"
    "| --- | --- | --- | --- |\n"
    "| 0.0 | 77.50 ± 3.73 | 78.00 ± 4.34 | 85.17 ± 3.64 |\n"
    "| 1.0 | 78.33 ± 3.88 | 78.17 ± 4.29 | — |\n"
    "\n"
    "## Exemplar-budget sweep\n"
    "\n"
    "| exemplars | old | new |\n"
    "| --- | --- | --- |\n"
    "| 3 | 78.17 ± 3.83 | — |\n"
    "| 6 | 78.33 ± 3.88 | 78.17 ± 4.29 |\n"
    "\n"
    "## Ways/shots grid\n"
    "\n"
    "| way_shot | nu | ida | range |\n"
    "| --- | --- | --- | --- |\n"
    "| 2w1s | 92.75 ± 3.84 | 92.50 ± 4.14 | 0.25 |\n"
    "| 3w1s | 79.50 ± 4.87 | 81.00 ± 4.92 | 1.50 |\n"
)

EXEMPLAR_SECTION = (
    "## Exemplar-budget sweep\n\n"
    "| exemplars | old | new |\n"
    "| --- | --- | --- |\n"
    "| 3 | 78.17 ± 3.83 | — |\n"
    "| 6 | 78.33 ± 3.88 | 78.17 ± 4.29 |\n\n"
)


def test_report_bytes_for_every_section_kind(tiny_cfg, tmp_path):
    out = tmp_path / "run"
    reports = out / "reports"
    reports.mkdir(parents=True)
    for name, text in REPORT_INPUTS.items():
        header = CSV_HEADER + "\n" if name.startswith("eval_") else ""
        reports.joinpath(name).write_text(header + text)
    assert cmd_dispatch(["report", "-c", tiny_cfg, "--out", str(out)]) == 0
    assert (reports / "summary.md").read_text() == REPORT_SUMMARY
    # a zero-byte study file is skipped
    reports.joinpath("sweep_exemplars.csv").write_text("")
    assert cmd_dispatch(["report", "-c", tiny_cfg, "--out", str(out)]) == 0
    assert EXEMPLAR_SECTION in REPORT_SUMMARY
    assert (reports / "summary.md").read_text() == REPORT_SUMMARY.replace(EXEMPLAR_SECTION, "")


def test_report_without_evals_fails(tiny_cfg, tmp_path, capsys):
    code = cmd_dispatch(["report", "-c", tiny_cfg, "--out", str(tmp_path / "r")])
    assert code == 2
    assert "eval" in capsys.readouterr().err
