"""Command-line front end: config files, run directories, subcommands.

A run lives in one directory: ``config.resolved`` (the fully resolved
settings), ``data/`` (generated or referenced tables), ``snapshots/``,
``logs/`` and ``reports/``.  Config files are INI-style with sections
[data], [train] and [eval]; every key has a default, unknown keys are
rejected, ``--set section.key=value`` overrides single entries, and the
IML_SEED environment variable overrides the seed.
"""
from __future__ import annotations

import argparse
import os
import sys
import configparser
from dataclasses import dataclass, field, replace
from itertools import groupby
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .anchorstore import load_snapshot, save_snapshot
from .data import (
    Dataset,
    SyntheticSpec,
    concat_datasets,
    gen_synthetic,
    load_dataset,
    reserve_exemplars,
    save_dataset,
    uniform_offset,
    write_text_atomic,
)
from .evaluator import (
    CSV_HEADER,
    cross_way_shot,
    evaluate,
    sweep_exemplars,
    sweep_lambda,
)
from .losses import KL_ORDERS, MethodKind
from .model import BackboneConfig
from .trainer import (
    TrainConfig,
    run_rounds,
    train_base,
    train_incremental,
    train_paragon,
)

METHOD_ORDER = ["nu", "ft", "dfa", "eiml", "ida", "par"]
SPLIT_ORDER = ["old", "new", "unseen"]

# Defaults a profile puts in place of RunConfig()'s; desk is RunConfig() itself.
_PROFILES = {
    "desk": {},
    "paper-scale": {"train.epochs": 200, "train.tasks_per_epoch": 800, "eval.n_episodes": 2000},
}

# Which test table each evaluation split reads, and which table each role labels.
_ROLE_SPLIT = {
    "old_train": "old", "old_val": "old", "old_test": "old",
    "new_train": "new", "new_val": "new", "new_test": "new",
    "unseen_test": "unseen",
}


class ConfigError(ValueError):
    """Bad config file, key, or value; maps to the usage exit code."""


@dataclass(frozen=True)
class DataConfig:
    kind: str = "synthetic"
    train_classes_per_domain: int = 16
    unseen_classes_per_domain: int = 16
    dim: int = 16
    cluster_std: float = 0.5
    offset_magnitude: float = 3.0
    samples_per_class: int = 120
    # csv mode: explicit table paths
    old_train: str = ""
    new_train: str = ""
    old_val: str = ""
    new_val: str = ""
    old_test: str = ""
    new_test: str = ""
    unseen_test: str = ""


@dataclass(frozen=True)
class EvalConfig:
    n_episodes: int = 500
    seed: int = 1234
    workers: int = 1
    lambda_grid: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0, 2.0, 5.0, 10.0)
    exemplar_grid: tuple[int, ...] = (15, 30, 60, 120)
    ways_grid: tuple[int, ...] = (5, 10, 20)
    shots_grid: tuple[int, ...] = (1, 5)


@dataclass(frozen=True)
class RunConfig:
    data: DataConfig = field(default_factory=DataConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    profile: str = "desk"
    rounds: int = 2
    hidden_dims: tuple[int, ...] = (32,)
    embed_dim: int = 16
    output_dir: str = "run"


def _text(raw: str) -> str:
    raw = raw.strip()
    if len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in "\"'":
        raw = raw[1:-1]
    return raw


def _optional(conv: Callable[[str], object]) -> Callable[[str], object]:
    """An empty value parses to None."""
    return lambda raw: None if raw.strip() == "" else conv(raw)


def _list(conv: Callable[[str], object]) -> Callable[[str], tuple]:
    """Comma-separated values."""
    return lambda raw: tuple(conv(p) for p in raw.replace(" ", "").split(",") if p)


# Range rules: (predicate, what it demands, for the error message).
_Rule = tuple[Callable[[object], bool], str]
_AT_LEAST_1: _Rule = (lambda v: v >= 1, "at least 1")
_AT_LEAST_2: _Rule = (lambda v: v >= 2, "at least 2")
_NON_NEGATIVE: _Rule = (lambda v: v >= 0, "non-negative")
_POSITIVE: _Rule = (lambda v: v > 0, "positive")


def _one_of(choices) -> _Rule:
    return (lambda v: v in choices), f"one of {list(choices)}"


def _each(rule: _Rule) -> _Rule:
    ok, need = rule
    return (lambda v: all(ok(x) for x in v)), f"{need} in every entry"


class _Setting(NamedTuple):
    """One config key: how its text parses, its range rule, and where it lands."""

    name: str  # section.key as written in a config file
    parse: Callable[[str], object]
    rule: _Rule | None = None  # not applied to None, the empty optional value
    dest: str = ""  # dotted RunConfig attribute, when it is not ``name``

    @property
    def section(self) -> str:
        return self.name.split(".")[0]

    @property
    def key(self) -> str:
        return self.name.split(".")[1]

    @property
    def attr(self) -> str:
        return self.dest or self.name


# Every config key, in config.resolved order; defaults come from RunConfig().
_SETTINGS = (
    _Setting("data.kind", _text, _one_of(("synthetic", "csv"))),
    _Setting("data.train_classes_per_domain", int, _AT_LEAST_1),
    _Setting("data.unseen_classes_per_domain", int, _NON_NEGATIVE),
    _Setting("data.dim", int, _AT_LEAST_1),
    _Setting("data.cluster_std", float, _NON_NEGATIVE),
    _Setting("data.offset_magnitude", float),
    _Setting("data.samples_per_class", int, _AT_LEAST_1),
    _Setting("data.old_train", _text),
    _Setting("data.new_train", _text),
    _Setting("data.old_val", _text),
    _Setting("data.new_val", _text),
    _Setting("data.old_test", _text),
    _Setting("data.new_test", _text),
    _Setting("data.unseen_test", _text),
    _Setting("train.ways", int, _AT_LEAST_2, "train.episode.ways"),
    _Setting("train.shots", int, _AT_LEAST_1, "train.episode.shots"),
    _Setting("train.queries", int, _AT_LEAST_1, "train.episode.queries"),
    _Setting("train.epochs", int, _AT_LEAST_1),
    _Setting("train.tasks_per_epoch", int, _AT_LEAST_1),
    _Setting("train.lambda", float, _NON_NEGATIVE, "train.lam"),
    _Setting("train.lambda_old", _optional(float), _NON_NEGATIVE, "train.lam_old"),
    _Setting("train.lambda_new", _optional(float), _NON_NEGATIVE, "train.lam_new"),
    _Setting("train.temperature", float, _POSITIVE),
    _Setting("train.lr", float, _POSITIVE),
    _Setting("train.lr_decay", float, (lambda v: 0 < v <= 1, "in (0, 1]")),
    _Setting("train.patience", int, _NON_NEGATIVE),
    _Setting("train.seed", int),
    _Setting("train.val_episodes", int, _AT_LEAST_1),
    _Setting("train.exemplars_per_class", int, _AT_LEAST_1),
    _Setting("train.anchors_per_step", _optional(int), _AT_LEAST_1),
    _Setting("train.kl_order", _text, _one_of(KL_ORDERS)),
    _Setting("train.hidden_dims", _list(int), _each(_AT_LEAST_1), "hidden_dims"),
    _Setting("train.embed_dim", int, _AT_LEAST_1, "embed_dim"),
    _Setting("train.profile", _text, _one_of(_PROFILES), "profile"),
    _Setting("train.rounds", int, _AT_LEAST_1, "rounds"),
    _Setting("eval.n_episodes", int, _AT_LEAST_2),
    _Setting("eval.seed", int),
    _Setting("eval.workers", int, _AT_LEAST_1),
    _Setting("eval.lambda_grid", _list(float), _each(_NON_NEGATIVE)),
    _Setting("eval.exemplar_grid", _list(int), _each(_AT_LEAST_1)),
    _Setting("eval.ways_grid", _list(int), _each(_AT_LEAST_2)),
    _Setting("eval.shots_grid", _list(int), _each(_AT_LEAST_1)),
)


def _get(obj, attr: str):
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def _with(obj, attr: str, value):
    """Copy of a nested frozen dataclass with one dotted attribute replaced."""
    head, _, rest = attr.partition(".")
    return replace(obj, **{head: _with(getattr(obj, head), rest, value) if rest else value})


def parse_config(
    path: str | None = None,
    overrides: list[str] | None = None,
    env: dict | None = None,
) -> RunConfig:
    """Resolve a config file plus overrides into a validated RunConfig.

    No file at all (or an empty one) resolves to pure defaults.
    """
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    cp.optionxform = str  # names are case-sensitive, as config.resolved writes them
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        try:
            cp.read_string(p.read_text())
        except configparser.Error as e:
            raise ConfigError(f"{p}: {e}") from e
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"--set needs section.key=value, got {item!r}")
        target, value = item.split("=", 1)
        sec, key = target.split(".", 1)
        sec, key = sec.strip(), key.strip()
        if not cp.has_section(sec):
            cp.add_section(sec)
        cp.set(sec, key, value.strip())

    sections, names = {s.section for s in _SETTINGS}, {s.name for s in _SETTINGS}
    for sec in cp.sections():
        if sec not in sections:
            raise ConfigError(f"unknown config section [{sec}]")
        for key in cp[sec]:
            if f"{sec}.{key}" not in names:
                raise ConfigError(f"unknown config key {sec}.{key}")

    values: dict[str, object] = {}
    for s in _SETTINGS:
        if not cp.has_option(s.section, s.key):
            continue
        raw = cp.get(s.section, s.key)
        try:
            value = s.parse(raw)
        except ValueError as e:
            raise ConfigError(f"{s.name}: cannot parse {raw!r} ({e})") from e
        if s.rule is not None and value is not None and not s.rule[0](value):
            raise ConfigError(f"{s.name} must be {s.rule[1]}, got {value!r}")
        values[s.attr] = value

    env = os.environ if env is None else env
    if env.get("IML_SEED"):
        try:
            values["train.seed"] = int(env["IML_SEED"])
        except ValueError as e:
            raise ConfigError(f"IML_SEED must be an integer, got {env['IML_SEED']!r}") from e

    rc = RunConfig()
    profile = values.get("profile", rc.profile)
    for attr, value in {**_PROFILES[profile], **values}.items():
        rc = _with(rc, attr, value)
    return rc


def dump_config(rc: RunConfig) -> str:
    """Deterministic INI rendering of every resolved setting."""

    def fmt(value) -> str:
        if value is None:
            return ""
        if isinstance(value, tuple):
            return ",".join(fmt(v) for v in value)
        if isinstance(value, float):
            return repr(value)
        return str(value)

    out = []
    for sec, settings in groupby(_SETTINGS, key=lambda s: s.section):
        out.append(f"[{sec}]")
        out.extend(f"{s.key} = {fmt(_get(rc, s.attr))}" for s in settings)
        out.append("")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# run directory


@dataclass(frozen=True)
class RunPaths:
    root: Path

    @property
    def data_dir(self) -> Path:
        return self.root / "data"

    @property
    def snapshots(self) -> Path:
        return self.root / "snapshots"

    @property
    def logs(self) -> Path:
        return self.root / "logs"

    @property
    def reports(self) -> Path:
        return self.root / "reports"

    def ensure(self) -> None:
        for p in (self.root, self.data_dir, self.snapshots, self.logs, self.reports):
            p.mkdir(parents=True, exist_ok=True)


def _prepare(rc: RunConfig) -> RunPaths:
    rp = RunPaths(Path(rc.output_dir))
    rp.ensure()
    write_text_atomic(rp.root / "config.resolved", dump_config(rc))
    return rp


def _load_role(rc: RunConfig, rp: RunPaths, role: str) -> Dataset:
    split = _ROLE_SPLIT[role]
    if rc.data.kind == "csv":
        configured = getattr(rc.data, role)
        if not configured:
            raise ConfigError(f"data.kind is csv but data.{role} is not set")
        return load_dataset(configured, split)
    path = rp.data_dir / f"{role}.csv"
    if not path.exists():
        raise FileNotFoundError(f"{path} not found; run gen-data first")
    return load_dataset(path, split)


def _synthetic_spec(rc: RunConfig) -> SyntheticSpec:
    d = rc.data
    per_domain = d.train_classes_per_domain + d.unseen_classes_per_domain
    return SyntheticSpec(
        classes_per_domain=per_domain,
        dim=d.dim,
        cluster_std=d.cluster_std,
        domain_offset=uniform_offset(d.offset_magnitude, d.dim),
        samples_per_class=d.samples_per_class,
        seed=rc.train.seed,
    )


def _train_cfg(rc: RunConfig, rp: RunPaths, data_dim: int, log_name: str) -> TrainConfig:
    return replace(
        rc.train,
        backbone=BackboneConfig(data_dim, rc.hidden_dims, rc.embed_dim),
        log_path=str(rp.logs / f"{log_name}.csv"),
    )


def _snapshot_path(rp: RunPaths, method: str) -> Path:
    name = {"nu": "base", "par": "paragon"}.get(method, f"incr_{method}")
    return rp.snapshots / f"{name}.imlsnap"


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args, rc: RunConfig) -> int:
    if rc.data.kind != "synthetic":
        raise ConfigError("gen-data only applies to data.kind = synthetic")
    rp = _prepare(rc)
    d = rc.data
    spec = _synthetic_spec(rc)
    t, c = d.train_classes_per_domain, spec.classes_per_domain
    a_train = list(range(0, t))
    a_unseen = list(range(t, c))
    b_train = list(range(c, c + t))
    b_unseen = list(range(c + t, 2 * c))

    train_draw = gen_synthetic(spec, sample_seed=0)
    val_draw = gen_synthetic(spec, sample_seed=1)
    test_draw = gen_synthetic(spec, sample_seed=2)

    tables = {
        "old_train": train_draw.subset_classes(a_train, "old"),
        "new_train": train_draw.subset_classes(b_train, "new"),
        "old_val": val_draw.subset_classes(a_train, "old"),
        "new_val": val_draw.subset_classes(b_train, "new"),
        "old_test": test_draw.subset_classes(a_train, "old"),
        "new_test": test_draw.subset_classes(b_train, "new"),
    }
    if a_unseen or b_unseen:
        tables["unseen_test"] = test_draw.subset_classes(a_unseen + b_unseen, "unseen")
    for role, ds in tables.items():
        save_dataset(ds, rp.data_dir / f"{role}.csv")
        print(f"wrote {rp.data_dir / f'{role}.csv'} ({len(ds)} rows, {ds.n_classes} classes)")
    return 0


def cmd_train_base(args, rc: RunConfig) -> int:
    rp = _prepare(rc)
    train_ds = _load_role(rc, rp, "old_train")
    val_ds = _load_role(rc, rp, "old_val")
    cfg = _train_cfg(rc, rp, train_ds.dim, "base")
    snap = train_base(train_ds, val_ds, cfg)
    out = _snapshot_path(rp, "nu")
    save_snapshot(snap, out)
    print(f"wrote {out} ({len(snap.anchors)} anchors)")
    return 0


def cmd_train_incr(args, rc: RunConfig) -> int:
    rp = _prepare(rc)
    method = MethodKind(args.method)
    base_path = Path(args.base) if args.base else _snapshot_path(rp, "nu")
    base = load_snapshot(base_path)
    new_ds = _load_role(rc, rp, "new_train")
    val_ds = _load_role(rc, rp, "new_val")
    exemplars = None
    if method is MethodKind.EIML:
        old_ds = _load_role(rc, rp, "old_train")
        count = rc.train.exemplars_per_class
        exemplars = reserve_exemplars(
            old_ds, count, np.random.default_rng([rc.train.seed, 301, count])
        )
    cfg = _train_cfg(rc, rp, new_ds.dim, f"incr_{method.value}")
    snap = train_incremental(base, new_ds, val_ds, method, cfg, exemplars=exemplars)
    out = _snapshot_path(rp, method.value)
    save_snapshot(snap, out)
    print(f"wrote {out} ({len(snap.anchors)} anchors)")
    return 0


def cmd_train_paragon(args, rc: RunConfig) -> int:
    rp = _prepare(rc)
    union = concat_datasets(
        _load_role(rc, rp, "old_train"), _load_role(rc, rp, "new_train"), "union"
    )
    val = concat_datasets(
        _load_role(rc, rp, "old_val"), _load_role(rc, rp, "new_val"), "union"
    )
    cfg = _train_cfg(rc, rp, union.dim, "paragon")
    snap = train_paragon(union, val, cfg)
    out = _snapshot_path(rp, "par")
    save_snapshot(snap, out)
    print(f"wrote {out} ({len(snap.anchors)} anchors)")
    return 0


def cmd_eval(args, rc: RunConfig) -> int:
    rp = _prepare(rc)
    if args.snapshot:
        snap = load_snapshot(Path(args.snapshot))
        label = args.label or snap.meta.method
    else:
        snap = load_snapshot(_snapshot_path(rp, args.method))
        label = args.method
    splits = [s for s in args.splits.split(",") if s]
    for s in splits:
        if s not in SPLIT_ORDER:
            raise ConfigError(f"unknown split {s!r}; choose from {','.join(SPLIT_ORDER)}")
    lines = [CSV_HEADER]
    for s in splits:
        ds = _load_role(rc, rp, f"{s}_test")
        rep = evaluate(
            snap, ds, rc.train.episode, rc.eval.n_episodes, rc.eval.seed,
            workers=rc.eval.workers,
        )
        lines.append(rep.csv_row())
        print(
            f"{label} {s}: {100 * rep.mean_acc:.2f} ± {100 * rep.ci95:.2f} "
            f"({rep.n_episodes} episodes)"
        )
    out = rp.reports / f"eval_{label}.csv"
    write_text_atomic(out, "\n".join(lines) + "\n")
    print(f"wrote {out}")
    return 0


def cmd_rounds(args, rc: RunConfig) -> int:
    rp = _prepare(rc)
    base = load_snapshot(Path(args.base) if args.base else _snapshot_path(rp, "nu"))
    new_ds = _load_role(rc, rp, "new_train")
    new_val = _load_role(rc, rp, "new_val")
    n = rc.rounds
    groups = [list(g) for g in np.array_split(np.asarray(new_ds.classes), n)]
    need = max(2, rc.train.episode.ways)
    if any(len(g) < need for g in groups):
        raise ConfigError(
            f"cannot split {new_ds.n_classes} new classes into {n} rounds of "
            f">= {need} classes; reduce train.rounds or train.ways"
        )
    round_ds = [new_ds.subset_classes(g, f"new_r{i + 1}") for i, g in enumerate(groups)]
    round_val = [new_val.subset_classes(g, f"new_r{i + 1}") for i, g in enumerate(groups)]
    cfg = _train_cfg(rc, rp, new_ds.dim, f"rounds_{args.method}")
    snaps = run_rounds(base, round_ds, MethodKind(args.method), cfg, round_vals=round_val)
    for i, snap in enumerate(snaps):
        out = rp.snapshots / f"rounds_{args.method}_r{i + 1}.imlsnap"
        save_snapshot(snap, out)
        print(f"wrote {out} ({len(snap.anchors)} anchors)")
    return 0


def _eval_split_tables(rc: RunConfig, rp: RunPaths) -> dict[str, Dataset]:
    return {s: _load_role(rc, rp, f"{s}_test") for s in SPLIT_ORDER}


def cmd_sweep_lambda(args, rc: RunConfig) -> int:
    rp = _prepare(rc)
    base = load_snapshot(_snapshot_path(rp, "nu"))
    new_ds = _load_role(rc, rp, "new_train")
    new_val = _load_role(rc, rp, "new_val")
    table = sweep_lambda(
        base, new_ds, new_val, _eval_split_tables(rc, rp),
        rc.eval.lambda_grid, replace(rc.train, backbone=None, log_path=None),
        rc.eval.n_episodes, rc.eval.seed,
    )
    out = rp.reports / "sweep_lambda.csv"
    write_text_atomic(out, "\n".join(table.csv_lines()) + "\n")
    print(f"wrote {out}")
    return 0


def cmd_sweep_exemplars(args, rc: RunConfig) -> int:
    rp = _prepare(rc)
    base = load_snapshot(_snapshot_path(rp, "nu"))
    old_ds = _load_role(rc, rp, "old_train")
    new_ds = _load_role(rc, rp, "new_train")
    new_val = _load_role(rc, rp, "new_val")
    table = sweep_exemplars(
        base, old_ds, new_ds, new_val, rc.eval.exemplar_grid,
        replace(rc.train, backbone=None, log_path=None),
        _eval_split_tables(rc, rp), rc.eval.n_episodes, rc.eval.seed,
    )
    out = rp.reports / "sweep_exemplars.csv"
    write_text_atomic(out, "\n".join(table.csv_lines()) + "\n")
    print(f"wrote {out}")
    return 0


def cmd_cross_way_shot(args, rc: RunConfig) -> int:
    rp = _prepare(rc)
    if args.methods:
        methods = [m for m in args.methods.split(",") if m]
        for m in methods:
            if m not in METHOD_ORDER:
                raise ConfigError(f"unknown method {m!r} in --methods")
    else:
        methods = [m for m in METHOD_ORDER if _snapshot_path(rp, m).exists()]
        if not methods:
            raise FileNotFoundError(f"no snapshots under {rp.snapshots}; train first")
    snaps = [load_snapshot(_snapshot_path(rp, m)) for m in methods]
    ds = _load_role(rc, rp, f"{args.split}_test")
    table = cross_way_shot(
        snaps, rc.eval.ways_grid, rc.eval.shots_grid, ds,
        rc.eval.n_episodes, rc.eval.seed,
        queries=rc.train.episode.queries, labels=methods,
    )
    out = rp.reports / "cross_way_shot.csv"
    write_text_atomic(out, "\n".join(table.csv_lines()) + "\n")
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# report emission


@dataclass(frozen=True)
class ReportRow:
    method: str
    split: str
    n: int
    mean: float
    ci: float
    ways: int
    shots: int
    seed: int


def _cell(mean: float, ci: float) -> str:
    return f"{100 * mean:.2f} ± {100 * ci:.2f}"


def summary_markdown(rows: list[ReportRow]) -> str:
    """Methods-by-splits accuracy table(s), one per episode shape.

    The untouched baseline leads, the paragon closes, and the best mean
    among the remaining methods is bolded per column (ties all bold).
    """
    def method_key(m: str):
        return (METHOD_ORDER.index(m), m) if m in METHOD_ORDER else (len(METHOD_ORDER), m)

    def split_key(s: str):
        return (SPLIT_ORDER.index(s), s) if s in SPLIT_ORDER else (len(SPLIT_ORDER), s)

    shapes = sorted({(r.ways, r.shots) for r in rows})
    out = ["# Results", ""]
    for ways, shots in shapes:
        grp = [r for r in rows if (r.ways, r.shots) == (ways, shots)]
        methods = sorted({r.method for r in grp}, key=method_key)
        splits = sorted({r.split for r in grp}, key=split_key)
        cells = {(r.method, r.split): r for r in grp}
        best: dict[str, float] = {}
        for s in splits:
            contenders = [
                cells[(m, s)].mean
                for m in methods
                if m not in ("nu", "par") and (m, s) in cells
            ]
            if contenders:
                best[s] = max(contenders)
        n_eps = grp[0].n
        out.append(f"## {ways}-way {shots}-shot ({n_eps} episodes)")
        out.append("")
        out.append("| method | " + " | ".join(splits) + " |")
        out.append("| --- |" + " --- |" * len(splits))
        for m in methods:
            row = [m.upper()]
            for s in splits:
                r = cells.get((m, s))
                if r is None:
                    row.append("—")
                    continue
                text = _cell(r.mean, r.ci)
                if m not in ("nu", "par") and s in best and r.mean == best[s]:
                    text = f"**{text}**"
                row.append(text)
            out.append("| " + " | ".join(row) + " |")
        out.append("")
    return "\n".join(out)


def _read_eval_csv(path: Path) -> list[ReportRow]:
    label = path.stem[len("eval_"):]
    rows = []
    lines = path.read_text().splitlines()
    for line in lines[1:]:
        if not line.strip():
            continue
        split, n, mean, ci, ways, shots, seed = line.split(",")
        rows.append(
            ReportRow(label, split, int(n), float(mean), float(ci),
                      int(ways), int(shots), int(seed))
        )
    return rows


def _sweep_section(path: Path, title: str) -> list[str]:
    lines = path.read_text().splitlines()
    if not lines:
        return []
    header = lines[0].split(",")
    axis = header[0]
    # rows keyed by axis value, columns by label; range rows pass through
    by_axis: dict[str, dict[str, str]] = {}
    labels: list[str] = []
    for line in lines[1:]:
        if not line.strip():
            continue
        parts = line.split(",")
        value, label, mean, ci = parts[0], parts[1], parts[4], parts[5]
        cell = _cell(float(mean), float(ci)) if label != "range" else f"{100 * float(mean):.2f}"
        by_axis.setdefault(value, {})[label] = cell
        if label not in labels:
            labels.append(label)
    out = [f"## {title}", "", "| " + axis + " | " + " | ".join(labels) + " |",
           "| --- |" + " --- |" * len(labels)]
    for value, cells in by_axis.items():
        out.append(
            "| " + value + " | "
            + " | ".join(cells.get(lb, "—") for lb in labels) + " |"
        )
    out.append("")
    return out


def cmd_report(args, rc: RunConfig) -> int:
    rp = _prepare(rc)
    eval_files = sorted(rp.reports.glob("eval_*.csv"))
    if not eval_files:
        raise FileNotFoundError(f"no eval_*.csv under {rp.reports}; run eval first")
    rows: list[ReportRow] = []
    for path in eval_files:
        rows.extend(_read_eval_csv(path))
    text = summary_markdown(rows)
    extras = []
    for name, title in [
        ("sweep_lambda.csv", "Alignment-weight sweep"),
        ("sweep_exemplars.csv", "Exemplar-budget sweep"),
        ("cross_way_shot.csv", "Ways/shots grid"),
    ]:
        path = rp.reports / name
        if path.exists():
            extras.extend(_sweep_section(path, title))
    if extras:
        text = text.rstrip("\n") + "\n\n" + "\n".join(extras)
    if not text.endswith("\n"):
        text += "\n"
    out = rp.reports / "summary.md"
    write_text_atomic(out, text)
    print(text)
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-c", "--config", default=None, help="config file (INI)")
    common.add_argument("--out", default="run", help="run directory")
    common.add_argument(
        "--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
        help="override one config entry",
    )
    parser = argparse.ArgumentParser(
        prog="iml", description="incremental few-shot learning runs"
    )
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("gen-data", parents=[common], help="generate synthetic tables")
    sub.add_parser("train-base", parents=[common], help="meta-train the base model")
    p = sub.add_parser("train-incr", parents=[common], help="incremental update")
    p.add_argument("--method", required=True, choices=("ft", "dfa", "ida", "eiml"))
    p.add_argument("--base", default=None, help="teacher snapshot path")
    sub.add_parser("train-paragon", parents=[common], help="retrain on the union")
    p = sub.add_parser("eval", parents=[common], help="episodic evaluation")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--method", choices=tuple(METHOD_ORDER))
    g.add_argument("--snapshot", default=None, help="explicit snapshot path")
    p.add_argument("--label", default=None, help="report label for --snapshot")
    p.add_argument("--splits", default="old,new,unseen")
    p = sub.add_parser("rounds", parents=[common], help="chained incremental rounds")
    p.add_argument("--method", required=True, choices=("ft", "dfa", "ida"))
    p.add_argument("--base", default=None)
    sub.add_parser("sweep-lambda", parents=[common], help="alignment-weight sweep")
    sub.add_parser("sweep-exemplars", parents=[common], help="exemplar-budget sweep")
    p = sub.add_parser("cross-way-shot", parents=[common], help="ways/shots grid")
    p.add_argument("--methods", default=None, help="comma list; default: all trained")
    p.add_argument("--split", default="unseen", choices=SPLIT_ORDER)
    sub.add_parser("report", parents=[common], help="render markdown summary")
    return parser


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "train-base": cmd_train_base,
    "train-incr": cmd_train_incr,
    "train-paragon": cmd_train_paragon,
    "eval": cmd_eval,
    "rounds": cmd_rounds,
    "sweep-lambda": cmd_sweep_lambda,
    "sweep-exemplars": cmd_sweep_exemplars,
    "cross-way-shot": cmd_cross_way_shot,
    "report": cmd_report,
}


def cmd_dispatch(argv: list[str] | None = None) -> int:
    """Parse argv, run one subcommand.

    Exit codes: 0 success, 1 usage or config error, 2 runtime failure.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    if not args.command:
        parser.print_usage(sys.stderr)
        return 1
    try:
        rc = parse_config(args.config, args.set, env=os.environ)
        rc = replace(rc, output_dir=args.out)
        return _COMMANDS[args.command](args, rc)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(cmd_dispatch())


if __name__ == "__main__":
    main()
