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
    remove_dataset,
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
from .model import BackboneConfig, ModelSnapshot
from .trainer import (
    TrainConfig,
    run_rounds,
    seeded_exemplars,
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


def _nonempty(rule: _Rule) -> _Rule:
    ok, need = rule
    return (lambda v: len(v) > 0 and ok(v)), f"a non-empty list with {need}"


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
    _Setting("train.kl_order", _text, _one_of(KL_ORDERS)),
    _Setting("train.hidden_dims", _list(int), _each(_AT_LEAST_1), "hidden_dims"),
    _Setting("train.embed_dim", int, _AT_LEAST_1, "embed_dim"),
    _Setting("train.profile", _text, _one_of(_PROFILES), "profile"),
    _Setting("train.rounds", int, _AT_LEAST_1, "rounds"),
    _Setting("eval.n_episodes", int, _AT_LEAST_2),
    _Setting("eval.seed", int),
    _Setting("eval.workers", int, _AT_LEAST_1),
    _Setting("eval.lambda_grid", _list(float), _nonempty(_each(_NON_NEGATIVE))),
    _Setting("eval.exemplar_grid", _list(int), _nonempty(_each(_AT_LEAST_1))),
    _Setting("eval.ways_grid", _list(int), _nonempty(_each(_AT_LEAST_2))),
    _Setting("eval.shots_grid", _list(int), _nonempty(_each(_AT_LEAST_1))),
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
    """The table of a role such as ``old_train``; its split is the role's first word."""
    split = role.split("_")[0]
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


def _save_snapshots(snaps: dict[Path, ModelSnapshot]) -> int:
    """The tail of every training command: save each snapshot and say where."""
    for out, snap in snaps.items():
        save_snapshot(snap, out)
        print(f"wrote {out} ({len(snap.anchors)} anchors)")
    return 0


def _write_report(out: Path, lines: list[str]) -> int:
    """The tail of every evaluating command: write one CSV report and say where."""
    write_text_atomic(out, "\n".join(lines) + "\n")
    print(f"wrote {out}")
    return 0


def _names(flag: str, text: str, known: list[str]) -> list[str]:
    """The comma list given to ``flag``: at least one name, each in ``known``, none twice."""
    names = [n for n in text.split(",") if n]
    if not names or any(n not in known for n in names):
        raise ConfigError(f"{flag} takes a comma list from {','.join(known)}, got {text!r}")
    if len(set(names)) < len(names):
        raise ConfigError(f"{flag} names each entry at most once, got {text!r}")
    return names


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
    else:  # an earlier gen-data's table would be scored as this run's
        remove_dataset(rp.data_dir / "unseen_test.csv")
    for role, ds in tables.items():
        save_dataset(ds, rp.data_dir / f"{role}.csv")
        print(f"wrote {rp.data_dir / f'{role}.csv'} ({len(ds)} rows, {ds.n_classes} classes)")
    return 0


def cmd_train_base(args, rc: RunConfig) -> int:
    rp = _prepare(rc)
    train_ds = _load_role(rc, rp, "old_train")
    val_ds = _load_role(rc, rp, "old_val")
    cfg = _train_cfg(rc, rp, train_ds.dim, "base")
    return _save_snapshots({_snapshot_path(rp, "nu"): train_base(train_ds, val_ds, cfg)})


def cmd_train_incr(args, rc: RunConfig) -> int:
    rp = _prepare(rc)
    method = MethodKind(args.method)
    base = load_snapshot(Path(args.base) if args.base else _snapshot_path(rp, "nu"))
    new_ds = _load_role(rc, rp, "new_train")
    val_ds = _load_role(rc, rp, "new_val")
    exemplars = None
    if method is MethodKind.EIML:
        exemplars = seeded_exemplars(_load_role(rc, rp, "old_train"),
                                     rc.train.exemplars_per_class, rc.train.seed)
    cfg = _train_cfg(rc, rp, new_ds.dim, f"incr_{method.value}")
    snap = train_incremental(base, new_ds, val_ds, method, cfg, exemplars=exemplars)
    return _save_snapshots({_snapshot_path(rp, method.value): snap})


def cmd_train_paragon(args, rc: RunConfig) -> int:
    rp = _prepare(rc)
    union = concat_datasets(
        _load_role(rc, rp, "old_train"), _load_role(rc, rp, "new_train"), "union"
    )
    val = concat_datasets(
        _load_role(rc, rp, "old_val"), _load_role(rc, rp, "new_val"), "union"
    )
    cfg = _train_cfg(rc, rp, union.dim, "paragon")
    return _save_snapshots({_snapshot_path(rp, "par"): train_paragon(union, val, cfg)})


def cmd_eval(args, rc: RunConfig) -> int:
    splits = _names("--splits", args.splits, SPLIT_ORDER)
    if args.label is not None and args.snapshot is None:
        raise ConfigError(
            "--label names a --snapshot report; a --method report is named after its method"
        )
    snap, label = None, args.label or args.method
    if label is None:  # a --snapshot report without --label is named after its stored method
        snap = load_snapshot(Path(args.snapshot))
        label = snap.meta.method
    if {os.sep, os.altsep, "/"} & set(label):
        source = "--label" if args.label else "the snapshot's stored method"
        raise ConfigError(f"{source} names a report file, so no path separator: {label!r}")
    rp = _prepare(rc)
    if snap is None:
        path = Path(args.snapshot) if args.snapshot else _snapshot_path(rp, args.method)
        snap = load_snapshot(path)
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
    return _write_report(rp.reports / f"eval_{label}.csv", lines)


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
    return _save_snapshots({
        rp.snapshots / f"rounds_{args.method}_r{i + 1}.imlsnap": snap
        for i, snap in enumerate(snaps)
    })


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
    return _write_report(rp.reports / "sweep_lambda.csv", table.csv_lines())


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
    return _write_report(rp.reports / "sweep_exemplars.csv", table.csv_lines())


def cmd_cross_way_shot(args, rc: RunConfig) -> int:
    methods = None if args.methods is None else _names("--methods", args.methods, METHOD_ORDER)
    rp = _prepare(rc)
    if methods is None:
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
    return _write_report(rp.reports / "cross_way_shot.csv", table.csv_lines())


# ---------------------------------------------------------------------------
# report emission


_UNADAPTED = ("nu", "par")  # reference rows, never bolded
_STUDIES = (
    ("sweep_lambda.csv", "Alignment-weight sweep"),
    ("sweep_exemplars.csv", "Exemplar-budget sweep"),
    ("cross_way_shot.csv", "Ways/shots grid"),
)


def _read_csv(path: Path) -> tuple[list[str], list[dict[str, str]]]:
    """A CSV's header and its non-blank rows keyed by it; a zero-byte file has neither."""
    lines = path.read_text().splitlines()
    if not lines:
        return [], []
    header, rows = lines[0].split(","), []
    for no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(header):
            raise ValueError(f"{path}: line {no}: expected {len(header)} fields")
        rows.append(dict(zip(header, parts)))
    return header, rows


def _ordered(names, order: list[str]) -> list[str]:
    """Distinct names: those in ``order`` first, in its order, then the rest by name."""
    return sorted(set(names), key=lambda n: (order.index(n) if n in order else len(order), n))


def _table(corner: str, rows: list[str], cols: list[str], cells: list[dict]) -> list[str]:
    """Markdown table lines; ``cells[i]`` maps column to text in ``rows[i]``, a gap is —."""
    out = ["| " + corner + " | " + " | ".join(cols) + " |", "| --- |" + " --- |" * len(cols)]
    for row, by_col in zip(rows, cells):
        out.append("| " + row + " | " + " | ".join(by_col.get(c, "—") for c in cols) + " |")
    return out


def _cell(row: dict[str, str]) -> str:
    """A row's mean accuracy in percent, ± its interval; a range row's spread alone."""
    text = f"{100 * float(row['mean']):.2f}"
    return text if row.get("label") == "range" else f"{text} ± {100 * float(row['ci']):.2f}"


def summary_markdown(rows: list[dict[str, str]]) -> str:
    """Methods-by-splits accuracy table(s), one per episode shape and episode count.

    ``rows`` are eval CSV rows as ``_read_csv`` returns them, each with its
    ``method`` added.  The untouched baseline leads, the paragon closes,
    and the best mean among the remaining methods is bolded per column
    (ties all bold).
    """
    def shape(r):
        return int(r["ways"]), int(r["shots"]), int(r["n"])

    out = ["# Results", ""]
    for ways, shots, n in sorted({shape(r) for r in rows}):
        grp = [r for r in rows if shape(r) == (ways, shots, n)]
        found = {(r["method"], r["split"]): r for r in grp}
        adapted = [(s, float(r["mean"])) for (m, s), r in found.items() if m not in _UNADAPTED]
        best = {s: max(v for t, v in adapted if t == s) for s, _ in adapted}
        cells: dict[str, dict[str, str]] = {}
        for (m, s), r in found.items():
            bold = m not in _UNADAPTED and float(r["mean"]) == best[s]
            cells.setdefault(m, {})[s] = f"**{_cell(r)}**" if bold else _cell(r)
        methods = _ordered(cells, METHOD_ORDER)
        splits = _ordered((r["split"] for r in grp), SPLIT_ORDER)
        out += [f"## {ways}-way {shots}-shot ({n} episodes)", ""]
        out += _table("method", [m.upper() for m in methods], splits,
                      [cells[m] for m in methods]) + [""]
    return "\n".join(out)


def cmd_report(args, rc: RunConfig) -> int:
    rp = _prepare(rc)
    eval_files = sorted(rp.reports.glob("eval_*.csv"))
    if not eval_files:
        raise FileNotFoundError(f"no eval_*.csv under {rp.reports}; run eval first")
    text = summary_markdown([
        {**row, "method": path.stem[len("eval_"):]}
        for path in eval_files for row in _read_csv(path)[1]
    ])
    # a study is one row per axis value and one column per label, in file order
    for name, title in _STUDIES:
        path = rp.reports / name
        header, rows = _read_csv(path) if path.exists() else ([], [])
        if not header:
            continue
        by_value: dict[str, dict[str, str]] = {}
        for row in rows:
            by_value.setdefault(row[header[0]], {})[row["label"]] = _cell(row)
        labels = list(dict.fromkeys(row["label"] for row in rows))
        table = _table(header[0], list(by_value), labels, list(by_value.values()))
        text += "\n" + "\n".join([f"## {title}", "", *table, ""])
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
