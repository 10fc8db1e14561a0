"""Outside-in tracer: spans around calls into each ``iml`` layer.

The tracer changes nothing under ``src/``.  It replaces the names callers
look up (``iml.trainer.score_episode``, ``iml.losses.embed``,
``iml.autodiff.matmul``, ...) with wrappers that record a span per call
(name, tag, start, end, parent) and exact counts, and it puts the
originals back when it is removed.  Spans stay in memory, in flat arrays,
and are written out when the run ends.  A layer is the module that defines
the wrapped function; its self time is its spans' durations minus the
durations of their child spans.

Attribution rules:

- ``embed`` through ``iml.losses.embed`` with bound params is ``student``,
  with the current teacher snapshot's params ``teacher``; through
  ``iml.model.embed`` (the name ``score_episode`` looks up) it is ``score``.
- Inside a training call, its direct child calls are its phases: episode
  and anchor sampling, the forward objective, ``Tape.backward``,
  ``adam_step`` and ``score_episode``.  Validation is the
  ``meta_xent_loss`` call made with an unbound ``ParamStore``, the
  ``score_episode`` call on that same episode, and the sampling before it.
- ``autodiff.*`` counts are read from ``Tape.nodes`` when
  ``Tape.backward`` is entered.
"""
from __future__ import annotations

import functools
import os
import statistics
import time
from array import array
from collections import Counter

import numpy as np

import iml
from iml import anchorstore, autodiff, cli, data, evaluator, losses, model, trainer
from iml.model import BoundParams

LAYERS = ("autodiff", "model", "data", "losses", "trainer", "evaluator", "anchorstore", "cli")
METHODS = ("base", "ft", "dfa", "ida", "eiml", "par")
OBJECTIVE_METHODS = ("ft", "dfa", "ida", "eiml")
PHASES = ("sample", "forward", "backward", "adam", "train_score", "validate")
ROLES = ("student", "teacher", "score")
GRID_CELLS = tuple(f"{w}w{s}s" for w in (5, 10, 20) for s in (1, 5))
CLI_COMMANDS = ("gen-data", "train-base", "train-incr", "train-paragon", "eval", "rounds",
                "report")
# Public ops that the library calls, and the tape node kinds they record.
OPS = ("matmul", "add", "sub", "mul", "scale", "relu", "add_rowvec", "pairwise_sqdist",
       "logsumexp_rows", "softmax_rows", "kl_div_rows", "take_per_row", "class_means",
       "tsum", "tmean")
NODE_KINDS = ("leaf", "matmul", "add", "sub", "mul", "scale", "relu", "add_rowvec",
              "pairwise_sqdist", "logsumexp_rows", "softmax_rows", "kl_div_rows",
              "take_per_row", "class_means", "sum", "mean")
_IML_MODULES = (iml, anchorstore, autodiff, cli, data, evaluator, losses, model, trainer)


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    u: dict[str, str] = {}
    for m in METHODS:
        u[f"autodiff.nodes_per_step.{m}"] = "nodes/step"
    for k in NODE_KINDS:
        u[f"autodiff.op_nodes_per_step.{k}"] = "nodes/step"
    u["autodiff.const_nodes_per_step"] = "nodes/step"
    u["autodiff.tape_bytes_per_step"] = "bytes/step"
    u["autodiff.backward_ms_per_step"] = "ms/step"
    for op in OPS:
        u[f"autodiff.op_fwd_s.{op}"] = "s"
    for r in ROLES:
        u[f"model.embed_calls_per_step.{r}"] = "calls/step"
        u[f"model.embed_rows_per_step.{r}"] = "rows/step"
    u["model.embed_s"] = "s"
    u["model.score_episode_s"] = "s"
    for m in OBJECTIVE_METHODS:
        u[f"losses.objective_ms_per_step.{m}"] = "ms/step"
    for m in METHODS:
        u[f"trainer.steps_per_s.{m}"] = "steps/s"
    for p in PHASES:
        u[f"trainer.phase_s.{p}"] = "s"
    u["trainer.phase_coverage"] = "ratio"
    u["trainer.step_ms.p50"] = "ms"
    u["trainer.step_ms.p99"] = "ms"
    for c in GRID_CELLS:
        u[f"evaluator.episodes_per_s.{c}"] = "episodes/s"
    u["evaluator.phase_s.sample"] = "s"
    u["evaluator.phase_s.score"] = "s"
    u["evaluator.embed_rows_per_episode"] = "rows/episode"
    u["data.sample_episode_s"] = "s"
    u["data.sample_episode_calls"] = "count"
    u["data.load_dataset_s"] = "s"
    u["data.load_dataset_bytes"] = "bytes"
    u["data.save_dataset_s"] = "s"
    u["data.save_dataset_bytes"] = "bytes"
    u["anchorstore.save_snapshot_s"] = "s"
    u["anchorstore.load_snapshot_s"] = "s"
    u["anchorstore.snapshot_bytes"] = "bytes"
    u["anchorstore.extract_anchors_s"] = "s"
    for c in CLI_COMMANDS:
        u[f"cli.cmd_s.{c}"] = "s"
    u["cli.bytes_written"] = "bytes"
    for layer in LAYERS:
        u[f"{layer}.self_s"] = "s"
    u["trace.overhead_ratio"] = "ratio"
    return u


def exact_count_keys(metrics: dict) -> list[str]:
    """The per-layer metrics that are exact counts and must repeat run to run."""
    return sorted(k for k in metrics
                  if k.startswith(("autodiff.nodes_per_step", "autodiff.op_nodes_per_step",
                                   "autodiff.const_nodes", "autodiff.tape_bytes",
                                   "model.embed_calls", "model.embed_rows")))


class Tracer:
    """Span recorder plus the wrappers that feed it; install, run, remove."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.tag = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = [-1]
        self.iter_bounds: list[tuple[int, int]] = []
        self.counts: Counter = Counter()
        self.iter_counts: list[Counter] = []
        self.step_ms: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        # training/evaluation context, saved and restored around each call
        self.train_span = -1
        self.method = ""
        self.teacher = None
        self.in_eval = False
        self.phase = ""
        self.val_episode = None
        self.pending_samples: list[int] = []
        self.step_start: float | None = None
        self.NONE = self.intern("")

    # -- span storage --------------------------------------------------------

    def intern(self, s: str) -> int:
        if s not in self._ids:
            self._ids[s] = len(self.names)
            self.names.append(s)
        return self._ids[s]

    def open(self, nid: int, tid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.tag.append(tid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def begin_iteration(self) -> None:
        self.counts = Counter()
        self.iter_bounds.append((len(self.start), -1))

    def end_iteration(self) -> None:
        lo, _ = self.iter_bounds[-1]
        self.iter_bounds[-1] = (lo, len(self.start))
        self.iter_counts.append(self.counts)

    # -- installation --------------------------------------------------------

    def _patch(self, obj, attr: str, new) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def _patch_aliases(self, original, make) -> None:
        """Replace ``original`` under every name an ``iml`` module binds it to."""
        for mod in _IML_MODULES:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, functools.wraps(original)(make(mod)))

    def install(self) -> None:
        for fn in [getattr(autodiff, op) for op in OPS] + [anchorstore.extract_anchors]:
            self._patch_aliases(fn, lambda mod, fn=fn: self._wrap(fn))
        for fn, path_arg, when in ((data.load_dataset, 0, "before"),
                                   (data.save_dataset, 1, "after"),
                                   (anchorstore.save_snapshot, 1, "after"),
                                   (anchorstore.load_snapshot, 0, None)):
            self._patch_aliases(fn, lambda mod, fn=fn, a=path_arg, w=when: self._wrap_io(fn, a, w))
        self._patch_aliases(model.embed, lambda mod: self._wrap_embed(model.embed, mod))
        self._patch_aliases(model.score_episode, lambda mod: self._wrap_score(
            model.score_episode))
        for fn in (data.sample_episode, data.sample_anchor_subset):
            self._patch_aliases(fn, lambda mod, fn=fn: self._wrap_phase(fn, "sample"))
        self._patch_aliases(losses.meta_xent_loss, lambda mod: self._wrap_meta_xent(
            losses.meta_xent_loss))
        self._patch_aliases(losses.incremental_objective, lambda mod: self._wrap_objective(
            losses.incremental_objective))
        self._patch_aliases(trainer.adam_step, lambda mod: self._wrap_phase(
            trainer.adam_step, "adam"))
        for fn in (trainer.train_base, trainer.train_incremental):
            self._patch_aliases(fn, lambda mod, fn=fn: self._wrap_training(fn))
        for fn in (trainer.train_paragon, trainer.run_rounds, evaluator.cross_way_shot):
            self._patch_aliases(fn, lambda mod, fn=fn: self._wrap(fn))
        self._patch_aliases(evaluator.evaluate, lambda mod: self._wrap_evaluate(
            evaluator.evaluate))
        self._patch_aliases(cli.cmd_dispatch, lambda mod: self._wrap_dispatch(cli.cmd_dispatch))
        self._patch(autodiff.Tape, "backward", self._wrap_backward(autodiff.Tape.backward))

    def remove(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    # -- wrappers ------------------------------------------------------------

    def _label(self, fn) -> int:
        """Span name ``<layer>.<function>``; the layer is the defining module."""
        return self.intern(f"{fn.__module__.split('.')[-1]}.{fn.__name__}")

    def _wrap(self, fn):
        nid, none = self._label(fn), self.NONE

        def traced(*args, **kwargs):
            i = self.open(nid, none)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)

        return traced

    def _wrap_io(self, fn, path_arg: int, when: str | None):
        """A file read or write; counts the file's bytes before or after the call."""
        nid, none, key = self._label(fn), self.NONE, f"bytes.{fn.__name__}"

        def traced(*args, **kwargs):
            if when == "before":
                self.counts[key] += os.path.getsize(args[path_arg])
            i = self.open(nid, none)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)
                if when == "after":
                    self.counts[key] += os.path.getsize(args[path_arg])

        return traced

    def _trainer_child(self) -> bool:
        return self.stack[-1] == self.train_span and self.train_span >= 0

    def _enter_phase(self, phase: str) -> int:
        """Tag for a direct child of a training call; settles pending samples."""
        if phase == "sample":
            return self.intern("phase:sample")
        if phase == "validate":
            tid = self.intern("phase:validate")
            for j in self.pending_samples:
                self.tag[j] = tid
            self.step_start = None
        self.pending_samples = []
        self.phase = phase
        return self.intern(f"phase:{phase}")

    def _wrap_phase(self, fn, phase: str):
        nid = self._label(fn)
        is_sample = phase == "sample"

        def traced(*args, **kwargs):
            tid = self.NONE
            if self._trainer_child():
                tid = self._enter_phase(phase)
                if is_sample and self.step_start is None:
                    self.step_start = time.perf_counter()
            i = self.open(nid, tid)
            if is_sample and tid != self.NONE:
                self.pending_samples.append(i)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)

        return traced

    def _wrap_meta_xent(self, fn):
        nid = self.intern("losses.meta_xent_loss")

        def traced(params, episode, *args, **kwargs):
            tid = self.NONE
            if self._trainer_child():
                if isinstance(params, BoundParams):
                    tid = self._enter_phase("forward")
                else:
                    tid = self._enter_phase("validate")
                    self.val_episode = episode
            i = self.open(nid, tid)
            try:
                return fn(params, episode, *args, **kwargs)
            finally:
                self.close(i)

        return traced

    def _wrap_objective(self, fn):
        nid = self.intern("losses.incremental_objective")

        def traced(*args, **kwargs):
            tid = self._enter_phase("forward") if self._trainer_child() else self.NONE
            i = self.open(nid, tid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)

        return traced

    def _wrap_score(self, fn):
        nid = self.intern("model.score_episode")

        def traced(params, episode, *args, **kwargs):
            tid = self.NONE
            train_score = False
            if self._trainer_child():
                if episode is self.val_episode:
                    tid = self._enter_phase("validate")
                else:
                    tid = self._enter_phase("train_score")
                    train_score = True
            i = self.open(nid, tid)
            try:
                return fn(params, episode, *args, **kwargs)
            finally:
                self.close(i)
                if train_score and self.step_start is not None:
                    self.step_ms.append(1e3 * (self.end[i] - self.step_start))
                    self.step_start = None

        return traced

    def _wrap_embed(self, fn, mod):
        nid = self.intern("model.embed")
        via_losses = mod is losses
        via_model = mod is model

        def traced(params, x, *args, **kwargs):
            role = None
            if via_losses and self.phase == "forward" and not self.in_eval:
                if isinstance(params, BoundParams):
                    role = "student"
                elif self.teacher is not None and params is self.teacher:
                    role = "teacher"
            elif via_model and (self.phase == "train_score" or self.in_eval):
                role = "score"
            if role is not None:
                rows = x.shape[0]
                where = "eval" if self.in_eval else "step"
                self.counts[f"embed_calls.{where}.{role}"] += 1
                self.counts[f"embed_rows.{where}.{role}"] += rows
            i = self.open(nid, self.intern(f"role:{role}") if role else self.NONE)
            try:
                return fn(params, x, *args, **kwargs)
            finally:
                self.close(i)

        return traced

    def _wrap_training(self, fn):
        nid = self.intern(f"trainer.{fn.__name__}")
        incremental = fn.__name__ == "train_incremental"

        def traced(*args, **kwargs):
            if incremental:
                method = losses.MethodKind(args[3] if len(args) > 3 else kwargs["method"]).value
                teacher = args[0].params
            else:
                method = args[3] if len(args) > 3 else kwargs.get("method_tag", "base")
                teacher = None
            saved = (self.train_span, self.method, self.teacher, self.phase,
                     self.pending_samples, self.step_start)
            i = self.open(nid, self.intern(f"method:{method}"))
            self.train_span, self.method, self.teacher = i, method, teacher
            self.phase, self.pending_samples, self.step_start = "", [], None
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)
                (self.train_span, self.method, self.teacher, self.phase,
                 self.pending_samples, self.step_start) = saved

        return traced

    def _wrap_backward(self, fn):
        nid = self.intern("autodiff.backward")

        def traced(tape, loss, params):
            tid = self.NONE
            if self._trainer_child():
                tid = self._enter_phase("backward")
                c, nodes = self.counts, tape.nodes
                c[f"steps.{self.method}"] += 1
                c[f"nodes.{self.method}"] += len(nodes)
                for node in nodes:
                    c[f"node.{node.op}"] += 1
                    c["tape_bytes"] += node.value.nbytes
            i = self.open(nid, tid)
            try:
                return fn(tape, loss, params)
            finally:
                self.close(i)

        return traced

    def _wrap_evaluate(self, fn):
        nid = self.intern("evaluator.evaluate")

        def traced(snapshot, dataset, spec, n_episodes, *args, **kwargs):
            cell = f"{spec.ways}w{spec.shots}s"
            self.counts[f"episodes.{cell}"] += n_episodes
            saved = self.in_eval
            self.in_eval = True
            i = self.open(nid, self.intern(f"cell:{cell}"))
            try:
                return fn(snapshot, dataset, spec, n_episodes, *args, **kwargs)
            finally:
                self.close(i)
                self.in_eval = saved

        return traced

    def _wrap_dispatch(self, fn):
        def traced(argv):
            i = self.open(self.intern(f"cli.{argv[0]}"), self.NONE)
            try:
                return fn(argv)
            finally:
                self.close(i)

        return traced

    # -- metrics -------------------------------------------------------------

    def metrics(self, traced_walls: list[float], untraced_walls: list[float],
                bytes_written: int) -> dict[str, float]:
        """Every per-layer metric; times are per traced iteration."""
        n_it = max(1, len(self.iter_bounds))
        name = np.frombuffer(self.name, dtype=np.int32)
        tag = np.frombuffer(self.tag, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_t = dur - child

        def tagged(t: str):
            return tag == self._ids.get(t, -1)

        def where(n: str, t: str | None = None):
            mask = name == self._ids.get(n, -1)
            return mask if t is None else mask & tagged(t)

        def total(mask, of=dur) -> float:
            return float(of[mask].sum())

        c = self.iter_counts[0] if self.iter_counts else Counter()
        steps = sum(c[f"steps.{m}"] for m in METHODS)
        per_step = (lambda v: v / steps) if steps else (lambda v: 0.0)
        out: dict[str, float] = {}

        for m in METHODS:
            k = c[f"steps.{m}"]
            out[f"autodiff.nodes_per_step.{m}"] = c[f"nodes.{m}"] / k if k else 0.0
        for kind in NODE_KINDS:
            out[f"autodiff.op_nodes_per_step.{kind}"] = per_step(c[f"node.{kind}"])
        out["autodiff.const_nodes_per_step"] = per_step(c["node.const"])
        out["autodiff.tape_bytes_per_step"] = per_step(c["tape_bytes"])
        backward = where("autodiff.backward", "phase:backward")
        all_steps = sum(sum(ic[f"steps.{m}"] for m in METHODS) for ic in self.iter_counts)
        out["autodiff.backward_ms_per_step"] = (
            1e3 * total(backward) / all_steps if all_steps else 0.0)
        for op in OPS:
            out[f"autodiff.op_fwd_s.{op}"] = total(where(f"autodiff.{op}"), self_t) / n_it

        for r in ROLES:
            out[f"model.embed_calls_per_step.{r}"] = per_step(c[f"embed_calls.step.{r}"])
            out[f"model.embed_rows_per_step.{r}"] = per_step(c[f"embed_rows.step.{r}"])
        out["model.embed_s"] = total(where("model.embed")) / n_it
        out["model.score_episode_s"] = total(where("model.score_episode")) / n_it

        # objective time without the embed calls beneath it (at most two levels down)
        objective = where("losses.incremental_objective")
        embeds = np.flatnonzero(where("model.embed"))

        def up(ix):
            return np.where(ix >= 0, parent[np.maximum(ix, 0)], -1)

        def is_objective(ix):
            return (ix >= 0) & objective[np.maximum(ix, 0)]

        p1 = up(embeds)
        p2 = up(p1)
        owner = np.where(is_objective(p1), p1, np.where(is_objective(p2), p2, -1))
        for m in OBJECTIVE_METHODS:
            k = sum(ic[f"steps.{m}"] for ic in self.iter_counts)
            objs = np.flatnonzero(objective)
            objs = objs[tag[parent[objs]] == self._ids.get(f"method:{m}", -1)]
            t = float(dur[objs].sum() - dur[embeds[np.isin(owner, objs)]].sum())
            out[f"losses.objective_ms_per_step.{m}"] = 1e3 * t / k if k else 0.0

        training = where("trainer.train_base") | where("trainer.train_incremental")
        for m in METHODS:
            k = sum(ic[f"steps.{m}"] for ic in self.iter_counts)
            t = total(training & tagged(f"method:{m}"))
            out[f"trainer.steps_per_s.{m}"] = k / t if t else 0.0
        phase_total = 0.0
        for p in PHASES:
            t = total(tagged(f"phase:{p}"))
            phase_total += t
            out[f"trainer.phase_s.{p}"] = t / n_it
        train_t = total(training)
        out["trainer.phase_coverage"] = phase_total / train_t if train_t else 0.0
        if self.step_ms:
            q = statistics.quantiles(self.step_ms, n=100, method="inclusive")
            out["trainer.step_ms.p50"], out["trainer.step_ms.p99"] = q[49], q[98]
        else:
            out["trainer.step_ms.p50"] = out["trainer.step_ms.p99"] = 0.0

        evals = where("evaluator.evaluate")
        episodes = 0
        for cell in GRID_CELLS:
            k = sum(ic[f"episodes.{cell}"] for ic in self.iter_counts)
            episodes += k
            t = total(evals & (tagged(f"cell:{cell}")))
            out[f"evaluator.episodes_per_s.{cell}"] = k / t if t else 0.0
        in_eval = np.zeros(dur.size, dtype=bool)
        in_eval[has_parent] = evals[parent[has_parent]]
        out["evaluator.phase_s.sample"] = total(in_eval & where("data.sample_episode")) / n_it
        out["evaluator.phase_s.score"] = total(in_eval & where("model.score_episode")) / n_it
        eval_rows = sum(ic["embed_rows.eval.score"] for ic in self.iter_counts)
        out["evaluator.embed_rows_per_episode"] = eval_rows / episodes if episodes else 0.0

        out["data.sample_episode_s"] = total(where("data.sample_episode")) / n_it
        out["data.sample_episode_calls"] = float(where("data.sample_episode").sum()) / n_it
        for fn in ("load_dataset", "save_dataset"):
            out[f"data.{fn}_s"] = total(where(f"data.{fn}")) / n_it
            out[f"data.{fn}_bytes"] = float(c[f"bytes.{fn}"])
        for fn in ("save_snapshot", "load_snapshot", "extract_anchors"):
            out[f"anchorstore.{fn}_s"] = total(where(f"anchorstore.{fn}")) / n_it
        out["anchorstore.snapshot_bytes"] = float(c["bytes.save_snapshot"])
        for cmd in CLI_COMMANDS:
            out[f"cli.cmd_s.{cmd}"] = total(where(f"cli.{cmd}")) / n_it
        out["cli.bytes_written"] = float(bytes_written)

        layer_of = np.asarray([n.split(".")[0] for n in self.names], dtype=object)
        for layer in LAYERS:
            ids = np.flatnonzero(layer_of == layer)
            out[f"{layer}.self_s"] = total(np.isin(name, ids), self_t) / n_it
        out["trace.overhead_ratio"] = (
            statistics.median(traced_walls) / statistics.median(untraced_walls)
            if traced_walls and untraced_walls else 0.0)
        return out

    def save(self, path, env: dict) -> None:
        """Write every span, its iteration bounds and the environment (npz)."""
        np.savez_compressed(
            path,
            names=np.asarray(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            tag=np.frombuffer(self.tag, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            iter_bounds=np.asarray(self.iter_bounds, dtype=np.int64).reshape(-1, 2),
            env=np.asarray(repr(env)),
        )
