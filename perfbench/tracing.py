"""Per-layer tracing from outside the package.

``install`` swaps scenkit's public callables for wrappers that record a
span (name, start, end, parent) or bump a count, and ``uninstall`` puts
the originals back. Module-level functions are replaced wherever a
scenkit module holds a reference to them (``from .formulas import
evaluate3`` copies the name), methods on their class. A layer's time is
its self time: a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import gc
import sys
from array import array

#: Self-time metrics (seconds) and the span each one sums.
TIME_METRICS = {
    "dynamics.evaluate_s": "dynamics.evaluate",
    "logical.sample_s": "logical.sample",
    "logical.invert_s": "logical.invert",
    "formulas.evaluate3_s": "formulas.evaluate3",
    "logic.enumerate_s": "logic.enumerate_scenarios",
    "logic.sample_abstract_s": "logic.sample_abstract",
    "monitoring.word_s": "monitoring.word",
    "monitoring.prefix_s": "monitoring.prefix",
    "monitoring.stream_step_s": "monitoring.stream_step",
    "rural.synthesize_s": "rural.synthesize",
    "traceio.write_s": "traceio.write_trace",
    "traceio.read_s": "traceio.read_trace",
    "dsl.load_s": "dsl.load",
    "cli.self_s": "cli.main",
}

COUNT_METRICS = (
    "core.scenes_built",
    "core.schema_index_calls",
    "core.trajectories_built",
    "dynamics.evolve_calls",
    "dynamics.grid_points",
    "logical.realize_calls",
    "formulas.evaluate3_calls",
    "formulas.nodes_visited",
    "logic.successors_calls",
    "logic.successor_scenes",
    "monitoring.prefix_calls",
    "monitoring.allows_calls",
    "traceio.rows_written",
    "traceio.rows_read",
    "dsl.load_calls",
)


class Tracer:
    """Spans of one round, kept in flat arrays, plus counts. ``now`` is
    the time function spans read."""

    def __init__(self, now):
        self.now = now
        self.span_names: list[str] = []
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.reset()

    def reset(self) -> None:
        """Start a new round: drop the spans, zero the counts in place."""
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        for key in self.counts:
            self.counts[key] = 0
        self.in_evaluate3 = False

    def name_id(self, name: str) -> int:
        if name not in self.span_names:
            self.span_names.append(name)
        return self.span_names.index(name)

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(self.now())
        return i

    def close(self, i: int) -> None:
        self.end[i] = self.now()
        self.stack.pop()

    def self_times(self) -> dict[str, float]:
        n = len(self.name)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out = dict.fromkeys(self.span_names, 0.0)
        for i in range(n):
            out[self.span_names[self.name[i]]] += self.end[i] - self.start[i] - covered[i]
        return out

    def metrics(self) -> dict[str, float]:
        """This round's per-layer metrics."""
        spans = self.self_times()
        out = {metric: spans.get(span, 0.0) for metric, span in TIME_METRICS.items()}
        out.update(self.counts)
        return out


def _spanned(tr: Tracer, name: str, fn, before=None, after=None):
    nid = tr.name_id(name)

    def wrapper(*args, **kwargs):
        if before is not None:
            before(*args, **kwargs)
        i = tr.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.close(i)
        if after is not None:
            after(result)
        return result

    return wrapper


def _counted(tr: Tracer, key: str, fn):
    counts = tr.counts

    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def _add(tr: Tracer, key: str, amount) -> None:
    tr.counts[key] += amount


def install(tr: Tracer, sk) -> list:
    """Wrap the traced callables; returns the undo list for ``uninstall``."""
    undo: list = []
    modules = [m for n, m in sys.modules.items() if n == "scenkit" or n.startswith("scenkit.")]

    def patch(owner, attr, new):
        undo.append((setattr, owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def replace(orig, new):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    patch(mod, attr, new)

    def span(mod, attr, name, **hooks):
        replace(getattr(mod, attr), _spanned(tr, name, getattr(mod, attr), **hooks))

    def count(owner, attr, key):
        orig = owner.__dict__[attr]
        wrapped = _counted(tr, key, orig)
        if isinstance(owner, type):
            patch(owner, attr, wrapped)
        else:
            replace(orig, wrapped)

    core, logic, mon = sk.core, sk.logic, sk.monitoring
    count(core.Scene, "__post_init__", "core.scenes_built")
    count(core.Trajectory, "__post_init__", "core.trajectories_built")
    count(core.SceneSchema, "index", "core.schema_index_calls")
    count(sk.dynamics.DeterministicModel, "evolve", "dynamics.evolve_calls")
    span(sk.dynamics, "evaluate", "dynamics.evaluate",
         before=lambda scenario, *a, **k: _add(tr, "dynamics.grid_points", scenario.grid.count))
    span(sk.logical, "sample", "logical.sample")
    span(sk.logical, "invert", "logical.invert")
    count(sk.logical, "realize", "logical.realize_calls")
    span(logic, "enumerate_scenarios", "logic.enumerate_scenarios")
    span(logic, "sample_abstract", "logic.sample_abstract")
    span(mon, "monitor_word", "monitoring.word")
    span(mon, "monitor_word_report", "monitoring.word")
    span(mon, "monitor_prefix", "monitoring.prefix",
         before=lambda *a, **k: _add(tr, "monitoring.prefix_calls", 1))
    patch(mon.StreamMonitor, "step",
          _spanned(tr, "monitoring.stream_step", mon.StreamMonitor.__dict__["step"]))
    count(logic.ScenarioLogicInstance, "allows_step", "monitoring.allows_calls")
    span(sk.rural, "synthesize", "rural.synthesize")
    span(sk.traceio, "write_trace", "traceio.write_trace",
         before=lambda traj, *a, **k: _add(tr, "traceio.rows_written", len(traj.samples)))
    span(sk.traceio, "read_trace", "traceio.read_trace",
         after=lambda traj: _add(tr, "traceio.rows_read", len(traj.samples)))
    span(sk.dsl, "parse", "dsl.load", before=lambda *a, **k: _add(tr, "dsl.load_calls", 1))
    span(sk.dsl, "resolve", "dsl.load")
    span(sk.dsl, "load", "dsl.load")
    span(sk.cli, "main", "cli.main")
    replace(sk.formulas.evaluate3, _traced_evaluate3(tr, sk.formulas.evaluate3))
    _count_successors(tr, logic.ScenarioLogicInstance, patch, undo)
    return undo


def _traced_evaluate3(tr: Tracer, orig):
    """Every visit is counted; only the outermost call opens a span."""
    nid = tr.name_id("formulas.evaluate3")
    counts = tr.counts

    def evaluate3(*args, **kwargs):
        counts["formulas.nodes_visited"] += 1
        if tr.in_evaluate3:
            return orig(*args, **kwargs)
        counts["formulas.evaluate3_calls"] += 1
        tr.in_evaluate3 = True
        i = tr.open(nid)
        try:
            return orig(*args, **kwargs)
        finally:
            tr.close(i)
            tr.in_evaluate3 = False

    return evaluate3


def _count_successors(tr: Tracer, cls, patch, undo: list) -> None:
    """Successor relations are per-instance callables: wrap those of every
    live instance now, and of every instance built while tracing."""
    counts = tr.counts

    def wrap(inst):
        fn = inst.successors
        if getattr(fn, "_perfbench_counted", False):
            return

        def successors(samples):
            out = fn(samples)
            counts["logic.successors_calls"] += 1
            counts["logic.successor_scenes"] += len(out)
            return out

        successors._perfbench_counted = True
        object.__setattr__(inst, "successors", successors)
        undo.append((object.__setattr__, inst, "successors", fn))

    orig_post_init = cls.__dict__["__post_init__"]

    def post_init(self):
        orig_post_init(self)
        wrap(self)

    patch(cls, "__post_init__", post_init)
    for obj in gc.get_objects():
        if type(obj) is cls:
            wrap(obj)


def uninstall(undo: list) -> None:
    for setter, owner, attr, orig in reversed(undo):
        setter(owner, attr, orig)
