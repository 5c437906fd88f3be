"""Span tracer that times calls into dirichlet_lab from outside the package.

The tracer wraps functions and methods in place and rebinds every module
attribute that refers to the original, so `from .lattice import
has_nonzero_point` in another module is traced too.  Nothing under `src/`
changes.

Each thread keeps its own span stack and its own statistics, so the hot
path takes no lock; `stats()` merges them at the end.  A span's self time
is its duration minus the time covered by its child spans.  Leaf counters
(`Box.contains`, `PsiFunction.psi`) create no span: they add one to the
innermost open span, and a closing span hands its counts to its parent, so
every span also knows the inclusive counts of its subtree.

A target whose module, class or attribute does not exist is skipped and
listed in `missing`; metrics built on it are reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
from pathlib import Path
from time import perf_counter


class Stat:
    """Aggregate of every span and call recorded under one name."""

    __slots__ = ("calls", "self_s", "total_s", "counts", "leaf")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.counts = {}  # stats set by result hooks
        self.leaf = {}  # leaf counts inside the spans, subtree included

    def add(self, key, value=1):
        self.counts[key] = self.counts.get(key, 0) + value

    def merge(self, other: "Stat"):
        self.calls += other.calls
        self.self_s += other.self_s
        self.total_s += other.total_s
        for mine, theirs in ((self.counts, other.counts), (self.leaf, other.leaf)):
            for key, value in theirs.items():
                mine[key] = mine.get(key, 0) + value


class _Span:
    __slots__ = ("name", "t0", "child_s", "own", "inner")

    def __init__(self, name):
        self.name = name
        self.child_s = 0.0
        self.own = None  # leaf counts made while this span was innermost
        self.inner = None  # inclusive leaf counts of closed child spans
        self.t0 = perf_counter()

    def inclusive(self) -> dict:
        out = dict(self.own or ())
        for key, value in (self.inner or {}).items():
            out[key] = out.get(key, 0) + value
        return out


class Tracer:
    def __init__(self, package: str = "dirichlet_lab"):
        self.package = package
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread = []  # one stats dict per thread that recorded anything
        self._restore = []  # (owner, attribute, original) to undo install()
        self.missing = set()

    # -- per-thread state ------------------------------------------------------

    def _state(self):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            local.stack = stack = []
            local.stats = {}
            with self._lock:
                self._per_thread.append(local.stats)
        return stack, local.stats

    def _stat(self, stats, name) -> Stat:
        stat = stats.get(name)
        if stat is None:
            stats[name] = stat = Stat()
        return stat

    def open(self, name) -> _Span:
        stack, _ = self._state()
        span = _Span(name)
        stack.append(span)
        return span

    def close(self, span: _Span, count_call: bool = True) -> Stat:
        now = perf_counter()
        stack, stats = self._state()
        top = stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span.name!r} closed while {top.name!r} is open")
        duration = now - span.t0
        stat = self._stat(stats, span.name)
        stat.self_s += duration - span.child_s
        stat.total_s += duration
        if count_call:
            stat.calls += 1
        counts = span.inclusive()
        for key, value in counts.items():
            stat.leaf[key] = stat.leaf.get(key, 0) + value
        if stack:
            parent = stack[-1]
            parent.child_s += duration
            if counts:
                if parent.inner is None:
                    parent.inner = {}
                for key, value in counts.items():
                    parent.inner[key] = parent.inner.get(key, 0) + value
        else:
            thread_leaf = self._stat(stats, "").leaf
            for key, value in counts.items():
                thread_leaf[key] = thread_leaf.get(key, 0) + value
        return stat

    def count(self, key, value=1):
        """Leaf count on the innermost open span, or on the thread when none is open.

        The stat named "" holds a thread's whole-run leaf counts: those made
        outside any span plus the inclusive counts of its root spans.
        """
        stack, stats = self._state()
        if stack:
            top = stack[-1]
            if top.own is None:
                top.own = {}
            top.own[key] = top.own.get(key, 0) + value
        else:
            leaf = self._stat(stats, "").leaf
            leaf[key] = leaf.get(key, 0) + value

    def current(self):
        """Name of the innermost open span of this thread, or None."""
        stack, _ = self._state()
        return stack[-1].name if stack else None

    def stats(self) -> dict:
        merged = {}
        with self._lock:
            for stats in self._per_thread:
                for name, stat in stats.items():
                    merged.setdefault(name, Stat()).merge(stat)
        return merged

    # -- wrappers ----------------------------------------------------------------

    def span_wrapper(self, fn, name, on_result=None):
        """Every call becomes a span; on_result(stat, result, span, args) adds stats."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                stat = tracer.close(span)
            if on_result is not None:
                on_result(stat, result, span, args)
            return result

        return traced

    def generator_wrapper(self, fn, name, yield_key=None):
        """Generator function: one call per generator, one span per resumption.

        Yields are counted on the generator's stat and, under yield_key, as
        a leaf count on the consumer's span.
        """
        tracer = self

        def drive(gen):
            while True:
                span = tracer.open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    tracer.close(span, count_call=False)
                    return
                except BaseException:
                    tracer.close(span, count_call=False)
                    raise
                stat = tracer.close(span, count_call=False)
                stat.add("yields")
                if yield_key is not None:
                    tracer.count(yield_key)
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            _, stats = tracer._state()
            tracer._stat(stats, name).calls += 1
            return drive(fn(*args, **kwargs))

        return traced

    def counter_wrapper(self, fn, key):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.count(key)
            return fn(*args, **kwargs)

        return counted

    def pool_wrapper(self, fn, name):
        """indexed_map(fn, count, threads): a span on the calling thread, and busy time.

        Each task runs in a span named after the caller's innermost span, so
        work done in the tasks stays with the layer that asked for it, on
        whichever thread runs it; the pool's own span keeps only the time
        the caller spent waiting for the workers.
        """
        tracer = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(task, *args, **kwargs):
            caller = tracer.current()
            busy = []

            def timed(*task_args):
                t0 = perf_counter()
                span = tracer.open(caller) if caller is not None else None
                try:
                    return task(*task_args)
                finally:
                    if span is not None:
                        tracer.close(span, count_call=False)
                    busy.append(perf_counter() - t0)

            bound = signature.bind(task, *args, **kwargs)
            bound.apply_defaults()
            count = bound.arguments.get("count", 1)
            threads = bound.arguments.get("threads", 1)
            workers = 1 if threads == 1 or count <= 1 else min(threads, count)
            span = tracer.open(name)
            try:
                return fn(timed, *args, **kwargs)
            finally:
                stat = tracer.close(span)
                stat.add("busy_s", sum(busy))
                stat.add("capacity_s", (perf_counter() - span.t0) * workers)

        return traced

    # -- installation ------------------------------------------------------------

    def install(self, targets):
        """Wrap every target: (module, attribute path, kind, name, option).

        kind is "span", "generator", "counter" or "pool"; option is the
        result hook, the yield key or the leaf count key.  Every target
        module is imported before any wrapping, so that rebinding sees
        every module that imported a name.
        """
        modules = {}
        for module_name in dict.fromkeys(t[0] for t in targets):
            try:
                modules[module_name] = importlib.import_module(f"{self.package}.{module_name}")
            except ImportError:
                pass
        for module_name, path, kind, name, option in targets:
            *owner_path, attr = path.split(".")
            owner = modules.get(module_name)
            for part in owner_path:
                owner = getattr(owner, part, None)
            if owner is None or attr not in vars(owner):
                self.missing.add(name)
                continue
            original = vars(owner)[attr]
            if kind == "span":
                wrapped = self.span_wrapper(original, name, option)
            elif kind == "generator":
                wrapped = self.generator_wrapper(original, name, option)
            elif kind == "counter":
                wrapped = self.counter_wrapper(original, option)
            elif kind == "pool":
                wrapped = self.pool_wrapper(original, name)
            else:
                raise ValueError(f"unknown target kind {kind!r}")
            if owner_path:
                self._rebind(owner, attr, original, wrapped)
                continue
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] == self.package:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, key, original, wrapped)

    def _rebind(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, original))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


# -- dirichlet_lab targets and the per-layer metrics built on them ---------------


def _true(stat, result, span, args):
    stat.add("true", bool(result))


def _points(stat, result, span, args):
    stat.add("points", len(result))


def _witness(stat, result, span, args):
    stat.add("true", bool(result))
    if not (span.own or {}).get("box_points"):
        stat.add("prefiltered")


def _scan(stat, result, span, args):
    stat.add("records", len(result.records))
    stat.add("boundary_points", len(result.boundary_points))


def _file_bytes(stat, result, span, args):
    stat.add("bytes_written", Path(result).stat().st_size)


def _manifest_bytes(stat, result, span, args):
    stat.add("bytes_written", (Path(args[0]) / "manifest.json").stat().st_size)


TARGETS = [
    ("cli", "cli_main", "span", "cli", None),
    ("lattice", "lll_reduce", "span", "lattice.lll_reduce", None),
    ("lattice", "has_nonzero_point", "span", "lattice.has_nonzero_point", _true),
    ("lattice", "enumerate_in_box", "span", "lattice.enumerate_in_box", _points),
    ("lattice", "shortest_sup_norm", "span", "lattice.shortest_sup_norm", None),
    ("lattice", "_enumerate_ball", "generator", "lattice._enumerate_ball", "candidates"),
    ("lattice", "Box.contains", "counter", "lattice.Box.contains", "Box.contains"),
    ("targets", "in_target", "span", "targets.in_target", _true),
    ("targets", "thickened_witness_intervals", "span", "targets.thickened_witness_intervals", None),
    ("targets", "merge_intervals", "span", "targets.intervals", None),
    ("targets", "complement_within", "span", "targets.intervals", None),
    ("targets", "intersect_intervals", "span", "targets.intervals", None),
    ("exact2d", "Exact2D.delta_flowed", "span", "exact2d.Exact2D.delta_flowed", None),
    ("exact2d", "Exact2D.slab_points", "span", "exact2d.Exact2D.slab_points", None),
    ("exact2d", "Exact2D._reduced", "span", "exact2d.Exact2D._reduced", None),
    ("exact2d", "Exact2D._iter_box_points", "generator", "exact2d.Exact2D._iter_box_points", None),
    ("exact2d", "Exact2D._box_points", "counter", "exact2d.Exact2D._box_points", "box_points"),
    ("exact2d", "Exact2D.witness_intervals", "span", "exact2d.Exact2D.witness_intervals", _witness),
    ("exact2d", "Exact2D.any_point_in_box", "span", "exact2d.Exact2D.any_point_in_box", None),
    ("exact2d", "_merge", "span", "exact2d.intervals", None),
    ("exact2d", "_complement", "span", "exact2d.intervals", None),
    ("exact2d", "_intersect", "span", "exact2d.intervals", None),
    ("dirichlet", "psi_dirichlet_scan", "span", "dirichlet.psi_dirichlet_scan", _scan),
    ("dirichlet", "_records_dense", "span", "dirichlet._records_dense", None),
    ("dirichlet", "_records_walk", "span", "dirichlet._records_walk", None),
    ("dirichlet", "_q_box_records", "span", "dirichlet._q_box_records", None),
    ("dirichlet", "psi_inverse", "span", "dirichlet.psi_inverse", None),
    ("dirichlet", "_sweep", "span", "dirichlet._sweep", None),
    ("approx", "PsiFunction.psi", "counter", "approx.PsiFunction.psi", "PsiFunction.psi"),
    ("cf", "cf_uncovered_intervals", "span", "cf.cf_uncovered_intervals", None),
    ("rate", "dani_rate", "span", "rate.dani_rate", None),
    ("rng", "substream", "span", "rng.substream", None),
    ("rng", "sample_torus_fixedpoint", "span", "rng.sample_torus_fixedpoint", None),
    ("mc", "measure_profile", "span", "mc.measure_profile", None),
    ("experiments", "orbit_hit_series", "span", "experiments.orbit_hit_series", None),
    ("parallel", "indexed_map", "pool", "parallel.indexed_map", None),
    ("reports", "write_csv", "span", "reports", _file_bytes),
    ("reports", "write_json", "span", "reports", _file_bytes),
    ("reports", "write_plot_data", "span", "reports", _file_bytes),
    ("reports", "write_run_manifest", "span", "reports", _manifest_bytes),
]


def _ratio(num, den):
    return num / den if den else 0.0


def _row(span, stat, unit, value, *needs):
    """A metric row; it is absent when its span or any of `needs` was not traced."""
    return span, stat, unit, value, ((span,) if span else ()) + needs


def _timed(span):
    return [
        _row(span, "calls", "count", lambda s: s.calls),
        _row(span, "self_s", "s", lambda s: s.self_s),
    ]


def _self(span):
    return _row(span, "self_s", "s", lambda s: s.self_s)


def _counted(span, stat, key, unit="count"):
    return _row(span, stat, unit, lambda s: s.counts.get(key, 0))


def _share(span, stat, key):
    return _row(span, stat, "fraction", lambda s: _ratio(s.counts.get(key, 0), s.calls))


# Rows are (span name, stat, unit, value from the span's Stat, names it needs);
# the metric is "<span name>.<stat>".  Rows with span "" read the whole-run
# leaf counts.
LAYER_METRICS = [
    *_timed("lattice.lll_reduce"),
    *_timed("lattice.has_nonzero_point"),
    _share("lattice.has_nonzero_point", "true_fraction", "true"),
    _row(
        "lattice.has_nonzero_point", "candidates_per_call", "count",
        lambda s: _ratio(s.leaf.get("candidates", 0), s.calls), "lattice._enumerate_ball",
    ),
    *_timed("lattice.enumerate_in_box"),
    _counted("lattice.enumerate_in_box", "points", "points"),
    _row(
        "lattice.enumerate_in_box", "accept_ratio", "ratio",
        lambda s: _ratio(s.counts.get("points", 0), s.leaf.get("Box.contains", 0)),
        "lattice.Box.contains",
    ),
    *_timed("lattice.shortest_sup_norm"),
    _self("lattice._enumerate_ball"),
    _row(
        "", "lattice.Box.contains.calls", "count",
        lambda s: s.leaf.get("Box.contains", 0), "lattice.Box.contains",
    ),
    *_timed("targets.in_target"),
    _share("targets.in_target", "true_fraction", "true"),
    *_timed("targets.thickened_witness_intervals"),
    _self("targets.intervals"),
    *_timed("exact2d.Exact2D.delta_flowed"),
    *_timed("exact2d.Exact2D.slab_points"),
    *_timed("exact2d.Exact2D._reduced"),
    *_timed("exact2d.Exact2D._iter_box_points"),
    _counted("exact2d.Exact2D._iter_box_points", "points", "yields"),
    *_timed("exact2d.Exact2D.witness_intervals"),
    _row(
        "exact2d.Exact2D.witness_intervals", "prefiltered_fraction", "fraction",
        lambda s: _ratio(s.counts.get("prefiltered", 0), s.calls), "exact2d.Exact2D._box_points",
    ),
    _share("exact2d.Exact2D.witness_intervals", "true_fraction", "true"),
    *_timed("exact2d.Exact2D.any_point_in_box"),
    _self("exact2d.intervals"),
    *_timed("dirichlet.psi_dirichlet_scan"),
    _counted("dirichlet.psi_dirichlet_scan", "records", "records"),
    _counted("dirichlet.psi_dirichlet_scan", "boundary_points", "boundary_points"),
    *_timed("dirichlet._records_dense"),
    *_timed("dirichlet._records_walk"),
    *_timed("dirichlet._q_box_records"),
    *_timed("dirichlet.psi_inverse"),
    _row(
        "dirichlet.psi_inverse", "psi_evals", "count",
        lambda s: s.leaf.get("PsiFunction.psi", 0), "approx.PsiFunction.psi",
    ),
    _self("dirichlet._sweep"),
    _row(
        "", "approx.PsiFunction.psi.calls", "count",
        lambda s: s.leaf.get("PsiFunction.psi", 0), "approx.PsiFunction.psi",
    ),
    *_timed("cf.cf_uncovered_intervals"),
    *_timed("rate.dani_rate"),
    *_timed("rng.substream"),
    _self("rng.sample_torus_fixedpoint"),
    _self("mc.measure_profile"),
    *_timed("experiments.orbit_hit_series"),
    _row("parallel.indexed_map", "total_s", "s", lambda s: s.total_s),
    _row(
        "parallel.indexed_map", "worker_busy_fraction", "fraction",
        lambda s: _ratio(s.counts.get("busy_s", 0.0), s.counts.get("capacity_s", 0.0)),
    ),
    _self("reports"),
    _counted("reports", "bytes_written", "bytes_written", unit="bytes"),
    _self("cli"),
]

# traced time over untraced time of the same batches, minus 1; set by the worker
OVERHEAD = "trace.overhead"


def metric_name(span, stat):
    return f"{span}.{stat}" if span else stat


def metric_units() -> dict:
    """Metric name -> unit of every per-layer metric, in report order."""
    units = {metric_name(span, stat): unit for span, stat, unit, _, _ in LAYER_METRICS}
    units[OVERHEAD] = "ratio"
    return units


def layer_metrics(tracer: Tracer):
    """(metrics, absent): metric name -> {"value", "unit"}, and names not measurable here."""
    stats = tracer.stats()
    metrics, absent = {}, []
    for span, stat, unit, value, needs in LAYER_METRICS:
        name = metric_name(span, stat)
        if tracer.missing.intersection(needs):
            absent.append(name)
        else:
            metrics[name] = {"value": value(stats.get(span, Stat())), "unit": unit}
    return metrics, absent
