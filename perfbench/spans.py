"""Spans recorded from outside uavcell, for the traced run.

Recorder.install() replaces the public functions that one uavcell module
calls in another (the module attribute each caller looks up) with wrappers
that record a span: name, start, end, parent span, pass number and up to two
counts (terminals, realizations, cells, rows). uninstall() puts the originals
back. Spans live in flat arrays in memory and are written out once, at the
end of the run. params.derived_constants is not wrapped: it is a cached
lookup inside every rate evaluation and would double the span count for no
time of its own.
"""
from __future__ import annotations

import importlib
import statistics
from array import array
from time import perf_counter

import numpy as np


def _mode_of_rate(args):
    return f"rates.rate_value.{args[0]}"


def _sim_name(args):
    return f"montecarlo.simulate_rate.{args[2].mode}"


def _region_name(args):
    return f"geometry.sample_gts.{args[1]}"


# (module, attribute, span name or function of the call's args, counter)
_PATCHES = (
    ("cli", "load_config", "config.load_config", None),
    ("cli", "optimize", "optimize.optimize", None),
    ("cli", "rate_value", _mode_of_rate, None),
    ("optimize", "rate_value", _mode_of_rate, None),
    ("montecarlo", "rate_value", _mode_of_rate, None),
    ("cli", "coverage_radius", "geometry.coverage_radius", None),
    ("mission", "coverage_radius", "geometry.coverage_radius", None),
    ("montecarlo", "coverage_radius", "geometry.coverage_radius", None),
    ("montecarlo", "make_layout", "geometry.make_layout", None),
    ("montecarlo", "sample_gts", _region_name, lambda r: (len(r.positions), 0)),
    ("montecarlo", "cell_edge_rate_mc", "rates.cell_edge_rate_mc", None),
    ("mission", "cell_edge_rate_mc", "rates.cell_edge_rate_mc", None),
    ("cli", "simulate_rate", _sim_name,
     lambda r: (int(r.gt_counts.sum()), len(r.gt_counts))),
    ("cli", "assemble_plan", "mission.assemble_plan", lambda r: (len(r.centers), 0)),
    ("mission", "layout_centers", "mission.layout_centers", lambda r: (len(r), 0)),
    ("mission", "plan_tour", "mission.plan_tour", lambda r: (len(r.centers), 0)),
)


class Recorder:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.pass_no = array("i")
        self.count = array("q")
        self.count2 = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._saved = []
        self.current_pass = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name: str, fn, args=(), kwargs=None, counter=None):
        """Run fn(*args, **kwargs) inside a span; return its result."""
        index = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.pass_no.append(self.current_pass)
        self.count.append(0)
        self.count2.append(0)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(index)
        t0 = perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.start[index] = t0
            self.end[index] = t1
        if counter is not None:
            self.count[index], self.count2[index] = counter(result)
        return result

    def set_count(self, index: int, count: int):
        self.count[index] = count

    def _wrap(self, original, name, counter):
        def wrapper(*args, **kwargs):
            span = name if isinstance(name, str) else name(args)
            return self.call(span, original, args, kwargs, counter)
        return wrapper

    def install(self):
        for module_name, attr, name, counter in _PATCHES:
            # by module path: the package re-exports a function named optimize
            module = importlib.import_module(f"uavcell.{module_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def save(self, path):
        np.savez_compressed(
            path, names=np.array(self.names), name=np.array(self.name),
            parent=np.array(self.parent), pass_no=np.array(self.pass_no),
            count=np.array(self.count), count2=np.array(self.count2),
            start=np.array(self.start), end=np.array(self.end))


class Analysis:
    """Per-layer figures from a Recorder's spans. Self time is a span's
    duration minus the durations of its direct children."""

    def __init__(self, rec: Recorder):
        self.names = rec.names
        self.name = np.array(rec.name)
        self.parent = np.array(rec.parent)
        self.pass_no = np.array(rec.pass_no)
        self.count = np.array(rec.count, dtype=float)
        self.count2 = np.array(rec.count2, dtype=float)
        self.dur = np.array(rec.end) - np.array(rec.start)
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                            minlength=len(self.dur))
        self.self_time = self.dur - child

    def mask(self, prefix: str):
        ids = [i for i, n in enumerate(self.names) if n == prefix or n.startswith(prefix + ".")]
        return np.isin(self.name, ids)

    def per_unit(self, prefix: str, times=None, units=None) -> float:
        """Summed time over summed count (or count2) of the matching spans."""
        m = self.mask(prefix)
        times = self.dur if times is None else times
        units = self.count if units is None else units
        return float(times[m].sum() / units[m].sum())

    def mean(self, prefix: str) -> float:
        return float(self.dur[self.mask(prefix)].mean())

    def median(self, prefix: str) -> float:
        return float(np.median(self.dur[self.mask(prefix)]))

    def per_pass_median(self, prefix: str) -> float:
        m = self.mask(prefix)
        passes = np.unique(self.pass_no[m])
        return statistics.median(float(self.dur[m & (self.pass_no == p)].sum()) for p in passes)

    def children_per(self, parent_prefix: str, child_prefix: str) -> float:
        parents = np.flatnonzero(self.mask(parent_prefix))
        kids = self.parent[self.mask(child_prefix)]
        return float(np.isin(kids, parents).sum() / len(parents))

    def smallest_count_per_realization(self) -> float:
        """Time per realization over the simulate calls whose terminals per
        realization are within 2x of the smallest."""
        m = self.mask("montecarlo.simulate_rate")
        per = np.where(m, self.count / np.maximum(self.count2, 1), np.inf)
        small = m & (per <= 2.0 * per.min())
        return float(self.dur[small].sum() / self.count2[small].sum())
