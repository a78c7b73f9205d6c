"""Per-layer tracing of regulab from outside the program.

A ``Tracer`` replaces public functions and methods of regulab's modules with
wrappers that record a span (name, start, end, parent) per call, plus counts
taken where the work happens.  Each wrapper is installed at the name the
program looks the callee up by: ``sets.py`` imports ``linprog`` by name, so
the LP wrapper goes on ``regulab.sets.linprog``; ``slope.py`` and ``dual.py``
import ``gamma_dual_distance`` by name, so it is wrapped in both.  Spans are
kept in flat arrays in memory and reduced to per-layer totals when a round
ends; ``uninstall`` restores every original.

A call made while a span of the same name is open (``residual_vec`` calling
the base class's ``residual_vec`` or ``residual``) is passed through without
a span of its own, so call counts and times are those of the outermost call.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter

import numpy as np
import regulab.cli
import regulab.dual
import regulab.implicit
import regulab.mappings
import regulab.oracle
import regulab.sets
import regulab.slope
from regulab.mappings import ClosedFormMap, PolyhedralGraphMap, SetValuedMap
from regulab.sets import Polyhedron

_CHECKS = {
    "check.scan": ("check_subreg_uniform", "check_geometric", "check_recede",
                   "check_aubin"),
    "check.primal": ("check_nonlocal_slope_condition",
                     "check_local_slope_condition"),
    "check.dual": ("check_subdifferential_condition",
                   "check_normal_cone_condition",
                   "check_coderivative_condition"),
}
_CHECK_HOMES = (regulab.oracle, regulab.implicit, regulab.slope, regulab.dual,
                regulab.cli)

# (objects, attribute, span name); a module attribute is a function looked
# up by name at call time, a class attribute a method.
_LAYERS = [
    ((regulab.oracle, regulab.mappings, regulab.sets, regulab.implicit),
     "make_grid", "spaces.make_grid"),
    ((ClosedFormMap, PolyhedralGraphMap), "graph_points",
     "mappings.graph_points"),
    ((SetValuedMap, ClosedFormMap, PolyhedralGraphMap),
     "residual", "mappings.residual"),
    ((SetValuedMap, ClosedFormMap), "residual_vec", "mappings.residual"),
    ((SetValuedMap, ClosedFormMap), "solution_distance_vec",
     "mappings.residual"),
    ((ClosedFormMap, PolyhedralGraphMap), "normal_cone",
     "mappings.normal_cone"),
    ((regulab.sets,), "project_polyhedron", "sets.project_polyhedron"),
    ((regulab.mappings, regulab.slope, regulab.implicit), "dist_to_region",
     "sets.dist_to_region"),
    ((regulab.sets,), "intersect_cones", "sets.intersect_cones"),
    ((regulab.slope, regulab.dual), "gamma_dual_distance",
     "sets.gamma_dual_distance"),
    ((regulab.dual,), "cone_min_norm", "sets.cone_min_norm"),
    ((regulab.sets,), "linprog", "solver.linprog"),
    ((regulab.sets,), "minimize", "solver.slsqp"),
    ((regulab.sets,), "lsq_linear", "solver.lsq_linear"),
    ((regulab.slope,), "nonlocal_slope", "slope.nonlocal"),
    ((regulab.slope,), "local_slope", "slope.local"),
    ((regulab.oracle,), "estimate_modulus", "oracle.modulus"),
    ((regulab.cli,), "run_scenario", "cli.run_scenario"),
] + [(_CHECK_HOMES, fn, family)
     for family, fns in _CHECKS.items() for fn in fns]

# scans made by estimate_modulus's bisection get a name of their own
_MODULUS_SCAN = "oracle.modulus.scan"


def _pkey(p):
    try:
        return tuple(np.atleast_1d(np.asarray(p, dtype=float)))
    except (TypeError, ValueError):
        return p


class Tracer:
    def __init__(self):
        self._saved = []
        self.reset()

    # --- recording -------------------------------------------------------
    def reset(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self._open = Counter()
        self.counts = Counter()
        self.distinct: dict[str, set] = {"graph_points": set(), "lp": set()}

    def _begin(self, name):
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        k = len(self.start)
        self.name.append(i)
        self.parent.append(self._stack[-1])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(k)
        self._open[name] += 1
        return k

    def _end(self, k, name):
        self.end[k] = time.perf_counter()
        self._stack.pop()
        self._open[name] -= 1

    def _current(self):
        k = self._stack[-1]
        return None if k < 0 else self.names[self.name[k]]

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name
            if name == "check.scan" and tracer._current() == "oracle.modulus":
                span = _MODULUS_SCAN
            if tracer._open[span]:
                return fn(*args, **kwargs)
            tracer._observe(span, args)
            k = tracer._begin(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._end(k, span)
            tracer._result(span, out)
            return out

        return wrapper

    def _observe(self, span, args):
        if span == "mappings.graph_points":
            F, p, grids = args[:3]
            self.distinct["graph_points"].add((id(F), _pkey(p), grids))

    def _result(self, span, out):
        if span == "solver.linprog" and out.status not in (0, 2):
            self.counts["solver.linprog.failed"] += 1
        elif span == "solver.slsqp" and not out.success:
            self.counts["solver.slsqp.failed"] += 1
        elif span.startswith("check."):
            self.counts["check.points_scanned"] += int(
                out.scan_meta.get("points_scanned", 0))

    def _wrap_is_empty(self, fn):
        tracer = self

        @functools.wraps(fn)
        def is_empty(poly):
            if poly._empty is None:
                tracer.counts["sets.is_empty.lp_calls"] += 1
                tracer.distinct["lp"].add((poly.A.tobytes(), poly.b.tobytes()))
            return fn(poly)

        return is_empty

    # --- installation ----------------------------------------------------
    def install(self):
        if self._saved:
            return
        for owners, attr, name in _LAYERS:
            for owner in owners:
                original = vars(owner).get(attr)
                if original is None:
                    continue
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name))
        original = vars(Polyhedron)["is_empty"]
        self._saved.append((Polyhedron, "is_empty", original))
        Polyhedron.is_empty = self._wrap_is_empty(original)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # --- reduction -------------------------------------------------------
    def layers(self) -> dict:
        """Per-layer calls, total and self seconds of the recorded spans."""
        n = len(self.start)
        dur = np.frombuffer(self.end, dtype=float)[:n] - \
            np.frombuffer(self.start, dtype=float)[:n]
        parent = np.frombuffer(self.parent, dtype=np.int32)[:n]
        name = np.frombuffer(self.name, dtype=np.uint16)[:n]
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        out = {}
        for i, nm in enumerate(self.names):
            sel = name == i
            out[nm] = {"calls": int(sel.sum()), "s": float(dur[sel].sum()),
                       "self_s": float(self_time[sel].sum())}
        return out

    def spans(self):
        """The recorded spans as (name, start, end, parent) tuples."""
        return [(self.names[self.name[k]], self.start[k], self.end[k],
                 self.parent[k]) for k in range(len(self.start))]
