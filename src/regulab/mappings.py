"""Parametric set-valued mappings F : P x X => Y and their derived objects.

A mapping exposes, for each parameter ``p``: its values F(p, x), the graph of
the slice F_p as a region in X x Y, residuals d(ybar, F(p, x)), the solution
set {x : ybar in F(p, x)}, and normal cones to the graph at graph points.
Two concrete models are provided, both exact: closed-form (finite value sets
given by a rule, with optional exact solution sets and cones) and polyhedral
(graph given as a finite union of polyhedra per parameter).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InputError
from .sets import (
    ConeRep,
    PointCloud,
    PolyUnion,
    Polyhedron,
    dist_to_region,
    normal_cone_at,
    region_sample_points,
)
from .spaces import GridSpec, NormedSpace, as_point, ball_mask, make_grid

_GRAPH_TOL = 1e-9
# a scanned point whose solution distance is at most this is on the
# solution set: its distance is float noise between grids
SOL_TOL = 1e-9


def strict_cap(bound: float) -> float:
    """Deterministic guard for a strict upper bound: admit scan values up
    to bound*(1-1e-12)."""
    return bound - 1e-12 * bound if math.isfinite(bound) else math.inf


@dataclass(frozen=True)
class RegularityQuery:
    """Parameter bundle of a subregularity question.

    ``alpha`` is the claimed rate; ``delta``/``mu`` bound the x-neighborhood
    and the residual scale; ``eta`` bounds the parameter ball; ``gamma``
    weights the Y-component of the product metric; ``tau`` is the spherical
    cap level for relaxed dual candidates.  Unbounded radii are ``math.inf``.
    """

    xbar: tuple
    ybar: tuple
    alpha: float
    delta: float
    mu: float
    pbar: tuple | None = None
    eta: float = math.inf
    gamma: float = 1.0
    tau: float = 0.99

    def __post_init__(self):
        if not self.alpha > 0:
            raise InputError(f"alpha must be positive, got {self.alpha}")
        for name in ("delta", "mu", "eta"):
            v = getattr(self, name)
            if not v > 0:
                raise InputError(f"{name} must be positive or unbounded, got {v}")
        if not self.gamma > 0:
            raise InputError(f"gamma must be positive, got {self.gamma}")
        if not 0 < self.tau < 1:
            raise InputError(f"tau must lie strictly between 0 and 1, got {self.tau}")

    @property
    def xbar_arr(self) -> np.ndarray:
        return as_point(self.xbar)

    @property
    def ybar_arr(self) -> np.ndarray:
        return as_point(self.ybar)

    @property
    def pbar_arr(self) -> np.ndarray | None:
        return None if self.pbar is None else as_point(self.pbar)


@dataclass(frozen=True)
class ScanGrids:
    """Discretization carrier for all scans: one grid per scanned space."""

    x: GridSpec
    y: GridSpec | None = None
    p: GridSpec | None = None

    def product_xy(self) -> GridSpec:
        if self.y is None:
            raise InputError("scan requires a Y grid for this mapping model")
        return GridSpec(
            lower=tuple(self.x.lower) + tuple(self.y.lower),
            upper=tuple(self.x.upper) + tuple(self.y.upper),
            resolution=max(self.x.resolution, self.y.resolution),
        )


class SetValuedMap:
    """Base class: spaces, parameter carrier, and the common derived queries.

    ``param_labels`` is set for a finite (metric-free) parameter set; otherwise
    parameters are points of ``param_space`` and scans draw them from a grid.
    """

    convex_graph = False

    def __init__(self, domain_space: NormedSpace, range_space: NormedSpace,
                 param_space: NormedSpace | None = None, param_labels=None):
        self.domain_space = domain_space
        self.range_space = range_space
        self.param_space = param_space
        self.param_labels = list(param_labels) if param_labels is not None else None
        if (param_space is None) == (param_labels is None):
            raise InputError("provide exactly one of param_space or param_labels")
        self._cache: dict = {}

    @property
    def nx(self) -> int:
        return self.domain_space.dim

    @property
    def ny(self) -> int:
        return self.range_space.dim

    @staticmethod
    def _pkey(p):
        try:
            return tuple(np.atleast_1d(np.asarray(p, dtype=float)))
        except (TypeError, ValueError):
            return p

    def _memo(self, key, p, build):
        """The map's per-parameter memo: ``build()`` once per ``(key, p)``.
        Arrays are shared by every caller, so they come back read-only."""
        k = (key, self._pkey(p))
        if k not in self._cache:
            v = self._cache[k] = build()
            if isinstance(v, np.ndarray):
                v.setflags(write=False)
        return self._cache[k]

    # --- model interface -------------------------------------------------
    def values(self, p, x) -> np.ndarray:
        """F(p, x) as an (m, ny) array of points (possibly m = 0)."""
        raise NotImplementedError

    def graph_points(self, p, grids: ScanGrids) -> np.ndarray:
        """Sample of gph F_p as an (n, nx+ny) array, deterministic order; the
        concrete maps build it once per (p, grids) and share it read-only."""
        raise NotImplementedError

    def solution_set(self, p, ybar, grids: ScanGrids | None = None):
        """The region {x : ybar in F(p, x)}."""
        raise NotImplementedError

    def normal_cone(self, p, x, y) -> ConeRep:
        """Normal cone to gph F_p at the graph point (x, y)."""
        raise NotImplementedError

    # --- derived queries -------------------------------------------------
    def residual(self, p, x, ybar) -> float:
        """d(ybar, F(p, x)); +inf when the value set is empty."""
        vals = self.values(p, x)
        if vals.shape[0] == 0:
            return math.inf
        return float(np.min(np.linalg.norm(vals - as_point(ybar), axis=1)))

    def residual_vec(self, p, xs: np.ndarray, ybar) -> np.ndarray:
        return np.array([self.residual(p, x, ybar) for x in xs])

    def solution_distance(self, p, x, ybar, grids: ScanGrids | None = None) -> float:
        d, _ = dist_to_region(as_point(x), self.solution_set(p, ybar, grids))
        return d

    def solution_distance_vec(self, p, xs: np.ndarray, ybar,
                              grids: ScanGrids | None = None) -> np.ndarray:
        region = self.solution_set(p, ybar, grids)
        return np.array([dist_to_region(x, region)[0] for x in xs])

    def in_graph(self, p, x, y, tol: float = _GRAPH_TOL) -> bool:
        return self.residual(p, x, y) <= tol

    def param_points(self, q: RegularityQuery, grids: ScanGrids):
        """Scanned parameters: the label list, or grid points in B_eta(pbar)."""
        if self.param_labels is not None:
            return self.param_labels
        if grids.p is None:
            raise InputError("scan requires a parameter grid for this mapping")
        pts = make_grid(grids.p)
        if q.pbar is not None:
            pts = pts[ball_mask(pts, q.pbar_arr, q.eta)]
        return list(pts)


class ClosedFormMap(SetValuedMap):
    """Mapping given by a rule ``value_fn(p, x) -> points in Y``, or by a
    batched single-valued rule ``value_rule(p, xs) -> (n, ny)`` with the one
    value of each row of ``xs``.

    With ``value_rule``, ``values`` reads it with one row, and a set of
    points (a graph sample, the steps of a slope scan) costs one call.
    Optional exact attachments: ``solution_fn(p) -> points in X`` for the
    solution set at the target, ``cone_fn(p, x, y) -> ConeRep`` for graph
    normal cones, and vectorized residual/solution-distance rules for fast
    scans.  ``convex`` declares that every gph F_p is convex.
    """

    def __init__(self, domain_space, range_space, value_fn=None, *,
                 value_rule=None, param_space=None, param_labels=None,
                 solution_fn=None, solution_any_fn=None, cone_fn=None,
                 residual_rule=None, solution_dist_rule=None, target=None,
                 convex=False):
        super().__init__(domain_space, range_space, param_space, param_labels)
        if (value_fn is None) == (value_rule is None):
            raise InputError("provide exactly one of value_fn or value_rule")
        self.value_fn = value_fn
        self.value_rule = value_rule
        self.solution_fn = solution_fn
        self.solution_any_fn = solution_any_fn
        self.cone_fn = cone_fn
        self.residual_rule = residual_rule
        self.solution_dist_rule = solution_dist_rule
        self.target = None if target is None else as_point(target)
        self.convex_graph = convex

    def values(self, p, x) -> np.ndarray:
        if self.value_fn is None:
            return self.graph_over(p, as_point(x)[None, :])[1]
        vals = np.asarray(self.value_fn(p, as_point(x)), dtype=float)
        if vals.size == 0:
            return np.zeros((0, self.ny))
        if vals.ndim == 1:
            vals = vals[None, :] if vals.shape[0] == self.ny else vals[:, None]
        return vals

    def graph_over(self, p, xs) -> tuple[np.ndarray, np.ndarray]:
        """The graph points over the rows of ``xs``, as stacked ``(us, vs)``
        with ``vs[i]`` in F(p, us[i]), in row order: one call of the
        batched rule, else one call of ``value_fn`` per row."""
        if self.value_fn is None:
            vs = np.asarray(self.value_rule(p, xs), dtype=float)
            return xs, vs.reshape(xs.shape[0], self.ny)
        vals = [self.values(p, x) for x in xs]
        if not vals:
            return np.zeros((0, self.nx)), np.zeros((0, self.ny))
        return np.repeat(xs, [len(v) for v in vals], axis=0), np.vstack(vals)

    def residual_vec(self, p, xs, ybar):
        if self.residual_rule is not None:
            return np.asarray(self.residual_rule(p, np.asarray(xs, dtype=float),
                                                 as_point(ybar)), dtype=float)
        return super().residual_vec(p, xs, ybar)

    def solution_set(self, p, ybar, grids=None):
        ybar = as_point(ybar)
        if self.solution_fn is not None and self._matches_target(ybar):
            return PointCloud(np.atleast_2d(np.asarray(self.solution_fn(p),
                                                       dtype=float)))
        if self.solution_any_fn is not None:
            return PointCloud(np.atleast_2d(np.asarray(
                self.solution_any_fn(p, ybar), dtype=float)))
        if grids is None:
            raise InputError("solution set needs a grid without an exact rule")
        xs = make_grid(grids.x)
        res = self.residual_vec(p, xs, ybar)
        return PointCloud(xs[res <= _GRAPH_TOL], dedupe_tol=0.0)

    def _matches_target(self, ybar) -> bool:
        return self.target is None or bool(
            np.linalg.norm(ybar - self.target) <= 1e-12
        )

    def solution_distance_vec(self, p, xs, ybar, grids=None):
        if self.solution_dist_rule is not None and self._matches_target(as_point(ybar)):
            return np.asarray(self.solution_dist_rule(p, np.asarray(xs, dtype=float)),
                              dtype=float)
        return super().solution_distance_vec(p, xs, ybar, grids)

    def graph_points(self, p, grids: ScanGrids) -> np.ndarray:
        return self._memo(grids, p, lambda: np.hstack(
            self.graph_over(p, make_grid(grids.x))))

    def normal_cone(self, p, x, y) -> ConeRep:
        if self.cone_fn is None:
            raise InputError("no normal-cone rule attached to this mapping")
        if not self.in_graph(p, x, y, 1e-8):
            return ConeRep.empty_cone(self.nx + self.ny)
        return self.cone_fn(p, as_point(x), as_point(y))


class PolyhedralGraphMap(SetValuedMap):
    """Mapping whose graph in X x Y is a finite union of polyhedra per p.

    ``pieces_fn(p)`` returns the list of (A, b) polyhedra; slices at fixed x
    or fixed y are themselves polyhedra, so values, solution sets and normal
    cones are exact.
    """

    def __init__(self, domain_space, range_space, pieces_fn, *,
                 param_space=None, param_labels=None, convex=None):
        super().__init__(domain_space, range_space, param_space, param_labels)
        self.pieces_fn = pieces_fn
        self._convex = convex

    def graph_region(self, p) -> PolyUnion:
        def region():
            pieces = [pc if isinstance(pc, Polyhedron) else Polyhedron(*pc)
                      for pc in self.pieces_fn(p)]
            for pc in pieces:
                if pc.dim != self.nx + self.ny:
                    raise DimensionMismatchError(
                        "graph piece dimension must equal dim X + dim Y"
                    )
            return PolyUnion(pieces)
        return self._memo("region", p, region)

    @property
    def convex_graph(self) -> bool:
        if self._convex is not None:
            return self._convex
        probe = self.param_labels[0] if self.param_labels else None
        if probe is None:
            return False
        return len(self.graph_region(probe).nonempty_pieces()) <= 1

    def values(self, p, x) -> np.ndarray:
        # kept for interface completeness; residual() below is the exact path
        raise InputError("polyhedral values are regions; use value_region()")

    def value_region(self, p, x) -> PolyUnion:
        x = as_point(x)
        nx = self.nx
        pieces = []
        for pc in self.graph_region(p).pieces:
            Ax, Ay = pc.A[:, :nx], pc.A[:, nx:]
            pieces.append(Polyhedron(Ay, pc.b - Ax @ x))
        return PolyUnion(pieces)

    def residual(self, p, x, ybar) -> float:
        d, _ = dist_to_region(as_point(ybar), self.value_region(p, x))
        return d

    def in_graph(self, p, x, y, tol: float = _GRAPH_TOL) -> bool:
        xy = np.concatenate([as_point(x), as_point(y)])
        return self.graph_region(p).contains(xy, tol)

    def solution_set(self, p, ybar, grids=None) -> PolyUnion:
        ybar = as_point(ybar)
        nx = self.nx
        pieces = []
        for pc in self.graph_region(p).pieces:
            Ax, Ay = pc.A[:, :nx], pc.A[:, nx:]
            pieces.append(Polyhedron(Ax, pc.b - Ay @ ybar))
        return PolyUnion(pieces)

    def graph_points(self, p, grids: ScanGrids) -> np.ndarray:
        return self._memo(grids, p, lambda: region_sample_points(
            self.graph_region(p), grids.product_xy()))

    def normal_cone(self, p, x, y) -> ConeRep:
        xy = np.concatenate([as_point(x), as_point(y)])
        return normal_cone_at(self.graph_region(p), xy)


class ShiftedTargetMap(SetValuedMap):
    """Canonical-perturbation reduction: parameters (p, y), values F(p,x) - y.

    Subregularity of the shifted mapping at target 0 encodes regularity-type
    properties of the base mapping.  Graph points and normal cones are the
    base ones translated by -y in the Y component (translation leaves normal
    cones unchanged up to that shift of the base point).
    """

    def __init__(self, base: SetValuedMap, y_shifts):
        self.base = base
        shifts = [as_point(s) for s in y_shifts]
        if base.param_labels is not None:
            labels = [(lbl, tuple(s)) for lbl in base.param_labels for s in shifts]
        else:
            labels = [(None, tuple(s)) for s in shifts]
        super().__init__(base.domain_space, base.range_space, param_labels=labels)
        self.convex_graph = base.convex_graph

    @staticmethod
    def _split(p):
        base_p, shift = p
        return base_p, as_point(shift)

    def values(self, p, x) -> np.ndarray:
        base_p, shift = self._split(p)
        vals = self.base.values(base_p, x)
        return vals - shift[None, :] if vals.size else vals

    def residual(self, p, x, ybar) -> float:
        base_p, shift = self._split(p)
        return self.base.residual(base_p, x, as_point(ybar) + shift)

    def solution_set(self, p, ybar, grids=None):
        base_p, shift = self._split(p)
        return self.base.solution_set(base_p, as_point(ybar) + shift, grids)

    def graph_points(self, p, grids: ScanGrids) -> np.ndarray:
        base_p, shift = self._split(p)
        pts = self.base.graph_points(base_p, grids)
        if pts.size:
            pts = pts.copy()
            pts[:, self.nx:] -= shift[None, :]
        return pts

    def normal_cone(self, p, x, y) -> ConeRep:
        base_p, shift = self._split(p)
        return self.base.normal_cone(base_p, x, as_point(y) + shift)


def hat_reduction(F: SetValuedMap, y_shifts) -> ShiftedTargetMap:
    """Wrap ``F`` as the shifted-target mapping over parameters (p, y)."""
    return ShiftedTargetMap(F, y_shifts)


@dataclass
class ScanPoint:
    """One admissible point of a condition scan: a graph point (x, y) of F_p
    off the solution set, with residual-scale data attached."""

    p: object
    x: np.ndarray
    y: np.ndarray
    dist_to_target: float
    sol_dist: float


def condition_scan_points(F: SetValuedMap, q: RegularityQuery, grids: ScanGrids,
                          x_radius: float, sol_tol: float = SOL_TOL):
    """Admissible (p, x, y) triples shared by every condition checker.

    Yields graph points with x in the open ball of radius ``x_radius`` around
    xbar, x off the solution set, and 0 < |y - ybar| < alpha*mu (strictly,
    with a relative guard on the upper bound).
    """
    ybar = q.ybar_arr
    xbar = q.xbar_arr
    strict = strict_cap(q.alpha * q.mu)
    nx = F.nx
    for p in F.param_points(q, grids):
        pts = F.graph_points(p, grids)
        if pts.shape[0] == 0:
            continue
        xs, ys = pts[:, :nx], pts[:, nx:]
        dy = np.linalg.norm(ys - ybar[None, :], axis=1)
        mask = (dy > sol_tol) & (dy <= strict) & ball_mask(xs, xbar, x_radius)
        if not mask.any():
            continue
        sol_d = F.solution_distance_vec(p, xs[mask], ybar, grids)
        for x, y, dty, sd in zip(xs[mask], ys[mask], dy[mask], sol_d):
            if sd <= sol_tol:
                continue
            yield ScanPoint(p=p, x=x, y=y, dist_to_target=float(dty),
                            sol_dist=float(sd))


def check_mode(mode: str):
    """``InputError`` unless ``mode`` is a condition check's mode."""
    if mode not in ("sufficient", "necessary"):
        raise InputError(f"unknown mode {mode!r}")


def condition_scan(F: SetValuedMap, q: RegularityQuery, grids: ScanGrids,
                   mode: str):
    """Query, x-radius and admissible points of a condition check in ``mode``.

    Sufficient mode scans the (delta + mu)-ball at the caller's gamma;
    necessary mode scans the delta-ball at gamma = 1/alpha.  Returns
    ``(query, x_radius, points)`` with ``points`` a lazy
    ``condition_scan_points`` stream.
    """
    check_mode(mode)
    if mode == "necessary":
        q = dataclasses.replace(q, gamma=1.0 / q.alpha)
        x_radius = q.delta
    else:
        x_radius = q.delta + q.mu
    return q, x_radius, condition_scan_points(F, q, grids, x_radius)
