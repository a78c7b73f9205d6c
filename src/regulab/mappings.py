"""Parametric set-valued mappings F : P x X => Y and their derived objects.

A mapping exposes, for each parameter ``p``: its values F(p, x), the graph of
the slice F_p as a region in X x Y, residuals d(ybar, F(p, x)), the solution
set {x : ybar in F(p, x)}, normal cones to the graph at graph points, and the
short graph steps of the slope checks (``piece_cones``, ``step_points``).
Two concrete models are provided, both exact: closed-form (finite value sets
given by a rule, with optional exact solution sets and cones) and polyhedral
(graph given as a finite union of polyhedra per parameter); ``hat_reduction``
shifts either.  A map keeps its per-row answers in one memo, keyed by the
object each is about (``SetValuedMap._per_point``), shared by every check.
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
    PolyMatrix,
    PolyUnion,
    Polyhedron,
    dist_to_region,
    normal_cone_from,
    region_sample_points,
    slice_distances,
)
from .spaces import (GridSpec, NormedSpace, as_point, ball_mask, make_grid,
                     row_dots)

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
        """The map's per-parameter memo: ``build()`` once per ``(key, p)``,
        or once per ``key`` for every parameter when ``p`` is None.  Arrays,
        on their own or in a tuple, are shared by every caller, so they
        come back read-only."""
        k = (key, None if p is None else self._pkey(p))
        if k not in self._cache:
            v = self._cache[k] = build()
            for a in v if isinstance(v, tuple) else (v,):
                if isinstance(a, np.ndarray):
                    a.setflags(write=False)
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

    def scan_cones(self, p, xs, ys) -> list[ConeRep]:
        """The normal cones at stacked points ``(xs[i], ys[i])`` that are
        known to lie on gph F_p, such as the rows of a ``ScanBatch``."""
        return [self.normal_cone(p, x, y) for x, y in zip(xs, ys)]

    def piece_cones(self, p, xs, ys) -> list[list[ConeRep]]:
        """Per stacked graph point, the cones whose intersection is its
        normal cone: its ``scan_cones`` entry, or none without a cone rule."""
        try:
            return [[cone] for cone in self.scan_cones(p, xs, ys)]
        except InputError:
            return [[] for _ in xs]

    def step_points(self, p, xs, ys, dirs, radii, gamma: float, reach=None):
        """Graph points stepped from the stacked graph points (xs[i], ys[i])
        along their directions by the radii ``radii[i]``, as ``(owner, us,
        vs)`` with row k a step from point ``owner[k]`` (x-steps beyond
        ``reach[i]`` may be dropped); none for a map without a stepping
        rule.  ``dirs`` is ``(own, D)``: row j of D a direction in X x Y of
        the point ``own[j]``."""
        return np.zeros(0, dtype=int), np.zeros((0, self.nx)), \
            np.zeros((0, self.ny))

    # --- derived queries -------------------------------------------------
    def residual(self, p, x, ybar) -> float:
        """d(ybar, F(p, x)); +inf when the value set is empty."""
        vals = self.values(p, x)
        if vals.shape[0] == 0:
            return math.inf
        return float(np.min(np.linalg.norm(vals - as_point(ybar), axis=1)))

    def _per_point(self, key, p, xs, solve) -> list:
        """The value of every row of ``xs``, each distinct row solved once
        per ``(key, p)``: the values are kept in the map's memo, and the
        rows missing from it go to one call ``solve(X)``, which returns one
        value per row of ``X``, in the order of their first appearance.  A
        key names the object the rows are about (a region, a cone)."""
        xs = np.asarray(xs, dtype=float)
        seen, keys, new = self._lookup(key, p, xs)
        if new:
            seen.update(zip(new, solve(xs[list(new.values())])))
        return [seen[k] for k in keys]

    def _per_rows(self, key, parts, solve) -> list[list]:
        """``_per_point`` of every ``(p, xs)`` of ``parts``, one list of
        values per part: the rows missing from the memos of all parts go to
        one call ``solve([(p, X), ...])``, one entry per part with any, which
        returns one value per row of its X's, part after part."""
        looked = [(p, np.asarray(xs, dtype=float)) for p, xs in parts]
        looked = [(p, xs, *self._lookup(key, p, xs)) for p, xs in looked]
        todo = [(p, xs[list(new.values())], seen, new)
                for p, xs, seen, _, new in looked if new]
        if todo:
            values = list(solve([(p, X) for p, X, _, _ in todo]))
            a = 0
            for _, X, seen, new in todo:
                seen.update(zip(new, values[a:a + len(X)]))
                a += len(X)
        return [[seen[k] for k in keys] for _, _, seen, keys, _ in looked]

    def _lookup(self, key, p, xs):
        """``(seen, keys, new)``: the memo of ``(key, p)``, the key of every
        row of ``xs``, and the first index of each row missing from the
        memo."""
        seen = self._memo(key, p, dict)
        keys = [x.tobytes() for x in xs]
        new = {}
        for i, k in enumerate(keys):
            if k not in seen:
                new.setdefault(k, i)
        return seen, keys, new

    def nearest_points(self, region, xs) -> list:
        """``dist_to_region`` of every row of ``xs`` to ``region``, as ``(d,
        nearest point)`` per row, kept under the region object: the rows
        missing from the memo go to one stacked call."""
        def solve(X):
            d, near = dist_to_region(X, region)
            return zip(d.tolist(), near)

        return self._per_point(("nearest", region), None, xs, solve)

    def cone_answers(self, key, cones, vectors, solve) -> list:
        """The answers to the problems ``(cones[k], vectors[k])``, each
        distinct one solved once per map and ``key`` (the problem's kind and
        weight), whichever check poses it: per cone object, the vectors not
        in the memo go to one call ``solve(cone, V)``, which returns one
        answer per row of ``V``."""
        vectors = np.asarray(vectors, dtype=float)
        groups: dict = {}
        for k, cone in enumerate(cones):
            groups.setdefault(cone, []).append(k)
        out = [None] * len(cones)
        for cone, ks in groups.items():
            found = self._per_point((key, cone), None, vectors[ks],
                                    lambda V, cone=cone: solve(cone, V))
            for k, answer in zip(ks, found):
                out[k] = answer
        return out

    def residual_vec(self, p, xs: np.ndarray, ybar) -> np.ndarray:
        ybar = as_point(ybar)
        return np.array(self._per_point(
            ("residual", ybar.tobytes()), p, xs,
            lambda X: self._residuals(p, X, ybar)), dtype=float)

    def _residuals(self, p, X, ybar) -> list:
        """The residual of every row of ``X``, for the rows that
        ``residual_vec`` misses in the memo: one ``residual`` call per row,
        unless a map solves the rows together."""
        return [self.residual(p, x, ybar) for x in X]

    def solution_distance(self, p, x, ybar, grids: ScanGrids | None = None) -> float:
        d, _ = dist_to_region(as_point(x), self.solution_set(p, ybar, grids))
        return d

    def nearest_solutions(self, p, xs: np.ndarray, ybar,
                          grids: ScanGrids | None = None) -> list:
        """``(d(x, G(p)), a nearest point of G(p))`` for every row ``x`` of
        ``xs``, ``(inf, None)`` where G(p) is empty, kept per solution-set
        object (``nearest_points``): the scan that measured a point's
        distance hands its nearest point to the slope checks."""
        return self.nearest_points(self.solution_set(p, ybar, grids), xs)

    def solution_distance_vec(self, p, xs: np.ndarray, ybar,
                              grids: ScanGrids | None = None) -> np.ndarray:
        return np.array([d for d, _ in self.nearest_solutions(p, xs, ybar,
                                                              grids)],
                        dtype=float)

    def in_graph(self, p, x, y, tol: float = _GRAPH_TOL) -> bool:
        return self.residual(p, x, y) <= tol

    def param_points(self, q: RegularityQuery, grids: ScanGrids):
        """Scanned parameters: the label list, or the grid points in
        B_eta(pbar) as read-only rows (memoized scans and their witnesses
        share them)."""
        if self.param_labels is not None:
            return self.param_labels
        if grids.p is None:
            raise InputError("scan requires a parameter grid for this mapping")
        pts = make_grid(grids.p)
        if q.pbar is not None:
            pts = pts[ball_mask(pts, q.pbar_arr, q.eta)]
        pts.setflags(write=False)
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
        return self._value_set(p, as_point(x))

    def _value_set(self, p, x) -> np.ndarray:
        """``value_fn(p, x)`` at a float row ``x``, as an (m, ny) array."""
        vals = np.asarray(self.value_fn(p, x), dtype=float)
        if vals.size == 0:
            return np.zeros((0, self.ny))
        if vals.ndim == 1:
            vals = vals[None, :] if vals.shape[0] == self.ny else vals[:, None]
        return vals

    def graph_rows(self, p, xs) -> tuple[np.ndarray, np.ndarray]:
        """The graph points over the rows of ``xs``, as ``(rows, vs)`` with
        ``vs[k]`` in F(p, xs[rows[k]]), in row order: one call of the
        batched rule, else one call of ``value_fn`` per distinct row and
        parameter, kept in the map's memo."""
        if self.value_fn is None:
            vs = np.asarray(self.value_rule(p, xs), dtype=float)
            return np.arange(len(xs)), vs.reshape(xs.shape[0], self.ny)
        vals = self._per_point("values", p, xs, lambda X: [
            self._value_set(p, x) for x in X])
        if not vals:
            return np.zeros(0, dtype=int), np.zeros((0, self.ny))
        return np.repeat(np.arange(len(xs)), [len(v) for v in vals]), \
            np.vstack(vals)

    def graph_over(self, p, xs) -> tuple[np.ndarray, np.ndarray]:
        """The graph points over the rows of ``xs``, as stacked ``(us, vs)``
        with ``vs[i]`` in F(p, us[i]) (see ``graph_rows``)."""
        rows, vs = self.graph_rows(p, xs)
        return xs[rows], vs

    def residual_vec(self, p, xs, ybar):
        if self.residual_rule is not None:
            return np.asarray(self.residual_rule(p, np.asarray(xs, dtype=float),
                                                 as_point(ybar)), dtype=float)
        return super().residual_vec(p, xs, ybar)

    def solution_set(self, p, ybar, grids=None):
        """The cloud of the exact solution rule, else of the X grid points
        with residual within the graph tolerance; built once per ``(p,
        ybar)`` and the grids it reads, in the map's memo."""
        ybar = as_point(ybar)
        exact = self.solution_any_fn is not None or (
            self.solution_fn is not None and self._matches_target(ybar))

        def build():
            if self.solution_fn is not None and self._matches_target(ybar):
                return PointCloud(np.atleast_2d(np.asarray(
                    self.solution_fn(p), dtype=float)))
            if self.solution_any_fn is not None:
                return PointCloud(np.atleast_2d(np.asarray(
                    self.solution_any_fn(p, ybar), dtype=float)))
            if grids is None:
                raise InputError(
                    "solution set needs a grid without an exact rule")
            xs = make_grid(grids.x)
            res = self.residual_vec(p, xs, ybar)
            return PointCloud(xs[res <= _GRAPH_TOL], dedupe_tol=0.0)

        return self._memo(("solution set", ybar.tobytes(),
                           None if exact else grids), p, build)

    def _matches_target(self, ybar) -> bool:
        # once per ybar: every parameter of a scan asks
        return self.target is None or self._memo(
            ("matches target", ybar.tobytes()), None,
            lambda: bool(np.linalg.norm(ybar - self.target) <= 1e-12))

    def solution_distance_vec(self, p, xs, ybar, grids=None):
        if self.solution_dist_rule is not None and self._matches_target(as_point(ybar)):
            return np.asarray(self.solution_dist_rule(p, np.asarray(xs, dtype=float)),
                              dtype=float)
        return super().solution_distance_vec(p, xs, ybar, grids)

    def graph_points(self, p, grids: ScanGrids) -> np.ndarray:
        return self._memo(grids, p, lambda: np.hstack(
            self.graph_over(p, make_grid(grids.x))))

    def normal_cone(self, p, x, y) -> ConeRep:
        rule = self._cone_rule()
        if not self.in_graph(p, x, y, 1e-8):
            return ConeRep.empty_cone(self.nx + self.ny)
        return rule(p, as_point(x), as_point(y))

    def scan_cones(self, p, xs, ys) -> list[ConeRep]:
        # the points are on the graph, so the rule's cone applies as is
        rule = self._cone_rule()
        return [rule(p, x, y) for x, y in zip(xs, ys)]

    def _cone_rule(self):
        if self.cone_fn is None:
            raise InputError("no normal-cone rule attached to this mapping")
        return self.cone_fn

    def step_points(self, p, xs, ys, dirs, radii, gamma, reach=None):
        """An honest step is (x + s, F(p, x + s)), so it depends only on the
        x-step s: each direction's x-part times each radius, and each +-e_i
        times each radius and radius/(1 + gamma), less those beyond
        ``reach``.  The steps of all points are de-duplicated per point by
        one ``lexsort`` on (point, u) and evaluated in one ``graph_rows``
        call."""
        nx, n = self.nx, len(xs)
        own, D = dirs
        along = radii[own][:, :, None] * D[:, None, :nx]
        axes = np.hstack([radii, radii / (1 + gamma)])
        axes = np.hstack([axes, -axes])[:, None, :, None] * \
            np.eye(nx)[None, :, None, :]
        owner = np.concatenate([np.repeat(own, radii.shape[1]),
                                np.repeat(np.arange(n), axes[0].size // nx)])
        us = xs[owner] + np.vstack([along.reshape(-1, nx),
                                    axes.reshape(-1, nx)])
        if reach is not None:
            # |u - x| as the slope's quotients compute it, a lower bound on d
            near = np.sqrt(row_dots(us - xs[owner])) <= reach[owner]
            us, owner = us[near], owner[near]
        # the distinct steps of each point in lexicographic order, as
        # np.unique(us, axis=0) gives them at several times the cost
        order = np.lexsort((*us.T[::-1], owner))
        us, owner = us[order], owner[order]
        keep = np.ones(len(us), dtype=bool)
        keep[1:] = (us[1:] != us[:-1]).any(1) | (owner[1:] != owner[:-1])
        us, owner = us[keep], owner[keep]
        rows, vs = self.graph_rows(p, us)
        return owner[rows], us[rows], vs


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

    def _matrix(self, A) -> PolyMatrix:
        """The map's one ``PolyMatrix`` of ``A``, kept in its memo under the
        matrix's shape and bytes: every graph piece, value slice and
        solution slice with that matrix shares its work, at every p, x and
        y."""
        A = np.atleast_2d(np.asarray(A, dtype=float))
        return self._memo(("matrix", A.shape, A.tobytes()), None,
                          lambda: PolyMatrix(A))

    def graph_region(self, p) -> PolyUnion:
        def region():
            pieces = []
            for pc in self.pieces_fn(p):
                A, b = (pc.A, pc.b) if isinstance(pc, Polyhedron) else pc
                pieces.append(Polyhedron(self._matrix(A), b))
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
        raise InputError("polyhedral values are regions; use residual()")

    def residual(self, p, x, ybar) -> float:
        return self._residuals(p, as_point(x)[None, :], as_point(ybar))[0]

    def _residuals(self, p, X, ybar) -> list:
        """``d(ybar, F(p, x))`` for every row x of ``X``: per graph piece
        ``{A_x x + A_y y <= b}``, one ``slice_distances`` call on the
        matrix ``A_y`` with a right-hand side ``b - A_x x`` per row (a
        stacked matrix-vector product, each row rounding as the one-row
        product), and the least over the pieces."""
        nx, d = self.nx, np.full(len(X), math.inf)
        for pc in self.graph_region(p).pieces:
            H = pc.b - np.matvec(pc.A[:, :nx], X)
            d = np.minimum(d, slice_distances(ybar, self._matrix(pc.A[:, nx:]),
                                              H))
        return d.tolist()

    def in_graph(self, p, x, y, tol: float = _GRAPH_TOL) -> bool:
        xy = np.concatenate([as_point(x), as_point(y)])
        return self.graph_region(p).contains(xy, tol)

    def solution_set(self, p, ybar, grids=None) -> PolyUnion:
        """The graph's slice at y = ybar, one shared object per ``(p,
        ybar)`` so that its pieces' emptiness is decided once."""
        ybar = as_point(ybar)

        def build():
            nx = self.nx
            return PolyUnion([
                Polyhedron(self._matrix(pc.A[:, :nx]),
                           pc.b - pc.A[:, nx:] @ ybar)
                for pc in self.graph_region(p).pieces])
        return self._memo(("solution set", ybar.tobytes()), p, build)

    def graph_points(self, p, grids: ScanGrids) -> np.ndarray:
        return self._memo(grids, p, lambda: region_sample_points(
            self.graph_region(p), grids.product_xy()))

    def piece_cones(self, p, xs, ys) -> list[list[ConeRep]]:
        """The normal cones at each stacked point of the graph pieces holding
        it, each generated by the piece's active rows: one shared object per
        generator set, so the face bases a cone caches serve every point
        and parameter with those rows."""
        def cone(G):
            return self._memo(("cone", G.shape, G.tobytes()), None,
                              lambda: ConeRep.make(generators=G,
                                                   dim=G.shape[1]))
        region = self.graph_region(p)
        return [[cone(piece.A[act]) for piece, act in region.active_pieces(z)]
                for z in np.hstack([xs, ys])]

    def normal_cone(self, p, x, y) -> ConeRep:
        cones = self.piece_cones(p, [as_point(x)], [as_point(y)])[0]
        return normal_cone_from(cones, self.nx + self.ny)

    def step_points(self, p, xs, ys, dirs, radii, gamma, reach=None):
        """Each step on the graph as it is, and each one off it projected
        back when the projection lies within the step's length: one
        membership test for all steps, and one projection per off-graph step
        and graph region (``nearest_points``), whichever slope check takes
        it."""
        region = self.graph_region(p)
        own, D = dirs
        ts = radii[own]
        zs = (np.hstack([xs, ys])[own][:, None, :] +
              ts[:, :, None] * D[:, None, :]).reshape(-1, self.nx + self.ny)
        owner, ts = np.repeat(own, radii.shape[1]), ts.ravel()
        keep = region.contains_rows(zs, 1e-10)
        off = np.flatnonzero(~keep)
        if len(off):
            # an empty region's distance is inf: no step comes back
            dz, near = zip(*self.nearest_points(region, zs[off]))
            back = np.flatnonzero(np.array(dz) <= np.abs(ts[off]))
            keep[off[back]] = True
            zs[off[back]] = np.array([near[j] for j in back]).reshape(
                len(back), zs.shape[1])
        return owner[keep], zs[keep, :self.nx], zs[keep, self.nx:]

    def scan_cones(self, p, xs, ys) -> list[ConeRep]:
        # each point's cone once per parameter, for every check that scans it
        nx = self.nx
        return self._per_point(
            "normal cone", p, np.hstack([xs, ys]),
            lambda Z: [self.normal_cone(p, z[:nx], z[nx:]) for z in Z])


class ShiftedTargetMap(SetValuedMap):
    """Canonical-perturbation reduction: parameters (p, y), values F(p,x) - y.

    Subregularity of the shifted mapping at target 0 encodes regularity-type
    properties of the base mapping.  Graph points, normal cones and slope
    steps are the base ones translated by -y in the Y component (translation
    leaves normal cones unchanged up to that shift of the base point).
    """

    def __init__(self, base: SetValuedMap, y_shifts):
        self.base = base
        self.shifts = [tuple(as_point(s)) for s in y_shifts]
        if base.param_labels is not None:
            labels = [(lbl, s) for lbl in base.param_labels
                      for s in self.shifts]
        else:
            labels = [(None, s) for s in self.shifts]
        super().__init__(base.domain_space, base.range_space, param_labels=labels)
        self.convex_graph = base.convex_graph

    def _pkey(self, p):
        base_p, shift = p
        return self.base._pkey(base_p), tuple(as_point(shift))

    @staticmethod
    def _split(p):
        base_p, shift = p
        return base_p, as_point(shift)

    def param_points(self, q: RegularityQuery, grids: ScanGrids):
        """Every scanned parameter of the base map paired with every shift:
        a base map with a parameter space draws its parameters from the
        grid, where the labels hold None."""
        return [(base_p, shift) for base_p in self.base.param_points(q, grids)
                for shift in self.shifts]

    def values(self, p, x) -> np.ndarray:
        base_p, shift = self._split(p)
        vals = self.base.values(base_p, x)
        return vals - shift[None, :] if vals.size else vals

    def residual(self, p, x, ybar) -> float:
        base_p, shift = self._split(p)
        return self.base.residual(base_p, x, as_point(ybar) + shift)

    def _residuals(self, p, X, ybar) -> list:
        # the base map's rows, solved together where it stacks them
        base_p, shift = self._split(p)
        return self.base._residuals(base_p, X, as_point(ybar) + shift)

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

    def piece_cones(self, p, xs, ys):
        base_p, shift = self._split(p)
        return self.base.piece_cones(base_p, xs, ys + shift)

    def step_points(self, p, xs, ys, dirs, radii, gamma, reach=None):
        base_p, shift = self._split(p)
        owner, us, vs = self.base.step_points(base_p, xs, ys + shift, dirs,
                                              radii, gamma, reach)
        return owner, us, vs - shift


def hat_reduction(F: SetValuedMap, y_shifts) -> ShiftedTargetMap:
    """Wrap ``F`` as the shifted-target mapping over parameters (p, y)."""
    return ShiftedTargetMap(F, y_shifts)


@dataclass
class ScanBatch:
    """The admissible points of a condition scan at one parameter ``p``:
    graph points ``(xs[i], ys[i])`` of F_p off the solution set, stacked in
    the order of the graph sample, with ``|ys[i] - ybar|`` and
    ``d(xs[i], G(p))`` attached.  Its arrays are read-only: a condition
    scan's batches are shared by every check that scans them."""

    p: object
    xs: np.ndarray
    ys: np.ndarray
    dist_to_target: np.ndarray
    sol_dist: np.ndarray

    def __post_init__(self):
        for a in (self.xs, self.ys, self.dist_to_target, self.sol_dist):
            a.setflags(write=False)


def stack_batches(F: SetValuedMap, batches) -> tuple:
    """The rows of all ``batches`` in scan order, as ``(k, xs, ys)``: row i
    is the point ``(xs[i], ys[i])`` of ``batches[k[i]]``."""
    k = np.repeat(np.arange(len(batches)), [len(b.xs) for b in batches])
    xs = np.vstack([np.zeros((0, F.nx))] + [b.xs for b in batches])
    ys = np.vstack([np.zeros((0, F.ny))] + [b.ys for b in batches])
    return k, xs, ys


def condition_scan_points(F: SetValuedMap, q: RegularityQuery, grids: ScanGrids,
                          x_radius: float):
    """Admissible (p, x, y) triples shared by every condition checker, as one
    ``ScanBatch`` per parameter that has any.

    The points are graph points with x in the open ball of radius
    ``x_radius`` around xbar, x off the solution set, and
    0 < |y - ybar| < alpha*mu (strictly, with a relative guard on the upper
    bound).  They come from the graph sample, so checkers need not test
    their membership again.
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
        mask = (dy > SOL_TOL) & (dy <= strict) & ball_mask(xs, xbar, x_radius)
        if not mask.any():
            continue
        sol_d = F.solution_distance_vec(p, xs[mask], ybar, grids)
        off = ~(sol_d <= SOL_TOL)
        if off.any():
            yield ScanBatch(p=p, xs=xs[mask][off], ys=ys[mask][off],
                            dist_to_target=dy[mask][off], sol_dist=sol_d[off])


def check_mode(mode: str):
    """``InputError`` unless ``mode`` is a condition check's mode."""
    if mode not in ("sufficient", "necessary"):
        raise InputError(f"unknown mode {mode!r}")


def condition_scan(F: SetValuedMap, q: RegularityQuery, grids: ScanGrids,
                   mode: str):
    """Query, x-radius and admissible points of a condition check in ``mode``.

    Sufficient mode scans the (delta + mu)-ball at the caller's gamma;
    necessary mode scans the delta-ball at gamma = 1/alpha.  Returns
    ``(query, x_radius, batches)`` with ``batches`` the list of
    ``condition_scan_points``, one ``ScanBatch`` per parameter, built once
    per map for every check that scans the same points.
    """
    check_mode(mode)
    if mode == "necessary":
        q = dataclasses.replace(q, gamma=1.0 / q.alpha)
        x_radius = q.delta
    else:
        x_radius = q.delta + q.mu
    key = ("scan points", q.xbar_arr.tobytes(), q.ybar_arr.tobytes(),
           q.alpha * q.mu, x_radius,
           None if q.pbar is None else q.pbar_arr.tobytes(), q.eta, grids)
    return q, x_radius, F._memo(key, None, lambda: list(
        condition_scan_points(F, q, grids, x_radius)))
