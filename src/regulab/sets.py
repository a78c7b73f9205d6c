"""Closed-set representations, projections, and normal cones.

Sets are finite unions of convex polyhedra ``{x : A x <= b}`` or finite
point clouds.  Normal cones are finitely generated (generators plus a
lineality basis); for a convex polyhedron the cone at a boundary point is
spanned by the active rows, and for a union it is the intersection of the
per-piece cones at the point.

Euclidean projections onto polyhedra and distances to cones are exact: each
is one finite nonnegative least-squares solve (``_nonneg_lsq``), checked
against its optimality conditions.  Projection and emptiness are one
program, Lawson and Hanson's least-distance program (``_least_distance``),
which decides only from a certificate that checks either way: a feasible
nearest point, or a Farkas vector proving there is none.

Distances from a dual vector to a cone in the weighted dual norm
``|u*| + |v*|/gamma`` are computed through the support-function form

    d(q, C) = max { <q, u> : |u_x| <= 1, |u_y| <= 1/gamma, u in polar(C) },

which has a closed form when both factors are one-dimensional (the maximum
sits at a vertex of a polygon) and is a small smooth convex program
otherwise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
# linprog and lsq_linear are not called here; the benchmark warms and traces
# them by these names
from scipy.optimize import linprog, lsq_linear, minimize, nnls  # noqa: F401

from .errors import (
    DimensionMismatchError,
    EmptySetError,
    InputError,
    NumericError,
)
from .spaces import GammaMetric, GridSpec, as_point, make_grid

_FEAS_TOL = 1e-9


# ---------------------------------------------------------------------------
# polyhedra


class Polyhedron:
    """Convex polyhedron ``{x : A x <= b}``."""

    def __init__(self, A, b):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        if A.shape[0] != b.shape[0]:
            raise DimensionMismatchError(
                f"A has {A.shape[0]} rows but b has {b.shape[0]} entries"
            )
        self.A = A
        self.b = b
        self._empty = None

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    def __repr__(self):
        return f"Polyhedron(m={self.A.shape[0]}, n={self.dim})"

    def contains(self, x, tol: float = _FEAS_TOL) -> bool:
        x = as_point(x)
        if x.shape[0] != self.dim:
            raise DimensionMismatchError("point dim does not match polyhedron")
        scale = 1.0 + np.linalg.norm(self.A, axis=1)
        return bool(np.all(self.A @ x - self.b <= tol * scale))

    def is_empty(self) -> bool:
        """Whether no ``x`` has ``A x <= b``, decided (and cached) by the
        least-distance program that projects, with a certificate either way."""
        if self._empty is None:
            self._empty = _least_distance(self.A, self.b) is None
        return self._empty

    def active_rows(self, x, act_tol: float = 1e-8) -> np.ndarray:
        """Indices of rows active at ``x`` (tolerance relative to row norms)."""
        x = as_point(x)
        scale = 1.0 + np.linalg.norm(self.A, axis=1)
        return np.nonzero(np.abs(self.A @ x - self.b) <= act_tol * scale)[0]

    def vertices(self, tol: float = 1e-8) -> np.ndarray:
        """Vertices by active-set enumeration (intended for small instances)."""
        n, m = self.dim, self.A.shape[0]
        verts: list[np.ndarray] = []
        for idx in itertools.combinations(range(m), n):
            Asub = self.A[list(idx)]
            if abs(np.linalg.det(Asub)) < 1e-12:
                continue
            v = np.linalg.solve(Asub, self.b[list(idx)])
            if self.contains(v, tol) and not any(
                np.linalg.norm(v - w) < 1e-9 for w in verts
            ):
                verts.append(v)
        return np.array(verts) if verts else np.zeros((0, n))


def _nonneg_lsq(B, v) -> np.ndarray:
    """argmin ``|B c - v|`` over ``c >= 0``, by Lawson and Hanson's finite
    active-set method, its answer checked against the optimality conditions.

    An answer that fails the check, or a run that does not finish, is
    replaced by ``_nonneg_lsq_enum``; ``NumericError`` when that answer
    fails the check too.
    """
    try:
        c = nnls(B, v)[0]
    except RuntimeError:
        c = None
    if c is not None and _is_nonneg_lsq_optimal(B, v, c):
        return c
    c = _nonneg_lsq_enum(B, v)
    if not _is_nonneg_lsq_optimal(B, v, c):
        raise NumericError("nonnegative least squares failed its optimality "
                           "check")
    return c


def _is_nonneg_lsq_optimal(B, v, c) -> bool:
    """KKT conditions of min ``|B c - v|`` over ``c >= 0`` at ``c >= 0``:
    ``g = B^T (B c - v)`` is >= 0, and 0 where ``c_j > 0``, within a rounding
    tolerance scaled by the largest entries of B and v and by the sum of c,
    with a floor of 1e-300 for a ``g`` that underflows (a subnormal ``v``)."""
    g = ((B @ c - v) @ B).tolist()
    a = float(np.abs(B).max())
    tol = 1e-9 * a * (float(np.abs(v).max()) + a * float(c.sum())) + 1e-300
    return all(gj >= -tol and (cj == 0 or gj <= tol)
               for gj, cj in zip(g, c.tolist()))


def _nonneg_lsq_enum(B, v) -> np.ndarray:
    """argmin ``|B c - v|`` over ``c >= 0`` by enumeration: least squares on
    every linearly independent set of columns, keeping the nonnegative
    solution of least residual (some minimizer has independent support, by
    Caratheodory's theorem).  For the few columns of the cones and
    least-distance programs here."""
    m, k = B.shape
    best, best_r = np.zeros(k), np.linalg.norm(v)
    for size in range(1, min(m, k) + 1):
        for cols in map(list, itertools.combinations(range(k), size)):
            cs, _, rank, _ = np.linalg.lstsq(B[:, cols], v, rcond=None)
            if rank < size or np.any(cs < 0):
                continue
            r = np.linalg.norm(B[:, cols] @ cs - v)
            if r < best_r:
                best, best_r = np.zeros(k), r
                best[cols] = cs
    return best


def _least_distance(A, h) -> np.ndarray | None:
    """Least-norm ``z`` with ``A z <= h``, or ``None`` when there is none.

    Lawson and Hanson's program (*Solving Least Squares Problems*, ch. 23)
    on rows scaled by powers of two to norms in [1/2, 1) and ``h`` to entries
    of at most 1, for ``z / s``, so it is as accurate far from the origin as
    near it: with ``E = [-A^T; -h^T]`` and ``r = E c - e_last`` at the
    nonnegative least-squares ``c``, ``z / s = -r[:n] / r[n]``.  The sign of
    ``r[n]`` can be rounding and decides nothing: ``z`` is returned only if
    ``z / s`` passes ``Polyhedron.contains`` on the scaled rows, ``None`` only
    if ``y = c / sum(c)`` is a Farkas vector, ``h.y < 0`` with
    ``|A^T y| <= 1e-9 (-h.y)`` (no feasible ``|z / s| <= 1e9``); else
    ``NumericError``.
    """
    m, n = A.shape
    if m == 0:
        return np.zeros(n)
    d = np.ldexp(1.0, np.frexp(np.linalg.norm(A, axis=1))[1])
    s = math.ldexp(1.0, max(0, math.frexp(float(np.abs(h / d).max()))[1]))
    A, h = A / d[:, None], h / (d * s)
    E, f = np.vstack([-A.T, -h]), np.eye(n + 1)[n]
    c = _nonneg_lsq(E, f)
    r = E @ c - f
    if r[n] < 0 and Polyhedron(A, h).contains(-r[:n] / r[n]):
        return -r[:n] / r[n] * s
    hc = float(h @ c)  # the Farkas test is the same for c as for c / sum(c)
    if hc < 0 and np.linalg.norm(A.T @ c) <= 1e-9 * -hc:
        return None
    raise NumericError("least-distance problem has neither a feasible point "
                       "nor a Farkas certificate")


def project_polyhedron(x, Q: Polyhedron) -> np.ndarray:
    """Euclidean projection of ``x`` onto ``Q``: ``x`` plus the least-norm
    ``z`` with ``A z <= b - A x``; ``EmptySetError`` when there is none."""
    x = as_point(x)
    if Q.contains(x, 1e-10):
        return x.copy()
    z = _least_distance(Q.A, Q.b - Q.A @ x)
    if z is None:
        raise EmptySetError("cannot project onto an empty polyhedron")
    return x + z


# ---------------------------------------------------------------------------
# regions


class PolyUnion:
    """Finite union of convex polyhedra sharing one ambient dimension."""

    def __init__(self, pieces):
        pieces = list(pieces)
        dims = {p.dim for p in pieces}
        if len(dims) > 1:
            raise DimensionMismatchError("union pieces must share one dimension")
        self.pieces = pieces
        self._dim = dims.pop() if dims else 0

    @property
    def dim(self) -> int:
        return self._dim

    def nonempty_pieces(self):
        return [p for p in self.pieces if not p.is_empty()]

    def contains(self, x, tol: float = _FEAS_TOL) -> bool:
        return any(p.contains(x, tol) for p in self.pieces)


class PointCloud:
    """Finite point set, duplicate-free under tolerance."""

    def __init__(self, points, dedupe_tol: float = 1e-12):
        pts = np.asarray(points, dtype=float)
        if pts.size == 0:
            pts = pts.reshape(0, 0)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.shape[0] > 1 and dedupe_tol > 0:
            keep = [0]
            for i in range(1, pts.shape[0]):
                if np.min(np.linalg.norm(pts[keep] - pts[i], axis=1)) > dedupe_tol:
                    keep.append(i)
            pts = pts[keep]
        self.points = pts

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def contains(self, x, tol: float = _FEAS_TOL) -> bool:
        x = as_point(x)
        if self.points.shape[0] == 0:
            return False
        return bool(np.min(np.linalg.norm(self.points - x, axis=1)) <= tol)


def dist_to_region(x, region) -> tuple[float, np.ndarray | None]:
    """Exact distance from ``x`` to a polyhedral union or a point cloud, and
    a nearest point; ``(inf, None)`` for an empty region (d(x, empty) = inf).
    """
    x = as_point(x)
    if isinstance(region, PointCloud):
        if region.points.shape[0] == 0:
            return np.inf, None
        d = np.linalg.norm(region.points - x, axis=1)
        i = int(np.argmin(d))
        return float(d[i]), region.points[i]
    if isinstance(region, PolyUnion):
        best, best_pt = np.inf, None
        for piece in region.nonempty_pieces():
            q = project_polyhedron(x, piece)
            d = float(np.linalg.norm(q - x))
            if d < best:
                best, best_pt = d, q
        return best, best_pt
    raise InputError(f"unsupported region type {type(region).__name__}")


def region_sample_points(region, grid: GridSpec | None = None) -> np.ndarray:
    """Representative points of a region for scanning.

    Clouds return their points; polyhedral unions project the grid points onto
    each piece (plus vertices), so boundary structure is represented exactly.
    """
    if isinstance(region, PointCloud):
        return region.points
    if isinstance(region, PolyUnion):
        pts: list[np.ndarray] = []
        for piece in region.nonempty_pieces():
            pts.extend(piece.vertices())
            if grid is not None:
                for g in make_grid(grid):
                    if piece.contains(g):
                        pts.append(np.asarray(g, dtype=float))
                    else:
                        pts.append(project_polyhedron(g, piece))
        if not pts:
            return np.zeros((0, region.dim))
        return PointCloud(np.array(pts), dedupe_tol=1e-10).points
    raise InputError(f"unsupported region type {type(region).__name__}")


# ---------------------------------------------------------------------------
# cones


@dataclass
class ConeRep:
    """Finitely generated cone: conic hull of ``generators`` plus the span of
    ``lineality`` rows.  ``empty=True`` encodes the empty cone (point outside
    the set); the zero cone has no generators but is nonempty."""

    generators: np.ndarray
    lineality: np.ndarray
    empty: bool = False

    @classmethod
    def make(cls, generators=None, lineality=None, dim=None,
             empty: bool = False) -> "ConeRep":
        if generators is None or len(generators) == 0:
            if dim is None and lineality is not None and len(lineality):
                dim = len(np.atleast_2d(lineality)[0])
            generators = np.zeros((0, dim))
        else:
            generators = np.atleast_2d(np.asarray(generators, dtype=float))
            dim = generators.shape[1]
        if lineality is None or len(lineality) == 0:
            lineality = np.zeros((0, dim))
        else:
            lineality = np.atleast_2d(np.asarray(lineality, dtype=float))
        return cls(generators=generators, lineality=lineality, empty=empty)

    @classmethod
    def empty_cone(cls, dim: int) -> "ConeRep":
        return cls.make(dim=dim, empty=True)

    @property
    def dim(self) -> int:
        return self.generators.shape[1]

    def is_trivial(self) -> bool:
        return not self.empty and self.generators.shape[0] == 0 and self.lineality.shape[0] == 0

    def basis_matrix(self) -> np.ndarray:
        """Columns: generators (coefficients >= 0) then lineality (free)."""
        return np.vstack([self.generators, self.lineality]).T

    def euclidean_distance(self, v) -> float:
        """Euclidean distance from ``v`` to the cone (inf if empty)."""
        v = as_point(v)
        if self.empty:
            return np.inf
        if self.generators.shape[0] + self.lineality.shape[0] == 0:
            return float(np.linalg.norm(v))
        # the columns [G; L; -L] generate the cone with coefficients >= 0
        B = self.polar_halfspaces().T
        return float(np.linalg.norm(B @ _nonneg_lsq(B, v) - v))

    def contains(self, v, tol: float = 1e-9) -> bool:
        return not self.empty and self.euclidean_distance(v) <= tol

    def polar_halfspaces(self) -> np.ndarray:
        """Rows ``r`` of the polar's halfspace form ``{u : r.u <= 0}``... i.e.
        the polar of this cone is ``{u : G u <= 0, L u = 0}`` returned as the
        stacked matrix ``[G; L; -L]``."""
        return np.vstack([self.generators, self.lineality, -self.lineality])


def _nullspace(M: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of the nullspace, as rows."""
    if M.size == 0:
        n = M.shape[1]
        return np.eye(n)
    _, s, vt = np.linalg.svd(M)
    rank = int(np.sum(s > tol * max(M.shape) * (s[0] if s.size else 1.0)))
    return vt[rank:]


def cone_rays_from_halfspaces(M: np.ndarray, n: int, tol: float = 1e-9) -> ConeRep:
    """V-form of ``{v in R^n : M v <= 0}`` for small dimensions (n <= 3).

    The lineality space is the nullspace of M; extreme rays are enumerated on
    the orthogonal complement by intersecting n-1 facet planes at a time.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float)) if M is not None and len(M) else np.zeros((0, n))
    if n > 3 and M.shape[0] > 0:
        raise InputError("cone ray enumeration supports dimension <= 3")
    lin = _nullspace(M)
    W = _nullspace(lin) if lin.shape[0] else np.eye(n)
    k = W.shape[0]
    rays: list[np.ndarray] = []
    if k > 0:
        Mw = M @ W.T  # constraints expressed in the complement coordinates
        cands: list[np.ndarray] = []
        if k == 1:
            cands = [np.array([1.0]), np.array([-1.0])]
        else:
            rows = range(Mw.shape[0])
            for idx in itertools.combinations(rows, k - 1):
                ns = _nullspace(Mw[list(idx)])
                if ns.shape[0] != 1:
                    continue
                cands.extend([ns[0], -ns[0]])
        for c in cands:
            if np.all(Mw @ c <= tol):
                r = W.T @ c
                r = r / np.linalg.norm(r)
                if not any(np.linalg.norm(r - q) < 1e-8 for q in rays):
                    rays.append(r)
    return ConeRep.make(generators=np.array(rays) if rays else None, lineality=lin if lin.shape[0] else None, dim=n)


def intersect_cones(c1: ConeRep, c2: ConeRep) -> ConeRep:
    """Intersection of two finitely generated cones (dimension <= 3).

    Uses the double-polar route: V-form of each polar, then the polar of the
    sum, enumerated back to generators.
    """
    if c1.empty or c2.empty:
        return ConeRep.empty_cone(c1.dim)
    n = c1.dim
    if c2.dim != n:
        raise DimensionMismatchError("cones live in different dimensions")
    polar1 = cone_rays_from_halfspaces(c1.polar_halfspaces(), n)
    polar2 = cone_rays_from_halfspaces(c2.polar_halfspaces(), n)
    gens = np.vstack([polar1.polar_halfspaces()[: polar1.generators.shape[0]],
                      polar1.lineality, -polar1.lineality,
                      polar2.generators, polar2.lineality, -polar2.lineality])
    # (C1 n C2) = polar(C1^o + C2^o); C1^o + C2^o is generated by `gens`
    return cone_rays_from_halfspaces(gens, n)


def normal_cone_at(region, x, act_tol: float = 1e-8) -> ConeRep:
    """Normal cone to a polyhedron or a polyhedral union at a point.

    Convex polyhedron: conic hull of the active rows.  Union: intersection of
    the per-piece cones over pieces containing the point.  A point outside
    the region yields the empty cone (flagged, not an error).
    """
    x = as_point(x)
    if isinstance(region, Polyhedron):
        region = PolyUnion([region])
    if not isinstance(region, PolyUnion):
        raise InputError(f"unsupported region type {type(region).__name__}")
    cones = []
    for piece in region.nonempty_pieces():
        if not piece.contains(x, act_tol):
            continue
        act = piece.active_rows(x, act_tol)
        cones.append(ConeRep.make(generators=piece.A[act] if act.size else None,
                                  dim=piece.dim))
    if not cones:
        return ConeRep.empty_cone(region.dim)
    cone = cones[0]
    for other in cones[1:]:
        cone = intersect_cones(cone, other)
    return cone


def _unit_directions(n: int, count: int) -> np.ndarray:
    """Deterministic low-discrepancy unit vectors."""
    if n == 1:
        return np.array([[1.0], [-1.0]])
    if n == 2:
        th = np.linspace(0.0, 2 * np.pi, count, endpoint=False)
        return np.stack([np.cos(th), np.sin(th)], axis=1)
    # golden-angle spiral on S^2, then pad for n > 3 with coordinate signs
    if n == 3:
        i = np.arange(count) + 0.5
        phi = np.arccos(1 - 2 * i / count)
        theta = np.pi * (1 + 5**0.5) * i
        return np.stack(
            [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)],
            axis=1,
        )
    dirs = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        dirs.extend([e, -e])
    rng = np.random.default_rng(0)  # fixed seed: deterministic
    extra = rng.normal(size=(count, n))
    extra /= np.linalg.norm(extra, axis=1, keepdims=True)
    return np.vstack([dirs, extra])


def norm_subdifferential(y, base):
    """Subdifferential of ``|. - base|`` at ``y``.

    Returns the string marker ``"unit-ball"`` at ``y == base`` and the
    normalized difference otherwise.
    """
    y, base = as_point(y), as_point(base)
    d = y - base
    nd = np.linalg.norm(d)
    if nd == 0:
        return "unit-ball"
    return d / nd


# ---------------------------------------------------------------------------
# weighted dual-norm distances to cones


def gamma_dual_distance(q, cone: ConeRep, g: GammaMetric, nx: int,
                        with_direction: bool = False):
    """Distance from ``q=(q_x, q_y)`` to the cone in the norm |.|+|.|/gamma.

    ``nx`` is the length of the first block.  Computed in support form; in
    closed form when both blocks are one-dimensional, by SLSQP otherwise.
    With ``with_direction`` the maximizing primal direction (an element of
    the polar of the cone with ``|u_x| <= 1``, ``|u_y| <= 1/gamma``) is
    returned alongside the value.
    """
    q = as_point(q)
    n = q.shape[0]
    if cone.empty:
        return (np.inf, None) if with_direction else np.inf
    ny = n - nx
    if cone.dim != n:
        raise DimensionMismatchError("cone and point dimensions differ")
    M = cone.polar_halfspaces()  # u in polar(C): M u <= 0
    if nx == 1 and ny == 1:
        # 0 when q is in the cone: the origin is the first vertex
        val, u = _support_2d(q, M, 1.0 / g.gamma)
    elif cone.euclidean_distance(q) <= 1e-13:
        val, u = 0.0, np.zeros(n)
    else:
        val, u = _support_slsqp(q, M, g, nx)
    return (val, u) if with_direction else val


def _polar_vertices(M, c: float = math.inf) -> np.ndarray:
    """Vertices of ``P = {u in R^2 : M u <= 0, |u_x| <= 1, |u_y| <= c}`` and
    of its halves ``u_y >= 0`` and ``u_y <= 0``.

    A vertex is where two of the lines ``M_i u = 0`` (all through the
    origin), ``u_x = +-1``, ``u_y = +-c`` and, for the halves, ``u_y = 0``
    meet.  The candidates are, in this order: the origin, the box corners,
    each line ``M_i u = 0`` cut by the box edges, and ``(+-1, 0)``; those
    outside ``P`` are dropped.  With ``c`` infinite there are no corners and
    no edges ``u_y = +-c``.
    """
    bounded = math.isfinite(c)
    pts = [(0.0, 0.0)]
    if bounded:
        pts += [(-1.0, -c), (-1.0, c), (1.0, -c), (1.0, c)]
    for mx, my in M:
        if my != 0:
            pts += [(1.0, -mx / my), (-1.0, mx / my)]
        if mx != 0 and bounded:
            pts += [(-my * c / mx, c), (my * c / mx, -c)]
    pts += [(-1.0, 0.0), (1.0, 0.0)]
    P = np.array(pts)
    ok = (np.abs(P[:, 0]) <= 1.0) & (np.abs(P[:, 1]) <= c)
    # a point on the line M_i u = 0 meets it only up to rounding
    ok &= np.all(M @ P.T <= 1e-12 * (np.abs(M) @ np.abs(P).T), axis=0)
    return P[ok]


def _support_2d(q, M, c: float):
    """max q.u over ``{M u <= 0, |u_x| <= 1, |u_y| <= c}`` and a maximizer.

    A linear function attains its maximum over the (bounded) polygon at a
    vertex; ties go to the first vertex in ``_polar_vertices``' order.
    """
    P = _polar_vertices(M, c)
    vals = P @ q
    i = int(np.argmax(vals))
    return float(max(0.0, vals[i])), P[i]


def _support_slsqp(q, M, g: GammaMetric, nx: int):
    n = q.shape[0]
    gamma = g.gamma

    def neg_obj(u):
        return -float(q @ u)

    cons = [
        {"type": "ineq", "fun": lambda u: 1.0 - u[:nx] @ u[:nx],
         "jac": lambda u: np.concatenate([-2 * u[:nx], np.zeros(n - nx)])},
        {"type": "ineq", "fun": lambda u: 1.0 / gamma**2 - u[nx:] @ u[nx:],
         "jac": lambda u: np.concatenate([np.zeros(nx), -2 * u[nx:]])},
    ]
    if M.shape[0]:
        cons.append({"type": "ineq", "fun": lambda u: -(M @ u), "jac": lambda u: -M})

    best = 0.0
    best_u = np.zeros(n)
    starts = [np.zeros(n)]
    scaled = q.copy()
    if np.linalg.norm(scaled):
        s = scaled / np.linalg.norm(scaled)
        starts.append(s * 0.5)
        starts.append(-s * 0.5)
    for u0 in starts:
        res = minimize(
            neg_obj, u0, jac=lambda u: -q, constraints=cons, method="SLSQP",
            options={"maxiter": 400, "ftol": 1e-14},
        )
        if res.success or res.status == 0:
            u = res.x
            feas = (
                u[:nx] @ u[:nx] <= 1 + 1e-9
                and u[nx:] @ u[nx:] <= 1 / gamma**2 + 1e-9
                and (M.shape[0] == 0 or np.all(M @ u <= 1e-8))
            )
            if feas and float(q @ u) > best:
                best = float(q @ u)
                best_u = u
    return best, best_u


def cone_min_norm(
    cone: ConeRep,
    nx: int,
    y_target: np.ndarray,
    eta: float,
) -> float:
    """min |w_x| over cone elements ``w=(w_x, w_y)`` with ``|w_y - y_target| <= eta``.

    Returns +inf when no cone element meets the ball constraint (the check is
    then vacuous).  In closed form when both blocks are one-dimensional, by
    SLSQP otherwise.  Used for coderivative distances: the coderivative of F
    at (x, y) applied to v* collects the x-parts of cone elements with
    y-part ``-v*``.
    """
    if cone.empty:
        return np.inf
    n = cone.dim
    ny = n - nx
    y_target = as_point(y_target)
    if y_target.shape[0] != ny:
        raise DimensionMismatchError("target dim mismatch in cone_min_norm")
    k, m = cone.generators.shape[0], cone.lineality.shape[0]
    if k + m == 0:
        # cone = {0}: w_y = 0
        return 0.0 if np.linalg.norm(y_target) <= eta + 1e-12 else np.inf
    if nx == 1 and ny == 1:
        return _min_norm_2d(cone.polar_halfspaces(), float(y_target[0]), eta)
    B = cone.basis_matrix()  # n x (k+m)
    By, Bx = B[nx:], B[:nx]
    # nearest cone y-part to the target: the y-rows of the columns [G; L; -L]
    Bp = cone.polar_halfspaces().T[nx:]
    c = _nonneg_lsq(Bp, y_target)
    if np.linalg.norm(Bp @ c - y_target) > eta + 1e-10:
        return np.inf
    c0 = np.concatenate([c[:k], c[k:k + m] - c[k + m:]])
    return _min_norm_slsqp(Bx, By, y_target, eta, k, m, c0)


def _min_norm_2d(M, y: float, eta: float) -> float:
    """min |w_x| over ``w`` with ``|w_y - y| <= eta`` in the cone generated
    by the rows of ``M`` (whose polar is ``{v : M v <= 0}``), both blocks
    one-dimensional.

    Solved through its LP dual

        max { y v_y - eta |v_y| : M v <= 0, |v_x| <= 1 }.

    The dual is unbounded, and the primal infeasible (+inf), exactly when
    the polar holds the ray (0, +-1) along which the objective grows;
    otherwise its maximum sits at a vertex of one of the halves
    ``v_y >= 0`` and ``v_y <= 0``, where the objective is linear.
    """
    lo, hi = y - eta, y + eta
    if (lo > 0 and np.all(M[:, 1] <= 0)) or (hi < 0 and np.all(M[:, 1] >= 0)):
        return np.inf
    vy = _polar_vertices(M)[:, 1]
    return float(max(0.0, np.max(np.where(vy >= 0, lo * vy, hi * vy))))


def _min_norm_slsqp(Bx, By, y_target, eta, k, m, c0) -> float:
    nv = k + m

    def obj(c):
        w = Bx @ c
        return float(w @ w)

    def obj_jac(c):
        return 2 * Bx.T @ (Bx @ c)

    def ball(c):
        r = By @ c - y_target
        return float(eta**2 - r @ r)

    def ball_jac(c):
        r = By @ c - y_target
        return -2 * By.T @ r

    cons = [{"type": "ineq", "fun": ball, "jac": ball_jac}]
    bounds = [(0.0, None)] * k + [(None, None)] * m
    best = np.inf
    for start in (c0, np.zeros(nv)):
        res = minimize(obj, start, jac=obj_jac, constraints=cons, bounds=bounds,
                       method="SLSQP", options={"maxiter": 400, "ftol": 1e-16})
        c = res.x
        if ball(c) >= -1e-9 and np.all(c[:k] >= -1e-10):
            best = min(best, float(np.linalg.norm(Bx @ c)))
    return best
