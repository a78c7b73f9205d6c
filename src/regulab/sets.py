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

in closed form: at a vertex of a polygon when both factors are
one-dimensional, else face by face of the polar, each face a subspace on
which one scalar search solves the problem.  Every answer comes with a
primal-dual bracket that must close, else ``NumericError``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
# linprog, lsq_linear and minimize are not called here; bench/worker.py warms
# them and bench/tracing.py traces them by these names
from scipy.optimize import linprog, lsq_linear, minimize, nnls  # noqa: F401

from .errors import (
    DimensionMismatchError,
    EmptySetError,
    InputError,
    NumericError,
)
from .spaces import GammaMetric, GridSpec, as_point, make_grid

_FEAS_TOL = 1e-9
# the multipliers that the closed forms on subspace cones search lie in
# [1 / _LAM_MAX, _LAM_MAX]; the two ends stand for the limits 0 and infinity
_LAM_MAX = 2.0 ** 128
_MAX_FACES = 2 ** 12  # the most faces that _face_search enumerates


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
        scale = np.maximum(1.0, abs(self.b)) + np.linalg.norm(self.A, axis=1)
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
    if ``y = c / sum(c)``, or else the exact combination of the rows in the
    support of ``c`` that cancels (``_exact_null_vector``), is a Farkas
    vector, ``h.y < 0`` with ``|A^T y| <= 1e-9 (-h.y)`` (no feasible
    ``|z / s| <= 1e9``); else ``NumericError``.
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
    if _is_farkas(A, h, c):
        return None
    # far from the origin the gap can be near rounding of c; the exact
    # combination of the rows c uses can still check
    S = np.flatnonzero(c > 0)
    y = _exact_null_vector(A[S].T)
    if y is not None and _is_farkas(A[S], h[S], y):
        return None
    raise NumericError("least-distance problem has neither a feasible point "
                       "nor a Farkas certificate")


def _is_farkas(A, h, y) -> bool:
    """Whether ``y >= 0`` proves ``{z : A z <= h}`` empty: ``h.y < 0`` and
    ``|A^T y| <= 1e-9 (-h.y)`` (the same for ``y`` as for ``y / sum(y)``)."""
    hy = float(h @ y)
    return bool(np.all(y >= 0)) and hy < 0 and \
        np.linalg.norm(A.T @ y) <= 1e-9 * -hy


def _exact_null_vector(B) -> np.ndarray | None:
    """The nonzero ``y`` with ``B y = 0``, by Gauss-Jordan elimination in
    exact rational arithmetic, as coprime integers (converted to floats)
    with a positive sum; ``None`` unless the nullspace is one-dimensional.
    Integer data give a ``y`` whose products with ``B`` round nowhere."""
    rows = [[Fraction(v) for v in row] for row in B.tolist()]
    k, pivots = B.shape[1], []
    for j in range(k):
        r = len(pivots)
        i = next((i for i in range(r, len(rows)) if rows[i][j]), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        top = [v / rows[r][j] for v in rows[r]]
        rows = [top if i == r else [a - row[j] * b for a, b in zip(row, top)]
                for i, row in enumerate(rows)]
        pivots.append(j)
    if k - len(pivots) != 1:
        return None
    free = next(j for j in range(k) if j not in pivots)
    y = [Fraction(1 if j == free else 0) for j in range(k)]
    for row, j in zip(rows, pivots):
        y[j] = -row[free]
    scale = math.lcm(*(v.denominator for v in y))
    ints = [int(v * scale) for v in y]
    g = math.gcd(*ints) * (1 if sum(ints) > 0 else -1)
    return np.array([float(v // g) for v in ints])


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
    _bases: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

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

    def face(self, S: tuple, nx: int):
        """``(polar, primal, D)``: the ``_block_basis`` of ``{u : G_S u = 0,
        L u = 0}`` and of ``span(G_S, L)``, from one SVD, and the ``D`` whose
        ``D w`` are the coefficients on ``G_S`` of a ``w`` in that span; or
        ``None`` unless ``G_S`` is independent modulo L.  Built once per cone,
        ``S`` and ``nx``: a rule's cone is often one object at every point."""
        key = (S, nx)
        if key in self._bases:
            return self._bases[key]
        if not S:
            rows, null = _orthonormal_split(self.lineality)
            D = np.zeros((0, self.dim))
        else:
            # L's orthonormal basis: its rows may depend on each other
            M = np.vstack([self.generators[list(S)], self.face((), nx)[1][0]])
            U, s, vt = np.linalg.svd(M)
            if s[-1] <= 1e-10 * self.dim * s[0]:
                self._bases[key] = None
                return None
            rows, null = vt[:M.shape[0]], vt[M.shape[0]:]
            D = (U[:len(S)] / s) @ rows  # M^T a = w has a = U diag(1/s) rows w
        self._bases[key] = _block_basis(null, nx), _block_basis(rows, nx), D
        return self._bases[key]

    def polar_halfspaces(self) -> np.ndarray:
        """``[G; L; -L]``: the polar is ``{u : G u <= 0, L u = 0}``."""
        return np.vstack([self.generators, self.lineality, -self.lineality])


def _orthonormal_split(M: np.ndarray, tol: float = 1e-10):
    """Orthonormal bases, as rows, of the row space of ``M`` and of its
    nullspace."""
    if M.size == 0:
        return np.zeros((0, M.shape[1])), np.eye(M.shape[1])
    _, s, vt = np.linalg.svd(M)
    rank = int(np.sum(s > tol * max(M.shape) * s[0]))
    return vt[:rank], vt[rank:]


def cone_rays_from_halfspaces(M: np.ndarray, n: int, tol: float = 1e-9) -> ConeRep:
    """V-form of ``{v in R^n : M v <= 0}`` for small dimensions (n <= 3).

    The lineality space is the nullspace of M; extreme rays are enumerated on
    the orthogonal complement by intersecting n-1 facet planes at a time.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float)) if M is not None and len(M) else np.zeros((0, n))
    if n > 3 and M.shape[0] > 0:
        raise InputError("cone ray enumeration supports dimension <= 3")
    lin = _orthonormal_split(M)[1]
    W = _orthonormal_split(lin)[1] if lin.shape[0] else np.eye(n)
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
                ns = _orthonormal_split(Mw[list(idx)])[1]
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

    ``nx`` is the length of the first block.  Computed in support form: at
    the vertices of a polygon when both blocks are one-dimensional, else
    face by face (``_support_faces``).  With ``with_direction`` the
    maximizing primal direction (an element of the polar of the cone with
    ``|u_x| <= 1``, ``|u_y| <= 1/gamma``) is returned alongside the value.
    ``NumericError`` when the face search's bracket does not close.
    """
    q = as_point(q)
    n = q.shape[0]
    if cone.empty:
        return (np.inf, None) if with_direction else np.inf
    if cone.dim != n:
        raise DimensionMismatchError("cone and point dimensions differ")
    if nx == 1 and n == 2:
        # 0 when q is in the cone: the origin is the first vertex
        val, u = _support_2d(q, cone.polar_halfspaces(), 1.0 / g.gamma)
    else:
        val, u = _support_faces(q, cone, nx, 1.0 / g.gamma)
    return (val, u) if with_direction else val


def _polar_vertices(M, c: float = math.inf) -> np.ndarray:
    """Vertices of ``P = {u in R^2 : M u <= 0, |u_x| <= 1, |u_y| <= c}`` and
    of its halves ``u_y >= 0`` and ``u_y <= 0``.

    A vertex is where two of the lines ``M_i u = 0`` (all through the
    origin), ``u_x = +-1``, ``u_y = +-c`` and, for the halves, ``u_y = 0``
    meet.  The candidates are, in this order: the origin, the box corners,
    each line ``M_i u = 0`` cut by the box edges, and ``(+-1, 0)``; those
    outside ``P`` are dropped.  With ``c`` infinite there are no corners and
    no edges ``u_y = +-c``.  The rows are first scaled by powers of two to
    largest entries in [1/2, 1), which changes no vertex where no entry
    underflows, and a point counts as on a line within rounding of 1e-12
    of ``|M_i| |u|`` plus 2^-1022, the smallest normal number, a tolerance
    that cannot underflow to 0: so a row with a subnormal entry keeps its
    vertices too.
    """
    bounded = math.isfinite(c)
    pts = [(0.0, 0.0)]
    if bounded:
        pts += [(-1.0, -c), (-1.0, c), (1.0, -c), (1.0, c)]
    rows = []
    for mx, my in M.tolist():  # floats: a slope that overflows is inf, quietly
        e = math.frexp(max(abs(mx), abs(my)))[1]
        mx, my = math.ldexp(mx, -e), math.ldexp(my, -e)
        rows.append((mx, my))
        if my != 0:
            pts += [(1.0, -mx / my), (-1.0, mx / my)]
        if mx != 0 and bounded:
            pts += [(-my * c / mx, c), (my * c / mx, -c)]
    pts += [(-1.0, 0.0), (1.0, 0.0)]
    M, P = np.array(rows).reshape(-1, 2), np.array(pts)
    P = P[(np.abs(P[:, 0]) <= 1.0) & (np.abs(P[:, 1]) <= c)]
    # a point on the line M_i u = 0 meets it only up to rounding; with c
    # infinite a slope that overflowed is left, and 0 * inf fails the test
    with np.errstate(invalid="ignore"):
        on = np.all(M @ P.T <= 1e-12 * (np.abs(M) @ np.abs(P).T)
                    + 2.0 ** -1022, axis=0)
    return P[on]


def _support_2d(q, M, c: float):
    """max q.u over ``{M u <= 0, |u_x| <= 1, |u_y| <= c}`` and a maximizer.

    A linear function attains its maximum over the (bounded) polygon at a
    vertex; ties go to the first vertex in ``_polar_vertices``' order.
    """
    P = _polar_vertices(M, c)
    vals = P @ q
    i = int(np.argmax(vals))
    return float(max(0.0, vals[i])), P[i]


def _support_faces(q, cone: ConeRep, nx: int, c: float):
    """max q.u over the polar ``{G u <= 0, L u = 0}`` with ``|u_x| <= 1``
    and ``|u_y| <= c``, and a maximizer, by ``_face_search``: a face's
    maximizer ``u`` (``_support_subspace``) bounds it below if ``G_i u <=
    1e-12 |G_i| |u|`` for every row.  It is ``min |q_x - w_x| + c |q_y -
    w_y|`` over ``w`` in the cone, and the ``w = G_S^T a + L^T t`` fitting
    ``q`` by nonnegative least squares on ``[G_S, L, -L]`` and the normals
    of the balls active at ``u`` (within 1e-9) bounds it above, as does the
    face S = () itself: it contains the polar."""
    G, L = cone.generators, cone.lineality
    G_tol = 1e-12 * np.linalg.norm(G, axis=1) if len(G) else None

    def bounds(S, face):
        low, up, u = _support_subspace(q, face[0], c)
        if len(G) and not np.all(G @ u <= G_tol * np.linalg.norm(u)):
            low = -math.inf
        if S:
            B = np.vstack([G[list(S)], L, -L]).T
            ux = u * (np.arange(len(u)) < nx)  # the ball normals (u_x, 0)
            balls = [b for b, r2 in ((ux, 1.0), (u - ux, c * c))  # (0, u_y)
                     if b @ b >= r2 * (1 - 1e-9)]
            r = q - B @ _nonneg_lsq(np.column_stack([B, *balls]),
                                    q)[:B.shape[1]]
            up = np.linalg.norm(r[:nx]) + c * np.linalg.norm(r[nx:])
        yield low, up, u

    lower, _, u = _face_search(cone, nx, bounds)
    return lower, u


def _block_basis(R, nx: int):
    """An orthonormal basis ``G`` (rows) of the row space of the orthonormal
    rows ``R`` whose x-parts are mutually orthogonal, and so are its y-parts,
    with the squared norms ``sx`` and ``sy = 1 - sx`` of those parts:
    ``u = G^T w`` has ``|u_x|^2 = sum sx_i w_i^2`` and ``|u_y|^2 = sum sy_i
    w_i^2``.  Both norms are computed, not one from the other, so that each
    is accurate where it is small."""
    Rx = R[:, :nx]
    G = np.linalg.eigh(Rx @ Rx.T)[1].T @ R
    return G, (G[:, :nx] ** 2).sum(axis=1), (G[:, nx:] ** 2).sum(axis=1)


def _is_closed(lower: float, upper: float, tol: float) -> bool:
    return upper < math.inf and upper - lower <= tol * max(1.0, upper)


def _face_search(cone: ConeRep, nx: int, bounds):
    """The closest ``(lower, upper, u)`` of the bounds, and the point of the
    lower one, that ``bounds(S, cone.face(S, nx))`` yields over the sets S
    of generator rows independent modulo L, smallest first.  An optimum lies
    on a face ``cone(G_S) + L`` or ``{G_S u = 0, L u = 0}`` for such an S
    (Caratheodory's theorem), where the bounds meet.  Stops once they are
    within 1e-13; ``NumericError`` unless they end within 1e-10 (relative
    above 1), or above ``_MAX_FACES`` sets to try."""
    k = cone.generators.shape[0]
    sizes = range(min(k, cone.dim - cone.face((), nx)[1][0].shape[0]) + 1)
    if sum(math.comb(k, j) for j in sizes) > _MAX_FACES:
        raise NumericError(f"a cone with {k} generators has more than "
                           f"{_MAX_FACES} faces to enumerate")
    lower, upper, best = -math.inf, math.inf, None
    for S in itertools.chain.from_iterable(
            itertools.combinations(range(k), j) for j in sizes):
        if (face := cone.face(S, nx)) is None:
            continue
        for low, up, u in bounds(S, face):
            if low > lower:
                lower, best = low, u
            upper = min(upper, up)
        if _is_closed(lower, upper, 1e-13):
            break
    if not _is_closed(lower, upper, 1e-10):
        raise NumericError(f"closed-form bracket [{lower!r}, {upper!r}] did "
                           "not close")
    return lower, upper, best


def _bracket_search(at, ends=()):
    """``(lower, upper, u)``: the closest bounds on the optimum of a
    subspace problem that ``at`` gives over multipliers ``lam > 0``.

    ``at(lam)`` returns ``(f, df/dlam, lower, upper, u)``: bounds valid at
    every ``lam`` (nan or inf where undefined), the point ``u`` whose value
    is ``lower``, and ``f``, which changes sign once, from negative to
    positive, where the bounds meet.  After the points ``ends``, a Newton
    search on ``f`` keeps a bracket of the sign change, all of
    ``[1 / _LAM_MAX, _LAM_MAX]`` at first, and bisects it geometrically when
    a step would leave it or would not halve the move before it (as in
    Numerical Recipes' ``rtsafe``).  A step taken from ``f < 0`` is doubled,
    and lengthened by 2^-44 of ``lam`` to get past rounding, where the
    bracket allows: so the points fall on both sides of the sign change, and
    a bound that holds only on one side closes too.  The search stops once
    the bounds are within 1e-13, the bracket is within rounding of a point,
    or after 100 steps.
    """
    lower, upper, u = -math.inf, math.inf, None

    def take(lam):
        nonlocal lower, upper, u
        f, df, low, up, u_lam = at(lam)
        if low > lower:
            lower, u = low, u_lam
        upper = min(upper, up)
        return f, df

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for lam in ends:
            take(lam)
        lo, hi, lam, moved = 1 / _LAM_MAX, _LAM_MAX, 1.0, math.inf
        for _ in range(100):
            if _is_closed(lower, upper, 1e-13) or hi - lo <= 2.0 ** -50 * hi:
                break
            f, df = take(lam)
            if f < 0:
                lo = lam
            else:
                hi = lam
            step = -f / df
            if lo < lam + step < hi and abs(step) <= moved / 2:
                new = lam + step
                if f < 0 and new + step + 2.0 ** -44 * lam < hi:
                    new += step + 2.0 ** -44 * lam
            else:
                new = math.sqrt(lo * hi)
            lam, moved = new, abs(new - lam)
    return lower, upper, u


def _support_subspace(q, basis, c: float):
    """``(lower, upper, u)``: bounds on max q.u over ``u`` in a subspace
    with ``|u_x| <= 1`` and ``|u_y| <= c``, and a maximizer ``u`` of value
    ``lower``; 0 when ``q`` is within 1e-13 of the orthogonal complement.

    In the subspace's basis ``basis = (G, sx, sy)`` from ``_block_basis``,
    with ``h = G q``: for every ``lam > 0``, the Lagrangian dual value at
    the multipliers ``rho (1, lam)`` of the two balls, minimized over
    ``rho``, bounds the maximum above by ``sqrt((1 + lam c^2) sum h_i^2 /
    E_i)``, ``E = sx + lam sy``; ``w = h / E`` scaled onto the nearer ball
    edge is a feasible ``u`` that bounds it below.  The bounds meet where
    ``c^2 |w_x|^2 - |w_y|^2``, the sign of the upper one's derivative,
    changes sign, or in the limit ``lam -> 0`` or ``lam -> inf``, for which
    the ends of the search range stand.
    """
    G, sx, sy = basis
    h = G @ q
    if np.linalg.norm(h) <= 1e-13:
        return 0.0, 0.0, np.zeros(q.shape[0])
    c2 = c * c

    def at(lam):
        E = sx + lam * sy
        w = h / E
        P, Q = sx @ (w * w), sy @ (w * w)
        u = G.T @ w * (c / max(c * math.sqrt(P), math.sqrt(Q)))
        return (c2 * P - Q, -2 * ((c2 * sx - sy) * sy / E) @ (w * w),
                float(q @ u), math.sqrt((1 + lam * c2) * (h @ w)), u)

    return _bracket_search(at, ends=(1 / _LAM_MAX, _LAM_MAX))


def cone_min_norm(cone: ConeRep, nx: int, y_target: np.ndarray,
                  eta: float) -> float:
    """min |w_x| over cone elements ``w=(w_x, w_y)`` with ``|w_y - y_target| <= eta``.

    Returns +inf when no cone element meets the ball constraint (the check is
    then vacuous).  At the vertices of a polygon when both blocks are
    one-dimensional, else face by face (``_min_norm_faces``); ``NumericError``
    when the face search's bracket does not close.  Used for coderivative
    distances: the coderivative of F at (x, y) applied to v* collects the
    x-parts of cone elements with y-part ``-v*``.
    """
    if cone.empty:
        return np.inf
    ny = cone.dim - nx
    y_target = as_point(y_target)
    if y_target.shape[0] != ny:
        raise DimensionMismatchError("target dim mismatch in cone_min_norm")
    k, m = cone.generators.shape[0], cone.lineality.shape[0]
    if k + m == 0:
        # cone = {0}: w_y = 0
        return 0.0 if np.linalg.norm(y_target) <= eta + 1e-12 else np.inf
    if nx == 1 and ny == 1:
        return _min_norm_2d(cone.polar_halfspaces(), float(y_target[0]), eta)
    # nearest cone y-part to the target: the y-rows of the columns [G; L; -L]
    Bp = cone.polar_halfspaces().T[nx:]
    c = _nonneg_lsq(Bp, y_target)
    if np.linalg.norm(Bp @ c - y_target) > eta + 1e-10:
        return np.inf
    if y_target @ y_target <= eta * eta:
        return 0.0  # w = 0
    return _min_norm_faces(cone, nx, y_target, eta)


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


def _min_norm_faces(cone: ConeRep, nx: int, y, eta: float) -> float:
    """min |w_x| over ``w`` in the cone with ``|w_y - y| <= eta``, a ball
    that the cone's y-parts meet and that does not hold the origin, by
    ``_face_search``: at each ``lam`` of the search on a face
    (``_min_norm_subspace``), ``w`` bounds it above by ``|w_x|`` if in the
    ball and the cone (``D w >= -1e-12 |D_i| |w|``), and ``v = -(w_x, lam
    (w_y - y))``, orthogonal to the face, below by ``(<v_y, y> - eta |v_y|)
    / |v_x|`` (weak duality) if ``G_i v <= 1e-12 |G_i| |v|`` for every row;
    so does 0.  ``span(L)``, in the cone, and ``span(G, L)``, holding it,
    add their own upper and lower bounds."""
    G, e2 = cone.generators, eta * eta

    def bounds(S, face):
        (N, _, _), basis, D = face
        low, up, trace = _min_norm_subspace(basis, nx, y, eta)
        yield (low if len(S) == len(G) else 0.0), (math.inf if S else up), None
        if not len(G):
            return  # the one face is the cone
        D_norms, G_norms = np.linalg.norm(D, axis=1), np.linalg.norm(G, axis=1)
        for lam, z, cost, r in trace:
            w = basis[0].T @ z
            in_cone = np.all(D @ w >= -1e-12 * D_norms * np.linalg.norm(w))
            # at a large lam, w_y - y is mostly rounding: put v back onto
            # the face's orthogonal complement, where it lies
            v = -N.T @ (N @ np.concatenate([w[:nx], lam * (w[nx:] - y)]))
            vx = np.linalg.norm(v[:nx])
            in_polar = vx > 0 and np.all(G @ v <= 1e-12 * G_norms *
                                         np.linalg.norm(v))
            low = (v[nx:] @ y - eta * np.linalg.norm(v[nx:])) / vx \
                if in_polar else -math.inf
            up = math.sqrt(cost) if r <= e2 and in_cone else math.inf
            yield low, up, None

    return _face_search(cone, nx, bounds)[1]


def _min_norm_subspace(basis, nx: int, y, eta: float):
    """``(lower, upper, trace)``: bounds on min |w_x| over ``w`` in a
    subspace with ``|w_y - y| <= eta``, a ball that the y-parts of that space
    meet and that does not hold the origin, and the search's points.

    A trust-region problem (Moré and Sorensen, *Computing a trust region
    step*, 1983), in the subspace's basis ``basis = (G, sx, sy)`` from
    ``_block_basis``, with ``b = G_y y``: at the ball's multiplier ``lam``,
    ``w = G^T z`` with ``z = lam b / E``, ``E = sx + lam sy``, minimizes
    ``|w_x|^2 + lam |w_y - y|^2``, so ``|w_x|^2 + lam (|w_y - y|^2 -
    eta^2)`` bounds the square of the minimum below, and ``|w_x|`` bounds it
    above where ``w`` is in the ball.  ``|w_y - y|`` falls as ``lam`` grows,
    and the bounds meet where it equals ``eta``, or in the limit ``lam ->
    0``, where only the directions with no x-part move ``w`` (the answer is
    then 0), for which the lower end of the search range stands.  ``trace``
    lists ``(lam, z, |w_x|^2, |w_y - y|^2)`` at each ``lam`` evaluated.
    """
    yy, e2 = float(y @ y), eta * eta
    G, sx, sy = basis
    if not len(G):
        return math.inf, math.inf, []  # {0} misses the ball
    b = G[:, nx:] @ y
    trace = []

    def at(lam):
        E = sx + lam * sy
        z = lam * b / E
        cost = sx @ (z * z)
        r = yy - 2 * (b @ z) + sy @ (z * z)  # |w_y - y|^2
        trace.append((lam, z, cost, r))
        return (e2 - r, 2 * ((b * sx) ** 2 / E ** 3).sum(),
                math.sqrt(max(cost + lam * (r - e2), 0.0)),
                math.sqrt(cost) if r <= e2 else math.inf, None)

    lower, upper, _ = _bracket_search(at, ends=(1 / _LAM_MAX,))
    return lower, upper, trace
