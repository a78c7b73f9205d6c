"""Closed-set representations, projections, and normal cones.

Sets are finite unions of convex polyhedra ``{x : A x <= b}``, finite point
clouds, or closed-form samplers materialized on a grid.  Normal cones are
finitely generated (generators plus a lineality basis); for a convex
polyhedron the cone at a boundary point is spanned by the active rows, and for
a union it is the intersection of the per-piece cones at the point.

Distances from a dual vector to a cone in the weighted dual norm
``|u*| + |v*|/gamma`` are computed through the support-function form

    d(q, C) = max { <q, u> : |u_x| <= 1, |u_y| <= 1/gamma, u in polar(C) },

which is an LP when both factors are one-dimensional and a small smooth
convex program otherwise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog, lsq_linear, minimize

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
        if self._empty is None:
            res = linprog(
                np.zeros(self.dim),
                A_ub=self.A,
                b_ub=self.b,
                bounds=[(None, None)] * self.dim,
                method="highs",
            )
            self._empty = res.status == 2
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


def project_polyhedron(
    x, Q: Polyhedron, tol: float = 1e-10, max_iter: int = 10_000
) -> np.ndarray:
    """Euclidean projection of ``x`` onto ``Q``.

    Dykstra iteration over the halfspaces, followed by an active-set polish
    (equality-constrained least squares on the near-active rows).
    """
    x = as_point(x)
    if Q.is_empty():
        raise EmptySetError("cannot project onto an empty polyhedron")
    if Q.contains(x, tol):
        return x.copy()

    A, b = Q.A, Q.b
    row_norms = np.linalg.norm(A, axis=1)
    m = A.shape[0]
    z = x.copy()
    corrections = np.zeros((m, Q.dim))
    prev = None
    for _ in range(max_iter):
        for i in range(m):
            if row_norms[i] == 0:
                continue
            y = z + corrections[i]
            viol = A[i] @ y - b[i]
            if viol > 0:
                z_new = y - (viol / row_norms[i] ** 2) * A[i]
            else:
                z_new = y
            corrections[i] = y - z_new
            z = z_new
        if prev is not None and np.linalg.norm(z - prev) < tol:
            break
        prev = z.copy()
    else:
        polished = _polish_projection(x, Q, z)
        if polished is not None:
            return polished
        raise NumericError("projection did not converge", best=z)

    polished = _polish_projection(x, Q, z)
    return polished if polished is not None else z


def _polish_projection(x, Q: Polyhedron, z, act_tol: float = 1e-6):
    """Refine a near-projection by solving on the detected active set."""
    act = Q.active_rows(z, act_tol)
    best = None
    best_d = np.inf
    # try the detected active set and its subsets of size <= dim
    cand_sets = [tuple(act)]
    if len(act) > 1:
        cand_sets += list(itertools.combinations(act, min(len(act), Q.dim)))
    for idx in cand_sets:
        idx = list(idx)
        if not idx:
            q = x
        else:
            Aa, ba = Q.A[idx], Q.b[idx]
            # minimize |q - x| s.t. Aa q = ba  (KKT system)
            n, k = Q.dim, len(idx)
            K = np.zeros((n + k, n + k))
            K[:n, :n] = np.eye(n)
            K[:n, n:] = Aa.T
            K[n:, :n] = Aa
            rhs = np.concatenate([x, ba])
            try:
                sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
            except np.linalg.LinAlgError:
                continue
            q = sol[:n]
        if Q.contains(q, 1e-9):
            d = np.linalg.norm(q - x)
            if d < best_d - 1e-15:
                best, best_d = q, d
    return best


# ---------------------------------------------------------------------------
# region specifications


class RegionSpec:
    """Base class for set representations."""

    approximate = False

    @property
    def dim(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError


class PolyUnion(RegionSpec):
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


class PointCloud(RegionSpec):
    """Finite point set, duplicate-free under tolerance."""

    approximate = True

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


class Sampler(RegionSpec):
    """Deterministic membership rule evaluated on an attached grid."""

    approximate = True

    def __init__(self, rule, grid: GridSpec | None = None):
        self.rule = rule
        self.grid = grid
        self._cloud = None

    @property
    def dim(self) -> int:
        if self.grid is None:
            raise InputError("sampler region has no attached grid")
        return self.grid.dim

    def materialize(self) -> PointCloud:
        if self.grid is None:
            raise InputError("sampler region has no attached grid")
        if self._cloud is None:
            pts = make_grid(self.grid)
            mask = np.array([bool(self.rule(p)) for p in pts])
            self._cloud = PointCloud(pts[mask], dedupe_tol=0.0)
        return self._cloud


def dist_to_region(x, region: RegionSpec) -> tuple[float, np.ndarray | None]:
    """Distance from ``x`` to the region and a nearest point.

    Returns ``(inf, None)`` for an empty region (convention d(x, empty) = inf).
    Exact for polyhedral unions and clouds; grid-exact for samplers.
    """
    x = as_point(x)
    if isinstance(region, Sampler):
        region = region.materialize()
    if isinstance(region, PointCloud):
        if region.points.shape[0] == 0:
            return np.inf, None
        d = np.linalg.norm(region.points - x, axis=1)
        i = int(np.argmin(d))
        return float(d[i]), region.points[i]
    if isinstance(region, PolyUnion):
        best, best_pt = np.inf, None
        for piece in region.pieces:
            if piece.is_empty():
                continue
            q = project_polyhedron(x, piece)
            d = float(np.linalg.norm(q - x))
            if d < best:
                best, best_pt = d, q
        return best, best_pt
    raise InputError(f"unsupported region type {type(region).__name__}")


def region_sample_points(region: RegionSpec, grid: GridSpec | None = None) -> np.ndarray:
    """Representative points of a region for scanning.

    Clouds return their points; polyhedral unions project the grid points onto
    each piece (plus vertices), so boundary structure is represented exactly.
    """
    if isinstance(region, Sampler):
        return region.materialize().points
    if isinstance(region, PointCloud):
        return region.points
    if isinstance(region, PolyUnion):
        pts: list[np.ndarray] = []
        for piece in region.pieces:
            if piece.is_empty():
                continue
            v = piece.vertices()
            if v.size:
                pts.extend(v)
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
    exact: bool = True
    meta: dict = field(default_factory=dict)

    @classmethod
    def make(cls, generators=None, lineality=None, dim=None, **kw) -> "ConeRep":
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
        return cls(generators=generators, lineality=lineality, **kw)

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
        k, m = self.generators.shape[0], self.lineality.shape[0]
        if k + m == 0:
            return float(np.linalg.norm(v))
        B = self.basis_matrix()
        lo = np.concatenate([np.zeros(k), -np.inf * np.ones(m)])
        hi = np.inf * np.ones(k + m)
        res = lsq_linear(B, v, bounds=(lo, hi), tol=1e-14)
        return float(np.linalg.norm(B @ res.x - v))

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
    result = cone_rays_from_halfspaces(gens, n)
    result.exact = c1.exact and c2.exact
    return result


def normal_cone_at(region, x, act_tol: float = 1e-8, cloud_radius: float = 0.5) -> ConeRep:
    """Normal cone to a region at a point.

    Convex polyhedron: conic hull of the active rows.  Union: intersection of
    the per-piece cones over pieces containing the point.  Cloud: sampled
    approximation via the limiting pairing test against nearby cloud points.
    A point outside the region yields the empty cone (flagged, not an error).
    """
    x = as_point(x)
    if isinstance(region, Polyhedron):
        region = PolyUnion([region])
    if isinstance(region, Sampler):
        region = region.materialize()
    if isinstance(region, PolyUnion):
        cones = []
        for piece in region.pieces:
            if piece.is_empty() or not piece.contains(x, act_tol):
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
    if isinstance(region, PointCloud):
        pts = region.points
        if pts.shape[0] == 0 or not region.contains(x, act_tol):
            return ConeRep.empty_cone(pts.shape[1] if pts.size else x.shape[0])
        n = pts.shape[1]
        diffs = pts - x
        norms = np.linalg.norm(diffs, axis=1)
        mask = (norms > 1e-12) & (norms <= cloud_radius)
        dirs = diffs[mask] / norms[mask][:, None]
        cands = _unit_directions(n, 256)
        ctol = 10 * act_tol + (np.min(norms[mask]) if mask.any() else 0.0)
        if dirs.shape[0] == 0:
            gens = cands
        else:
            pairing = cands @ dirs.T
            gens = cands[np.max(pairing, axis=1) <= ctol]
        return ConeRep.make(generators=gens if gens.size else None, dim=n,
                            exact=False, meta={"sampled": True})
    raise InputError(f"unsupported region type {type(region).__name__}")


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

    ``nx`` is the length of the first block.  Computed in support form; exact
    LP when both blocks are one-dimensional, SLSQP otherwise.  With
    ``with_direction`` the maximizing primal direction (an element of the
    polar of the cone with ``|u_x| <= 1``, ``|u_y| <= 1/gamma``) is returned
    alongside the value.
    """
    q = as_point(q)
    n = q.shape[0]
    if cone.empty:
        return (np.inf, None) if with_direction else np.inf
    ny = n - nx
    if cone.dim != n:
        raise DimensionMismatchError("cone and point dimensions differ")
    if cone.euclidean_distance(q) <= 1e-13:
        return (0.0, np.zeros(n)) if with_direction else 0.0
    M = cone.polar_halfspaces()  # u in polar(C): M u <= 0
    if nx == 1 and ny == 1:
        val, u = _support_lp(q, M, g, nx)
    else:
        val, u = _support_slsqp(q, M, g, nx)
    return (val, u) if with_direction else val


def _support_lp(q, M, g: GammaMetric, nx: int):
    n = q.shape[0]
    bounds = [(-1.0, 1.0)] * nx + [(-1.0 / g.gamma, 1.0 / g.gamma)] * (n - nx)
    A_ub = M if M.shape[0] else None
    b_ub = np.zeros(M.shape[0]) if M.shape[0] else None
    res = linprog(-q, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.status != 0:
        raise NumericError(f"support LP failed (status {res.status})")
    return float(max(0.0, -res.fun)), res.x


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
    then vacuous).  Used for coderivative distances: the coderivative of F at
    (x, y) applied to v* collects the x-parts of cone elements with y-part
    ``-v*``.
    """
    if cone.empty:
        return np.inf
    n = cone.dim
    ny = n - nx
    y_target = as_point(y_target)
    if y_target.shape[0] != ny:
        raise DimensionMismatchError("target dim mismatch in cone_min_norm")
    k, m = cone.generators.shape[0], cone.lineality.shape[0]
    B = cone.basis_matrix()  # n x (k+m)
    if k + m == 0:
        # cone = {0}: w_y = 0
        return 0.0 if np.linalg.norm(y_target) <= eta + 1e-12 else np.inf
    By, Bx = B[nx:], B[:nx]
    lo = np.concatenate([np.zeros(k), -np.inf * np.ones(m)])
    hi = np.inf * np.ones(k + m)
    feas = lsq_linear(By, y_target, bounds=(lo, hi), tol=1e-14)
    gap = np.linalg.norm(By @ feas.x - y_target)
    if gap > eta + 1e-10:
        return np.inf
    if nx == 1 and ny == 1:
        return _min_norm_lp(Bx, By, y_target, eta, k, m)
    return _min_norm_slsqp(Bx, By, y_target, eta, k, m, feas.x)


def _min_norm_lp(Bx, By, y_target, eta, k, m) -> float:
    # variables: coeffs c (k+m), t >= |Bx c|; 1-D blocks make this an LP
    nv = k + m + 1
    cobj = np.zeros(nv)
    cobj[-1] = 1.0
    A_ub = []
    b_ub = []
    # t >= Bx c and t >= -Bx c
    row = np.concatenate([Bx[0], [-1.0]])
    A_ub.append(row)
    b_ub.append(0.0)
    A_ub.append(np.concatenate([-Bx[0], [-1.0]]))
    b_ub.append(0.0)
    # |By c - y| <= eta  (1-D)
    A_ub.append(np.concatenate([By[0], [0.0]]))
    b_ub.append(float(y_target[0] + eta))
    A_ub.append(np.concatenate([-By[0], [0.0]]))
    b_ub.append(float(-y_target[0] + eta))
    bounds = [(0.0, None)] * k + [(None, None)] * m + [(0.0, None)]
    res = linprog(cobj, A_ub=np.array(A_ub), b_ub=np.array(b_ub), bounds=bounds,
                  method="highs")
    if res.status == 2:
        return np.inf
    if res.status != 0:
        raise NumericError(f"min-norm LP failed (status {res.status})")
    return float(max(0.0, res.fun))


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
