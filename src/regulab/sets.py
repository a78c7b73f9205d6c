"""Closed-set representations, projections, and normal cones.

Sets are finite unions of convex polyhedra ``{x : A x <= b}`` or finite
point clouds.  Normal cones are finitely generated (generators plus a
lineality basis); for a convex polyhedron the cone at a boundary point is
spanned by the active rows, and for a union it is the intersection of the
per-piece cones at the point.

A polyhedron is immutable: its arrays are read-only, and it keeps, once
decided, its emptiness, so a slice that a mapping shares among its queries
is decided once.  What depends on its matrix alone is a ``PolyMatrix``,
built on first use and shared by every polyhedron on it, whatever its
right-hand side: the row norms, the unit rows, the active sets of its
projections with their factorizations, and its Farkas rays.  A mapping
keeps one per distinct matrix.  Membership is tested one point at a time
(``contains``) or for every row of an array at once (``contains_rows``),
each row rounding as the one-point test does.

Euclidean projections onto polyhedra and distances to cones are exact, each
answer checked against its optimality conditions.  ``project_polyhedron``
takes one point or stacked rows and projects them in one active-set pass
(the enumeration of explicit MPC: Bemporad, Morari, Dua and Pistikopoulos,
*Automatica* 2002), each row's answer certified by its multipliers and its
feasibility; a row that no active set certifies goes to Lawson and Hanson's
least-distance program (``_least_distance``), one finite nonnegative
least-squares solve (``_nonneg_lsq``).  ``slice_distances`` runs the same
pass for one point and many polyhedra of one matrix, a right-hand side per
row: the value slices F(p, x) of a graph piece at every x.

Emptiness is decided only from a certificate that checks, and first without
a solve: a polyhedron is nonempty when the origin is in it or has a
certified projection onto it, and empty when one of the matrix's Farkas
rays, the extreme rays of ``{y >= 0 : A^T y = 0}``, has ``b.y < 0`` (some
ray does on every empty polyhedron, by Farkas' lemma).  Only where rounding
leaves both unchecked does the least-distance program decide, from a
feasible nearest point or a Farkas vector proving there is none.

Distances from a dual vector to a cone in the weighted dual norm
``|u*| + |v*|/gamma`` are computed through the support-function form

    d(q, C) = max { <q, u> : |u_x| <= 1, |u_y| <= 1/gamma, u in polar(C) },

in closed form: at a vertex of a polygon when both factors are
one-dimensional, else face by face of the polar, each face a subspace on
which a Newton search on one multiplier solves the problem.  Every answer
comes with a primal-dual bracket that must close, else ``NumericError``.
``gamma_dual_distance`` and ``cone_min_norm`` take one vector or stacked
rows: the rows of one cone run the face search and the Newton search in
lockstep, each leaving as its bracket closes, and each row goes through
the products a single vector would, so stacking changes no answer.  One
vector is a batch of one; the 1-D vertex forms stay per vector.  A map
keeps the answers per cone object (``SetValuedMap.cone_answers``).
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
# active rows, pieces holding a point and vertices, relative to row norms
_ACT_TOL = 1e-8
# singular values below this ratio to the largest count as rank deficient
_RANK_TOL = 1e-10
# the multipliers that the closed forms on subspace cones search lie in
# [1 / _LAM_MAX, _LAM_MAX]; the two ends stand for the limits 0 and infinity
_LAM_MAX = 2.0 ** 128
# the most subsets that one enumeration tries (``_row_subsets``): faces of
# _face_search, rays of cone_rays_from_halfspaces, vertices and active sets
# of a polyhedron, column sets of _nonneg_lsq_enum
_MAX_FACES = 2 ** 12
# entries of a (rows x cloud points) distance matrix, or of a (rows x active
# sets) array of projections, built at once
_BLOCK = 1 << 16
# an active set's projection is accepted within this tolerance of the rows
# (``Polyhedron.contains``): near rounding, where the least-distance
# program's 1e-9 would accept a set that leaves out a row violated by less,
# and move the projection by as much
_KKT_TOL = 1e-12
# an active set is tried only when its unit rows have singular values within
# this ratio, so its projections carry at most some 1e4 times the rounding
# of their inputs; the program projects where only a worse set would do
_ACTIVE_COND = 1e-4


# ---------------------------------------------------------------------------
# polyhedra


class PolyMatrix:
    """The matrix ``A`` of polyhedra ``{x : A x <= b}``, with the work that
    depends on ``A`` alone, built on first use and shared by every
    polyhedron with this matrix, whatever its right-hand side: the row
    norms, the unit rows (``A`` scaled row by row by ``scale``, a power of
    two, to norms in [1/2, 1)), the active sets of projections and the
    Farkas rays.  ``A`` is a read-only copy."""

    def __init__(self, A):
        A = np.atleast_2d(np.array(A, dtype=float))
        A.setflags(write=False)
        self.A = A
        self.norms = np.linalg.norm(A, axis=1)
        self.scale = np.ldexp(1.0, np.frexp(self.norms)[1])
        self.unit = A / self.scale[:, None]
        self._sets = self._rays = None

    def active_sets(self) -> list:
        """The row subsets S that may be active at a projection: per size k
        = 1, ..., dim, the sets of k rows whose unit rows have singular
        values within ``_ACTIVE_COND`` of each other, stacked as ``(idx,
        A_S, M_S, P_S)``, ``idx`` the rows of each set, ``A_S`` their unit
        rows, ``M_S = (A_S A_S^T)^{-1}`` and ``P_S = A_S^T M_S`` (from one
        SVD); none above ``_MAX_FACES`` sets to try."""
        if self._sets is None:
            rows = np.flatnonzero(self.norms > 0)
            sizes = range(1, min(len(rows), self.A.shape[1]) + 1)
            try:
                subsets = list(_row_subsets(rows, sizes, "too many active sets"))
            except NumericError:
                subsets = []
            self._sets = []
            for _, group in itertools.groupby(subsets, len):
                idx = np.array(list(group))
                U, s, Vt = np.linalg.svd(self.unit[idx], full_matrices=False)
                keep = s[:, -1] > _ACTIVE_COND * s[:, 0]
                if keep.any():
                    U, s, Vt, idx = U[keep], s[keep], Vt[keep], idx[keep]
                    Ut = U.transpose(0, 2, 1)
                    self._sets.append(
                        (idx, self.unit[idx], (U / s[:, None] ** 2) @ Ut,
                         (Vt.transpose(0, 2, 1) / s[:, None]) @ Ut))
        return self._sets

    def farkas(self, B) -> np.ndarray:
        """Per row ``b`` of ``B``, whether a Farkas ray proves ``{x : A x <=
        b}`` empty: ``_is_farkas`` on the unit rows, with ``b`` scaled as
        ``_least_distance`` scales it, for any of the extreme rays ``y`` of
        ``{y >= 0 : A^T y = 0}``.  By Farkas' lemma a polyhedron is empty
        exactly when one of them has ``b.y < 0``.  A ray's support is a set
        of k rows whose unit rows have rank k - 1 and whose left null vector
        (from one SVD per size) is positive; there are no rays above
        ``_MAX_FACES`` sets to try."""
        if self._rays is None:
            self._rays = self._farkas_rays()
        Y, gap = self._rays
        if not len(Y):
            return np.zeros(len(B), dtype=bool)
        H = B / self.scale
        s = np.ldexp(1.0, np.maximum(0, np.frexp(np.abs(H).max(axis=1))[1]))
        hy = (H / s[:, None]) @ Y.T
        return np.any((hy < 0) & (gap <= 1e-9 * -hy), axis=1)

    def _farkas_rays(self):
        """``(Y, |unit^T y|)``: the rays of ``farkas`` as the rows of ``Y``,
        zero off their support, and the norm of each one's product."""
        m, n = self.A.shape
        rays = []
        try:
            subsets = list(_row_subsets(range(m), range(1, min(m, n + 1) + 1),
                                        "too many ray supports"))
        except NumericError:
            subsets = []
        for k, group in itertools.groupby(subsets, len):
            idx = np.array(list(group))
            U, s, _ = np.linalg.svd(self.unit[idx])
            rank = np.sum(s > _RANK_TOL * max(k, n) * s[:, :1], axis=1)
            y = U[:, :, -1] * np.sign(U[:, :, -1].sum(axis=1))[:, None]
            for i in np.flatnonzero((rank == k - 1) & np.all(y > 0, axis=1)):
                rays.append(np.zeros(m))
                rays[-1][idx[i]] = y[i]
        Y = np.array(rays).reshape(len(rays), m)
        return Y, np.linalg.norm(Y @ self.unit, axis=1)


class Polyhedron:
    """Convex polyhedron ``{x : A x <= b}``.

    ``A`` is a matrix or the ``PolyMatrix`` of one, whose work the
    polyhedron shares with every other on that ``PolyMatrix``.  ``A`` and
    ``b`` are read-only, so the row norms and the emptiness cached on the
    object stay true while slices of a map's graph are shared."""

    def __init__(self, A, b):
        matrix = A if isinstance(A, PolyMatrix) else PolyMatrix(A)
        b = np.atleast_1d(np.array(b, dtype=float))
        if matrix.A.shape[0] != b.shape[0]:
            raise DimensionMismatchError(
                f"A has {matrix.A.shape[0]} rows but b has {b.shape[0]} "
                f"entries")
        b.setflags(write=False)
        self.matrix = matrix
        self.A = matrix.A
        self.b = b
        self._norms = matrix.norms
        # membership tolerance per row, relative to |b_i| and |A_i|
        self._scale = np.maximum(1.0, abs(b)) + self._norms
        self._empty = None

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    def contains(self, x, tol: float = _FEAS_TOL) -> bool:
        """``A x - b <= tol (max(1, |b|) + |A_i|)`` row by row."""
        x = as_point(x)
        if x.shape[0] != self.dim:
            raise DimensionMismatchError("point dim does not match polyhedron")
        return bool(np.all(self.A @ x - self.b <= tol * self._scale))

    def contains_rows(self, X, tol: float = _FEAS_TOL) -> np.ndarray:
        """``contains`` for every row of ``X``, in one stacked matrix product:
        numpy takes each row through the matrix-vector product of ``A @
        x``, so each rounds as the one-point test does."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise DimensionMismatchError("point dim does not match polyhedron")
        r = (self.A[None] @ X[:, :, None])[:, :, 0] - self.b
        return np.all(r <= tol * self._scale, axis=1)

    def is_empty(self) -> bool:
        """Whether no ``x`` has ``A x <= b``, decided (and cached) from a
        certificate: nonempty if the origin passes ``contains`` or has a
        certified projection (``_certified_projections``), empty if a Farkas
        ray of the matrix proves it (``PolyMatrix.farkas``); else the
        least-distance program decides, with a certificate either way."""
        if self._empty is None:
            o = np.zeros((1, self.dim))
            if self.contains(o[0]) or _certified_projections(
                    o, self.b[None], self.matrix)[1][0]:
                self._empty = False
            elif self.matrix.farkas(self.b[None])[0]:
                self._empty = True
            else:
                self._empty = _least_distance(self.A, self.b) is None
        return self._empty

    def active_rows(self, x) -> np.ndarray:
        """Indices of the rows active at ``x`` within ``_ACT_TOL``."""
        x = as_point(x)
        return np.nonzero(np.abs(self.A @ x - self.b) <=
                          _ACT_TOL * (1.0 + self._norms))[0]

    def vertices(self) -> np.ndarray:
        """Vertices by active-set enumeration; ``NumericError`` above
        ``_MAX_FACES`` row subsets to try."""
        n, m = self.dim, self.A.shape[0]
        verts: list[np.ndarray] = []
        for idx in _row_subsets(
                range(m), (n,), f"a polyhedron with {m} rows has more than "
                f"{_MAX_FACES} row subsets to try"):
            Asub = self.A[list(idx)]
            if abs(np.linalg.det(Asub)) < 1e-12:
                continue
            v = np.linalg.solve(Asub, self.b[list(idx)])
            if self.contains(v, _ACT_TOL) and not any(
                    np.linalg.norm(v - w) < 1e-9 for w in verts):
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
    ``g = B^T (B c - v)`` is >= 0, and 0 where ``c_j > 0``, within the
    rounding of ``g_j = B_j . (B c - v)``: ``|B_j|`` times 1e-9 of ``|v| +
    |B c|`` (the residual's size) plus a multiple of ``eps |(|B| c)|`` (the
    rounding of ``B c`` when its terms cancel), in 1-norms, which do not
    underflow where the squares of tiny entries would, with a floor of
    1e-300 for a ``g`` that underflows (a subnormal ``v``).  It is not
    scaled by ``sum c``, so a run that stops at large coefficients far from
    the optimum fails it."""
    Bc = B @ c
    g = (Bc - v) @ B
    absB = np.abs(B)
    tol = absB.sum(axis=0) * (
        1e-9 * (np.abs(v).sum() + np.abs(Bc).sum()) +
        4 * (B.shape[1] + 1) * np.finfo(float).eps * (absB @ c).sum()) + 1e-300
    return bool(np.all((g >= -tol) & ((c == 0) | (g <= tol))))


def _nonneg_lsq_enum(B, v) -> np.ndarray:
    """argmin ``|B c - v|`` over ``c >= 0`` by enumeration: least squares on
    every linearly independent set of columns, keeping the nonnegative
    solution of least residual (some minimizer has independent support, by
    Caratheodory's theorem); ``NumericError`` above ``_MAX_FACES`` column
    sets to try."""
    m, k = B.shape
    best, best_r = np.zeros(k), np.linalg.norm(v)
    for cols in map(list, _row_subsets(
            range(k), range(1, min(m, k) + 1), f"nonnegative least squares "
            f"on {k} columns has more than {_MAX_FACES} column sets to try")):
        cs, _, rank, _ = np.linalg.lstsq(B[:, cols], v, rcond=None)
        if rank < len(cols) or np.any(cs < 0):
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


def _row_subsets(items, sizes, too_many: str):
    """The subsets of ``items`` of each size in ``sizes`` in turn, each size
    in ``itertools.combinations`` order; ``NumericError(too_many)`` when
    there are more than ``_MAX_FACES`` of them."""
    items = list(items)
    if sum(math.comb(len(items), k) for k in sizes) > _MAX_FACES:
        raise NumericError(too_many)
    return itertools.chain.from_iterable(
        itertools.combinations(items, k) for k in sizes)


def _certified_projections(X, B, matrix: PolyMatrix):
    """``(U, done)``: for every row ``x`` of ``X`` and right-hand side ``b``
    (its row of ``B``, or the one row of ``B``), the ``u = x - P_S (A_S x -
    b_S)`` of the first active set S (``PolyMatrix.active_sets``, ``b_S``
    scaled as its rows) whose multipliers ``M_S (A_S x - b_S)`` are all >= 0
    and whose ``u`` is in ``{A u <= b}`` within ``_KKT_TOL`` (as
    ``Polyhedron.contains_rows`` tests it), and whether there is one; in
    blocks of at most about ``_BLOCK`` entries per (rows x sets) array."""
    U, done = np.zeros(X.shape), np.zeros(len(X), dtype=bool)
    sets = matrix.active_sets()
    # row r of X takes the side B[at[r]]: its own row of B, or B's one row
    at = np.arange(len(X)) if len(B) > 1 else np.zeros(len(X), dtype=int)
    Bs = B / matrix.scale
    tol = _KKT_TOL * (np.maximum(1.0, abs(B)) + matrix.norms)
    step = max(1, _BLOCK // max(1, sum(len(idx) for idx, _, _, _ in sets)
                                * max(matrix.A.shape)))
    for a in range(0, len(X), step):
        rows = np.arange(a, min(a + step, len(X)))
        for idx, A, M, P in sets:
            Xr = X[rows][:, None, :]
            R = np.matvec(A, Xr) - Bs[at[rows]][:, idx]
            C = Xr - np.matvec(P, R)
            ok = np.all(np.matvec(M, R) >= 0, axis=2)
            i, t = np.nonzero(ok)
            j = at[rows[i]]
            ok[i, t] = np.all((matrix.A[None] @ C[i, t][:, :, None])[:, :, 0]
                              - B[j] <= tol[j], axis=1)
            hit = ok.any(axis=1)
            U[rows[hit]] = C[hit, ok[hit].argmax(axis=1)]
            done[rows[hit]] = True
            rows = rows[~hit]
            if not len(rows):
                break
    return U, done


def project_polyhedron(x, Q: Polyhedron) -> np.ndarray:
    """Euclidean projection of ``x`` onto ``Q``; ``EmptySetError`` when ``Q``
    is empty.

    ``x`` is one point (a point back) or stacked rows of shape (n, dim) (n
    projections back, row by row the one-point answers); one point is a
    batch of one, with no second kernel.  A row in ``Q`` within 1e-10 comes
    back as it is.  The others go through the active sets S of ``Q``'s
    matrix, smallest first, all rows at once (``_certified_projections``):
    a row takes ``u = x - A_S^T lam`` with ``lam = (A_S A_S^T)^{-1} (A_S x
    - b_S)`` from the first S where ``lam >= 0`` and ``u`` is in ``Q``
    within ``_KKT_TOL``, the optimality conditions of the projection.  A row
    that no S certifies, and every row when ``Q`` has more than
    ``_MAX_FACES`` sets to try, takes ``x`` plus the least-norm ``z`` with
    ``A z <= b - A x`` (``_least_distance``).  Every product is stacked
    (``np.matvec``), so each row rounds as it does alone.
    """
    X, one = _rows(x)
    U = X.copy()
    out = np.flatnonzero(~Q.contains_rows(X, 1e-10))
    if len(out):
        V, done = _certified_projections(X[out], Q.b[None], Q.matrix)
        U[out[done]] = V[done]
        out = out[~done]
    for i in out:
        z = _least_distance(Q.A, Q.b - Q.A @ X[i])
        if z is None:
            raise EmptySetError("cannot project onto an empty polyhedron")
        U[i] = X[i] + z
    return U[0] if one else U


def slice_distances(v, matrix: PolyMatrix, H) -> np.ndarray:
    """``d(v, {y : A y <= H[i]})`` for every row ``H[i]`` of ``H``, inf
    where that polyhedron is empty: row by row the ``dist_to_region`` of
    ``v`` and the union of that one polyhedron, bit for bit.

    The rows go through the kernel of ``project_polyhedron`` together, a
    right-hand side per row: a row whose polyhedron holds ``v`` within
    1e-10 is at 0, and the others are projected through the active sets of
    ``matrix`` (``_certified_projections``).  A row that no set certifies is
    empty if a Farkas ray of ``matrix`` proves it, and goes through
    ``dist_to_region`` on its own polyhedron otherwise.
    """
    v = as_point(v)
    H = np.atleast_2d(np.asarray(H, dtype=float))
    d = np.zeros(len(H))
    # v in each polyhedron within 1e-10, as Polyhedron.contains_rows tests it
    r = (matrix.A[None] @ v[None, :, None])[:, :, 0] - H
    out = np.flatnonzero(~np.all(
        r <= 1e-10 * (np.maximum(1.0, abs(H)) + matrix.norms), axis=1))
    if len(out):
        U, done = _certified_projections(
            np.broadcast_to(v, (len(out), len(v))), H[out], matrix)
        d[out[done]] = _norms(U[done] - v)
        out = out[~done]
        empty = matrix.farkas(H[out])
        d[out[empty]] = math.inf
        out = out[~empty]
    for i in out:
        d[i] = dist_to_region(v, PolyUnion([Polyhedron(matrix, H[i])]))[0]
    return d


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
        self.dim = dims.pop() if dims else 0

    def nonempty_pieces(self):
        return [p for p in self.pieces if not p.is_empty()]

    def contains(self, x, tol: float = _FEAS_TOL) -> bool:
        return any(p.contains(x, tol) for p in self.pieces)

    def contains_rows(self, X, tol: float = _FEAS_TOL) -> np.ndarray:
        """``contains`` for every row of ``X``: any piece's test, per row."""
        hit = np.zeros(len(X), dtype=bool)
        for p in self.pieces:
            hit |= p.contains_rows(X, tol)
        return hit

    def active_pieces(self, x):
        """``(piece, active rows)`` of each nonempty piece holding ``x``
        within ``_ACT_TOL``."""
        x = as_point(x)
        return [(p, p.active_rows(x)) for p in self.nonempty_pieces()
                if p.contains(x, _ACT_TOL)]


class PointCloud:
    """Finite point set, duplicate-free under tolerance: a point within
    ``dedupe_tol`` of a point kept before it is dropped."""

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


def dist_to_region(x, region):
    """Exact distance from ``x`` to a polyhedral union or a point cloud, and
    a nearest point; ``(inf, None)`` for an empty region (d(x, empty) = inf).

    ``x`` is one point (a float and a point back) or stacked rows of shape
    (n, dim) (an array of n distances and a list of n nearest points back,
    row by row the one-point answers); one point is a batch of one, with no
    second kernel.  A point cloud answers its rows from one distance matrix,
    built in blocks of at most ``_BLOCK`` entries; a polyhedral union
    projects all rows onto each nonempty piece in one stacked
    ``project_polyhedron`` call, and each row keeps its nearest piece, the
    first on a tie.
    """
    X, one = _rows(x)
    if isinstance(region, PointCloud):
        d, near = _cloud_distances(X, region.points)
    elif isinstance(region, PolyUnion):
        d, best = np.full(len(X), np.inf), np.zeros(X.shape)
        for piece in region.nonempty_pieces():
            U = project_polyhedron(X, piece)
            du = _norms(U - X)
            closer = du < d
            d[closer], best[closer] = du[closer], U[closer]
        near = [u if dx < math.inf else None for dx, u in zip(d, best)]
    else:
        raise InputError(f"unsupported region type {type(region).__name__}")
    return (float(d[0]), near[0]) if one else (d, near)


def _cloud_distances(X, P):
    """Distances from the rows of ``X`` to the point set ``P`` and a nearest
    point of each, the first in ``P`` on a tie."""
    if P.shape[0] == 0:
        return np.full(len(X), np.inf), [None] * len(X)
    d, near = np.empty(len(X)), []
    step = max(1, _BLOCK // P.shape[0])
    for a in range(0, len(X), step):
        D = np.linalg.norm(P[None, :, :] - X[a:a + step, None, :], axis=2)
        i = np.argmin(D, axis=1)
        d[a:a + step] = D[np.arange(len(i)), i]
        near.extend(P[i])
    return d, near


def region_sample_points(region, grid: GridSpec) -> np.ndarray:
    """Representative points of a region for scanning.

    Clouds return their points.  A polyhedral union gives, piece by piece,
    its vertices and the grid points, each grid point outside the piece
    projected onto it, all in one stacked ``project_polyhedron`` call per
    piece, so boundary structure is represented exactly.
    """
    if isinstance(region, PointCloud):
        return region.points
    if isinstance(region, PolyUnion):
        pts: list[np.ndarray] = []
        G = make_grid(grid)
        for piece in region.nonempty_pieces():
            pts.extend(piece.vertices())
            P, out = G.copy(), ~piece.contains_rows(G)
            P[out] = project_polyhedron(G[out], piece)
            pts.extend(P)
        if not pts:
            return np.zeros((0, region.dim))
        return PointCloud(np.array(pts), dedupe_tol=1e-10).points
    raise InputError(f"unsupported region type {type(region).__name__}")


# ---------------------------------------------------------------------------
# cones


@dataclass(eq=False)
class ConeRep:
    """Finitely generated cone: conic hull of ``generators`` plus the span of
    ``lineality`` rows.  ``empty=True`` encodes the empty cone (point outside
    the set); the zero cone has no generators but is nonempty.  A cone is
    compared and hashed by identity, so a map keys its answers by the cone
    object."""

    generators: np.ndarray
    lineality: np.ndarray
    empty: bool = False
    _bases: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)
    _vertices: dict = field(default_factory=dict, init=False, repr=False,
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

    def contains(self, v) -> bool:
        return not self.empty and self.euclidean_distance(v) <= _FEAS_TOL

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
            if s[-1] <= _RANK_TOL * self.dim * s[0]:
                self._bases[key] = None
                return None
            rows, null = vt[:M.shape[0]], vt[M.shape[0]:]
            D = (U[:len(S)] / s) @ rows  # M^T a = w has a = U diag(1/s) rows w
        self._bases[key] = _block_basis(null, nx), _block_basis(rows, nx), D
        return self._bases[key]

    def y_span(self, nx: int) -> np.ndarray:
        """An orthonormal basis (rows) of ``span(L_y)``, the y-parts of the
        lineality space, built once per cone and ``nx`` as ``face`` keeps
        its bases."""
        key = ("y", nx)
        if key not in self._bases:
            self._bases[key] = _orthonormal_split(self.lineality[:, nx:])[0]
        return self._bases[key]

    def polar_halfspaces(self) -> np.ndarray:
        """``[G; L; -L]``: the polar is ``{u : G u <= 0, L u = 0}``."""
        return np.vstack([self.generators, self.lineality, -self.lineality])

    def polar_vertices(self, c: float = math.inf) -> np.ndarray:
        """``_polar_vertices`` of the polar halfspaces (both blocks
        one-dimensional), built once per cone and ``c``, as ``face`` keeps
        its bases."""
        if c not in self._vertices:
            P = _polar_vertices(self.polar_halfspaces(), c)
            P.setflags(write=False)
            self._vertices[c] = P
        return self._vertices[c]


def _orthonormal_split(M: np.ndarray):
    """Orthonormal bases, as rows, of the row space of ``M`` and of its
    nullspace."""
    if M.size == 0:
        return np.zeros((0, M.shape[1])), np.eye(M.shape[1])
    _, s, vt = np.linalg.svd(M)
    rank = int(np.sum(s > _RANK_TOL * max(M.shape) * s[0]))
    return vt[:rank], vt[rank:]


def cone_rays_from_halfspaces(M: np.ndarray, n: int) -> ConeRep:
    """V-form of ``{v in R^n : M v <= 0}``.

    The lineality space is the nullspace of M; extreme rays are enumerated on
    its k-dimensional orthogonal complement by intersecting k-1 facet planes
    at a time; ``NumericError`` above ``_MAX_FACES`` row subsets to try.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float)) if M is not None and len(M) else np.zeros((0, n))
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
            # rows on one hyperplane give no 1-D nullspace together (the
            # +-L rows of intersect_cones), so the first one stands for all
            with np.errstate(divide="ignore", invalid="ignore"):
                U = Mw / np.linalg.norm(Mw, axis=1)[:, None]
            gap = np.minimum(np.abs(U[:, None] - U).max(-1),
                             np.abs(U[:, None] + U).max(-1))
            rows = np.flatnonzero(np.isfinite(U).all(1) &
                                  ~np.tril(gap <= 1e-12, -1).any(1))
            for idx in _row_subsets(
                    rows, (k - 1,), f"{len(rows)} halfspaces give more than "
                    f"{_MAX_FACES} row subsets to try"):
                ns = _orthonormal_split(Mw[list(idx)])[1]
                if ns.shape[0] != 1:
                    continue
                cands.extend([ns[0], -ns[0]])
        for c in cands:
            if np.all(Mw @ c <= _FEAS_TOL):
                r = W.T @ c
                r = r / np.linalg.norm(r)
                if not any(np.linalg.norm(r - q) < 1e-8 for q in rays):
                    rays.append(r)
    return ConeRep.make(generators=np.array(rays) if rays else None, lineality=lin if lin.shape[0] else None, dim=n)


def intersect_cones(c1: ConeRep, c2: ConeRep) -> ConeRep:
    """Intersection of two finitely generated cones.

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


def normal_cone_at(region, x) -> ConeRep:
    """Normal cone to a polyhedron or a polyhedral union at a point.

    Convex polyhedron: conic hull of the active rows.  Union: intersection of
    the per-piece cones over pieces containing the point.  A point outside
    the region yields the empty cone (flagged, not an error).
    """
    if isinstance(region, Polyhedron):
        region = PolyUnion([region])
    if not isinstance(region, PolyUnion):
        raise InputError(f"unsupported region type {type(region).__name__}")
    return normal_cone_from(
        [ConeRep.make(generators=piece.A[act], dim=piece.dim)
         for piece, act in region.active_pieces(x)], region.dim)


def normal_cone_from(cones, dim: int) -> ConeRep:
    """The normal cone to a union at a point from the cones of the pieces
    holding it: their intersection, or the empty cone when there are none."""
    if not cones:
        return ConeRep.empty_cone(dim)
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


# ---------------------------------------------------------------------------
# weighted dual-norm distances to cones


def _rows(v):
    """``(V, one)``: one vector as a batch of one row, or stacked rows (a 2-D
    array) as they are."""
    V = np.asarray(v, dtype=float)
    if V.ndim == 2:
        return V, False
    return as_point(V)[None, :], True


def gamma_dual_distance(q, cone: ConeRep, g: GammaMetric, nx: int,
                        with_direction: bool = False):
    """Distance from ``q=(q_x, q_y)`` to the cone in the norm |.|+|.|/gamma.

    ``nx`` is the length of the first block.  ``q`` is one vector (a float
    back) or stacked rows of shape (n, dim) (an array of n distances back,
    row by row the one-vector values).  Computed in support form: at the
    vertices of a polygon, vector by vector, when both blocks are
    one-dimensional, else face by face (``_support_faces``) for all rows at
    once.  With ``with_direction`` the maximizing primal direction (an
    element of the polar of the cone with ``|u_x| <= 1``, ``|u_y| <=
    1/gamma``) is returned alongside the value: one vector (None for the
    empty cone) or one row per row of ``q`` (NaN rows for the empty cone).
    ``NumericError`` when the face search's bracket does not close.
    """
    Q, one = _rows(q)
    if cone.empty:
        vals, U = np.full(len(Q), np.inf), np.full(Q.shape, np.nan)
    elif cone.dim != Q.shape[1]:
        raise DimensionMismatchError("cone and point dimensions differ")
    elif nx == 1 and Q.shape[1] == 2:
        # 0 when q is in the cone: the origin is the first vertex
        found = [_support_2d(v, cone, 1.0 / g.gamma) for v in Q]
        vals = np.array([val for val, _ in found])
        U = np.array([u for _, u in found]).reshape(Q.shape)
    else:
        vals, U = _support_faces(Q, cone, nx, 1.0 / g.gamma)
    if one:
        vals, U = float(vals[0]), None if cone.empty else U[0]
    return (vals, U) if with_direction else vals


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


def _support_2d(q, cone: ConeRep, c: float):
    """max q.u over ``{M u <= 0, |u_x| <= 1, |u_y| <= c}`` and a maximizer,
    ``M`` the cone's polar halfspaces.

    A linear function attains its maximum over the (bounded) polygon at a
    vertex; ties go to the first vertex in ``_polar_vertices``' order.
    """
    P = cone.polar_vertices(c)
    vals = P @ q
    i = int(np.argmax(vals))
    return float(max(0.0, vals[i])), P[i]


def _support_faces(Q, cone: ConeRep, nx: int, c: float):
    """max q.u over the polar ``{G u <= 0, L u = 0}`` with ``|u_x| <= 1``
    and ``|u_y| <= c``, and a maximizer, for every row ``q`` of ``Q``, by
    ``_face_search``: a face's maximizer ``u`` (``_support_subspace``)
    bounds it below if ``G_i u <= 1e-12 |G_i| |u|`` for every row.  It is
    ``min |q_x - w_x| + c |q_y - w_y|`` over ``w`` in the cone, and the ``w
    = G_S^T a + L^T t`` fitting ``q`` by nonnegative least squares on
    ``[G_S, L, -L]`` and the normals of the balls active at ``u`` (within
    1e-9), or of both balls where that leaves the face's bracket open,
    bounds it above, as does the face S = () itself: it contains the
    polar."""
    G, L = cone.generators, cone.lineality
    G_tol = 1e-12 * np.linalg.norm(G, axis=1)

    def bounds(S, face, rows):
        low, up, U = _support_subspace(Q[rows], face[0], c)
        if len(G):
            low[~np.all(np.matvec(G, U) <= G_tol * _norms(U)[:, None],
                        axis=1)] = -math.inf
        if S:
            B = np.vstack([G[list(S)], L, -L]).T

            def fit(q, balls):
                r = q - B @ _nonneg_lsq(np.column_stack([B, *balls]),
                                        q)[:B.shape[1]]
                return np.linalg.norm(r[:nx]) + c * np.linalg.norm(r[nx:])

            for j, (q, u) in enumerate(zip(Q[rows], U)):
                ux = u * (np.arange(len(u)) < nx)
                normals = (ux, u - ux)  # (u_x, 0) and (0, u_y)
                active = [b for b, r2 in zip(normals, (1.0, c * c))
                          if b @ b >= r2 * (1 - 1e-9)]
                up[j] = fit(q, active)
                # u is only as accurate as the value needs: a ball active
                # at the optimum can miss the test where q barely weighs it
                if len(active) < 2 and not _is_closed(low[j], up[j], 1e-13):
                    up[j] = min(up[j], fit(q, normals))
        return low, up, U

    lower, _, U = _face_search(cone, nx, bounds, len(Q))
    return lower, U


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


# The stacked forms below take every row through the product that the same
# vector alone goes through: np.vecdot(a, b) rounds each row as the 1-D a_i @
# b_i, and np.matvec(M, X) each row as M @ x_i, so a row rounds as it does
# in a batch of one.


def _norms(a) -> np.ndarray:
    """``np.linalg.norm(a_i)`` for every row, rounded as it is for one."""
    return np.sqrt(np.vecdot(a, a))


def _is_closed(lower, upper, tol: float) -> np.ndarray:
    """Per row, whether the bounds are finite and within ``tol`` (relative
    above 1); inf - inf is nan and fails, under ``np.errstate``."""
    return (upper < math.inf) & (upper - lower <= tol * np.maximum(1.0, upper))


def _face_search(cone: ConeRep, nx: int, bounds, n: int):
    """The closest ``(lower, upper, u)`` of the bounds of n problems, and
    the points of the lower ones, that ``bounds(S, cone.face(S, nx), rows)``
    gives for the problems ``rows`` still open, as arrays ``(lower, upper,
    u)`` with a row per problem (``u`` may be None), over the sets S of
    generator rows independent modulo L, smallest first.  An optimum lies on
    a face ``cone(G_S) + L`` or ``{G_S u = 0, L u = 0}`` for such an S
    (Caratheodory's theorem), where the bounds meet.  A problem leaves the
    search once its bounds are within 1e-13; ``NumericError`` unless the
    bounds of every problem end within 1e-10 (relative above 1), or above
    ``_MAX_FACES`` sets to try."""
    k = cone.generators.shape[0]
    sizes = range(min(k, cone.dim - cone.face((), nx)[1][0].shape[0]) + 1)
    faces = _row_subsets(range(k), sizes, f"a cone with {k} generators has "
                         f"more than {_MAX_FACES} faces to enumerate")
    lower, upper, best = np.full(n, -math.inf), np.full(n, math.inf), None
    rows = np.arange(n)
    with np.errstate(invalid="ignore"):
        for S in faces:
            if not len(rows):
                break
            if (face := cone.face(S, nx)) is None:
                continue
            low, up, u = bounds(S, face, rows)
            moved = low > lower[rows]
            lower[rows[moved]] = low[moved]
            if u is not None:
                if best is None:
                    best = np.full((n, u.shape[1]), np.nan)
                best[rows[moved]] = u[moved]
            upper[rows] = np.where(up < upper[rows], up, upper[rows])
            rows = rows[~_is_closed(lower[rows], upper[rows], 1e-13)]
        open_ = np.flatnonzero(~_is_closed(lower, upper, 1e-10))
    if len(open_):
        i = open_[0]
        raise NumericError(f"closed-form bracket [{float(lower[i])!r}, "
                           f"{float(upper[i])!r}] did not close")
    return lower, upper, best


def _bracket_search(at, n: int, ends=()):
    """``(lower, upper, u)``: the closest bounds on the optimum of n
    subspace problems that ``at`` gives over multipliers ``lam > 0``.

    ``at(lam, rows)`` returns, for the problems ``rows`` at their
    multipliers ``lam``, arrays ``(f, df/dlam, lower, upper, u)``: bounds
    valid at every ``lam`` (nan or inf where undefined), the points ``u``
    (one row per problem, or None) whose values are ``lower``, and ``f``,
    which changes sign once, from negative to positive, where the bounds
    meet.  After the points ``ends``, every problem runs a Newton search on
    its ``f``, in lockstep with the others, that keeps a bracket of the sign
    change, all of ``[1 / _LAM_MAX, _LAM_MAX]`` at first, and bisects it
    geometrically when a step would leave it or would not halve the move
    before it (as in Numerical Recipes' ``rtsafe``).  A step taken from ``f
    < 0`` is doubled, and lengthened by 2^-44 of ``lam`` to get past
    rounding, where the bracket allows: so the points fall on both sides of
    the sign change, and a bound that holds only on one side closes too.  A
    problem leaves the search once its bounds are within 1e-13 or its
    bracket is within rounding of a point; the search ends with the last
    problem, or after 100 steps.
    """
    lower, upper, best = np.full(n, -math.inf), np.full(n, math.inf), None
    # the state of the problems still searching, one entry per problem
    rows, low, up, u = np.arange(n), lower.copy(), upper.copy(), None

    def take(lam):
        nonlocal low, up, u
        f, df, new_low, new_up, new_u = at(lam, rows)
        if new_u is not None:
            better = new_low > low
            u = np.where(better[:, None], new_u, 0.0 if u is None else u)
        # a nan bound counts for nothing
        low, up = np.fmax(low, new_low), np.fmin(up, new_up)
        return f, df

    def settle(done):
        nonlocal best
        lower[rows[done]], upper[rows[done]] = low[done], up[done]
        if u is not None:
            if best is None:
                best = np.zeros((n, u.shape[1]))
            best[rows[done]] = u[done]

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for lam in ends:
            take(np.full(n, lam))
        lo, hi = np.full(n, 1 / _LAM_MAX), np.full(n, _LAM_MAX)
        lam, half = np.ones(n), np.full(n, math.inf)  # half the last move
        for _ in range(100):
            done = _is_closed(low, up, 1e-13) | (hi - lo <= 2.0 ** -50 * hi)
            if np.count_nonzero(done):
                settle(done)
                go = ~done
                rows, low, up, lo, hi, lam, half = (
                    a[go] for a in (rows, low, up, lo, hi, lam, half))
                u = None if u is None else u[go]
                if not len(rows):
                    break
            f, df = take(lam)
            neg = f < 0
            np.copyto(lo, lam, where=neg)
            np.copyto(hi, lam, where=~neg)
            step = -f / df
            new = lam + step
            newton = (lo < new) & (new < hi) & (np.abs(step) <= half)
            tiny = 2.0 ** -44 * lam
            np.copyto(new, new + (step + tiny),
                      where=newton & neg & (new + step + tiny < hi))
            np.copyto(new, np.sqrt(lo * hi), where=~newton)
            lam, half = new, np.abs(new - lam) / 2
        settle(np.ones(len(rows), dtype=bool))
    return lower, upper, best


def _support_subspace(Q, basis, c: float):
    """``(lower, upper, U)``: bounds on max q.u over ``u`` in a subspace
    with ``|u_x| <= 1`` and ``|u_y| <= c``, and a maximizer ``u`` of value
    ``lower``, for every row ``q`` of ``Q``; 0 for a row within 1e-13 of
    the orthogonal complement.

    In the subspace's basis ``basis = (G, sx, sy)`` from ``_block_basis``,
    with ``h = G q``: for every ``lam > 0``, the Lagrangian dual value at
    the multipliers ``rho (1, lam)`` of the two balls, minimized over
    ``rho``, bounds the maximum above by ``sqrt((1 + lam c^2) sum h_i^2 /
    E_i)``, ``E = sx + lam sy``; ``w = h / E`` scaled onto the nearer ball
    edge is a feasible ``u`` that bounds it below.  The bounds meet where
    ``c^2 |w_x|^2 - |w_y|^2``, the sign of the upper one's derivative,
    changes sign, or in the limit ``lam -> 0`` or ``lam -> inf``, for which
    the ends of the search range stand.  The rows search in lockstep
    (``_bracket_search``).
    """
    G, sx, sy = basis
    H = np.matvec(G, Q)
    lower, upper, U = np.zeros(len(Q)), np.zeros(len(Q)), np.zeros(Q.shape)
    on = ~(_norms(H) <= 1e-13)
    Q, H, c2 = Q[on], H[on], c * c
    slope = (c2 * sx - sy) * sy

    def at(lam, rows):
        h = H[rows]
        E = sx + lam[:, None] * sy
        w = h / E
        ww = w * w
        P, Qy = np.vecdot(ww, sx), np.vecdot(ww, sy)
        edge, rim = c * np.sqrt(P), np.sqrt(Qy)
        u = np.matvec(G.T, w) * (c / np.where(rim > edge, rim, edge))[:, None]
        up = np.sqrt((1 + lam * c2) * np.vecdot(h, w))
        return (c2 * P - Qy, np.vecdot(-2 * (slope / E), ww),
                np.vecdot(Q[rows], u), up, u)

    if len(Q):
        lower[on], upper[on], U[on] = _bracket_search(
            at, len(Q), ends=(1 / _LAM_MAX, _LAM_MAX))
    return lower, upper, U


def cone_min_norm(cone: ConeRep, nx: int, y_target, eta: float):
    """min |w_x| over cone elements ``w=(w_x, w_y)`` with ``|w_y - y_target| <= eta``.

    ``y_target`` is one vector (a float back) or stacked rows of shape (n,
    ny) (an array of n values back, row by row the one-vector values).
    Returns +inf when no cone element meets the ball constraint (the check is
    then vacuous).  At the vertices of a polygon, vector by vector, when both
    blocks are one-dimensional, else face by face (``_min_norm_faces``) for
    all rows at once; ``NumericError`` when the face search's bracket does
    not close.  Used for coderivative distances: the coderivative of F at
    (x, y) applied to v* collects the x-parts of cone elements with y-part
    ``-v*``.
    """
    Y, one = _rows(y_target)
    vals = np.full(len(Y), math.inf)
    if not cone.empty:
        ny = cone.dim - nx
        if Y.shape[1] != ny:
            raise DimensionMismatchError(
                "target dim mismatch in cone_min_norm")
        if cone.generators.shape[0] + cone.lineality.shape[0] == 0:
            # cone = {0}: w_y = 0
            vals[_norms(Y) <= eta + 1e-12] = 0.0
        elif nx == 1 and ny == 1:
            vals = np.array([_min_norm_2d(cone, y, eta) for y in Y[:, 0]])
        else:
            reach = ~(_y_distances(cone, nx, Y) > eta + 1e-10)
            home = reach & (np.vecdot(Y, Y) <= eta * eta)
            vals[home] = 0.0  # w = 0
            rest = reach & ~home
            if rest.any():
                vals[rest] = _min_norm_faces(cone, nx, Y[rest], eta)
    return float(vals[0]) if one else vals


def _y_distances(cone: ConeRep, nx: int, Y) -> np.ndarray:
    """The distance from every row of ``Y`` to the y-parts of the cone: one
    projection onto ``span(L_y)`` (``ConeRep.y_span``) for a cone without
    generators, else per row the nearest y-part of the columns ``[G; L;
    -L]`` by nonnegative least squares."""
    if not len(cone.generators):
        R = cone.y_span(nx)
        return np.linalg.norm(Y - (Y @ R.T) @ R, axis=1)
    Bp = cone.polar_halfspaces().T[nx:]
    return np.array([np.linalg.norm(Bp @ _nonneg_lsq(Bp, y) - y) for y in Y])


def _min_norm_2d(cone: ConeRep, y: float, eta: float) -> float:
    """min |w_x| over ``w`` with ``|w_y - y| <= eta`` in the cone generated
    by the rows of ``M``, the cone's polar halfspaces (the polar is
    ``{v : M v <= 0}``), both blocks one-dimensional.

    Solved through its LP dual

        max { y v_y - eta |v_y| : M v <= 0, |v_x| <= 1 }.

    The dual is unbounded, and the primal infeasible (+inf), exactly when
    the polar holds the ray (0, +-1) along which the objective grows;
    otherwise its maximum sits at a vertex of one of the halves
    ``v_y >= 0`` and ``v_y <= 0``, where the objective is linear.
    """
    lo, hi = y - eta, y + eta
    M = cone.polar_halfspaces()
    if (lo > 0 and np.all(M[:, 1] <= 0)) or (hi < 0 and np.all(M[:, 1] >= 0)):
        return np.inf
    vy = cone.polar_vertices()[:, 1]
    return float(max(0.0, np.max(np.where(vy >= 0, lo * vy, hi * vy))))


def _min_norm_faces(cone: ConeRep, nx: int, Y, eta: float) -> np.ndarray:
    """min |w_x| over ``w`` in the cone with ``|w_y - y| <= eta``, for every
    row ``y`` of ``Y``, a ball that the cone's y-parts meet and that does
    not hold the origin, by ``_face_search``: at each ``lam`` of the search
    on a face (``_min_norm_subspace``), ``w`` bounds it above by ``|w_x|``
    if in the ball and the cone (``D w >= -1e-12 |D_i| |w|``), and ``v =
    -(w_x, lam (w_y - y))``, orthogonal to the face, below by ``(<v_y, y> -
    eta |v_y|) / |v_x|`` (weak duality) if ``G_i v <= 1e-12 |G_i| |v|`` for
    every row; so does 0.  ``span(L)``, in the cone, and ``span(G, L)``,
    holding it, add their own upper and lower bounds."""
    G, e2 = cone.generators, eta * eta
    G_norms = np.linalg.norm(G, axis=1)

    def bounds(S, face, rows):
        (N, _, _), basis, D = face
        low, up, trace = _min_norm_subspace(basis, nx, Y[rows], eta)
        if len(S) < len(G):
            low = np.zeros(len(rows))
        if S:
            up = np.full(len(rows), math.inf)
        if not len(G) or not trace:
            return low, up, None  # the one face is the cone
        # the points of every step at once, entry k of problem at[k]
        at, lam, z, cost, r = (np.concatenate(a) for a in zip(*trace))
        y = Y[rows[at]]
        W = np.matvec(basis[0].T, z)
        in_cone = np.all(np.matvec(D, W) >= -1e-12 * np.linalg.norm(D, axis=1)
                         * _norms(W)[:, None], axis=1)
        # at a large lam, w_y - y is mostly rounding: put v back onto the
        # face's orthogonal complement, where it lies
        V = np.matvec(-N.T, np.matvec(N, np.hstack(
            [W[:, :nx], lam[:, None] * (W[:, nx:] - y)])))
        vx = _norms(V[:, :nx])
        in_polar = (vx > 0) & np.all(
            np.matvec(G, V) <= 1e-12 * G_norms * _norms(V)[:, None], axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            v_low = (np.vecdot(V[:, nx:], y) - eta * _norms(V[:, nx:])) / vx
        # each problem's best bound over its steps; nan bounds count for
        # nothing, as in the comparisons of _face_search
        np.fmax.at(low, at, np.where(in_polar, v_low, -math.inf))
        np.fmin.at(up, at, np.where((r <= e2) & in_cone, np.sqrt(cost),
                                    math.inf))
        return low, up, None

    return _face_search(cone, nx, bounds, len(Y))[1]


def _min_norm_subspace(basis, nx: int, Y, eta: float):
    """``(lower, upper, trace)``: bounds on min |w_x| over ``w`` in a
    subspace with ``|w_y - y| <= eta``, for every row ``y`` of ``Y``, a ball
    that the y-parts of that space meet and that does not hold the origin,
    and the search's points.

    A trust-region problem (Moré and Sorensen, *Computing a trust region
    step*, 1983), in the subspace's basis ``basis = (G, sx, sy)`` from
    ``_block_basis``, with ``b = G_y y``: at the ball's multiplier ``lam``,
    ``w = G^T z`` with ``z = lam b / E``, ``E = sx + lam sy``, minimizes
    ``|w_x|^2 + lam |w_y - y|^2``, so ``|w_x|^2 + lam (|w_y - y|^2 -
    eta^2)`` bounds the square of the minimum below, and ``|w_x|`` bounds it
    above where ``w`` is in the ball.  ``|w_y - y|`` falls as ``lam`` grows,
    and the bounds meet where it equals ``eta``, or in the limit ``lam ->
    0``, where only the directions with no x-part move ``w`` (the answer is
    then 0), for which the lower end of the search range stands.  The rows
    search in lockstep (``_bracket_search``); ``trace`` lists ``(rows, lam,
    z, |w_x|^2, |w_y - y|^2)`` of the rows evaluated at each step, one entry
    of each array per row.
    """
    G, sx, sy = basis
    if not len(G):
        # {0} misses the ball
        return np.full(len(Y), math.inf), np.full(len(Y), math.inf), []
    yy, e2 = np.vecdot(Y, Y), eta * eta
    B = np.matvec(G[:, nx:], Y)
    bsx2 = (B * sx) ** 2
    trace = []

    def at(lam, rows):
        b, lam_ = B[rows], lam[:, None]
        E = sx + lam_ * sy
        z = lam_ * b / E
        zz = z * z
        cost = np.vecdot(zz, sx)
        r = yy[rows] - 2 * np.vecdot(b, z) + np.vecdot(zz, sy)  # |w_y - y|^2
        trace.append((rows, lam, z, cost, r))
        up = np.sqrt(cost)
        np.copyto(up, math.inf, where=~(r <= e2))
        return (e2 - r, 2 * np.add.reduce(bsx2[rows] / E ** 3, 1),
                np.sqrt(np.maximum(cost + lam * (r - e2), 0.0)), up, None)

    lower, upper, _ = _bracket_search(at, len(Y), ends=(1 / _LAM_MAX,))
    return lower, upper, trace
