"""Polyhedra, projections, cones, and weighted dual-norm distances."""

import itertools
import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog, minimize, minimize_scalar, nnls

import regulab.sets
from regulab import (
    EmptySetError,
    GammaMetric,
    GridSpec,
    NumericError,
    PointCloud,
    Polyhedron,
    PolyUnion,
    cone_min_norm,
    dist_to_region,
    gamma_dual_distance,
    intersect_cones,
    norm_subdifferential,
    normal_cone_at,
    project_polyhedron,
)
from regulab.mappings import PolyhedralGraphMap, ScanGrids
from regulab.sets import (
    ConeRep,
    PolyMatrix,
    _is_nonneg_lsq_optimal,
    _least_distance,
    _min_norm_2d,
    _min_norm_subspace,
    _nonneg_lsq,
    _orthonormal_split,
    _support_2d,
    _support_subspace,
    cone_rays_from_halfspaces,
    slice_distances,
)
from regulab.spaces import NormedSpace, make_grid


def unit_box(n):
    A = np.vstack([np.eye(n), -np.eye(n)])
    return Polyhedron(A, np.ones(2 * n))


# ---------------------------------------------------------------------------
# distances and projections


def test_dist_membership_zero():
    S = PolyUnion([unit_box(2)])
    d, near = dist_to_region([0.0, 0.0], S)
    assert d == 0.0
    assert np.allclose(near, [0.0, 0.0])


def test_dist_to_empty_is_inf():
    d, near = dist_to_region([1.0], PointCloud(np.zeros((0, 1))))
    assert math.isinf(d) and near is None
    empty_poly = Polyhedron([[1.0], [-1.0]], [-1.0, -1.0])  # x<=-1 and x>=1
    assert empty_poly.is_empty()
    d, near = dist_to_region([0.0], PolyUnion([empty_poly]))
    assert math.isinf(d) and near is None


def test_dist_unit_box_side():
    d, near = dist_to_region([2.0, 0.0], PolyUnion([unit_box(2)]))
    assert abs(d - 1.0) < 1e-9
    assert np.allclose(near, [1.0, 0.0], atol=1e-9)
    # brute-force grid check
    grid = make_grid(GridSpec((-1.0, -1.0), (1.0, 1.0), 101))
    dg = np.min(np.linalg.norm(grid - np.array([2.0, 0.0]), axis=1))
    assert d <= dg + 1e-9


@st.composite
def _clouds_and_rows(draw):
    """A cloud of 1-30 points in R^1-R^3, repeats kept, and 1-12 rows to
    measure from; half-integer coordinates make ties between cloud points
    common."""
    n = draw(st.integers(1, 3))
    coord = st.one_of(_halves, st.floats(-1e3, 1e3))
    point = st.lists(coord, min_size=n, max_size=n)
    cloud = draw(st.lists(point, min_size=1, max_size=30))
    rows = draw(st.lists(point, min_size=1, max_size=12))
    return np.array(cloud, float), np.array(rows, float)


@given(_clouds_and_rows())
@example((np.array([[-1.0], [1.0], [1.0]]), np.array([[0.0], [1.0], [3.0]])))
@example((np.zeros((0, 2)), np.array([[0.0, 1.0], [2.0, 2.0]])))
@settings(max_examples=300, deadline=None)
def test_stacked_cloud_distances_equal_one_point_calls(case):
    cloud, rows = case
    region = PointCloud(cloud, dedupe_tol=0.0)
    d, near = dist_to_region(rows, region)
    # distance matrices of at most 5 entries: a row or two at a time
    with mock.patch.object(regulab.sets, "_BLOCK", 5):
        d_small, near_small = dist_to_region(rows, region)
    assert d.shape == d_small.shape == (len(rows),)
    assert len(near) == len(near_small) == len(rows)
    for i, x in enumerate(rows):
        one = dist_to_region(x, region)
        if len(cloud) == 0:
            assert one == (math.inf, None)
            assert d[i] == d_small[i] == math.inf
            assert near[i] is None and near_small[i] is None
            continue
        # the one-point answer as the distance row and its first minimum
        dist = np.linalg.norm(cloud - x, axis=1)
        k = int(np.argmin(dist))
        assert repr(one[0]) == repr(float(dist[k]))
        assert one[1].tolist() == cloud[k].tolist()
        for dd, u in ((d, near), (d_small, near_small)):
            assert repr(float(dd[i])) == repr(one[0])
            assert u[i].tolist() == one[1].tolist()


def test_projection_fixed_point_and_halfplane():
    Q = Polyhedron([[0.0, 1.0]], [1.0])
    assert np.allclose(project_polyhedron([0.3, 0.2], Q), [0.3, 0.2])
    assert np.allclose(project_polyhedron([0.0, 2.0], Q), [0.0, 1.0])


def test_projection_matches_grid_oracle_in_3d():
    rng = np.random.default_rng(3)
    Q = unit_box(3)
    for _ in range(5):
        x = rng.uniform(-2, 2, size=3)
        q = project_polyhedron(x, Q)
        assert Q.contains(q, 1e-8)
        grid = make_grid(GridSpec((-1,) * 3, (1,) * 3, 21))
        dg = np.min(np.linalg.norm(grid - x, axis=1))
        assert np.linalg.norm(q - x) <= dg + 1e-9
        # idempotence
        assert np.allclose(project_polyhedron(q, Q), q, atol=1e-9)


def test_projection_variational_inequality():
    rng = np.random.default_rng(5)
    Q = unit_box(2)
    verts = Q.vertices()
    assert verts.shape[0] == 4
    for _ in range(10):
        x = rng.uniform(-3, 3, size=2)
        q = project_polyhedron(x, Q)
        for z in verts:
            assert (x - q) @ (z - q) <= 1e-7


def test_projection_onto_empty_raises():
    with pytest.raises(EmptySetError):
        project_polyhedron([0.0], Polyhedron([[1.0], [-1.0]], [-1.0, -1.0]))
    with pytest.raises(EmptySetError):
        project_polyhedron(np.array([[0.0], [3.0]]),
                           Polyhedron([[1.0], [-1.0]], [-1.0, -1.0]))
    # empty, yet the least-distance residual of the origin is +-1.1e-16:
    # emptiness must not be decided on its sign alone
    with pytest.raises(EmptySetError):
        project_polyhedron([0.0], Polyhedron([[2.0], [-1.0], [-1.0]],
                                             [-1.0, 1.0, -1.0]))


def _ref_projection(x, A, b):
    """Nearest point of ``{A q <= b}`` to ``x`` by brute force: equality-
    constrained least squares on every full-rank set of at most n rows, the
    feasible results kept; None when the polyhedron is empty."""
    best, best_d = None, math.inf
    n, m = A.shape[1], A.shape[0]
    for k in range(min(n, m) + 1):
        for rows in itertools.combinations(range(m), k):
            Ai, bi = A[list(rows)], b[list(rows)]
            if k and np.linalg.matrix_rank(Ai) < k:
                continue
            q = x - Ai.T @ np.linalg.solve(Ai @ Ai.T, Ai @ x - bi) if k else x
            scale = 1 + np.abs(b) + np.abs(A) @ np.abs(q)
            if np.all(A @ q - b <= 1e-12 * scale):
                d = np.linalg.norm(q - x)
                if d < best_d:
                    best, best_d = q, d
    return best


_halves = st.integers(-12, 12).map(lambda i: i / 2)


@st.composite
def _polyhedra_and_points(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 6))
    A = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                      min_size=m, max_size=m))
    b = draw(st.lists(_halves, min_size=m, max_size=m))
    x = draw(st.lists(_halves, min_size=n, max_size=n))
    return np.array(A, float), np.array(b), np.array(x)


_BOX_AT_1E4 = (np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
               np.array([1e4 + 1, -1e4 + 1, -1e4 + 1, 1e4 + 1]))


@given(_polyhedra_and_points())
# far from the point: the least-distance step is long
@example((np.array([[-1.0]]), np.array([-1000.0]), np.zeros(1)))
@example((*_BOX_AT_1E4, np.zeros(2)))
@example((_BOX_AT_1E4[0], np.ones(4), np.array([1e6, -3e5])))
@settings(max_examples=400, deadline=None)
def test_projection_matches_active_set_enumeration(case):
    A, b, x = case
    Q = Polyhedron(A, b)
    ref = _ref_projection(x, A, b)
    if ref is None:
        with pytest.raises(EmptySetError):
            project_polyhedron(x, Q)
        return
    q = project_polyhedron(x, Q)
    assert Q.contains(q)
    d = np.linalg.norm(ref - x)
    assert np.linalg.norm(q - ref) <= 1e-9 * (1 + d), (q, ref)


@given(_polyhedra_and_points())
# empty, yet the least-distance residual of the origin is +-1.1e-16:
# emptiness must not be decided on its sign alone
@example((np.array([[2.0], [-1.0], [-1.0]]), np.array([-1.0, 1.0, -1.0]),
          np.zeros(1)))
# no rows: all of R^2 (nnls with no columns would crash the interpreter)
@example((np.zeros((0, 2)), np.zeros(0), np.zeros(2)))
# far from the origin: {x >= 1000}, a box around (1e4, -1e4), and a
# triangle scaled by 1e6
@example((np.array([[-1.0]]), np.array([-1000.0]), np.zeros(1)))
@example((*_BOX_AT_1E4, np.zeros(2)))
@example((np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]),
          np.array([-1e6, -1e6, 3e6]), np.zeros(2)))
@settings(max_examples=400, deadline=None)
def test_emptiness_matches_highs(case):
    A, b, _ = case
    n = A.shape[1]
    res = linprog(np.zeros(n), A_ub=A, b_ub=b, bounds=[(None, None)] * n,
                  method="highs")
    assert res.status in (0, 2)
    Q = Polyhedron(A, b)
    assert Q.is_empty() == (res.status == 2)
    z = _least_distance(A, b)
    assert (z is None) == (res.status == 2)
    if z is not None:
        # the least-norm point of Q, as the projection of the origin
        assert Q.contains(z)
        ref = _ref_projection(np.zeros(n), A, b)
        assert np.linalg.norm(z - ref) <= 1e-9 * (1 + np.linalg.norm(ref))


@given(_polyhedra_and_points(), st.integers(1, 8))
@settings(max_examples=200, deadline=None)
def test_least_distance_is_scale_equivariant(case, k):
    # {A z <= t b} is t {A z <= b}: the same emptiness and t times the
    # least-norm point, however far from the origin t puts the polyhedron
    A, b, _ = case
    t = 10.0 ** k
    z, zt = _least_distance(A, b), _least_distance(A, t * b)
    assert (z is None) == (zt is None)
    if z is not None:
        assert np.linalg.norm(zt - t * z) <= 1e-9 * t * (1 + np.linalg.norm(z))


def test_projection_of_a_far_polyhedron_is_contained():
    # the nearest point to the origin violates the first row by 7.45e-9,
    # rounding against right-hand sides near 3e6: a tolerance that is not
    # relative to |b| rejected it
    Q = Polyhedron([[-1.0, -3.0], [1.0, 2.0], [-1.0, 3.0]],
                   [2945934, -2188393, -1599311.5])
    z = project_polyhedron([0.0, 0.0], Q)
    assert np.allclose(z, [-673311, -757541], rtol=0, atol=1e-6)
    assert Q.contains(z)
    assert not Q.contains(z + [0.0, -1e-3])


def test_graph_points_of_a_wedge_are_on_the_graph():
    # {2x + y >= 1, 3x - 2y <= -2, y <= 3x} is a wedge with apex (2/3, 2),
    # the projection of the grid point (2, -4)
    A = np.array([[-2.0, -1.0], [3.0, -2.0], [-3.0, 1.0]])
    b = np.array([-1.0, -2.0, 0.0])
    one = NormedSpace("R", 1)
    F = PolyhedralGraphMap(one, one, lambda p: [(A, b)], param_space=one,
                           convex=True)
    g = GridSpec((-4.0,), (4.0,), 17)
    pts = F.graph_points((0.0,), ScanGrids(x=g, y=g, p=g))
    assert pts.shape[0] > 0
    for x, y in pts:
        assert F.in_graph((0.0,), [x], [y]), (x, y)
    assert np.allclose(project_polyhedron([2.0, -4.0], Polyhedron(A, b)),
                       [2 / 3, 2.0], atol=1e-12)


def _exact_solve(M, v):
    """The solution of the square system ``M c = v`` of Fractions, by
    Gauss-Jordan elimination; None when ``M`` is singular."""
    k = len(v)
    rows = [list(r) + [c] for r, c in zip(M, v)]
    for j in range(k):
        i = next((i for i in range(j, k) if rows[i][j]), None)
        if i is None:
            return None
        rows[j], rows[i] = rows[i], rows[j]
        rows[j] = [a / rows[j][j] for a in rows[j]]
        rows = [r if i == j else [a - r[j] * c for a, c in zip(r, rows[j])]
                for i, r in enumerate(rows)]
    return [r[k] for r in rows]


def _exact_projection(x, A, b, near):
    """The projection of ``x`` onto ``{A q <= b}`` in rational arithmetic,
    rounded to floats: the ``q = x - A_S^T lam``, ``(A_S A_S^T) lam = A_S x -
    b_S``, of the first set S (smallest first) of rows active at ``near``
    within 1e-6 whose ``lam >= 0`` and ``A q <= b`` hold exactly, the
    optimality conditions; None when no such S does."""
    Af = [[Fraction(a) for a in row] for row in A.tolist()]
    bf = [Fraction(c) for c in b.tolist()]
    xf = [Fraction(c) for c in x.tolist()]
    scale = 1 + np.abs(x).max() + np.abs(b).max()
    rows = np.flatnonzero(np.abs(A @ near - b) <= 1e-6 * scale).tolist()

    def dot(u, v):
        return sum(a * c for a, c in zip(u, v))

    for k in range(min(len(rows), len(xf)) + 1):
        for S in itertools.combinations(rows, k):
            AS = [Af[i] for i in S]
            lam = _exact_solve([[dot(u, v) for v in AS] for u in AS],
                               [dot(Af[i], xf) - bf[i] for i in S])
            if lam is None or any(v < 0 for v in lam):
                continue
            q = [c - dot(lam, col) for c, col in zip(xf, zip(*AS))] \
                if k else xf
            if all(dot(a, q) <= c for a, c in zip(Af, bf)):
                return np.array([float(c) for c in q])
    return None


@st.composite
def _polyhedra_and_rows(draw):
    """A polyhedron in R^1-R^4 of 1-6 integer rows, up to two of them
    repeated or repeated with both signs (an equality), and 1-8 points:
    half-integer ones, some then moved onto a facet's plane or 1e-10
    inside or outside it."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 6))
    A = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                      min_size=m, max_size=m))
    b = draw(st.lists(_halves, min_size=m, max_size=m))
    for i, sign in draw(st.lists(st.tuples(st.integers(0, m - 1),
                                           st.sampled_from([1, -1])),
                                 max_size=2)):
        A.append([sign * a for a in A[i]])
        b.append(sign * b[i])
    A, b = np.array(A, float), np.array(b)
    X = np.array(draw(st.lists(st.lists(_halves, min_size=n, max_size=n),
                               min_size=1, max_size=8)))
    for k, i, t in draw(st.lists(st.tuples(
            st.integers(0, len(X) - 1), st.integers(0, len(b) - 1),
            st.sampled_from([-1e-10, 0.0, 1e-10])), max_size=3)):
        a = A[i]
        if a @ a:
            X[k] -= a * (a @ X[k] - b[i] - t) / (a @ a)
    return A, b, X


@given(_polyhedra_and_rows())
# a polyhedron that is one point of R^4 (two equalities and two rows), far
# from the points: the least-distance program misses it by 1.1e-11 of the
# scale, the active sets by 1.1e-14
@example((np.array([[3, -2, 1, -2], [1, -3, 2, 0], [-3, 2, 2, 1],
                    [0, 2, 3, -2], [3, -2, -2, -1], [-3, 2, -1, 2]], float),
          np.array([4.5, 2.0, 3.5, -5.5, -3.5, -4.5]),
          np.array([[3.0, -2.0, 3.0, 5.5], [-6.0, -0.5, 2.5, 2.0]])))
@settings(max_examples=300, deadline=None)
def test_stacked_projections_are_exact_one_point_projections(case):
    A, b, X = case
    Q = Polyhedron(A, b)
    if Q.is_empty():
        with pytest.raises(EmptySetError):
            project_polyhedron(X, Q)
        return
    U = project_polyhedron(X, Q)
    # one point is a batch of one, on a polyhedron built afresh
    one = [project_polyhedron(x, Polyhedron(A, b)) for x in X]
    assert U.tobytes() == np.array(one).tobytes()
    for x, u in zip(X, U):
        if Q.contains(x, 1e-10):
            assert u.tobytes() == x.tobytes()
            continue
        exact = _exact_projection(x, A, b, u)
        assert exact is not None, (x, u)
        # rounding scales with the numbers that meet in the products
        scale = 1 + np.abs(x).max() + np.abs(b).max() + np.abs(exact).max()
        assert np.abs(u - exact).max() <= 1e-12 * scale, (x, u, exact)
        program = x + _least_distance(A, b - A @ x)
        assert np.abs(u - program).max() <= 1e-9 * scale, (x, u, program)


def test_rows_no_active_set_certifies_go_to_the_program(monkeypatch):
    calls = []
    least_distance = regulab.sets._least_distance
    monkeypatch.setattr(regulab.sets, "_least_distance",
                        lambda A, h: calls.append(h) or least_distance(A, h))
    # two rows 1e-5 apart in angle meet at the origin, the projection of
    # (2, 1e-5): the pair is too ill-conditioned to try, and either row
    # alone leaves the point 1e-10 outside the other; (2, -1) projects
    # onto the first row alone, and (-1, -1) is inside
    Q = Polyhedron([[1.0, 0.0], [1.0, 1e-5]], [0.0, 0.0])
    X = np.array([[2.0, 1e-5], [2.0, -1.0], [-1.0, -1.0]])
    U = project_polyhedron(X, Q)
    assert len(calls) == 1
    program = X[0] + least_distance(Q.A, Q.b - Q.A @ X[0])
    assert U[0].tobytes() == program.tobytes()
    assert np.abs(U[0]).max() <= 1e-9
    assert U[1:].tolist() == [[0.0, -1.0], [-1.0, -1.0]]
    # 30 rows in R^3 have 4525 sets of at most 3 rows to try, above
    # _MAX_FACES: every row outside goes to the program
    calls.clear()
    Q = Polyhedron(regulab.sets._unit_directions(3, 30), np.ones(30))
    X = np.array([[0.0, 0.0, 0.0], [3.0, 0.5, -1.0], [-2.0, 2.0, 2.0]])
    U = project_polyhedron(X, Q)
    assert len(calls) == 2
    for x, u in zip(X[1:], U[1:]):
        assert u.tobytes() == (x + least_distance(Q.A, Q.b - Q.A @ x))\
            .tobytes()


def test_union_distances_keep_the_first_nearest_piece():
    # 1.5 is 0.5 from both boxes: the first piece's point is kept; an
    # empty piece is skipped
    left, right = unit_box(1), Polyhedron([[1.0], [-1.0]], [3.0, -2.0])
    empty = Polyhedron([[1.0], [-1.0]], [-1.0, -1.0])
    X = np.array([[1.5], [2.5], [-3.0]])
    for pieces, tie in (([left, empty, right], 1.0), ([right, left], 2.0)):
        d, near = dist_to_region(X, PolyUnion(pieces))
        assert d.tolist() == [0.5, 0.0, 2.0]
        assert [u.tolist() for u in near] == [[tie], [2.5], [-1.0]]
        for x, dx, u in zip(X, d, near):
            one = dist_to_region(x, PolyUnion(pieces))
            assert (one[0], one[1].tolist()) == (dx, u.tolist())


def test_row_subsets_are_capped():
    assert list(regulab.sets._row_subsets(range(3), (1, 2), "")) == \
        [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
    # C(20, 4) = 4845 vertex candidates, above _MAX_FACES
    Q = Polyhedron(np.random.default_rng(0).normal(size=(20, 4)), np.ones(20))
    with pytest.raises(NumericError, match="row subsets to try"):
        Q.vertices()


def test_nonneg_lsq_enumeration_is_capped():
    # where nnls fails, 13 columns in R^13 have 2^13 - 1 = 8191 column sets,
    # above _MAX_FACES; 12 columns have 4095 and are enumerated
    def broken(*args, **kwargs):
        raise RuntimeError("too many iterations")

    rng = np.random.default_rng(0)
    B, v = rng.normal(size=(13, 13)), rng.normal(size=13)
    with mock.patch.object(regulab.sets, "nnls", broken):
        with pytest.raises(NumericError, match="column sets to try"):
            _nonneg_lsq(B, v)
        c = _nonneg_lsq(B[:, :12], v)
    assert np.all(c >= 0)
    assert np.linalg.norm(B[:, :12] @ c - v) <= \
        np.linalg.norm(B[:, :12] @ _nonneg_lsq(B[:, :12], v) - v) + 1e-12


def test_nonneg_lsq_rejects_an_nnls_answer_far_from_the_optimum():
    # a cone's generators with the y-part weighted by e^13: nnls stops at
    # residual^2 4.99e11 with coefficients near 3e6, where the optimum is
    # 2.17e10; a tolerance that grows with sum(c) once passed its gradient
    # of 6.9e5 on the support, while the rounding of B c - v is about 1e3
    G = np.array([[0.0, -1, 0, 2], [-1, 0, -1, -2]])
    L = np.array([[0.0, 0, -1, -2]])
    B = np.vstack([G, L, -L]).T
    w = math.exp(13)
    M, t = np.vstack([B[:1], w * B[1:]]), np.r_[0.0, w * np.array([-1, -1, 1])]
    far = nnls(M, t)[0]
    assert not _is_nonneg_lsq_optimal(M, t, far)
    c = _nonneg_lsq(M, t)
    assert np.all(c >= 0) and _is_nonneg_lsq_optimal(M, t, c)
    assert np.sum((M @ c - t) ** 2) <= 2.2e10 < np.sum((M @ far - t) ** 2)


# ---------------------------------------------------------------------------
# norm subdifferential


def test_norm_subdifferential():
    assert norm_subdifferential([1.0], [1.0]) == "unit-ball"
    assert np.allclose(norm_subdifferential([3.0, 4.0], [0.0, 0.0]), [0.6, 0.8])
    assert np.allclose(norm_subdifferential([-2.0], [0.0]), [-1.0])


# ---------------------------------------------------------------------------
# cones


def test_normal_cone_single_face():
    S = Polyhedron([[0.0, 1.0]], [1.0])
    cone = normal_cone_at(S, [0.0, 1.0])
    assert cone.generators.shape[0] == 1
    g = cone.generators[0] / np.linalg.norm(cone.generators[0])
    assert np.allclose(g, [0.0, 1.0])
    assert cone.contains([0.0, 2.5])
    assert not cone.contains([0.1, 1.0])


def test_normal_cone_outside_point_is_empty():
    S = Polyhedron([[0.0, 1.0]], [1.0])
    cone = normal_cone_at(S, [0.0, 2.0])
    assert cone.empty
    assert math.isinf(cone.euclidean_distance([0.0, 1.0]))


def test_normal_cone_interior_point_is_zero_cone():
    cone = normal_cone_at(unit_box(2), [0.0, 0.0])
    assert cone.is_trivial()
    assert cone.euclidean_distance([0.3, 0.4]) == 0.5


def test_cone_polarity_generators_vs_vertices():
    Q = unit_box(2)
    x = np.array([1.0, 0.3])
    cone = normal_cone_at(Q, x)
    for g in cone.generators:
        for z in Q.vertices():
            assert g @ (z - x) <= 1e-7


def test_union_cone_is_intersection():
    # two halfplanes meeting along the x-axis boundary point at the origin
    S1 = Polyhedron([[1.0, 1.0]], [0.0])   # x + y <= 0
    S2 = Polyhedron([[1.0, -1.0]], [0.0])  # x - y <= 0
    S = PolyUnion([S1, S2])
    x = np.array([0.0, 0.0])
    cone = normal_cone_at(S, x)
    c1, c2 = normal_cone_at(S1, x), normal_cone_at(S2, x)
    for v in cone.generators:
        assert c1.euclidean_distance(v) <= 1e-9
        assert c2.euclidean_distance(v) <= 1e-9
    # limiting pairing test: generators pair nonpositively into both pieces
    rng = np.random.default_rng(0)
    for v in cone.generators:
        for _ in range(50):
            z = rng.uniform(-1, 1, size=2)
            if S.contains(z):
                assert v @ (z - x) <= 1e-7 * (1 + np.linalg.norm(v))


def test_intersect_cones_halfline():
    c1 = ConeRep.make(generators=[[1.0, 0.0], [0.0, 1.0]])
    c2 = ConeRep.make(generators=[[1.0, 0.0], [0.0, -1.0]])
    inter = intersect_cones(c1, c2)
    assert inter.contains([2.0, 0.0])
    assert not inter.contains([0.0, 1.0])
    assert not inter.contains([0.0, -1.0])


def _lsq_cone_distance(cone, v):
    """|B c - v| at the nonnegative least-squares c, with B the columns
    [G, L, -L] that generate the cone."""
    B = cone.polar_halfspaces().T
    if B.shape[1] == 0:
        return float(np.linalg.norm(v))
    return float(np.linalg.norm(B @ _nonneg_lsq(B, v) - v))


@st.composite
def _cone_pair_and_points(draw):
    """Two integer generator cones in R^4 or R^5 that may share rays, and
    points drawn from the shared part, from each cone and from the box."""
    n = draw(st.sampled_from([4, 5]))
    row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    shared = draw(st.lists(row, max_size=2))
    gens = [np.array(draw(st.lists(row, min_size=1, max_size=3)) + shared,
                     float) for _ in range(2)]
    lin = [np.array(draw(st.lists(row, max_size=1)), float).reshape(-1, n)
           for _ in range(2)]
    cones = [ConeRep.make(generators=G, lineality=L if len(L) else None)
             for G, L in zip(gens, lin)]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pts = [rng.uniform(-2, 2, n) for _ in range(4)]
    for G in [np.array(shared, float).reshape(-1, n)] + gens:
        pts += [rng.uniform(0, 1, len(G)) @ G for _ in range(4) if len(G)]
    return cones, pts


@given(_cone_pair_and_points())
# two zero cones in R^5: the polars' +-L rows are 20 halfspaces on 5 planes,
# and their 4-row subsets would exceed the cap counted row by row
@example(case=([ConeRep.make(generators=[[0.0] * 5])] * 2, [np.ones(5)]))
@settings(max_examples=100, deadline=None)
def test_intersect_cones_matches_membership_in_four_and_five_dimensions(case):
    # the intersection lies in both cones, so a point is no nearer to it
    # than to either; a point in both cones is in the intersection
    (c1, c2), pts = case
    inter = intersect_cones(c1, c2)
    for v in pts:
        d1, d2 = _lsq_cone_distance(c1, v), _lsq_cone_distance(c2, v)
        d = _lsq_cone_distance(inter, v)
        assert d >= max(d1, d2) - 1e-9 * (1 + np.linalg.norm(v))
        if max(d1, d2) <= 1e-12:
            assert d <= 1e-7 * (1 + np.linalg.norm(v))


def test_cone_rays_from_halfspaces_quadrant():
    cone = cone_rays_from_halfspaces(np.array([[-1.0, 0.0], [0.0, -1.0]]), 2)
    assert cone.lineality.shape[0] == 0
    dirs = sorted(tuple(np.round(g, 9)) for g in cone.generators)
    assert dirs == [(0.0, 1.0), (1.0, 0.0)]


def test_cone_membership_distance_consistency():
    cone = ConeRep.make(generators=[[1.0, 1.0]], lineality=[[1.0, -1.0]])
    assert cone.contains([3.0, 1.0])  # (2,2) + (1,-1)
    assert cone.euclidean_distance([3.0, 1.0]) <= 1e-9
    assert cone.euclidean_distance([-1.0, -1.0]) > 1e-3
    # more columns than rows, and all of R^2
    whole = ConeRep.make(generators=[[-3, 3], [3, 0]],
                         lineality=[[-3, 0], [-2, 1]])
    assert whole.contains([1.6554360668998278, -1.9079672547264401])


def _ref_cone_distance(v, cone):
    """Distance to the cone generated by the columns [G, L, -L]: least
    squares on every linearly independent set of columns, kept when its
    coefficients are nonnegative (the nearest point is such a solution)."""
    B = cone.polar_halfspaces()
    best = np.linalg.norm(v)
    for k in range(1, len(v) + 1):
        for cols in itertools.combinations(range(B.shape[0]), k):
            Bs = B[list(cols)].T
            if np.linalg.matrix_rank(Bs) < k:
                continue
            c = np.linalg.lstsq(Bs, v, rcond=None)[0]
            if np.all(c >= -1e-12):
                best = min(best, np.linalg.norm(Bs @ c - v))
    return best


_int_rows = st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                     max_size=3)


@given(gens=_int_rows, lin=_int_rows.map(lambda r: r[:2]),
       v=st.tuples(st.floats(-2, 2), st.floats(-2, 2)))
# nnls alone returns 7.0767 here; v is orthogonal to both generators, so the
# origin is nearest and the distance is |v| = 5.0194844557355776
@example(gens=[(-2, 1, 3), (2, -2, -1)], lin=[],
         v=(3.7413028183427626, 2.993042254674209, 1.4965211273371055))
# a subnormal v: B^T (B c - v) underflows, so the optimality check needs a
# tolerance floor
@example(gens=[], lin=[(0, 2)], v=(0.0, 5e-324))
@settings(max_examples=300, deadline=None)
def test_cone_distance_matches_column_enumeration(gens, lin, v):
    cone = ConeRep.make(generators=gens or None, lineality=lin or None,
                        dim=len(v))
    v = np.array(v)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        d = cone.euclidean_distance(v)
    assert abs(d - _ref_cone_distance(v, cone)) <= 1e-9


@st.composite
def _cone_point_plus_polar_vector(draw):
    """A cone in R^3 or R^4 with n - 1 integer generators, one more
    generator turned away from their unit normal u, and
    v = (a cone point) + s u: u lies in the polar and is orthogonal to the
    cone point, the ties on which Lawson-Hanson's method can stop early."""
    n = draw(st.sampled_from([3, 4]))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    G = np.array(draw(st.lists(row, min_size=n - 1, max_size=n - 1)), float)
    assume(np.linalg.matrix_rank(G) == n - 1)
    u = np.linalg.svd(G)[2][-1]
    extra = np.array(draw(st.lists(row, max_size=1)), float).reshape(-1, n)
    extra *= np.where(extra @ u > 0, -1.0, 1.0)[:, None]
    coef = np.array(draw(st.lists(_halves.map(abs), min_size=n - 1,
                                  max_size=n - 1)))
    s = draw(st.floats(0.5, 8.0))
    return ConeRep.make(generators=np.vstack([G, extra])), coef @ G + s * u


@given(_cone_point_plus_polar_vector())
@settings(max_examples=300, deadline=None)
def test_cone_distance_at_a_cone_point_plus_a_polar_vector(case):
    cone, v = case
    assert abs(cone.euclidean_distance(v) - _ref_cone_distance(v, cone)) \
        <= 1e-9


# ---------------------------------------------------------------------------
# weighted dual-norm distance to cones


def test_dual_distance_to_diagonal_line():
    cone = ConeRep.make(lineality=[[1.0, 1.0]])
    q = np.array([0.0, -1.0])
    for gamma, expect in [(0.25, 1.0), (0.5, 1.0), (1.0, 1.0), (2.0, 0.5),
                          (4.0, 0.25)]:
        v = gamma_dual_distance(q, cone, GammaMetric(gamma), 1)
        assert abs(v - expect) < 1e-9


def test_dual_distance_to_slanted_line():
    # line spanned by (2x, -1): distance of (0,-1) is min(2|x|, 1/gamma)
    for xv in (0.01, 0.05, 0.2, 0.45):
        cone = ConeRep.make(lineality=[[2 * xv, -1.0]])
        v = gamma_dual_distance(np.array([0.0, -1.0]), cone, GammaMetric(1.0), 1)
        assert abs(v - min(2 * xv, 1.0)) < 1e-9


def test_dual_distance_membership_zero_and_empty_inf():
    cone = ConeRep.make(generators=[[1.0, 0.0]])
    assert gamma_dual_distance([2.0, 0.0], cone, GammaMetric(1.0), 1) == 0.0
    assert math.isinf(
        gamma_dual_distance([1.0, 0.0], ConeRep.empty_cone(2), GammaMetric(1.0), 1))


def test_dual_distance_2d_matches_dense_search():
    # 2-D X, 1-D Y: distance from (0,0,-1) to the plane normal cone of the
    # graph of y = a.x, checked against dense sampling of the cone
    a = np.array([0.8, -0.5])
    lin = np.array([[a[0], 0.0, -1.0], [0.0, a[1], -1.0]])
    # graph of y = a.x has normal space spanned by (a, -1): single line
    cone = ConeRep.make(lineality=[[a[0], a[1], -1.0]])
    g = GammaMetric(1.3)
    v = gamma_dual_distance(np.array([0.0, 0.0, -1.0]), cone, g, 2)
    # dense oracle over the line parameter
    ts = np.linspace(-5, 5, 200001)
    dists = (np.abs(ts) * np.linalg.norm(a)
             + np.abs(-1.0 + ts) / g.gamma)
    assert abs(v - dists.min()) < 1e-6


def test_cone_min_norm_diagonal():
    # cone {(t, t)}: elements with y-part in B_eta(-1) have |x| >= 1 - eta
    cone = ConeRep.make(lineality=[[1.0, 1.0]])
    v = cone_min_norm(cone, 1, np.array([-1.0]), 0.5)
    assert abs(v - 0.5) < 1e-9


def test_cone_min_norm_slanted_and_vacuous():
    cone = ConeRep.make(lineality=[[2 * 0.1, -1.0]])
    # elements lam*(0.2, -1): y-part -lam in B_eta(-1) -> lam in [1-eta,1+eta]
    v = cone_min_norm(cone, 1, np.array([-1.0]), 0.25)
    assert abs(v - 0.2 * 0.75) < 1e-9
    # generator-only cone pointing the wrong way: ball unreachable
    away = ConeRep.make(generators=[[1.0, 1.0]])
    assert math.isinf(cone_min_norm(away, 1, np.array([-5.0]), 0.5))


# ---------------------------------------------------------------------------
# closed forms on subspace cones, and face by face on the other cones


def _graph_normal_space(a):
    """The normal space of the graph of x -> a x: basis rows [-a | I]."""
    a = np.asarray(a, dtype=float)
    return ConeRep.make(lineality=np.hstack([-a, np.eye(a.shape[0])]))


def test_subspace_dual_distance_regressions():
    # SLSQP gave 0.0 on the first two: every start failed or stopped short
    for a, q, gamma, exact in (([[-2, -1], [3, 3]], [-1, 1, 0, -2], 1.0,
                                math.sqrt(5)),
                               ([[-1, -3], [2, -2]], [2, -2, -2, -2], 2.0,
                                math.sqrt(5) / 2),
                               ([[2, 1], [0, -2]], [-1, -2, -2, -2], 0.5,
                                5.0)):
        v = gamma_dual_distance(np.array(q, float), _graph_normal_space(a),
                                GammaMetric(gamma), 2)
        assert abs(v - exact) <= 1e-9
    # SLSQP gave inf (vacuous) here.  a is sqrt(10) times a rotation, so
    # |a^T v| over |v - y| <= 1 is least at sqrt(10) (|y| - 1)
    cone = _graph_normal_space([[1, 3], [-3, 1]])
    v = cone_min_norm(cone, 2, np.array([1.0, 1.5]), 1.0)
    assert abs(v - math.sqrt(10) * (math.sqrt(3.25) - 1)) <= 1e-9


def _nelder_mead_min(f, starts):
    return min(min(f(z0), minimize(f, z0, method="Nelder-Mead",
                                   options={"xatol": 1e-11, "fatol": 1e-13,
                                            "maxiter": 20000}).fun)
               for z0 in starts)


def _grid_starts(f, center, radius, dim, best=3):
    """``center`` and the ``best`` points of a dense grid around it."""
    axes = [np.linspace(-radius, radius, 25 if dim <= 2 else 11)] * dim
    pts = center + np.stack(np.meshgrid(*axes), -1).reshape(-1, dim)
    vals = np.array([f(z) for z in pts])
    return [center, *pts[np.argsort(vals)[:best]]]


@st.composite
def _subspace_case(draw):
    n = draw(st.sampled_from([3, 4]))
    nx = draw(st.integers(1, n - 1))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n) \
        .filter(any)
    L = np.array(draw(st.lists(row, min_size=1, max_size=n - 1)), float)
    q = np.array(draw(st.lists(st.floats(-2, 2), min_size=n, max_size=n)))
    gamma = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]))
    return L, nx, q, gamma


def _kink_points(R, q, nx):
    """The best ``c`` with ``(q - R^T c)_x = 0``, and the best with ``(q -
    R^T c)_y = 0``, where such ``c`` exist: on each, one norm of the
    objective of ``test_subspace_dual_distance_matches_primal_search`` is 0,
    and the other is least by least squares over the affine set."""
    points = []
    for zero, rest in ((slice(None, nx), slice(nx, None)),
                       (slice(nx, None), slice(None, nx))):
        M, t = R[:, zero].T, q[zero]
        c = np.linalg.lstsq(M, t, rcond=None)[0]
        if np.linalg.norm(M @ c - t) > 1e-12 * (1 + np.linalg.norm(t)):
            continue
        N = _orthonormal_split(M)[1]  # c + z N keeps the zero block
        z = np.linalg.lstsq(R[:, rest].T @ N.T, q[rest] - c @ R[:, rest],
                            rcond=None)[0]
        points.append(c + z @ N)
    return points


@given(_subspace_case())
# Nelder-Mead stalled at 3.8716302557454667 on the kink where the x-part is 0
@example((np.array([[1, 2, -3, -1], [2, -1, 3, 1]], float), 1,
          np.array([0.0, 0.0, 0.0, 1.0]), 0.25))
@settings(max_examples=60, deadline=None)
def test_subspace_dual_distance_matches_primal_search(case):
    L, nx, q, gamma = case
    R = _orthonormal_split(L)[0]

    def f(c):  # |q - w|_x + |q - w|_y / gamma at w = R^T c in the cone
        r = q - c @ R
        return np.linalg.norm(r[:nx]) + np.linalg.norm(r[nx:]) / gamma

    # f is convex and smooth off its two kinks, where a simplex can stall:
    # the best points on the kinks, found by least squares, start it too
    c0 = R @ q
    ref = _nelder_mead_min(f, _grid_starts(f, c0, 1.0 + np.linalg.norm(q),
                                           R.shape[0])
                           + _kink_points(R, q, nx))
    val = gamma_dual_distance(q, ConeRep.make(lineality=L), GammaMetric(gamma),
                              nx)
    assert ref - 1e-6 <= val <= ref + 1e-9


def test_subspace_dual_distance_on_a_kink():
    # the optimum has x-part 0, where a Nelder-Mead reference once stalled
    L = np.array([[1, 2, -3, -1], [2, -1, 3, 1]], float)
    val = gamma_dual_distance(np.array([0.0, 0.0, 0.0, 1.0]),
                              ConeRep.make(lineality=L), GammaMetric(0.25), 1)
    assert abs(val - 3.8402898441337117) <= 1e-12


@given(n=st.sampled_from([3, 4]), data=st.data(),
       eta=st.sampled_from([0.25, 0.5, 1.0]))
@settings(max_examples=60, deadline=None)
def test_subspace_min_norm_matches_primal_search(n, data, eta):
    # the graph {(b v, v)} of an integer b reaches every y-target: the
    # minimum of |b v| over |v - y| <= eta, searched over
    # v = y + eta sin(|z|) z / |z|, which covers the ball smoothly
    nx = data.draw(st.integers(1, n - 1))
    ny = n - nx
    b = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=nx * ny,
                                    max_size=nx * ny)), float).reshape(nx, ny)
    y = np.array(data.draw(st.lists(st.floats(-2, 2), min_size=ny,
                                    max_size=ny)))
    cone = ConeRep.make(lineality=np.hstack([b.T, np.eye(ny)]))

    def f(z):  # squared, so that it is smooth where it is 0
        bv = b @ (y + eta * np.sinc(np.linalg.norm(z) / np.pi) * z)
        return bv @ bv

    ref = math.sqrt(_nelder_mead_min(f, _grid_starts(f, np.zeros(ny),
                                                     np.pi / 2, ny)))
    val = cone_min_norm(cone, nx, y, eta)
    assert ref - 1e-6 <= val <= ref + 1e-9


@given(line=st.tuples(*[st.floats(-3, 3, allow_subnormal=False)] * 2)
       .filter(lambda r: math.hypot(*r) > 1e-3),
       q=st.tuples(st.floats(-2, 2), st.floats(-2, 2)),
       gamma=st.sampled_from([0.1, 0.5, 1.0, 2.0, 10.0]), y=_halves,
       eta=st.sampled_from([0.25, 0.5, 1.0]))
@settings(max_examples=300, deadline=None)
def test_subspace_forms_match_2d_vertex_forms_on_lines(line, q, gamma, y,
                                                       eta):
    cone, q, c = ConeRep.make(lineality=[line]), np.array(q), 1.0 / gamma
    polar, primal, _ = cone.face((), 1)
    val, _, u = (a[0] for a in _support_subspace(q[None], polar, c))
    ref = _support_2d(q, cone, c)[0]
    assert abs(val - ref) <= 1e-9 * max(1.0, ref)
    assert abs(cone.lineality @ u)[0] <= 1e-12
    assert abs(u[0]) <= 1 + 1e-12 and abs(u[1]) <= c * (1 + 1e-12)
    assert abs(q @ u - val) <= 1e-12 * max(1.0, val)
    if abs(line[1]) >= 1e-3:  # the line's y-parts reach every target
        mn = _min_norm_subspace(primal, 1, np.array([[y]]), eta)[1][0]
        ref = _min_norm_2d(cone, y, eta)
        assert abs(mn - ref) <= 1e-9 * max(1.0, ref)


def test_generator_cone_is_exact_without_slsqp(monkeypatch):
    def no_minimize(*args, **kwargs):
        raise AssertionError("SLSQP called")

    monkeypatch.setattr(regulab.sets, "minimize", no_minimize)
    # C = cone{(1, 0, 1), (0, 1, 1)}, nx = 2.  The nearest w = (a, b, a + b)
    # to q = (1, -1, -0.5) in |.|_x + |.|_y has a = b = 0, at sqrt(2) + 0.5;
    # |w_x| over a + b in [0.5, 1.5] is least at a = b = 1/4
    cone = ConeRep.make(generators=[[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    val, u = gamma_dual_distance([1.0, -1.0, -0.5], cone, GammaMetric(1.0),
                                 2, with_direction=True)
    assert abs(val - (math.sqrt(2) + 0.5)) <= 1e-12
    assert np.all(cone.generators @ u <= 1e-12)
    assert abs(cone_min_norm(cone, 2, np.array([1.0]), 0.5)
               - math.sqrt(2) / 4) <= 1e-12


def _support_reference(q, cone, gamma, nx):
    """d(q, C) in |.|_x + |.|_y / gamma by a primal search: |r| is the least
    |r|^2 / (2 s) + s / 2 over s > 0, so d is the least over (s_x, s_y) of a
    weighted least-squares distance to the cone (exact, nonnegative least
    squares with its residual recomputed) plus (s_x + s_y / gamma) / 2, a
    convex function of (log s_x, log s_y)."""
    B = cone.polar_halfspaces().T

    def f(z):
        sx, sy = np.exp(np.clip(z, -30.0, 30.0))
        wt = np.where(np.arange(len(q)) < nx, 1 / math.sqrt(2 * sx),
                      1 / math.sqrt(2 * sy * gamma))
        r = wt * (B @ nnls(wt[:, None] * B, wt * q, maxiter=5000)[0] - q)
        return r @ r + (sx + sy / gamma) / 2

    return _nelder_mead_min(f, _grid_starts(f, np.zeros(2), 12.0, 2))


def _nnls_residual(M, t):
    """``M c - t`` at ``c = nnls(M, t)``, or None unless ``c`` passes the
    optimality conditions: ``g = M^T (M c - t)`` is >= 0, and 0 where ``c_j
    > 0``, within 1e-9 |M_j| |t| (|g_j| is at most |M_j| |t| at the
    optimum, where |M c - t| <= |t|).  At a large scale ``nnls`` can stop
    far from the optimum, with a residual that is no least value."""
    c = nnls(M, t, maxiter=5000)[0]
    r = M @ c - t
    g, tol = r @ M, 1e-9 * np.linalg.norm(M, axis=0) * np.linalg.norm(t)
    return r if np.all((g >= -tol) & ((c == 0) | (g <= tol))) else None


def _min_norm_bracket(cone, nx, y, eta):
    """Bounds on min |w_x| over w in the cone with |w_y - y| <= eta.

    Above: a primal search over w_y = y + eta sin(|z|) z / |z|, each slice
    w_y = v solved by nonnegative least squares with the equality kept by a
    penalty 1e10 |w_y - v|^2; squared, so that it is smooth where it is 0.
    It can stall where the cone's y-parts fill only a thin part of the
    ball.  Below: the Lagrangian dual, the least over w in the cone of
    |w_x|^2 + mu (|w_y - y|^2 - eta^2), a nonnegative least-squares value,
    maximized over mu > 0 (concave in mu); loose only where the ball just
    touches the cone's y-parts.  A mu whose least-squares answer fails its
    optimality conditions (``_nnls_residual``) gives no bound."""
    B = cone.polar_halfspaces().T
    A = np.vstack([B[:nx], 1e5 * B[nx:]])

    def f(z):
        v = y + eta * np.sinc(np.linalg.norm(z) / np.pi) * z
        target = np.concatenate([np.zeros(nx), 1e5 * v])
        r = A @ nnls(A, target, maxiter=5000)[0] - target
        return r @ r

    def dual(log_mu):
        s = math.exp(log_mu / 2)
        M = np.vstack([B[:nx], s * B[nx:]])
        r = _nnls_residual(M, np.concatenate([np.zeros(nx), s * y]))
        return -math.inf if r is None else r @ r - s * s * eta * eta

    upper = math.sqrt(_nelder_mead_min(f, _grid_starts(f, np.zeros(len(y)),
                                                       np.pi / 2, len(y))))
    grid = np.linspace(-30.0, 30.0, 121)
    top = grid[np.argmax([dual(t) for t in grid])]
    # a mu without a bound is -inf, which the search may take from itself:
    # its nan value then bounds nothing
    with np.errstate(invalid="ignore"):
        best = minimize_scalar(lambda t: -dual(t),
                               bounds=(top - 0.5, top + 0.5),
                               method="bounded", options={"xatol": 1e-12})
    return math.sqrt(max(0.0, dual(top), -best.fun)), upper


def _check_generator_cone(G, L, nx, q, gamma, y, eta):
    cone = ConeRep.make(generators=G, lineality=L if len(L) else None,
                        dim=len(q))
    val = gamma_dual_distance(q, cone, GammaMetric(gamma), nx)
    ref = _support_reference(q, cone, gamma, nx)
    # the reference is the value of a point of the cone: never below
    assert ref - 1e-6 * max(1.0, ref) <= val <= ref + 1e-9 * max(1.0, ref)
    mn = cone_min_norm(cone, nx, y, eta)
    if math.isinf(mn):  # the unchanged vacuity test
        return
    lower, upper = _min_norm_bracket(cone, nx, y, eta)
    tol = 1e-6 * max(1.0, mn)
    assert lower - tol <= mn <= upper + tol, (lower, mn, upper)
    assert min(mn - lower, upper - mn) <= tol, (lower, mn, upper)


@st.composite
def _generator_cone_case(draw):
    n = draw(st.sampled_from([3, 4]))
    nx = draw(st.integers(1, n - 1))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any)
    G = np.array(draw(st.lists(row, min_size=1, max_size=4)), float)
    L = np.array(draw(st.lists(row, max_size=1)), float).reshape(-1, n)
    floats = st.floats(-2, 2)
    q = np.array(draw(st.lists(floats, min_size=n, max_size=n)))
    y = np.array(draw(st.lists(floats, min_size=n - nx, max_size=n - nx)))
    gamma = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))
    eta = draw(st.sampled_from([0.25, 0.5, 1.0]))
    return G, L, nx, q, gamma, y, eta


@given(_generator_cone_case())
# the cone's y-parts {(t, a, -a)} meet the ball in a thin lens, where the
# primal search stalls at 0.2964; the exact minimum is 0.2721
@example((np.array([[1.0, 0.0, 1.0, -1.0]]), np.array([[0.0, 1.0, 0.0, 0.0]]),
          1, np.zeros(4), 0.25, np.array([0.0, 0.375, -0.5]), 0.25))
# the support maximizer's |u_y|^2 falls 5e-8 short of c^2 = 16, as q_y =
# (1, 1e-9) barely weighs it: the y-ball missed the activity test, and the
# bracket [1 + 3.873e-9, 1 + 4e-9] did not close
@example((np.array([[0.0, 1.0, 1.0, 0.0]]), np.zeros((0, 4)), 2,
          np.array([0.0, 0.0, 1.0, 1e-9]), 0.25, np.zeros(2), 0.25))
# the reference's dual took nnls's answer at mu = e^26, far from the
# optimum, and gave the lower bound 670679.6 above its own upper bound
# 2.35e-11; w = (11/9) G_1 + (7/9) L_1 = (0, -11/9, -7/9, 8/9) has w_x = 0
# and |w_y - y| = 1/3 <= eta, so the minimum is 0, as the program finds
@example((np.array([[0.0, -1.0, 0.0, 2.0], [-1.0, 0.0, -1.0, -2.0]]),
          np.array([[0.0, 0.0, -1.0, -2.0]]), 1,
          np.array([1.0, -1.0, 0.5, 0.0]), 1.0, np.array([-1.0, -1.0, 1.0]),
          0.5))
@settings(max_examples=30, deadline=None)
def test_generator_cone_distances_match_primal_search(case):
    _check_generator_cone(*case)


def _recipe_cones():
    """800 cones in R^4 with nx = 2: 1 to 4 integer generators and 0 or 1
    lineality rows in [-3, 3] (zero rows dropped), Gaussian q and y."""
    rng = np.random.default_rng(7)
    for _ in range(800):
        G = rng.integers(-3, 4, (rng.integers(1, 5), 4))
        L = rng.integers(-3, 4, (rng.integers(0, 2), 4))
        q = rng.normal(size=4)
        gamma = rng.choice([0.25, 0.5, 1.0, 2.0])
        y = rng.normal(size=2)
        eta = rng.choice([0.25, 0.5, 1.0])
        yield (G[np.any(G, axis=1)].astype(float),
               L[np.any(L, axis=1)].astype(float), 2, q, gamma, y, eta)


# the recipe's cones on which multi-start SLSQP found no maximizer of the
# support problem (all 13), and the first 6 of the 167 on which it found no
# feasible point of the min-norm problem
@pytest.mark.parametrize("i", [158, 205, 247, 264, 316, 421, 441, 458, 488,
                               524, 532, 544, 734, 0, 1, 4, 10, 23, 29])
def test_recipe_cones_match_primal_search(i):
    _check_generator_cone(*next(itertools.islice(_recipe_cones(), i, None)))


def test_recipe_cones_need_no_slsqp(monkeypatch):
    def no_minimize(*args, **kwargs):
        raise AssertionError("SLSQP called")

    monkeypatch.setattr(regulab.sets, "minimize", no_minimize)
    for G, L, nx, q, gamma, y, eta in _recipe_cones():
        cone = ConeRep.make(generators=G if len(G) else None,
                            lineality=L if len(L) else None, dim=4)
        val, u = gamma_dual_distance(q, cone, GammaMetric(gamma), nx,
                                     with_direction=True)
        # the value is that of a point of the polar in the two balls
        M = cone.polar_halfspaces()
        assert np.all(M @ u <= 1e-12 * np.linalg.norm(M, axis=1)
                      * np.linalg.norm(u) + 1e-15)
        assert np.linalg.norm(u[:nx]) <= 1 + 1e-12
        assert np.linalg.norm(u[nx:]) <= (1 + 1e-12) / gamma
        assert q @ u == val
        assert cone_min_norm(cone, nx, y, eta) >= 0.0


def test_face_enumeration_is_capped():
    # 19 generators in R^4 have 5036 sets of at most 4 rows
    rows = [[i, i * i % 7 - 3, 1, (-1) ** i] for i in range(19)]
    cone = ConeRep.make(generators=rows)
    with pytest.raises(NumericError, match="faces"):
        gamma_dual_distance(np.ones(4), cone, GammaMetric(1.0), 2)
    with pytest.raises(NumericError, match="faces"):
        cone_min_norm(cone, 2, np.array([5.0, 5.0]), 0.5)


@st.composite
def _stacked_case(draw):
    """A subspace or generator cone in R^3 or R^4, and stacked dual vectors
    and y-targets of scales 1e-3 to 1e3, so rows close at different steps,
    with rows whose answer is 0 (the origin, a target inside the ball) or
    inf (a target the cone's y-parts do not reach)."""
    n = draw(st.sampled_from([3, 4]))
    nx = draw(st.integers(1, n - 1))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any)
    G = np.array(draw(st.lists(row, max_size=3)), float).reshape(-1, n)
    L = np.array(draw(st.lists(row, min_size=0 if len(G) else 1,
                               max_size=2)), float).reshape(-1, n)
    floats = st.floats(-2, 2)
    scales = st.sampled_from([1e-3, 1.0, 1e3])
    Q = np.array([np.array(draw(st.lists(floats, min_size=n, max_size=n)))
                  * draw(scales) for _ in range(draw(st.integers(3, 6)))])
    Y = np.array([np.array(draw(st.lists(floats, min_size=n - nx,
                                         max_size=n - nx))) * draw(scales)
                  for _ in range(draw(st.integers(3, 6)))])
    Q = np.vstack([Q, np.zeros(n)])
    # a tiny target is in the ball; a far one misses a cone that is not
    # onto in y, and repeats are solved once
    Y = np.vstack([Y, np.full(n - nx, 1e-3), np.full(n - nx, 1e3), Y[:1]])
    gamma = draw(st.sampled_from([0.25, 1.0, 4.0]))
    eta = draw(st.sampled_from([0.25, 1.0]))
    return G, L, nx, Q, Y, gamma, eta


def _close(a, b):
    return (math.isinf(a) and a == b) or abs(a - b) <= 1e-12 * max(1.0, abs(b))


@given(_stacked_case())
@settings(max_examples=60, deadline=None)
def test_stacked_dual_solves_equal_one_vector_calls(case):
    G, L, nx, Q, Y, gamma, eta = case
    cone = ConeRep.make(generators=G if len(G) else None,
                        lineality=L if len(L) else None, dim=Q.shape[1])
    g = GammaMetric(gamma)
    try:
        one = [gamma_dual_distance(q, cone, g, nx, with_direction=True)
               for q in Q]
    except NumericError:
        with pytest.raises(NumericError):
            gamma_dual_distance(Q, cone, g, nx)
    else:
        vals, U = gamma_dual_distance(Q, cone, g, nx, with_direction=True)
        assert vals.shape == (len(Q),) and U.shape == Q.shape
        assert vals[-1] == 0.0  # the origin
        for (val, u), v, w in zip(one, vals, U):
            assert _close(v, val)
            assert np.all(np.abs(w - u) <= 1e-12 * max(1.0, abs(val)))
    try:
        one = [cone_min_norm(cone, nx, y, eta) for y in Y]
    except NumericError:
        with pytest.raises(NumericError):
            cone_min_norm(cone, nx, Y, eta)
    else:
        vals = cone_min_norm(cone, nx, Y, eta)
        assert vals.shape == (len(Y),)
        assert vals[-3] == 0.0  # the target in the ball
        assert all(_close(v, ref) for v, ref in zip(vals, one))


def test_stacked_rows_leave_the_search_at_different_steps(monkeypatch):
    # the normal space of the graph of a 2-D affine map: a subspace cone,
    # whose rows share the one face and close after different numbers of
    # Newton steps
    A = np.array([[1.2, 0.4], [-0.3, 0.9]])
    cone = ConeRep.make(lineality=np.hstack([-A, np.eye(2)]))
    rng = np.random.default_rng(3)
    Y = rng.normal(size=(12, 2)) * np.repeat([1e-2, 1.0, 1e2], 4)[:, None]
    widths = []
    search = regulab.sets._bracket_search

    def recording(at, n, ends=()):
        def at_rows(lam, rows):
            widths.append(len(rows))
            return at(lam, rows)
        return search(at_rows, n, ends)

    monkeypatch.setattr(regulab.sets, "_bracket_search", recording)
    vals = cone_min_norm(cone, 2, Y, 0.5)
    # the targets outside the ball search together, then leave one by one
    assert widths[0] == np.sum(np.linalg.norm(Y, axis=1) > 0.5) > 4
    assert len(set(widths)) > 2
    assert all(v == cone_min_norm(cone, 2, y, 0.5) for v, y in zip(vals, Y))
    # one vector is a batch of one; an empty cone answers inf to every row
    assert isinstance(cone_min_norm(cone, 2, Y[0], 0.5), float)
    empty = ConeRep.empty_cone(4)
    assert np.all(np.isinf(cone_min_norm(empty, 2, Y, 0.5)))
    vals, U = gamma_dual_distance(np.hstack([Y, Y]), empty, GammaMetric(1.0),
                                  2, with_direction=True)
    assert np.all(np.isinf(vals)) and np.all(np.isnan(U))


# ---------------------------------------------------------------------------
# 1-D closed forms against HiGHS as the reference.  Integer cone rows and
# quarter-step targets keep every infeasibility gap either 0 or at least a
# quarter, far above the LP solver's feasibility tolerance, so vacuity must
# agree exactly.

_rows = st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3))
                 .filter(lambda r: r != (0, 0)), max_size=3)
_quarters = st.integers(-12, 12).map(lambda i: i / 4)


def _ref_support(q, M, gamma):
    # q is an arbitrary float pair.  HiGHS's default dual feasibility
    # tolerance (1e-7) accepts a non-optimal vertex once every reduced cost
    # is that small, e.g. q = (1e-7, 0) comes back as -1e-7 instead of 1e-7;
    # its tightest tolerances keep the reference exact to 1e-9.
    c = 1.0 / gamma
    res = linprog(-q, A_ub=M if M.shape[0] else None,
                  b_ub=np.zeros(M.shape[0]) if M.shape[0] else None,
                  bounds=[(-1.0, 1.0), (-c, c)], method="highs",
                  options={"dual_feasibility_tolerance": 1e-10,
                           "primal_feasibility_tolerance": 1e-10})
    assert res.status == 0
    return max(0.0, -res.fun)


def _ref_min_norm(cone, y, eta):
    """min t over cone coefficients c with |Bx c| <= t, |By c - y| <= eta."""
    k, m = cone.generators.shape[0], cone.lineality.shape[0]
    B = np.vstack([cone.generators, cone.lineality]).T
    A_ub = np.array([np.append(B[0], -1.0), np.append(-B[0], -1.0),
                     np.append(B[1], 0.0), np.append(-B[1], 0.0)])
    res = linprog(np.append(np.zeros(k + m), 1.0), A_ub=A_ub,
                  b_ub=[0.0, 0.0, y + eta, eta - y],
                  bounds=[(0, None)] * k + [(None, None)] * m + [(0, None)],
                  method="highs")
    assert res.status in (0, 2)
    return math.inf if res.status == 2 else res.fun


@given(gens=_rows, lin=_rows.map(lambda r: r[:2]), empty=st.booleans(),
       q=st.tuples(st.floats(-2, 2), st.floats(-2, 2)),
       gamma=st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]), y=_quarters,
       eta=st.integers(1, 8).map(lambda i: i / 4))
@settings(max_examples=300, deadline=None)
def test_1d_closed_forms_match_lp(gens, lin, empty, q, gamma, y, eta):
    cone = (ConeRep.empty_cone(2) if empty else
            ConeRep.make(generators=gens or None, lineality=lin or None, dim=2))
    q = np.array(q)
    val, u = gamma_dual_distance(q, cone, GammaMetric(gamma), 1,
                                 with_direction=True)
    mn = cone_min_norm(cone, 1, np.array([y]), eta)
    if empty:
        assert math.isinf(val) and u is None and math.isinf(mn)
        return
    M = cone.polar_halfspaces()
    assert abs(val - _ref_support(q, M, gamma)) <= 1e-9
    assert np.all(M @ u <= 1e-12)
    assert abs(u[0]) <= 1.0 and abs(u[1]) <= 1.0 / gamma
    assert abs(q @ u - val) <= 1e-12
    ref = _ref_min_norm(cone, y, eta)
    assert math.isinf(mn) == math.isinf(ref)
    if not math.isinf(ref):
        assert abs(mn - ref) <= 1e-9


def test_polar_vertices_keep_a_subnormal_row():
    # the line through (2, 2.2e-313) meets u_y = c at a point whose x-part
    # is subnormal: an on-the-line tolerance that underflows to 0 drops it
    # and gives 0.0; the line's slope overflows, and warns of nothing
    q, g = np.array([0.0, 1.0]), GammaMetric(2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cone = ConeRep.make(lineality=[[2.0, 2.2250738585e-313]])
        assert gamma_dual_distance(q, cone, g, 1) == 0.5
        assert gamma_dual_distance(q, ConeRep.make(lineality=[[2.0, 1e-300]]),
                                   g, 1) == 0.5


@given(rows=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3))
                     .filter(any), min_size=1, max_size=3),
       q=st.tuples(st.floats(-2, 2), st.floats(-2, 2)),
       gamma=st.sampled_from([0.5, 1.0, 2.0]), k=st.integers(-1072, 1000))
@example(rows=[(1, 3)], q=(1.0, 1.0), gamma=1.0, k=-1072)
@settings(max_examples=100, deadline=None)
def test_1d_dual_distance_is_exact_under_power_of_two_row_scaling(rows, q,
                                                                  gamma, k):
    # scaling a generator by 2^k, exact down to subnormal entries, changes
    # neither the cone nor a single bit of the answer
    gens = np.array(rows, float)
    g = GammaMetric(gamma)
    ref = gamma_dual_distance(q, ConeRep.make(generators=gens), g, 1)
    val = gamma_dual_distance(q, ConeRep.make(generators=np.ldexp(gens, k)),
                              g, 1)
    assert val == ref


def test_far_empty_polyhedron_has_a_farkas_certificate():
    # empty by 1.5 against right-hand sides near 3e6: nnls's Farkas vector
    # fails its test on rounding alone, while the exact combination
    # (5, 6, 1) of the rows cancels and checks
    A = np.array([[-1.0, -3.0], [1.0, 2.0], [-1.0, 3.0]])
    b = np.array([2945934, -2188393, -1599313.5])
    assert np.array_equal(np.array([5, 6, 1]) @ A, [0.0, 0.0])
    assert np.array([5, 6, 1]) @ b == -1.5
    assert Polyhedron(A, b).is_empty()
    assert _least_distance(A, b) is None
    # raising the last bound by 2 leaves a small nonempty triangle
    b2 = b + [0.0, 0.0, 2.0]
    z = _least_distance(A, b2)
    assert not Polyhedron(A, b2).is_empty()
    assert np.all(A @ z - b2 <= 1e-12 * np.abs(b2).max())
    res = linprog(np.zeros(2), A_ub=A, b_ub=b2, bounds=[(None, None)] * 2,
                  method="highs")
    assert res.status == 0


@st.composite
def _matrices_and_sides(draw):
    """A matrix of 0-5 integer rows in R^1-R^3, with up to two rows that
    are zero or a multiple of another (parallel or opposite), a point and
    1-6 right-hand sides: half-integers times 1, 1e3 or 1e6, an opposite
    copy's entry sometimes the negative of its row's (an equality)."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(0, 5))
    A = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                      min_size=m, max_size=m))
    copies = draw(st.lists(st.tuples(st.integers(0, 4),
                                     st.sampled_from([0, 2, -1, -2])),
                           max_size=2)) if m else []
    for i, t in copies:
        A.append([t * a for a in A[i % m]])
    H = []
    for _ in range(draw(st.integers(1, 6))):
        h = draw(st.lists(_halves, min_size=len(A), max_size=len(A)))
        for j, (i, t) in enumerate(copies):
            if t == -1 and draw(st.booleans()):
                h[m + j] = -h[i % m]
        H.append(np.array(h) * draw(st.sampled_from([1.0, 1e3, 1e6])))
    v = np.array(draw(st.lists(_halves, min_size=n, max_size=n)))
    return np.array(A, float).reshape(len(A), n), np.array(H), v


# a slice that is one point, {1.5}, and an empty one
@example((np.array([[1.0], [-1.0]]), np.array([[1.5, -1.5], [1.0, -2.0]]),
          np.zeros(1)))
# one point of R^2, far from v, and no rows at all
@example((np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
          np.array([[1e6, -1e6, -3e5, 3e5]]), np.ones(2)))
@example((np.zeros((0, 2)), np.zeros((3, 0)), np.ones(2)))
# a zero row: empty where its side is negative
@example((np.array([[0.0, 0.0], [1.0, 1.0]]),
          np.array([[-0.5, 1.0], [0.5, 1.0]]), np.ones(2)))
# v 1e-8 outside {y <= 1}: a distance, not a point inside
@example((np.array([[1.0]]), np.array([[1.0], [-1.0]]),
          np.array([1.0 + 1e-8])))
# sides near 3e6 beside sides near 1: the projection onto the far
# triangle misses a row by rounding that only a tolerance relative to its
# own sides accepts
@example((np.array([[-1.0, -3.0], [1.0, 2.0], [-1.0, 3.0]]),
          np.array([[1.0, 1.0, 1.0], [2945934, -2188393, -1599311.5]]),
          np.zeros(2)))
# two rows 1e-5 apart in angle: no active set certifies the projection of
# v, which the least-distance program gives
@example((np.array([[1.0, 0.0], [1.0, 1e-5]]), np.zeros((2, 2)),
          np.array([2.0, 1e-5])))
@given(_matrices_and_sides())
@settings(max_examples=300, deadline=None)
def test_stacked_slice_distances_are_one_slice_distances(case):
    A, H, v = case
    d = slice_distances(v, PolyMatrix(A), H)
    one = [dist_to_region(v, PolyUnion([Polyhedron(A, h)]))[0] for h in H]
    assert d.tobytes() == np.array(one).tobytes()
    assert np.isinf(d).tolist() == [Polyhedron(A, h).is_empty() for h in H]


@given(_matrices_and_sides())
@settings(max_examples=300, deadline=None)
def test_shared_matrix_emptiness_matches_highs(case):
    # the polyhedra of one matrix decide their emptiness from the matrix's
    # certificates (Farkas rays, active sets), whatever their sides
    A, H, _ = case
    matrix = PolyMatrix(A)
    n = A.shape[1]
    for h in H:
        res = linprog(np.zeros(n), A_ub=A if len(A) else None,
                      b_ub=h if len(A) else None,
                      bounds=[(None, None)] * n, method="highs")
        assert res.status in (0, 2)
        assert Polyhedron(matrix, h).is_empty() == (res.status == 2)


# ---------------------------------------------------------------------------
# membership in arrays, read-only polyhedra, de-duplication


@st.composite
def _polyhedra_and_near_points(draw):
    """A polyhedron with small integer rows and points on and near its
    facets, offset by multiples of 1e-10 of the membership scale."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 5))
    ints = st.integers(-3, 3)
    A = np.array(draw(st.lists(st.lists(ints, min_size=n, max_size=n),
                               min_size=m, max_size=m)), dtype=float)
    assume(np.all(np.abs(A).sum(axis=1) > 0))
    b = np.array(draw(st.lists(st.integers(-6, 6), min_size=m, max_size=m)),
                 dtype=float) / 2 * 10.0 ** draw(st.integers(0, 6))
    Q = Polyhedron(A, b)
    scale = np.maximum(1.0, abs(b)) + np.linalg.norm(A, axis=1)
    pts = []
    for _ in range(draw(st.integers(1, 12))):
        z = np.array(draw(st.lists(st.floats(-5, 5), min_size=n, max_size=n)))
        i = draw(st.integers(0, m - 1))
        # onto facet i, then out by k 1e-10 of its scale
        z = z - (A[i] @ z - b[i]) / (A[i] @ A[i]) * A[i]
        k = draw(st.sampled_from([-20.0, -1.0, 0.0, 0.5, 0.999, 1.0, 1.001,
                                  5.0, 9.999, 10.0, 10.001, 20.0]))
        pts.append(z + k * 1e-10 * scale[i] * A[i] / (A[i] @ A[i]))
    return Q, np.array(pts)


@settings(max_examples=300, deadline=None)
@given(_polyhedra_and_near_points(), _polyhedra_and_near_points())
def test_contains_rows_matches_pointwise_contains(case, other):
    Q, X = case
    for tol in (1e-10, 1e-9):
        assert Q.contains_rows(X, tol).tolist() == \
            [Q.contains(x, tol) for x in X]
    P, Y = other
    if P.dim == Q.dim:
        U, Z = PolyUnion([Q, P]), np.vstack([X, Y])
        for tol in (1e-10, 1e-9):
            assert U.contains_rows(Z, tol).tolist() == \
                [U.contains(z, tol) for z in Z]


def test_polyhedron_arrays_are_read_only():
    A, b = np.eye(2), np.ones(2)
    Q = Polyhedron(A, b)
    for arr in (Q.A, Q.b):
        with pytest.raises(ValueError):
            arr[0] = 5.0
    A[0, 0] = 2.0  # the caller's arrays are copied, not frozen
    assert Q.A[0, 0] == 1.0


def test_point_cloud_dedupe_keeps_first_of_each_chain_link():
    # a chain spaced just under the tolerance: each point is a duplicate of
    # its neighbour, so the points kept are every second one, in order, and
    # a repeat of a kept point is dropped wherever it comes
    tol = 1e-3
    chain = np.array([[k * tol * (1 - 1e-6), 1.0] for k in range(5)])
    pts = np.vstack([chain, chain[[2, 0]]])
    kept = PointCloud(pts, dedupe_tol=tol).points
    assert np.array_equal(kept, chain[[0, 2, 4]])
