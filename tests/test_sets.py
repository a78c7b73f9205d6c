"""Polyhedra, projections, cones, and weighted dual-norm distances."""

import itertools
import math
import warnings

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
    _least_distance,
    _min_norm_2d,
    _min_norm_subspace,
    _orthonormal_split,
    _support_2d,
    _support_subspace,
    cone_rays_from_halfspaces,
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


@given(_subspace_case())
@settings(max_examples=60, deadline=None)
def test_subspace_dual_distance_matches_primal_search(case):
    L, nx, q, gamma = case
    R = _orthonormal_split(L)[0]

    def f(c):  # |q - w|_x + |q - w|_y / gamma at w = R^T c in the cone
        r = q - c @ R
        return np.linalg.norm(r[:nx]) + np.linalg.norm(r[nx:]) / gamma

    c0 = R @ q
    ref = _nelder_mead_min(f, _grid_starts(f, c0, 1.0 + np.linalg.norm(q),
                                           R.shape[0]))
    val = gamma_dual_distance(q, ConeRep.make(lineality=L), GammaMetric(gamma),
                              nx)
    assert ref - 1e-6 <= val <= ref + 1e-9


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
    val, _, u = _support_subspace(q, polar, c)
    ref = _support_2d(q, cone.polar_halfspaces(), c)[0]
    assert abs(val - ref) <= 1e-9 * max(1.0, ref)
    assert abs(cone.lineality @ u)[0] <= 1e-12
    assert abs(u[0]) <= 1 + 1e-12 and abs(u[1]) <= c * (1 + 1e-12)
    assert abs(q @ u - val) <= 1e-12 * max(1.0, val)
    if abs(line[1]) >= 1e-3:  # the line's y-parts reach every target
        mn = _min_norm_subspace(primal, 1, np.array([y]), eta)[1]
        ref = _min_norm_2d(cone.polar_halfspaces(), y, eta)
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


def _min_norm_bracket(cone, nx, y, eta):
    """Bounds on min |w_x| over w in the cone with |w_y - y| <= eta.

    Above: a primal search over w_y = y + eta sin(|z|) z / |z|, each slice
    w_y = v solved by nonnegative least squares with the equality kept by a
    penalty 1e10 |w_y - v|^2; squared, so that it is smooth where it is 0.
    It can stall where the cone's y-parts fill only a thin part of the
    ball.  Below: the Lagrangian dual, the least over w in the cone of
    |w_x|^2 + mu (|w_y - y|^2 - eta^2), a nonnegative least-squares value,
    maximized over mu > 0 (concave in mu); loose only where the ball just
    touches the cone's y-parts."""
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
        target = np.concatenate([np.zeros(nx), s * y])
        r = M @ nnls(M, target, maxiter=5000)[0] - target
        return r @ r - s * s * eta * eta

    upper = math.sqrt(_nelder_mead_min(f, _grid_starts(f, np.zeros(len(y)),
                                                       np.pi / 2, len(y))))
    grid = np.linspace(-30.0, 30.0, 121)
    top = grid[np.argmax([dual(t) for t in grid])]
    best = minimize_scalar(lambda t: -dual(t), bounds=(top - 0.5, top + 0.5),
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
