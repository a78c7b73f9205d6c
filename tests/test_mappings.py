"""Mapping models: values, residuals, solution sets, and the shifted-target
reduction."""

import dataclasses
import math

import numpy as np
import pytest

from regulab import (
    GridSpec,
    InputError,
    NormedSpace,
    RegularityQuery,
    ScanGrids,
    hat_reduction,
)
import regulab.mappings
import regulab.sets
from regulab.dual import check_normal_cone_condition
from regulab.mappings import condition_scan_points
from regulab.oracle import check_geometric, check_subreg_uniform
from regulab.slope import (
    check_local_slope_condition,
    check_nonlocal_slope_condition,
    local_slope,
    nonlocal_slope,
)
from regulab.spaces import make_grid
from conftest import (
    affine_map_1d,
    counting_rule,
    grids_1d,
    halfplane_map_1d,
    kinked_map_1d,
    query_1d,
)


def test_values_difference_rule():
    F = affine_map_1d(-1.0, 1.0)  # F(p,x) = {p - x}
    assert np.allclose(F.values(1.0, [1.0]), [[0.0]])
    assert np.allclose(F.values(0.0, [0.5]), [[-0.5]])


def test_quadratic_example_values():
    from regulab.cli import _rule_quadratic_difference
    X = NormedSpace("X", 1)
    Y = NormedSpace("Y", 1)
    P = NormedSpace("P", 1)
    F = _rule_quadratic_difference(X, Y, P, {})
    assert np.allclose(F.values(0.0, [0.5]), [[0.25]])
    assert F.residual(0.0, [0.5], [0.0]) == 0.25
    sol = F.solution_set(0.3, [0.0])
    assert np.allclose(sol.points, [[0.3]])


def test_identity_map_eval():
    from regulab.cli import _rule_identity
    X = NormedSpace("X", 1)
    F = _rule_identity(X, X, NormedSpace("P", 1), {})
    assert np.allclose(F.values(0.0, [0.7]), [[0.7]])


def test_residual_matches_solution_membership():
    F = affine_map_1d(1.5, 0.4, 0.1)
    for p in (-0.2, 0.0, 0.3):
        x0 = F.solution_fn(p)[0]
        assert F.residual(p, x0, [0.0]) <= 1e-12
        assert F.residual(p, x0 + 0.2, [0.0]) > 1e-3


def test_polyhedral_residual_and_slice():
    F = halfplane_map_1d(2.0, 0.5)
    # graph: 2x - y <= -0.5p; at p=0.2, y >= 2x + 0.1
    assert abs(F.residual(0.2, [0.0], [0.0]) - 0.1) < 1e-12
    assert F.residual(0.2, [-1.0], [0.0]) == 0.0  # 0 >= -1.9
    sol = F.solution_set(0.2, [0.0])
    assert sol.contains([-0.1])
    assert not sol.contains([0.0])


def test_inverse_consistency_sampled_pairs():
    F = halfplane_map_1d(1.0, 0.0)
    rng = np.random.default_rng(11)
    for _ in range(30):
        x = rng.uniform(-1, 1)
        y = rng.uniform(-1, 1)
        in_graph = F.in_graph(0.0, [x], [y])
        in_inverse = F.solution_set(0.0, [y]).contains([x])
        assert in_graph == in_inverse


def test_empty_value_set_gives_inf_residual():
    X = NormedSpace("X", 1)
    from regulab import ClosedFormMap
    F = ClosedFormMap(X, X, lambda p, x: np.zeros((0, 1)),
                      param_labels=[0])
    assert math.isinf(F.residual(0, [0.0], [0.0]))


def test_graph_points_built_once_per_parameter():
    F = affine_map_1d(-1.0, 1.0)
    seen = counting_rule(F)
    grids = grids_1d(21, 5)
    pts = F.graph_points([0.1], grids)
    assert len(seen) == 21
    assert F.graph_points(np.array([0.1]), grids) is pts
    assert len(seen) == 21
    with pytest.raises(ValueError):
        pts[0, 0] = 1.0
    F.graph_points([0.2], grids)  # another parameter is another sample
    assert len(seen) == 42
    H = halfplane_map_1d(1.0, 1.0)
    hp = H.graph_points([0.1], grids)
    assert H.graph_points([0.1], grids) is hp
    assert not hp.flags.writeable


def test_hat_reduction_shifts_values():
    F = affine_map_1d(-1.0, 1.0)  # {p - x}
    H = hat_reduction(F, [np.array([0.3]), np.array([-0.3])])
    p = (0.5, (0.3,))
    # F-hat((p,y), x) = {p - x - y}
    assert np.allclose(H.values(p, [0.1]), [[0.1]])
    assert abs(H.residual(p, [0.1], [0.0]) - 0.1) < 1e-12
    sol = H.solution_set(p, [0.0])
    assert np.allclose(sol.points, [[0.2]])  # x = p - y


def test_hat_reduction_graph_invariance():
    F = affine_map_1d(2.0, 0.0)
    shift = np.array([0.4])
    H = hat_reduction(F, [shift])
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.uniform(-1, 1)
        z = 2.0 * x
        assert F.in_graph(0.0, [x], [z])
        assert H.in_graph((0.0, (0.4,)), [x], [z - 0.4])


def test_hat_double_shift_recovers_residuals():
    F = affine_map_1d(1.0, 0.5)
    H = hat_reduction(F, [np.array([0.2])])
    HH = hat_reduction(H, [np.array([-0.2])])
    p2 = ((0.1, (0.2,)), (-0.2,))
    assert abs(HH.residual(p2, [0.3], [0.0])
               - F.residual(0.1, [0.3], [0.0])) < 1e-12


@pytest.mark.parametrize("alpha", [0.5, 1.5, 2.5])
def test_hat_reduction_of_a_metric_parameter_map_scans_the_base_grid(alpha):
    # the base map draws its parameters from the P grid; at shift 0 the
    # shifted map is the base map, parameter by parameter, and its slope
    # checks step as the base map does; shifted by the dyadic 0.125, the
    # map at target 0 gives the base map's certificates at target 0.125
    q, grids = query_1d(alpha), grids_1d()
    q_shift = dataclasses.replace(q, ybar=(0.125,))
    for F in (affine_map_1d(2.0, 0.5), halfplane_map_1d(2.0, 0.5),
              kinked_map_1d()):
        H, S = hat_reduction(F, [(0.0,)]), hat_reduction(F, [(0.125,)])
        checks = [check_subreg_uniform, check_nonlocal_slope_condition,
                  check_local_slope_condition]
        dual = [check_normal_cone_condition] if F.convex_graph else []
        for shifted_map, q_base, with_checks in ((H, q, checks + dual),
                                                 (S, q_shift, checks)):
            for check in with_checks:
                base = check(F, q_base, grids)
                shifted = check(shifted_map, q, grids)
                assert shifted.verdict is base.verdict
                assert shifted.margin == base.margin
                assert shifted.scan_meta["points_scanned"] == \
                    base.scan_meta["points_scanned"] > 0
        # its slopes at every scan point are the base map's, up to the
        # rounding of v - 0.125 at the steps of a point with y near 0
        for b in condition_scan_points(F, q_shift, grids, q.delta + q.mu):
            for slope in (nonlocal_slope, local_slope):
                assert np.allclose(
                    slope(S, q, (b.p, (0.125,)), b.xs, b.ys - 0.125, grids),
                    slope(F, q_shift, b.p, b.xs, b.ys, grids),
                    rtol=1e-6, atol=0)


def test_shifted_map_measures_each_nearest_solution_once(monkeypatch):
    # the slope scan asks for the solution set with the scan's grids and
    # the directions without; a base set that reads no grid is one object
    # either way, so the shifted map solves each point once, as its base
    # map does (it once kept the answers apart by grids, and solved twice)
    calls = []
    dist_to_region = regulab.mappings.dist_to_region

    def counted(*args):
        calls.append(1)
        return dist_to_region(*args)

    monkeypatch.setattr(regulab.mappings, "dist_to_region", counted)
    q, grids = query_1d(1.5), grids_1d()
    for F in (halfplane_map_1d(2.0, 0.5), affine_map_1d(2.0, 0.5)):
        counts = []
        for G in (F, hat_reduction(F, [(0.0,)])):
            calls.clear()
            check_nonlocal_slope_condition(G, q, grids)
            check_local_slope_condition(G, q, grids)
            counts.append(len(calls))
        assert counts == [5, 5]


def test_query_validation():
    with pytest.raises(InputError):
        RegularityQuery(xbar=(0.0,), ybar=(0.0,), alpha=0.0, delta=1, mu=1)
    with pytest.raises(InputError):
        RegularityQuery(xbar=(0.0,), ybar=(0.0,), alpha=1.0, delta=-1, mu=1)
    with pytest.raises(InputError):
        RegularityQuery(xbar=(0.0,), ybar=(0.0,), alpha=1.0, delta=1, mu=1,
                        tau=1.0)


def test_condition_scan_points_filters():
    F = affine_map_1d(1.0, 0.0)
    q = query_1d(alpha=1.0, delta=0.5, mu=0.5)
    batches = list(condition_scan_points(F, q, grids_1d(), q.delta))
    assert batches
    # one batch per parameter, each with the points' data as stacked rows
    assert len({tuple(b.p) for b in batches}) == len(batches)
    for b in batches:
        assert len(b.xs) == len(b.ys) == len(b.dist_to_target) \
            == len(b.sol_dist)
        assert np.all(np.linalg.norm(b.xs, axis=1) < q.delta)
        assert np.all((0 < b.dist_to_target)
                      & (b.dist_to_target < q.alpha * q.mu))
        assert np.all(b.sol_dist > 0)
        assert all(F.in_graph(b.p, x, y) for x, y in zip(b.xs, b.ys))


def test_polyhedral_scans_solve_each_slice_and_point_once(monkeypatch):
    # a slice's emptiness and distance come from certificates on the work
    # that the map keeps per matrix (active sets, Farkas rays), so the
    # checks run no least-distance program; residuals and solution
    # distances are kept per point, so a second scan solves nothing
    solves, kernel = [], []
    least_distance = regulab.sets._least_distance
    slice_distances = regulab.mappings.slice_distances
    dist_to_region = regulab.mappings.dist_to_region
    monkeypatch.setattr(regulab.sets, "_least_distance",
                        lambda A, h: solves.append(1) or least_distance(A, h))
    monkeypatch.setattr(regulab.mappings, "slice_distances",
                        lambda *a: kernel.append(1) or slice_distances(*a))
    monkeypatch.setattr(regulab.mappings, "dist_to_region",
                        lambda *a: kernel.append(1) or dist_to_region(*a))
    F, grids = kinked_map_1d(), grids_1d(9, 3)
    for alpha in (0.5, 1.2):
        q = query_1d(alpha)
        for check in (check_subreg_uniform, check_geometric,
                      check_nonlocal_slope_condition,
                      check_local_slope_condition):
            assert check(F, q, grids).scan_meta["points_scanned"] > 0
    assert solves == [] and kernel
    kernel.clear()
    q = query_1d(0.5)
    check_subreg_uniform(F, q, grids)
    check_geometric(F, q, grids)
    assert kernel == []


def test_polyhedral_residual_rows_are_one_row_residuals():
    # the kinked map's pieces hold x <= 0 and x >= 0: off the kink, one
    # piece's slice F(p, x) is empty; each row of a stacked residual is the
    # one-row residual of a map with its own memo, bit for bit
    xs = make_grid(grids_1d(9, 3).x)
    F = kinked_map_1d()
    for p, ybar in ((-0.3, 0.0), (0.0, 0.4), (0.3, -1.0)):
        vec = F.residual_vec(p, xs, [ybar])
        one = [kinked_map_1d().residual(p, x, [ybar]) for x in xs]
        assert vec.tobytes() == np.array(one).tobytes()
    left = F.graph_region(0.0).pieces[0]
    d = regulab.sets.slice_distances([0.0], F._matrix(left.A[:, 1:]),
                                     left.b - left.A[:, :1] @ [0.5])
    assert d.tolist() == [math.inf]
    # the matrix work is shared by the pieces of every parameter of one
    # map, and by no other map
    assert F.graph_region(0.3).pieces[0].matrix is left.matrix
    assert kinked_map_1d().graph_region(0.0).pieces[0].matrix \
        is not left.matrix
