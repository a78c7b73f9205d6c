"""Mapping models: values, residuals, solution sets, and the shifted-target
reduction."""

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
from regulab.mappings import condition_scan_points
from conftest import (
    affine_map_1d,
    counting_rule,
    grids_1d,
    halfplane_map_1d,
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
    pts = list(condition_scan_points(F, q, grids_1d(), q.delta))
    assert pts
    for sp in pts:
        assert np.linalg.norm(sp.x) < q.delta
        assert 0 < sp.dist_to_target < q.alpha * q.mu
        assert sp.sol_dist > 0
        assert F.in_graph(sp.p, sp.x, sp.y)
