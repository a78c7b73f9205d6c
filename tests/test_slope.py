"""Slope values, their ordering invariants, and the slope-based checkers."""

import numpy as np
import pytest

from regulab import (
    InputError,
    Verdict,
    check_local_slope_condition,
    check_nonlocal_slope_condition,
    check_subreg_uniform,
    local_slope,
    merit_value,
    nonlocal_slope,
    subdiff_distance,
)
from regulab.cli import _rule_quadratic_difference
from regulab.mappings import condition_scan_points
from regulab.slope import _quotients
from regulab.spaces import GammaMetric, NormedSpace, prod_dist
from conftest import (
    affine_map_1d,
    grids_1d,
    halfplane_map_1d,
    query_1d,
    random_convex_instances,
)


def test_merit_value_on_and_off_graph():
    F = affine_map_1d(-1.0, 1.0)  # {p - x}
    q = query_1d(1.0)
    assert merit_value(F, q, 0.0, [0.0], [0.0]) == 0.0
    assert abs(merit_value(F, q, 0.0, [0.3], [-0.3]) - 0.3) < 1e-12
    assert merit_value(F, q, 0.0, [0.3], [0.2]) == float("inf")


def test_difference_map_slopes_are_one():
    F = affine_map_1d(-1.0, 1.0)
    q = query_1d(1.0)
    grids = grids_1d(41, 5)
    for (p, x, y) in [(0.1, 0.3, -0.2), (0.0, -0.25, 0.25), (0.2, 0.4, -0.2)]:
        ns = nonlocal_slope(F, q, [p], np.array([x]), np.array([y]), grids)
        ls = local_slope(F, q, [p], np.array([x]), np.array([y]), grids)
        assert abs(ns - 1.0) < 1e-7
        assert abs(ls - 1.0) < 1e-7


def test_quadratic_slope_degenerates_near_origin():
    F = _rule_quadratic_difference(NormedSpace("X", 1), NormedSpace("Y", 1),
                                   NormedSpace("P", 1), {})
    q = query_1d(0.5, delta=1.0, mu=1.0, eta=2.0)
    grids = grids_1d(81, 5, p_lim=1.0)
    vals = []
    for x in (0.2, 0.05, 0.01):
        vals.append(local_slope(F, q, [0.0], np.array([x]),
                                np.array([x * x]), grids))
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 0.05


def test_quotients_round_as_the_per_candidate_formula():
    # array scoring must give bit-equal slopes to scoring one candidate at a
    # time; np.linalg.norm(a, axis=1) rounds some 2-D rows differently
    rng = np.random.default_rng(7)
    g = GammaMetric(1.3)
    for n in (1, 2, 3):
        x, y = rng.normal(size=n), rng.normal(size=n)
        w = y - rng.normal(size=n)
        us = x + rng.normal(size=(300, n))
        vs = y + rng.normal(size=(300, n))
        d, r = _quotients(w, us, vs, x, y, g.gamma)
        for u, v, di, ri in zip(us, vs, d, r):
            dist = prod_dist(u, v, x, y, g)
            wv = v - (y - w)
            num = (w @ w - wv @ wv) / (np.linalg.norm(w) + np.linalg.norm(wv))
            assert di == dist and ri == num / dist


def test_slope_requires_graph_point():
    F = affine_map_1d(-1.0, 1.0)
    q = query_1d(1.0)
    with pytest.raises(InputError):
        nonlocal_slope(F, q, [0.0], np.array([0.3]), np.array([0.5]),
                       grids_1d())
    with pytest.raises(InputError):
        local_slope(F, q, [0.0], np.array([0.0]), np.array([0.0]), grids_1d())


def test_local_at_most_nonlocal_pointwise():
    grids = grids_1d(21, 3)
    for F, modulus, _ in random_convex_instances(6, seed=31):
        q = query_1d(0.8 * modulus)
        for sp in list(condition_scan_points(F, q, grids, q.delta))[:4]:
            ls = local_slope(F, q, sp.p, sp.x, sp.y, grids)
            ns = nonlocal_slope(F, q, sp.p, sp.x, sp.y, grids)
            assert ls <= ns + 1e-9


def test_local_slope_matches_subdifferential_distance():
    grids = grids_1d(21, 3)
    for F, modulus, _ in random_convex_instances(6, seed=41):
        q = query_1d(0.8 * modulus, gamma=1.3)
        for sp in list(condition_scan_points(F, q, grids, q.delta))[:4]:
            ls = local_slope(F, q, sp.p, sp.x, sp.y, grids)
            sd = subdiff_distance(F, q, sp.p, sp.x, sp.y)
            assert abs(ls - sd) <= 1e-6


def test_gamma_monotonicity_of_nonlocal_slope():
    F = halfplane_map_1d(1.5, 0.3)
    grids = grids_1d(21, 3)
    base = query_1d(1.0)
    p, x = np.array([0.1]), np.array([0.4])
    y = np.array([1.5 * 0.4 + 0.3 * 0.1 + 0.05])
    assert F.in_graph(p, x, y)
    prev = None
    for gamma in (2.0, 1.0, 0.5, 0.25):
        q = query_1d(1.0, gamma=gamma)
        v = nonlocal_slope(F, q, p, x, y, grids)
        if prev is not None:
            assert v >= prev - 1e-9  # smaller gamma gives larger slope
        prev = v


def test_checker_sufficient_agrees_with_oracle_on_difference_map():
    F = affine_map_1d(-1.0, 1.0)
    grids = grids_1d(41, 5)
    q = query_1d(1.0)
    assert check_nonlocal_slope_condition(F, q, grids).verdict is Verdict.HOLDS
    assert check_subreg_uniform(F, q, grids).verdict is Verdict.HOLDS


def test_checker_violated_on_quadratic_map():
    F = _rule_quadratic_difference(NormedSpace("X", 1), NormedSpace("Y", 1),
                                   NormedSpace("P", 1), {})
    grids = grids_1d(81, 5, p_lim=1.0)
    for alpha in (0.1, 0.5):
        q = query_1d(alpha, delta=1.0, mu=1.0, eta=2.0)
        cert = check_nonlocal_slope_condition(F, q, grids)
        assert cert.verdict is Verdict.VIOLATED
        assert cert.witness is not None


def test_necessary_mode_holds_when_oracle_holds():
    grids = grids_1d(21, 5)
    for F, modulus, _ in random_convex_instances(6, seed=51):
        q = query_1d(0.7 * modulus)
        if check_subreg_uniform(F, q, grids).verdict is Verdict.HOLDS:
            cert = check_nonlocal_slope_condition(F, q, grids, mode="necessary",
                                                  tol=1e-6)
            assert cert.verdict is not Verdict.VIOLATED


def test_local_necessity_refused_on_nonconvex():
    F = _rule_quadratic_difference(NormedSpace("X", 1), NormedSpace("Y", 1),
                                   NormedSpace("P", 1), {})
    with pytest.raises(InputError):
        check_local_slope_condition(F, query_1d(0.5), grids_1d(),
                                    mode="necessary")


def test_hierarchy_step_nonlocal_implies_local():
    grids = grids_1d(21, 3)
    for F, modulus, _ in random_convex_instances(8, seed=61):
        q = query_1d(0.75 * modulus, gamma=1.0 / (0.75 * modulus))
        strong = check_nonlocal_slope_condition(F, q, grids)
        if strong.verdict is Verdict.HOLDS:
            weak = check_local_slope_condition(F, q, grids)
            assert weak.verdict is Verdict.HOLDS
