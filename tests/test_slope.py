"""Slope values, their ordering invariants, and the slope-based checkers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regulab import (
    DimensionMismatchError,
    InputError,
    Verdict,
    check_local_slope_condition,
    check_nonlocal_slope_condition,
    check_subreg_uniform,
    local_slope,
    nonlocal_slope,
    subdiff_distance,
)
from regulab.cli import _RULES, _rule_quadratic_difference
from regulab.mappings import RegularityQuery, ScanGrids, condition_scan_points
from regulab.slope import (_LAST, _best, _directions, _quotients, _slopes,
                           _step_schedule, _targets)
from regulab.spaces import GammaMetric, GridSpec, NormedSpace
from conftest import (
    affine_map_1d,
    affine_map_2d,
    counting_rule,
    grids_1d,
    halfplane_map_1d,
    kinked_map_1d,
    query_1d,
    random_convex_instances,
    scan_points,
)


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
            dist = max(float(np.linalg.norm(u - x)),
                       g.gamma * float(np.linalg.norm(v - y)))
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


def test_slopes_evaluate_the_rule_once_per_point():
    # the scan builds the graph sample before the slopes run; within one
    # slope call the rule never sees the same (p, u) twice
    grids2 = ScanGrids(x=GridSpec((-1.0, -1.0), (1.0, 1.0), 9),
                       p=GridSpec((-0.3,), (0.3,), 3))
    F2 = affine_map_2d([[1.2, 0.4], [-0.3, 0.9]], [0.5, -0.2])
    for F, grids, gamma in ((affine_map_1d(-1.0, 1.0), grids_1d(41, 5), 1.0),
                            (affine_map_1d(1.5, 0.5), grids_1d(41, 5), 0.5),
                            (F2, grids2, 2.0)):
        q = RegularityQuery(xbar=(0.0,) * F.nx, ybar=(0.0,) * F.ny,
                            pbar=(0.0,), alpha=0.5, delta=0.6, mu=0.6,
                            eta=0.4, gamma=gamma)
        points = scan_points(F, q, grids, q.delta + q.mu)
        seen = counting_rule(F)
        for sp in points[::5]:
            for slope in (nonlocal_slope, local_slope):
                seen.clear()
                slope(F, q, sp.p, sp.x, sp.y, grids)
                assert seen and len(set(seen)) == len(seen)


def _stacked_case(kind, c):
    """A map of ``kind`` from the coefficients ``c`` (in [0.5, 2]), and its
    scan grids."""
    X1, X2, P1 = NormedSpace("X", 1), NormedSpace("X", 2), NormedSpace("P", 1)
    if kind == "affine-1d":  # the batched rule of the rule library
        return _RULES["affine"](X1, X1, P1, {"a": -c[0], "b": c[1] - 1}), \
            grids_1d(11, 3)
    if kind == "quadratic-1d":
        return _rule_quadratic_difference(X1, X1, P1, {}), grids_1d(11, 3)
    if kind == "kinked":  # a two-piece polyhedral union
        return kinked_map_1d(c[0], c[1] / 2, c[2] - 1), grids_1d(9, 3)
    grids2 = ScanGrids(x=GridSpec((-1.0, -1.0), (1.0, 1.0), 5),
                       p=GridSpec((-0.3,), (0.3,), 3))
    A = [[c[0] + 1, c[1] - 1.25], [c[2] - 1.25, c[3] + 1]]  # invertible
    if kind == "affine-2d-rule":  # one matrix product for all rows
        return _RULES["affine"](X2, X2, P1, {"a": A, "b": c[1] - 1}), grids2
    return affine_map_2d(A, [c[1] - 1, 0.2]), grids2  # one call per row


@given(kind=st.sampled_from(["affine-1d", "quadratic-1d", "kinked",
                             "affine-2d-rule", "affine-2d"]),
       c=st.lists(st.floats(0.5, 2.0), min_size=4, max_size=4),
       alpha=st.floats(0.2, 1.5), gamma=st.sampled_from([0.5, 1.0, 2.0]))
@settings(max_examples=30, deadline=None)
def test_stacked_slopes_equal_one_point_slopes(kind, c, alpha, gamma):
    # the slopes of one parameter's stacked scan points are, bit for bit,
    # the slopes of the points one at a time (on a map with its own memo)
    F, grids = _stacked_case(kind, c)
    G, _ = _stacked_case(kind, c)
    q = RegularityQuery(xbar=(0.0,) * F.nx, ybar=(0.0,) * F.ny, pbar=(0.0,),
                        alpha=alpha, delta=0.6, mu=0.6, eta=0.4, gamma=gamma)
    for b in condition_scan_points(F, q, grids, q.delta + q.mu):
        for slope in (nonlocal_slope, local_slope):
            stacked = slope(F, q, b.p, b.xs, b.ys, grids)
            one = [slope(G, q, b.p, x, y, grids) for x, y in zip(b.xs, b.ys)]
            assert stacked.shape == (len(b.xs),)
            assert stacked.tobytes() == np.array(one).tobytes()


@pytest.mark.parametrize("kind", ["affine-1d", "quadratic-1d",
                                  "affine-2d-rule", "affine-2d"])
def test_local_slope_skips_only_steps_that_cannot_count(kind, monkeypatch):
    # the local slope evaluates the rule at fewer steps than the schedule
    # gives, and is still, bit for bit, the maximum over all of them
    F, grids = _stacked_case(kind, [1.5, 0.75, 1.25, 0.9])
    q = RegularityQuery(xbar=(0.0,) * F.nx, ybar=(0.0,) * F.ny, pbar=(0.0,),
                        alpha=0.5, delta=0.6, mu=0.6, eta=0.4, gamma=2.0)
    seen = []
    graph_rows = F.graph_rows
    monkeypatch.setattr(F, "graph_rows", lambda p, us:
                        seen.append(len(us)) or graph_rows(p, us))
    fewer = 0
    for b in condition_scan_points(F, q, grids, q.delta + q.mu):
        W, nw = _targets(q, b.ys)
        radii = _step_schedule(nw, q.gamma)
        seen.clear()
        owner, us, vs = F.step_points(b.p, b.xs, b.ys, _directions(F, q, [b]),
                                      radii, q.gamma)
        all_rows = sum(seen)
        d, r = _quotients(W[owner], us, vs, b.xs[owner], b.ys[owner],
                          q.gamma)
        ok = (d > 0) & (d <= radii[owner, -_LAST] * (1 + 1e-9))
        ref = _slopes(_best(len(b.xs), owner, r, ok), False)
        seen.clear()
        vals = local_slope(F, q, b.p, b.xs, b.ys, grids)
        assert vals.tobytes() == ref.tobytes()
        assert sum(seen) <= all_rows
        fewer += sum(seen) < all_rows
    assert fewer


def test_slope_steps_read_no_scan_grid():
    # at ybar = 0.25 the quadratic map has no exact solution rule, so only
    # the nonlocal slope's own candidate reads G(p) off the grid; the honest
    # steps, and with them the local slope, are those of a call without grids
    F = _rule_quadratic_difference(NormedSpace("X", 1), NormedSpace("Y", 1),
                                   NormedSpace("P", 1), {})
    G = _rule_quadratic_difference(NormedSpace("X", 1), NormedSpace("Y", 1),
                                   NormedSpace("P", 1), {})
    grids = grids_1d(21, 5)
    for gamma in (1.0, 2.0):
        q = RegularityQuery(xbar=(0.0,), ybar=(0.25,), pbar=(0.0,),
                            alpha=0.5, delta=0.6, mu=0.6, eta=0.4,
                            gamma=gamma)
        for b in condition_scan_points(F, q, grids, q.delta + q.mu):
            stacked = local_slope(F, q, b.p, b.xs, b.ys, grids)
            one = [local_slope(G, q, b.p, x, y) for x, y in zip(b.xs, b.ys)]
            assert stacked.tobytes() == np.array(one).tobytes()
            stacked = nonlocal_slope(F, q, b.p, b.xs, b.ys, grids)
            one = [nonlocal_slope(G, q, b.p, x, y, grids)
                   for x, y in zip(b.xs, b.ys)]
            assert stacked.tobytes() == np.array(one).tobytes()


def test_stacked_slopes_check_their_shapes():
    # stacked rows are taken without a graph check, but their shapes are
    # checked; a single point still gets the graph check
    F = affine_map_1d(-1.0, 1.0)
    q = query_1d(1.0)
    xs, ys = np.array([[0.1], [0.2]]), np.array([[-0.1], [-0.2]])
    for slope in (nonlocal_slope, local_slope):
        assert slope(F, q, [0.0], xs, ys, grids_1d()).shape == (2,)
        for x, y in ((xs, ys[:1]), (xs, ys[:, 0]), (xs[:, 0], ys),
                     (np.hstack([xs, xs]), ys)):
            with pytest.raises(DimensionMismatchError):
                slope(F, q, [0.0], x, y, grids_1d())


def test_local_at_most_nonlocal_pointwise():
    grids = grids_1d(21, 3)
    for F, modulus, _ in random_convex_instances(6, seed=31):
        q = query_1d(0.8 * modulus)
        for sp in scan_points(F, q, grids, q.delta)[:4]:
            ls = local_slope(F, q, sp.p, sp.x, sp.y, grids)
            ns = nonlocal_slope(F, q, sp.p, sp.x, sp.y, grids)
            assert ls <= ns + 1e-9


def test_local_slope_matches_subdifferential_distance():
    grids = grids_1d(21, 3)
    for F, modulus, _ in random_convex_instances(6, seed=41):
        q = query_1d(0.8 * modulus, gamma=1.3)
        for sp in scan_points(F, q, grids, q.delta)[:4]:
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
            cert = check_nonlocal_slope_condition(F, q, grids, mode="necessary")
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
