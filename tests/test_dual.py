"""Dual conditions: subdifferential, normal-cone, and coderivative checkers."""

import math

import numpy as np
import pytest

from regulab import (
    GammaMetric,
    InputError,
    RegularityQuery,
    Verdict,
    check_coderivative_condition,
    check_normal_cone_condition,
    check_subdifferential_condition,
    check_subreg_uniform,
    coderivative_distance,
    dual_candidates,
    gamma_dual_distance,
    merit_subdifferential,
    subdiff_distance,
)
from regulab.cli import _rule_affine, _rule_quadratic_difference
from regulab.spaces import NormedSpace
from conftest import (
    affine_map_1d,
    affine_map_2d,
    grids_1d,
    halfplane_map_1d,
    query_1d,
    random_convex_instances,
    scan_points,
)


def quadratic_map():
    return _rule_quadratic_difference(NormedSpace("X", 1), NormedSpace("Y", 1),
                                      NormedSpace("P", 1), {})


def test_merit_subdifferential_structure():
    F = affine_map_1d(-1.0, 1.0)  # {p - x}, cone {(t, t)}
    q = query_1d(1.0)
    pp, cone = merit_subdifferential(F, q, [0.0], [0.3], [-0.3])
    assert np.allclose(pp, [0.0, -1.0])
    assert cone.contains([2.0, 2.0])
    pp0, _ = merit_subdifferential(F, q, [0.0], [0.0], [0.0])
    assert pp0 == "unit-ball"


def test_merit_subdifferential_requires_convex():
    with pytest.raises(InputError):
        merit_subdifferential(quadratic_map(), query_1d(0.5), [0.0], [0.1],
                              [0.01])


def test_subdiff_distance_difference_map():
    # distance from 0 to (0, sign(y)) + {(t,t)} is min_t(|t| + |t -+ 1|) = 1
    F = affine_map_1d(-1.0, 1.0)
    q = query_1d(1.0, gamma=1.0)
    assert abs(subdiff_distance(F, q, [0.0], [0.3], [-0.3]) - 1.0) < 1e-9
    assert abs(subdiff_distance(F, q, [0.2], [-0.1], [0.3]) - 1.0) < 1e-9


def test_subdifferential_check_builds_one_cone_per_point(monkeypatch):
    # the distance and the small-y* flag come from the same cone, with the
    # same values as subdiff_distance point by point
    F = halfplane_map_1d(1.5, 0.5)
    q, grids = query_1d(0.8), grids_1d(21, 3)
    cones = []
    normal_cone = F.normal_cone
    monkeypatch.setattr(F, "normal_cone",
                        lambda *a: cones.append(a) or normal_cone(*a))
    cert = check_subdifferential_condition(F, q, grids)
    points = scan_points(F, q, grids, q.delta + q.mu)
    assert len(cones) == cert.scan_meta["points_scanned"] == len(points)
    assert cert.margin == min(subdiff_distance(F, q, sp.p, sp.x, sp.y)
                              for sp in points) - q.alpha


@pytest.mark.parametrize("check", [
    check_subdifferential_condition,
    lambda F, q, grids: check_normal_cone_condition(F, q, grids,
                                                    variant="frechet-cap"),
    lambda F, q, grids: check_coderivative_condition(F, q, grids,
                                                     variant="frechet-cap"),
])
def test_dual_check_asks_the_map_once(check, monkeypatch):
    # the (point, dual vector) pairs of all parameters go to one
    # cone_answers call per check, whatever the number of parameters
    F = halfplane_map_1d(1.5, 0.5)
    q, grids = query_1d(0.8, eta=0.5), grids_1d(21, 5)
    calls = []
    cone_answers = F.cone_answers
    monkeypatch.setattr(F, "cone_answers", lambda key, cones, *a: calls.append(
        len(cones)) or cone_answers(key, cones, *a))
    cert = check(F, q, grids)
    assert len(F.param_points(q, grids)) > 1
    assert calls == [cert.scan_meta["points_scanned"]] and calls[0] > 1


def test_subdiff_distance_equals_finite_difference_subgradient_bound():
    # convex check: every element (a*t, t - sign) of the subdifferential
    # satisfies the subgradient inequality for the merit function
    F = affine_map_1d(1.5, 0.2)
    q = query_1d(1.0)
    p, x, y = np.array([0.1]), np.array([0.3]), None
    y = F.values(p, x)[0]
    pp, cone = merit_subdifferential(F, q, p, x, y)
    base = float(np.linalg.norm(y - q.ybar_arr))
    for t in (-0.5, 0.2, 1.0):
        sub = pp + t * np.array([1.5, -1.0])  # element of the sum
        for dx in (-0.1, 0.05):
            u = x + dx
            v = F.values(p, u)[0]
            lhs = float(np.linalg.norm(v - q.ybar_arr))
            step = np.concatenate([u - x, v - y])
            assert lhs >= base + sub @ step - 1e-9


def test_dual_candidates_exact_and_cap():
    [c] = dual_candidates([3.0, 4.0], [0.0, 0.0], "exact", 0.99)
    assert np.allclose(c, [0.6, 0.8])
    cap = dual_candidates([3.0, 4.0], [0.0, 0.0], "cap", 0.9)
    assert cap
    for c in cap:
        assert abs(np.linalg.norm(c) - 1.0) < 1e-9
        assert c @ np.array([3.0, 4.0]) > 0.9 * 5.0
    caps1 = dual_candidates([-2.0], [0.0], "cap", 0.99)
    assert np.allclose(caps1, [[-1.0]])
    with pytest.raises(InputError):
        dual_candidates([1.0], [0.0], "cap", 1.0)
    with pytest.raises(InputError):
        dual_candidates([0.0], [0.0], "exact", 0.5)


def test_coderivative_distance_difference_map():
    F = affine_map_1d(-1.0, 1.0)  # cone {(t,t)}: x* = -v*
    for eta in (0.1, 0.5, 0.9):
        v = coderivative_distance(F, [0.0], [0.3], [-0.3], [1.0], eta)
        assert abs(v - (1.0 - eta)) < 1e-9


def test_coderivative_distance_quadratic_map():
    F = quadratic_map()
    for xv in (0.05, 0.2):
        v = coderivative_distance(F, [0.0], [xv], [xv * xv], [1.0], 0.25)
        assert abs(v - 2 * xv * 0.75) < 1e-8


def test_coderivative_vacuous_ball_is_inf():
    F = affine_map_1d(-1.0, 1.0)
    # cone {(t,t)}: y-parts reach everything, so shrink the ball around a
    # target only generators could miss -- use a generator-only cone map
    from regulab import ClosedFormMap
    from regulab.sets import ConeRep
    G = ClosedFormMap(NormedSpace("X", 1), NormedSpace("Y", 1),
                      lambda p, x: np.array([[x[0]]]), param_labels=[0],
                      cone_fn=lambda p, x, y: ConeRep.make(generators=[[1.0, 1.0]]),
                      convex=True)
    assert math.isinf(coderivative_distance(G, 0, [0.0], [0.0], [1.0], 0.5))


def test_normal_cone_checker_difference_map():
    F = affine_map_1d(-1.0, 1.0)
    grids = grids_1d(41, 5)
    for gamma in (0.5, 1.0):
        cert = check_normal_cone_condition(F, query_1d(1.0, gamma=gamma), grids)
        assert cert.verdict is Verdict.HOLDS, gamma
    # gamma = 2: distance is 0.5 < alpha = 1 -> violated
    cert = check_normal_cone_condition(F, query_1d(1.0, gamma=2.0), grids)
    assert cert.verdict is Verdict.VIOLATED


def test_normal_cone_checker_quadratic_violated():
    F = quadratic_map()
    grids = grids_1d(81, 5, p_lim=1.0)
    q = query_1d(0.5, delta=1.0, mu=1.0, eta=2.0)
    # frechet-cap variant works without convexity
    cert = check_normal_cone_condition(F, q, grids, variant="frechet-cap")
    assert cert.verdict is Verdict.VIOLATED
    with pytest.raises(InputError):
        check_normal_cone_condition(F, q, grids, variant="convex-normal")


def test_necessity_normal_cone_on_certified_instances(convex_suite):
    grids = grids_1d(21, 5)
    for F, modulus, _ in convex_suite[:8]:
        q = query_1d(0.7 * modulus)
        if check_subreg_uniform(F, q, grids).verdict is Verdict.HOLDS:
            cert = check_normal_cone_condition(F, q, grids, mode="necessary",
                                               tol=1e-6)
            assert cert.verdict is not Verdict.VIOLATED


def test_coderivative_checker_forms():
    F = affine_map_1d(-1.0, 1.0)
    grids = grids_1d(41, 5)
    # modulus 1: ball form at alpha=0.4, eta=0.5 -> dist 0.5 >= 0.4 holds
    q = query_1d(0.4, eta=0.5)
    assert check_coderivative_condition(F, q, grids).verdict is Verdict.HOLDS
    # normalized form needs dist >= alpha/(1-eta) = 0.8 > 0.5 -> violated
    cert = check_coderivative_condition(F, q, grids, form="normalized")
    assert cert.verdict is Verdict.VIOLATED
    # necessary form threshold alpha*(1-eta) = 0.2 <= 0.5 -> holds
    cert = check_coderivative_condition(F, q, grids, mode="necessary")
    assert cert.verdict is Verdict.HOLDS


def test_coderivative_checker_validation():
    F = affine_map_1d(-1.0, 1.0)
    grids = grids_1d(21, 3)
    with pytest.raises(InputError):
        check_coderivative_condition(F, query_1d(0.5, eta=float("inf")), grids)
    with pytest.raises(InputError):
        check_coderivative_condition(F, query_1d(0.5, eta=1.5), grids,
                                     form="normalized")


def test_sum_rule_consistency_identity():
    """The subdifferential distance equals the normal-cone distance at the
    exact aligned dual vector, instance by instance."""
    grids = grids_1d(21, 3)
    for F, modulus, _ in random_convex_instances(8, seed=71):
        q = query_1d(0.8 * modulus, gamma=1.4)
        g = GammaMetric(q.gamma)
        for sp in scan_points(F, q, grids, q.delta)[:3]:
            sd = subdiff_distance(F, q, sp.p, sp.x, sp.y)
            [ystar] = dual_candidates(sp.y, q.ybar_arr, "exact", q.tau)
            cone = F.normal_cone(sp.p, sp.x, sp.y)
            qvec = np.concatenate([np.zeros(F.nx), -ystar])
            nc = gamma_dual_distance(qvec, cone, g, F.nx)
            assert abs(sd - nc) <= 1e-8


def test_affine_rule_normal_space_and_subdiff_distance():
    from scipy.optimize import minimize

    a = np.array([[1.2, 0.4], [-0.3, 0.9]])
    F = _rule_affine(NormedSpace("X", 2), NormedSpace("Y", 2),
                     NormedSpace("P", 1), {"a": a, "b": [[0.3], [-0.2]]})
    p, x = np.array([0.1]), np.array([0.3, -0.2])
    y = F.values(p, x)[0]
    cone = F.normal_cone(p, x, y)
    for d in np.eye(2):
        tangent = np.concatenate([d, a @ d])
        assert np.allclose(cone.lineality @ tangent, 0.0, atol=1e-12)

    gamma = 0.5
    ystar = y / np.linalg.norm(y)

    def f(v):  # dual norm of (-a^T v, y* + v), an element of (0, y*) + N
        return np.linalg.norm(a.T @ v) + np.linalg.norm(ystar + v) / gamma

    starts = [np.zeros(2), -ystar] + [
        r * np.array([np.cos(t), np.sin(t)])
        for r in (0.5, 1.5) for t in np.linspace(0, 2 * np.pi, 8, endpoint=False)]
    ref = min(min(f(v0), minimize(f, v0, method="Nelder-Mead",
                                  options={"xatol": 1e-12, "fatol": 1e-14,
                                           "maxiter": 20000}).fun)
              for v0 in starts)
    q = RegularityQuery(xbar=(0.0, 0.0), ybar=(0.0, 0.0), alpha=1.0,
                        delta=1.0, mu=1.0, gamma=gamma)
    assert abs(subdiff_distance(F, q, p, x, y) - ref) < 1e-6


def test_dual_checks_2d_instance():
    A = np.array([[1.2, 0.3], [-0.2, 0.9]])
    F = affine_map_2d(A, np.array([0.4, -0.1]))
    smin = np.linalg.svd(A, compute_uv=False)[-1]
    from regulab import GridSpec, ScanGrids
    grids = ScanGrids(x=GridSpec((-1.0, -1.0), (1.0, 1.0), 9),
                      y=GridSpec((-1.0, -1.0), (1.0, 1.0), 9),
                      p=GridSpec((-0.3,), (0.3,), 3))
    from regulab import RegularityQuery
    q = RegularityQuery(xbar=(0.0, 0.0), ybar=(0.0, 0.0), pbar=(0.0,),
                        alpha=0.6 * smin, delta=0.8, mu=0.8, eta=0.4,
                        gamma=1.0 / (0.6 * smin))
    oracle = check_subreg_uniform(F, q, grids)
    assert oracle.verdict is Verdict.HOLDS
    cert = check_normal_cone_condition(F, q, grids)
    assert cert.verdict is Verdict.HOLDS
    # above the modulus the dual condition fails at gamma = 1/alpha
    q_hi = RegularityQuery(xbar=(0.0, 0.0), ybar=(0.0, 0.0), pbar=(0.0,),
                           alpha=1.4 * np.linalg.norm(A, 2), delta=0.8, mu=0.8,
                           eta=0.4, gamma=1.0 / (1.4 * np.linalg.norm(A, 2)))
    cert = check_normal_cone_condition(F, q_hi, grids)
    assert cert.verdict is Verdict.VIOLATED


def test_dual_checks_make_one_stacked_call_per_cone(monkeypatch):
    # a 2-D affine rule whose cone is one object at every point: each check
    # solves the problems it is the first to pose, over every parameter, in
    # one call per solver, and each distinct (cone, vector) problem reaches
    # a solver once per map across the four checks; the answers are those
    # of one-vector calls
    import regulab.dual
    from regulab import GridSpec, ScanGrids
    from regulab.sets import ConeRep

    A = np.array([[1.2, 0.4], [-0.3, 0.9]])
    F = affine_map_2d(A, np.array([0.3, -0.2]))
    cone = ConeRep.make(lineality=np.hstack([-A, np.eye(2)]))
    F.cone_fn = lambda p, x, y: cone
    grids = ScanGrids(x=GridSpec((-1.0, -1.0), (1.0, 1.0), 7),
                      y=GridSpec((-1.0, -1.0), (1.0, 1.0), 7),
                      p=GridSpec((-0.3,), (0.3,), 3))
    q = RegularityQuery(xbar=(0.0, 0.0), ybar=(0.0, 0.0), pbar=(0.0,),
                        alpha=0.6, delta=0.6, mu=0.6, eta=0.4, gamma=1.0,
                        tau=0.9)
    calls = []
    for name in ("gamma_dual_distance", "cone_min_norm"):
        solve = getattr(regulab.dual, name)

        def spy(*args, solve=solve, name=name, **kwargs):
            # gamma_dual_distance(q, cone, ...), cone_min_norm(cone, nx, y, ...)
            support = name == "gamma_dual_distance"
            assert args[support] is cone
            calls.append((name, np.atleast_2d(args[0 if support else 2])))
            return solve(*args, **kwargs)

        monkeypatch.setattr(regulab.dual, name, spy)

    points = scan_points(F, q, grids, q.delta + q.mu)
    assert len({tuple(np.atleast_1d(sp.p)) for sp in points}) == 3
    g = GammaMetric(q.gamma)
    solved = {"gamma_dual_distance": set(), "cone_min_norm": set()}
    for check, kw, solver in [
            (check_normal_cone_condition, {}, "gamma_dual_distance"),
            (check_normal_cone_condition, {"variant": "frechet-cap"},
             "gamma_dual_distance"),
            (check_coderivative_condition, {}, "cone_min_norm"),
            (check_subdifferential_condition, {}, "gamma_dual_distance")]:
        calls.clear()
        cert = check(F, q, grids, **kw)
        kind = "cap" if kw else "exact"
        ystars = np.array([ys for sp in points for ys in
                           dual_candidates(sp.y, q.ybar_arr, kind, q.tau)])
        assert cert.scan_meta["points_scanned"] == len(ystars)
        posed = {(np.hstack([np.zeros(2), -ys]) if solver ==
                  "gamma_dual_distance" else -ys).tobytes() for ys in ystars}
        assert len(posed) > 3
        new = posed - solved[solver]
        # one stacked call on the problems no earlier check posed, each once
        assert [name for name, _ in calls] == [solver] * bool(new)
        rows = [r.tobytes() for _, V in calls for r in V]
        assert len(rows) == len(set(rows)) and set(rows) == new
        solved[solver] |= new
        if check is check_normal_cone_condition:
            ref = min(gamma_dual_distance(np.concatenate([np.zeros(2), -ys]),
                                          cone, g, 2) for ys in ystars)
            assert cert.margin == ref - q.alpha
    # the subdifferential check poses the exact normal-cone check's problems
    assert [name for name, _ in calls] == []
