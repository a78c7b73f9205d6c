"""Brute-force subregularity scans and modulus estimation."""

import dataclasses
import math

import numpy as np
import pytest

from regulab import (
    ClosedFormMap,
    GridSpec,
    ScanGrids,
    Verdict,
    check_geometric,
    check_subreg_uniform,
    estimate_modulus,
)
from regulab.cli import (EXAMPLE_DIFFERENCE, EXAMPLE_QUADRATIC,
                         _rule_quadratic_difference, build_grids,
                         build_mapping, build_query, load_scenario)
from regulab.mappings import SOL_TOL, strict_cap
from regulab.oracle import MarginScan, _residual_scan
from regulab.spaces import NormedSpace, ball_mask, make_grid
from conftest import (abs_shift_map, affine_map_1d, assert_same_certificate,
                      grids_1d, kinked_map_1d, one_point_distances, query_1d,
                      random_convex_instances, small_blocks)


def quadratic_map():
    n1 = NormedSpace("X", 1)
    return _rule_quadratic_difference(n1, NormedSpace("Y", 1),
                                      NormedSpace("P", 1), {})


def test_difference_map_holds_for_alpha_up_to_one():
    F = affine_map_1d(-1.0, 1.0)  # {p - x}
    grids = grids_1d(41, 9)
    for alpha in (0.3, 0.7, 1.0):
        cert = check_subreg_uniform(F, query_1d(alpha), grids)
        assert cert.verdict is Verdict.HOLDS, alpha
        assert cert.margin >= 0
    cert = check_subreg_uniform(F, query_1d(1.2), grids)
    assert cert.verdict is Verdict.VIOLATED
    assert cert.witness is not None


def test_quadratic_map_violated_every_alpha():
    F = quadratic_map()
    grids = grids_1d(81, 9, p_lim=1.0)
    for alpha in (0.1, 0.5, 1.0):
        q = query_1d(alpha, delta=1.0, mu=1.0, eta=2.0)
        cert = check_subreg_uniform(F, q, grids)
        assert cert.verdict is Verdict.VIOLATED
        w = cert.witness
        # re-evaluate the defining inequality at the witness
        res = F.residual(w["p"], w["x"], [0.0])
        dist = F.solution_distance(w["p"], w["x"], [0.0])
        assert res - alpha * dist < 0
        assert abs((res - alpha * dist) - cert.margin) < 1e-9


def test_identity_singleton_param_holds():
    from regulab.cli import _rule_identity
    n1 = NormedSpace("N", 1)
    F = _rule_identity(n1, n1, n1, {})
    cert = check_subreg_uniform(F, query_1d(1.0), grids_1d())
    assert cert.verdict is Verdict.HOLDS


def test_witness_violation_reproducible():
    F = affine_map_1d(0.5, 0.2)
    q = query_1d(1.0)  # alpha above modulus 0.5
    cert = check_subreg_uniform(F, q, grids_1d(31, 7))
    assert cert.verdict is Verdict.VIOLATED
    w = cert.witness
    res = F.residual(w["p"], w["x"], [0.0])
    dist = F.solution_distance(w["p"], w["x"], [0.0])
    assert abs((res - q.alpha * dist) - cert.margin) < 1e-9
    # a fault in the value rule, which only the witness's y reads here,
    # surfaces instead of leaving y empty
    F.value_fn = lambda p, x: 1 / 0
    with pytest.raises(ZeroDivisionError):
        check_subreg_uniform(F, q, grids_1d(31, 7))


def test_geometric_matches_subreg_on_suite():
    grids = grids_1d(21, 5)
    for F, modulus, _ in random_convex_instances(12, seed=21):
        for alpha in (0.8 * modulus, 1.3 * modulus):
            q = query_1d(alpha)
            a = check_subreg_uniform(F, q, grids)
            b = check_geometric(F, q, grids)
            assert a.verdict == b.verdict, (modulus, alpha)


def test_alpha_monotonicity():
    grids = grids_1d(21, 5)
    for F, modulus, _ in random_convex_instances(9, seed=5):
        alphas = np.linspace(0.2, 2.5, 8) * modulus
        verdicts = [check_subreg_uniform(F, query_1d(a), grids).verdict
                    for a in alphas]
        seen_violated = False
        for v in verdicts:
            if v is Verdict.VIOLATED:
                seen_violated = True
            elif seen_violated:
                raise AssertionError("HOLDS after VIOLATED breaks monotonicity")


def test_modulus_difference_map():
    F = affine_map_1d(-1.0, 1.0)
    grids = grids_1d(41, 9)
    m = estimate_modulus(F, (0.0,), (0.0,), 0.5, 0.5, grids, pbar=(0.0,),
                         eta=0.4)
    assert abs(m - 1.0) <= grids.x.spacing


def test_modulus_scale_map():
    F = affine_map_1d(2.0, 0.0)
    grids = grids_1d(41, 3)
    m = estimate_modulus(F, (0.0,), (0.0,), 0.5, 0.5, grids, pbar=(0.0,),
                         eta=0.4)
    assert abs(m - 2.0) <= 2 * grids.x.spacing


def test_modulus_quadratic_shrinks_with_delta():
    F = quadratic_map()
    grids = grids_1d(201, 5, p_lim=0.01)
    prev = math.inf
    for delta in (0.8, 0.2, 0.05):
        m = estimate_modulus(F, (0.0,), (0.0,), delta, delta, grids,
                             pbar=(0.0,), eta=0.02)
        assert m <= prev + 1e-9
        prev = m
    assert prev < 0.1


def test_modulus_treats_float_noise_as_on_the_solution_set():
    # x = -0.01 and p = -0.01 come from different linspace calls and differ
    # by 8.7e-18; that point is on the solution set, and the best rate is
    # the one at p = 0.005, x in {0, 0.01}: res/dist = 0.005^2 / 0.005
    F = quadratic_map()
    m = estimate_modulus(F, (0.0,), (0.0,), 0.05, 0.05,
                         grids_1d(201, 5, p_lim=0.01), pbar=(0.0,), eta=0.02)
    assert abs(m - 0.005) <= 1e-12


def test_modulus_at_least_certified_alpha():
    grids = grids_1d(21, 5)
    for F, modulus, _ in random_convex_instances(9, seed=13):
        q = query_1d(0.7 * modulus)
        if check_subreg_uniform(F, q, grids).verdict is Verdict.HOLDS:
            m = estimate_modulus(F, (0.0,), (0.0,), q.delta, q.mu, grids,
                                 pbar=(0.0,), eta=q.eta)
            assert m >= q.alpha - 1e-9


def test_empty_scan_is_inconclusive():
    F = affine_map_1d(1.0, 0.0, c=50.0)  # residuals huge: filter empties
    q = query_1d(0.5, mu=0.01)
    cert = check_subreg_uniform(F, q, grids_1d())
    assert cert.verdict is Verdict.INCONCLUSIVE
    assert cert.scan_meta["points_scanned"] == 0


def test_modulus_is_the_rate_where_the_scan_flips():
    cases = [(F, grids_1d(21, 5), 0.6, 0.4)
             for F, _, _ in random_convex_instances(9, seed=13)]
    cases.append((quadratic_map(), grids_1d(81, 9, p_lim=1.0), 1.0, 2.0))
    cases.append((quadratic_map(), grids_1d(201, 5, p_lim=0.01), 0.05, 0.02))
    for F, grids, delta, eta in cases:
        m = estimate_modulus(F, (0.0,), (0.0,), delta, delta, grids,
                             pbar=(0.0,), eta=eta)
        assert 0 < m < math.inf
        below = check_subreg_uniform(
            F, query_1d(m * (1 - 1e-9), delta=delta, mu=delta, eta=eta), grids)
        above = check_subreg_uniform(
            F, query_1d(m * (1 + 1e-9), delta=delta, mu=delta, eta=eta), grids)
        assert below.verdict is not Verdict.VIOLATED, m
        assert above.verdict is Verdict.VIOLATED, m


def test_modulus_without_points_off_the_solution_set_is_inf():
    n1 = NormedSpace("N", 1)
    F = ClosedFormMap(n1, n1, lambda p, x: np.array([[0.0]]),
                      param_space=n1)  # F(p, x) = {0}: G(p) is all of X
    m = estimate_modulus(F, (0.0,), (0.0,), 0.6, 0.6, grids_1d(11, 3),
                         pbar=(0.0,), eta=0.4)
    assert m == math.inf


def _ball_test_pointwise(F, q, grids, n_rho=64):
    """The ball test of ``check_geometric`` one scan point at a time, every
    tested radius listed: ``(margin, witness x, witness radius, points)``,
    the witness the first point attaining the margin and its radius the
    first one attaining the point's smallest gap."""
    mu = q.mu if math.isfinite(q.mu) else float(
        np.linalg.norm(grids.x.upper_arr - grids.x.lower_arr))
    ladder = np.linspace(mu / (n_rho + 1), mu, n_rho, endpoint=False)
    best, x_best, rho_best, n = math.inf, None, None, 0
    for rows in _residual_scan(F, q, grids, strict_cap(q.alpha * mu)):
        # the stacked rows, grouped by parameter in scan order
        for k in np.unique(rows.k):
            at = rows.k == k
            xs, res, dist = rows.xs[at], rows.res[at], rows.dist[at]
            for x, r, d in zip(xs, res, dist):
                crit = r / q.alpha
                rhos = np.concatenate([ladder[ladder > crit / (1 - 1e-12)],
                                       [crit * (1 + 1e-9)]
                                       if crit * (1 + 1e-9) < mu else []])
                if not rhos.size:
                    continue
                n += 1
                gaps = rhos - d
                if gaps.min() < best:
                    best, x_best = gaps.min(), x
                    rho_best = rhos[int(np.argmin(gaps))]
    return best, x_best, rho_best, n


def _assert_geometric_matches_pointwise(F, q, grids):
    cert = check_geometric(F, q, grids)
    margin, x, rho, n = _ball_test_pointwise(F, q, grids)
    assert cert.scan_meta["points_scanned"] == n > 0
    assert repr(cert.margin) == repr(float(margin))
    if margin < 0:
        assert cert.witness["x"].tolist() == x.tolist()
        assert repr(cert.witness["value"]) == repr(float(rho))
    else:
        assert cert.witness is None
    return cert


def test_geometric_matches_pointwise_ball_test(tmp_path):
    # the quadratic example: a violation at the critical radius
    path = tmp_path / "example_quadratic.yaml"
    path.write_text(EXAMPLE_QUADRATIC)
    sc = load_scenario(str(path))
    cert = _assert_geometric_matches_pointwise(
        build_mapping(sc), build_query(sc), build_grids(sc))
    assert cert.verdict is Verdict.VIOLATED
    # unbounded mu: the ladder spans the X grid's diameter
    q = dataclasses.replace(query_1d(0.5), mu=math.inf)
    _assert_geometric_matches_pointwise(quadratic_map(), q, grids_1d(41, 5))
    _assert_geometric_matches_pointwise(affine_map_1d(0.5, 0.2), q,
                                        grids_1d(41, 5))


def test_geometric_tie_goes_to_the_rung():
    # a solution distance of 1e20 rounds every gap rho - d to -1e20, so the
    # rung and the critical radius tie at every point: the rung, listed
    # first, is the witness radius
    F = ClosedFormMap(
        NormedSpace("X", 1), NormedSpace("Y", 1),
        value_rule=lambda p, xs: xs - np.atleast_1d(p)[0],
        param_space=NormedSpace("P", 1),
        residual_rule=lambda p, xs, ybar: np.abs(xs[:, 0] - np.atleast_1d(p)[0]
                                                 - ybar[0]),
        solution_dist_rule=lambda p, xs: np.full(xs.shape[0], 1e20),
        target=[0.0])
    q = query_1d(1.0)
    grids = grids_1d(21, 3)
    cert = _assert_geometric_matches_pointwise(F, q, grids)
    assert cert.margin == -1e20
    rho = cert.witness["value"]
    crit = abs(cert.witness["x"][0] - cert.witness["p"][0]) / q.alpha
    ladder = np.linspace(q.mu / 65, q.mu, 64, endpoint=False)
    assert rho in ladder and crit * (1 + 1e-9) < q.mu
    assert rho != crit * (1 + 1e-9) and rho - 1e20 == crit * (1 + 1e-9) - 1e20


def test_margin_scan_never_certifies_a_nan_margin():
    def witness(i):
        return {"i": i}

    # a NaN beside a checked violation: the violation stands
    scan = MarginScan(1e-9)
    scan.add(np.array([math.nan, -1.0]), witness)
    cert = scan.certificate({})
    assert cert.verdict is Verdict.VIOLATED
    assert cert.margin == -1.0 and cert.witness == {"i": 1}
    assert cert.scan_meta == {"points_scanned": 2, "nan_margins": 1}
    # a scan of a single NaN, or of a NaN beside margins that hold, is
    # inconclusive
    for margins in (math.nan, np.array([0.5, math.nan, 2.0])):
        scan = MarginScan(1e-9)
        scan.add(margins, witness)
        cert = scan.certificate({})
        assert cert.verdict is Verdict.INCONCLUSIVE
        assert math.isnan(cert.margin) and cert.witness is None
        assert cert.scan_meta["nan_margins"] == 1
    # without a NaN the scan_meta is as before
    scan = MarginScan(1e-9)
    scan.add(np.array([0.5, 2.0]), witness)
    cert = scan.certificate({})
    assert cert.verdict is Verdict.HOLDS and cert.margin == 0.5
    assert cert.scan_meta == {"points_scanned": 2}


def _parent_residual_scan(F, q, grids, cap):
    """The ground-truth scan parameter by parameter, as it was before it
    was stacked: ``(p, xs, res, dist)`` for each parameter that admits a
    point, its solution distances measured one point at a time where the
    map has no distance rule."""
    ybar = q.ybar_arr
    xs_all = make_grid(grids.x)
    xs_all = xs_all[ball_mask(xs_all, q.xbar_arr, q.delta)]
    for p in F.param_points(q, grids):
        res = F.residual_vec(p, xs_all, ybar)
        mask = res <= cap
        if not mask.any():
            continue
        xs = xs_all[mask]
        dist = one_point_distances(F, p, xs, ybar, grids)
        yield p, xs, res[mask], np.where(dist <= SOL_TOL, 0.0, dist)


def _parent_scans(F, q, grids, n_rho=64):
    """The oracle's certificate, the ball test's and the best rate, each
    reduced one parameter at a time from ``_parent_residual_scan``."""
    oracle = MarginScan()
    for p, xs, res, dist in _parent_residual_scan(
            F, q, grids, strict_cap(q.alpha * q.mu)):
        oracle.add(res - q.alpha * dist, lambda i: {
            "p": p, "x": xs[i].copy(), "value": float(res[i] / dist[i])})
    mu = q.mu if math.isfinite(q.mu) else float(
        np.linalg.norm(grids.x.upper_arr - grids.x.lower_arr))
    ladder = np.linspace(mu / (n_rho + 1), mu, n_rho, endpoint=False)
    ball = MarginScan()
    for p, xs, res, dist in _parent_residual_scan(
            F, q, grids, strict_cap(q.alpha * mu)):
        crit = res / q.alpha
        k = np.searchsorted(ladder, crit / (1 - 1e-12), side="right")
        has_rung = k < n_rho
        rung = ladder[np.minimum(k, n_rho - 1)]
        at_crit = crit * (1 + 1e-9)
        has_crit = at_crit < mu
        tested = has_rung | has_crit
        if not tested.any():
            continue
        rung_gap = np.where(has_rung, rung - dist, math.inf)
        crit_gap = np.where(has_crit, at_crit - dist, math.inf)
        xs = xs[tested]
        value = np.where(crit_gap < rung_gap, at_crit, rung)[tested]
        ball.add(np.minimum(rung_gap, crit_gap)[tested],
                 lambda i: {"p": p, "x": xs[i].copy(),
                            "value": float(value[i])})
    mu_strict = strict_cap(q.mu)
    bounds = [np.zeros(0)]
    for _, _, res, dist in _parent_residual_scan(F, q, grids, math.inf):
        off = (dist > 0) & np.isfinite(res)
        bounds.append(np.maximum(res[off] / dist[off], res[off] / mu_strict))
    bounds = np.concatenate(bounds)
    return (oracle.certificate({}), ball.certificate({}),
            float(bounds.min()) if bounds.size else math.inf)


def _example_case(tmp_path, text, alpha=None):
    path = tmp_path / "example.yaml"
    path.write_text(text)
    sc = load_scenario(str(path))
    q = build_query(sc)
    if alpha is not None:
        q = dataclasses.replace(q, alpha=alpha)
    return lambda: build_mapping(sc), q, build_grids(sc)


# each case: a builder of fresh maps, the query, the grids
SCAN_CASES = {
    # rule residuals and rule distances, a violation at alpha 0.5
    "quadratic": lambda tmp: _example_case(tmp, EXAMPLE_QUADRATIC),
    # rule residuals, distances to the exact solution cloud
    "difference": lambda tmp: _example_case(tmp, EXAMPLE_DIFFERENCE),
    "difference-violated": lambda tmp: _example_case(
        tmp, EXAMPLE_DIFFERENCE, alpha=1.2),
    # a polyhedral union: projections onto the slices' pieces
    "kinked": lambda tmp: (kinked_map_1d, query_1d(1.2), grids_1d(21, 5)),
    # the minimum margin at p = -0.3 ties with the one at p = 0.3
    "tie": lambda tmp: (abs_shift_map,
                        query_1d(1.5, mu=math.inf), grids_1d(21, 5)),
    # residuals of 50 and more against a cap below 0.01
    "empty": lambda tmp: (lambda: affine_map_1d(1.0, 0.0, c=50.0),
                          query_1d(0.5, mu=0.01), grids_1d()),
}


# a scan of several blocks: one case with rule distances, one with clouds
BLOCK_CASES = [(case, "default") for case in sorted(SCAN_CASES)] + \
    [("quadratic", "small"), ("difference-violated", "small")]


@pytest.mark.parametrize("case, blocks", BLOCK_CASES)
def test_stacked_scans_equal_the_per_parameter_scans(case, blocks, tmp_path,
                                                      monkeypatch):
    if blocks == "small":
        small_blocks(monkeypatch)
    build, q, grids = SCAN_CASES[case](tmp_path)
    oracle, ball, modulus = _parent_scans(build(), q, grids)
    assert_same_certificate(check_subreg_uniform(build(), q, grids), oracle)
    assert_same_certificate(check_geometric(build(), q, grids), ball)
    m = estimate_modulus(build(), q.xbar, q.ybar, q.delta, q.mu, grids,
                         pbar=q.pbar, eta=q.eta)
    assert repr(m) == repr(modulus)
    if case == "tie":
        assert oracle.verdict is Verdict.VIOLATED
        assert oracle.witness["p"].tolist() == [-0.3]
    if case == "empty":
        assert oracle.detail == ball.detail == "no admissible scan points"
    if case.startswith(("quadratic", "difference-violated", "kinked")):
        assert oracle.verdict is Verdict.VIOLATED
