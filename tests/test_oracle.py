"""Brute-force subregularity scans and modulus estimation."""

import math

import numpy as np

from regulab import (
    ClosedFormMap,
    GridSpec,
    ScanGrids,
    Verdict,
    check_geometric,
    check_subreg_uniform,
    estimate_modulus,
)
from regulab.cli import _rule_quadratic_difference
from regulab.spaces import NormedSpace
from conftest import affine_map_1d, grids_1d, query_1d, random_convex_instances


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
