"""Recede scans, Aubin scans, and the rate-composition pipeline."""

import dataclasses

import numpy as np
import pytest

from regulab import (
    AubinQuery,
    InputError,
    Verdict,
    certify_aubin,
    check_aubin,
    check_recede,
    check_subreg_uniform,
    compose_aubin_rate,
)
from regulab.cli import (EXAMPLE_DIFFERENCE, EXAMPLE_QUADRATIC,
                         _rule_quadratic_difference, build_grids,
                         build_mapping, build_query, load_scenario)
from regulab.oracle import CHECK_TOL, MarginScan
from regulab.sets import region_sample_points
from regulab.spaces import NormedSpace, as_point, ball_mask, make_grid
from conftest import (abs_shift_map, affine_map_1d, assert_same_certificate,
                      grids_1d, kinked_map_1d, one_point_distances, query_1d,
                      small_blocks)


def quadratic_map():
    return _rule_quadratic_difference(NormedSpace("X", 1), NormedSpace("Y", 1),
                                      NormedSpace("P", 1), {})


def test_recede_difference_map_tight_rate():
    F = affine_map_1d(-1.0, 1.0)  # residual |p - p'| on solutions of p'
    grids = grids_1d(41, 5)
    q = query_1d(1.0, eta=0.7)
    assert check_recede(F, q, 1.0, grids).verdict is Verdict.HOLDS
    cert = check_recede(F, q, 0.9, grids)
    assert cert.verdict is Verdict.VIOLATED
    assert cert.witness is not None
    # the margins are (l - 1) d(p, p'), most negative at the largest shift
    # d; a margin above -CHECK_TOL is no violation
    d = -cert.margin / 0.1
    inside = check_recede(F, q, 1 - 0.5 * CHECK_TOL / d, grids)
    assert inside.verdict is Verdict.HOLDS
    assert -CHECK_TOL < inside.margin < 0
    beyond = check_recede(F, q, 1 - 2 * CHECK_TOL / d, grids)
    assert beyond.verdict is Verdict.VIOLATED
    assert beyond.margin < -CHECK_TOL


def test_recede_rate_matches_parameter_slope():
    # residual over G(p') at p is |b| d(p, p'), so rate |b| is exact
    for b in (0.25, 0.8):
        F = affine_map_1d(1.3, b)
        grids = grids_1d(41, 5)
        q = query_1d(1.0, eta=0.7)
        assert check_recede(F, q, b, grids).verdict is Verdict.HOLDS
        assert check_recede(F, q, 0.9 * b, grids).verdict is Verdict.VIOLATED


def test_recede_parameter_free_map_any_rate():
    F = affine_map_1d(1.0, 0.0)
    q = query_1d(1.0, eta=0.7)
    cert = check_recede(F, q, 1e-6, grids_1d(21, 5))
    assert cert.verdict is Verdict.HOLDS


def test_recede_needs_metric_parameters():
    from regulab import ClosedFormMap
    F = ClosedFormMap(NormedSpace("X", 1), NormedSpace("Y", 1),
                      lambda p, x: np.array([[x[0]]]), param_labels=["only"],
                      convex=True)
    with pytest.raises(InputError):
        check_recede(F, query_1d(1.0), 1.0, grids_1d())


def test_aubin_difference_map():
    F = affine_map_1d(-1.0, 1.0)  # G(p) = {p}
    grids = grids_1d(41, 5)
    aq = AubinQuery(pbar=(0.0,), xbar=(0.0,), ybar=(0.0,), l=1.0, eta=0.7,
                    delta=0.8, mu=0.7)
    assert check_aubin(F, aq, grids).verdict is Verdict.HOLDS
    bad = AubinQuery(pbar=(0.0,), xbar=(0.0,), ybar=(0.0,), l=0.8, eta=0.7,
                     delta=0.8, mu=0.7)
    assert check_aubin(F, bad, grids).verdict is Verdict.VIOLATED


def test_aubin_rate_is_solution_lipschitz_rate():
    F = affine_map_1d(2.0, 1.0)  # G(p) = {-p/2}, Lipschitz rate 1/2
    grids = grids_1d(41, 5)
    aq = AubinQuery(pbar=(0.0,), xbar=(0.0,), ybar=(0.0,), l=0.5, eta=0.7,
                    delta=0.8, mu=0.7)
    assert check_aubin(F, aq, grids).verdict is Verdict.HOLDS
    bad = AubinQuery(pbar=(0.0,), xbar=(0.0,), ybar=(0.0,), l=0.45, eta=0.7,
                     delta=0.8, mu=0.7)
    assert check_aubin(F, bad, grids).verdict is Verdict.VIOLATED


def test_aubin_holds_where_subregularity_fails():
    # G(p) = {p} for the squared-difference map even though uniform
    # subregularity at the origin fails for every alpha
    F = quadratic_map()
    grids = grids_1d(41, 5, p_lim=0.3)
    q = query_1d(0.3, delta=1.0, mu=1.0, eta=0.7)
    assert check_subreg_uniform(F, q, grids).verdict is Verdict.VIOLATED
    aq = AubinQuery(pbar=(0.0,), xbar=(0.0,), ybar=(0.0,), l=1.0, eta=0.7,
                    delta=1.0, mu=0.7)
    assert check_aubin(F, aq, grids).verdict is Verdict.HOLDS


def test_compose_rate_validates_derived_claim():
    F = affine_map_1d(2.0, 0.8)
    grids = grids_1d(41, 5)
    q = query_1d(1.5, eta=0.7)
    sub = check_subreg_uniform(F, q, grids)
    rec = check_recede(F, q, 0.8, grids)
    assert sub.holds and rec.holds
    cert = compose_aubin_rate(F, q, sub, 0.8, rec, grids)
    assert cert.verdict is Verdict.HOLDS
    assert abs(cert.scan_meta["derived_rate"] - 0.8 / 1.5) < 1e-12
    assert cert.scan_meta["mu_prime"] == q.alpha * q.mu / 0.8


def test_compose_rate_rejects_failed_premises():
    F = affine_map_1d(2.0, 0.8)
    grids = grids_1d(41, 5)
    q = query_1d(1.5, eta=0.7)
    sub = check_subreg_uniform(F, q, grids)
    bad = check_recede(F, q, 0.1, grids)
    assert sub.holds and not bad.holds
    with pytest.raises(InputError):
        compose_aubin_rate(F, q, sub, 0.8, bad, grids)


def test_certify_aubin_pipeline_conditions():
    F = affine_map_1d(-1.0, 1.0)  # modulus 1, recede rate 1
    grids = grids_1d(41, 5)
    q = query_1d(1.0, eta=0.2, delta=0.6, mu=0.6)
    # threshold l'/l = 0.7 below the modulus: every selector certifies
    for condition in ("slope", "normal-cone-convex", "normal-cone-frechet",
                      "coderiv-clarke", "coderiv-frechet"):
        cert = certify_aubin(F, q, 1.0, 1.0 / 0.7, condition, grids)
        assert cert.verdict is Verdict.HOLDS, condition
        assert cert.scan_meta["threshold"] == pytest.approx(0.7)
    # threshold above the modulus: the condition stage fails
    cert = certify_aubin(F, q, 1.0, 0.5, "slope", grids)
    assert cert.verdict is not Verdict.HOLDS
    with pytest.raises(InputError):
        certify_aubin(F, q, 1.0, 1.0, "not-a-condition", grids)


def test_recede_and_aubin_need_a_reference_parameter():
    # without pbar the eta-ball has no center: an InputError, not a scan of
    # no parameter
    F = affine_map_1d(-1.0, 1.0)
    q = dataclasses.replace(query_1d(1.0, eta=0.7), pbar=None)
    with pytest.raises(InputError, match="pbar"):
        check_recede(F, q, 1.0, grids_1d(41, 5))
    aq = AubinQuery(pbar=None, xbar=(0.0,), ybar=(0.0,), l=1.0, eta=0.7,
                    delta=0.8, mu=0.7)
    with pytest.raises(InputError, match="pbar"):
        check_aubin(F, aq, grids_1d(41, 5))


def _parent_pair_scans(F, q, l, grids):
    """The recede and Aubin certificates of ``q`` at rate ``l``, reduced one
    parameter pair at a time as before the pair scans were stacked, the
    solution samples drawn afresh and the Aubin distances measured one
    point at a time where the map has no distance rule."""
    ybar = q.ybar_arr
    pts = make_grid(grids.p)
    pts = pts[ball_mask(pts, as_point(q.pbar), q.eta)]
    recede, aubin = MarginScan(1e-9), MarginScan(1e-9)
    for p in pts:
        d = np.linalg.norm(pts - p[None, :], axis=1)
        sel = (d > 0) & (d < q.mu)
        for pp, dpp in zip(pts[sel], d[sel]):
            xs = region_sample_points(F.solution_set(pp, ybar, grids),
                                      grids.x)
            if xs.shape[0]:
                xs = xs[ball_mask(xs, q.xbar_arr, q.delta)]
            if xs.shape[0] == 0:
                continue
            res = F.residual_vec(p, xs, ybar)
            dist = one_point_distances(F, p, xs, ybar, grids)
            for scan, value in ((recede, res), (aubin, dist)):
                scan.add(l * float(dpp) - value, lambda i: {
                    "p": (p.copy(), pp.copy()), "x": xs[i].copy(),
                    "value": float(value[i])})
    return recede.certificate({}), aubin.certificate({})


def _example_case(tmp_path, text, **changes):
    path = tmp_path / "example.yaml"
    path.write_text(text)
    sc = load_scenario(str(path))
    return (lambda: build_mapping(sc),
            dataclasses.replace(build_query(sc), **changes), build_grids(sc))


# each case: a builder of fresh maps, the query, the grids, the rate l
PAIR_CASES = {
    # rule residuals and rule distances; Aubin fails at l = 0.5
    "quadratic": lambda tmp: (*_example_case(tmp, EXAMPLE_QUADRATIC, mu=0.1),
                              0.5),
    # distances to the exact solution cloud; both hold at l = 1
    "difference": lambda tmp: (*_example_case(tmp, EXAMPLE_DIFFERENCE), 1.0),
    "difference-violated": lambda tmp: (
        *_example_case(tmp, EXAMPLE_DIFFERENCE), 0.9),
    # a polyhedral union: residuals and distances by projection
    "kinked": lambda tmp: (kinked_map_1d, query_1d(1.0, eta=0.7),
                           grids_1d(21, 5), 0.2),
    # the pair (p, p') ties with (-p, -p') in every margin
    "tie": lambda tmp: (abs_shift_map, query_1d(1.0, eta=0.7),
                        grids_1d(21, 5), 0.5),
    # every solution point lies outside the delta-ball around xbar = 5
    "empty": lambda tmp: (lambda: affine_map_1d(-1.0, 1.0),
                          dataclasses.replace(query_1d(1.0, eta=0.7),
                                              xbar=(5.0,)),
                          grids_1d(21, 5), 1.0),
}
PAIR_BLOCK_CASES = [(case, "default") for case in sorted(PAIR_CASES)] + \
    [("quadratic", "small"), ("difference-violated", "small")]


@pytest.mark.parametrize("case, blocks", PAIR_BLOCK_CASES)
def test_stacked_pair_scans_equal_the_per_pair_scans(case, blocks, tmp_path,
                                                     monkeypatch):
    if blocks == "small":
        small_blocks(monkeypatch)
    build, q, grids, l = PAIR_CASES[case](tmp_path)
    recede, aubin = _parent_pair_scans(build(), q, l, grids)
    aq = AubinQuery(pbar=q.pbar, xbar=q.xbar, ybar=q.ybar, l=l, eta=q.eta,
                    delta=q.delta, mu=q.mu)
    assert_same_certificate(check_recede(build(), q, l, grids), recede)
    assert_same_certificate(check_aubin(build(), aq, grids), aubin)
    if case in ("quadratic", "difference-violated", "kinked", "tie"):
        assert Verdict.VIOLATED in (recede.verdict, aubin.verdict)
    if case == "tie":
        # the first of the tied pairs in scan order
        p, pp = aubin.witness["p"]
        assert p[0] < 0
    if case == "empty":
        assert recede.detail == aubin.detail == "no admissible scan points"
