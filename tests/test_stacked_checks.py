"""The condition checks scan the rows of all parameters in one stacked pass;
their certificates are, bit for bit, those of a scan parameter by parameter
with one-batch calls on a map with its own memo."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from regulab import (
    check_coderivative_condition,
    check_local_slope_condition,
    check_nonlocal_slope_condition,
    check_normal_cone_condition,
    check_subdifferential_condition,
    cone_min_norm,
    hat_reduction,
    local_slope,
    nonlocal_slope,
)
from regulab.cli import _RULES
from regulab.dual import _distances, _dual_pairs
from regulab.mappings import RegularityQuery, ScanGrids, condition_scan_points
from regulab.oracle import CHECK_TOL, MarginScan
from regulab.slope import SLOPE_TOL
from regulab.spaces import GridSpec, NormedSpace
from conftest import affine_map_1d, affine_map_2d, grids_1d, kinked_map_1d

X2, P1 = NormedSpace("X", 2), NormedSpace("P", 1)
GRIDS_2D = ScanGrids(x=GridSpec((-1.0, -1.0), (1.0, 1.0), 9),
                     p=GridSpec((-0.3,), (0.3,), 3))


def _case(kind, c):
    """A map of ``kind`` with several parameters, from the coefficients
    ``c`` (in [0.5, 2]), and its scan grids."""
    A = [[c[0] + 1, c[1] - 1.25], [c[2] - 1.25, c[3] + 1]]  # invertible
    if kind == "value_fn":  # one rule call per row
        return affine_map_2d(A, [c[1] - 1, 0.2]), GRIDS_2D
    if kind == "value_rule":  # one matrix product per parameter
        return _RULES["affine"](X2, X2, P1, {"a": A, "b": c[1] - 1}), GRIDS_2D
    if kind == "union":  # a nonconvex two-piece polyhedral union
        return kinked_map_1d(c[0], c[1] / 2, c[2] - 1), grids_1d(9, 3)
    # parameters (p, shift): the base map's three times two shifts
    return hat_reduction(affine_map_1d(-c[0], c[1] - 1), [(0.0,), (0.125,)]), \
        grids_1d(9, 3)


def _slope_ref(slope, inequality):
    def ref(G, q, grids, b, scan):
        vals = slope(G, q, b.p, b.xs, b.ys, grids)
        scan.add(vals - q.alpha, lambda i: {
            "p": b.p, "x": b.xs[i], "y": b.ys[i], "value": float(vals[i]),
            "inequality": inequality})
    return ref


def _dual_ref(kind, solve, threshold, inequality, ystar=True):
    def ref(G, q, grids, b, scan):
        pairs = _dual_pairs(G, q, [b], kind, solve(G, q))
        more = (lambda j: {"ystar": pairs.Y[j]}) if ystar else \
            (lambda j: {})
        scan.add(pairs.vals - threshold(q), lambda j: pairs.witness(
            j, **more(j), inequality=inequality(q)))
    return ref


def _min_norms(G, q):
    return lambda cones, Y: G.cone_answers(
        ("min norm", q.eta), cones, -Y,
        lambda cone, V: cone_min_norm(cone, G.nx, V, q.eta))


def _checks(convex):
    """``(check, tol, one-batch reference)`` of every slope and dual check
    the map admits."""
    def alpha(q):
        return q.alpha

    def cod(q):
        return f"min |x*| >= {q.alpha:.6g}"

    out = [(check_nonlocal_slope_condition, SLOPE_TOL,
            _slope_ref(nonlocal_slope, "slope >= alpha")),
           (check_local_slope_condition, SLOPE_TOL,
            _slope_ref(local_slope, "slope >= alpha"))]
    variants = ("convex-normal", "frechet-cap") if convex else ("frechet-cap",)
    if convex:
        out.append((check_subdifferential_condition, CHECK_TOL, _dual_ref(
            "exact", lambda G, q: _distances(G, q.gamma), alpha,
            lambda q: "d_gamma(0, subdifferential) >= alpha", ystar=False)))
    for variant in variants:
        kind = "exact" if variant == "convex-normal" else "cap"
        out.append((lambda F, q, grids, variant=variant:
                    check_normal_cone_condition(F, q, grids, variant=variant),
                    CHECK_TOL, _dual_ref(kind, lambda G, q: _distances(G, q.gamma),
                                    alpha,
                                    lambda q: "d_gamma((0,-y*), N) >= alpha")))
        out.append((lambda F, q, grids, variant=variant:
                    check_coderivative_condition(F, q, grids,
                                                 variant=variant),
                    CHECK_TOL, _dual_ref(kind, _min_norms, alpha, cod)))
    return out


def _assert_same(cert, ref):
    assert cert.verdict is ref.verdict
    assert repr(cert.margin) == repr(ref.margin)
    assert cert.scan_meta["points_scanned"] == ref.scan_meta["points_scanned"]
    assert cert.scan_meta.get("nan_margins") == \
        ref.scan_meta.get("nan_margins")
    if ref.witness is None:
        assert cert.witness is None
        return
    assert list(cert.witness) == list(ref.witness)
    for key, value in ref.witness.items():
        if isinstance(value, np.ndarray):
            assert cert.witness[key].tobytes() == value.tobytes()
        else:
            assert repr(cert.witness[key]) == repr(value)


@given(kind=st.sampled_from(["value_fn", "value_rule", "union", "shifted"]),
       c=st.lists(st.floats(0.5, 2.0), min_size=4, max_size=4),
       alpha=st.floats(0.5, 1.5), gamma=st.sampled_from([0.5, 1.0, 2.0]))
@settings(max_examples=12, deadline=None)
def test_stacked_checks_equal_scans_of_one_batch_calls(kind, c, alpha, gamma):
    F, grids = _case(kind, c)
    q = RegularityQuery(xbar=(0.0,) * F.nx, ybar=(0.0,) * F.ny, pbar=(0.0,),
                        alpha=alpha, delta=0.6, mu=1.0, eta=0.4, gamma=gamma)
    for check, tol, ref in _checks(F.convex_graph):
        cert = check(F, q, grids)
        G, _ = _case(kind, c)  # the reference's map has a memo of its own
        scan = MarginScan(tol)
        batches = list(condition_scan_points(G, q, grids, q.delta + q.mu))
        assert len(batches) > 1
        for b in batches:
            ref(G, q, grids, b, scan)
        _assert_same(cert, scan.certificate({}))
