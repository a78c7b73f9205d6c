"""Dual-space conditions for subregularity.

All conditions test, at admissible graph points (x, y) of F_p, distances
built from the normal cone N to the graph at (x, y):

* subdifferential condition (convex graphs): the subdifferential of the merit
  function is ``({0} x S) + N`` with S the subdifferential of the norm at
  y - ybar, and its weighted-dual-norm distance to the origin must be >= alpha;
* normal-cone condition: ``d_gamma((0, -y*), N) >= alpha`` for unit dual
  vectors y* aligned with y - ybar (exactly, or within a spherical cap);
* coderivative condition: the x-parts of cone elements whose y-part lies in a
  ball around -y* must have norm >= alpha (ball form), alpha/(1-eta)
  (normalized sufficient form) or alpha(1-eta) (necessary form).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError
from .mappings import RegularityQuery, ScanGrids, SetValuedMap, condition_scan
from .oracle import Certificate, MarginScan, _base_meta
from .sets import ConeRep, cone_min_norm, gamma_dual_distance, _unit_directions
from .spaces import GammaMetric, as_point


def merit_subdifferential(F: SetValuedMap, q: RegularityQuery, p, x, y):
    """Minkowski-sum form of the merit subdifferential at a graph point.

    Returns ``(point_part, cone)``: the subdifferential is point_part + cone.
    ``point_part`` is (0, y*) with y* the unit vector along y - ybar, or the
    string marker ``"unit-ball"`` scaled variant at y = ybar.  Convex graphs
    only (the exact sum rule needs convexity).
    """
    if not F.convex_graph:
        raise InputError("exact merit subdifferential requires a convex graph")
    x, y = as_point(x), as_point(y)
    w = y - q.ybar_arr
    nw = np.linalg.norm(w)
    cone = F.normal_cone(p, x, y)
    if nw == 0:
        return "unit-ball", cone
    point_part = np.concatenate([np.zeros(F.nx), w / nw])
    return point_part, cone


def subdiff_distance(F: SetValuedMap, q: RegularityQuery, p, x, y) -> float:
    """d_gamma(0, merit subdifferential) at a graph point with y != ybar."""
    point_part, cone = merit_subdifferential(F, q, p, x, y)
    if isinstance(point_part, str):
        raise InputError("distance query needs y != ybar")
    g = GammaMetric(q.gamma)
    return gamma_dual_distance(-point_part, cone, g, F.nx)


def dual_candidates(y, ybar, kind: str, tau: float, n_cap: int = 64):
    """Unit dual vectors aligned with y - ybar.

    ``exact`` yields the single normalized difference (the Euclidean norm has
    a singleton subdifferential off the origin); ``cap`` yields deterministic
    unit samples with pairing above tau*|y - ybar|.
    """
    y, ybar = as_point(y), as_point(ybar)
    w = y - ybar
    nw = np.linalg.norm(w)
    if nw == 0:
        raise InputError("dual candidates need y != ybar")
    if kind == "exact":
        return [w / nw]
    if kind == "cap":
        if not 0 < tau < 1:
            raise InputError(f"tau must lie strictly between 0 and 1, got {tau}")
        cands = _unit_directions(y.shape[0], n_cap)
        keep = [c for c in cands if c @ w > tau * nw]
        if not keep:
            keep = [w / nw]
        return keep
    raise InputError(f"unknown candidate kind {kind!r}")


def coderivative_distance(F: SetValuedMap, p, x, y, ystar, eta: float) -> float:
    """min |x*| with (x*, -v*) in the graph normal cone and |v* - y*| <= eta.

    Returns +inf when no cone element has y-part within the ball (the
    associated condition is then vacuous at this point).
    """
    if not eta > 0:
        raise InputError(f"eta must be positive, got {eta}")
    ystar = as_point(ystar)
    cone = F.normal_cone(p, x, y)
    return cone_min_norm(cone, F.nx, -ystar, eta)


def check_subdifferential_condition(F: SetValuedMap, q: RegularityQuery,
                                    grids: ScanGrids, mode: str = "sufficient",
                                    tol: float = 1e-9,
                                    small_ystar_eps: float = 1e-2) -> Certificate:
    """Scan ``d_gamma(0, merit subdifferential) >= alpha`` (convex graphs).

    Necessary mode runs at gamma = 1/alpha over the delta-ball.  Points where
    some subgradient has y-part of norm below ``small_ystar_eps`` but x-part
    of norm below alpha are counted in ``scan_meta["small_ystar_flags"]`` (the
    x-part should be >= alpha whenever the y-part vanishes).
    """
    if not F.convex_graph:
        raise InputError("subdifferential condition requires a convex graph")
    q, x_radius, points = condition_scan(F, q, grids, mode)
    scan = MarginScan(tol)
    g = GammaMetric(q.gamma)
    flags = 0
    for sp in points:
        # scan points have y != ybar, so the point part is (0, y*)
        pp, cone = merit_subdifferential(F, q, sp.p, sp.x, sp.y)
        val = gamma_dual_distance(-pp, cone, g, F.nx)
        scan.add(val - q.alpha, lambda _: {
            "p": sp.p, "x": sp.x, "y": sp.y, "value": val,
            "inequality": "d_gamma(0, subdifferential) >= alpha"})
        xnorm = cone_min_norm(cone, F.nx, -as_point(pp[F.nx:]), small_ystar_eps)
        if math.isfinite(xnorm) and xnorm < q.alpha - tol:
            flags += 1
    meta = dict(_base_meta(q, grids), mode=mode, x_radius=x_radius,
                small_ystar_flags=flags)
    return scan.certificate(meta)


def check_normal_cone_condition(F: SetValuedMap, q: RegularityQuery,
                                grids: ScanGrids,
                                variant: str = "convex-normal",
                                mode: str = "sufficient",
                                tol: float = 1e-9) -> Certificate:
    """Scan ``d_gamma((0, -y*), N_graph(x, y)) >= alpha``.

    ``convex-normal`` uses the exact aligned dual vector and requires convex
    graphs; ``frechet-cap`` samples the tau-cap of dual vectors and applies to
    polyhedral unions.  Necessary mode (convex) runs at gamma = 1/alpha.
    """
    if variant not in ("convex-normal", "frechet-cap"):
        raise InputError(f"unknown variant {variant!r}")
    if variant == "convex-normal" and not F.convex_graph:
        raise InputError("convex-normal variant requires a convex graph")
    if mode == "necessary" and not F.convex_graph:
        raise InputError("necessity of the normal-cone condition needs convexity")
    kind = "exact" if variant == "convex-normal" else "cap"
    q, x_radius, points = condition_scan(F, q, grids, mode)
    g = GammaMetric(q.gamma)
    scan = MarginScan(tol)
    for sp in points:
        cone = F.normal_cone(sp.p, sp.x, sp.y)
        for ystar in dual_candidates(sp.y, q.ybar_arr, kind, q.tau):
            qvec = np.concatenate([np.zeros(F.nx), -ystar])
            val = gamma_dual_distance(qvec, cone, g, F.nx)
            scan.add(val - q.alpha, lambda _: {
                "p": sp.p, "x": sp.x, "y": sp.y, "value": val, "ystar": ystar,
                "inequality": "d_gamma((0,-y*), N) >= alpha"})
    meta = dict(_base_meta(q, grids), mode=mode, variant=variant,
                x_radius=x_radius)
    return scan.certificate(meta)


def check_coderivative_condition(F: SetValuedMap, q: RegularityQuery,
                                 grids: ScanGrids, form: str = "ball",
                                 variant: str = "convex-normal",
                                 mode: str = "sufficient",
                                 tol: float = 1e-9) -> Certificate:
    """Scan the coderivative lower bound over dual-ball perturbations.

    ``ball`` form requires min |x*| >= alpha over v* in B_eta(y*);
    ``normalized`` form (eta in ]0,1[) requires >= alpha/(1-eta); necessary
    mode (convex graphs) requires >= alpha(1-eta).  Vacuous points (empty
    coderivative over the ball) count toward ``scan_meta["vacuous"]``.
    """
    if form not in ("ball", "normalized"):
        raise InputError(f"unknown form {form!r}")
    if not math.isfinite(q.eta) or not q.eta > 0:
        raise InputError("coderivative condition needs a finite positive eta")
    if form == "normalized" and not q.eta < 1:
        raise InputError("normalized form needs eta in ]0,1[")
    if mode == "necessary":
        if not F.convex_graph:
            raise InputError("necessity of the coderivative bound needs convexity")
        if not q.eta < 1:
            raise InputError("necessary form needs eta in ]0,1[")
        threshold = q.alpha * (1.0 - q.eta)
    elif form == "ball":
        threshold = q.alpha
    else:
        threshold = q.alpha / (1.0 - q.eta)
    if variant not in ("convex-normal", "frechet-cap"):
        raise InputError(f"unknown variant {variant!r}")
    kind = "exact" if variant == "convex-normal" else "cap"
    q, x_radius, points = condition_scan(F, q, grids, mode)
    scan = MarginScan(tol)
    vacuous = 0
    for sp in points:
        cone = F.normal_cone(sp.p, sp.x, sp.y)
        for ystar in dual_candidates(sp.y, q.ybar_arr, kind, q.tau):
            val = cone_min_norm(cone, F.nx, -ystar, q.eta)
            if math.isinf(val):
                vacuous += 1  # margin +inf: never the scan minimum
            scan.add(val - threshold, lambda _: {
                "p": sp.p, "x": sp.x, "y": sp.y, "value": val, "ystar": ystar,
                "inequality": f"min |x*| >= {threshold:.6g}"})
    meta = dict(_base_meta(q, grids), mode=mode, form=form, variant=variant,
                x_radius=x_radius, threshold=threshold, vacuous=vacuous)
    return scan.certificate(meta)
