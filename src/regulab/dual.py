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

Each checker first collects the (point, dual vector) pairs of every
``ScanBatch`` of its scan (one batch per parameter), with the normal cones
of the points, built without testing their graph membership again.  It then
asks the map for the answers (``SetValuedMap.cone_answers``), which keeps
them per cone object: each distinct problem is solved once per map, across
all checks, and the problems a check has not met before are solved in one
stacked call per cone.  The subdifferential and normal-cone checks and the
slope checks' first-order directions pose the same support problem
``d_gamma((0, -y*), N)`` and share its answers.  Last each checker reduces
each batch's margins in one ``MarginScan.add``, batch by batch in scan
order, so the witness is the first point attaining the minimum.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError
from .mappings import RegularityQuery, ScanGrids, SetValuedMap, check_mode, \
    condition_scan
from .oracle import Certificate, MarginScan, _base_meta
from .sets import cone_min_norm, gamma_dual_distance, _unit_directions
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


def dual_candidates(y, ybar, kind: str, tau: float):
    """Unit dual vectors aligned with y - ybar.

    ``exact`` yields the single normalized difference (the Euclidean norm has
    a singleton subdifferential off the origin); ``cap`` yields those of 64
    deterministic unit samples with pairing above tau*|y - ybar|.
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
        cands = _unit_directions(y.shape[0], 64)
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


def _dual_pairs(F: SetValuedMap, batches, q: RegularityQuery, kind: str):
    """The (point, dual vector) pairs of a check's ``ScanBatch``es, point by
    point in ``dual_candidates`` order, as ``(pairs, cones, Y)``: ``pairs``
    holds ``(b, at, ystars)`` per batch, its pair k the point ``at[k]`` of
    ``b`` with the dual vector ``ystars[k]``, and ``cones`` and the rows of
    ``Y`` the normal cone and dual vector of every pair of every batch, in
    that order."""
    pairs, cones = [], []
    for b in batches:
        at, ystars = [], []
        for i, (y, cone) in enumerate(zip(b.ys, F.scan_cones(b.p, b.xs, b.ys))):
            for ystar in dual_candidates(y, q.ybar_arr, kind, q.tau):
                at.append(i)
                ystars.append(ystar)
                cones.append(cone)
        pairs.append((b, at, np.array(ystars).reshape(-1, F.ny)))
    return pairs, cones, np.array([y for _, _, ys in pairs for y in ys]
                                  ).reshape(-1, F.ny)


def _by_batch(pairs, answers) -> list:
    """The answers to all pairs, in pair order, as one array per batch."""
    return np.split(np.array(answers, dtype=float),
                    np.cumsum([len(ys) for _, _, ys in pairs])[:-1])


def _distances(F: SetValuedMap, gamma: float, pairs, cones, Y) -> list:
    """``d_gamma((0, -y*), N)`` of every pair, one array per batch, from
    ``F.cone_answers``, which keeps them with their maximizing directions
    for the slope checks' first-order directions."""
    g = GammaMetric(gamma)
    found = F.cone_answers(
        ("support", gamma), cones, np.hstack([np.zeros((len(Y), F.nx)), -Y]),
        lambda cone, Q: zip(*gamma_dual_distance(Q, cone, g, F.nx,
                                                 with_direction=True)))
    return _by_batch(pairs, [d for d, _ in found])


def check_variant(variant: str):
    """``InputError`` unless ``variant`` names a dual-vector variant."""
    if variant not in ("convex-normal", "frechet-cap"):
        raise InputError(f"unknown variant {variant!r}")


def subdifferential_preconditions(F: SetValuedMap, mode: str):
    """``InputError`` unless the subdifferential condition applies."""
    check_mode(mode)
    if not F.convex_graph:
        raise InputError("subdifferential condition requires a convex graph")


def check_subdifferential_condition(F: SetValuedMap, q: RegularityQuery,
                                    grids: ScanGrids, mode: str = "sufficient",
                                    tol: float = 1e-9) -> Certificate:
    """Scan ``d_gamma(0, merit subdifferential) >= alpha`` (convex graphs);
    necessary mode runs at gamma = 1/alpha over the delta-ball."""
    subdifferential_preconditions(F, mode)
    q, x_radius, batches = condition_scan(F, q, grids, mode)
    scan = MarginScan(tol)
    # scan points have y != ybar, so the point part is (0, y*) with y* the
    # one exact dual vector: the subdifferential at a point is (0, y*) + N,
    # and its distance to 0 is the normal-cone condition's d((0, -y*), N)
    pairs, cones, Y = _dual_pairs(F, batches, q, "exact")
    dists = _distances(F, q.gamma, pairs, cones, Y)
    for (b, _, _), vals in zip(pairs, dists):
        scan.add(vals - q.alpha, lambda i: {
            "p": b.p, "x": b.xs[i], "y": b.ys[i], "value": float(vals[i]),
            "inequality": "d_gamma(0, subdifferential) >= alpha"})
    meta = dict(_base_meta(q, grids), mode=mode, x_radius=x_radius)
    return scan.certificate(meta)


def normal_cone_preconditions(F: SetValuedMap, variant: str, mode: str):
    """``InputError`` unless the normal-cone condition applies."""
    check_mode(mode)
    check_variant(variant)
    if variant == "convex-normal" and not F.convex_graph:
        raise InputError("convex-normal variant requires a convex graph")
    if mode == "necessary" and not F.convex_graph:
        raise InputError("necessity of the normal-cone condition needs convexity")


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
    normal_cone_preconditions(F, variant, mode)
    kind = "exact" if variant == "convex-normal" else "cap"
    q, x_radius, batches = condition_scan(F, q, grids, mode)
    scan = MarginScan(tol)
    pairs, cones, Y = _dual_pairs(F, batches, q, kind)
    dists = _distances(F, q.gamma, pairs, cones, Y)
    for (b, at, ystars), vals in zip(pairs, dists):
        scan.add(vals - q.alpha, lambda i: {
            "p": b.p, "x": b.xs[at[i]], "y": b.ys[at[i]],
            "value": float(vals[i]), "ystar": ystars[i],
            "inequality": "d_gamma((0,-y*), N) >= alpha"})
    meta = dict(_base_meta(q, grids), mode=mode, variant=variant,
                x_radius=x_radius)
    return scan.certificate(meta)


def coderivative_threshold(F: SetValuedMap, q: RegularityQuery, form: str,
                           variant: str, mode: str) -> float:
    """The bound on min |x*| that the coderivative condition scans for;
    ``InputError`` unless the condition applies."""
    check_mode(mode)
    if form not in ("ball", "normalized"):
        raise InputError(f"unknown form {form!r}")
    if not math.isfinite(q.eta) or not q.eta > 0:
        raise InputError("coderivative condition needs a finite positive eta")
    if form == "normalized" and not q.eta < 1:
        raise InputError("normalized form needs eta in ]0,1[")
    check_variant(variant)
    if mode == "necessary":
        if not F.convex_graph:
            raise InputError("necessity of the coderivative bound needs convexity")
        if not q.eta < 1:
            raise InputError("necessary form needs eta in ]0,1[")
        return q.alpha * (1.0 - q.eta)
    return q.alpha if form == "ball" else q.alpha / (1.0 - q.eta)


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
    threshold = coderivative_threshold(F, q, form, variant, mode)
    kind = "exact" if variant == "convex-normal" else "cap"
    q, x_radius, batches = condition_scan(F, q, grids, mode)
    scan = MarginScan(tol)
    pairs, cones, Y = _dual_pairs(F, batches, q, kind)
    norms = _by_batch(pairs, F.cone_answers(
        ("min norm", q.eta), cones, -Y,
        lambda cone, V: cone_min_norm(cone, F.nx, V, q.eta)))
    for (b, at, ystars), vals in zip(pairs, norms):
        # a vacuous pair has margin +inf: never the scan minimum
        scan.add(vals - threshold, lambda i: {
            "p": b.p, "x": b.xs[at[i]], "y": b.ys[at[i]],
            "value": float(vals[i]), "ystar": ystars[i],
            "inequality": f"min |x*| >= {threshold:.6g}"})
    vacuous = sum(int(np.sum(np.isinf(v))) for v in norms)
    meta = dict(_base_meta(q, grids), mode=mode, form=form, variant=variant,
                x_radius=x_radius, threshold=threshold, vacuous=vacuous)
    return scan.certificate(meta)
