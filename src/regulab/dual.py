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

Each checker makes one stacked pass over the rows of all the
``ScanBatch``es of its scan (one batch per parameter).  It builds the dual
vectors of all points in arrays (``_dual_vectors``), and the normal cones
per parameter (``scan_cones``), without testing graph membership again.  It
then asks the map for the answers of all (point, dual vector) pairs in one
``SetValuedMap.cone_answers`` call, which keeps them per cone object: each
distinct problem is solved once per map, across all checks, and the
problems a check has not met before are solved in one stacked call per
cone.  The subdifferential and normal-cone checks and the slope checks'
first-order directions pose the same support problem ``d_gamma((0, -y*),
N)`` and share its answers.  Last each checker reduces the margins of all
pairs in one ``MarginScan.add``, in scan order, so the witness is the first
point attaining the minimum, as in a scan batch by batch.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InputError
from .mappings import RegularityQuery, ScanGrids, SetValuedMap, check_mode, \
    condition_scan, stack_batches
from .oracle import CHECK_TOL, Certificate, MarginScan, _base_meta
from .sets import cone_min_norm, gamma_dual_distance, _unit_directions
from .spaces import GammaMetric, as_point, row_dots


def subdiff_distance(F: SetValuedMap, q: RegularityQuery, p, x, y) -> float:
    """d_gamma(0, merit subdifferential) at a graph point with y != ybar.

    Convex graphs only (the exact sum rule needs convexity): the
    subdifferential is ``(0, y*) + N`` with y* the unit vector along
    y - ybar and N the graph normal cone at (x, y).
    """
    if not F.convex_graph:
        raise InputError("exact merit subdifferential requires a convex graph")
    x, y = as_point(x), as_point(y)
    w = y - q.ybar_arr
    nw = np.linalg.norm(w)
    if nw == 0:
        raise InputError("distance query needs y != ybar")
    point_part = np.concatenate([np.zeros(F.nx), w / nw])
    return gamma_dual_distance(-point_part, F.normal_cone(p, x, y),
                               GammaMetric(q.gamma), F.nx)


def dual_candidates(y, ybar, kind: str, tau: float):
    """Unit dual vectors aligned with y - ybar.

    ``exact`` yields the single normalized difference (the Euclidean norm has
    a singleton subdifferential off the origin); ``cap`` yields those of 64
    deterministic unit samples with pairing above tau*|y - ybar|, or the
    normalized difference when none has.
    """
    return list(_dual_vectors((as_point(y) - as_point(ybar))[None, :],
                              kind, tau)[1])


def _dual_vectors(W: np.ndarray, kind: str, tau: float):
    """The ``dual_candidates`` of every row w = y - ybar of ``W``, as
    ``(owner, Y)``: row j of Y is a dual vector of the row ``owner[j]``,
    the rows of each in ``dual_candidates`` order."""
    nw = np.sqrt(row_dots(W))  # np.linalg.norm(w) of each row
    if np.any(nw == 0):
        raise InputError("dual candidates need y != ybar")
    unit = W / nw[:, None]
    if kind == "exact":
        return np.arange(len(W)), unit
    if kind != "cap":
        raise InputError(f"unknown candidate kind {kind!r}")
    if not 0 < tau < 1:
        raise InputError(f"tau must lie strictly between 0 and 1, got {tau}")
    C = _unit_directions(W.shape[1], 64)
    # c @ w for every sample c and row w, each rounded as the 1-D product
    inside = (C[None, :, None, :] @ W[:, None, :, None])[..., 0, 0] > \
        tau * nw[:, None]
    rows, cols = np.nonzero(inside)
    bare = np.flatnonzero(~inside.any(axis=1))
    owner = np.concatenate([rows, bare])
    order = np.argsort(owner, kind="stable")
    return owner[order], np.vstack([C[cols], unit[bare]])[order]


class _Pairs(NamedTuple):
    """The (point, dual vector) pairs of a check's scan and their answers:
    pair j is the dual vector ``Y[j]`` at the row ``at[j]`` of the stacked
    rows ``(xs, ys)``, which is a point of ``batches[k[at[j]]]``."""

    batches: list
    k: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    at: np.ndarray
    Y: np.ndarray
    vals: np.ndarray

    def witness(self, j: int, **more) -> dict:
        i = self.at[j]
        return {"p": self.batches[self.k[i]].p, "x": self.xs[i],
                "y": self.ys[i], "value": float(self.vals[j]), **more}


def _dual_pairs(F: SetValuedMap, q: RegularityQuery, batches, kind: str,
                solve) -> _Pairs:
    """The (point, dual vector) pairs of the rows of all ``batches`` in scan
    order, each point's in ``dual_candidates`` order, with the answers
    ``solve(cones, Y)`` gives for their normal cones and dual vectors in one
    call.  The cones are built per parameter (``scan_cones``), without
    testing graph membership again."""
    k, xs, ys = stack_batches(F, batches)
    at, Y = _dual_vectors(ys - q.ybar_arr, kind, q.tau)
    cones = [cone for b in batches for cone in F.scan_cones(b.p, b.xs, b.ys)]
    vals = np.array(solve([cones[i] for i in at], Y), dtype=float)
    return _Pairs(batches, k, xs, ys, at, Y, vals)


def _distances(F: SetValuedMap, gamma: float):
    """``solve`` for ``_dual_pairs``: ``d_gamma((0, -y*), N)`` of every pair
    from ``F.cone_answers``, which keeps them with their maximizing
    directions for the slope checks' first-order directions."""
    g = GammaMetric(gamma)

    def solve(cones, Y):
        found = F.cone_answers(
            ("support", gamma), cones,
            np.hstack([np.zeros((len(Y), F.nx)), -Y]),
            lambda cone, Q: zip(*gamma_dual_distance(Q, cone, g, F.nx,
                                                     with_direction=True)))
        return [d for d, _ in found]

    return solve


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
                                    grids: ScanGrids,
                                    mode: str = "sufficient") -> Certificate:
    """Scan ``d_gamma(0, merit subdifferential) >= alpha`` (convex graphs);
    necessary mode runs at gamma = 1/alpha over the delta-ball."""
    subdifferential_preconditions(F, mode)
    q, x_radius, batches = condition_scan(F, q, grids, mode)
    scan = MarginScan(CHECK_TOL)
    # scan points have y != ybar, so the point part is (0, y*) with y* the
    # one exact dual vector: the subdifferential at a point is (0, y*) + N,
    # and its distance to 0 is the normal-cone condition's d((0, -y*), N)
    pairs = _dual_pairs(F, q, batches, "exact", _distances(F, q.gamma))
    scan.add(pairs.vals - q.alpha, lambda j: pairs.witness(
        j, inequality="d_gamma(0, subdifferential) >= alpha"))
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
                                mode: str = "sufficient") -> Certificate:
    """Scan ``d_gamma((0, -y*), N_graph(x, y)) >= alpha``.

    ``convex-normal`` uses the exact aligned dual vector and requires convex
    graphs; ``frechet-cap`` samples the tau-cap of dual vectors and applies to
    polyhedral unions.  Necessary mode (convex) runs at gamma = 1/alpha.
    """
    normal_cone_preconditions(F, variant, mode)
    kind = "exact" if variant == "convex-normal" else "cap"
    q, x_radius, batches = condition_scan(F, q, grids, mode)
    scan = MarginScan(CHECK_TOL)
    pairs = _dual_pairs(F, q, batches, kind, _distances(F, q.gamma))
    scan.add(pairs.vals - q.alpha, lambda j: pairs.witness(
        j, ystar=pairs.Y[j], inequality="d_gamma((0,-y*), N) >= alpha"))
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
                                 mode: str = "sufficient") -> Certificate:
    """Scan the coderivative lower bound over dual-ball perturbations.

    ``ball`` form requires min |x*| >= alpha over v* in B_eta(y*);
    ``normalized`` form (eta in ]0,1[) requires >= alpha/(1-eta); necessary
    mode (convex graphs) requires >= alpha(1-eta).  Vacuous points (empty
    coderivative over the ball) count toward ``scan_meta["vacuous"]``.
    """
    threshold = coderivative_threshold(F, q, form, variant, mode)
    kind = "exact" if variant == "convex-normal" else "cap"
    q, x_radius, batches = condition_scan(F, q, grids, mode)
    scan = MarginScan(CHECK_TOL)
    pairs = _dual_pairs(F, q, batches, kind, lambda cones, Y: F.cone_answers(
        ("min norm", q.eta), cones, -Y,
        lambda cone, V: cone_min_norm(cone, F.nx, V, q.eta)))
    # a vacuous pair has margin +inf: never the scan minimum
    scan.add(pairs.vals - threshold, lambda j: pairs.witness(
        j, ystar=pairs.Y[j], inequality=f"min |x*| >= {threshold:.6g}"))
    vacuous = int(np.sum(np.isinf(pairs.vals)))
    meta = dict(_base_meta(q, grids), mode=mode, form=form, variant=variant,
                x_radius=x_radius, threshold=threshold, vacuous=vacuous)
    return scan.certificate(meta)
