"""Stability of the solution map G(p) = {x : ybar in F(p, x)}.

Three linked properties are scanned here: the recede property (residuals grow
at most linearly in parameter shifts), the Aubin property of G (solution sets
move at most linearly in parameter shifts), and their composition: uniform
subregularity at rate alpha together with the recede property at rate l
yields the Aubin property at rate l/alpha on suitably shrunk neighborhoods.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .mappings import RegularityQuery, ScanGrids, SetValuedMap
from .oracle import Certificate, MarginScan, Verdict
from .sets import region_sample_points
from .spaces import as_point, ball_mask, make_grid


@dataclass(frozen=True)
class AubinQuery:
    """Parameters of an Aubin-property question: reference point, rate ``l``,
    parameter ball radius ``eta``, solution ball radius ``delta``, and the
    parameter-shift cap ``mu``."""

    pbar: tuple
    xbar: tuple
    ybar: tuple
    l: float
    eta: float
    delta: float
    mu: float

    def __post_init__(self):
        if not self.l > 0:
            raise InputError(f"rate l must be positive, got {self.l}")
        for name in ("eta", "delta", "mu"):
            if not getattr(self, name) > 0:
                raise InputError(f"{name} must be positive or unbounded")


def _param_pairs(F: SetValuedMap, pbar, eta, mu, grids: ScanGrids):
    """Ordered pairs (p, p') of grid parameters in B_eta(pbar), 0 < d < mu."""
    if F.param_labels is not None:
        raise InputError("recede/Aubin scans need a metric parameter space")
    if grids.p is None:
        raise InputError("scan requires a parameter grid")
    pts = make_grid(grids.p)
    pts = pts[ball_mask(pts, as_point(pbar), eta)]
    for p in pts:
        d = np.linalg.norm(pts - p[None, :], axis=1)
        sel = (d > 0) & (d < mu)
        for pp, dd in zip(pts[sel], d[sel]):
            yield p, pp, float(dd)


def _solution_points(F, p, ybar, xbar, delta, grids):
    region = F.solution_set(p, ybar, grids)
    pts = region_sample_points(region, grids.x)
    if pts.shape[0] == 0:
        return pts
    return pts[ball_mask(pts, as_point(xbar), delta)]


def check_recede(F: SetValuedMap, q: RegularityQuery, l: float,
                 grids: ScanGrids, tol: float = 1e-9) -> Certificate:
    """Scan ``d(ybar, F(p, x)) <= l d(p, p')`` for x solving the p'-problem.

    Pairs p, p' range over grid points of B_eta(pbar) with 0 < d(p,p') < mu;
    x ranges over G(p') within the delta-ball around xbar.
    """
    if not l > 0:
        raise InputError(f"rate l must be positive, got {l}")
    ybar = q.ybar_arr
    scan = MarginScan(tol)
    for p, pp, dpp in _param_pairs(F, q.pbar_arr, q.eta, q.mu, grids):
        xs = _solution_points(F, pp, ybar, q.xbar_arr, q.delta, grids)
        if xs.shape[0] == 0:
            continue
        res = F.residual_vec(p, xs, ybar)
        scan.add(l * dpp - res, lambda i: {
            "p": (p.copy(), pp.copy()), "x": xs[i].copy(), "y": None,
            "value": float(res[i]),
            "inequality": "d(ybar, F(p,x)) <= l*d(p,p')"})
    meta = {"l": l, "eta": q.eta, "delta": q.delta, "mu": q.mu,
            "grid_res": grids.x.resolution}
    return scan.certificate(meta)


def check_aubin(F: SetValuedMap, aq: AubinQuery, grids: ScanGrids,
                tol: float = 1e-9) -> Certificate:
    """Scan ``d(x, G(p)) <= l d(p, p')`` for x in G(p') near xbar."""
    ybar = as_point(aq.ybar)
    scan = MarginScan(tol)
    for p, pp, dpp in _param_pairs(F, aq.pbar, aq.eta, aq.mu, grids):
        xs = _solution_points(F, pp, ybar, aq.xbar, aq.delta, grids)
        if xs.shape[0] == 0:
            continue
        dist = F.solution_distance_vec(p, xs, ybar, grids)
        scan.add(aq.l * dpp - dist, lambda i: {
            "p": (p.copy(), pp.copy()), "x": xs[i].copy(), "y": None,
            "value": float(dist[i]),
            "inequality": "d(x, G(p)) <= l*d(p,p')"})
    meta = {"l": aq.l, "eta": aq.eta, "delta": aq.delta, "mu": aq.mu,
            "grid_res": grids.x.resolution}
    return scan.certificate(meta)


def compose_aubin_rate(F: SetValuedMap, q: RegularityQuery,
                       subreg: Certificate, l: float, recede: Certificate,
                       mu_prime: float, grids: ScanGrids) -> Certificate:
    """Derive and validate the Aubin rate l/alpha from certified premises.

    Requires both premise certificates to HOLD and the shift cap to satisfy
    ``mu_prime = alpha * mu / l`` exactly (relative tolerance 1e-9); the
    derived claim (rate l/alpha, radii eta, delta, mu_prime) is then validated
    by a direct scan, which must succeed.
    """
    if not (subreg.holds and recede.holds):
        raise InputError("composition needs both premise certificates to HOLD")
    expected = q.alpha * q.mu / l
    if not math.isclose(mu_prime, expected, rel_tol=1e-9):
        raise InputError(
            f"composition requires mu_prime = alpha*mu/l = {expected}, "
            f"got {mu_prime}"
        )
    if q.pbar is None:
        raise InputError("composition needs a reference parameter pbar")
    aq = AubinQuery(pbar=q.pbar, xbar=q.xbar, ybar=q.ybar, l=l / q.alpha,
                    eta=q.eta, delta=q.delta, mu=mu_prime)
    cert = check_aubin(F, aq, grids)
    cert.scan_meta = dict(cert.scan_meta, derived_rate=l / q.alpha,
                          mu_prime=mu_prime, premise_alpha=q.alpha,
                          premise_l=l)
    return cert


_CONDITIONS = ("slope", "normal-cone-convex", "normal-cone-frechet",
               "coderiv-clarke", "coderiv-frechet")


def certify_aubin(F: SetValuedMap, q: RegularityQuery, l_prime: float,
                  l: float, condition: str, grids: ScanGrids) -> Certificate:
    """Two-stage Aubin certification: recede scan plus a sufficient condition.

    Checks the recede property at rate ``l_prime``, then the selected
    sufficient subregularity condition at threshold ``l_prime / l`` over the
    enlarged region (parameters in the eta-ball, x in the (delta+mu)-ball).
    Success of both stages certifies the Aubin property at rate ``l``; the
    certificate reports the original mu and the shrunk shift cap.
    """
    from .dual import check_coderivative_condition, check_normal_cone_condition
    from .slope import check_nonlocal_slope_condition

    if condition not in _CONDITIONS:
        raise InputError(
            f"unknown condition {condition!r}; expected one of {_CONDITIONS}"
        )
    if not l_prime > 0 or not l > 0:
        raise InputError("rates l_prime and l must be positive")
    recede = check_recede(F, q, l_prime, grids)
    alpha = l_prime / l
    qa = dataclasses.replace(q, alpha=alpha)
    if condition == "slope":
        cond = check_nonlocal_slope_condition(F, qa, grids, mode="sufficient")
    elif condition == "normal-cone-convex":
        cond = check_normal_cone_condition(F, qa, grids, variant="convex-normal")
    elif condition == "normal-cone-frechet":
        cond = check_normal_cone_condition(F, qa, grids, variant="frechet-cap")
    elif condition == "coderiv-clarke":
        cond = check_coderivative_condition(F, qa, grids, variant="convex-normal")
    else:
        cond = check_coderivative_condition(F, qa, grids, variant="frechet-cap")

    meta = {"condition": condition, "l": l, "l_prime": l_prime,
            "threshold": alpha, "mu": q.mu,
            "mu_prime": alpha * q.mu / l_prime,
            "recede": recede.verdict.value, "condition_verdict": cond.verdict.value}
    if recede.holds and cond.holds:
        margin = min(recede.margin, cond.margin)
        return Certificate(Verdict.HOLDS, margin, None, meta,
                           f"Aubin property certified at rate {l}")
    bad = recede if not recede.holds else cond
    return Certificate(bad.verdict, bad.margin, bad.witness, meta,
                       "premise failed: " +
                       ("recede" if not recede.holds else condition))
