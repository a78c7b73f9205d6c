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

from . import dual, slope
from .dual import coderivative_threshold, normal_cone_preconditions
from .errors import InputError
from .mappings import RegularityQuery, ScanGrids, SetValuedMap
from .oracle import _BLOCK, Certificate, MarginScan, Verdict
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
        positive_rate("l", self.l)
        for name in ("eta", "delta", "mu"):
            if not getattr(self, name) > 0:
                raise InputError(f"{name} must be positive or unbounded")


def positive_rate(name: str, value: float):
    """``InputError`` unless the rate ``value`` is positive."""
    if not value > 0:
        raise InputError(f"rate {name} must be positive, got {value}")


def param_pair_preconditions(F: SetValuedMap, grids: ScanGrids, pbar):
    """``InputError`` unless a recede or Aubin scan can draw its parameter
    pairs: a metric parameter space, a parameter grid and a reference
    parameter ``pbar`` to center the eta-ball on."""
    if F.param_labels is not None:
        raise InputError("recede/Aubin scans need a metric parameter space")
    if grids.p is None:
        raise InputError("scan requires a parameter grid")
    if pbar is None:
        raise InputError("recede/Aubin scans need a reference parameter pbar")


def _param_pairs(F: SetValuedMap, pbar, eta, mu, grids: ScanGrids):
    """Ordered pairs (p, p') of grid parameters in B_eta(pbar), 0 < d < mu."""
    param_pair_preconditions(F, grids, pbar)
    pts = make_grid(grids.p)
    pts = pts[ball_mask(pts, as_point(pbar), eta)]
    for p in pts:
        d = np.linalg.norm(pts - p[None, :], axis=1)
        sel = (d > 0) & (d < mu)
        for pp, dd in zip(pts[sel], d[sel]):
            yield p, pp, float(dd)


def _solution_points(F, p, ybar, xbar, delta, grids):
    """The sample of G(p) in the delta-ball around xbar; the sample is
    built once per parameter (every pair (p', p) and both stability checks
    share it) in the map's memo."""
    ybar = as_point(ybar)
    pts = F._memo(("solution sample", ybar.tobytes(), grids), p,
                  lambda: region_sample_points(F.solution_set(p, ybar, grids),
                                               grids.x))
    if pts.shape[0] == 0:
        return pts
    return pts[ball_mask(pts, as_point(xbar), delta)]


def _pair_scan(F: SetValuedMap, q, grids: ScanGrids, tol: float,
               pair_margins, inequality: str) -> MarginScan:
    """The margins of every parameter pair (p, p') of ``_param_pairs`` and
    point x of G(p') in the delta-ball around xbar, for the radii and
    reference points of ``q`` (a ``RegularityQuery`` or an ``AubinQuery``),
    reduced in one ``MarginScan.add`` per block of at most ``_BLOCK`` rows
    or one pair's points (one block for the whole scan, on small grids).

    ``pair_margins(p, pp, dpp, xs)`` returns the margins and the witness
    values of one pair; it is called once per pair, on that pair's points
    alone, so a rule it evaluates sees the rows a scan of that pair alone
    gives it: merged pairs could round differently.
    """
    scan = MarginScan(tol)
    pending, n = [], 0

    def flush():
        pairs, xs, margins, values = zip(*pending)
        owner = np.repeat(np.arange(len(pairs)), [len(x) for x in xs])
        xs, values = np.concatenate(xs), np.concatenate(values)
        scan.add(np.concatenate(margins), lambda i: {
            "p": tuple(v.copy() for v in pairs[owner[i]]),
            "x": xs[i].copy(), "y": None, "value": float(values[i]),
            "inequality": inequality})

    points = {}  # the points of each p', fetched once per scan
    for p, pp, dpp in _param_pairs(F, q.pbar, q.eta, q.mu, grids):
        k = pp.tobytes()
        if k not in points:
            points[k] = _solution_points(F, pp, q.ybar, q.xbar, q.delta,
                                         grids)
        xs = points[k]
        if xs.shape[0] == 0:
            continue
        margins, values = pair_margins(p, pp, dpp, xs)
        if pending and n + len(xs) > _BLOCK:
            flush()
            pending, n = [], 0
        pending.append(((p, pp), xs, margins, values))
        n += len(xs)
    if pending:
        flush()
    return scan


def check_recede(F: SetValuedMap, q: RegularityQuery, l: float,
                 grids: ScanGrids, tol: float = 1e-9) -> Certificate:
    """Scan ``d(ybar, F(p, x)) <= l d(p, p')`` for x solving the p'-problem.

    Pairs p, p' range over grid points of B_eta(pbar) with 0 < d(p,p') < mu;
    x ranges over G(p') within the delta-ball around xbar.  Each pair's
    residuals are one ``residual_vec`` call; the margins of all pairs are
    reduced together (``_pair_scan``).  ``InputError`` without ``q.pbar``.
    """
    positive_rate("l", l)
    ybar = q.ybar_arr

    def margins(p, pp, dpp, xs):
        res = F.residual_vec(p, xs, ybar)
        return l * dpp - res, res

    scan = _pair_scan(F, q, grids, tol, margins,
                      "d(ybar, F(p,x)) <= l*d(p,p')")
    meta = {"l": l, "eta": q.eta, "delta": q.delta, "mu": q.mu,
            "grid_res": grids.x.resolution}
    return scan.certificate(meta)


def check_aubin(F: SetValuedMap, aq: AubinQuery, grids: ScanGrids,
                tol: float = 1e-9) -> Certificate:
    """Scan ``d(x, G(p)) <= l d(p, p')`` for x in G(p') near xbar.

    Each pair's distances are one ``solution_distance_vec`` call; the
    margins of all pairs are reduced together (``_pair_scan``).
    ``InputError`` without ``aq.pbar``.
    """
    ybar = as_point(aq.ybar)

    def margins(p, pp, dpp, xs):
        dist = F.solution_distance_vec(p, xs, ybar, grids)
        return aq.l * dpp - dist, dist

    scan = _pair_scan(F, aq, grids, tol, margins, "d(x, G(p)) <= l*d(p,p')")
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


def _normal_cone(variant: str):
    return (lambda F, q, grids: dual.check_normal_cone_condition(
        F, q, grids, variant=variant),
        lambda F, q: normal_cone_preconditions(F, variant, "sufficient"))


def _coderivative(variant: str):
    return (lambda F, q, grids: dual.check_coderivative_condition(
        F, q, grids, variant=variant),
        lambda F, q: coderivative_threshold(F, q, "ball", variant,
                                            "sufficient"))


# (run, refusals) of the sufficient condition each Aubin pipeline pairs with
# its recede scan: its checker in sufficient mode at the condition's variant,
# named so that it is looked up in ``dual`` or ``slope`` when it runs
_PIPELINE_CONDITIONS = {
    "slope": (lambda F, q, grids: slope.check_nonlocal_slope_condition(
        F, q, grids), lambda F, q: None),
    "normal-cone-convex": _normal_cone("convex-normal"),
    "normal-cone-frechet": _normal_cone("frechet-cap"),
    "coderiv-clarke": _coderivative("convex-normal"),
    "coderiv-frechet": _coderivative("frechet-cap"),
}


def pipeline_preconditions(F: SetValuedMap, q: RegularityQuery,
                           condition: str, l_prime: float, l: float):
    """``InputError`` for an Aubin pipeline that ``certify_aubin`` would
    refuse: an unknown condition, a rate that is not positive, or a
    condition check that does not apply to ``F``."""
    if not isinstance(condition, str) or condition not in _PIPELINE_CONDITIONS:
        raise InputError(f"unknown condition {condition!r}; expected one of "
                         f"{tuple(_PIPELINE_CONDITIONS)}")
    positive_rate("l_prime", l_prime)
    positive_rate("l", l)
    _PIPELINE_CONDITIONS[condition][1](F, q)


def certify_aubin(F: SetValuedMap, q: RegularityQuery, l_prime: float,
                  l: float, condition: str, grids: ScanGrids) -> Certificate:
    """Two-stage Aubin certification: recede scan plus a sufficient condition.

    Checks the recede property at rate ``l_prime``, then the selected
    sufficient subregularity condition at threshold ``l_prime / l`` over the
    enlarged region (parameters in the eta-ball, x in the (delta+mu)-ball).
    Success of both stages certifies the Aubin property at rate ``l``; the
    certificate reports the original mu and the shrunk shift cap.
    """
    pipeline_preconditions(F, q, condition, l_prime, l)
    recede = check_recede(F, q, l_prime, grids)
    alpha = l_prime / l
    cond = _PIPELINE_CONDITIONS[condition][0](
        F, dataclasses.replace(q, alpha=alpha), grids)
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
