"""Ground-truth scans for uniform metric subregularity, and the reducer
every checker shares.

Everything here works straight from the defining inequalities on finite
grids: the subregularity estimate ``alpha * d(x, G(p)) <= d(ybar, F(p, x))``
over the admissible scan set, its geometric ball-intersection counterpart,
and the best rate in closed form.  Other modules' condition checkers are
validated against these scans; every checker, here and there, reduces its
margins to a ``Certificate`` through ``MarginScan``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import InputError
from .mappings import (SOL_TOL, RegularityQuery, ScanGrids, SetValuedMap,
                       strict_cap)
from .spaces import ball_mask, make_grid


class Verdict(str, Enum):
    HOLDS = "HOLDS"
    VIOLATED = "VIOLATED"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass
class Certificate:
    """Outcome of a check: verdict, worst-case margin, and a re-checkable
    witness (present whenever the verdict is VIOLATED)."""

    verdict: Verdict
    margin: float = math.nan
    witness: dict | None = None
    scan_meta: dict = field(default_factory=dict)
    detail: str = ""

    @property
    def holds(self) -> bool:
        return self.verdict is Verdict.HOLDS


def _base_meta(q: RegularityQuery, grids: ScanGrids) -> dict:
    meta = {
        "alpha": q.alpha,
        "delta": q.delta,
        "mu": q.mu,
        "eta": q.eta,
        "gamma": q.gamma,
        "grid_res": grids.x.resolution,
        "clamped": [n for n in ("delta", "mu", "eta")
                    if math.isinf(getattr(q, n))],
    }
    return meta


class MarginScan:
    """Running minimum of a check's margins and the certificate it yields.

    ``add`` takes the margins of one batch of scanned points (a number or an
    array) and ``witness(i)``, which builds the witness of the batch's i-th
    point; it is called only when that point lowers the running minimum below
    ``-tol``, so the witness is the first point attaining the scan minimum.
    A NaN margin is no number to compare: it is counted, never taken as the
    minimum, and it keeps the scan from certifying HOLDS.
    """

    def __init__(self, tol: float = 0.0):
        self.tol = tol
        self.margin = math.inf
        self.witness = None
        self.points_scanned = 0
        self.nan_margins = 0

    def add(self, margins, witness) -> None:
        margins = np.atleast_1d(margins)
        self.points_scanned += margins.size
        nan = np.isnan(margins)
        if nan.any():
            self.nan_margins += int(nan.sum())
            margins = np.where(nan, math.inf, margins)
        i = int(np.argmin(margins))
        if margins[i] < self.margin:
            self.margin = float(margins[i])
            if self.margin < -self.tol:
                self.witness = witness(i)

    def certificate(self, meta: dict) -> Certificate:
        """VIOLATED with the witness, else HOLDS; INCONCLUSIVE on an empty
        scan, or without a witness when some margin was NaN (counted in
        ``scan_meta["nan_margins"]``)."""
        n = self.points_scanned
        meta = dict(meta, points_scanned=n)
        if self.nan_margins:
            meta["nan_margins"] = self.nan_margins
        if n == 0:
            return Certificate(Verdict.INCONCLUSIVE, math.nan, None, meta,
                               "no admissible scan points")
        if self.witness is not None:
            return Certificate(Verdict.VIOLATED, self.margin, self.witness,
                               meta)
        if self.nan_margins:
            return Certificate(Verdict.INCONCLUSIVE, math.nan, None, meta,
                               f"{self.nan_margins} of {n} margins are NaN")
        return Certificate(Verdict.HOLDS, self.margin, None, meta)


def _residual_scan(F: SetValuedMap, q: RegularityQuery, grids: ScanGrids,
                   cap: float):
    """Per scanned parameter p: the X-grid points of B_delta(xbar) with
    residual <= cap, their residuals and their distances to G(p), where a
    distance within ``SOL_TOL`` (float noise between grids) counts as 0.

    Yields ``(p, xs, res, dist)``, skipping parameters with no such point.
    """
    ybar = q.ybar_arr
    xs_all = make_grid(grids.x)
    xs_all = xs_all[ball_mask(xs_all, q.xbar_arr, q.delta)]
    for p in F.param_points(q, grids):
        res = F.residual_vec(p, xs_all, ybar)
        mask = res <= cap
        if not mask.any():
            continue
        xs = xs_all[mask]
        dist = F.solution_distance_vec(p, xs, ybar, grids)
        yield p, xs, res[mask], np.where(dist <= SOL_TOL, 0.0, dist)


def check_subreg_uniform(F: SetValuedMap, q: RegularityQuery,
                         grids: ScanGrids) -> Certificate:
    """Scan the subregularity estimate over p and x in B_delta(xbar).

    HOLDS when ``residual - alpha * solution_distance >= 0`` at every grid
    point with residual strictly below alpha*mu; margin is the scan minimum
    of that difference, and the first (lexicographic) violating point is the
    witness.
    """
    ybar = q.ybar_arr
    scan = MarginScan()
    for p, xs, res, dist in _residual_scan(F, q, grids,
                                           strict_cap(q.alpha * q.mu)):
        scan.add(res - q.alpha * dist, lambda i: {
            "p": p, "x": xs[i].copy(), "y": _nearest_value(F, p, xs[i], ybar),
            "value": float(res[i] / dist[i]),
            "inequality": "alpha*d(x, G(p)) <= d(ybar, F(p,x))"})
    return scan.certificate(_base_meta(q, grids))


def _nearest_value(F, p, x, ybar):
    """Point of F(p, x) nearest to ybar, for witness reporting; None when
    the model gives its values as a region."""
    try:
        vals = F.values(p, x)
    except InputError:
        return None
    if vals is None or len(vals) == 0:
        return None
    vals = np.atleast_2d(np.asarray(vals, dtype=float))
    return vals[int(np.argmin(np.linalg.norm(vals - ybar[None, :], axis=1)))]


def check_geometric(F: SetValuedMap, q: RegularityQuery, grids: ScanGrids,
                    n_rho: int = 64) -> Certificate:
    """Ball-intersection characterization of the subregularity estimate.

    For sampled radii rho in ]0, mu[ and every scanned (p, x) with residual
    strictly below alpha*rho, the solution set must meet the closed ball of
    radius rho around x.  The rho samples are a uniform ladder augmented, per
    scan point, with the critical radius residual/alpha so the scan cannot
    miss a violation that falls between ladder rungs.

    A point's margin is its smallest tested radius less its solution
    distance, and that radius is one of two: the first rung above
    ``crit / (1 - 1e-12)`` (``crit`` = residual/alpha) and ``crit (1 +
    1e-9)`` when that is below mu.  Both are found for all points at once;
    a tie in the margin goes to the rung.
    """
    ybar = q.ybar_arr
    mu = q.mu if math.isfinite(q.mu) else _grid_diameter(grids)
    ladder = np.linspace(mu / (n_rho + 1), mu, n_rho, endpoint=False)
    scan = MarginScan()
    for p, xs, res, dist in _residual_scan(F, q, grids,
                                           strict_cap(q.alpha * mu)):
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
        to_crit = crit_gap < rung_gap
        xs, dist = xs[tested], dist[tested]
        value = np.where(to_crit, at_crit, rung)[tested]

        def witness(i):
            return {"p": p, "x": xs[i].copy(),
                    "y": _nearest_value(F, p, xs[i], ybar),
                    "value": float(value[i]),
                    "inequality": "G(p) meets closed ball of radius rho around x"}

        scan.add(np.minimum(rung_gap, crit_gap)[tested], witness)
    return scan.certificate(dict(_base_meta(q, grids), n_rho=n_rho))


def _grid_diameter(grids: ScanGrids) -> float:
    return float(np.linalg.norm(grids.x.upper_arr - grids.x.lower_arr))


def estimate_modulus(F: SetValuedMap, xbar, ybar, delta, mu,
                     grids: ScanGrids, pbar=None, eta=math.inf) -> float:
    """Best rate alpha for which the subregularity scan holds, in closed form.

    A scanned point off the solution set, with residual res and solution
    distance dist, is admitted at rate alpha once res <= alpha*mu' (mu' the
    strict cap of mu) and then violates the estimate iff alpha > res/dist.
    It therefore rules out exactly the rates above max(res/dist, res/mu'),
    and the best rate is the minimum of that bound over the scan.  Returns
    +inf when no scanned point lies off the solution set.
    """
    # the rate only enters the scan through the residual cap, applied below
    q = RegularityQuery(xbar=tuple(np.atleast_1d(xbar)),
                        ybar=tuple(np.atleast_1d(ybar)),
                        alpha=1.0, delta=delta, mu=mu,
                        pbar=None if pbar is None else tuple(np.atleast_1d(pbar)),
                        eta=eta)
    mu_strict = strict_cap(mu)
    bounds = [np.zeros(0)]
    for _, _, res, dist in _residual_scan(F, q, grids, math.inf):
        off = (dist > 0) & np.isfinite(res)
        bounds.append(np.maximum(res[off] / dist[off], res[off] / mu_strict))
    bounds = np.concatenate(bounds)
    return float(bounds.min()) if bounds.size else math.inf
