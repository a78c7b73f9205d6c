"""Ground-truth scans for uniform metric subregularity, and the reducer
every checker shares.

Everything here works straight from the defining inequalities on finite
grids: the subregularity estimate ``alpha * d(x, G(p)) <= d(ybar, F(p, x))``
over the admissible scan set, its geometric ball-intersection counterpart,
and the best rate in closed form.  Other modules' condition checkers are
validated against these scans; every checker, here and there, reduces its
margins to a ``Certificate`` through ``MarginScan``.

The scan is stacked: ``_residual_scan`` yields the rows of all parameters
in scan order, in blocks of at most ``_BLOCK`` rows, and each check reduces
a block in one array pass and one ``MarginScan.add``, so its witness is the
first scan point attaining the minimum, as in a scan parameter by
parameter.  The map's rules still see one parameter's rows per call.  The
scan table is built once per map and query and shared read-only through
the map's memo: one residual row per parameter (``_residual_table``),
whatever the cap, and the rows each cap admits with their solution
distances, so the checks on one map compute each residual once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import InputError
from .mappings import (SOL_TOL, RegularityQuery, ScanGrids, SetValuedMap,
                       strict_cap)
from .spaces import ball_mask, make_grid

# rows of a stacked scan reduced at once
_BLOCK = 1 << 16
# rungs of check_geometric's uniform radius ladder
_N_RHO = 64


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


# a margin above -CHECK_TOL is no violation of a dual, recede or Aubin
# check (the slope checks allow slope.SLOPE_TOL)
CHECK_TOL = 1e-9


class MarginScan:
    """Running minimum of a check's margins and the certificate it yields.

    ``add`` takes the margins of one batch of scanned points (a number or an
    array) and ``witness(i)``, which builds the witness of the batch's i-th
    point; it is called only when that point lowers the running minimum below
    ``-tol``, so the witness is the first point attaining the scan minimum.
    A NaN margin is no number to compare: it is counted, never taken as the
    minimum, and it keeps the scan from certifying HOLDS.  An empty batch
    adds nothing.
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
        if not margins.size:
            return
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


class ScanRows(NamedTuple):
    """One block of a stacked ground-truth scan: row i is the scan point
    ``xs[i]`` at the parameter ``params[k[i]]``, with its residual and its
    solution distance."""

    params: list
    k: np.ndarray
    xs: np.ndarray
    res: np.ndarray
    dist: np.ndarray

    def p(self, i):
        return self.params[self.k[i]]


def _scan_key(q: RegularityQuery, grids: ScanGrids) -> tuple:
    """What a ground-truth scan's points and parameters depend on."""
    return (q.xbar_arr.tobytes(), q.ybar_arr.tobytes(), q.delta,
            None if q.pbar is None else q.pbar_arr.tobytes(), q.eta, grids)


def _residual_table(F: SetValuedMap, q: RegularityQuery, grids: ScanGrids):
    """``(params, xs, table)``: the scanned parameters, the X-grid points of
    B_delta(xbar), and the (P, N) residuals with row k from one
    ``residual_vec`` call at ``params[k]`` on all of ``xs``.  Built once per
    map and key, whatever the residual cap, and shared read-only."""
    def build():
        xs = make_grid(grids.x)
        xs = xs[ball_mask(xs, q.xbar_arr, q.delta)]
        params = list(F.param_points(q, grids))
        ybar = q.ybar_arr
        table = np.array([F.residual_vec(p, xs, ybar) for p in params],
                         dtype=float).reshape(len(params), len(xs))
        return params, xs, table

    return F._memo(("residual table", *_scan_key(q, grids)), None, build)


def _residual_scan(F: SetValuedMap, q: RegularityQuery, grids: ScanGrids,
                   cap: float):
    """The X-grid points of B_delta(xbar) with residual <= cap at every
    scanned parameter p, their residuals and their distances to G(p), where
    a distance within ``SOL_TOL`` (float noise between grids) counts as 0.

    Yields the rows of all parameters stacked in scan order, as
    ``ScanRows`` blocks of at most ``_BLOCK`` rows.  The rows come from the
    map's memo, built once per map, key and cap from ``_residual_table``
    with one ``solution_distance_vec`` call per parameter on the points it
    admits, as a scan of that parameter alone makes it: a rule evaluated on
    other rows can round differently.
    """
    def build():
        params, xs, table = _residual_table(F, q, grids)
        mask = table <= cap
        k, j = np.nonzero(mask)
        ybar = q.ybar_arr
        dist = np.concatenate([np.zeros(0)] + [
            F.solution_distance_vec(params[i], xs[mask[i]], ybar, grids)
            for i in np.flatnonzero(mask.any(axis=1))])
        dist = np.where(dist <= SOL_TOL, 0.0, dist)
        return ScanRows(params, k, xs[j], table[k, j], dist)

    rows = F._memo(("residual scan", *_scan_key(q, grids), cap), None, build)
    for a in range(0, len(rows.k), _BLOCK):
        b = slice(a, a + _BLOCK)
        yield ScanRows(rows.params, *(v[b] for v in rows[1:]))


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
    for r in _residual_scan(F, q, grids, strict_cap(q.alpha * q.mu)):
        scan.add(r.res - q.alpha * r.dist, lambda i: {
            "p": r.p(i), "x": r.xs[i].copy(),
            "y": _nearest_value(F, r.p(i), r.xs[i], ybar),
            "value": float(r.res[i] / r.dist[i]),
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


def check_geometric(F: SetValuedMap, q: RegularityQuery,
                    grids: ScanGrids) -> Certificate:
    """Ball-intersection characterization of the subregularity estimate.

    For sampled radii rho in ]0, mu[ and every scanned (p, x) with residual
    strictly below alpha*rho, the solution set must meet the closed ball of
    radius rho around x.  The rho samples are a uniform ladder of ``_N_RHO``
    rungs augmented, per scan point, with the critical radius residual/alpha
    so the scan cannot miss a violation that falls between ladder rungs.

    A point's margin is its smallest tested radius less its solution
    distance, and that radius is one of two: the first rung above
    ``crit / (1 - 1e-12)`` (``crit`` = residual/alpha) and ``crit (1 +
    1e-9)`` when that is below mu.  Both are found for all points at once;
    a tie in the margin goes to the rung.
    """
    ybar = q.ybar_arr
    mu = q.mu if math.isfinite(q.mu) else _grid_diameter(grids)
    ladder = np.linspace(mu / (_N_RHO + 1), mu, _N_RHO, endpoint=False)
    scan = MarginScan()
    for r in _residual_scan(F, q, grids, strict_cap(q.alpha * mu)):
        crit = r.res / q.alpha
        k = np.searchsorted(ladder, crit / (1 - 1e-12), side="right")
        has_rung = k < _N_RHO
        rung = ladder[np.minimum(k, _N_RHO - 1)]
        at_crit = crit * (1 + 1e-9)
        has_crit = at_crit < mu
        tested = np.flatnonzero(has_rung | has_crit)
        rung_gap = np.where(has_rung, rung - r.dist, math.inf)
        crit_gap = np.where(has_crit, at_crit - r.dist, math.inf)
        value = np.where(crit_gap < rung_gap, at_crit, rung)

        def witness(i):
            j = tested[i]
            return {"p": r.p(j), "x": r.xs[j].copy(),
                    "y": _nearest_value(F, r.p(j), r.xs[j], ybar),
                    "value": float(value[j]),
                    "inequality": "G(p) meets closed ball of radius rho around x"}

        scan.add(np.minimum(rung_gap, crit_gap)[tested], witness)
    return scan.certificate(dict(_base_meta(q, grids), n_rho=_N_RHO))


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
    best = math.inf
    for r in _residual_scan(F, q, grids, math.inf):
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = np.maximum(r.res / r.dist, r.res / mu_strict)
        off = (r.dist > 0) & np.isfinite(r.res)
        best = min(best, float(np.where(off, bound, math.inf).min()))
    return best
