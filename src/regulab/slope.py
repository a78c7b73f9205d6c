"""Primal descent-rate conditions for subregularity.

The merit function of a slice F_p is ``|v - ybar|`` plus the indicator of the
graph.  Its nonlocal slope at a graph point (x, y) is the supremum of
``(|y - ybar| - |v - ybar|) / d_gamma((u, v), (x, y))`` over admissible graph
points (u, v); the local slope is the same supremum restricted to shrinking
neighborhoods.  Subregularity at rate alpha is equivalent to the nonlocal
slope being at least alpha on the admissible scan set, and is implied by the
corresponding local-slope bound; both checkers below scan that set and report
certificates.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError
from .mappings import (
    ClosedFormMap,
    PolyhedralGraphMap,
    RegularityQuery,
    ScanGrids,
    SetValuedMap,
    check_mode,
    condition_scan,
    strict_cap,
)
from .oracle import Certificate, MarginScan, _base_meta
from .sets import ConeRep, dist_to_region, gamma_dual_distance
from .spaces import GammaMetric, as_point

_LEVELS = 13
_LAST = 3


def merit_value(F: SetValuedMap, q: RegularityQuery, p, u, v,
                tol: float = 1e-9) -> float:
    """|v - ybar| on the graph of F_p, +inf off it."""
    u, v = as_point(u), as_point(v)
    if not F.in_graph(p, u, v, tol):
        return math.inf
    return float(np.linalg.norm(v - q.ybar_arr))


def _require_graph_point(F, p, x, y):
    if not F.in_graph(p, x, y, 1e-8):
        raise InputError("slope is only defined at points of the graph")


def _row_dots(a: np.ndarray) -> np.ndarray:
    """``a_i . a_i`` for every row, rounded as the 1-D ``a_i @ a_i`` is
    (``np.sum(a * a, 1)`` and ``np.linalg.norm(a, axis=1)`` round some 2-D
    rows differently)."""
    return (a[:, None, :] @ a[:, :, None])[:, 0, 0]


def _quotients(w, us, vs, x, y, gamma: float):
    """Distances and merit difference quotients of stacked candidates.

    Row i of ``us`` and ``vs`` is a competitor (u, v); returns
    ``d = max(|u-x|, gamma*|v-y|)`` and ``(|y-ybar| - |v-ybar|) / d`` for
    every row, with ``w = y - ybar``.  The numerator is evaluated through
    the difference-of-squares identity to avoid cancellation when v is close
    to y.  Rows with ``d = 0`` give no quotient; callers drop them.
    """
    d = np.maximum(np.sqrt(_row_dots(us - x)),
                   gamma * np.sqrt(_row_dots(vs - y)))
    wv = vs - (y - w)  # v - ybar
    wv2 = _row_dots(wv)
    num = (w @ w - wv2) / (np.linalg.norm(w) + np.sqrt(wv2))
    with np.errstate(divide="ignore", invalid="ignore"):
        return d, num / d


def _direction_candidates(F: SetValuedMap, q: RegularityQuery, p, x, y,
                          gamma: float) -> list[np.ndarray]:
    """Unit-scale descent directions in the product space at the graph
    point (x, y), given as arrays.

    Directions with ``max(|d_x|, gamma |d_y|) <= 1``: the maximizer of the
    dual-distance support problem over each graph tangent cone at (x, y)
    (the first-order optimal direction), plus the direction toward the
    nearest solution point paired with the target.
    """
    g = GammaMetric(gamma)
    ybar = q.ybar_arr
    w = y - ybar
    nw = np.linalg.norm(w)
    dirs: list[np.ndarray] = []
    qvec = np.concatenate([np.zeros(F.nx), -w / nw]) if nw > 0 else None

    cones: list[ConeRep] = []
    if isinstance(F, PolyhedralGraphMap):
        xy = np.concatenate([x, y])
        for piece in F.graph_region(p).nonempty_pieces():
            if piece.contains(xy, 1e-8):
                act = piece.active_rows(xy)
                cones.append(ConeRep.make(
                    generators=piece.A[act] if act.size else None, dim=piece.dim))
    elif isinstance(F, ClosedFormMap):
        # (x, y) has passed the graph check, so the rule's cone applies as is
        if F.cone_fn is not None:
            cones.append(F.cone_fn(p, x, y))
    else:
        try:
            cone = F.normal_cone(p, x, y)
        except InputError:
            cone = None
        if cone is not None and not cone.empty:
            cones.append(cone)
    if qvec is not None:
        for cone in cones:
            _, u = gamma_dual_distance(qvec, cone, g, F.nx, with_direction=True)
            if u is not None and np.linalg.norm(u) > 1e-12:
                dirs.append(u)

    # direction toward the nearest solution point, paired with the target
    try:
        sd, upt = dist_to_region(x, F.solution_set(p, ybar))
    except InputError:
        sd, upt = math.inf, None
    if upt is not None and math.isfinite(sd):
        step = np.concatenate([upt - x, ybar - y])
        s = max(np.linalg.norm(step[: F.nx]), gamma * np.linalg.norm(step[F.nx:]))
        if s > 0:
            dirs.append(step / s)
    return dirs


def _points_on_graph_along(F, p, x, y, d, ts) -> list[tuple[np.ndarray, np.ndarray]]:
    """Polyhedral graph points near (x, y) stepping along direction ``d``."""
    nx, region = F.nx, F.graph_region(p)
    out = []
    for t in ts:
        u = x + t * d[:nx]
        v = y + t * d[nx:]
        z = np.concatenate([u, v])
        if region.contains(z, 1e-10):
            out.append((u, v))
        else:
            dz, zp = dist_to_region(z, region)
            if zp is not None and dz <= abs(t):
                out.append((zp[:nx], zp[nx:]))
    return out


def _step_schedule(nw: float, gamma: float) -> np.ndarray:
    """Shared radius schedule for honest short steps from a graph point."""
    r0 = min(1e-4, 1e-5 * nw * min(gamma, 1.0))
    return r0 * 2.0 ** (-np.arange(_LEVELS, dtype=float))


def _short_step_candidates(F, q, p, x, y, ts):
    """Honest graph points stepped from (x, y), as stacked ``(us, vs)``;
    used by both slope variants so the local value never exceeds the
    nonlocal one numerically.

    A closed-form map's honest step is (x + s, F(p, x + s)), so it depends
    only on the x-step s: each first-order direction's x-part times each
    radius, and each +-e_i times each radius and radius/(1 + gamma).  The
    rule is evaluated once per distinct step, in one call of a batched rule.
    A polyhedral map steps along each direction and projects back onto the
    graph.  The directions are built once per ``(p, x, y, ybar, gamma)`` in
    the map's per-parameter memo, so both slope checks share them.
    """
    x, y = as_point(x), as_point(y)
    key = ("directions", x.tobytes(), y.tobytes(), q.ybar_arr.tobytes(),
           q.gamma)
    dirs = F._memo(key, p, lambda: tuple(
        _direction_candidates(F, q, p, x, y, q.gamma)))
    if isinstance(F, ClosedFormMap):
        radii = np.concatenate([ts, ts / (1 + q.gamma)])
        radii = np.concatenate([radii, -radii])
        steps = [np.outer(ts, d[:F.nx]) for d in dirs]
        steps += [np.outer(radii, e) for e in np.eye(F.nx)]
        # the distinct steps in lexicographic order, as np.unique(us, axis=0)
        # gives them at several times the cost on arrays this small
        us = x + np.vstack(steps)
        us = us[np.lexsort(us.T[::-1])]
        return F.graph_over(p, us[np.r_[True, (us[1:] != us[:-1]).any(1)]])
    cands: list[tuple[np.ndarray, np.ndarray]] = []
    if isinstance(F, PolyhedralGraphMap):
        for d in dirs:
            cands.extend(_points_on_graph_along(F, p, x, y, d, ts))
    if not cands:
        return np.zeros((0, F.nx)), np.zeros((0, F.ny))
    us, vs = zip(*cands)
    return np.array(us), np.array(vs)


def nonlocal_slope(F: SetValuedMap, q: RegularityQuery, p, x, y,
                   grids: ScanGrids, x_radius: float | None = None) -> float:
    """Supremum of merit difference quotients over the admissible graph scan.

    Admissible competitors (u, v) lie on gph F_p with u in the open ball of
    radius ``x_radius`` (default delta + mu) around xbar and |v - ybar|
    strictly below alpha*mu.  The scan uses the graph sample plus the nearest
    solution point and short honest steps from (x, y), so the reported value
    is a certified lower bound of the supremum.
    """
    _require_graph_point(F, p, x, y)
    x, y = as_point(x), as_point(y)
    ybar = q.ybar_arr
    w = y - ybar
    nw = float(np.linalg.norm(w))
    if nw == 0:
        raise InputError("slope scan requires y != ybar")
    if x_radius is None:
        x_radius = q.delta + q.mu
    cap = strict_cap(q.alpha * q.mu)

    # the graph sample, the same short honest steps the local slope uses
    # plus coarser ones (so the nonlocal value dominates the local one
    # numerically), and the nearest solution point paired with the target
    pts = F.graph_points(p, grids)
    ts = _step_schedule(nw, q.gamma)
    coarse = min(0.1 * nw, 0.1 * nw * q.gamma) * 2.0 ** (-np.arange(6, dtype=float))
    us, vs = _short_step_candidates(F, q, p, x, y, np.concatenate([coarse, ts]))
    us, vs = np.vstack([pts[:, :F.nx], us]), np.vstack([pts[:, F.nx:], vs])
    try:
        _, upt = dist_to_region(x, F.solution_set(p, ybar, grids))
    except InputError:
        upt = None
    if upt is not None:
        us, vs = np.vstack([upt, us]), np.vstack([ybar, vs])
    d, r = _quotients(w, us, vs, x, y, q.gamma)
    ok = (np.sqrt(_row_dots(us - q.xbar_arr)) < x_radius) & (d > 0)
    ok &= np.sqrt(_row_dots(vs - ybar)) <= cap
    return float(max(0.0, np.max(r[ok]))) if ok.any() else 0.0


def local_slope(F: SetValuedMap, q: RegularityQuery, p, x, y,
                grids: ScanGrids | None = None, r0: float | None = None) -> float:
    """Limit of merit difference quotients as competitors approach (x, y).

    Approximated on the geometric radius schedule ``r0 * 2^-k``, k = 0..12;
    the reported value is the maximum over the last three levels; the levels
    are nested, so that is the level of the third-last radius.  Competitors
    are honest graph points stepped along first-order optimal directions.
    """
    _require_graph_point(F, p, x, y)
    x, y = as_point(x), as_point(y)
    w = y - q.ybar_arr
    nw = float(np.linalg.norm(w))
    if nw == 0:
        raise InputError("slope scan requires y != ybar")
    if r0 is None:
        radii = _step_schedule(nw, q.gamma)
    else:
        radii = r0 * 2.0 ** (-np.arange(_LEVELS, dtype=float))

    us, vs = _short_step_candidates(F, q, p, x, y, radii)
    d, r = _quotients(w, us, vs, x, y, q.gamma)
    ok = (d > 0) & (d <= radii[-_LAST] * (1 + 1e-9))
    return float(max(0.0, np.max(r[ok]))) if ok.any() else 0.0


def slope_preconditions(F: SetValuedMap, mode: str, local: bool):
    """``InputError`` for a slope check that ``F`` and ``mode`` rule out."""
    check_mode(mode)
    if mode == "necessary" and local and not F.convex_graph:
        raise InputError(
            "the local-slope bound is necessary only for convex graphs"
        )


def _condition_check(F, q, grids, mode, slope_fn, tol, local) -> Certificate:
    slope_preconditions(F, mode, local)
    q, x_radius, points = condition_scan(F, q, grids, mode)
    scan = MarginScan(tol)
    for sp in points:
        val = slope_fn(F, q, sp.p, sp.x, sp.y, grids)
        scan.add(val - q.alpha, lambda _: {
            "p": sp.p, "x": sp.x, "y": sp.y, "value": val,
            "inequality": "slope >= alpha"})
    meta = dict(_base_meta(q, grids), mode=mode, x_radius=x_radius,
                kind="local" if local else "nonlocal")
    return scan.certificate(meta)


def check_nonlocal_slope_condition(F: SetValuedMap, q: RegularityQuery,
                                   grids: ScanGrids, mode: str = "sufficient",
                                   tol: float = 1e-7) -> Certificate:
    """Scan ``nonlocal_slope >= alpha`` over the admissible set.

    In sufficient mode (caller-chosen gamma, scan radius delta + mu) a HOLDS
    verdict certifies uniform subregularity at rate alpha; in necessary mode
    the scan runs at gamma = 1/alpha over the delta-ball and must hold
    whenever subregularity does.
    """
    return _condition_check(F, q, grids, mode, nonlocal_slope, tol, local=False)


def check_local_slope_condition(F: SetValuedMap, q: RegularityQuery,
                                grids: ScanGrids, mode: str = "sufficient",
                                tol: float = 1e-7) -> Certificate:
    """Scan ``local_slope >= alpha``; necessary mode requires convex graphs."""
    return _condition_check(F, q, grids, mode, local_slope, tol, local=True)
