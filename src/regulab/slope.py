"""Primal descent-rate conditions for subregularity.

The merit function of a slice F_p is ``|v - ybar|`` plus the indicator of the
graph.  Its nonlocal slope at a graph point (x, y) is the supremum of
``(|y - ybar| - |v - ybar|) / d_gamma((u, v), (x, y))`` over admissible graph
points (u, v); the local slope is the same supremum restricted to shrinking
neighborhoods.  Subregularity at rate alpha is equivalent to the nonlocal
slope being at least alpha on the admissible scan set, and is implied by the
corresponding local-slope bound; both checkers below scan that set and report
certificates.

Both slopes take one graph point or one parameter's stacked scan points (the
rows of a ``ScanBatch``), and the checkers make one call per parameter.  The
candidates of all points are built as arrays: the (scan points x graph
sample) quotient block, in blocks of rows; each point's nearest solution
point, from the map's memo; and the short honest steps along first-order
directions, whose support problems over the map's ``piece_cones`` the map
answers (``cone_answers``), sharing them with the dual checks.  The map
takes the steps (``step_points``), so every model, a shifted one too, scans
the same way.  The quotients are scored row by row, rounding as for a
single point, and a point's slope is the maximum of its rows, so the
stacked values are the one-point values bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError, InputError
from .mappings import (
    RegularityQuery,
    ScanGrids,
    SetValuedMap,
    check_mode,
    condition_scan,
    strict_cap,
)
from .oracle import Certificate, MarginScan, _base_meta
from .sets import gamma_dual_distance
from .spaces import GammaMetric, as_point, row_dots

_LEVELS = 13
_LAST = 3
# rows of the (scan points x graph sample) quotient block scored at once
_BLOCK = 1 << 14


def merit_value(F: SetValuedMap, q: RegularityQuery, p, u, v) -> float:
    """|v - ybar| on the graph of F_p (``F.in_graph``), +inf off it."""
    u, v = as_point(u), as_point(v)
    if not F.in_graph(p, u, v):
        return math.inf
    return float(np.linalg.norm(v - q.ybar_arr))


def _stack(F, p, x, y):
    """``(xs, ys, one)``: a single point as one row once it has passed the
    graph check, or stacked rows as they are (shapes checked, graph not)."""
    if np.ndim(x) < 2 and np.ndim(y) < 2:
        if not F.in_graph(p, x, y, 1e-8):
            raise InputError("slope is only defined at points of the graph")
        return as_point(x)[None, :], as_point(y)[None, :], True
    xs, ys = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if xs.ndim != 2 or ys.ndim != 2 or len(xs) != len(ys) or \
            xs.shape[1] != F.nx or ys.shape[1] != F.ny:
        raise DimensionMismatchError(
            f"stacked points need shapes (n, {F.nx}) and (n, {F.ny}), got "
            f"{xs.shape} and {ys.shape}")
    return xs, ys, False


def _targets(q: RegularityQuery, ys: np.ndarray):
    """``(ys - ybar, |ys - ybar|)`` per row; ``InputError`` at y = ybar."""
    W = ys - q.ybar_arr
    nw = np.sqrt(row_dots(W))  # np.linalg.norm(w) of each row
    if np.any(nw == 0):
        raise InputError("slope scan requires y != ybar")
    return W, nw


def _quotients(w, us, vs, x, y, gamma: float):
    """Distances and merit difference quotients of stacked candidates.

    Row i of ``us`` and ``vs`` is a competitor (u, v) of the graph point
    (x, y), with ``w = y - ybar``; ``w``, ``x`` and ``y`` are one point or
    one row per candidate (any shapes that broadcast against ``us``).
    Returns ``d = max(|u-x|, gamma*|v-y|)`` and ``(|y-ybar| - |v-ybar|) /
    d`` for every row.  The numerator is evaluated through the
    difference-of-squares identity to avoid cancellation when v is close to
    y.  Rows with ``d = 0`` give no quotient; callers drop them.
    """
    ww = row_dots(w)
    d = np.maximum(np.sqrt(row_dots(us - x)),
                   gamma * np.sqrt(row_dots(vs - y)))
    wv = vs - (y - w)  # v - ybar
    wv2 = row_dots(wv)
    num = (ww - wv2) / (np.sqrt(ww) + np.sqrt(wv2))
    with np.errstate(divide="ignore", invalid="ignore"):
        return d, num / d


def _nearest_solutions(F, q, p, xs, grids) -> list:
    """``F.nearest_solutions`` of the rows, or ``(inf, None)`` for each when
    the map has no solution set to offer (without a grid, when ``grids`` is
    None)."""
    try:
        return F.nearest_solutions(p, xs, q.ybar_arr, grids)
    except InputError:
        return [(math.inf, None)] * len(xs)


def _direction_candidates(F: SetValuedMap, q: RegularityQuery, p, xs, ys,
                          near) -> list[list[np.ndarray]]:
    """Unit-scale descent directions in the product space at each stacked
    graph point (xs[i], ys[i]), as a list of arrays per point.

    Directions with ``max(|d_x|, gamma |d_y|) <= 1``: the maximizer of the
    dual-distance support problem over each graph tangent cone at the point,
    the polar of one of its ``F.piece_cones`` (the first-order optimal
    direction), plus the direction toward the nearest solution point
    ``near[i]`` (of the solution set without grids, see ``_directions``)
    paired with the target.  The support problems go through the map's
    ``cone_answers``, which shares them with the dual checks.
    """
    g = GammaMetric(q.gamma)
    ybar, nx = q.ybar_arr, F.nx
    W, nw = _targets(q, ys)
    qvecs = np.hstack([np.zeros((len(xs), nx)), -W / nw[:, None]])
    cones = F.piece_cones(p, xs, ys)
    out = [[] for _ in xs]
    owner = np.repeat(np.arange(len(xs)), [len(c) for c in cones])
    if len(owner):
        found = F.cone_answers(
            ("support", q.gamma),
            [cone for point_cones in cones for cone in point_cones],
            qvecs[owner], lambda cone, Q: zip(*gamma_dual_distance(
                Q, cone, g, nx, with_direction=True)))
        U = np.array([u for _, u in found])
        # an empty cone's rows are NaN, and fail the test
        for k in np.flatnonzero(np.linalg.norm(U, axis=1) > 1e-12):
            out[owner[k]].append(U[k])
    for x, y, dirs, (sd, upt) in zip(xs, ys, out, near):
        # direction toward the nearest solution point, paired with the target
        if upt is not None and math.isfinite(sd):
            step = np.concatenate([upt - x, ybar - y])
            s = max(np.linalg.norm(step[:nx]),
                    q.gamma * np.linalg.norm(step[nx:]))
            if s > 0:
                dirs.append(step / s)
    return out


def _directions(F, q, p, xs, ys) -> list:
    """The directions of every row, each point's built once per ``(p, x, y,
    ybar, gamma)`` in the map's ``_per_point`` memo, so both slope checks
    share them.  They read no scan grid: the nearest solution point is one
    of the solution set without grids (where that set reads none, the one
    the scan measured)."""
    nx = F.nx

    def build(Z):
        return _direction_candidates(
            F, q, p, Z[:, :nx], Z[:, nx:],
            _nearest_solutions(F, q, p, Z[:, :nx], None))

    return F._per_point(("directions", q.ybar_arr.tobytes(), q.gamma), p,
                        np.hstack([xs, ys]), build)


def _step_schedule(nw: np.ndarray, gamma: float) -> np.ndarray:
    """Shared radius schedules for honest short steps from graph points at
    distances ``nw`` from the target: one row ``r0 2^-j`` per point."""
    r0 = np.minimum(1e-4, 1e-5 * nw * min(gamma, 1.0))
    return r0[:, None] * 2.0 ** (-np.arange(_LEVELS, dtype=float))


def _best(n: int, owner, r, ok) -> np.ndarray:
    """Each point's largest ``r`` over its rows with ``ok``; -inf for a
    point without one."""
    best = np.full(n, -np.inf)
    np.maximum.at(best, owner[ok], r[ok])
    return best


def _slopes(best: np.ndarray, one: bool):
    """``max(0, best)`` per point (0 for a point without a quotient), as a
    float for a single point."""
    vals = np.where(best > 0, best, 0.0)
    return float(vals[0]) if one else vals


def nonlocal_slope(F: SetValuedMap, q: RegularityQuery, p, x, y,
                   grids: ScanGrids):
    """Supremum of merit difference quotients over the admissible graph scan.

    Admissible competitors (u, v) lie on gph F_p with u in the open ball of
    radius delta + mu around xbar, in both modes (necessary mode scans the
    points of the delta-ball, its ``x_radius``: more competitors only raise
    the slope), and |v - ybar| strictly below alpha*mu.  The scan uses the
    graph sample plus the nearest solution point and short honest steps from
    (x, y), so the reported value is a certified lower bound of the supremum.

    ``x`` and ``y`` are one graph point (checked, a float back) or one
    parameter's stacked graph points as rows of shapes (n, nx) and (n, ny),
    as a ``ScanBatch`` holds them: an array back, row by row the one-point
    values.  Stacked rows are not checked against the graph.
    """
    xs, ys, one = _stack(F, p, x, y)
    W, nw = _targets(q, ys)
    cap = strict_cap(q.alpha * q.mu)
    xbar, ybar, nx = q.xbar_arr, q.ybar_arr, F.nx

    def admissible(us, vs):
        return (np.sqrt(row_dots(us - xbar)) < q.delta + q.mu) & \
            (np.sqrt(row_dots(vs - ybar)) <= cap)

    # the nearest solution points paired with the target
    near = _nearest_solutions(F, q, p, xs, grids)
    has = np.array([i for i, (_, u) in enumerate(near) if u is not None],
                   dtype=int)
    us = np.array([near[i][1] for i in has]).reshape(-1, nx)
    vs = np.tile(ybar, (len(has), 1))
    d, r = _quotients(W[has], us, vs, xs[has], ys[has], q.gamma)
    best = _best(len(xs), has, r, admissible(us, vs) & (d > 0))

    # the graph sample against every point, in blocks of about _BLOCK rows
    pts = F.graph_points(p, grids)
    su, sv = pts[:, :nx], pts[:, nx:]
    keep = admissible(su, sv)
    su, sv = su[keep], sv[keep]
    if len(su):
        step = max(1, _BLOCK // len(su))
        for a in range(0, len(xs), step):
            c = slice(a, a + step)
            d, r = _quotients(W[c, None], su, sv, xs[c, None], ys[c, None],
                              q.gamma)
            best[c] = np.maximum(best[c],
                                 np.where(d > 0, r, -np.inf).max(axis=1))

    # the same short honest steps the local slope uses plus coarser ones (so
    # the nonlocal value dominates the local one numerically)
    coarse = np.minimum(0.1 * nw, 0.1 * nw * q.gamma)[:, None] * \
        2.0 ** (-np.arange(6, dtype=float))
    owner, us, vs = F.step_points(
        p, xs, ys, _directions(F, q, p, xs, ys),
        np.hstack([coarse, _step_schedule(nw, q.gamma)]), q.gamma)
    d, r = _quotients(W[owner], us, vs, xs[owner], ys[owner], q.gamma)
    best = np.maximum(best, _best(len(xs), owner, r,
                                  admissible(us, vs) & (d > 0)))
    return _slopes(best, one)


def local_slope(F: SetValuedMap, q: RegularityQuery, p, x, y,
                grids: ScanGrids | None = None):
    """Limit of merit difference quotients as competitors approach (x, y).

    Approximated on the geometric radius schedule of ``_step_schedule``, 13
    halving radii from one set by the point's distance to the target; the
    reported value is the maximum over the last three levels; the levels
    are nested, so that is the level of the third-last radius.  Competitors
    are honest graph points stepped along first-order optimal directions,
    which read no scan grid (``grids`` is taken for the checkers' common
    call).  ``x`` and ``y`` are one graph point or stacked rows, as for
    ``nonlocal_slope``.
    """
    xs, ys, one = _stack(F, p, x, y)
    W, nw = _targets(q, ys)
    radii = _step_schedule(nw, q.gamma)
    reach = radii[:, -_LAST] * (1 + 1e-9)
    owner, us, vs = F.step_points(p, xs, ys, _directions(F, q, p, xs, ys),
                                  radii, q.gamma, reach)
    d, r = _quotients(W[owner], us, vs, xs[owner], ys[owner], q.gamma)
    ok = (d > 0) & (d <= reach[owner])
    return _slopes(_best(len(xs), owner, r, ok), one)


def slope_preconditions(F: SetValuedMap, mode: str, local: bool):
    """``InputError`` for a slope check that ``F`` and ``mode`` rule out."""
    check_mode(mode)
    if mode == "necessary" and local and not F.convex_graph:
        raise InputError(
            "the local-slope bound is necessary only for convex graphs"
        )


def _condition_check(F, q, grids, mode, slope_fn, tol, local) -> Certificate:
    slope_preconditions(F, mode, local)
    q, x_radius, batches = condition_scan(F, q, grids, mode)
    scan = MarginScan(tol)
    for b in batches:
        vals = slope_fn(F, q, b.p, b.xs, b.ys, grids)
        scan.add(vals - q.alpha, lambda i: {
            "p": b.p, "x": b.xs[i], "y": b.ys[i], "value": float(vals[i]),
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
