"""Primal descent-rate conditions for subregularity.

The merit function of a slice F_p is ``|v - ybar|`` plus the indicator of the
graph.  Its nonlocal slope at a graph point (x, y) is the supremum of
``(|y - ybar| - |v - ybar|) / d_gamma((u, v), (x, y))`` over admissible graph
points (u, v); the local slope is the same supremum restricted to shrinking
neighborhoods.  Subregularity at rate alpha is equivalent to the nonlocal
slope being at least alpha on the admissible scan set, and is implied by the
corresponding local-slope bound; both checkers below scan that set and report
certificates.

Both slopes take one graph point, one parameter's stacked points, or the
``ScanBatch``es of a whole scan, one per parameter; each checker makes one
call, which scores the rows of all parameters in one stacked pass (a single
point is a batch of one).  Per parameter go only the questions the map
answers per parameter: its graph sample, its nearest solution points, the
cones at its points (``piece_cones``) and the short honest steps
(``step_points``), whose rule call gets the rows a scan of that parameter
alone gives it.  The candidates of all points are arrays: each point
against its parameter's graph sample, in blocks of rows; each point's
nearest solution point; and the steps along first-order directions, held as
``(owner, D)`` rows, whose support problems over the cones of all points
the map answers in one ``cone_answers`` call, sharing them with the dual
checks.  The map takes the steps, so every model, a shifted one too, scans
the same way.  The quotients are scored row by row, rounding as for a
single point, and a point's slope is the maximum of its rows, so the
stacked values are the one-point values bit for bit.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, InputError
from .mappings import (
    RegularityQuery,
    ScanGrids,
    SetValuedMap,
    check_mode,
    condition_scan,
    stack_batches,
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


class _Rows(NamedTuple):
    """Stacked graph points of F_p: a batch of a slope call made at one
    parameter, read as a ``ScanBatch`` is."""

    p: object
    xs: np.ndarray
    ys: np.ndarray


def _batches(F, p, x, y):
    """``(batches, one)``: the ``ScanBatch``es ``p`` when ``x`` and ``y``
    are None; else one batch at the parameter ``p``, of a single point once
    it has passed the graph check (``one``), or of stacked rows as they are
    (shapes checked, graph not)."""
    if x is None and y is None:
        return list(p), False
    if np.ndim(x) < 2 and np.ndim(y) < 2:
        if not F.in_graph(p, x, y, 1e-8):
            raise InputError("slope is only defined at points of the graph")
        return [_Rows(p, as_point(x)[None, :], as_point(y)[None, :])], True
    xs, ys = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if xs.ndim != 2 or ys.ndim != 2 or len(xs) != len(ys) or \
            xs.shape[1] != F.nx or ys.shape[1] != F.ny:
        raise DimensionMismatchError(
            f"stacked points need shapes (n, {F.nx}) and (n, {F.ny}), got "
            f"{xs.shape} and {ys.shape}")
    return [_Rows(p, xs, ys)], False


def _spans(batches):
    """Each batch with the slice of its rows among the rows of all."""
    a = 0
    for b in batches:
        yield b, slice(a, a + len(b.xs))
        a += len(b.xs)


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
                          near) -> tuple:
    """What ``_directions`` builds the directions of the stacked graph
    points (xs[i], ys[i]) of F_p from, as ``(cones, has, S)``: ``cones[i]``
    the point's ``F.piece_cones``, and row j of S the step from the point
    ``has[j]`` to its nearest solution point ``near[has[j]]``, paired with
    the step to the target."""
    nx = F.nx
    has = np.array([i for i, (d, u) in enumerate(near)
                    if u is not None and math.isfinite(d)], dtype=int)
    S = np.hstack([np.array([near[i][1] for i in has]).reshape(-1, nx) -
                   xs[has], q.ybar_arr - ys[has]])
    return F.piece_cones(p, xs, ys), has, S


def _directions(F, q, batches):
    """The directions of every row of all ``batches`` as ``(own, D)``, row
    j of D a unit-scale descent direction in the product space (``max(|d_x|,
    gamma |d_y|) <= 1``) at the row ``own[j]``.

    A point's directions are the maximizer of the dual-distance support
    problem over each graph tangent cone at the point, the polar of one of
    its ``F.piece_cones`` (the first-order optimal direction), and the
    direction toward its nearest solution point, paired with the target.
    Each point's are built once per ``(p, x, y, ybar, gamma)`` in the map's
    memo, so both slope checks share them.  The cones and nearest points of
    the points missing from it come per parameter, and all their support
    problems go to one ``cone_answers`` call, which shares them with the
    dual checks.  They read no scan grid: the nearest solution point is one
    of the solution set without grids (where that set reads none, the one
    the scan measured).
    """
    nx, g = F.nx, GammaMetric(q.gamma)

    def build(parts):
        found = [_direction_candidates(
            F, q, p, Z[:, :nx], Z[:, nx:],
            _nearest_solutions(F, q, p, Z[:, :nx], None)) for p, Z in parts]
        Z = np.vstack([Z for _, Z in parts])
        W, nw = _targets(q, Z[:, nx:])
        cones = [cs for point_cones, _, _ in found for cs in point_cones]
        owner = np.repeat(np.arange(len(Z)), [len(cs) for cs in cones])
        U = np.zeros((0, Z.shape[1]))
        if len(owner):
            # the support problems of all points in one call
            U = np.array([u for _, u in F.cone_answers(
                ("support", q.gamma), [c for cs in cones for c in cs],
                np.hstack([np.zeros((len(owner), nx)),
                           (-W / nw[:, None])[owner]]),
                lambda cone, Q: zip(*gamma_dual_distance(
                    Q, cone, g, nx, with_direction=True)))])
        # an empty cone's rows are NaN, and fail the test
        ok = np.linalg.norm(U, axis=1) > 1e-12
        starts = np.cumsum([0] + [len(Zp) for _, Zp in parts])
        has = np.concatenate([h + a for (_, h, _), a in zip(found, starts)])
        S = np.vstack([S for _, _, S in found])
        s = np.maximum(np.sqrt(row_dots(S[:, :nx])),
                       q.gamma * np.sqrt(row_dots(S[:, nx:])))
        owner = np.concatenate([owner[ok], has[s > 0]])
        order = np.argsort(owner, kind="stable")
        U = np.vstack([U[ok], S[s > 0] / s[s > 0, None]])[order]
        ends = np.cumsum(np.bincount(owner, minlength=len(Z)))
        return [U[a:b] for a, b in zip(np.r_[0, ends[:-1]], ends)]

    dirs = [d for ds in F._per_rows(
        ("directions", q.ybar_arr.tobytes(), q.gamma),
        [(b.p, np.hstack([b.xs, b.ys])) for b in batches], build) for d in ds]
    return np.repeat(np.arange(len(dirs)), [len(d) for d in dirs]), \
        np.vstack([np.zeros((0, nx + F.ny))] + dirs)


def _steps(F, q, batches, radii, reach=None):
    """The map's steps from the rows of all ``batches`` along their
    ``_directions`` by the radii ``radii[i]`` (x-steps beyond ``reach[i]``
    may be dropped), as ``(owner, us, vs)`` with ``owner`` a row of all
    batches: one ``step_points`` call per parameter, so a rule sees the
    rows a scan of that parameter alone gives it."""
    own, D = _directions(F, q, batches)
    owners, us, vs = [np.zeros(0, dtype=int)], [np.zeros((0, F.nx))], \
        [np.zeros((0, F.ny))]
    for b, c in _spans(batches):
        mine = (own >= c.start) & (own < c.stop)
        owner, u, v = F.step_points(
            b.p, b.xs, b.ys, (own[mine] - c.start, D[mine]), radii[c],
            q.gamma, None if reach is None else reach[c])
        owners.append(owner + c.start)
        us.append(u)
        vs.append(v)
    return np.concatenate(owners), np.vstack(us), np.vstack(vs)


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


def nonlocal_slope(F: SetValuedMap, q: RegularityQuery, p, x=None, y=None,
                   grids: ScanGrids | None = None):
    """Supremum of merit difference quotients over the admissible graph scan.

    Admissible competitors (u, v) lie on gph F_p with u in the open ball of
    radius delta + mu around xbar, in both modes (necessary mode scans the
    points of the delta-ball, its ``x_radius``: more competitors only raise
    the slope), and |v - ybar| strictly below alpha*mu.  The scan uses the
    graph sample plus the nearest solution point and short honest steps from
    (x, y), so the reported value is a certified lower bound of the supremum.

    ``x`` and ``y`` are one graph point (checked, a float back) or stacked
    graph points at the parameter ``p`` as rows of shapes (n, nx) and (n,
    ny) (not checked against the graph, an array back).  Without them,
    ``p`` is a list of ``ScanBatch``es, and the array back holds the slopes
    of all their rows, batch after batch.  Row by row, the values are the
    one-point values.
    """
    batches, one = _batches(F, p, x, y)
    k, xs, ys = stack_batches(F, batches)
    W, nw = _targets(q, ys)
    cap = strict_cap(q.alpha * q.mu)
    xbar, ybar, nx = q.xbar_arr, q.ybar_arr, F.nx

    def admissible(us, vs):
        return (np.sqrt(row_dots(us - xbar)) < q.delta + q.mu) & \
            (np.sqrt(row_dots(vs - ybar)) <= cap)

    # the nearest solution points paired with the target
    near = [n for b in batches
            for n in _nearest_solutions(F, q, b.p, b.xs, grids)]
    has = np.array([i for i, (_, u) in enumerate(near) if u is not None],
                   dtype=int)
    us = np.array([near[i][1] for i in has]).reshape(-1, nx)
    vs = np.tile(ybar, (len(has), 1))
    d, r = _quotients(W[has], us, vs, xs[has], ys[has], q.gamma)
    best = _best(len(xs), has, r, admissible(us, vs) & (d > 0))

    # each point against the admissible graph sample of its parameter,
    # padded with NaN rows (no quotient) to one length, in blocks of about
    # _BLOCK rows
    samples = [F.graph_points(b.p, grids) for b in batches]
    samples = [pts[admissible(pts[:, :nx], pts[:, nx:])] for pts in samples]
    m = max(map(len, samples), default=0)
    pad = np.full((len(samples), m, nx + F.ny), np.nan)
    for j, pts in enumerate(samples):
        pad[j, :len(pts)] = pts
    if m:
        step = max(1, _BLOCK // m)
        for a in range(0, len(xs), step):
            c = slice(a, a + step)
            P = pad[k[c]]
            d, r = _quotients(W[c, None], P[..., :nx], P[..., nx:],
                              xs[c, None], ys[c, None], q.gamma)
            best[c] = np.maximum(best[c],
                                 np.where(d > 0, r, -np.inf).max(axis=1))

    # the same short honest steps the local slope uses plus coarser ones (so
    # the nonlocal value dominates the local one numerically)
    coarse = np.minimum(0.1 * nw, 0.1 * nw * q.gamma)[:, None] * \
        2.0 ** (-np.arange(6, dtype=float))
    owner, us, vs = _steps(F, q, batches, np.hstack(
        [coarse, _step_schedule(nw, q.gamma)]))
    d, r = _quotients(W[owner], us, vs, xs[owner], ys[owner], q.gamma)
    best = np.maximum(best, _best(len(xs), owner, r,
                                  admissible(us, vs) & (d > 0)))
    return _slopes(best, one)


def local_slope(F: SetValuedMap, q: RegularityQuery, p, x=None, y=None,
                grids: ScanGrids | None = None):
    """Limit of merit difference quotients as competitors approach (x, y).

    Approximated on the geometric radius schedule of ``_step_schedule``, 13
    halving radii from one set by the point's distance to the target; the
    reported value is the maximum over the last three levels; the levels
    are nested, so that is the level of the third-last radius.  Competitors
    are honest graph points stepped along first-order optimal directions,
    which read no scan grid (``grids`` is taken for the checkers' common
    call).  ``p``, ``x`` and ``y`` are as for ``nonlocal_slope``.
    """
    batches, one = _batches(F, p, x, y)
    _, xs, ys = stack_batches(F, batches)
    W, nw = _targets(q, ys)
    radii = _step_schedule(nw, q.gamma)
    reach = radii[:, -_LAST] * (1 + 1e-9)
    owner, us, vs = _steps(F, q, batches, radii, reach)
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
    k, xs, ys = stack_batches(F, batches)
    vals = slope_fn(F, q, batches, grids=grids)
    scan = MarginScan(tol)
    scan.add(vals - q.alpha, lambda i: {
        "p": batches[k[i]].p, "x": xs[i], "y": ys[i], "value": float(vals[i]),
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
