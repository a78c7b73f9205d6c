"""Values the benchmark checks regulab's answers against, computed apart
from the program.

Nothing here imports regulab.  Residuals, solution distances, moduli,
margins and dual distances come from the closed forms of the benchmark's map
families, evaluated with plain numpy on the benchmark's own grids:

* ``Halfplane``  F(p, x) = [a x + b p + c, +inf), a > 0 (convex graph);
* ``Kinked``     F(p, x) = [g(x) + b p + c, +inf) with g(x) = a1 x for
  x <= 0 and a2 x for x >= 0; a1 > a2 > 0 makes the graph a nonconvex union
  of two polyhedra;
* ``Affine``     F(p, x) = {A x + B p} (the shipped ``difference`` map is
  A = -1, B = 1; ``affine-2d`` uses an invertible 2x2 A);
* ``Quadratic``  F(p, x) = {(p - x)^2} (the shipped refuted example).

Every family has target ybar = 0 and solution map x*(p).
"""

from __future__ import annotations

import math

import numpy as np

# relative guard regulab applies to the strict residual cap alpha*mu
STRICT = 1.0 - 1e-12


def _first(v):
    return float(np.ravel(v)[0])


def grid(lower, upper, resolution):
    """All points of a uniform grid as an (n, dim) array."""
    axes = [np.linspace(lo, up, resolution) for lo, up in zip(lower, upper)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def in_ball(points, center, radius):
    """Mask of the open ball, as the scans use it."""
    if math.isinf(radius):
        return np.ones(points.shape[0], dtype=bool)
    return np.linalg.norm(points - np.asarray(center)[None, :], axis=1) < radius


class Halfplane:
    def __init__(self, a, b, c):
        self.a, self.b, self.c = float(a), float(b), float(c)

    def shift(self, p):
        return self.b * float(np.ravel(p)[0]) + self.c

    def lower_edge(self, p, x):
        return self.a * np.asarray(x, dtype=float) + self.shift(p)

    def x_star(self, p):
        return -self.shift(p) / self.a

    def residual(self, p, xs):
        return np.maximum(0.0, self.lower_edge(p, xs[:, 0]))

    def distance(self, p, xs):
        return np.maximum(0.0, xs[:, 0] - self.x_star(p))

    def solution_pieces(self, p):
        """Solution set as 1-D intervals (lo, hi), one per graph piece."""
        return [(-math.inf, self.x_star(p))]

    def solution_samples(self, p, xs):
        return interval_samples(self.solution_pieces(p), xs[:, 0])

    def on_graph(self, p, x, y, tol=1e-8):
        return _first(y) >= self.lower_edge(p, _first(x)) - tol

    def on_edge(self, p, x, y, tol=1e-8):
        return abs(_first(y) - self.lower_edge(p, _first(x))) <= tol

    def descent_rate(self, p, x):
        """Rate at which the lower edge falls as x decreases from x."""
        return self.a


class Kinked(Halfplane):
    def __init__(self, a1, a2, b, c):
        self.a1, self.a2 = float(a1), float(a2)
        self.b, self.c = float(b), float(c)

    def lower_edge(self, p, x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= 0, self.a1 * x, self.a2 * x) + self.shift(p)

    def x_star(self, p):
        s = -self.shift(p)
        return s / self.a1 if s <= 0 else s / self.a2

    def solution_pieces(self, p):
        s = -self.shift(p)
        pieces = [(-math.inf, min(0.0, s / self.a1))]
        if s >= 0:
            pieces.append((0.0, s / self.a2))
        return pieces

    def descent_rate(self, p, x):
        return self.a1 if _first(x) <= 1e-12 else self.a2


class Affine:
    def __init__(self, A, B):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self.B = np.asarray(B, dtype=float).reshape(self.A.shape[0], -1)

    def value(self, p, xs):
        return xs @ self.A.T + (self.B @ np.atleast_1d(p))[None, :]

    def x_star(self, p):
        return np.linalg.solve(self.A, -(self.B @ np.atleast_1d(p)))

    def residual(self, p, xs):
        return np.linalg.norm(self.value(p, xs), axis=1)

    def distance(self, p, xs):
        return np.linalg.norm(xs - self.x_star(p)[None, :], axis=1)

    def solution_samples(self, p, xs):
        return self.x_star(p)[None, :]

    def on_graph(self, p, x, y, tol=1e-8):
        return np.linalg.norm(self.value(p, np.atleast_2d(x))[0] - y) <= tol

    def sigma_min(self):
        return float(np.linalg.svd(self.A, compute_uv=False)[-1])

    def aubin_rate(self):
        return float(np.linalg.norm(np.linalg.solve(self.A, self.B), 2))

    def recede_rate(self):
        return float(np.linalg.norm(self.B, 2))


class Quadratic:
    def residual(self, p, xs):
        return (float(np.ravel(p)[0]) - xs[:, 0]) ** 2

    def distance(self, p, xs):
        return np.abs(xs[:, 0] - float(np.ravel(p)[0]))


def scan_points(family, xs, ps, xbar, delta):
    """(p, x, residual, distance) over the oracle's scan set, stacked."""
    xs = xs[in_ball(xs, xbar, delta)]
    rows = [(np.repeat(p[None, :], len(xs), 0), xs, family.residual(p, xs),
             family.distance(p, xs)) for p in ps]
    return [np.concatenate(col) for col in zip(*rows)]


def oracle_margin(family, xs, ps, xbar, delta, alpha, mu):
    """min of residual - alpha*distance over scan points with residual below
    alpha*mu (inf when no point qualifies)."""
    _, _, res, dist = scan_points(family, xs, ps, xbar, delta)
    keep = res <= alpha * mu * STRICT
    return float(np.min(res[keep] - alpha * dist[keep])) if keep.any() else math.inf


def grid_modulus(family, xs, ps, xbar, delta, mu):
    """Best rate the oracle scan certifies: each point off the solution set
    rules out every alpha above max(res/dist, res/mu)."""
    _, _, res, dist = scan_points(family, xs, ps, xbar, delta)
    off = dist > 0
    if not off.any():
        return math.inf
    return float(np.min(np.maximum(res[off] / dist[off], res[off] / mu)))


def param_pairs(ps, pbar, eta, mu):
    """Ordered pairs (p, p') of scanned parameters with 0 < |p - p'| < mu."""
    ps = ps[in_ball(ps, pbar, eta)]
    for p in ps:
        for pp in ps:
            d = float(np.linalg.norm(p - pp))
            if 0 < d < mu:
                yield p, pp, d


def interval_samples(pieces, xs_1d):
    """Sample points of a union of 1-D intervals: every grid point clipped
    into each nonempty piece, plus the pieces' finite endpoints."""
    out = []
    for lo, hi in pieces:
        out.append(np.clip(xs_1d, lo, hi))
        out.append([e for e in (lo, hi) if math.isfinite(e)])
    return np.concatenate(out)[:, None]


def recede_aubin_margins(family, xs, ps, pbar, eta, xbar, delta, mu, l_rec,
                        l_aub):
    """(recede margin, Aubin margin): min of l_rec*|p-p'| - d(0, F(p,x)) and
    of l_aub*|p-p'| - d(x, G(p)) over x in the sampled G(p') within the
    delta-ball (inf when no pair has a sample)."""
    rec = aub = math.inf
    for p, pp, d in param_pairs(ps, pbar, eta, mu):
        sol = family.solution_samples(pp, xs)
        sol = sol[in_ball(sol, xbar, delta)]
        if sol.shape[0] == 0:
            continue
        rec = min(rec, float(np.min(l_rec * d - family.residual(p, sol))))
        aub = min(aub, float(np.min(l_aub * d - family.distance(p, sol))))
    return rec, aub


def edge_dual_distance(a, gamma):
    """d_gamma((0, -1), N) at an edge point of a 1-D graph with slope a and
    y above the target: the two candidate cone elements give min(a, 1/gamma)."""
    return min(abs(a), 1.0 / gamma)


def dual_distance_1d(family, p, x, y, gamma):
    """Merit dual distance at a graph point of a 1-D halfplane-type family
    (equal to the local slope): min(rate, 1/gamma) on the edge with y above
    the target, 1/gamma elsewhere."""
    if _first(y) > 0 and family.on_edge(p, x, y):
        return edge_dual_distance(family.descent_rate(p, x), gamma)
    return 1.0 / gamma


def coderivative_1d(family, p, x, y, eta):
    """min |x*| over (x*, -v*) in the graph normal cone with |v* - 1| <= eta,
    at an edge point with y above the target: rate * (1 - eta)."""
    return family.descent_rate(p, x) * (1.0 - eta)


def dual_distance_2d(A, yhat, gamma):
    """min over z of |A^T z| + |z - yhat|/gamma: the weighted dual distance
    from (0, -yhat) to the normal space {(-A^T w, w)} of an affine graph.

    The function is convex; it is minimised over a fine polar grid of z and
    then refined around the best grid point by shrinking pattern search.
    """
    A = np.asarray(A, float)
    yhat = np.asarray(yhat, float)

    def f(Z):
        return (np.linalg.norm(Z @ A, axis=1)
                + np.linalg.norm(Z - yhat[None, :], axis=1) / gamma)

    r = np.linalg.norm(yhat) * np.linspace(0.0, 2.0, 401)
    th = np.linspace(0.0, 2 * np.pi, 720, endpoint=False)
    Z = np.concatenate([(r[:, None, None] * np.stack(
        [np.cos(th), np.sin(th)], -1)[None]).reshape(-1, 2), [yhat]])
    vals = f(Z)
    z, best = Z[int(np.argmin(vals))], float(np.min(vals))
    step = float(r[1])
    dirs = np.stack([np.cos(th[::45]), np.sin(th[::45])], -1)
    while step > 1e-12:
        cand = z[None, :] + step * dirs
        cv = f(cand)
        i = int(np.argmin(cv))
        if cv[i] < best:
            z, best = cand[i], float(cv[i])
        else:
            step /= 2
    return best
