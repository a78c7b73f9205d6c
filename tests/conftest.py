"""Shared fixtures: reference mappings with known closed forms.

The affine singleton map F(p, x) = {a x + b p + c} has modulus |a| (1-D),
solution map x = (ybar - b p - c)/a, recede rate |b|, and graph normal cone
spanned by the rows (-a^T e_j, e_j).  The halfplane-valued polyhedral map
F(p, x) = [a x + b p + c, +inf) has the same modulus and solution map
structure for a > 0.  Both families drive the randomized acceptance suites.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

import regulab.implicit
import regulab.oracle
import regulab.sets
from regulab import (
    ClosedFormMap,
    GridSpec,
    NormedSpace,
    PolyhedralGraphMap,
    RegularityQuery,
    ScanGrids,
)
from regulab.mappings import condition_scan_points
from regulab.sets import ConeRep, dist_to_region

# a failing random case prints the @reproduce_failure blob that replays it;
# every other setting is hypothesis's default or the test's own
settings.register_profile("regulab", print_blob=True)
settings.load_profile("regulab")


def scan_points(F, q, grids, x_radius) -> list:
    """The points of ``condition_scan_points`` one by one, as ``(p, x, y)``
    namespaces, for tests that call the one-point functions."""
    return [SimpleNamespace(p=b.p, x=x, y=y)
            for b in condition_scan_points(F, q, grids, x_radius)
            for x, y in zip(b.xs, b.ys)]


def one_point_distances(F, p, xs, ybar, grids) -> np.ndarray:
    """d(x, G(p)) of each row of ``xs`` as a scan parameter by parameter
    measured it: through the map's distance rule where it applies, else one
    ``dist_to_region`` call per row."""
    ybar = np.atleast_1d(np.asarray(ybar, dtype=float))
    if getattr(F, "solution_dist_rule", None) is not None and \
            F._matches_target(ybar):
        return F.solution_distance_vec(p, xs, ybar, grids)
    region = F.solution_set(p, ybar, grids)
    return np.array([dist_to_region(x, region)[0] for x in xs], dtype=float)


def abs_shift_map():
    """F(p, x) = {x - |p|}, G(p) = {|p|}: the parameters p and -p scan the
    same rows, so every margin at p ties with the one at -p."""
    return ClosedFormMap(
        X1, Y1, value_rule=lambda p, xs: xs - abs(np.atleast_1d(p)[0]),
        param_space=P1,
        residual_rule=lambda p, xs, ybar: np.abs(
            xs[:, 0] - abs(np.atleast_1d(p)[0]) - ybar[0]),
        solution_fn=lambda p: np.array([[abs(np.atleast_1d(p)[0])]]),
        solution_dist_rule=lambda p, xs: np.abs(
            xs[:, 0] - abs(np.atleast_1d(p)[0])),
        target=[0.0])


def assert_same_certificate(cert, ref):
    """Verdict, ``repr`` of the margin, witness p, x and value, points
    scanned and detail all equal."""
    assert cert.verdict is ref.verdict
    assert repr(cert.margin) == repr(ref.margin)
    assert cert.scan_meta["points_scanned"] == ref.scan_meta["points_scanned"]
    assert cert.detail == ref.detail
    if ref.witness is None:
        assert cert.witness is None
    else:
        for key in ("p", "x"):
            assert np.asarray(cert.witness[key]).tolist() == \
                np.asarray(ref.witness[key]).tolist()
        assert repr(cert.witness["value"]) == repr(ref.witness["value"])


def small_blocks(monkeypatch, rows=7):
    """Stack at most ``rows`` rows at once in every scan and distance
    matrix."""
    for module in (regulab.oracle, regulab.implicit, regulab.sets):
        monkeypatch.setattr(module, "_BLOCK", rows)


X1 = NormedSpace("X", 1)
Y1 = NormedSpace("Y", 1)
P1 = NormedSpace("P", 1)


def affine_map_1d(a: float, b: float, c: float = 0.0) -> ClosedFormMap:
    """F(p, x) = {a x + b p + c}; modulus |a|, recede rate |b| at target 0."""

    def value(p, x):
        return np.array([[a * x[0] + b * float(np.atleast_1d(p)[0]) + c]])

    def solution(p):
        return np.array([[-(b * float(np.atleast_1d(p)[0]) + c) / a]])

    def solution_any(p, ybar):
        pv = float(np.atleast_1d(p)[0])
        return np.array([[(ybar[0] - b * pv - c) / a]])

    def cone(p, x, y):
        return ConeRep.make(lineality=[[a, -1.0]])

    def residual_rule(p, xs, ybar):
        return np.abs(a * xs[:, 0] + b * np.atleast_1d(p)[0] + c - ybar[0])

    def sol_dist(p, xs):
        return np.abs(xs[:, 0] + (b * np.atleast_1d(p)[0] + c) / a)

    return ClosedFormMap(X1, Y1, value, param_space=P1, solution_fn=solution,
                         solution_any_fn=solution_any, cone_fn=cone,
                         residual_rule=residual_rule,
                         solution_dist_rule=sol_dist, target=[0.0],
                         convex=True)


def halfplane_map_1d(a: float, b: float, c: float = 0.0) -> PolyhedralGraphMap:
    """F(p, x) = [a x + b p + c, +inf); graph {a x - y <= -(b p + c)}."""
    assert a > 0

    def pieces(p):
        pv = float(np.atleast_1d(p)[0])
        return [(np.array([[a, -1.0]]), np.array([-(b * pv + c)]))]

    return PolyhedralGraphMap(X1, Y1, pieces, param_space=P1, convex=True)


def kinked_map_1d(a1=1.6, a2=0.9, b=0.3):
    """A nonconvex two-piece union, F(p, x) = [a1 x - b p, inf) for x <= 0
    and [a2 x - b p, inf) for x >= 0: a graph with a kink at x = 0."""
    def pieces(p):
        s = b * float(np.atleast_1d(p)[0])
        return [(np.array([[a1, -1.0], [1.0, 0.0]]), np.array([s, 0.0])),
                (np.array([[a2, -1.0], [-1.0, 0.0]]), np.array([s, 0.0]))]

    return PolyhedralGraphMap(X1, Y1, pieces, param_space=P1, convex=False)


def affine_map_2d(A: np.ndarray, B: np.ndarray) -> ClosedFormMap:
    """F(p, x) = {A x + B p} with invertible 2x2 A; modulus = smallest
    singular value of A at target 0 (Euclidean norms)."""
    X = NormedSpace("X", 2)
    Y = NormedSpace("Y", 2)
    P = NormedSpace("P", 1)
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float).reshape(2, 1)

    def value(p, x):
        return (A @ x + (B @ np.atleast_1d(p)))[None, :]

    def solution(p):
        return np.linalg.solve(A, -(B @ np.atleast_1d(p)))[None, :]

    def cone(p, x, y):
        lin = np.hstack([-A, np.eye(2)])
        return ConeRep.make(lineality=lin)

    def residual_rule(p, xs, ybar):
        vals = xs @ A.T + (B @ np.atleast_1d(p))[None, :]
        return np.linalg.norm(vals - ybar[None, :], axis=1)

    def sol_dist(p, xs):
        x0 = np.linalg.solve(A, -(B @ np.atleast_1d(p)))
        # distance to the singleton solution is not |x - x0| in general for
        # the modulus, but the solution SET is the singleton {x0}
        return np.linalg.norm(xs - x0[None, :], axis=1)

    return ClosedFormMap(X, Y, value, param_space=P, solution_fn=solution,
                         cone_fn=cone, residual_rule=residual_rule,
                         solution_dist_rule=sol_dist,
                         target=np.zeros(2), convex=True)


def counting_rule(F: ClosedFormMap) -> list:
    """Wrap F's rule so that it records every (p, x) it is evaluated at."""
    seen = []
    rule = F.value_fn

    def value(p, x):
        seen.append((tuple(np.atleast_1d(p)), tuple(x)))
        return rule(p, x)

    F.value_fn = value
    return seen


def grids_1d(x_res=21, p_res=5, x_lim=1.0, p_lim=0.3) -> ScanGrids:
    return ScanGrids(
        x=GridSpec((-x_lim,), (x_lim,), x_res),
        y=GridSpec((-x_lim,), (x_lim,), x_res),
        p=GridSpec((-p_lim,), (p_lim,), p_res),
    )


def query_1d(alpha, delta=0.6, mu=0.6, eta=0.4, gamma=1.0, tau=0.99):
    return RegularityQuery(xbar=(0.0,), ybar=(0.0,), pbar=(0.0,), alpha=alpha,
                           delta=delta, mu=mu, eta=eta, gamma=gamma, tau=tau)


def random_convex_instances(n: int, seed: int = 7):
    """Deterministic stream of (map, modulus, kind) convex instances."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        a = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        b = rng.uniform(-0.8, 0.8)
        c = rng.uniform(-0.05, 0.05)
        if i % 3 == 2:
            F = halfplane_map_1d(abs(a), b, c)
            out.append((F, abs(a), "halfplane"))
        else:
            F = affine_map_1d(a, b, c)
            out.append((F, abs(a), "affine"))
    return out


@pytest.fixture(scope="session")
def convex_suite():
    return random_convex_instances(102)
