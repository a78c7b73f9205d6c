"""The benchmark's workloads: their inputs, one round of operations, and the
checks of every answer against ``reference``.

A round is a fixed list of operations, so every round of a workload does the
same work and attempts the same number of operations.  Maps are built afresh
at the start of each round, so no cache inside a map carries over from one
round to the next.  An operation fails when regulab raises or when any check
of its answer fails; ``run_round`` reports which.

Each check of a condition (oracle, slope, dual, recede, Aubin) is timed into
``run_s``; each ``estimate_modulus`` call into ``modulus_s``; both at the
reference speed of ``speed``.  The checks of the answers run after the
timed calls and are timed into neither.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import time

import numpy as np
import regulab.cli
import regulab.dual
import regulab.implicit
import regulab.oracle
import regulab.slope
from regulab.implicit import AubinQuery
from regulab.mappings import (ClosedFormMap, PolyhedralGraphMap,
                              RegularityQuery, ScanGrids)
from regulab.oracle import Verdict
from regulab.sets import ConeRep
from regulab.spaces import GridSpec, NormedSpace

import reference as R

# A margin that is 0 in exact arithmetic comes out of the program as a
# difference of rounded floats; a HOLDS margin below -ROUNDING is not
# rounding but a tolerance band letting a negative margin through.
ROUNDING = 1e-12
# agreement of a regulab value with its closed form or brute-force value
CLOSE = 1e-9
# agreement of an optimisation-based value (slopes, SLSQP distances)
CLOSE_OPT = 1e-6
GAMMAS = (0.5, 1.0, 2.0)
# The seed moves every map coefficient by up to this share.  The moves are
# small enough that no grid point changes side of a graph edge or of a scan
# radius, so every seed does the same work and the spread of a metric over
# seeds is the machine's, not the inputs'; the checked values still change.
PERTURB = 0.01
# estimate_modulus on a closed-form map takes tens of milliseconds; the
# workloads with such maps call it this many times a round so that its
# median rests on enough samples
MODULUS_REPEAT = 5


def close(value, ref, tol=CLOSE) -> bool:
    return abs(value - ref) <= tol * max(1.0, abs(ref))


class Op:
    """One call into regulab and the checks of its answer.

    The call answers ``parts`` operations (one, or one per check of a
    scenario run).  ``check(answer)`` returns a list of problems for a
    single part, or a dict from part name to its list of problems; an empty
    list means the answer is right.  ``kind`` is ``"run"`` or ``"modulus"``.
    """

    def __init__(self, name, call, check, kind="run", parts=None):
        self.name, self.call, self.check, self.kind = name, call, check, kind
        self.parts = parts or [name]


def repeated(op, n):
    """``n`` copies of ``op``, named ``<name>#<i>`` when n > 1; ``run.py``
    pools the call times of copies."""
    if n == 1:
        return [op]
    return [Op(f"{op.name}#{i}", op.call, op.check, op.kind)
            for i in range(n)]


def fingerprint(answer):
    """Exact summary of an answer, compared between rounds."""
    if isinstance(answer, regulab.oracle.Certificate):
        return (answer.verdict.value, repr(answer.margin))
    if isinstance(answer, dict):
        return repr(sorted(answer.items()))
    return repr(answer)


def run_round(ops, meter, tracer=None):
    """Time every operation, then check every answer.

    Returns ``(op_s, wall_s, attempted, failures, prints)``: the seconds of
    each call at reference speed (see ``speed``) and on the wall clock, in
    order; the number of operations; a map from the name of each failed
    operation to its problems; the answers' fingerprints in order.
    """
    if tracer is not None:
        tracer.reset()
        tracer.install()
    answers, op_s, wall_s = [], [], []
    try:
        for op in ops:
            first = meter.mark()
            t0 = time.perf_counter()
            try:
                answer = op.call()
            except Exception as exc:  # a raising operation is a failed one
                answer = exc
            t1 = time.perf_counter()
            op_s.append(meter.reference_time(t0, t1, first))
            wall_s.append(t1 - t0)
            answers.append(answer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    failures = {}
    for op, answer in zip(ops, answers):
        if isinstance(answer, Exception):
            found = {part: [f"raised {type(answer).__name__}: {answer}"]
                     for part in op.parts}
        else:
            found = op.check(answer)
            if not isinstance(found, dict):
                found = {op.name: found}
        failures.update((part, found[part]) for part in op.parts
                        if found.get(part))
    attempted = sum(len(op.parts) for op in ops)
    prints = [fingerprint(a) if not isinstance(a, Exception) else repr(a)
              for a in answers]
    return op_s, wall_s, attempted, failures, prints


# ---------------------------------------------------------------------------
# checks shared by the workloads


def witness_oracle(family, p, x, value, margin, alpha, delta, mu, xbar):
    """Re-check an oracle witness from the closed-form residual and distance."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    res = float(family.residual(p, x[None, :])[0])
    dist = float(family.distance(p, x[None, :])[0])
    problems = []
    if not np.linalg.norm(x - xbar) < delta:
        problems.append("witness x outside the delta-ball")
    if not res <= alpha * mu:
        problems.append(f"witness residual {res:.6g} above alpha*mu")
    if not res - alpha * dist < 0:
        problems.append(f"witness satisfies the estimate: res {res:.6g}, "
                        f"alpha*dist {alpha * dist:.6g}")
    elif not close(value, res / dist):
        problems.append(f"witness ratio {value:.12g} != res/dist "
                        f"{res / dist:.12g}")
    if not close(margin, res - alpha * dist):
        problems.append(f"margin {margin:.12g} != witness res - alpha*dist "
                        f"{res - alpha * dist:.12g}")
    return problems


def witness_geometric(family, p, x, rho, margin, alpha, mu):
    """Re-check a ball-intersection witness: the closed ball of radius rho
    around x misses G(p) although the residual is below alpha*rho."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    res = float(family.residual(p, x[None, :])[0])
    dist = float(family.distance(p, x[None, :])[0])
    problems = []
    if not dist > rho:
        problems.append(f"ball of radius {rho:.6g} meets G(p) (dist {dist:.6g})")
    if not res < alpha * rho:
        problems.append(f"residual {res:.6g} not below alpha*rho")
    if not rho < mu:
        problems.append("rho not below mu")
    if not close(margin, rho - dist):
        problems.append(f"margin {margin:.12g} != rho - dist {rho - dist:.12g}")
    return problems


class Case:
    """A seeded map with its grids, queries and brute-force references."""

    def __init__(self, name, family, build, nx, x_res, p_res, delta=0.6,
                 mu=0.6, eta=0.4):
        self.name, self.family, self.build = name, family, build
        self.delta, self.mu, self.eta = delta, mu, eta
        self.xbar, self.pbar = np.zeros(nx), np.zeros(1)
        self.xs = R.grid([-1.0] * nx, [1.0] * nx, x_res)
        ps = R.grid([-0.3], [0.3], p_res)
        self.ps = ps[R.in_ball(ps, self.pbar, eta)]
        box = GridSpec((-1.0,) * nx, (1.0,) * nx, x_res)
        self.grids = ScanGrids(x=box, y=box, p=GridSpec((-0.3,), (0.3,), p_res))
        self.spacing = 2.0 / (x_res - 1)
        self.modulus = R.grid_modulus(family, self.xs, self.ps, self.xbar,
                                      delta, mu)
        self._margins = {}
        self.F = None

    def fresh(self):
        self.F = self.build()

    def query(self, alpha, gamma=1.0):
        return RegularityQuery(xbar=tuple(self.xbar), ybar=tuple(self.xbar),
                               pbar=tuple(self.pbar), alpha=alpha,
                               delta=self.delta, mu=self.mu, eta=self.eta,
                               gamma=gamma)

    def oracle_margin(self, alpha):
        if alpha not in self._margins:
            self._margins[alpha] = R.oracle_margin(
                self.family, self.xs, self.ps, self.xbar, self.delta, alpha,
                self.mu)
        return self._margins[alpha]

    # --- operations ------------------------------------------------------
    def oracle_op(self, alpha, geometric=False):
        fn = "check_geometric" if geometric else "check_subreg_uniform"
        q = self.query(alpha)

        def call():
            return getattr(regulab.oracle, fn)(self.F, q, self.grids)

        def check(cert):
            ref = self.oracle_margin(alpha)
            problems = _holds_margin(cert)
            if (cert.verdict is Verdict.VIOLATED) != (ref < 0):
                problems.append(f"verdict {cert.verdict.value} but brute-force "
                                f"margin {ref:.6g}")
            w = cert.witness
            if cert.verdict is Verdict.VIOLATED and not w:
                problems.append("VIOLATED without a witness")
            elif cert.verdict is Verdict.VIOLATED:
                if geometric:
                    problems += witness_geometric(self.family, w["p"], w["x"],
                                                  w["value"], cert.margin,
                                                  alpha, self.mu)
                else:
                    problems += witness_oracle(self.family, w["p"], w["x"],
                                               w["value"], cert.margin, alpha,
                                               self.delta, self.mu, self.xbar)
            if not geometric and not close(cert.margin, ref):
                problems.append(f"margin {cert.margin:.12g} != brute-force "
                                f"{ref:.12g}")
            return problems

        label = "geometric" if geometric else "oracle"
        return Op(f"{self.name}:{label}@{alpha:.4g}", call, check)

    def condition_op(self, label, module, fn, alpha, mode="sufficient",
                     value_ref=None, **kw):
        """A primal or dual condition check.

        ``value_ref(p, x, y, gamma)`` gives the closed-form value at a point
        where one is known; the witness value of a VIOLATED answer is
        checked against it.
        """
        q = self.query(alpha)
        gamma = 1.0 / alpha if mode == "necessary" else q.gamma
        x_radius = self.delta if mode == "necessary" else self.delta + self.mu
        threshold = alpha
        if label.startswith("coderivative"):
            threshold = alpha * (1 - self.eta) if mode == "necessary" else alpha

        def call():
            return getattr(module, fn)(self.F, q, self.grids, mode=mode, **kw)

        def check(cert):
            problems = _holds_margin(cert)
            ref = self.oracle_margin(alpha)
            if mode == "sufficient" and cert.holds and ref < 0:
                problems.append("sufficient condition HOLDS where the oracle "
                                "refutes")
            if (mode == "necessary" and ref >= 0
                    and cert.verdict is Verdict.VIOLATED):
                problems.append("necessary condition VIOLATED where the "
                                "oracle certifies")
            if cert.verdict is Verdict.VIOLATED:
                problems += self._witness_point(cert, alpha, x_radius,
                                                threshold, gamma, value_ref)
            return problems

        return Op(f"{self.name}:{label}:{mode}@{alpha:.4g}", call, check)

    def _witness_point(self, cert, alpha, x_radius, threshold, gamma,
                       value_ref):
        w = cert.witness
        if not w:
            return ["VIOLATED without a witness"]
        p, x, y, value = w["p"], np.asarray(w["x"]), np.asarray(w["y"]), \
            float(w["value"])
        problems = []
        if not self.family.on_graph(p, x, y):
            problems.append("witness off the graph")
        if not 0 < np.linalg.norm(y) <= alpha * self.mu:
            problems.append("witness |y - ybar| outside ]0, alpha*mu]")
        if not np.linalg.norm(x - self.xbar) < x_radius:
            problems.append("witness x outside the scan ball")
        if not float(self.family.distance(p, x[None, :])[0]) > 1e-9:
            problems.append("witness x on the solution set")
        if not value < threshold:
            problems.append(f"witness value {value:.6g} clears {threshold:.6g}")
        if value_ref is not None:
            ref = value_ref(p, x, y, gamma)
            if not close(value, ref, CLOSE_OPT):
                problems.append(f"witness value {value:.12g} != closed form "
                                f"{ref:.12g}")
        return problems

    def stability_ops(self, l_rec, l_aub):
        """Recede at rate l_rec and Aubin at rate l_aub, checked against the
        brute-force margins."""
        q = self.query(1.0)
        aq = AubinQuery(pbar=tuple(self.pbar), xbar=tuple(self.xbar),
                        ybar=tuple(self.xbar), l=l_aub, eta=self.eta,
                        delta=self.delta, mu=self.mu)
        refs = R.recede_aubin_margins(self.family, self.xs, self.ps,
                                      self.pbar, self.eta, self.xbar,
                                      self.delta, self.mu, l_rec, l_aub)

        def checker(ref):
            def check(cert):
                problems = _holds_margin(cert)
                if (cert.verdict is Verdict.VIOLATED) != (ref < -1e-9):
                    problems.append(f"verdict {cert.verdict.value} but "
                                    f"brute-force margin {ref:.6g}")
                if not close(cert.margin, ref):
                    problems.append(f"margin {cert.margin:.12g} != "
                                    f"brute-force {ref:.12g}")
                return problems
            return check

        return [
            Op(f"{self.name}:recede@{l_rec:.4g}", lambda: regulab.implicit
               .check_recede(self.F, q, l_rec, self.grids), checker(refs[0])),
            Op(f"{self.name}:aubin@{l_aub:.4g}", lambda: regulab.implicit
               .check_aubin(self.F, aq, self.grids), checker(refs[1])),
        ]

    def modulus_ops(self, lower, upper, repeat=1):
        return modulus_ops(
            self.name, lambda: regulab.oracle.estimate_modulus(
                self.F, tuple(self.xbar), tuple(self.xbar), self.delta,
                self.mu, self.grids, pbar=tuple(self.pbar), eta=self.eta),
            lambda: self.modulus, lower, upper, repeat)

    def dual_probe_ops(self, p, x, y, expected):
        return dual_probe_ops(self.name, lambda: self.F, p, x, y, expected,
                              CLOSE_OPT)


def modulus_ops(name, call, brute, lower, upper, repeat):
    """``repeat`` copies of ``call``, an estimate_modulus, each checked
    against the brute-force grid modulus ``brute()`` and the closed-form
    bracket [lower, upper]."""

    def check(est):
        ref = brute()
        problems = []
        if not close(est, ref, 1e-8):
            problems.append(f"modulus {est:.12g} != brute-force {ref:.12g}")
        if not lower - 1e-9 <= est <= upper + 1e-9:
            problems.append(f"modulus {est:.12g} outside closed-form "
                            f"[{lower:.12g}, {upper:.12g}]")
        return problems

    return repeated(Op(f"{name}:modulus", call, check, kind="modulus"),
                    repeat)


def dual_probe_ops(name, get_map, p, x, y, expected, tol):
    """subdiff_distance at the graph point (x, y) of F_p, F = get_map(),
    for each gamma in GAMMAS, against ``expected(gamma)`` within ``tol``."""
    p, x, y = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (p, x, y))
    ops = []
    for gamma in GAMMAS:
        q = RegularityQuery(xbar=(0.0,) * len(x), ybar=(0.0,) * len(y),
                            alpha=1.0, delta=1.0, mu=1.0, gamma=gamma)

        def call(q=q):
            return regulab.dual.subdiff_distance(get_map(), q, p, x, y)

        def check(val, gamma=gamma):
            ref = expected(gamma)
            return [] if close(val, ref, tol) else [
                f"dual distance {val:.12g} != closed form {ref:.12g}"]

        ops.append(Op(f"{name}:dual-distance@gamma={gamma:g}", call, check))
    return ops


def _holds_margin(cert):
    if cert.holds and not cert.margin >= -ROUNDING:
        return [f"HOLDS with margin {cert.margin:.6g} < 0"]
    return []


# ---------------------------------------------------------------------------
# map builders (regulab's public API, as a library user would call it)

X1, Y1, P1 = NormedSpace("X", 1), NormedSpace("Y", 1), NormedSpace("P", 1)


def halfplane_map(h: R.Halfplane):
    def pieces(p):
        return [(np.array([[h.a, -1.0]]), np.array([-h.shift(p)]))]

    return lambda: PolyhedralGraphMap(X1, Y1, pieces, param_space=P1,
                                      convex=True)


def kinked_map(k: R.Kinked):
    def pieces(p):
        s = -k.shift(p)
        return [(np.array([[k.a1, -1.0], [1.0, 0.0]]), np.array([s, 0.0])),
                (np.array([[k.a2, -1.0], [-1.0, 0.0]]), np.array([s, 0.0]))]

    return lambda: PolyhedralGraphMap(X1, Y1, pieces, param_space=P1,
                                      convex=False)


def affine_map(f: R.Affine):
    """F(p, x) = {A x + B p} with its graph's normal space
    {(-A^T w, w)}, whose basis rows are [-A | I]."""
    n = f.A.shape[0]
    X, Y = NormedSpace("X", n), NormedSpace("Y", n)
    A, B = f.A, f.B
    cone = ConeRep.make(lineality=np.hstack([-A, np.eye(n)]))

    def value(p, x):
        return (A @ x + B @ np.atleast_1d(p))[None, :]

    def solution(p):
        return f.x_star(p)[None, :]

    def residual_rule(p, xs, ybar):
        return np.linalg.norm(xs @ A.T + (B @ np.atleast_1d(p))[None, :]
                              - ybar[None, :], axis=1)

    def sol_dist(p, xs):
        return np.linalg.norm(xs - f.x_star(p)[None, :], axis=1)

    return lambda: ClosedFormMap(
        X, Y, value, param_space=P1, solution_fn=solution,
        cone_fn=lambda p, x, y: cone, residual_rule=residual_rule,
        solution_dist_rule=sol_dist, target=np.zeros(n), convex=True)


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Inputs made from a seed; ``setup`` then repeated ``round`` calls."""

    def __init__(self, seed: int, out_dir: str):
        self.out_dir = out_dir
        self.rng = np.random.default_rng(seed)
        self.ops: list[Op] = []
        self.cases: list[Case] = []

    def perturb(self, base):
        """``base`` with every coefficient scaled by a seeded factor in
        [1 - PERTURB, 1 + PERTURB]."""
        base = np.asarray(base, dtype=float)
        return base * (1 + self.rng.uniform(-PERTURB, PERTURB, base.shape))

    def setup(self) -> dict:
        """Build inputs; returns the set-up layer times."""
        return {}

    def round(self, meter, tracer=None):
        for case in self.cases:
            case.fresh()
        return run_round(self.ops, meter, tracer)


class Polyhedral(Workload):
    """A halfplane map (convex) and a two-piece kinked union (nonconvex),
    on 5-point X and Y grids and 3 parameters."""

    X_RES, P_RES = 5, 3

    def setup(self):
        h = R.Halfplane(*self.perturb([1.3, 0.4, 0.02]))
        k = R.Kinked(*self.perturb([1.6, 0.9, 0.3, -0.03]))
        H = Case("halfplane", h, halfplane_map(h), 1, self.X_RES, self.P_RES)
        U = Case("kinked", k, kinked_map(k), 1, self.X_RES, self.P_RES)
        self.cases = [H, U]

        def dual_ref(fam):
            return lambda p, x, y, g: R.dual_distance_1d(fam, p, x, y, g)

        def cod_ref(fam, eta):
            return lambda p, x, y, g: R.coderivative_1d(fam, p, x, y, eta)

        S, D = regulab.slope, regulab.dual
        lo, hi = 0.7 * h.a, 1.4 * h.a
        ops = [H.oracle_op(lo), H.oracle_op(lo, geometric=True),
               H.condition_op("slope-nonlocal", S,
                              "check_nonlocal_slope_condition", lo),
               H.condition_op("slope-local", S, "check_local_slope_condition",
                              lo),
               H.condition_op("subdifferential", D,
                              "check_subdifferential_condition", lo),
               H.condition_op("normal-cone", D, "check_normal_cone_condition",
                              lo),
               H.condition_op("normal-cone-cap", D,
                              "check_normal_cone_condition", lo,
                              variant="frechet-cap"),
               H.condition_op("coderivative", D,
                              "check_coderivative_condition", lo,
                              value_ref=cod_ref(h, H.eta))]
        for label, fn in (("subdifferential", "check_subdifferential_condition"),
                          ("normal-cone", "check_normal_cone_condition"),
                          ("coderivative", "check_coderivative_condition")):
            ops.append(H.condition_op(label, D, fn, lo, mode="necessary"))
        ops += [H.oracle_op(hi), H.oracle_op(hi, geometric=True),
                H.condition_op("slope-local", S, "check_local_slope_condition",
                               hi, value_ref=dual_ref(h)),
                H.condition_op("normal-cone", D, "check_normal_cone_condition",
                               hi, value_ref=dual_ref(h))]
        ops += H.stability_ops(abs(h.b) + 0.25, abs(h.b) / h.a + 0.25)
        ops += H.modulus_ops(h.a, h.a)
        ops += H.dual_probe_ops(0.0, (0.25 - h.shift(0.0)) / h.a, 0.25,
                                lambda g: R.edge_dual_distance(h.a, g))

        lo, hi = 0.7 * U.modulus, 1.4 * U.modulus
        ops += [U.oracle_op(lo), U.oracle_op(lo, geometric=True),
                U.condition_op("slope-nonlocal", S,
                               "check_nonlocal_slope_condition", lo),
                U.condition_op("slope-local", S, "check_local_slope_condition",
                               lo),
                U.condition_op("normal-cone-cap", D,
                               "check_normal_cone_condition", lo,
                               variant="frechet-cap"),
                U.condition_op("coderivative-cap", D,
                               "check_coderivative_condition", lo,
                               variant="frechet-cap"),
                U.oracle_op(hi),
                U.condition_op("slope-local", S, "check_local_slope_condition",
                               hi, value_ref=dual_ref(k))]
        ops += U.stability_ops(abs(k.b) + 0.25, abs(k.b) / k.a2 + 0.25)
        ops += U.modulus_ops(k.a2, k.a1)
        self.ops = ops
        return {}


class Affine2d(Workload):
    """A 2-D affine singleton map F(p, x) = {A x + B p} with invertible,
    nonsymmetric A, on a 7x7 X grid and 3 parameters."""

    X_RES, P_RES = 7, 3

    def setup(self):
        A = self.perturb([[1.2, 0.4], [-0.3, 0.9]])
        f = R.Affine(A, self.perturb([[0.3], [-0.2]]))
        C = Case("affine2d", f, affine_map(f), 2, self.X_RES, self.P_RES)
        self.cases = [C]
        smin = f.sigma_min()

        def dual_ref(p, x, y, g):
            return R.dual_distance_2d(A, y / np.linalg.norm(y), g)

        S, D = regulab.slope, regulab.dual
        lo, hi = 0.6 * smin, 1.5 * C.modulus
        ops = [C.oracle_op(lo), C.oracle_op(lo, geometric=True)]
        for mode in ("sufficient", "necessary"):
            ops += [C.condition_op("slope-nonlocal", S,
                                   "check_nonlocal_slope_condition", lo, mode),
                    C.condition_op("subdifferential", D,
                                   "check_subdifferential_condition", lo, mode),
                    C.condition_op("normal-cone", D,
                                   "check_normal_cone_condition", lo, mode),
                    C.condition_op("coderivative", D,
                                   "check_coderivative_condition", lo, mode)]
        ops.append(C.condition_op("slope-local", S,
                                  "check_local_slope_condition", lo))
        ops += [C.oracle_op(hi), C.oracle_op(hi, geometric=True),
                C.condition_op("slope-local", S, "check_local_slope_condition",
                               hi, value_ref=dual_ref),
                C.condition_op("subdifferential", D,
                               "check_subdifferential_condition", hi,
                               value_ref=dual_ref),
                C.condition_op("normal-cone", D, "check_normal_cone_condition",
                               hi, value_ref=dual_ref)]
        ops += C.stability_ops(f.recede_rate() + 0.25, f.aubin_rate() + 0.25)
        ops += C.modulus_ops(smin, smin + C.spacing, MODULUS_REPEAT)
        x0 = np.array([0.3, -0.2])
        y0 = A @ x0
        ops += C.dual_probe_ops(0.0, x0, y0, lambda g: R.dual_distance_2d(
            A, y0 / np.linalg.norm(y0), g))
        self.ops = ops
        return {}


class Examples(Workload):
    """The two shipped scenarios through the ``regulab run --out`` path,
    ``estimate_modulus`` on their maps, and the difference map's dual
    distances.  The scenarios are fixed: the seed changes nothing."""

    # closed-form margins of the difference scenario's checks (alpha = 1,
    # gamma = 1, F(p, x) = {p - x}: ratio res/dist = 1 = min(1, 1/gamma))
    DIFFERENCE_MARGINS = {"oracle": 0.0, "subdifferential": 0.0,
                          "normal-cone": 0.0, "recede": 0.0, "aubin": 0.0}

    def setup(self):
        scen_dir = os.path.join(self.out_dir, "scenarios")
        with contextlib.redirect_stdout(io.StringIO()):
            regulab.cli.main(["examples", "--out", scen_dir],
                             standalone_mode=False)
        t0 = time.perf_counter()
        self.scenarios = [regulab.cli.load_scenario(os.path.join(scen_dir, f))
                          for f in ("example_quadratic.yaml",
                                    "example_difference.yaml")]
        load_s = time.perf_counter() - t0
        self.csv_first = {}
        self.families = {"example_quadratic": R.Quadratic(),
                         "example_difference": R.Affine([[-1.0]], [[1.0]])}
        self.refs = {}
        for sc in self.scenarios:
            self.ops.append(self._scenario_op(sc))
        for sc in self.scenarios:
            self.ops += self._modulus_ops(sc)
        # F(p, x) = {p - x} at (p, x, y) = (0, -0.25, 0.25): min(1, 1/gamma)
        difference = self.scenarios[1]
        self.ops += dual_probe_ops(
            self._stem(difference),
            lambda: regulab.cli.build_mapping(difference), 0.0, -0.25, 0.25,
            lambda g: R.edge_dual_distance(1.0, g), CLOSE)
        return {"cli.load_s": load_s}

    def _stem(self, sc):
        return os.path.splitext(os.path.basename(sc.path))[0]

    def _grid_ref(self, sc):
        """Brute-force grids and references of a scenario (cached)."""
        stem = self._stem(sc)
        if stem not in self.refs:
            g, q = sc.grids, sc.query
            xs = R.grid(g["x"]["lower"], g["x"]["upper"], g["x"]["resolution"])
            ps = R.grid(g["p"]["lower"], g["p"]["upper"], g["p"]["resolution"])
            ps = ps[R.in_ball(ps, np.asarray(q["pbar"], float), q["eta"])]
            fam = self.families[stem]
            xbar = np.asarray(q["xbar"], float)
            ref = {"family": fam, "xbar": xbar,
                   "oracle": R.oracle_margin(fam, xs, ps, xbar, q["delta"],
                                             q["alpha"], q["mu"]),
                   "modulus": R.grid_modulus(fam, xs, ps, xbar, q["delta"],
                                             q["mu"])}
            if "l" in q:
                ref["recede"], ref["aubin"] = R.recede_aubin_margins(
                    fam, xs, ps, np.asarray(q["pbar"], float), q["eta"], xbar,
                    q["delta"], q["mu"], q["l"], q["l"])
            self.refs[stem] = ref
        return self.refs[stem]

    def _scenario_op(self, sc):
        stem = self._stem(sc)
        out = os.path.join(self.out_dir, "results")

        def call():
            code, _ = regulab.cli.run_scenario(sc, out_dir=out)
            with open(os.path.join(out, stem + ".csv"), "rb") as fh:
                return {"code": code, "csv": fh.read()}

        checks = [e if isinstance(e, str) else e["name"] for e in sc.checks]
        return Op(f"{stem}:run", call,
                  lambda answer: self._check_csv(sc, checks, answer),
                  parts=[f"{stem}:csv"] + [f"{stem}:{c}" for c in checks])

    def _check_csv(self, sc, checks, answer):
        """Problems per part: the CSV file as a whole, then each check's row."""
        stem = self._stem(sc)
        self.csv_first.setdefault(stem, answer["csv"])
        problems = []
        if answer["code"] != 0:
            problems.append(f"exit code {answer['code']}")
        if answer["csv"] != self.csv_first[stem]:
            problems.append("CSV bytes differ from the first round")
        rows = {r["check"]: r for r in
                csv.DictReader(io.StringIO(answer["csv"].decode()))}
        found = {f"{stem}:csv": problems}
        ref = self._grid_ref(sc)
        for name in checks:
            row = rows.get(name)
            found[f"{stem}:{name}"] = ["no CSV row"] if row is None else \
                self._check_row(stem, row, ref, sc.query, sc.expect.get(name))
        return found

    def _check_row(self, stem, row, ref, q, expect):
        name, verdict = row["check"], row["verdict"]
        margin = float(row["margin"]) if row["margin"] else math.nan
        problems = []
        if verdict != expect:
            problems.append(f"verdict {verdict}, expected {expect}")
        if verdict == "HOLDS" and not margin >= -ROUNDING:
            problems.append(f"HOLDS with margin {margin:.6g} < 0")
        if verdict == "HOLDS" and ref["oracle"] < 0:
            problems.append("HOLDS where the oracle refutes")
        if name == "oracle" and not close(margin, ref["oracle"]):
            problems.append(f"margin {margin:.12g} != brute-force "
                            f"{ref['oracle']:.12g}")
        if stem == "example_quadratic" and name == "oracle" \
                and not close(margin, -1.0 / 16):
            problems.append(f"margin {margin:.12g} != -1/16")
        if name in ("recede", "aubin") and not close(margin, ref[name]):
            problems.append(f"margin {margin:.12g} != brute-force "
                            f"{ref[name]:.12g}")
        if stem == "example_difference" and name in self.DIFFERENCE_MARGINS \
                and not close(margin, self.DIFFERENCE_MARGINS[name]):
            problems.append(f"margin {margin:.12g} != closed form "
                            f"{self.DIFFERENCE_MARGINS[name]:.12g}")
        if verdict == "VIOLATED":
            p = np.array([float(v) for v in row["witness_p"].split(";")])
            x = np.array([float(v) for v in row["witness_x"].split(";")])
            value = float(row["value"])
            if name == "oracle":
                problems += witness_oracle(ref["family"], p, x, value, margin,
                                           q["alpha"], q["delta"], q["mu"],
                                           ref["xbar"])
            elif name == "geometric":
                problems += witness_geometric(ref["family"], p, x, value,
                                              margin, q["alpha"], q["mu"])
        return problems

    def _modulus_ops(self, sc):
        closed = {"example_quadratic": 0.01,
                  "example_difference": 1.0}[self._stem(sc)]

        def call():
            F = regulab.cli.build_mapping(sc)
            q = regulab.cli.build_query(sc)
            return regulab.oracle.estimate_modulus(
                F, q.xbar, q.ybar, q.delta, q.mu, regulab.cli.build_grids(sc),
                pbar=q.pbar, eta=q.eta)

        return modulus_ops(self._stem(sc), call,
                           lambda: self._grid_ref(sc)["modulus"], closed,
                           closed, MODULUS_REPEAT)


WORKLOADS = {"examples": Examples, "polyhedral": Polyhedral,
             "affine-2d": Affine2d}
