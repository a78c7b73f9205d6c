"""Scenario loading, check orchestration, and report/CSV emission.

Scenario files are YAML with named blocks: ``spaces``, ``mapping``, ``query``,
``grids``, ``checks``, and optional ``expect`` and ``output``.  Checks are
referenced by what they compute: ``oracle``, ``geometric``, ``slope-nonlocal``,
``slope-local``, ``subdifferential``, ``normal-cone``, ``coderivative-ball``,
``coderivative-normalized``, ``recede``, ``aubin``, ``compose-rate``,
``aubin-pipeline``, ``evp``.
"""

from __future__ import annotations

import csv
import math
import os
import sys
import time
from dataclasses import dataclass, field

import click
import numpy as np
import yaml

from .dual import check_coderivative_condition, check_normal_cone_condition, \
    check_subdifferential_condition, coderivative_threshold, \
    normal_cone_preconditions, subdifferential_preconditions
from .ekeland import evp_search
from .errors import InputError, NumericError, RegulabError, ResourceCapError
from .implicit import AubinQuery, check_aubin, check_recede, compose_aubin_rate, \
    certify_aubin
from .mappings import ClosedFormMap, PolyhedralGraphMap, RegularityQuery, \
    ScanGrids, SetValuedMap
from .oracle import Certificate, Verdict, check_geometric, check_subreg_uniform
from .sets import ConeRep
from .slope import check_local_slope_condition, \
    check_nonlocal_slope_condition, slope_preconditions
from .spaces import GridSpec, NormedSpace

KNOWN_CHECKS = (
    "oracle", "geometric", "slope-nonlocal", "slope-local", "subdifferential",
    "normal-cone", "coderivative-ball", "coderivative-normalized", "recede",
    "aubin", "compose-rate", "aubin-pipeline", "evp",
)

CSV_COLUMNS = ("check", "verdict", "margin", "witness_p", "witness_x",
               "witness_y", "value", "alpha", "delta", "mu", "eta", "gamma",
               "tau", "grid_res", "seconds")

# query fields each check needs beyond the common alpha/delta/mu block
_CHECK_NEEDS = {
    "recede": ("l", "pbar", "eta"),
    "aubin": ("l", "pbar", "eta"),
    "compose-rate": ("l", "pbar", "eta"),
    "aubin-pipeline": ("l", "l_prime", "pbar", "eta"),
    "coderivative-ball": ("eta",),
    "coderivative-normalized": ("eta",),
}


@dataclass
class Scenario:
    spaces: dict
    mapping: dict
    query: dict
    grids: dict
    checks: list
    expect: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)
    path: str = ""


def _fail(msg: str):
    raise InputError(msg)


def load_scenario(path: str) -> Scenario:
    """Parse and validate a scenario file; all defaults filled in."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        _fail(f"{path}: cannot parse scenario file: {exc}")
    if not isinstance(raw, dict):
        _fail(f"{path}: scenario must be a mapping of blocks")
    for block in ("spaces", "mapping", "query", "grids", "checks"):
        if block not in raw:
            _fail(f"{path}: missing required block {block!r}")
    sc = Scenario(
        spaces=raw["spaces"], mapping=raw["mapping"], query=dict(raw["query"]),
        grids=raw["grids"], checks=list(raw["checks"]),
        expect=raw.get("expect", {}) or {}, output=raw.get("output", {}) or {},
        path=path,
    )
    _validate(sc)
    return sc


def _check_name(entry) -> str:
    return entry if isinstance(entry, str) else entry.get("name", "")


def _number(field: str, value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        _fail(f"{field} must be a number, got {value!r}")


def _dim(key: str, value) -> int:
    try:
        n = int(value)
    except (TypeError, ValueError):
        _fail(f"{key} must be an integer, got {value!r}")
    if n < 1:
        _fail(f"{key} must be >= 1")
    return n


_DIM_KEYS = {"x": "x_dim", "y": "y_dim", "p": "p_dim"}


def _vector(field: str, value, spaces: dict, dim_key: str) -> np.ndarray:
    """A finite vector, of length ``spaces[dim_key]`` when that is declared."""
    try:
        v = np.atleast_1d(np.asarray(value, dtype=float))
    except (TypeError, ValueError):
        _fail(f"{field} must be a vector of numbers, got {value!r}")
    if dim_key in spaces and v.shape != (int(spaces[dim_key]),):
        _fail(f"{field} must have {dim_key} = {spaces[dim_key]} "
              f"entries, got {value!r}")
    if not np.all(np.isfinite(v)):
        _fail(f"{field} must be finite, got {value!r}")
    return v


def _validate_query(q: dict, spaces: dict):
    """Numbers where numbers go, finite rates, and reference points whose
    lengths match the declared spaces."""
    for key in ("alpha", "gamma", "tau", "l", "l_prime"):
        if q.get(key) is not None and \
                not math.isfinite(_number(f"query.{key}", q[key])):
            _fail(f"query.{key} must be finite, got {q[key]!r}")
    for key in ("delta", "mu", "eta"):
        if q.get(key) not in ("unbounded", None):
            _number(f"query.{key}", q[key])
    for axis, dim_key in _DIM_KEYS.items():
        if q.get(axis + "bar") is not None and dim_key in spaces:
            _vector(f"query.{axis}bar", q[axis + "bar"], spaces, dim_key)


def _validate_grids(grids: dict, spaces: dict):
    """Finite bounds of the declared length with lower < upper, and an
    integer resolution of at least 2, in each grid."""
    if not isinstance(grids, dict) or "x" not in grids:
        _fail("grids block needs an 'x' grid")
    for gname, g in grids.items():
        for k in ("lower", "upper", "resolution"):
            if not isinstance(g, dict) or k not in g:
                _fail(f"grid {gname!r} needs {k}")
        dim_key = _DIM_KEYS.get(gname, "")
        lower = _vector(f"grids.{gname}.lower", g["lower"], spaces, dim_key)
        upper = _vector(f"grids.{gname}.upper", g["upper"], spaces, dim_key)
        if lower.shape != upper.shape or not np.all(lower < upper):
            _fail(f"grid {gname!r} needs lower < upper in every dimension")
        res = g["resolution"]
        if isinstance(res, bool) or not isinstance(res, (int, float)) or \
                not float(res).is_integer() or res < 2:
            _fail(f"grids.{gname}.resolution must be an integer >= 2, "
                  f"got {res!r}")


def _validate_coeffs(mapping: dict):
    """A known rule, and only the coefficients it reads, each made of
    finite numbers."""
    rule = mapping.get("rule")
    if rule not in _RULES:
        _fail(f"unknown mapping rule {rule!r}; known: {sorted(_RULES)}")
    coeffs = mapping.get("coeffs") or {}
    if not isinstance(coeffs, dict):
        _fail(f"mapping.coeffs must be a mapping, got {coeffs!r}")
    reads = _RULE_COEFFS.get(rule, ())
    for name, value in coeffs.items():
        if name not in reads:
            _fail(f"rule {rule!r} has no coefficient {name!r}; "
                  f"it reads {list(reads)}")
        try:
            ok = np.all(np.isfinite(np.asarray(value, dtype=float)))
        except (TypeError, ValueError):
            ok = False
        if not ok:
            _fail(f"mapping.coeffs.{name} must be finite numbers, "
                  f"got {value!r}")


def _validate(sc: Scenario):
    for dim_key in ("x_dim", "y_dim"):
        if dim_key not in sc.spaces:
            _fail(f"spaces block needs {dim_key}")
        _dim(dim_key, sc.spaces[dim_key])
    if ("p_dim" in sc.spaces) == ("p_labels" in sc.spaces):
        _fail("spaces block needs exactly one of p_dim or p_labels")
    if "p_dim" in sc.spaces:
        _dim("p_dim", sc.spaces["p_dim"])
    kind = sc.mapping.get("kind")
    if kind not in ("rule", "polyhedral"):
        _fail("mapping.kind must be 'rule' or 'polyhedral'")
    if kind == "rule":
        _validate_coeffs(sc.mapping)
    if kind == "polyhedral":
        pieces = sc.mapping.get("pieces")
        if not pieces:
            _fail("polyhedral mapping needs a nonempty pieces list")
        n = int(sc.spaces["x_dim"]) + int(sc.spaces["y_dim"])
        for i, pc in enumerate(pieces):
            A = np.asarray(pc.get("A", []), dtype=float)
            b = np.asarray(pc.get("b", []), dtype=float)
            if A.ndim != 2 or A.shape[1] != n:
                _fail(f"piece {i}: A must have {n} columns")
            if b.shape[0] != A.shape[0]:
                _fail(f"piece {i}: A and b row counts differ")
            if "b_p" in pc:
                bp = np.asarray(pc["b_p"], dtype=float)
                if bp.shape[0] != A.shape[0]:
                    _fail(f"piece {i}: b_p and A row counts differ")
    for q_key in ("xbar", "ybar", "alpha", "delta", "mu"):
        if q_key not in sc.query:
            _fail(f"query block needs {q_key}")
    _validate_query(sc.query, sc.spaces)
    for entry in sc.checks:
        name = _check_name(entry)
        if name not in KNOWN_CHECKS:
            _fail(f"unknown check {name!r}; known: {KNOWN_CHECKS}")
        for need in _CHECK_NEEDS.get(name, ()):
            if sc.query.get(need) is None:
                _fail(f"check {name!r} needs query field {need!r}")
    for name in sc.expect:
        if name not in [_check_name(e) for e in sc.checks]:
            _fail(f"expect block references unknown check {name!r}")
    _validate_grids(sc.grids, sc.spaces)
    q = build_query(sc)  # the query and the grids check their own ranges
    build_grids(sc)
    F = build_mapping(sc)
    for entry in sc.checks:
        _preflight(_check_name(entry), _options(entry), F, q)


# ---------------------------------------------------------------------------
# mapping rule library


def _affine_map(X, Y, P, a, b, c):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    c = np.atleast_1d(np.asarray(c, dtype=float))
    if Y.dim != X.dim or a.shape != (Y.dim, X.dim) or c.shape != (Y.dim,) \
            or b.shape != (Y.dim, P.dim) or np.linalg.matrix_rank(a) < X.dim:
        _fail("rule a x + b p + c needs y_dim = x_dim, a nonsingular y_dim x "
              "x_dim a, a y_dim x p_dim b and c of length y_dim; got (x_dim, "
              f"y_dim, p_dim) = ({X.dim}, {Y.dim}, {P.dim}), a = {a.tolist()}")

    def value_rule(p, xs):
        # (a x + b p) + c, one row per point
        return xs @ a.T + (b @ np.atleast_1d(p))[None, :] + c

    def solution(p):
        # a x = -(b p + c), target 0
        return np.linalg.solve(a, -(b @ np.atleast_1d(p) + c))[None, :]

    def solution_any(p, ybar):
        return np.linalg.solve(a, ybar - (b @ np.atleast_1d(p) + c))[None, :]

    # the graph's normal space {(-a^T w, w)} has basis rows [-a | I], the
    # same cone at every graph point
    cone = ConeRep.make(lineality=np.hstack([-a, np.eye(a.shape[0])]))

    def residual_rule(p, xs, ybar):
        vals = xs @ a.T + (b @ np.atleast_1d(p) + c)[None, :]
        return np.linalg.norm(vals - ybar[None, :], axis=1)

    return ClosedFormMap(X, Y, value_rule=value_rule, param_space=P,
                         solution_fn=solution, solution_any_fn=solution_any,
                         cone_fn=lambda p, x, y: cone,
                         residual_rule=residual_rule,
                         target=np.zeros(a.shape[0]), convex=True)


def _rule_difference(X, Y, P, coeffs):
    return _affine_map(X, Y, P, -np.eye(X.dim), np.eye(X.dim),
                       np.zeros(X.dim))


def _rule_quadratic_difference(X, Y, P, coeffs):
    if X.dim != 1 or Y.dim != 1:
        _fail("quadratic_difference rule is one-dimensional")

    def value_rule(p, xs):
        # float_power rounds as a scalar ``** 2`` (libm pow) does; an
        # array's ``** 2`` multiplies, which rounds some squares differently
        return np.float_power(np.atleast_1d(p)[0] - xs[:, :1], 2)

    def solution(p):
        return np.array([[float(np.atleast_1d(p)[0])]])

    def cone(p, x, y):
        pv = float(np.atleast_1d(p)[0])
        return ConeRep.make(lineality=[[2.0 * (x[0] - pv), -1.0]])

    def residual_rule(p, xs, ybar):
        return np.abs((np.atleast_1d(p)[0] - xs[:, 0]) ** 2 - ybar[0])

    def sol_dist(p, xs):
        return np.abs(xs[:, 0] - np.atleast_1d(p)[0])

    return ClosedFormMap(X, Y, value_rule=value_rule, param_space=P,
                         solution_fn=solution, cone_fn=cone,
                         residual_rule=residual_rule,
                         solution_dist_rule=sol_dist, target=[0.0],
                         convex=False)


def _rule_affine(X, Y, P, coeffs):
    a = coeffs.get("a", 1.0)
    b = coeffs.get("b", 0.0)
    c = coeffs.get("c", np.zeros(Y.dim))
    a = np.atleast_2d(a) if np.ndim(a) else a * np.eye(Y.dim, X.dim)
    b = np.atleast_2d(b) if np.ndim(b) else b * np.eye(Y.dim, P.dim)
    return _affine_map(X, Y, P, a, b, c)


def _rule_identity(X, Y, P, coeffs):
    return _affine_map(X, Y, P, np.eye(X.dim), np.zeros((Y.dim, P.dim)),
                       np.zeros(Y.dim))


def _rule_scale(X, Y, P, coeffs):
    k = coeffs.get("k", 1.0)
    if np.ndim(k):
        _fail(f"rule scale needs a number k, got {k!r}")
    return _affine_map(X, Y, P, float(k) * np.eye(X.dim),
                       np.zeros((Y.dim, P.dim)), np.zeros(Y.dim))


_RULES = {
    "difference": _rule_difference,
    "quadratic_difference": _rule_quadratic_difference,
    "affine": _rule_affine,
    "identity": _rule_identity,
    "scale": _rule_scale,
}
# the coefficients each rule reads; any other name is an input error
_RULE_COEFFS = {"affine": ("a", "b", "c"), "scale": ("k",)}


def build_mapping(sc: Scenario) -> SetValuedMap:
    X = NormedSpace("X", int(sc.spaces["x_dim"]))
    Y = NormedSpace("Y", int(sc.spaces["y_dim"]))
    labels = sc.spaces.get("p_labels")
    P = None if labels else NormedSpace("P", int(sc.spaces["p_dim"]))
    if sc.mapping["kind"] == "rule":
        if labels:
            _fail("rule mappings need a metric parameter space (p_dim)")
        coeffs = sc.mapping.get("coeffs", {}) or {}
        return _RULES[sc.mapping["rule"]](X, Y, P, coeffs)
    pieces_spec = sc.mapping["pieces"]

    def pieces(p):
        pv = np.atleast_1d(np.asarray(p, dtype=float)) if not labels else None
        out = []
        for pc in pieces_spec:
            b = np.asarray(pc["b"], dtype=float)
            if "b_p" in pc and pv is not None:
                b = b + np.atleast_2d(np.asarray(pc["b_p"], dtype=float)) @ pv
            out.append((np.asarray(pc["A"], dtype=float), b))
        return out

    return PolyhedralGraphMap(X, Y, pieces, param_space=P, param_labels=labels,
                              convex=sc.mapping.get("convex"))


def build_query(sc: Scenario) -> RegularityQuery:
    g = sc.query

    def rad(name, default=math.inf):
        v = g.get(name, default)
        return math.inf if v in ("unbounded", None) else float(v)

    return RegularityQuery(
        xbar=tuple(np.atleast_1d(g["xbar"]).astype(float)),
        ybar=tuple(np.atleast_1d(g["ybar"]).astype(float)),
        pbar=None if g.get("pbar") is None
        else tuple(np.atleast_1d(g["pbar"]).astype(float)),
        alpha=float(g["alpha"]), delta=rad("delta"), mu=rad("mu"),
        eta=rad("eta"), gamma=float(g.get("gamma", 1.0)),
        tau=float(g.get("tau", 0.99)),
    )


def build_grids(sc: Scenario) -> ScanGrids:
    def spec(block):
        return GridSpec(lower=tuple(np.atleast_1d(block["lower"]).astype(float)),
                        upper=tuple(np.atleast_1d(block["upper"]).astype(float)),
                        resolution=int(block["resolution"]))

    return ScanGrids(
        x=spec(sc.grids["x"]),
        y=spec(sc.grids["y"]) if "y" in sc.grids else None,
        p=spec(sc.grids["p"]) if "p" in sc.grids else None,
    )


# ---------------------------------------------------------------------------
# orchestration

_DEP_ORDER = {name: i for i, name in enumerate(KNOWN_CHECKS)}


def _options(entry) -> dict:
    """A check's options, with the condition checks' defaults."""
    opts = {"mode": "sufficient", "variant": "convex-normal"}
    return opts | entry if isinstance(entry, dict) else opts


def _preflight(name: str, opts: dict, F, q):
    """``InputError`` for the options of a condition check that its
    checker would reject, so that a scenario is refused before any check
    runs; ``validate`` and ``run`` both call it through ``load_scenario``."""
    mode, variant = opts["mode"], opts["variant"]
    if name in ("slope-nonlocal", "slope-local"):
        slope_preconditions(F, mode, local=name == "slope-local")
    elif name == "subdifferential":
        subdifferential_preconditions(F, mode)
    elif name == "normal-cone":
        normal_cone_preconditions(F, variant, mode)
    elif name in ("coderivative-ball", "coderivative-normalized"):
        coderivative_threshold(F, q, name.split("-")[1], variant, mode)


def _run_one(name: str, opts: dict, F, q, grids, sc: Scenario) -> Certificate:
    mode = opts["mode"]
    if name == "oracle":
        return check_subreg_uniform(F, q, grids)
    if name == "geometric":
        return check_geometric(F, q, grids)
    if name == "slope-nonlocal":
        return check_nonlocal_slope_condition(F, q, grids, mode=mode)
    if name == "slope-local":
        return check_local_slope_condition(F, q, grids, mode=mode)
    if name == "subdifferential":
        return check_subdifferential_condition(F, q, grids, mode=mode)
    if name == "normal-cone":
        return check_normal_cone_condition(
            F, q, grids, variant=opts["variant"], mode=mode)
    if name == "coderivative-ball":
        return check_coderivative_condition(
            F, q, grids, form="ball",
            variant=opts["variant"], mode=mode)
    if name == "coderivative-normalized":
        return check_coderivative_condition(
            F, q, grids, form="normalized",
            variant=opts["variant"], mode=mode)
    if name == "recede":
        return check_recede(F, q, float(sc.query["l"]), grids)
    if name == "aubin":
        aq = AubinQuery(pbar=q.pbar, xbar=q.xbar, ybar=q.ybar,
                        l=float(sc.query["l"]), eta=q.eta, delta=q.delta,
                        mu=q.mu)
        return check_aubin(F, aq, grids)
    if name == "compose-rate":
        l = float(sc.query["l"])
        sub = check_subreg_uniform(F, q, grids)
        rec = check_recede(F, q, l, grids)
        return compose_aubin_rate(F, q, sub, l, rec, q.alpha * q.mu / l, grids)
    if name == "aubin-pipeline":
        return certify_aubin(F, q, float(sc.query["l_prime"]),
                             float(sc.query["l"]),
                             opts.get("condition", "normal-cone-convex"), grids)
    if name == "evp":
        return _run_evp(opts, F, q, grids)
    raise InputError(f"unknown check {name!r}")


def _run_evp(opts, F, q, grids) -> Certificate:
    """Demonstration run of the variational-principle search on the merit
    values over the graph sample of the reference slice."""
    p = q.pbar_arr if q.pbar is not None else F.param_points(q, grids)[0]
    pts = F.graph_points(p, grids)
    if pts.shape[0] == 0:
        return Certificate(Verdict.INCONCLUSIVE, detail="empty graph sample")
    ybar = q.ybar_arr
    vals = np.linalg.norm(pts[:, F.nx:] - ybar[None, :], axis=1)
    lam = float(opts.get("lam", 1.0))
    start = int(np.argmax(vals))
    eps = float(vals[start] - vals.min() + 1e-6)

    def f(u):
        i = int(np.argmin(np.linalg.norm(pts - u[None, :], axis=1)))
        return vals[i]

    res = evp_search(f, pts, pts[start], eps=eps, lam=lam)
    verdict = Verdict.HOLDS if res.all_conclusions else Verdict.VIOLATED
    return Certificate(verdict, margin=float(vals[start] - f(res.xhat)),
                       scan_meta={"trace_len": len(res.trace), "eps": eps,
                                  "lam": lam})


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        if math.isnan(v):
            return ""
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return format(v, ".12g")
    if isinstance(v, (np.ndarray, list, tuple)):
        return ";".join(_fmt(float(x)) for x in np.ravel(np.asarray(v, dtype=float)))
    return str(v)


def _witness_field(cert: Certificate, key: str) -> str:
    if not cert.witness:
        return ""
    val = cert.witness.get(key)
    if key == "p" and isinstance(val, tuple):
        return "|".join(_fmt(v) for v in val)
    return _fmt(val)


def run_scenario(sc: Scenario, out_dir: str | None = None,
                 max_points: int | None = None) -> tuple[int, str]:
    """Execute all requested checks; returns (exit_code, report text)."""
    F = build_mapping(sc)
    q = build_query(sc)
    grids = build_grids(sc)
    if max_points is not None:
        # the oracle scans every X grid point at every parameter
        n_params = len(F.param_labels) if F.param_labels is not None else \
            grids.p.point_count() if grids.p is not None else 1
        n_points = grids.x.point_count() * n_params
        if n_points > max_points:
            raise ResourceCapError(n_points, max_points)

    entries = sorted(sc.checks, key=lambda e: _DEP_ORDER[_check_name(e)])
    rows = []
    lines = [f"scenario: {os.path.basename(sc.path) or '(inline)'}"]
    mismatches = []
    for entry in entries:
        name = _check_name(entry)
        opts = _options(entry)
        t0 = time.perf_counter()
        try:
            cert = _run_one(name, opts, F, q, grids, sc)
        except NumericError as exc:
            # a failed solver is no verdict
            cert = Certificate(Verdict.INCONCLUSIVE, detail=str(exc))
        elapsed = time.perf_counter() - t0
        expect = sc.expect.get(name)
        status = ""
        if expect is not None:
            if cert.verdict.value != expect:
                mismatches.append(name)
                status = f"  [expected {expect}]"
            else:
                status = "  [as expected]"
        lines.append(
            f"  {name:<24} {cert.verdict.value:<13} "
            f"margin={_fmt(cert.margin) or 'n/a':<16} ({elapsed:.3f}s){status}"
        )
        if cert.detail:
            lines.append(f"    note: {cert.detail}")
        rows.append({
            "check": name,
            "verdict": cert.verdict.value,
            "margin": _fmt(cert.margin),
            "witness_p": _witness_field(cert, "p"),
            "witness_x": _witness_field(cert, "x"),
            "witness_y": _witness_field(cert, "y"),
            "value": _witness_field(cert, "value"),
            "alpha": _fmt(q.alpha), "delta": _fmt(q.delta), "mu": _fmt(q.mu),
            "eta": _fmt(q.eta), "gamma": _fmt(q.gamma), "tau": _fmt(q.tau),
            "grid_res": str(grids.x.resolution),
            # left blank so repeated runs emit byte-identical CSV files;
            # wall time is reported in the human-readable report instead
            "seconds": "",
        })
    report = "\n".join(lines) + "\n"

    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        stem = os.path.splitext(os.path.basename(sc.path))[0] or "scenario"
        csv_path = os.path.join(out_dir, sc.output.get("csv", stem + ".csv"))
        with open(csv_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            writer.writerows(rows)
        with open(os.path.join(out_dir, sc.output.get("report", stem + ".txt")),
                  "w") as fh:
            fh.write(report)
    return (1 if mismatches else 0), report


# ---------------------------------------------------------------------------
# shipped example fixtures

EXAMPLE_QUADRATIC = """\
# Singleton mapping F(p, x) = {(p - x)^2} with target 0: not subregular
# uniformly in p at any rate (the ratio residual/distance vanishes near 0).
spaces: {x_dim: 1, y_dim: 1, p_dim: 1}
mapping: {kind: rule, rule: quadratic_difference}
query:
  xbar: [0.0]
  ybar: [0.0]
  pbar: [0.0]
  alpha: 0.5
  delta: 1.0
  mu: 1.0
  eta: 2.0
  gamma: 1.0
grids:
  x: {lower: [-1.0], upper: [1.0], resolution: 201}
  y: {lower: [-1.0], upper: [1.0], resolution: 201}
  p: {lower: [-1.0], upper: [1.0], resolution: 201}
checks:
  - oracle
  - geometric
expect:
  oracle: VIOLATED
  geometric: VIOLATED
"""

EXAMPLE_DIFFERENCE = """\
# Singleton mapping F(p, x) = {p - x} with target 0: uniformly subregular
# at every rate alpha <= 1; all condition checks hold at alpha = 1.
spaces: {x_dim: 1, y_dim: 1, p_dim: 1}
mapping: {kind: rule, rule: difference}
query:
  xbar: [0.0]
  ybar: [0.0]
  pbar: [0.0]
  alpha: 1.0
  delta: 0.5
  mu: 0.5
  eta: 1.0
  gamma: 1.0
  l: 1.0
grids:
  x: {lower: [-1.0], upper: [1.0], resolution: 81}
  y: {lower: [-1.0], upper: [1.0], resolution: 81}
  p: {lower: [-0.5], upper: [0.5], resolution: 11}
checks:
  - oracle
  - geometric
  - slope-nonlocal
  - slope-local
  - subdifferential
  - normal-cone
  - recede
  - aubin
expect:
  oracle: HOLDS
  geometric: HOLDS
  slope-nonlocal: HOLDS
  slope-local: HOLDS
  subdifferential: HOLDS
  normal-cone: HOLDS
  recede: HOLDS
  aubin: HOLDS
"""


# ---------------------------------------------------------------------------
# commands


@click.group()
def main():
    """Certify or refute metric subregularity on scenario instances."""


@main.command("run")
@click.argument("scenario_file", type=click.Path(exists=True))
@click.option("--out", "out_dir", type=click.Path(), default=None,
              help="Directory for the CSV and report files.")
@click.option("--max-points", type=int, default=None,
              help="Refuse scenarios whose oracle scan, X grid points times "
                   "P grid points (or parameter labels), exceeds this count.")
def run_cmd(scenario_file, out_dir, max_points):
    """Run all checks of a scenario and report verdicts."""
    try:
        sc = load_scenario(scenario_file)
        code, report = run_scenario(sc, out_dir=out_dir, max_points=max_points)
    except ResourceCapError as exc:
        click.echo(f"resource cap: {exc}", err=True)
        sys.exit(3)
    except InputError as exc:
        click.echo(f"input error: {exc}", err=True)
        sys.exit(2)
    except RegulabError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(4)
    click.echo(report, nl=False)
    sys.exit(code)


@main.command("validate")
@click.argument("scenario_file", type=click.Path(exists=True))
def validate_cmd(scenario_file):
    """Validate a scenario file without running any checks."""
    try:
        load_scenario(scenario_file)
    except InputError as exc:
        click.echo(f"input error: {exc}", err=True)
        sys.exit(2)
    click.echo(f"{scenario_file}: OK")


@main.command("examples")
@click.option("--out", "out_dir", type=click.Path(), default=".",
              help="Directory to write the example scenario files into.")
def examples_cmd(out_dir):
    """Write the two shipped example scenarios."""
    os.makedirs(out_dir, exist_ok=True)
    for fname, text in (("example_quadratic.yaml", EXAMPLE_QUADRATIC),
                        ("example_difference.yaml", EXAMPLE_DIFFERENCE)):
        path = os.path.join(out_dir, fname)
        with open(path, "w") as fh:
            fh.write(text)
        click.echo(f"wrote {path}")


if __name__ == "__main__":
    main()
