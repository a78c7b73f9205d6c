"""Scenario loading, check orchestration, and report/CSV emission.

Scenario files are YAML with named blocks: ``spaces``, ``mapping``, ``query``,
``grids``, ``checks``, and optional ``expect`` and ``output``.  Each field is
read once, through a checked reader, by the ``build_*`` function that uses it;
no other key is accepted.  ``_CHECKS`` declares each check once, in the order
of the report's rows: ``oracle``, ``geometric``, ``slope-nonlocal``,
``slope-local``, ``subdifferential``, ``normal-cone``, ``coderivative-ball``,
``coderivative-normalized``, ``recede``, ``aubin``, ``compose-rate``,
``aubin-pipeline`` (these four scan parameter pairs), ``evp``.
"""

from __future__ import annotations

import csv
import math
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import click
import numpy as np
import yaml

from .dual import check_coderivative_condition, check_normal_cone_condition, \
    check_subdifferential_condition, coderivative_threshold, \
    normal_cone_preconditions, subdifferential_preconditions
from .ekeland import evp_search
from .errors import InputError, NumericError, RegulabError, ResourceCapError
from .implicit import AubinQuery, check_aubin, check_recede, compose_aubin_rate, \
    certify_aubin, param_pair_preconditions, pipeline_preconditions, \
    positive_rate
from .mappings import ClosedFormMap, PolyhedralGraphMap, RegularityQuery, \
    ScanGrids, SetValuedMap
from .oracle import Certificate, Verdict, check_geometric, check_subreg_uniform
from .sets import ConeRep
from .slope import check_local_slope_condition, \
    check_nonlocal_slope_condition, slope_preconditions
from .spaces import GridSpec, NormedSpace

CSV_COLUMNS = ("check", "verdict", "margin", "witness_p", "witness_x",
               "witness_y", "value", "alpha", "delta", "mu", "eta", "gamma",
               "tau", "grid_res", "seconds")

# the type of each block of a scenario file
_BLOCKS = {"spaces": dict, "mapping": dict, "query": dict, "grids": dict,
           "checks": list, "expect": dict, "output": dict}
# the keys each builder reads; any other key is an input error
_SPACES_KEYS = ("x_dim", "y_dim", "p_dim", "p_labels")
_MAPPING_KEYS = {"rule": ("kind", "rule", "coeffs"),
                 "polyhedral": ("kind", "pieces", "convex")}
_QUERY_KEYS = ("xbar", "ybar", "pbar", "alpha", "delta", "mu", "eta",
               "gamma", "tau", "l", "l_prime")
_GRID_KEYS = ("lower", "upper", "resolution")


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
    """Parse and validate a scenario file: build its map, query and grids,
    and preflight every check, so that a scenario that loads is refused by
    no check's options."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        _fail(f"{path}: cannot parse scenario file: {exc}")
    if not isinstance(raw, dict):
        _fail(f"{path}: scenario must be a mapping of blocks")
    _known_keys(f"{path}: scenario", raw, _BLOCKS)
    for block in ("spaces", "mapping", "query", "grids", "checks"):
        if block not in raw:
            _fail(f"{path}: missing required block {block!r}")
    raw |= {b: raw.get(b) or {} for b in ("expect", "output")}
    for block, kind in _BLOCKS.items():
        if not isinstance(raw[block], kind):
            _fail(f"{path}: block {block!r} must be a "
                  f"{'list' if kind is list else 'mapping'}, "
                  f"got {raw[block]!r}")
    sc = Scenario(**{b: raw[b] for b in _BLOCKS}, path=path)
    F, q, grids = build_mapping(sc), build_query(sc), build_grids(sc)
    planned = _planned_checks(sc)
    for name, args in planned:
        check = _CHECKS[name]
        if check.pairs:
            param_pair_preconditions(F, grids, q.pbar)
            positive_rate("l", args["l"])
        check.preflight(F, q, grids, **args)
    for name, value in sc.expect.items():
        if name not in [n for n, _ in planned]:
            _fail(f"expect block references unknown check {name!r}")
        if value not in ("HOLDS", "VIOLATED", "INCONCLUSIVE"):
            _fail(f"expect.{name} must be HOLDS, VIOLATED or INCONCLUSIVE, "
                  f"got {value!r}")
    for key, value in sc.output.items():
        if key not in ("csv", "report") or not isinstance(value, str) \
                or not value:
            _fail(f"output takes csv and report file names, got {key!r}: "
                  f"{value!r}")
    return sc


# ---------------------------------------------------------------------------
# checked readers: each returns the value its builder uses, or refuses it


def _known_keys(where: str, block: dict, keys, what: str = "key"):
    """``InputError`` naming the first key of ``block`` not in ``keys``."""
    for key in block:
        if key not in keys:
            _fail(f"{where} has no {what} {key!r}; it reads {list(keys)}")


def _number(field: str, value, finite: bool = True) -> float:
    """``value`` as a number, a finite one unless ``finite`` is false."""
    try:
        v = float(value)
    except (TypeError, ValueError, OverflowError):
        _fail(f"{field} must be a number, got {value!r}")
    if finite and not math.isfinite(v):
        _fail(f"{field} must be finite, got {value!r}")
    return v


def _is_integer(value) -> bool:
    """An int, or a float without a fraction; not a bool."""
    return type(value) is int or type(value) is float and value.is_integer()


def _dims(spaces: dict) -> dict:
    """The declared dimensions, ``x_dim``, ``y_dim`` and, unless the
    parameters are labels, ``p_dim``, each an integer >= 1."""
    _known_keys("spaces block", spaces, _SPACES_KEYS)
    for key in ("x_dim", "y_dim"):
        if key not in spaces:
            _fail(f"spaces block needs {key}")
    if ("p_dim" in spaces) == ("p_labels" in spaces):
        _fail("spaces block needs exactly one of p_dim or p_labels")
    dims = {k: spaces[k] for k in ("x_dim", "y_dim", "p_dim") if k in spaces}
    for key, n in dims.items():
        if not _is_integer(n):
            _fail(f"{key} must be an integer, got {n!r}")
        if n < 1:
            _fail(f"{key} must be >= 1")
    return {key: int(n) for key, n in dims.items()}


def _finite(field: str, value) -> np.ndarray:
    """``value`` as an array of finite numbers."""
    try:
        v = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        _fail(f"{field} must be numbers, got {value!r}")
    if not np.all(np.isfinite(v)):
        _fail(f"{field} must be finite, got {value!r}")
    return v


def _vector(field: str, value, dims: dict, dim_key: str) -> np.ndarray:
    """A finite vector, of length ``dims[dim_key]`` when that is declared."""
    v = np.atleast_1d(_finite(field, value))
    if dim_key in dims and v.shape != (dims[dim_key],):
        _fail(f"{field} must have {dim_key} = {dims[dim_key]} "
              f"entries, got {value!r}")
    return v


def _evp_lam(lam) -> float:
    """The ``evp`` check's ``lam``: a finite positive number."""
    if not _number("evp option lam", lam) > 0:
        _fail(f"evp option lam must be positive, got {lam!r}")
    return float(lam)


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
        _fail(f"rule scale needs a number k, got {np.asarray(k).tolist()!r}")
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
    dims, m = _dims(sc.spaces), sc.mapping
    X, Y = NormedSpace("X", dims["x_dim"]), NormedSpace("Y", dims["y_dim"])
    labels = sc.spaces.get("p_labels")
    P = NormedSpace("P", dims["p_dim"]) if "p_dim" in dims else None
    if P is None and not (isinstance(labels, list) and labels and all(
            isinstance(v, (str, int, float)) for v in labels)):
        _fail("spaces.p_labels must be a nonempty list of names or numbers")
    kind = m.get("kind")
    if not isinstance(kind, str) or kind not in _MAPPING_KEYS:
        _fail("mapping.kind must be 'rule' or 'polyhedral'")
    _known_keys(f"a {kind} mapping", m, _MAPPING_KEYS[kind])
    if kind == "rule":
        rule = m.get("rule")
        if not isinstance(rule, str) or rule not in _RULES:
            _fail(f"unknown mapping rule {rule!r}; known: {sorted(_RULES)}")
        coeffs = m.get("coeffs") or {}
        if not isinstance(coeffs, dict):
            _fail(f"mapping.coeffs must be a mapping, got {coeffs!r}")
        _known_keys(f"rule {rule!r}", coeffs, _RULE_COEFFS.get(rule, ()),
                    "coefficient")
        if labels is not None:
            _fail("rule mappings need a metric parameter space (p_dim)")
        return _RULES[rule](X, Y, P, {
            name: _finite(f"mapping.coeffs.{name}", value)
            for name, value in coeffs.items()})
    if not m.get("pieces") or not isinstance(m["pieces"], list):
        _fail("polyhedral mapping needs a nonempty pieces list")
    convex = m.get("convex")
    if convex is not None and not isinstance(convex, bool):
        _fail(f"mapping.convex must be true or false, got {convex!r}")
    n = dims["x_dim"] + dims["y_dim"]
    pieces = []  # (A, b, b_p), with b_p None for a piece that p moves not
    for i, pc in enumerate(m["pieces"]):
        if not isinstance(pc, dict):
            _fail(f"piece {i} must be a mapping with A and b")
        # b_p moves a piece with a metric parameter; labels have none
        _known_keys(f"piece {i}", pc,
                    ("A", "b") if P is None else ("A", "b", "b_p"))
        A = _finite(f"piece {i}: A", pc.get("A", []))
        b = _finite(f"piece {i}: b", pc.get("b", []))
        if A.ndim != 2 or A.shape[1] != n:
            _fail(f"piece {i}: A must have {n} columns")
        if b.shape != A.shape[:1]:
            _fail(f"piece {i}: b must have one entry per row of A")
        bp = None
        if "b_p" in pc:
            bp = _finite(f"piece {i}: b_p", pc["b_p"])
            if bp.shape != (A.shape[0], dims["p_dim"]):
                _fail(f"piece {i}: b_p must have p_dim columns and one "
                      f"row per row of A")
        pieces.append((A, b, bp))

    def pieces_at(p):
        return [(A, b if bp is None else
                 b + bp @ np.atleast_1d(np.asarray(p, dtype=float)))
                for A, b, bp in pieces]

    return PolyhedralGraphMap(X, Y, pieces_at, param_space=P,
                              param_labels=labels, convex=convex)


def build_query(sc: Scenario) -> RegularityQuery:
    g, dims = sc.query, _dims(sc.spaces)
    _known_keys("query block", g, _QUERY_KEYS)
    for key in ("xbar", "ybar", "alpha", "delta", "mu"):
        if key not in g:
            _fail(f"query block needs {key}")

    def point(axis):
        return tuple(_vector(f"query.{axis}bar", g[axis + "bar"], dims,
                             axis + "_dim"))

    def radius(key):
        v = g.get(key)
        return math.inf if v in ("unbounded", None) else \
            _number(f"query.{key}", v, finite=False)

    return RegularityQuery(
        xbar=point("x"), ybar=point("y"),
        pbar=None if g.get("pbar") is None else point("p"),
        alpha=_number("query.alpha", g["alpha"]), delta=radius("delta"),
        mu=radius("mu"), eta=radius("eta"),
        gamma=_number("query.gamma", g.get("gamma", 1.0)),
        tau=_number("query.tau", g.get("tau", 0.99)),
    )


def build_grids(sc: Scenario) -> ScanGrids:
    """The x grid and the optional y and p grids, each of finite bounds of
    the declared length with lower < upper, and an integer resolution of at
    least 2."""
    dims = _dims(sc.spaces)
    if "x" not in sc.grids:
        _fail("grids block needs an 'x' grid")
    _known_keys("grids block", sc.grids, ("x", "y", "p"))
    specs = {}
    for name, g in sc.grids.items():
        for k in _GRID_KEYS:
            if not isinstance(g, dict) or k not in g:
                _fail(f"grid {name!r} needs {k}")
        _known_keys(f"grid {name!r}", g, _GRID_KEYS)
        lower, upper = (_vector(f"grids.{name}.{k}", g[k], dims, f"{name}_dim")
                        for k in ("lower", "upper"))
        if lower.shape != upper.shape or not np.all(lower < upper):
            _fail(f"grid {name!r} needs lower < upper in every dimension")
        res = g["resolution"]
        if not _is_integer(res) or res < 2:
            _fail(f"grids.{name}.resolution must be an integer >= 2, "
                  f"got {res!r}")
        specs[name] = GridSpec(tuple(lower), tuple(upper), int(res))
    return ScanGrids(x=specs["x"], y=specs.get("y"), p=specs.get("p"))


# ---------------------------------------------------------------------------
# the check table


class _Check(NamedTuple):
    """``run(F, q, grids, **args)`` gives a check's certificate, and
    ``preflight`` raises on the same arguments the ``InputError`` its
    checker would raise before scanning.  ``args`` are the ``options`` (the
    check entry's, else these defaults) and the query rates among ``needs``,
    the query fields it needs beyond the common ones; a check that scans
    ``pairs`` of parameters needs a metric parameter grid and a positive
    ``l`` too.  Both callables name their checker, so it is looked up here
    at each call: one patched or wrapped after import is the one run."""

    run: Callable[..., Certificate]
    preflight: Callable[..., None] = lambda F, q, grids, **args: None
    needs: tuple = ()
    pairs: bool = False
    options: dict = {}


_MODE = {"mode": "sufficient"}
_DUAL = {"mode": "sufficient", "variant": "convex-normal"}
_STABILITY = ("l", "pbar", "eta")


def _coderivative(form: str) -> _Check:
    return _Check(
        lambda F, q, grids, **opts: check_coderivative_condition(
            F, q, grids, form=form, **opts),
        lambda F, q, grids, mode, variant: coderivative_threshold(
            F, q, form, variant, mode),
        needs=("eta",), options=_DUAL)


# every check, in the order of the report's and the CSV's rows
_CHECKS = {
    "oracle": _Check(lambda F, q, grids: check_subreg_uniform(F, q, grids)),
    "geometric": _Check(lambda F, q, grids: check_geometric(F, q, grids)),
    "slope-nonlocal": _Check(
        lambda F, q, grids, mode: check_nonlocal_slope_condition(
            F, q, grids, mode=mode),
        lambda F, q, grids, mode: slope_preconditions(F, mode, local=False),
        options=_MODE),
    "slope-local": _Check(
        lambda F, q, grids, mode: check_local_slope_condition(
            F, q, grids, mode=mode),
        lambda F, q, grids, mode: slope_preconditions(F, mode, local=True),
        options=_MODE),
    "subdifferential": _Check(
        lambda F, q, grids, mode: check_subdifferential_condition(
            F, q, grids, mode=mode),
        lambda F, q, grids, mode: subdifferential_preconditions(F, mode),
        options=_MODE),
    "normal-cone": _Check(
        lambda F, q, grids, **opts: check_normal_cone_condition(
            F, q, grids, **opts),
        lambda F, q, grids, mode, variant: normal_cone_preconditions(
            F, variant, mode),
        options=_DUAL),
    "coderivative-ball": _coderivative("ball"),
    "coderivative-normalized": _coderivative("normalized"),
    "recede": _Check(lambda F, q, grids, l: check_recede(F, q, l, grids),
                     needs=_STABILITY, pairs=True),
    "aubin": _Check(
        lambda F, q, grids, l: check_aubin(F, AubinQuery(
            pbar=q.pbar, xbar=q.xbar, ybar=q.ybar, l=l, eta=q.eta,
            delta=q.delta, mu=q.mu), grids),
        needs=_STABILITY, pairs=True),
    "compose-rate": _Check(
        lambda F, q, grids, l: compose_aubin_rate(
            F, q, check_subreg_uniform(F, q, grids), l,
            check_recede(F, q, l, grids), grids),
        needs=_STABILITY, pairs=True),
    "aubin-pipeline": _Check(
        lambda F, q, grids, l, l_prime, condition: certify_aubin(
            F, q, l_prime, l, condition, grids),
        lambda F, q, grids, l, l_prime, condition: pipeline_preconditions(
            F, q, condition, l_prime, l),
        needs=("l", "l_prime", "pbar", "eta"), pairs=True,
        options={"condition": "normal-cone-convex"}),
    "evp": _Check(
        lambda F, q, grids, lam: _run_evp(F, q, grids, _evp_lam(lam)),
        lambda F, q, grids, lam: _evp_lam(lam), options={"lam": 1.0}),
}


def _planned_checks(sc: Scenario) -> list:
    """``(name, args)`` of each of the scenario's checks, in table order (a
    check listed twice runs twice): ``args`` are its options, defaults
    filled in, and the query rates it needs."""
    rates = {k: _number(f"query.{k}", sc.query[k])
             for k in ("l", "l_prime") if k in sc.query}
    planned = []
    for entry in sc.checks:
        if not isinstance(entry, (str, dict)):
            _fail(f"a check is a name or a mapping with a name, got {entry!r}")
        opts = dict(entry) if isinstance(entry, dict) else {"name": entry}
        name = opts.pop("name", "")
        if not isinstance(name, str) or name not in _CHECKS:
            _fail(f"unknown check {name!r}; known: {tuple(_CHECKS)}")
        check = _CHECKS[name]
        for need in check.needs:
            if sc.query.get(need) is None:
                _fail(f"check {name!r} needs query field {need!r}")
        _known_keys(f"check {name!r}", opts, check.options, "option")
        planned.append((name, check.options | opts |
                        {k: rates[k] for k in check.needs if k in rates}))
    return sorted(planned, key=lambda c: list(_CHECKS).index(c[0]))


def _run_evp(F, q, grids, lam: float) -> Certificate:
    """Demonstration run of the variational-principle search on the merit
    values over the graph sample of the reference slice."""
    p = q.pbar_arr if q.pbar is not None else F.param_points(q, grids)[0]
    pts = F.graph_points(p, grids)
    if pts.shape[0] == 0:
        return Certificate(Verdict.INCONCLUSIVE, detail="empty graph sample")
    ybar = q.ybar_arr
    vals = np.linalg.norm(pts[:, F.nx:] - ybar[None, :], axis=1)
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
    F, q, grids = build_mapping(sc), build_query(sc), build_grids(sc)
    planned = _planned_checks(sc)
    if max_points is not None:
        # the oracle scans every X grid point at every parameter, and the
        # pair scans every X grid point at every ordered parameter pair
        n_params = len(F.param_labels) if F.param_labels is not None else \
            grids.p.point_count() if grids.p is not None else 1
        n_points = grids.x.point_count() * n_params
        if any(_CHECKS[name].pairs for name, _ in planned):
            n_points *= n_params
        if n_points > max_points:
            raise ResourceCapError(n_points, max_points)

    rows = []
    lines = [f"scenario: {os.path.basename(sc.path) or '(inline)'}"]
    mismatches = []
    for name, args in planned:
        t0 = time.perf_counter()
        try:
            cert = _CHECKS[name].run(F, q, grids, **args)
        except (NumericError, InputError) as exc:
            # a failed solver is no verdict, nor is a check that refuses the
            # accepted scenario; the other checks' rows are still written
            cert = Certificate(Verdict.INCONCLUSIVE, detail=str(exc))
        elapsed = time.perf_counter() - t0
        expect, status = sc.expect.get(name), ""
        if expect is not None and cert.verdict.value != expect:
            mismatches.append(name)
            status = f"  [expected {expect}]"
        elif expect is not None:
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
              help="Refuse scenarios whose scan exceeds this count: X grid "
                   "points times P grid points (or parameter labels) for the "
                   "oracle, times P grid points again when a check scans "
                   "parameter pairs: "
                   + ", ".join(n for n, c in _CHECKS.items() if c.pairs) + ".")
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
