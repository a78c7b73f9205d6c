"""Acceptance suite: end-to-end checks of the toolkit's headline guarantees.

Each test prints a single PASS/FAIL line.  The criteria:

1. the oracle refutes the squared-difference mapping at several rates on fine
   grids, and its dual distances match the closed form 2|x|;
2. the modulus of the difference mapping is 1 within grid spacing, and its
   weighted dual distances match min(1, 1/gamma);
3. hierarchy soundness on a random convex suite: a stronger condition check
   holding implies every weaker one holds;
4. the sufficient coderivative-ball check implies the oracle verdict;
5. oracle-certified instances pass every necessary condition within 1e-6;
6. local slope <= nonlocal slope pointwise, and the local slope matches the
   subdifferential distance at >= 500 graph points;
7. the variational-principle search passes exhaustive verification on 100
   random instances;
8. recede + subregularity certificates compose into a validated Aubin rate
   on >= 50 instances;
9. repeated scenario runs produce byte-identical CSV output.
"""

import dataclasses
import math
import os
import time

import numpy as np
import pytest

from regulab import (
    GammaMetric,
    GridSpec,
    ScanGrids,
    Verdict,
    check_coderivative_condition,
    check_local_slope_condition,
    check_nonlocal_slope_condition,
    check_normal_cone_condition,
    check_recede,
    check_subdifferential_condition,
    check_subreg_uniform,
    compose_aubin_rate,
    estimate_modulus,
    evp_search,
    gamma_dual_distance,
    local_slope,
    nonlocal_slope,
    subdiff_distance,
)
from regulab.cli import (
    EXAMPLE_DIFFERENCE,
    EXAMPLE_QUADRATIC,
    _rule_difference,
    _rule_quadratic_difference,
    load_scenario,
    run_scenario,
)
from regulab.spaces import NormedSpace
from conftest import (affine_map_1d, grids_1d, query_1d, random_convex_instances,
                      scan_points)


def _report(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def _grids(res, lim=1.0, p_res=None, p_lim=None):
    p_res = res if p_res is None else p_res
    p_lim = lim if p_lim is None else p_lim
    return ScanGrids(x=GridSpec((-lim,), (lim,), res),
                     y=GridSpec((-lim,), (lim,), res),
                     p=GridSpec((-p_lim,), (p_lim,), p_res))


def test_acceptance_1_quadratic_refutation_and_dual_closed_form():
    t0 = time.perf_counter()
    F = _rule_quadratic_difference(NormedSpace("X", 1), NormedSpace("Y", 1),
                                   NormedSpace("P", 1), {})
    grids = _grids(201)
    problems = []
    for alpha in (0.1, 0.5, 1.0):
        q = query_1d(alpha, delta=1.0, mu=1.0, eta=2.0)
        cert = check_subreg_uniform(F, q, grids)
        if cert.verdict is not Verdict.VIOLATED or cert.witness is None:
            problems.append(f"alpha={alpha} not refuted")
        elif not cert.witness["value"] < alpha:
            problems.append(f"alpha={alpha} witness ratio {cert.witness['value']}")
    g = GammaMetric(1.0)
    qvec = np.array([0.0, -1.0])
    for x in np.linspace(0.025, 0.475, 20):
        cone = F.normal_cone([0.0], [x], [x * x])
        d = gamma_dual_distance(qvec, cone, g, 1)
        if abs(d - 2 * x) > 1e-9:
            problems.append(f"dual distance at x={x}: {d} vs {2 * x}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        problems.append(f"runtime {elapsed:.2f}s >= 10s")
    _report("criterion 1: squared-difference refutation + dual closed form",
            not problems, "; ".join(problems))


def test_acceptance_2_difference_modulus_and_weighted_distances():
    t0 = time.perf_counter()
    F = _rule_difference(NormedSpace("X", 1), NormedSpace("Y", 1),
                         NormedSpace("P", 1), {})
    grids = _grids(81, p_res=11, p_lim=0.5)
    spacing = grids.x.spacing
    mod = estimate_modulus(F, [0.0], [0.0], 0.5, 0.5, grids, pbar=[0.0],
                           eta=1.0)
    problems = []
    if abs(mod - 1.0) > spacing:
        problems.append(f"modulus {mod} not within {spacing} of 1.0")
    qvec = np.array([0.0, -1.0])
    cone = F.normal_cone([0.0], [0.2], [-0.2])
    for gamma in (0.25, 0.5, 1.0, 2.0, 4.0):
        want = 1.0 if gamma <= 1.0 else 1.0 / gamma
        d = gamma_dual_distance(qvec, cone, GammaMetric(gamma), 1)
        if abs(d - want) > 1e-9:
            problems.append(f"gamma={gamma}: {d} vs {want}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        problems.append(f"runtime {elapsed:.2f}s >= 5s")
    _report("criterion 2: difference-map modulus + weighted dual distances",
            not problems, "; ".join(problems))


def test_acceptance_3_hierarchy_soundness(convex_suite):
    grids = grids_1d(11, 3)
    counterexamples = []
    for i, (F, modulus, kind) in enumerate(convex_suite):
        alpha = (0.75 if i % 2 == 0 else 1.3) * modulus
        q = query_1d(alpha, eta=0.5, gamma=1.0 / alpha)
        certs = [
            check_nonlocal_slope_condition(F, q, grids),
            check_local_slope_condition(F, q, grids),
            check_subdifferential_condition(F, q, grids),
            check_normal_cone_condition(F, q, grids),
            check_coderivative_condition(F, q, grids, mode="necessary"),
        ]
        for k in range(len(certs)):
            if certs[k].verdict is not Verdict.HOLDS:
                continue
            for j in range(k + 1, len(certs)):
                if certs[j].verdict is not Verdict.HOLDS:
                    counterexamples.append(
                        f"instance {i} ({kind}): level {k} holds, "
                        f"level {j} is {certs[j].verdict.value} "
                        f"(margin {certs[j].margin})")
    _report(f"criterion 3: hierarchy soundness on {len(convex_suite)} "
            "convex instances", not counterexamples,
            "; ".join(counterexamples[:3]))


def test_acceptance_4_coderivative_sufficiency_implies_oracle(convex_suite):
    grids = grids_1d(21, 5)
    counterexamples = []
    for i, (F, modulus, kind) in enumerate(convex_suite):
        alpha = (0.6 if i % 2 == 0 else 0.9) * modulus
        q = query_1d(alpha, eta=0.25)
        cond = check_coderivative_condition(F, q, grids)
        if cond.verdict is not Verdict.HOLDS:
            continue
        oracle = check_subreg_uniform(F, q, grids)
        if oracle.verdict is Verdict.VIOLATED:
            counterexamples.append(
                f"instance {i} ({kind}): coderivative holds, oracle violated")
    _report(f"criterion 4: coderivative-ball sufficiency vs oracle on "
            f"{len(convex_suite)} instances", not counterexamples,
            "; ".join(counterexamples[:3]))


def test_acceptance_5_necessity_on_certified_instances(convex_suite):
    grids = grids_1d(11, 3)
    counterexamples = []
    certified = 0
    for i, (F, modulus, kind) in enumerate(convex_suite):
        q = query_1d(0.75 * modulus, gamma=1.0 / (0.75 * modulus))
        if check_subreg_uniform(F, q, grids).verdict is not Verdict.HOLDS:
            continue
        certified += 1
        results = {
            "slope": check_nonlocal_slope_condition(F, q, grids,
                                                    mode="necessary"),
            "subdifferential": check_subdifferential_condition(
                F, q, grids, mode="necessary"),
            "normal-cone": check_normal_cone_condition(F, q, grids,
                                                       mode="necessary"),
        }
        for eta in (0.1, 0.5, 0.9):
            results[f"coderivative eta={eta}"] = check_coderivative_condition(
                F, dataclasses.replace(q, eta=eta), grids, mode="necessary")
        for name, cert in results.items():
            if cert.verdict is Verdict.VIOLATED:
                counterexamples.append(
                    f"instance {i} ({kind}): {name} violated "
                    f"(margin {cert.margin})")
    _report(f"criterion 5: necessary conditions on {certified} "
            "oracle-certified instances", not counterexamples,
            "; ".join(counterexamples[:3]))


def test_acceptance_6_slope_identities(convex_suite):
    grids = grids_1d(21, 5)
    counterexamples = []
    n_points = 0
    for i, (F, modulus, kind) in enumerate(convex_suite):
        if n_points >= 500:
            break
        q = query_1d(0.75 * modulus, gamma=1.3)
        for sp in scan_points(F, q, grids, q.delta + q.mu):
            ls = local_slope(F, q, sp.p, sp.x, sp.y, grids)
            ns = nonlocal_slope(F, q, sp.p, sp.x, sp.y, grids)
            sd = subdiff_distance(F, q, sp.p, sp.x, sp.y)
            n_points += 1
            if ls > ns + 1e-9:
                counterexamples.append(
                    f"instance {i}: local {ls} > nonlocal {ns}")
            if abs(ls - sd) > 1e-6:
                counterexamples.append(
                    f"instance {i}: |local - subdifferential| = {abs(ls - sd)}")
    if n_points < 500:
        counterexamples.append(f"only {n_points} points sampled")
    _report(f"criterion 6: slope identities at {n_points} graph points",
            not counterexamples, "; ".join(counterexamples[:3]))


def test_acceptance_7_variational_principle_verification():
    t0 = time.perf_counter()
    rng = np.random.default_rng(23)
    failures = []
    for k in range(100):
        dim = int(rng.integers(1, 4))
        side = {1: 1000, 2: 32, 3: 10}[dim]
        axes = [np.linspace(-1, 1, side)] * dim
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
        w = rng.uniform(0.5, 2.0, size=dim)
        off = rng.uniform(-0.5, 0.5, size=dim)
        kind = int(rng.integers(0, 2))

        def f(u, w=w, off=off, kind=kind):
            z = u - off
            return float(np.abs(w * z).sum() if kind == 0 else (w * z * z).sum())

        vals = np.array([f(u) for u in pts])
        start = pts[int(np.argsort(vals)[int(rng.integers(0, 20))])]
        eps = float(f(start) - vals.min()) + float(rng.uniform(0.05, 0.5))
        lam = float(rng.uniform(0.2, 1.5))
        res = evp_search(f, pts, start, eps=eps, lam=lam)
        if not res.all_conclusions:
            failures.append(f"run {k}: {res}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s >= 5s")
    _report("criterion 7: variational-principle search, 100 runs", not failures,
            "; ".join(failures[:3]))


def test_acceptance_8_rate_composition():
    rng = np.random.default_rng(29)
    grids = grids_1d(41, 5)
    counterexamples = []
    n = 0
    while n < 50:
        a = float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]))
        b = float(rng.uniform(0.2, 0.8) * rng.choice([-1.0, 1.0]))
        c = float(rng.uniform(-0.05, 0.05))
        F = affine_map_1d(a, b, c)
        alpha, l = 0.75 * abs(a), abs(b)
        q = query_1d(alpha, eta=0.7)
        sub = check_subreg_uniform(F, q, grids)
        rec = check_recede(F, q, l, grids)
        if not (sub.holds and rec.holds):
            continue  # only oracle-certified premises count
        n += 1
        cert = compose_aubin_rate(F, q, sub, l, rec, grids)
        if cert.verdict is not Verdict.HOLDS:
            counterexamples.append(
                f"a={a:.3f} b={b:.3f}: composed Aubin rate "
                f"{cert.verdict.value} (margin {cert.margin})")
    _report(f"criterion 8: rate composition on {n} certified instances",
            not counterexamples, "; ".join(counterexamples[:3]))


def test_acceptance_9_deterministic_csv(tmp_path):
    problems = []
    for name, text in (("quadratic", EXAMPLE_QUADRATIC),
                       ("difference", EXAMPLE_DIFFERENCE)):
        path = tmp_path / f"{name}.yaml"
        path.write_text(text)
        sc = load_scenario(str(path))
        outs = []
        for run in (1, 2):
            out = tmp_path / f"{name}-{run}"
            run_scenario(sc, out_dir=str(out))
            outs.append((out / f"{name}.csv").read_bytes())
        if outs[0] != outs[1]:
            problems.append(f"{name}: CSV differs between runs")
    _report("criterion 9: byte-identical CSV across repeated runs",
            not problems, "; ".join(problems))
