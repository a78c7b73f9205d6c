"""One measured process of the benchmark; ``run.py`` starts it.

It imports regulab from the checkout's ``src``, sets a workload up and
reports the set-up time counted from ``--t0``, the moment the parent
started this interpreter.  With ``--setup-only`` it stops there.  Otherwise
it runs whole rounds of the workload for about ``--seconds``.  With
``--trace 1`` every second round runs with the per-layer wrappers
installed.  The last line of its output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_LOOPS = 20


def is_time(metric: str) -> bool:
    return metric.endswith((".s", "_s"))


def layer_metrics(tracer) -> dict:
    """The per-layer metrics of one traced round."""
    spans = tracer.layers()
    counts = tracer.counts

    def get(name, key):
        return spans.get(name, {}).get(key, 0 if key == "calls" else 0.0)

    out = {
        "spaces.make_grid.calls": get("spaces.make_grid", "calls"),
        "spaces.make_grid.s": get("spaces.make_grid", "s"),
        "mappings.graph_points.calls": get("mappings.graph_points", "calls"),
        "mappings.graph_points.distinct": len(tracer.distinct["graph_points"]),
        "mappings.graph_points.s": get("mappings.graph_points", "s"),
        "sets.project_polyhedron.calls": get("sets.project_polyhedron", "calls"),
        "sets.project_polyhedron.s": get("sets.project_polyhedron", "s"),
        "sets.is_empty.lp_calls": counts["sets.is_empty.lp_calls"],
        "sets.is_empty.distinct": len(tracer.distinct["lp"]),
        "mappings.residual_s": get("mappings.residual", "s"),
        "sets.dist_to_region.calls": get("sets.dist_to_region", "calls"),
        "mappings.normal_cone.calls": get("mappings.normal_cone", "calls"),
        "mappings.normal_cone.s": get("mappings.normal_cone", "s"),
        "sets.intersect_cones.calls": get("sets.intersect_cones", "calls"),
        "sets.gamma_dual_distance.calls": get("sets.gamma_dual_distance",
                                              "calls"),
        "sets.gamma_dual_distance.s": get("sets.gamma_dual_distance", "s"),
        "sets.cone_min_norm.calls": get("sets.cone_min_norm", "calls"),
        "sets.cone_min_norm.s": get("sets.cone_min_norm", "s"),
        "solver.linprog.calls": get("solver.linprog", "calls"),
        "solver.linprog.s": get("solver.linprog", "s"),
        "solver.linprog.failed": counts["solver.linprog.failed"],
        "solver.slsqp.calls": get("solver.slsqp", "calls"),
        "solver.slsqp.s": get("solver.slsqp", "s"),
        "solver.slsqp.failed": counts["solver.slsqp.failed"],
        "solver.lsq_linear.calls": get("solver.lsq_linear", "calls"),
        "solver.lsq_linear.s": get("solver.lsq_linear", "s"),
        "family.scan_s": get("check.scan", "s"),
        "family.primal_s": get("check.primal", "s"),
        "family.dual_s": get("check.dual", "s"),
        "check.self_s": sum(get(f, "self_s") for f in
                            ("check.scan", "check.primal", "check.dual")),
        "oracle.modulus.scans": get("oracle.modulus.scan", "calls"),
        "cli.output_s": get("cli.run_scenario", "self_s"),
        "check.points_scanned": counts["check.points_scanned"],
    }
    for kind in ("nonlocal", "local"):
        for key in ("calls", "s", "self_s"):
            out[f"slope.{kind}.{key}"] = get(f"slope.{kind}", key)
    return out


def warm_solvers():
    """First calls of the three scipy solvers regulab uses, which load
    their compiled parts; ``regulab run`` pays this once per process."""
    import numpy as np
    from regulab import sets

    sets.linprog(np.ones(1), bounds=[(0, 1)], method="highs")
    sets.minimize(lambda u: float(u @ u), np.ones(1), method="SLSQP")
    sets.lsq_linear(np.eye(1), np.ones(1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    t_import = time.perf_counter()
    import regulab.cli  # noqa: F401  (the import users of `regulab run` pay)
    import_s = time.perf_counter() - t_import

    import workloads
    from speed import REFERENCE_S, SpeedMeter, calibration_loop

    os.makedirs(args.out, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.out)
    setup = wl.setup()
    warm_solvers()
    setup_wall = time.perf_counter() - args.t0
    # the speed right after set-up stands for the speed during it
    loop = statistics.median(calibration_loop() for _ in range(SETUP_LOOPS))
    result = {"setup_s": setup_wall * REFERENCE_S / loop,
              "setup_wall_s": setup_wall,
              "import_s": import_s, "load_s": setup.get("cli.load_s", 0.0)}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    meter = SpeedMeter()
    meter.start()
    try:
        result.update(run_rounds(wl, args, meter, tracer))
    finally:
        meter.stop()
    result.update(loop_s=statistics.median(meter.loops),
                  kinds=[op.kind for op in wl.ops],
                  names=[op.name for op in wl.ops],
                  peak_rss_mb=resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(result))
    return 0


def run_rounds(wl, args, meter, tracer) -> dict:
    """Whole rounds for about ``args.seconds``; every second one traced
    when there is a tracer."""
    rounds, failures, first_prints, first_counts = [], {}, None, None
    consistent = True
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        t_round = time.perf_counter()
        op_s, wall_s, attempted, failed, prints = wl.round(
            meter, tracer if traced else None)
        entry = {"op_s": op_s, "wall_s": wall_s, "attempted": attempted,
                 "failed": len(failed), "traced": traced}
        if first_prints is None:
            first_prints = prints
        elif prints != first_prints:
            consistent = False
        if traced:
            entry["layers"] = layer_metrics(tracer)
            counts = {k: v for k, v in entry["layers"].items()
                      if not is_time(k)}
            if first_counts is None:
                first_counts = counts
                with open(os.path.join(args.out, "trace.jsonl"), "w") as fh:
                    for name, t0, t1, parent in tracer.spans():
                        fh.write(json.dumps([name, t0, t1, parent]) + "\n")
            elif counts != first_counts:
                consistent = False
            tracer.reset()
        rounds.append(entry)
        failures.update(failed)
        # start another round only if at least half of it falls within
        # --seconds, judging by the round just run, so that the number of
        # rounds does not flip with small changes of speed; a traced run
        # needs one round of each kind
        now = time.perf_counter()
        if now + 0.5 * (now - t_round) - start > args.seconds and (
                tracer is None or len(rounds) >= 2):
            break
    return {"rounds": rounds, "failures": failures, "consistent": consistent}


if __name__ == "__main__":
    sys.exit(main())
