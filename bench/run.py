"""Benchmark of regulab: time to verdict and time to modulus.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; regulab is imported from its ``src``.
Workloads: ``examples`` (the two shipped scenarios through ``regulab run
--out``), ``polyhedral`` (seeded 1-D polyhedral maps) and ``affine-2d``
(seeded 2-D affine maps); see README.md.

Each run starts fresh worker processes: ``SETUP_PROBES`` that only set up,
then one that also runs whole rounds of the workload for ``--seconds`` and
checks every answer.  With ``--trace 0`` it reports the end-to-end metrics,
with ``--trace 1`` the per-layer ones.  Every metric is printed by name
with its unit, then the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("examples", "polyhedral", "affine-2d")
SETUP_PROBES = 4
# every run ends within this many seconds
DEADLINE_S = 170.0
# numpy's OpenBLAS would start a thread pool per process; the program is
# single-threaded, so the pool only adds start-up work and noise
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class RunError(Exception):
    pass


def launch(args, deadline):
    """Start worker.py with ``args`` and return its JSON result."""
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise RunError("out of time before starting a worker")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT,
                              env=dict(os.environ, **ENV), timeout=timeout,
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker did not finish within {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"worker exited with code {proc.returncode}:\n"
                       f"{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def round_time(main, rounds, kind, key="op_s"):
    """Seconds of the calls of ``kind`` in one round: the sum over calls of
    each call's median over the rounds, so a slow spell of the machine
    during part of one round moves the figure less than a median of round
    sums.  The copies ``<name>#<i>`` of a repeated call are pooled into one
    call's samples."""
    samples = {}
    for i, (name, k) in enumerate(zip(main["names"], main["kinds"])):
        if k == kind:
            samples.setdefault(name.partition("#")[0], []).extend(
                r[key][i] for r in rounds)
    return sum(statistics.median(values) for values in samples.values())


def is_time(metric: str) -> bool:
    return metric.endswith((".s", "_s"))


def measure(workload, seed, seconds, trace):
    deadline = time.perf_counter() + DEADLINE_S
    out = os.path.join(HERE, "out", f"{workload}-seed{seed}")
    base = ["--workload", workload, "--seed", str(seed), "--out", out]
    probes = [launch(base + ["--setup-only"], deadline)
              for _ in range(SETUP_PROBES)]
    main = launch(base + ["--seconds", str(seconds), "--trace", str(trace)],
                  deadline)
    setups = probes + [main]
    rounds = main["rounds"]
    plain = [r for r in rounds if not r["traced"]]
    run_s = round_time(main, plain, "run")
    if trace:
        traced = [r for r in rounds if r["traced"]]
        first = traced[0]["layers"]
        metrics = {name: (statistics.median(r["layers"][name] for r in traced)
                          if is_time(name) else first[name], unit)
                   for name, unit in ((n, "s" if is_time(n) else "count")
                                      for n in first)}
        metrics["setup.import_s"] = (
            statistics.median(s["import_s"] for s in setups), "s")
        metrics["cli.load_s"] = (
            statistics.median(s["load_s"] for s in setups), "s")
        metrics["trace.overhead_s"] = (
            round_time(main, traced, "run") - run_s, "s")
        metrics["speed.loop_s"] = (main["loop_s"], "s")
    else:
        metrics = {
            "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
            "run_s": (run_s, "s"),
            "modulus_s": (round_time(main, plain, "modulus"), "s"),
            "peak_rss_mb": (main["peak_rss_mb"], "MB"),
        }
    wall = (f"wall clock: setup_s "
            f"{statistics.median(s['setup_wall_s'] for s in setups):.4f} s, "
            f"run_s {round_time(main, plain, 'run', 'wall_s'):.4f} s, "
            f"modulus_s {round_time(main, plain, 'modulus', 'wall_s'):.4f} s; "
            f"calibration loop {main['loop_s'] * 1e3:.4f} ms")
    return {
        "correct": bool(main["consistent"]),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, main["failures"], len(rounds), wall


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "regulab", "__init__.py")):
        print(f"no regulab sources under {os.path.join(ROOT, 'src')}; run "
              "from the root of a regulab checkout", file=sys.stderr)
        return 2
    try:
        result, failures, n_rounds, wall = measure(
            args.workload, args.seed, args.seconds, args.trace)
    except RunError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}  seed {args.seed}  rounds {n_rounds}")
    for name, m in result["metrics"].items():
        print(f"  {name:<34} {m['value']:>14.6f} {m['unit']}")
    print(f"  {wall}")
    print(f"  operations attempted {result['attempted']}  failed "
          f"{result['failed']}  consistent across rounds {result['correct']}")
    for name, problems in sorted(failures.items()):
        print(f"  FAILED {name}: {'; '.join(problems)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
