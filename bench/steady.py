"""Steadiness study: run the benchmark repeatedly and print the spread.

    python3 bench/steady.py [--workloads W ...] [--seeds 1-10] [--seconds S]

Runs ``bench/run.py`` once per workload and seed, one run at a time, from
the root of the checkout.  For every metric it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median; that share, set against each metric's
``bound`` in BENCHMARK.json, is how the bounds were chosen.  It also prints
the share of failed operations per run, which must be the same in every
run.  The raw results go to ``bench/out/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2 if q2 else float("inf")


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
                flush=True)
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        with open(os.path.join(HERE, "out", f"steady-{workload}.json"),
                  "w") as fh:
            json.dump({"seeds": args.seeds, "runs": runs}, fh, indent=1)
        print(f"\n{workload}: {len(runs)} runs of {args.seconds} s")
        print(f"  {'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>7}")
        for name in runs[0]["metrics"]:
            med, q1, q3, share = spread([r["metrics"][name]["value"]
                                         for r in runs])
            print(f"  {name:<34} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{share:>8.2%} {bounds[name]:>7.0%}")
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"  failed share per run: {sorted(shares)}  correct in every "
              f"run: {all(r['correct'] for r in runs)}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
