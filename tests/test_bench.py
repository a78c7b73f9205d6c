"""The benchmark's entry points that reach into regulab by name."""

import importlib.util
from pathlib import Path


def test_bench_warm_solvers_finds_every_solver():
    # bench/worker.py warms the scipy solvers through the names regulab.sets
    # imports them by; dropping one of those names breaks the benchmark
    path = Path(__file__).resolve().parents[1] / "bench" / "worker.py"
    spec = importlib.util.spec_from_file_location("bench_worker", path)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    worker.warm_solvers()
