"""The benchmark's entry points that reach into regulab by name."""

import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_warm_solvers_finds_every_solver():
    # bench/worker.py warms the scipy solvers through the names regulab.sets
    # imports them by; dropping one of those names breaks the benchmark
    _load("worker").warm_solvers()


def test_bench_tracer_finds_every_hook():
    # the tracer wraps a name only where an owner defines it itself and
    # skips it silently otherwise, so a deleted or renamed callee would
    # zero its per-layer metric
    missing = [(attr, span) for owners, attr, span in _load("tracing")._LAYERS
               if not any(attr in vars(owner) for owner in owners)]
    assert not missing


@pytest.mark.parametrize("workload", ["examples", "polyhedral", "affine-2d"])
def test_bench_workload_round(workload, tmp_path, monkeypatch):
    # one round of each workload through the API the benchmark calls, with
    # every answer checked; the one known failure is the difference
    # example's slope-local row, a HOLDS at margin -1.5e-8 that comes from
    # the slope checks' tolerance of 1e-7
    monkeypatch.syspath_prepend(str(BENCH))
    workloads, speed = _load("workloads"), _load("speed")
    wl = workloads.WORKLOADS[workload](1, str(tmp_path))
    wl.setup()
    _, _, attempted, failures, _ = wl.round(speed.SpeedMeter())
    assert attempted > 0
    assert set(failures) <= {"example_difference:slope-local"}, failures
