"""The benchmark's tracer (bench/run.py, bench/tracer.py) wraps rbaddr's
functions by name when it installs: a refactor that removes or renames one
of those names fails here, not in a traced benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from rbaddr.noise import Depolarizing
from rbaddr.protocol import RBConfig

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACED_MODULES = ("rbaddr.cli", "rbaddr.protocol", "rbaddr.noise", "rbaddr.twirl",
                  "rbaddr.fitting", "rbaddr.cliffords")


@pytest.fixture
def bench_run(monkeypatch):
    """bench/run.py imported as a module, leaving no bytecode under bench/
    and no lasting change to the environment, sys.path or sys.modules."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # run.py pins these on import
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_run", module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    yield module
    sys.modules.pop("tracer", None)


def test_tracer_installs_on_every_planned_name(bench_run):
    for name in TRACED_MODULES:
        importlib.import_module(name)  # the tracer resolves them in sys.modules
    protocol = sys.modules["rbaddr.protocol"]
    original = protocol.run_experiment
    tracer = bench_run.build_tracer()
    try:
        tracer.install()  # AttributeError names a wrapped function that is gone
        assert protocol.run_experiment is not original
        protocol.run_experiment(RBConfig(lengths=(1, 2), K=2), Depolarizing(0.99), "exp1")
    finally:
        tracer.uninstall()
    assert protocol.run_experiment is original
    assert tracer.calls["protocol.run_experiment"] == 1
    assert tracer.calls["protocol.simulate_sequence"] == 2
    # recoveries come from one batched scan per length, not per sequence
    assert tracer.calls["cliffords.recovery_index"] == 0
