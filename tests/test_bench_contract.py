"""The benchmark's tracer (bench/run.py, bench/tracer.py) wraps rbaddr's
functions by name when it installs: a refactor that removes or renames one
of those names fails here, not in a traced benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from rbaddr.noise import Depolarizing, NoisyGateSet
from rbaddr.protocol import RBConfig, SurvivalCurve, decay_single

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
        gateset = NoisyGateSet(Depolarizing(0.99))
        protocol.run_experiment(RBConfig(lengths=(1, 2), K=2), gateset, "exp1")
    finally:
        tracer.uninstall()
    assert protocol.run_experiment is original
    assert tracer.calls["protocol.run_experiment"] == 1
    assert tracer.calls["protocol.simulate_sequence"] == 2
    # recoveries come from one batched scan per length, not per sequence
    assert tracer.calls["cliffords.recovery_index"] == 0


def test_tracer_reads_the_fitting_names(bench_run):
    # run.py counts LM iterations from index 4 of ``_lm``'s tuple and from
    # the ``iterations``/``converged`` of the fits fit_protocol_curves returns
    for name in TRACED_MODULES:
        importlib.import_module(name)
    cli = sys.modules["rbaddr.cli"]
    rng = np.random.default_rng(3)
    m = np.array([1, 2, 4, 8, 16, 32, 64, 128])
    curves = [
        SurvivalCurve(experiment, projection, m,
                      decay_single(m, 0.5, alpha, 0.5) + rng.normal(0, 1e-3, len(m)),
                      np.full(len(m), 1e-3), K=20)
        for experiment, projection, alpha in (
            ("exp1", "Q1", 0.99), ("exp3", "Q1", 0.985), ("exp3", "Q2", 0.98),
        )
    ]
    tracer = bench_run.build_tracer()
    try:
        tracer.install()
        result = cli.fit_protocol_curves(curves)
    finally:
        tracer.uninstall()
    fits = result["fits"].values()
    assert len(fits) == 3 and all(fit.iterations > 1 for fit in fits)
    # one LM run per single-exponential fit, each counted once
    assert tracer.calls["fitting.lm"] == 3
    assert tracer.calls["fitting.lm_iterations_run"] == sum(fit.iterations for fit in fits)
    assert tracer.calls["fitting.lm_iterations"] == sum(fit.iterations for fit in fits)
    assert tracer.calls["fitting.not_converged"] == sum(not fit.converged for fit in fits)
    assert tracer.calls["fitting.errors"] == 0
