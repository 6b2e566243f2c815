"""Fork-join shares: results independent of the worker count, and every
failure reaches the caller with no child left behind."""

import os
import signal
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

import rbaddr.noise as noise
import rbaddr.parallel as parallel
from rbaddr.noise import (
    SAMPLE_A,
    SLOTS,
    Composite,
    CrossTalk,
    Decoherence,
    Depolarizing,
    NoisyGateSet,
    evolve_to_ptms,
)
from rbaddr.protocol import RBConfig, SpamModel, run_protocol

WORKER_COUNTS = (1, 2, 3)


def _in_child(parent):
    return os.getpid() != parent


@pytest.fixture
def forks(monkeypatch):
    """The number of processes forked, through ``os.fork``."""
    count = [0]
    fork = os.fork

    def counting():
        count[0] += 1
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    return count


@pytest.mark.parametrize(
    "cfg, gateset_factory, fork_joins",
    [
        (
            RBConfig(
                lengths=(1, 2, 5, 11), K=6, seed=41, shots=80, keep_raw=True,
                spam=replace(
                    SpamModel.perfect(), assignment=0.88 * np.eye(4) + 0.03 * np.ones((4, 4))
                ),
            ),
            lambda: NoisyGateSet(Depolarizing(0.97, 0.95), "clifford"),
            1,  # propagation
        ),
        (
            RBConfig(lengths=(1, 3, 8), K=4, seed=2, keep_raw=True),
            lambda: NoisyGateSet(
                Composite((CrossTalk(SAMPLE_A, steps=16), Decoherence(SAMPLE_A)))
            ),
            2,  # the Magnus engine, then propagation
        ),
    ],
    ids=["clifford_depolarizing_shots_misassigned", "crosstalk_decoherence"],
)
def test_run_protocol_bits_do_not_depend_on_worker_count(
    workers, forks, cfg, gateset_factory, fork_joins
):
    runs = []
    for n in WORKER_COUNTS:
        workers(n)
        before = forks[0]
        runs.append(run_protocol(cfg, gateset_factory()))
        assert forks[0] - before == fork_joins * (n - 1)
    first, *others = runs
    for run in others:
        assert len(run) == len(first) == 7
        for a, b in zip(first, run):
            assert (a.experiment, a.projection) == (b.experiment, b.projection)
            for name in ("m", "raw", "mean", "stderr"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name


@pytest.mark.parametrize(
    "slots",
    [SLOTS, [("x90", "y180"), (None, None), ("x90", "y180"), ("y90", None), (None, "x90")]],
    ids=["all_48", "mixed_with_repeats"],
)
def test_engine_bits_do_not_depend_on_worker_count(workers, forks, slots):
    runs = []
    for n in WORKER_COUNTS:
        workers(n)
        before = forks[0]
        runs.append(evolve_to_ptms(SAMPLE_A, slots, steps=16))
        assert forks[0] - before == n - 1
    for ptms in runs[1:]:
        assert ptms.shape == (len(slots), 16, 16)
        assert np.array_equal(ptms, runs[0])


def test_children_find_every_table_built(workers, monkeypatch):
    # the parent builds the slot channels and element tables before the
    # blocks fork; a child that evolved slots would build them again
    workers(2)
    parent = os.getpid()
    engine = noise.evolve_to_ptms

    def parent_only(p, slots, steps):
        if _in_child(parent):
            raise AssertionError("a child evolved slots")
        return engine(p, slots, steps)

    monkeypatch.setattr(noise, "evolve_to_ptms", parent_only)
    gateset = NoisyGateSet(CrossTalk(SAMPLE_A, steps=16))
    run_protocol(RBConfig(lengths=(1, 2, 3), K=2, seed=3), gateset)


def test_shares_deal_longest_first_to_the_least_loaded():
    assert parallel.shares([1, 5, 2, 4, 3], 2) == [[0, 1, 2], [3, 4]]
    assert parallel.shares([1.0] * 5, 3) == [[0, 3], [1, 4], [2]]
    assert parallel.shares([7], 3) == [[0], [], []]


def test_small_shares_run_in_the_parent(monkeypatch, forks):
    monkeypatch.setattr(parallel, "cpu_count", lambda: 2)
    costs = [parallel.MIN_SHARE_SECONDS * 0.9] * 2  # two shares of 0.9 the minimum
    assert parallel.run_jobs(lambda share: [j * 2 for j in share], [1, 2], costs) == [2, 4]
    assert forks[0] == 0
    costs = [parallel.MIN_SHARE_SECONDS * 1.5] * 2
    assert parallel.run_jobs(lambda share: [j * 2 for j in share], [1, 2], costs) == [2, 4]
    assert forks[0] == 1


def test_a_child_exception_reaches_the_caller(workers):
    workers(2)
    parent = os.getpid()

    def work(share):
        if _in_child(parent):
            raise KeyError(f"bad job in {share}")
        return share

    with pytest.raises(KeyError, match=r"bad job in \[1\]"):
        parallel.run_jobs(work, [0, 1], [1.0, 1.0])


class _Unpicklable(Exception):
    def __init__(self, code, detail):
        super().__init__(f"{code}: {detail}")


def test_an_exception_pickle_cannot_carry_is_reported(workers):
    workers(2)
    parent = os.getpid()

    def work(share):
        if _in_child(parent):
            raise _Unpicklable(7, "lost")
        return share

    with pytest.raises(RuntimeError, match="not picklable"):
        parallel.run_jobs(work, [0, 1], [1.0, 1.0])


def test_a_child_that_dies_without_a_result_is_an_error(workers):
    workers(3)
    parent = os.getpid()

    def work(share):
        if _in_child(parent) and 2 in share:
            os.kill(os.getpid(), signal.SIGKILL)
        return share

    with pytest.raises(ChildProcessError, match="code -9 and no result"):
        parallel.run_jobs(work, [0, 1, 2], [1.0, 1.0, 1.0])


def test_a_failing_parent_share_kills_and_reaps_the_children(workers):
    workers(2)
    parent = os.getpid()

    def work(share):
        if _in_child(parent):
            time.sleep(60)
            return share
        raise ValueError("parent share failed")

    start = time.monotonic()
    with pytest.raises(ValueError, match="parent share failed"):
        parallel.run_jobs(work, [0, 1], [1.0, 1.0])
    assert time.monotonic() - start < 30  # the sleeping child was killed


def test_nothing_forks_while_another_thread_is_alive(workers, monkeypatch):
    workers(2)

    def no_fork():
        raise AssertionError("forked with a second thread alive")

    monkeypatch.setattr(os, "fork", no_fork)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    thread.start()
    try:
        assert parallel.run_jobs(lambda share: [j + 1 for j in share], [0, 1], [1.0, 1.0]) == [1, 2]
    finally:
        release.set()
        thread.join(30)
    assert not thread.is_alive()
