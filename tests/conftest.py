import os

import pytest

import rbaddr.parallel as parallel


@pytest.fixture(autouse=True)
def no_child_left():
    """Every child process a test starts is reaped by the time it ends."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"test left child process {pid or '(still running)'} unreaped")


@pytest.fixture
def workers(monkeypatch):
    """Call with a CPU count: ``parallel.run_jobs`` then splits its jobs into
    that many shares, however cheap they are."""

    def set_workers(n):
        monkeypatch.setattr(parallel, "cpu_count", lambda: n)
        monkeypatch.setattr(parallel, "MIN_SHARE_SECONDS", 1e-12)

    return set_workers


@pytest.fixture
def evolved_pairs(monkeypatch):
    """The generator slots that go through the Magnus engine, one list per
    call, in order."""
    import rbaddr.noise as noise

    batches = []
    engine = noise.evolve_to_ptms

    def counting(p, slots, steps):
        batches.append(list(slots))
        return engine(p, slots, steps)

    monkeypatch.setattr(noise, "evolve_to_ptms", counting)
    return batches
