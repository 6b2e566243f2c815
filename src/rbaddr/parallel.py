"""Fork-join over independent jobs: the other CPUs run shares of the work.

``run_jobs(work, jobs, costs)`` deals the jobs into shares balanced by
estimated cost, the longest job first to the least-loaded share.  The
parent runs the first share; a forked child runs each other share and
sends its pickled results back through a pipe.  Results come back in job
order, whatever the share count, and every child is reaped before
``run_jobs`` returns or raises.  Everything runs in the parent when one CPU
is usable, on a platform without ``os.fork`` (or not Linux), while another
thread is alive (a fork copies only the calling thread, so a lock another
thread holds would stay locked in the child), or when a share would take
less than ``MIN_SHARE_SECONDS``.

Fork, not spawn: a spawned worker imports numpy and rbaddr again, which
costs more than the shares it would run.
"""

from __future__ import annotations

import os
import pickle
import sys
import threading

# Estimated seconds a share must take to pay for its fork.  Forking a
# 43 MB process with numpy loaded, pickling a 48 KB result back and
# reaping the child took 2.6-3.6 ms (2-core Xeon VM).
MIN_SHARE_SECONDS = 0.01


def cpu_count() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def shares(costs, n: int) -> list[list[int]]:
    """Job indices dealt into n shares, the longest job first to the
    least-loaded share (the first such share on a tie); each share lists
    its jobs in job order."""
    loads = [0.0] * n
    out = [[] for _ in range(n)]
    for job in sorted(range(len(costs)), key=lambda j: -costs[j]):
        share = loads.index(min(loads))
        out[share].append(job)
        loads[share] += costs[job]
    return [sorted(share) for share in out]


def run_jobs(work, jobs, costs) -> list:
    """``work(share)`` returns one result per job of a share, in its order;
    returns the results of all ``jobs`` in job order.  ``costs`` are the
    jobs' estimated seconds.  A child's exception is raised here with its
    type and message."""
    jobs = list(jobs)
    n = 1
    if sys.platform.startswith("linux") and hasattr(os, "fork") and threading.active_count() == 1:
        n = min(cpu_count(), len(jobs), int(sum(costs) / MIN_SHARE_SECONDS))
    if n < 2:
        return list(work(jobs))
    own, *others = shares(costs, n)
    children = []
    try:
        for part in others:
            children.append(_fork(work, [jobs[j] for j in part]))
        outputs = [work([jobs[j] for j in own])]
        while children:
            outputs.append(_join(*children.pop(0)))
    finally:
        for pid, fd in children:  # left only when a share raised
            _kill(pid)
            os.close(fd)
            os.waitpid(pid, 0)
    results = [None] * len(jobs)
    for part, output in zip((own, *others), outputs):
        for j, result in zip(part, output):
            results[j] = result
    return results


def _fork(work, part) -> tuple[int, int]:
    """Start a child that runs ``work(part)``; returns its pid and the read
    end of its result pipe."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, read_fd
    code = 1
    try:  # in the child: never return into the caller's code
        os.close(read_fd)
        try:
            payload = (True, list(work(part)))
        except Exception as exc:
            payload = (False, exc)
        try:
            data = pickle.dumps(payload)
            pickle.loads(data)
        except Exception as exc:  # a result or exception pickle cannot carry
            data = pickle.dumps((False, RuntimeError(f"worker result not picklable: {exc!r}")))
        with open(write_fd, "wb") as fh:
            fh.write(data)
        code = 0
    finally:
        os._exit(code)


def _join(pid: int, read_fd: int) -> list:
    """The results of a child's share, once it has exited; the child is
    killed if reading them fails, and reaped either way."""
    try:
        with open(read_fd, "rb") as fh:
            data = fh.read()
    except BaseException:
        _kill(pid)
        raise
    finally:
        status = os.waitpid(pid, 0)[1]
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise ChildProcessError(f"worker {pid} exited with code {code} and no result")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return value


def _kill(pid: int) -> None:
    # imported only on a failure path: building signal's enums would add
    # ~1 ms to the start-up of every command
    import signal

    os.kill(pid, signal.SIGKILL)
