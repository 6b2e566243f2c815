"""Spans and call counts around rbaddr's functions, installed from outside.

Each wrapper replaces a name where its caller looks it up (a module global
such as ``rbaddr.protocol.simulate_sequence``, or a class attribute such as
``NoisyGateSet.channel``), so the program's own code is untouched and the
wrappers can be removed between units.

Three kinds of wrapper:

* span: name, start, end, parent span and unit id, kept in memory and
  written as JSON lines by ``write_jsonl``.  Self time is the span's
  duration minus what its children cover.
* tally: for per-slot functions called ~10^5 times per unit.  Every call is
  counted; one call in ``SAMPLE_EVERY`` is timed and its self time scaled up,
  because timing every call would distort the run it measures.  The
  wrapper's own cost, measured at each ``install``, is taken off the self
  time of the span it was called from and booked as ``tracing`` instead.
* count: calls only, for functions whose time belongs to their caller.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from collections import defaultdict

SAMPLE_EVERY = 32


def _clock_cost(clock=time.perf_counter, rounds: int = 2000) -> float:
    """Smallest observed cost of one clock read, removed from sampled calls."""
    best = float("inf")
    for _ in range(rounds):
        t0 = clock()
        t1 = clock()
        best = min(best, t1 - t0)
    return best


def _noop(arg):
    return arg


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, unit, name, start, end)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.unit = None
        # one frame per open span: [span id, seconds covered by children,
        # tally calls made before it opened, tally calls inside child spans];
        # the bottom frame collects time spent outside any span
        self._stack: list[list] = [[None, 0.0, 0, 0]]
        self._ids = itertools.count()
        self._plan: list[tuple] = []
        self._installed: list[tuple] = []
        self._tallies: dict[str, list[int]] = {}
        self._clock_cost = _clock_cost()
        self._tally_cost = 0.0

    def _tally_calls(self) -> int:
        return sum(count[0] for count in self._tallies.values())

    def _measure_tally_cost(self, calls: int = 64 * SAMPLE_EVERY, rounds: int = 5) -> float:
        """Median extra seconds per call of a tally wrapper over the bare
        call, averaged over its timed and untimed calls."""
        wrapped = self._tally("tracing.calibration", _noop)
        costs = []
        for _ in range(rounds):
            start = time.perf_counter()
            for i in range(calls):
                _noop(i)
            bare = time.perf_counter() - start
            start = time.perf_counter()
            for i in range(calls):
                wrapped(i)
            costs.append((time.perf_counter() - start - bare) / calls)
        del self._tallies["tracing.calibration"]
        self.self_s.pop("tracing.calibration", None)
        self._stack[0][1], self._stack[0][3] = 0.0, 0
        costs.sort()
        return max(costs[len(costs) // 2], 0.0)

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, observe=None):
        clock, stack, ids = time.perf_counter, self._stack, self._ids
        spans, calls, self_s = self.spans, self.calls, self.self_s
        tally_calls, tally_cost = self._tally_calls, self._tally_cost

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [next(ids), 0.0, tally_calls(), 0]
            parent = stack[-1][0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                inside = tally_calls() - frame[2]
                wrappers = (inside - frame[3]) * tally_cost
                stack[-1][1] += duration
                stack[-1][3] += inside
                calls[name] += 1
                self_s[name] += duration - frame[1] - wrappers
                self_s["tracing"] += wrappers
                spans.append((frame[0], parent, self.unit, name, start, end))
            if observe is not None:
                observe(self, result)
            return result

        return wrapper

    def _tally(self, name, fn):
        clock, stack, self_s = time.perf_counter, self._stack, self.self_s
        cost = self._clock_cost
        count = self._tallies.setdefault(name, [0])  # shared by every lookup site

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count[0] += 1
            if count[0] % SAMPLE_EVERY:
                return fn(*args, **kwargs)
            frame = [stack[-1][0], 0.0, 0, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start - cost
                stack.pop()
                estimate = max(duration - frame[1], 0.0) * SAMPLE_EVERY
                self_s[name] += estimate
                stack[-1][1] += estimate + frame[1]
                stack[-1][3] += frame[3]

        return wrapper

    def _count(self, name, fn, observe=None):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, result)
            return result

        return wrapper

    # -- installation -----------------------------------------------------

    def add(self, resolve, attr: str, name: str, kind: str = "span", observe=None):
        """Plan a wrapper for ``getattr(resolve(), attr)``.

        ``resolve`` is called at install time, so the wrapper lands on the
        module or class object that is current then.  ``observe(tracer,
        result)`` sees each return value (span and count only).
        """
        self._plan.append((resolve, attr, name, kind, observe))

    def install(self) -> None:
        self._tally_cost = self._measure_tally_cost()
        for resolve, attr, name, kind, observe in self._plan:
            owner = resolve()
            original = getattr(owner, attr)
            if kind == "span":
                wrapped = self._span(name, original, observe)
            elif kind == "tally":
                wrapped = self._tally(name, original)
            else:
                wrapped = self._count(name, original, observe)
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)
        for name, count in self._tallies.items():
            self.calls[name] += count[0]
        self._tallies.clear()

    def run_unit(self, unit, name: str, fn, *args):
        """Call ``fn`` as the root span of one unit."""
        self.unit = unit
        try:
            return self._span(name, fn)(*args)
        finally:
            self.unit = None

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, parent, unit, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "unit": unit,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                )
                fh.write("\n")
