"""End-to-end benchmark of the rbaddr command line, one workload per process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout: the program is imported from the
checkout's ``src`` directory.  One single-threaded process drives
``rbaddr.cli.main([...])`` in-process, one unit (one CLI command) at a time
in a closed loop, until ``--seconds`` have passed.  Times are reported in
calibrated seconds (see ``Calibration``), with the wall-clock values printed
alongside.  Every unit's outputs are checked.  The last line of standard
output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Scratch files go to ``.perfbench/`` at the checkout root.

``--trace 1`` wraps rbaddr's functions (see ``tracer.py``) on every other
unit, in a pattern that alternates every ten units so that fit_measured's
hard sets fall on both sides; the untraced units give the tracing overhead.
"""

from __future__ import annotations

import os

# BLAS must be pinned before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = BENCH / "reference.json"

DEFAULT_SEED = 0
# Set-ups per run, spread over the timed loop so that their median samples
# the machine in the same state as the units do.
SETUP_REPEATS = 11
GROUPS = ("c1", "cxi", "ixc", "cxc")
# Units per workload that the reference records for the default seed.
REFERENCE_UNITS = {
    "simulate_depolarizing": 10,
    "simulate_crosstalk": 5,
    "predict_sweep": 20,
    "fit_measured": 100,
}


def _purge_rbaddr() -> None:
    for name in [n for n in sys.modules if n == "rbaddr" or n.startswith("rbaddr.")]:
        del sys.modules[name]


def measure_setup() -> float:
    """One fresh import of rbaddr and rbaddr.cli plus the group builds every
    CLI invocation pays; the new modules stay in place for the next units."""
    _purge_rbaddr()
    gc.collect()
    start = time.perf_counter()
    importlib.import_module("rbaddr")
    cliffords = importlib.import_module("rbaddr.cliffords")
    importlib.import_module("rbaddr.cli")
    for kind in GROUPS:
        cliffords.get_group(kind)
    elapsed = time.perf_counter() - start
    gc.collect()
    return elapsed


# ---------------------------------------------------------------------------
# Machine-speed calibration
#
# On a shared 2-core Xeon VM the same code ran up to 2x slower for minutes at
# a time, in CPU time as much as in wall time, so the median unit wall time
# of ten runs of one commit spread by up to 45% (interquartile range over
# median).  Each timed interval, a unit or a set-up, is therefore bracketed
# by two runs of a fixed kernel of small numpy mat-vecs and dict lookups, the
# kind of work rbaddr's hot loops do, and reported as
#     wall seconds * CALIBRATION_REF_S / (mean of the two kernel times),
# the seconds it would have taken on a machine where the kernel takes
# CALIBRATION_REF_S.  On the same VM ten calibrated runs spread 3-9%.

CALIBRATION_REF_S = 0.0036  # about the kernel's time on that VM in a fast phase


def calibration_kernel() -> float:
    import numpy as np

    matrix = np.full((16, 16), 1 / 16)
    state = np.ones(16)
    table = {(i % 7, i % 5): i for i in range(35)}
    start = time.perf_counter()
    for _ in range(500):
        state = matrix @ state
    total = 0
    for i in range(20000):
        total += table[(i % 7, i % 5)]
    return time.perf_counter() - start


class Calibration:
    def __init__(self):
        self._before = calibration_kernel()

    def scale(self) -> float:
        """Reference seconds per wall second over the interval since the
        last call (or since construction)."""
        after = calibration_kernel()
        scale = CALIBRATION_REF_S / ((self._before + after) / 2)
        self._before = after
        return scale


# ---------------------------------------------------------------------------
# Tracing plan: where each caller looks up the functions it calls


def _module(name):
    return lambda: sys.modules[name]


def _attr(module, attr):
    return lambda: getattr(sys.modules[module], attr)


def _observe_fits(tracer, result) -> None:
    for fit in result["fits"].values():
        if isinstance(fit, dict):
            tracer.calls["fitting.errors"] += 1
        else:
            tracer.calls["fitting.lm_iterations"] += fit.iterations
            tracer.calls["fitting.not_converged"] += 0 if fit.converged else 1


def _observe_lm(tracer, result) -> None:
    tracer.calls["fitting.lm_iterations_run"] += result[4]


def build_tracer():
    from tracer import Tracer

    t = Tracer()
    cli, protocol, noise = _module("rbaddr.cli"), _module("rbaddr.protocol"), _module("rbaddr.noise")
    twirl, fitting = _module("rbaddr.twirl"), _module("rbaddr.fitting")
    gateset = _attr("rbaddr.noise", "NoisyGateSet")
    t.add(cli, "run_protocol", "protocol.run_protocol")
    t.add(protocol, "run_experiment", "protocol.run_experiment")
    t.add(protocol, "generate_sequence", "protocol.generate_sequence")
    t.add(protocol, "simulate_sequence", "protocol.simulate_sequence")
    t.add(_attr("rbaddr.cliffords", "CliffordGroup"), "recovery_index", "cliffords.recovery_index")
    t.add(protocol, "element_slots", "cliffords.element_slots", "tally")
    t.add(noise, "element_slots", "cliffords.element_slots", "tally")
    t.add(gateset, "__init__", "noise.gateset.builds", "count")
    t.add(gateset, "channel", "noise.channel", "tally")
    t.add(gateset, "error_factor", "noise.error_factor")
    t.add(noise, "evolve_to_ptm", "noise.evolve_to_ptm")
    t.add(noise, "ptm_from_unitary", "paulis.ptm_from_unitary")
    t.add(cli, "predict_addressability", "noise.predict_addressability")
    t.add(noise, "predict_alphas", "noise.predict_alphas")
    t.add(noise, "average_error_channel", "noise.average_error_channel")
    for name in ("twirl_cxc", "twirl_cxi", "gamma_decay_curve"):
        t.add(twirl, name, f"twirl.{name}")
    t.add(cli, "fit_protocol_curves", "fitting.fit_protocol_curves", observe=_observe_fits)
    t.add(fitting, "fit_exponential", "fitting.fit_exponential")
    t.add(fitting, "fit_correlation_curve", "fitting.fit_correlation_curve")
    # counted, not spanned: LM time stays in the fit that ran it
    t.add(fitting, "_lm", "fitting.lm", "count", observe=_observe_lm)
    t.add(cli, "read_curves_csv", "protocol.read_curves_csv")
    t.add(cli, "write_curves_csv", "protocol.write_curves_csv")
    t.add(cli, "build_report", "report.build_report")
    return t


def _traced(index: int) -> bool:
    return (index + index // 10) % 2 == 0


def per_layer(tracer, n_units: int, overhead: float) -> dict[str, tuple[float, str]]:
    calls, self_s = tracer.calls, tracer.self_s
    n = max(n_units, 1)

    def per_unit(x):
        return x / n

    metrics: dict[str, tuple[float, str]] = {}
    for name in ("protocol.simulate_sequence", "cliffords.element_slots",
                 "cliffords.recovery_index", "noise.evolve_to_ptm",
                 "paulis.ptm_from_unitary", "fitting.fit_exponential",
                 "fitting.fit_correlation_curve"):
        metrics[f"{name}.calls"] = (per_unit(calls[name]), "count")
        metrics[f"{name}.self_s"] = (per_unit(self_s[name]), "s")
    for name in ("protocol.run_experiment", "protocol.generate_sequence",
                 "noise.average_error_channel", "twirl.twirl_cxc", "twirl.twirl_cxi",
                 "twirl.gamma_decay_curve", "protocol.read_curves_csv",
                 "protocol.write_curves_csv", "report.build_report"):
        metrics[f"{name}.self_s"] = (per_unit(self_s[name]), "s")
    lookups, misses = calls["noise.channel"], calls["noise.error_factor"]
    metrics["noise.gateset.builds"] = (per_unit(calls["noise.gateset.builds"]), "count")
    metrics["noise.channel.calls"] = (per_unit(lookups), "count")
    metrics["noise.channel.self_s"] = (per_unit(self_s["noise.channel"]), "s")
    metrics["noise.channel.misses"] = (per_unit(misses), "count")
    metrics["noise.channel.hit_ratio"] = ((lookups - misses) / lookups if lookups else 0.0, "1")
    metrics["noise.predict_alphas.calls"] = (per_unit(calls["noise.predict_alphas"]), "count")
    for name in ("fitting.lm_iterations", "fitting.lm_iterations_run",
                 "fitting.not_converged", "fitting.errors"):
        metrics[name] = (per_unit(calls[name]), "count")
    metrics["cli.self_s"] = (per_unit(self_s["cli"]), "s")
    metrics["tracing.self_s"] = (per_unit(self_s["tracing"]), "s")
    metrics["tracing.overhead"] = (overhead, "1")
    return metrics


# ---------------------------------------------------------------------------


def _call_cli(cli, argv, tracer, index):
    """Run one CLI command in-process; returns (exit code or None, captured stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if tracer is None:
                return cli.main(argv), err.getvalue()
            return tracer.run_unit(index, "cli", cli.main, argv), err.getvalue()
        except Exception:  # a crashing unit is counted as failed, not fatal
            return None, err.getvalue() + traceback.format_exc()


# VmHWM is the high-water RSS of the process image after exec; ru_maxrss
# would also count the pages the child shared with this process before exec.
CLI_PROCESS = """
import sys
sys.path.insert(0, sys.argv[1])
from rbaddr.cli import main
code = main(sys.argv[2:])
with open("/proc/self/status") as fh:
    hwm = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
sys.stderr.write(f"\\nVmHWM_kB {hwm}\\n")
sys.exit(code)
"""


def _cli_process(argv) -> tuple[int, str, float]:
    """Run one CLI command as its own process, as a user does; returns its
    exit code, stderr and peak RSS in MB."""
    proc = subprocess.run(
        [sys.executable, "-c", CLI_PROCESS, str(SRC), *argv],
        capture_output=True, text=True, timeout=120,
    )
    stderr, marker, hwm = proc.stderr.rpartition("\nVmHWM_kB ")
    if not marker:  # the command crashed before reporting
        return proc.returncode or 1, proc.stderr, 0.0
    return proc.returncode, stderr, int(hwm) / 1024


def tail(times: list[float]) -> tuple[str, float] | None:
    """Highest of p99/p90 with at least ten samples beyond it."""
    if len(times) < 2:
        return None
    cuts = statistics.quantiles(times, n=100)
    for pct in (99, 90):
        value = cuts[pct - 1]
        if sum(t > value for t in times) >= 10:
            return f"p{pct}", value
    return None


def _load_reference(path: Path, workload: str, seed: int, tiny: bool) -> list[dict]:
    if seed != DEFAULT_SEED or tiny or not path.is_file():
        return []
    return json.loads(path.read_text()).get(workload, [])


def _machine() -> str:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (
        f"nproc={os.cpu_count()} python={platform.python_version()} numpy={np.__version__} "
        f"blas={blas.get('name')} {blas.get('version')} "
        f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}"
    )


@dataclass
class Run:
    """Times are calibrated seconds; the ``wall_`` lists hold the raw ones."""

    calibration: Calibration
    setup_times: list[float] = field(default_factory=list)
    setup_wall_times: list[float] = field(default_factory=list)
    times: list[float] = field(default_factory=list)
    wall_times: list[float] = field(default_factory=list)
    traced_times: list[float] = field(default_factory=list)
    untraced_times: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    failed: int = 0
    nonconverged_units: int = 0
    hard_units: int = 0
    hard_time: float = 0.0
    peak_rss_mb: float = 0.0
    recorded: list[dict] = field(default_factory=list)


def run_units(args, workload, tracer, reference, work: Path) -> Run:
    """The closed loop, then unit 0 once more in a process of its own."""
    from workloads import check, compare, extract, make_unit, same_artifacts

    run = Run(Calibration())

    def set_up():
        wall = measure_setup()
        run.setup_wall_times.append(wall)
        run.setup_times.append(wall * run.calibration.scale())

    set_up()
    limit = REFERENCE_UNITS[workload.name] if args.record_reference else args.max_units
    keys = set()
    setup_every = args.seconds / SETUP_REPEATS
    last_setup = time.perf_counter()
    deadline = last_setup + args.seconds
    index = 0
    while True:
        if time.perf_counter() - last_setup >= setup_every:
            set_up()
            last_setup = time.perf_counter()
        cli = sys.modules["rbaddr.cli"]
        unit = make_unit(workload, args.seed, index, work / f"u{index}", args.tiny)
        if unit.key in keys:
            raise RuntimeError(f"unit {index} repeats the inputs of an earlier unit")
        keys.add(unit.key)
        use_tracer = tracer if tracer is not None and _traced(index) else None
        if use_tracer is not None:
            self_before = dict(use_tracer.self_s)
            use_tracer.install()
        try:
            start = time.perf_counter()
            code, stderr = _call_cli(cli, unit.argv, use_tracer, index)
            wall = time.perf_counter() - start
        finally:
            if use_tracer is not None:
                use_tracer.uninstall()
        scale = run.calibration.scale()
        elapsed = wall * scale
        if use_tracer is not None:  # this unit's self times, calibrated too
            for name, total in use_tracer.self_s.items():
                before = self_before.get(name, 0.0)
                use_tracer.self_s[name] = before + (total - before) * scale
        run.wall_times.append(wall)
        run.times.append(elapsed)
        (run.traced_times if use_tracer is not None else run.untraced_times).append(elapsed)
        if unit.hard:
            run.hard_units += 1
            run.hard_time += elapsed

        errors = [f"exit code {code}: {stderr.strip()[-300:]}"] if code != 0 else []
        nonconverged = 0
        try:
            if not errors:
                errors, nonconverged = check(workload, unit, args.tiny)
            if not errors and (args.record_reference or index < len(reference)):
                values = extract(workload, unit.out)
                if args.record_reference:
                    run.recorded.append(values)
                else:
                    errors = compare(values, reference[index])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            errors = [f"unreadable output: {exc!r}"]
        if errors:
            run.failed += 1
            run.failures.append(f"unit {index}: {errors[0]}")
        elif nonconverged:
            run.nonconverged_units += 1
        if index == 0:
            first, first_failed = unit, bool(errors)
        else:
            shutil.rmtree(work / f"u{index}")
        index += 1
        if limit is not None and index >= limit:
            break
        if not args.record_reference and time.perf_counter() >= deadline:
            break

    while len(run.setup_times) < SETUP_REPEATS:  # runs too short to spread them
        set_up()
    # data artifacts must be byte-identical when unit 0 is repeated
    repeat = first.out.with_name("out-repeat")
    code, stderr, run.peak_rss_mb = _cli_process(
        [str(repeat) if a == str(first.out) else a for a in first.argv]
    )
    errors = (
        [f"exit code {code}: {stderr.strip()[-300:]}"] if code != 0
        else same_artifacts(workload, first.out, repeat)
    )
    if errors:
        run.failures.append(f"repeat of unit 0: {errors[0]}")
        run.failed += 0 if first_failed else 1
    return run


def print_end_to_end(run: Run, metrics: dict) -> None:
    print(f"setup_s repeats: {', '.join(f'{t:.4f}' for t in run.setup_times)}")
    attempted = len(run.times)
    wall = {
        "setup_s": statistics.median(run.setup_wall_times),
        "unit_s_p50": statistics.median(run.wall_times),
        "units_per_s": attempted / sum(run.wall_times),
    }
    for name, (value, unit) in metrics.items():
        raw = f"  (wall: {wall[name]:.6g} {unit})" if name in wall else ""
        print(f"  {name:<14} {value:.6g} {unit}{raw}")
    print(f"  units          {attempted} (unit_s_p50 over {attempted} samples)")
    t = tail(run.times)
    print(f"  unit_s_tail    {t[1]:.6g} s ({t[0]})" if t else
          "  unit_s_tail    omitted: no percentile with 10 samples beyond it")
    print(f"  fail_frac      {(run.failed + run.nonconverged_units) / attempted:.4g} "
          f"({run.failed} failed checks or commands, {run.nonconverged_units} units with a "
          f"non-converged fit)")
    if run.hard_units:
        print(f"  hard sets      {run.hard_units / attempted:.3f} of units, "
              f"{run.hard_time / sum(run.times):.3f} of unit time")
    for line in run.failures[:10]:
        print(f"  FAIL {line}")


def print_per_layer(run: Run, metrics: dict, tracer, trace_path: Path) -> None:
    unit_time = statistics.fmean(run.traced_times)
    print(f"per-layer, per traced unit ({len(run.traced_times)} traced, "
          f"{len(run.untraced_times)} untraced; spans in {trace_path}):")
    for name, (value, unit) in metrics.items():
        share = f"  {100 * value / unit_time:5.1f}%" if name.endswith("self_s") else ""
        print(f"  {name:<38} {value:14.6g} {unit}{share}")
    print(f"self time of all spans and tallies: "
          f"{100 * sum(tracer.self_s.values()) / sum(run.traced_times):.1f}% of traced unit time")


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink simulate inputs to lengths 1..32 (self-test)")
    p.add_argument("--max-units", type=int, default=None, help="stop after this many units")
    p.add_argument("--reference", type=Path, default=REFERENCE,
                   help="reference values for the default seed")
    p.add_argument("--record-reference", action="store_true",
                   help="write this workload's reference values for the default seed")
    return p.parse_args(argv)


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH))
    args = parse_args(argv)
    if not (SRC / "rbaddr" / "__init__.py").is_file():
        print(f"error: no rbaddr sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record_reference and (args.seed != DEFAULT_SEED or args.tiny or args.trace):
        print("error: references are recorded untraced, at full size, for the default seed",
              file=sys.stderr)
        return 1

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    tracer = build_tracer() if args.trace else None
    reference = _load_reference(args.reference, workload.name, args.seed, args.tiny)
    work = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        run = run_units(args, workload, tracer, reference, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = len(run.times)
    correct = not run.failures

    if args.record_reference:
        if not correct:
            print("\n".join(run.failures), file=sys.stderr)
            return 1
        data = json.loads(args.reference.read_text()) if args.reference.is_file() else {}
        data[workload.name] = run.recorded
        args.reference.write_text(json.dumps(data, sort_keys=True) + "\n")
        print(f"recorded {len(run.recorded)} {workload.name} units in {args.reference}")
        return 0

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: {_machine()}")
    end_to_end = {
        "setup_s": (statistics.median(run.setup_times), "s"),
        "unit_s_p50": (statistics.median(run.times), "s"),
        "units_per_s": (attempted / sum(run.times), "1/s"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }
    print_end_to_end(run, end_to_end)
    metrics = end_to_end
    if tracer is not None:
        overhead = (
            statistics.median(run.traced_times) / statistics.median(run.untraced_times) - 1.0
            if run.traced_times and run.untraced_times else 0.0
        )
        metrics = per_layer(tracer, len(run.traced_times), overhead)
        trace_path = WORK / "traces" / f"{workload.name}.jsonl"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(trace_path)
        print_per_layer(run, metrics, tracer, trace_path)
        print(f"tracing overhead: {overhead:+.3f} (median traced / untraced unit - 1)")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
