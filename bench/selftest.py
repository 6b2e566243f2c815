"""Self-test of the benchmark (not part of the pytest suite).

    python3 bench/selftest.py

Runs every workload at a tiny size, traced and untraced, and checks the
result line against BENCHMARK.json; checks the default-seed reference
values on a few full-size units; feeds perturbed references to the
benchmark (the negative control: each must be reported as a failure); and
runs the benchmark in a directory holding only BENCHMARK.json and bench/,
where it must fail without printing a result.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench" / "selftest"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

failures: list[str] = []


def report(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    for line in lines:
        if line.lstrip().startswith("FAIL"):
            print(f"    {line.strip()}")
    if proc.returncode not in (0, 1):
        print(f"    exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return proc.returncode, result


def expected_metrics(trace: int) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}


def tiny_runs() -> None:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            code, result = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                                 "--trace", str(trace), "--tiny")
            ok = (
                code == 0
                and result is not None
                and set(result) == {"correct", "attempted", "failed", "metrics"}
                and result["correct"] is True
                and result["failed"] == 0
                and result["attempted"] >= 1
                and {k: v["unit"] for k, v in result["metrics"].items()} == expected_metrics(trace)
            )
            report(ok, f"{workload} tiny, trace {trace}: correct result line with every metric")


def perturbed(reference: dict, workload: str, field: str, tol: float) -> Path:
    """The reference with one value of unit 0 moved by ten times its tolerance."""
    data = json.loads(json.dumps(reference))
    values = data[workload][0][field]
    while isinstance(values[0], list):
        values = values[0]
    values[0] += 10 * tol * max(1.0, abs(values[0]))
    path = WORK / f"reference-{workload}.json"
    path.write_text(json.dumps(data))
    return path


def reference_checks() -> None:
    reference = json.loads((BENCH / "reference.json").read_text())
    # (workload, units to run, field to perturb, its tolerance)
    cases = (
        ("fit_measured", "12", "fits", 1e-8),
        ("predict_sweep", "1", "numbers", 1e-12),
        ("simulate_depolarizing", "1", "curves", 1e-12),
    )
    for workload, units, field, tol in cases:
        common = ("--workload", workload, "--seed", "0", "--seconds", "60", "--trace", "0",
                  "--max-units", units)
        code, result = bench(*common)
        report(code == 0 and result is not None and result["correct"] and result["failed"] == 0,
               f"{workload}: first {units} default-seed units match the reference")
        code, result = bench(*common, "--reference", str(perturbed(reference, workload, field, tol)))
        report(code == 1 and result is not None and not result["correct"] and result["failed"] >= 1,
               f"{workload}: negative control, a reference moved by 10x its tolerance is a failure")


def bare_directory() -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    code, result = bench("--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                         "--seconds", str(SPEC["run_seconds"]), "--trace", "0", cwd=bare)
    report(code != 0 and result is None,
           f"without the program's sources: exit code {code} and no result line")


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        tiny_runs()
        reference_checks()
        bare_directory()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(failures)} self-test failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
