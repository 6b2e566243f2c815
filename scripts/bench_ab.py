"""Alternating A/B runs of bench/run.py between two commits.

    python scripts/bench_ab.py --parent REV [--change REV] --out BENCH_N.json \
        --workload fit_measured [--workload ...] [--pairs 10] [--seconds 25] [--seed 0]

Each commit is exported with ``git archive`` into its own temporary
directory, so both sides run committed files and the repository is left as
it was.  For every workload, each pair runs ``bench/run.py --workload W
--seconds S`` once from each checkout, the parent first in odd pairs and the
change first in even ones, each followed by ``rbaddr verify`` from the
same checkout, whose wall time joins that run's metrics as
``verify_full_s`` (named when the suite had a quick and a full level, and
kept so that records stay comparable).  Each run's metrics also gain
``peak_rss_mb_compiled``: the ``peak_rss_mb`` of ``bench/run.py --workload W
--seconds 1 --max-units 1`` with bytecode on, from a fresh export of the
same commit whose ``src/`` was compiled once in place (``python -m
compileall -q src``), so that the peak does not count compiling ``src/``.
``PYTHONPYCACHEPREFIX`` is not used: bytecode read from another directory
raised a bare numpy import from 27.5 to 32.2 MB.  After the pairs, the
tier-1 suite (``pytest -q -rf --continue-on-collection-errors``) runs once
from each checkout, both under one ``--hypothesis-seed`` drawn at random for
the call, so that both sides draw the same examples and a failure replays;
its wall time, outcome counts, the node ids of its failing tests and the
seed are recorded as ``pytest_s``, failures included.
``src_lines`` records each side's source size: the lines of each
``src/rbaddr/*.py`` of its export, as ``wc -l`` counts them, and their
total.  The output keeps the last JSON line of every run and, per
end-to-end metric, ``peak_rss_mb_compiled`` and ``verify_full_s``, the
median and inclusive quartiles of each side and the number of pairs the
change won; it is rewritten after every pair.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
DESCRIPTION = (
    "A/B runs of bench/run.py: the parent commit against the change, each from its own "
    "checkout, alternating which side runs first in each pair; the last JSON line of every "
    "run, with the wall time of `rbaddr verify` run from the same checkout right "
    "after it as the metric verify_full_s and the peak_rss_mb of a one-unit run from a second "
    "export of the same commit with src/ compiled once in place (python -m compileall -q src) "
    "and bytecode on as peak_rss_mb_compiled, then per metric the median and quartiles "
    "(inclusive method) of each side and the number of pairs the change won; pytest_s is "
    "the wall time, outcome counts and failing node ids of one tier-1 pytest run from each "
    "checkout after the pairs, both under the one --hypothesis-seed it records, drawn at "
    "random per call; src_lines is each side's `wc -l` of every src/rbaddr/*.py and "
    "their total."
)


def last_json_line(stdout: str) -> dict:
    """The JSON object on the last nonblank line of a bench/run.py run."""
    return json.loads([line for line in stdout.splitlines() if line.strip()][-1])


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric (``better`` maps each name to "lower" or "higher"): each
    side's median and quartiles, the ratio of the medians, and the pairs in
    which the change was strictly better."""
    summary = {}
    for name, direction in better.items():
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        sign = 1 if direction == "higher" else -1
        stats = {side: quartiles(values[side]) for side in SIDES}
        summary[name] = {
            "better": direction,
            **stats,
            "change_over_parent": stats["change"]["median"] / stats["parent"]["median"],
            "change_wins": sum(
                sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"])
            ),
            "pairs": len(pairs),
        }
    return summary


def export(rev: str, dest: Path) -> str:
    """The commit ``rev`` names, with its files written under ``dest``."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            check=True, capture_output=True, text=True).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", commit],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {commit} failed")
    return commit


def src_lines(checkout: Path) -> dict[str, int]:
    """Lines of each ``src/rbaddr/*.py`` of ``checkout`` as ``wc -l`` counts
    them (newline characters), and their ``total``."""
    counts = {path.name: path.read_bytes().count(b"\n")
              for path in sorted((checkout / "src" / "rbaddr").glob("*.py"))}
    return {**counts, "total": sum(counts.values())}


def run_bench(checkout: Path, workload: str, seconds: float, seed: int) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seconds", str(seconds),
         "--seed", str(seed)],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
    if result.returncode not in (0, 1):  # 1: a failed output check, reported in the line
        raise RuntimeError(f"bench/run.py exited {result.returncode}: {result.stderr[-500:]}")
    return last_json_line(result.stdout)


def compiled_peak_rss_mb(commit: str, dest: Path, workload: str, seed: int) -> float:
    """``peak_rss_mb`` of a one-unit ``bench/run.py`` run from an export of
    ``commit`` at ``dest`` whose ``src/`` is compiled first, with bytecode
    on; the export is removed after the run."""
    try:
        export(commit, dest)
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=dest, check=True)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        result = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", workload, "--seconds", "1",
             "--max-units", "1", "--seed", str(seed)],
            cwd=dest, env=env, capture_output=True, text=True,
        )
        if result.returncode not in (0, 1):
            raise RuntimeError(f"bench/run.py exited {result.returncode}: {result.stderr[-500:]}")
        return last_json_line(result.stdout)["metrics"]["peak_rss_mb"]["value"]
    finally:
        shutil.rmtree(dest, ignore_errors=True)


def verify_seconds(checkout: Path) -> float:
    """Wall time of ``rbaddr verify`` run from ``checkout``;
    a failed check or a crash raises, as no time of a broken suite counts."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(checkout / "src"))
    start = time.perf_counter()
    result = subprocess.run([sys.executable, "-m", "rbaddr.cli", "verify"],
                            cwd=checkout, env=env, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    if result.returncode != 0:
        raise RuntimeError(f"verify exited {result.returncode}: "
                           f"{(result.stdout + result.stderr)[-500:]}")
    return elapsed


def pytest_counts(stdout: str) -> dict[str, int]:
    """Outcome counts of pytest's closing summary line, passed and failed
    always: ``{"passed": 553, "failed": 1}`` for "553 passed, 1 failed in
    127.00s"."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    found = re.findall(r"(\d+) ([a-z]+)", lines[-1]) if lines else []
    return {"passed": 0, "failed": 0, **{word: int(n) for n, word in found}}


def pytest_run(checkout: Path, hypothesis_seed: int) -> dict:
    """Wall time, outcome counts and failing node ids (from the ``-rf``
    summary's FAILED lines) of the tier-1 suite run from ``checkout`` under
    ``--hypothesis-seed``, which is recorded too.  A failure is recorded,
    not raised: one property test fails about once in 40 runs."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(checkout / "src"))
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "--continue-on-collection-errors",
         f"--hypothesis-seed={hypothesis_seed}"],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
    elapsed = time.perf_counter() - start
    failing = re.findall(r"^FAILED (.+?)(?: - .*)?$", result.stdout, flags=re.MULTILINE)
    return {"value": elapsed, "unit": "s", "returncode": result.returncode,
            **pytest_counts(result.stdout), "failing": failing,
            "hypothesis_seed": hypothesis_seed}


def machine() -> str:
    import numpy as np

    cpu = platform.machine()
    with contextlib.suppress(OSError):
        models = [line.split(":", 1)[1].strip()
                  for line in Path("/proc/cpuinfo").read_text().splitlines()
                  if line.startswith("model name")]
        cpu = models[0] if models else cpu
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"{cpu}, nproc={os.cpu_count()} "
            f"python={platform.python_version()} numpy={np.__version__} "
            f"blas={blas.get('name')} {blas.get('version')}; OPENBLAS_NUM_THREADS=1 "
            f"(set by bench/run.py); PYTHONDONTWRITEBYTECODE=1")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="the commit to compare against")
    p.add_argument("--change", default="HEAD", help="the commit measured (default HEAD)")
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    better = {**{m["name"]: m["better"] for m in metrics}, "peak_rss_mb_compiled": "lower",
              "verify_full_s": "lower"}
    with tempfile.TemporaryDirectory(prefix="bench_ab-") as tmp:
        checkouts = {side: Path(tmp) / side for side in SIDES}
        commits = {side: export(getattr(args, side), checkouts[side]) for side in SIDES}
        report = {
            "description": DESCRIPTION,
            "command": f"python3 bench/run.py --workload <workload> --seconds {args.seconds:g} "
                       f"--seed {args.seed}",
            "parent_commit": commits["parent"],
            "change_commit": commits["change"],
            "machine": machine(),
            "src_lines": {side: src_lines(checkouts[side]) for side in SIDES},
            "workloads": [],
        }
        for workload in args.workload:
            entry = {"workload": workload, "seed": args.seed, "pairs": []}
            report["workloads"].append(entry)
            for pair in range(1, args.pairs + 1):
                order = SIDES if pair % 2 else SIDES[::-1]
                runs = {}
                for side in order:
                    runs[side] = run_bench(checkouts[side], workload, args.seconds, args.seed)
                    seconds = verify_seconds(checkouts[side])
                    runs[side]["metrics"]["verify_full_s"] = {"value": seconds, "unit": "s"}
                    peak = compiled_peak_rss_mb(commits[side], Path(tmp) / f"{side}-compiled",
                                                workload, args.seed)
                    runs[side]["metrics"]["peak_rss_mb_compiled"] = {"value": peak, "unit": "MB"}
                entry["pairs"].append({"pair": pair, "first": order[0],
                                       **{side: runs[side] for side in SIDES}})
                if pair > 1:  # quartiles need two values
                    entry["summary"] = summarize(entry["pairs"], better)
                args.out.write_text(json.dumps(report, indent=1) + "\n")
                units = {side: runs[side]["metrics"]["units_per_s"]["value"] for side in SIDES}
                print(f"{workload} pair {pair}: units_per_s parent {units['parent']:.4g} "
                      f"change {units['change']:.4g}", flush=True)
        hypothesis_seed = random.randrange(2**32)
        report["pytest_s"] = {side: pytest_run(checkouts[side], hypothesis_seed)
                              for side in SIDES}
        args.out.write_text(json.dumps(report, indent=1) + "\n")
        for side in SIDES:
            print(f"pytest {side}: {report['pytest_s'][side]}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
