import csv
import importlib.util
import json
import os
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from rbaddr.cli import main as rbaddr_main
from rbaddr.cli import build_model
from rbaddr.noise import SAMPLE_A, CrossTalk, NoisyGateSet, predict_addressability

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        check=True, env=env, capture_output=True, text=True, timeout=120,
    )


def test_gate_time_sweep_rows_match_predictions(tmp_path):
    out = tmp_path / "sweep.csv"
    run_script("gate_time_sweep.py", "--times", "12,48", "--out", str(out))
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["gate_time_ns", "dr1_given_2", "dr2_given_1", "delta_alpha", "r1", "r2"]
    assert len(rows) == 3
    for row, gt_ns in zip(rows[1:], (12.0, 48.0)):
        pred = predict_addressability(
            NoisyGateSet(CrossTalk(SAMPLE_A.with_gate_time(gt_ns * 1e-9))), gamma_max_m=0
        )
        expected = [
            gt_ns,
            pred["delta_r"]["dr1_given_2"],
            pred["delta_r"]["dr2_given_1"],
            pred["delta_alpha"],
            pred["gate_errors"]["r1"],
            pred["gate_errors"]["r2"],
        ]
        assert [float(x) for x in row] == expected


def test_protocol_demo_prints_the_prediction_of_a_composite_preset():
    model = build_model({"preset": "sample_a_full"})[0]
    pred = predict_addressability(NoisyGateSet(model), gamma_max_m=0)
    out = run_script(
        "run_protocol_demo.py", "--preset", "sample_a_full", "--K", "4", "--lengths", "1,2,4,8,16"
    ).stdout
    lines = out.splitlines()
    at = lines.index("model prediction (no Monte Carlo):")
    assert lines[at + 1:at + 4] == [
        f"  dr1_given_2 = {pred['delta_r']['dr1_given_2']:.4f}",
        f"  dr2_given_1 = {pred['delta_r']['dr2_given_1']:.4f}",
        f"  delta_alpha = {pred['delta_alpha']:.4f}",
    ]


@pytest.mark.parametrize("command", ["demo", "simulate"])
def test_one_gate_set_per_command(command, evolved_pairs, monkeypatch, tmp_path, capsys):
    # simulation and prediction share one gate set: its 48 slots go through
    # the Magnus engine once
    fast = ["--K", "4", "--lengths", "1,2,4,8,16"]
    if command == "demo":
        argv = ["run_protocol_demo.py", "--preset", "sample_a_crosstalk", *fast]
        monkeypatch.setattr(sys, "argv", argv)
        runpy.run_path(str(ROOT / "scripts" / "run_protocol_demo.py"), run_name="__main__")
    else:
        argv = ["simulate", "--preset", "sample_a_crosstalk", *fast, "--out", str(tmp_path)]
        assert rbaddr_main(argv) == 0
    assert len(evolved_pairs) == 1
    assert len(evolved_pairs[0]) == len(set(evolved_pairs[0])) == 48


def load_bench_ab():
    """``scripts/bench_ab.py`` as a module, whose functions can be patched."""
    spec = importlib.util.spec_from_file_location("bench_ab", ROOT / "scripts" / "bench_ab.py")
    bench_ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_ab)
    return bench_ab


def bench_line(units_per_s, setup_s, compiled_mb=38.0):
    metrics = {"setup_s": (setup_s, "s"), "unit_s_p50": (1 / units_per_s, "s"),
               "units_per_s": (units_per_s, "1/s"), "peak_rss_mb": (40.0, "MB"),
               "peak_rss_mb_compiled": (compiled_mb, "MB")}
    return json.dumps({"correct": True, "attempted": 10, "failed": 0, "metrics": {
        name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}})


def test_bench_ab_summary_of_canned_runs():
    bench_ab = runpy.run_path(str(ROOT / "scripts" / "bench_ab.py"))
    parent = [(30.0, 0.05, 38.0), (31.0, 0.04, 38.1), (29.0, 0.05, 37.9), (30.5, 0.05, 38.0),
              (30.2, 0.06, 38.2)]
    change = [(36.0, 0.05, 36.9), (35.0, 0.05, 37.0), (37.0, 0.04, 38.0), (30.0, 0.05, 36.8),
              (36.5, 0.05, 37.1)]
    pairs = [
        {side: bench_ab["last_json_line"](f"workload fit_measured\n{bench_line(*run)}\n\n")
         for side, run in (("parent", p), ("change", c))}
        for p, c in zip(parent, change)
    ]
    better = {"setup_s": "lower", "unit_s_p50": "lower", "units_per_s": "higher",
              "peak_rss_mb": "lower", "peak_rss_mb_compiled": "lower"}
    summary = bench_ab["summarize"](pairs, better)
    units = summary["units_per_s"]
    assert units["parent"] == {"median": 30.2, "q1": 30.0, "q3": 30.5, "iqr": 0.5}
    assert units["change"]["median"] == 36.0
    assert units["change_over_parent"] == 36.0 / 30.2
    assert (units["better"], units["change_wins"], units["pairs"]) == ("higher", 4, 5)
    assert summary["unit_s_p50"]["change_wins"] == 4
    # ties are not wins
    assert summary["setup_s"]["change_wins"] == 2
    assert summary["peak_rss_mb"]["change_wins"] == 0
    # the one-unit peak of the compiled exports: the change loses the third pair
    compiled = summary["peak_rss_mb_compiled"]
    assert compiled["parent"] == {"median": 38.0, "q1": 38.0, "q3": 38.1,
                                  "iqr": pytest.approx(0.1)}
    assert (compiled["change"]["median"], compiled["better"]) == (37.0, "lower")
    assert compiled["change_wins"] == 4


def test_bench_ab_times_the_full_verify(tmp_path):
    verify_seconds = runpy.run_path(str(ROOT / "scripts" / "bench_ab.py"))["verify_seconds"]
    assert verify_seconds(ROOT) > 0
    # a checkout whose suite fails gives no time
    package = tmp_path / "src" / "rbaddr"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("print('FAIL a check'); raise SystemExit(3)\n")
    with pytest.raises(RuntimeError, match="exited 3"):
        verify_seconds(tmp_path)


def test_bench_ab_reads_the_peak_of_a_compiled_export(tmp_path, monkeypatch):
    bench_ab = load_bench_ab()
    exported = []

    def export(rev, dest):
        # this tree's program and bench, with no bytecode: a checkout need not be a git one
        for part in ("src", "bench"):
            shutil.copytree(ROOT / part, dest / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".perfbench"))
        exported.append(dest)
        return rev

    def check_compiled(peak):
        # src/ was compiled whole, verify.py too, which no bench unit imports
        assert list((exported[0] / "src" / "rbaddr" / "__pycache__").glob("verify.*.pyc"))
        return peak

    monkeypatch.setattr(bench_ab, "export", export)
    monkeypatch.setattr(bench_ab, "last_json_line", lambda stdout: check_compiled(
        json.loads(stdout.splitlines()[-1])))
    dest = tmp_path / "compiled"
    assert bench_ab.compiled_peak_rss_mb("HEAD", dest, "fit_measured", 0) > 0
    assert exported == [dest] and not dest.exists()


def test_bench_ab_counts_the_suite_without_raising(tmp_path):
    bench_ab = runpy.run_path(str(ROOT / "scripts" / "bench_ab.py"))
    summary = "....F\n1 failed, 553 passed, 2 warnings in 127.00s (0:02:07)\n"
    assert bench_ab["pytest_counts"](summary) == {"failed": 1, "passed": 553, "warnings": 2}
    assert bench_ab["pytest_counts"]("") == {"passed": 0, "failed": 0}
    # a checkout with one passing and two failing tests, one with a space in its id
    (tmp_path / "src").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_one.py").write_text(
        "import pytest\n\n\ndef test_passes():\n    pass\n\n\ndef test_fails():\n"
        "    assert False\n\n\n@pytest.mark.parametrize('word', ['two words'])\n"
        "def test_fails_too(word):\n    assert not word\n"
    )
    run = bench_ab["pytest_run"](tmp_path, 12345)
    assert (run["passed"], run["failed"], run["returncode"], run["unit"]) == (1, 2, 1, "s")
    assert run["hypothesis_seed"] == 12345
    assert run["failing"] == [
        "tests/test_one.py::test_fails", "tests/test_one.py::test_fails_too[two words]",
    ]
    assert run["value"] > 0


def test_bench_ab_records_the_source_lines_of_each_side(tmp_path, monkeypatch):
    bench_ab = load_bench_ab()

    def export(rev, dest):
        # wc -l counts newlines: an unterminated last line adds none
        package = dest / "src" / "rbaddr"
        package.mkdir(parents=True)
        (package / "a.py").write_text("x = 1\ny = 2\n" if rev == "old" else "x = 1\n")
        (package / "b.py").write_text("z = 3\n\nw = 4")
        (package / "notes.txt").write_text("not source\n")
        return rev

    monkeypatch.setattr(bench_ab, "export", export)
    monkeypatch.setattr(bench_ab, "run_bench", lambda *args: json.loads(bench_line(30.0, 0.05)))
    monkeypatch.setattr(bench_ab, "verify_seconds", lambda checkout: 1.0)
    monkeypatch.setattr(bench_ab, "compiled_peak_rss_mb", lambda *args: 38.0)
    monkeypatch.setattr(bench_ab, "pytest_run",
                        lambda checkout, seed: {"checkout": checkout.name, "seed": seed})
    out = tmp_path / "bench.json"
    argv = ["--parent", "old", "--change", "new", "--workload", "fit_measured", "--pairs", "1"]
    assert bench_ab.main([*argv, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["src_lines"] == {
        "parent": {"a.py": 2, "b.py": 2, "total": 4},
        "change": {"a.py": 1, "b.py": 2, "total": 3},
    }
    # both sides' suites run under one seed, drawn anew by each call
    runs = json.loads(out.read_text())["pytest_s"]
    assert [runs[side]["checkout"] for side in ("parent", "change")] == ["parent", "change"]
    assert runs["parent"]["seed"] == runs["change"]["seed"]
    assert bench_ab.main([*argv, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["pytest_s"]["parent"]["seed"] != runs["parent"]["seed"]


def test_verify_mutants_each_change_one_line_of_the_tree():
    # the runner refuses a mutant whose old text is not found exactly once
    mutants = runpy.run_path(str(ROOT / "scripts" / "verify_mutants.py"))["MUTANTS"]
    assert [m[0] for m in mutants] == [f"M{i}" for i in range(1, 14)]
    for name, _, path, old, new in mutants:
        assert (ROOT / path).read_text().count(old) == 1, name
        assert old != new and old.count("\n") == new.count("\n") == 1, name
