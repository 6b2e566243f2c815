"""Golden artifacts: the data artifacts of nine commands, pinned.

``golden_artifacts.json`` holds, for each command in ``COMMANDS``, the
sha256 and the numbers of every artifact it writes except
``manifest.json`` (which carries timestamps), together with the CPU
fingerprint of the machine that wrote it.  The bytes depend on the CPU
kind and the numpy build: OpenBLAS picks its kernels by CPU, numpy its
SIMD loops, and they round differently.  So where this machine's
fingerprint matches the stored one, every artifact must match byte for
byte.  Elsewhere each artifact's text around its numbers must match
exactly and its numbers to the tolerances in ``TOLERANCES``.

``test_image_slots_stay_exact_under_other_kernels`` runs the engine's
Z (x) Z exactness check under each of ``EMULATED_CPUS`` in a child process.

Regenerate with ``python tests/test_golden.py`` (no options).  The golden
file changes only together with a CHANGES.md entry that says which entries
changed and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).with_name("golden_artifacts.json")

# Config files the commands read, written next to their outputs.
CONFIGS = {
    "depolarizing_shots.cfg": "model = depolarizing\nalpha1 = 0.9957\nshots = 200\nseed = 7\n",
    "clifford_granularity.cfg": (
        "preset = sample_a_decoherence\ngranularity = clifford\nseed = 7\n"
    ),
}
# Each command writes to the directory named by its key.  ``fit`` reads the
# first run's curves by a relative path, which its report records.
COMMANDS = {
    "sample_a_full": ["simulate", "--preset", "sample_a_full", "--seed", "7"],
    "sample_a_depolarizing": ["simulate", "--preset", "sample_a_depolarizing", "--seed", "7"],
    "sample_b_decoherence": ["simulate", "--preset", "sample_b_decoherence", "--seed", "7"],
    "ideal": ["simulate", "--preset", "ideal", "--seed", "7"],
    "depolarizing_shots": ["simulate", "--config", "depolarizing_shots.cfg"],
    "clifford_granularity": ["simulate", "--config", "clifford_granularity.cfg"],
    "predict_sample_a": ["predict", "--preset", "sample_a"],
    "predict_sample_a_decoherence": ["predict", "--preset", "sample_a", "--with-decoherence"],
    "fit_sample_a_full": ["fit", "sample_a_full/curves.csv"],
}

# Kernel settings that emulate other CPUs in one process: three OpenBLAS
# kernels, and numpy with its AVX-512 loops off.
EMULATED_CPUS = {
    "openblas_haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "openblas_sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"},
    "openblas_prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "numpy_no_avx512": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
}

# For a machine whose fingerprint differs: |got - want| <= tol * max(1, |want|)
# per artifact.  Each tol is the next power of ten above ten times the
# largest such difference measured on one machine under ``EMULATED_CPUS``:
# curves.csv 3.7e-12, predictions.json 6.0e-14, report.json 3.8e-11,
# plot_data.csv 6.7e-10, and fits.json 5.3e-7, in the residuals of
# clifford_granularity's exp1/Q1 fit, where Levenberg-Marquardt stops at
# another point of its convergence tolerance.  report.txt never changed.
TOLERANCES = {
    "curves.csv": 1e-10,
    "predictions.json": 1e-12,
    "report.json": 1e-9,
    "plot_data.csv": 1e-8,
    "fits.json": 1e-5,
    "report.txt": 0.0,
}

# A number not inside a word (the 1 of exp1 and r_1 is text), with JSON's
# non-finite spellings.
NUMBER = re.compile(r"(?<![\w.])(?:-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|NaN|-?Infinity)")


def cpu_fingerprint() -> str:
    """Digest of a probe through the code paths the artifact bytes depend
    on: a 16x16 matrix product, a batched complex 4x4 ``eigh``, a 4x4
    ``solve`` and ``np.exp`` on a grid, plus the numpy version."""
    rng = np.random.default_rng(20120717)
    a, b = rng.random((2, 16, 16))
    h = rng.random((8, 4, 4)) + 1j * rng.random((8, 4, 4))
    w, v = np.linalg.eigh(h + h.conj().swapaxes(-1, -2))
    x = np.linalg.solve(rng.random((4, 4)) + 4 * np.eye(4), rng.random(4))
    e = np.exp(np.linspace(-30.0, 30.0, 6001))
    digest = hashlib.sha256(np.__version__.encode())
    for part in (a @ b, w, v, x, e):
        digest.update(np.ascontiguousarray(part).tobytes())
    return digest.hexdigest()[:16]


def describe(text: str) -> dict:
    """An artifact's sha256, the sha256 of its text with every number
    replaced by '#', and its numbers in order."""
    return {
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "text_sha256": hashlib.sha256(NUMBER.sub("#", text).encode()).hexdigest(),
        "numbers": [float(token) for token in NUMBER.findall(text)],
    }


def run_commands(workdir: Path) -> dict:
    """Run every command in ``workdir``; each one's artifacts, described."""
    from rbaddr.cli import main

    record = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for name, text in CONFIGS.items():
            Path(name).write_text(text)
        for name, argv in COMMANDS.items():
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([*argv, "--out", name])
            assert code == 0, f"{name} exited {code}"
            record[name] = {
                path.name: describe(path.read_text())
                for path in sorted(Path(name).iterdir())
                if path.name != "manifest.json"
            }
    finally:
        os.chdir(cwd)
    return record


def _close(got: float, want: float, tol: float) -> bool:
    if not math.isfinite(want):
        return got == want or (math.isnan(got) and math.isnan(want))
    return abs(got - want) <= tol * max(1.0, abs(want))


def value_mismatches(got: dict, want: dict) -> list[str]:
    """Where the artifacts ``got`` differ from ``want`` in their text or
    beyond ``TOLERANCES`` in their numbers."""
    problems = []
    if sorted(got) != sorted(want):
        return [f"commands {sorted(got)} != {sorted(want)}"]
    for command in want:
        if sorted(got[command]) != sorted(want[command]):
            problems.append(f"{command}: artifacts {sorted(got[command])} != {sorted(want[command])}")
            continue
        for artifact, ref in want[command].items():
            new = got[command][artifact]
            where = f"{command}/{artifact}"
            if new["text_sha256"] != ref["text_sha256"] or len(new["numbers"]) != len(ref["numbers"]):
                problems.append(f"{where}: text outside the numbers differs")
                continue
            tol = TOLERANCES[artifact]
            bad = [
                (i, g, w)
                for i, (g, w) in enumerate(zip(new["numbers"], ref["numbers"]))
                if not _close(g, w, tol)
            ]
            if bad:
                i, g, w = bad[0]
                problems.append(
                    f"{where}: {len(bad)} numbers beyond tolerance {tol:g}, "
                    f"first #{i}: {g!r} != {w!r}"
                )
    return problems


def test_artifacts_match_the_golden_file(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = run_commands(tmp_path)
    fingerprint = cpu_fingerprint()
    problems = value_mismatches(got, golden["artifacts"])
    if fingerprint == golden["cpu_fingerprint"]:
        print(f"golden: byte check (CPU fingerprint {fingerprint} matches)")
        problems += [
            f"{command}/{artifact}: bytes differ"
            for command, artifacts in golden["artifacts"].items()
            for artifact, ref in artifacts.items()
            if got.get(command, {}).get(artifact, {}).get("sha256") != ref["sha256"]
        ]
    else:
        print(
            f"golden: value check to TOLERANCES (CPU fingerprint {fingerprint}, "
            f"golden file written at {golden['cpu_fingerprint']})"
        )
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize("setting", EMULATED_CPUS.values(), ids=EMULATED_CPUS.keys())
def test_image_slots_stay_exact_under_other_kernels(setting):
    """The Magnus engine derives 12 of the 48 slot channels by Z (x) Z
    conjugation, bit for bit what integrating them gives only while the
    kernels keep the arithmetic's sign symmetry.  A kernel that breaks it
    fails here on any machine, not only in the byte check on the machine
    that wrote the golden file."""
    code = (
        "from rbaddr.noise import SAMPLE_A, CrossTalk, NoisyGateSet\n"
        "from rbaddr.verify import check_zz_conjugation\n"
        "check = check_zz_conjugation(0.0, NoisyGateSet(CrossTalk(SAMPLE_A, steps=64)))\n"
        "print(check.detail)\n"
        "raise SystemExit(0 if check.passed else 1)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, **setting}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr


def regenerate() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        golden = {"cpu_fingerprint": cpu_fingerprint(), "artifacts": run_commands(Path(workdir))}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} at CPU fingerprint {golden['cpu_fingerprint']}")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    regenerate()
