"""Kill matrix of ``rbaddr verify`` over eleven one-line mutants.

Each mutant replaces one line of ``src/`` (file, old text, new text).  The
script extracts a ``git archive`` of a commit into a temporary directory,
runs ``rbaddr verify`` there once unmutated and once per mutant (the
copy's file restored in between), and prints which checks each mutant
fails.  The working tree is never touched.

    python scripts/verify_mutants.py [--rev REV]

About 1.5 s per mutant.  Exits 0 when the unmutated copy passes every
check and every mutant fails at least one; exits 1 if the unmutated copy
fails a check or any mutant survives, so the kill matrix is a gate.
"""

from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_PHASE = "            phase = (omega_drive - omega_frame) * times + phases[:, None]\n"

# (name, what the mutant breaks, file, old text, new text)
MUTANTS = (
    ("M1", "drive phase dropped on Z-conditioned terms", "src/rbaddr/noise.py", _PHASE,
     _PHASE.replace("phases[:, None]", "(phases[:, None] if cond is None else 0.0)")),
    ("M2", "Magnus commutator sign flipped", "src/rbaddr/noise.py",
     "        comm *= math.sqrt(3) * h * h / 12\n",
     "        comm *= -math.sqrt(3) * h * h / 12\n"),
    ("M3", "m12 - nu1 -> m12 + nu1", "src/rbaddr/noise.py",
     "            (p.m12 - p.nu1, 2, None),\n",
     "            (p.m12 + p.nu1, 2, None),\n"),
    ("M4", "pulse area doubled", "src/rbaddr/noise.py",
     "        amps[i] = (angle / 2) / integral * shape\n",
     "        amps[i] = angle / integral * shape\n"),
    ("M5", "T1 relaxes toward |1>", "src/rbaddr/noise.py",
     "    ptm[3, 0] = 1.0 - zz\n",
     "    ptm[3, 0] = zz - 1.0\n"),
    ("M6", "CORR read as p00 + p10", "src/rbaddr/protocol.py",
     "            raw = np.stack([p[:, 0] + p[:, column] for p in block_pops])\n",
     "            raw = np.stack([p[:, 0] + p[:, min(column, 2)] for p in block_pops])\n"),
    ("M7", "covariance not scaled by chi2/dof", "src/rbaddr/fitting.py",
     "        covariance=cov * max(chi2_red, 0.0),\n",
     "        covariance=cov,\n"),
    ("M8", "ZZ shift halved", "src/rbaddr/noise.py",
     "    static = (p.zeta / 4 * _ZZ).astype(complex)\n",
     "    static = (p.zeta / 8 * _ZZ).astype(complex)\n"),
    ("M9", "line-2 detuning sign flipped", "src/rbaddr/noise.py", _PHASE,
     _PHASE.replace("* times", "* (1 - 2 * line) * times")),
    ("M10", "pulse area normalised to the flat top alone", "src/rbaddr/noise.py",
     "    return (1 - RAMP_FRAC) * gate_time\n",
     "    return (1 - 2 * RAMP_FRAC) * gate_time\n"),
    ("M11", "each element's word played in reverse", "src/rbaddr/noise.py",
     "        row[: len(element)] = [_SLOT_ROW[slot] for slot in element]\n",
     "        row[: len(element)] = [_SLOT_ROW[slot] for slot in element[::-1]]\n"),
)


def failed_checks(copy: Path) -> list[str] | None:
    """Names of the checks ``rbaddr verify`` fails in ``copy``; None
    if it printed no verdict (a crash)."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, "-m", "rbaddr.cli", "verify"],
        cwd=copy, env=env, capture_output=True, text=True, timeout=600,
    )
    lines = result.stdout.splitlines()
    if not lines or not lines[-1].endswith("checks passed"):
        return None
    return [line.split()[1].rstrip(":") for line in lines if line.startswith("FAIL ")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", default="HEAD", help="commit to mutate (default HEAD)")
    rev = parser.parse_args(argv).rev
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True,
                             capture_output=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(copy, filter="data")
        baseline = failed_checks(copy)
        verdict = "crashed" if baseline is None else baseline or "all checks pass"
        print(f"{rev} unmutated: {verdict}")
        if baseline != []:
            return 1
        print(f"{'mutant':<7}{'killed':<8}failing checks")
        survivors = []
        for name, what, path, old, new in MUTANTS:
            source = copy / path
            text = source.read_text()
            if text.count(old) != 1:
                raise SystemExit(f"{name}: its old text occurs {text.count(old)} times in {path}")
            source.write_text(text.replace(old, new))
            failed = failed_checks(copy)
            source.write_text(text)
            killed = "crash" if failed is None else ("yes" if failed else "no")
            print(f"{name:<7}{killed:<8}{', '.join(failed or []) or '-'}  ({what})")
            if failed == []:
                survivors.append(name)
    if survivors:
        print(f"surviving: {', '.join(survivors)}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
