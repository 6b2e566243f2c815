import csv
import os
import subprocess
import sys
from pathlib import Path

from rbaddr.noise import SAMPLE_A, CrossTalk, predict_addressability

ROOT = Path(__file__).resolve().parent.parent


def test_gate_time_sweep_rows_match_predictions(tmp_path):
    out = tmp_path / "sweep.csv"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "gate_time_sweep.py"),
         "--times", "12,48", "--out", str(out)],
        check=True, env=env, capture_output=True, timeout=120,
    )
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["gate_time_ns", "dr1_given_2", "dr2_given_1", "delta_alpha", "r1", "r2"]
    assert len(rows) == 3
    for row, gt_ns in zip(rows[1:], (12.0, 48.0)):
        pred = predict_addressability(
            CrossTalk(SAMPLE_A.with_gate_time(gt_ns * 1e-9)), gamma_max_m=0
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
