"""Record the per-sequence scatter that fit_measured's inputs are drawn with.

    python3 bench/derive_scatter.py

Runs ``rbaddr simulate`` once on the sample-a device with crosstalk and
decoherence (preset ``sample_a_full``), lengths 1..512, K=100, seed 0, and
writes to ``bench/scatter.json`` the per-sequence standard deviation
``stderr * sqrt(K)`` of every curve at every length.  The benchmark reads the
stored file and never runs this script, so every version of the program is
fed the same inputs; rerun it only to change what those inputs are.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "scatter.json"
WORK = ROOT / ".perfbench" / "derive-scatter"
CONFIG = {
    "preset": "sample_a_full",
    "lengths": "1,2,4,8,16,32,64,128,256,512",
    "k": "100",
    "seed": "0",
}


def main() -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from rbaddr.cli import main as rbaddr

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        cfg = WORK / "unit.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in CONFIG.items()))
        if rbaddr(["simulate", "--config", str(cfg), "--out", str(WORK / "out")]) != 0:
            return 1
        scatter: dict[str, list[float]] = {}
        with open(WORK / "out" / "curves.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                key = f"{row['experiment']}/{row['projection']}"
                sd = float(row["stderr"]) * math.sqrt(int(row["K"]))
                scatter.setdefault(key, []).append(float(f"{sd:.6g}"))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    origin = "rbaddr simulate, " + ", ".join(f"{k}={v}" for k, v in CONFIG.items())
    lengths = [int(m) for m in CONFIG["lengths"].split(",")]
    rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in scatter.items())
    OUT.write_text(
        f'{{\n "origin": {json.dumps(origin)},\n "lengths": {json.dumps(lengths)},\n'
        f' "per_sequence_sd": {{\n{rows}\n }}\n}}\n'
    )
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
