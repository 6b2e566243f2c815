"""Sweep the assumed gate duration and record the predicted addressability
metrics for the measured sample-a cross-talk parameters.

The published device data does not pin down the pulse duration, which
dominates the off-resonant leakage errors; this sweep makes the
dependence explicit.  Emits a CSV (gate_time_ns, dr1_given_2,
dr2_given_1, delta_alpha, r1, r2).

Usage:
    python scripts/gate_time_sweep.py [--out sweep.csv] [--times 12,16,...,48]
"""

import argparse
import csv
import sys

from rbaddr.noise import SAMPLE_A, CrossTalk, NoisyGateSet, predict_addressability


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="-", help="output CSV path ('-' = stdout)")
    parser.add_argument("--times", default="12,16,20,24,28,32,40,48",
                        help="comma-separated gate times in ns")
    args = parser.parse_args()

    rows = []
    for gt_ns in (float(x) for x in args.times.split(",")):
        params = SAMPLE_A.with_gate_time(gt_ns * 1e-9)
        pred = predict_addressability(NoisyGateSet(CrossTalk(params)), gamma_max_m=0)
        rows.append(
            [
                gt_ns,
                pred["delta_r"]["dr1_given_2"],
                pred["delta_r"]["dr2_given_1"],
                pred["delta_alpha"],
                pred["gate_errors"]["r1"],
                pred["gate_errors"]["r2"],
            ]
        )
        print(
            f"gate_time {gt_ns:5.1f} ns: dr1|2 = {rows[-1][1]:.4f}, "
            f"dr2|1 = {rows[-1][2]:.4f}",
            file=sys.stderr,
        )

    handle = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    writer = csv.writer(handle)
    writer.writerow(
        ["gate_time_ns", "dr1_given_2", "dr2_given_1", "delta_alpha", "r1", "r2"]
    )
    writer.writerows(rows)
    if handle is not sys.stdout:
        handle.close()
        print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
