"""Run the three simultaneous-benchmarking experiments for one noise model
and print the extracted addressability table next to the model prediction;
one gate set serves both.

Usage:
    python scripts/run_protocol_demo.py [--preset sample_a_crosstalk]
                                        [--K 50] [--seed 0]
"""

import argparse

from rbaddr.cli import MODEL_PRESETS, build_model
from rbaddr.fitting import fit_protocol_curves
from rbaddr.noise import NoisyGateSet, describe_model, predict_addressability
from rbaddr.protocol import RBConfig, run_protocol
from rbaddr.report import build_report


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", default="sample_a_crosstalk",
                        choices=sorted(MODEL_PRESETS))
    parser.add_argument("--K", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--lengths", default="1,2,4,8,16,32,64,128,256")
    args = parser.parse_args()

    model, label = build_model({"preset": args.preset})
    lengths = tuple(int(x) for x in args.lengths.split(","))
    cfg = RBConfig(lengths=lengths, K=args.K, seed=args.seed)
    gateset = NoisyGateSet(model)

    print(f"model: {describe_model(model)}")
    print(f"simulating 3 experiments, lengths {lengths}, K={args.K} ...")
    curves = run_protocol(cfg, gateset)
    report = build_report(fit_protocol_curves(curves)["alpha_fits"], label)
    print()
    print(report.to_text())

    pred = predict_addressability(gateset, gamma_max_m=0)
    print("model prediction (no Monte Carlo):")
    for key, value in sorted(pred["delta_r"].items()):
        print(f"  {key} = {value:.4f}")
    print(f"  delta_alpha = {pred['delta_alpha']:.4f}")


if __name__ == "__main__":
    main()
