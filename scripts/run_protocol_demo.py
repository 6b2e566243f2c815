"""Run the three simultaneous-benchmarking experiments for one noise model
and print the extracted addressability table next to the model prediction.

Usage:
    python scripts/run_protocol_demo.py [--preset sample_a_crosstalk]
                                        [--K 50] [--seed 0]
"""

import argparse

from rbaddr.cli import model_presets
from rbaddr.fitting import fit_protocol_curves
from rbaddr.noise import DEFAULT_EVOLVE_STEPS, CrossTalk, Decoherence, Depolarizing, describe_model
from rbaddr.noise import predict_addressability
from rbaddr.protocol import RBConfig, run_protocol
from rbaddr.report import build_report


def main():
    presets = model_presets(DEFAULT_EVOLVE_STEPS)
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", default="sample_a_crosstalk",
                        choices=sorted(presets))
    parser.add_argument("--K", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--lengths", default="1,2,4,8,16,32,64,128,256")
    args = parser.parse_args()

    model, label = presets[args.preset]
    lengths = tuple(int(x) for x in args.lengths.split(","))
    cfg = RBConfig(lengths=lengths, K=args.K, seed=args.seed)

    print(f"model: {describe_model(model)}")
    print(f"simulating 3 experiments, lengths {lengths}, K={args.K} ...")
    curves = run_protocol(cfg, model)
    report = build_report(fit_protocol_curves(curves)["alpha_fits"], label)
    print()
    print(report.to_text())

    if isinstance(model, (CrossTalk, Decoherence, Depolarizing)):
        pred = predict_addressability(model, gamma_max_m=0)
        print("model prediction (no Monte Carlo):")
        for key, value in sorted(pred["delta_r"].items()):
            print(f"  {key} = {value:.4f}")
        print(f"  delta_alpha = {pred['delta_alpha']:.4f}")


if __name__ == "__main__":
    main()
