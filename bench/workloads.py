"""Inputs and output checks for the four benchmark workloads.

A unit is one rbaddr CLI command.  Every unit gets its own inputs, drawn
from ``numpy.random.default_rng([seed, workload code, unit index])``: its
own noise model or device, its own RNG seed and its own input file, so no
cache carried from one call to the next can count as a gain.  Inputs are
made with numpy and the standard library only, never with rbaddr, so two
versions of the program see identical bytes.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

LENGTHS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
SEQUENCES_PER_LENGTH = 50
# The self-test's size.  K stays at 50: with K=4 every sequence at m=1 often
# has the same slot count, the stderr is 0 and the fit drops the curve
# (ROADMAP item 5), which would fail the self-test at random.
TINY_LENGTHS = (1, 2, 4, 8, 16, 32)

# Measured sample-a parameters, in the CLI's config units.
SAMPLE_A_DEVICE = {
    "omega1_ghz": "4.9895",
    "omega2_ghz": "5.0554",
    "t1_1_us": "9.7",
    "t1_2_us": "8.2",
    "t2_1_us": "10.3",
    "t2_2_us": "7.1",
    "zeta_mhz": "1.1",
    "m12": "0.19",
    "m21": "0.32",
    "mu1": "-0.088",
    "mu2": "-0.16",
    "nu1": "-0.025",
    "nu2": "-0.048",
}

# fit_measured: one curve set in ten is shot-limited and short, the regime
# where the three-parameter decay is not identifiable.
HARD_EVERY = 10
HARD_LENGTHS = (1, 2, 4, 8, 16, 32)
HARD_SEQUENCES = 10
HARD_SHOTS = 100
FIT_SEQUENCES = (20, 50, 100)  # around the CLI's default K=50
# Per-sequence standard deviation of every curve at every length in LENGTHS,
# recorded from one simulate run of the program (see derive_scatter.py).
SCATTER = json.loads((Path(__file__).resolve().parent / "scatter.json").read_text())
assert tuple(SCATTER["lengths"]) == LENGTHS and LENGTHS[: len(HARD_LENGTHS)] == HARD_LENGTHS

CURVE_KEYS = (
    ("exp1", "Q1"),
    ("exp1", "Q2"),
    ("exp2", "Q1"),
    ("exp2", "Q2"),
    ("exp3", "Q1"),
    ("exp3", "Q2"),
    ("exp3", "CORR"),
)
CSV_HEADER = ["experiment", "projection", "m", "mean", "stderr", "K"]

SIMULATE_ARTIFACTS = ("curves.csv", "fits.json", "plot_data.csv", "report.json", "report.txt")
FIT_ARTIFACTS = ("fits.json", "plot_data.csv", "report.json", "report.txt")
PREDICT_ARTIFACTS = ("predictions.json",)

CURVE_TOL = 1e-12
PREDICTION_TOL = 1e-12
FIT_PARAM_TOL = 1e-8


@dataclass
class Unit:
    argv: list[str]
    out: Path
    key: tuple  # what makes this unit's inputs distinct from every other's
    hard: bool = False
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    code: int
    command: str
    artifacts: tuple[str, ...]
    make: Callable  # (rng, index, unit_dir, tiny) -> Unit


def _write_config(path: Path, cfg: dict) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))


def _run_keys(rng, tiny: bool) -> dict:
    lengths = TINY_LENGTHS if tiny else LENGTHS
    return {
        "lengths": ",".join(map(str, lengths)),
        "k": str(SEQUENCES_PER_LENGTH),
        "seed": str(int(rng.integers(0, 2**31))),
    }


def _simulate_depolarizing(rng, index, unit_dir, tiny):
    alpha1 = float(rng.uniform(0.9950, 0.9964))  # around sample a's 0.9957
    cfg = {"model": "depolarizing", "alpha1": repr(alpha1), **_run_keys(rng, tiny)}
    path = unit_dir / "unit.cfg"
    _write_config(path, cfg)
    out = unit_dir / "out"
    return Unit(["simulate", "--config", str(path), "--out", str(out)], out,
                ("alpha1", alpha1))


def _simulate_crosstalk(rng, index, unit_dir, tiny):
    gate_time_ns = float(rng.uniform(18.0, 30.0))
    cfg = {
        "model": "crosstalk_decoherence",
        **SAMPLE_A_DEVICE,
        "gate_time_ns": repr(gate_time_ns),
        **_run_keys(rng, tiny),
    }
    path = unit_dir / "unit.cfg"
    _write_config(path, cfg)
    out = unit_dir / "out"
    return Unit(["simulate", "--config", str(path), "--out", str(out)], out,
                ("gate_time_ns", gate_time_ns))


def _predict_sweep(rng, index, unit_dir, tiny):
    # on and beyond the 12-48 ns grid of scripts/gate_time_sweep.py
    gate_time_ns = float(rng.uniform(8.0, 64.0))
    path = unit_dir / "unit.cfg"
    _write_config(path, {**SAMPLE_A_DEVICE, "gate_time_ns": repr(gate_time_ns)})
    out = unit_dir / "out"
    argv = ["predict", "--config", str(path), "--out", str(out)]
    if index % 2:
        argv.insert(3, "--with-decoherence")
    return Unit(argv, out, ("gate_time_ns", gate_time_ns),
                expect={"gate_time_ns": gate_time_ns})


def _curve_models(rng) -> dict:
    """Survival-curve functions of m for one device, alphas near sample a.

    Each projection decays as B + A a^m.  In the simultaneous experiment the
    correlation p00 + p11 of two qubits with survivals s1, s2 is
    1 - s1 - s2 + 2 s1 s2, whose product term decays at alpha_12 instead of
    alpha_1|2 alpha_2|1 when the errors are correlated.
    """
    a1, a2 = rng.uniform(0.985, 0.995, size=2)
    a1_2 = a1 * rng.uniform(0.990, 0.999)
    a2_1 = a2 * rng.uniform(0.990, 0.999)
    witness = rng.uniform(0.998, 1.002)  # alpha_12 / (alpha_1|2 alpha_2|1)
    idle1, idle2 = rng.uniform(0.996, 0.9995, size=2)
    amp = rng.uniform(0.44, 0.5, size=6)
    floor = 0.5 + rng.uniform(-0.01, 0.01, size=6)

    def single(a, alpha, b):
        return lambda m: a * alpha**m + b

    s1, s2 = single(amp[4], a1_2, floor[4]), single(amp[5], a2_1, floor[5])

    def corr(m):
        product = (s1(m) - floor[4]) * (s2(m) - floor[5]) * witness**m
        return 1 - s1(m) - s2(m) + 2 * (floor[4] * s2(m) + floor[5] * s1(m)
                                        - floor[4] * floor[5] + product)

    return {
        ("exp1", "Q1"): single(amp[0], a1, floor[0]),
        ("exp1", "Q2"): single(amp[1], idle2, floor[1]),
        ("exp2", "Q1"): single(amp[2], idle1, floor[2]),
        ("exp2", "Q2"): single(amp[3], a2, floor[3]),
        ("exp3", "Q1"): s1,
        ("exp3", "Q2"): s2,
        ("exp3", "CORR"): corr,
    }


def _curve_rows(rng, hard: bool) -> list[list]:
    models = _curve_models(rng)
    rows = []
    if hard:
        lengths, k = HARD_LENGTHS, HARD_SEQUENCES
    else:
        lengths, k = LENGTHS, int(rng.choice(FIT_SEQUENCES))
    for key in CURVE_KEYS:
        spreads = SCATTER["per_sequence_sd"]["/".join(key)]
        for m, spread in zip(lengths, spreads):
            truth = float(models[key](m))
            if hard:
                per_seq = np.clip(truth + spread * rng.standard_normal(k), 0.0, 1.0)
                shots = rng.binomial(HARD_SHOTS, per_seq) / HARD_SHOTS
                mean = float(shots.mean())
                # a stderr of 0 is malformed input for `fit`; use the shot resolution
                stderr = float(shots.std(ddof=1)) / math.sqrt(k) or 1.0 / (
                    HARD_SHOTS * math.sqrt(k)
                )
            else:
                # the sample standard deviation of k sequences, and a mean
                # off the truth by one standard error
                sample_sd = spread * math.sqrt(rng.chisquare(k - 1) / (k - 1))
                stderr = sample_sd / math.sqrt(k)
                mean = truth + spread / math.sqrt(k) * float(rng.standard_normal())
            rows.append([key[0], key[1], m, repr(mean), repr(stderr), k])
    return rows


def _fit_measured(rng, index, unit_dir, tiny):
    hard = index % HARD_EVERY == HARD_EVERY - 1
    rows = _curve_rows(rng, hard)
    path = unit_dir / f"curves_{index}.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)
    out = unit_dir / "out"
    return Unit(["fit", str(path), "--out", str(out)], out,
                ("curves", tuple(r[3] for r in rows)), hard=hard)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("simulate_depolarizing", 1, "simulate", SIMULATE_ARTIFACTS,
                 _simulate_depolarizing),
        Workload("simulate_crosstalk", 2, "simulate", SIMULATE_ARTIFACTS,
                 _simulate_crosstalk),
        Workload("predict_sweep", 3, "predict", PREDICT_ARTIFACTS, _predict_sweep),
        Workload("fit_measured", 4, "fit", FIT_ARTIFACTS, _fit_measured),
    )
}


def make_unit(workload: Workload, seed: int, index: int, unit_dir: Path, tiny: bool) -> Unit:
    unit_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, workload.code, index])
    return workload.make(rng, index, unit_dir, tiny)


# ---------------------------------------------------------------------------
# Output checks


def _numbers(node) -> list[float]:
    """Numeric leaves of a JSON document in key order."""
    if isinstance(node, dict):
        return [x for key in sorted(node) for x in _numbers(node[key])]
    if isinstance(node, list):
        return [x for item in node for x in _numbers(item)]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return []
    return [float(node)]


def _read_curves(path: Path) -> list[list[float]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != CSV_HEADER:
            raise ValueError("curves.csv: unexpected header")
        return [[float(row[3]), float(row[4])] for row in reader if row]


def _fit_params(fits: dict) -> list[list[float]]:
    return [
        [float(v) for _, v in sorted(c["params"].items())] if "params" in c else []
        for c in fits["curves"]
    ]


def extract(workload: Workload, out: Path) -> dict:
    """The values of a unit's outputs that the reference records."""
    if workload.command == "predict":
        return {"numbers": _numbers(json.loads((out / "predictions.json").read_text()))}
    values = {"fits": _fit_params(json.loads((out / "fits.json").read_text()))}
    if workload.command == "simulate":
        values["curves"] = _read_curves(out / "curves.csv")
    return values


def _close(name: str, got, want, tol: float) -> list[str]:
    if len(got) != len(want):
        return [f"{name}: {len(got)} values, reference has {len(want)}"]
    for i, (g, w) in enumerate(zip(got, want)):
        if isinstance(w, list):
            errors = _close(f"{name}[{i}]", g, w, tol)
            if errors:
                return errors
        elif not abs(g - w) <= tol * max(1.0, abs(w)):
            return [f"{name}[{i}]: {g!r} differs from reference {w!r} (tol {tol:g})"]
    return []


def compare(values: dict, reference: dict) -> list[str]:
    errors = []
    if "curves" in reference:
        errors += _close("curves.csv mean/stderr", values["curves"], reference["curves"], CURVE_TOL)
    if "fits" in reference:
        errors += _close("fits.json params", values["fits"], reference["fits"], FIT_PARAM_TOL)
    if "numbers" in reference:
        errors += _close("predictions.json", values["numbers"], reference["numbers"],
                         PREDICTION_TOL)
    return errors


def check(workload: Workload, unit: Unit, tiny: bool) -> tuple[list[str], int]:
    """Errors in a finished unit's outputs, and its count of non-converged fits."""
    missing = [a for a in workload.artifacts if not (unit.out / a).is_file()]
    if missing:
        return [f"missing artifacts: {', '.join(missing)}"], 0
    errors: list[str] = []
    nonconverged = 0
    if workload.command == "predict":
        pred = json.loads((unit.out / "predictions.json").read_text())
        for key, alpha in pred["alphas"].items():
            if not 0.0 < alpha <= 1.0 + 1e-9:
                errors.append(f"predictions.json: {key} = {alpha!r} outside (0, 1]")
        if abs(pred["gate_time_ns"] - unit.expect["gate_time_ns"]) > 1e-9:
            errors.append("predictions.json: gate_time_ns is not the input's")
        return errors, 0
    fits = json.loads((unit.out / "fits.json").read_text())["curves"]
    if len(fits) != len(CURVE_KEYS):
        errors.append(f"fits.json: {len(fits)} curves, expected {len(CURVE_KEYS)}")
    for fit in fits:
        if "error" in fit:
            errors.append(f"fits.json: {fit['experiment']}/{fit['projection']}: {fit['error']}")
        elif not fit["converged"]:
            nonconverged += 1
    if workload.command == "simulate":
        curves = _read_curves(unit.out / "curves.csv")
        lengths = TINY_LENGTHS if tiny else LENGTHS
        if len(curves) != len(CURVE_KEYS) * len(lengths):
            errors.append(f"curves.csv: {len(curves)} rows")
        if any(not -1e-9 <= mean <= 1 + 1e-9 or stderr < 0 for mean, stderr in curves):
            errors.append("curves.csv: a mean outside [0, 1] or a negative stderr")
    return errors, nonconverged


def same_artifacts(workload: Workload, a: Path, b: Path) -> list[str]:
    return [
        f"{name} differs when the unit is repeated"
        for name in workload.artifacts
        if (a / name).read_bytes() != (b / name).read_bytes()
    ]
