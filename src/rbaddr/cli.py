"""Command-line frontend.

Subcommands: ``simulate`` (run the three experiments and analyze them),
``fit`` (analyze an external curve CSV), ``predict`` (model-based
addressability estimates, no Monte Carlo), ``verify`` (oracle suite) and
``dump-group`` (group table export).  Configuration is flat ``key = value``
text, each key once; ``simulate``'s flags override the keys they name.
Every noise model, whether from a preset, a config file or ``predict``, is
built by ``build_model``: a model preset is the config values it fixes
(``MODEL_PRESETS``), and ``DEVICE_KEYS`` takes each device key's units to
its ``DeviceParams`` field.  A key the command or model does not read is a
config error.  All structured outputs are JSON, curves are CSV.  Exit
codes: 0 success, 1 usage/config error, 2 analysis error, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .cliffords import dump_group_csv, get_group
from .fitting import ALPHA_SOURCES, FitError, fit_protocol_curves
from .noise import (
    DEFAULT_EVOLVE_STEPS,
    DEVICE_PRESETS,
    MAX_EVOLVE_STEPS,
    MIN_EVOLVE_STEPS,
    TWO_PI,
    Composite,
    CrossTalk,
    Decoherence,
    Depolarizing,
    DeviceParams,
    Ideal,
    NoisyGateSet,
    describe_model,
    predict_addressability,
)
from .protocol import RBConfig, check_run_size, read_curves_csv, run_protocol, write_curves_csv
from .report import build_report

OUT_ENV_VAR = "RB_ADDR_OUT"

# Each device config key: its DeviceParams field and the factors that take
# the key's units to rad/s and s, applied left to right (the order fixes
# the rounding of the stored parameter).
DEVICE_KEYS = {
    "omega1_ghz": ("omega1", (TWO_PI, 1e9)),  # omega/2pi in GHz
    "omega2_ghz": ("omega2", (TWO_PI, 1e9)),
    "t1_1_us": ("t1_1", (1e-6,)),
    "t1_2_us": ("t1_2", (1e-6,)),
    "t2_1_us": ("t2_1", (1e-6,)),
    "t2_2_us": ("t2_2", (1e-6,)),
    "zeta_mhz": ("zeta", (TWO_PI * 1e6,)),  # zeta/2pi in MHz
    "m12": ("m12", ()),
    "m21": ("m21", ()),
    "mu1": ("mu1", ()),
    "mu2": ("mu2", ()),
    "nu1": ("nu1", ()),
    "nu2": ("nu2", ()),
    "gate_time_ns": ("gate_time", (1e-9,)),
}
REQUIRED_DEVICE_KEYS = ("omega1_ghz", "omega2_ghz", "t1_1_us", "t1_2_us", "t2_1_us", "t2_2_us")
CROSSTALK_DEVICE_KEYS = ("zeta_mhz", "m12", "m21", "mu1", "mu2", "nu1", "nu2")
POSITIVE_DEVICE_KEYS = ("t1_1_us", "t1_2_us", "t2_1_us", "t2_2_us", "gate_time_ns")
# The keys that choose the noise model and the keys of the run itself.
MODEL_KEYS = {
    "preset", "model", "alpha1", "alpha2", "joint", "sample_label", "steps", *DEVICE_KEYS,
}
RUN_KEYS = {"lengths", "k", "seed", "granularity", "shots"}
# Beside model, sample_label and steps, the model keys each model reads.
MODELS = {
    "ideal": set(),
    "depolarizing": {"alpha1", "alpha2", "joint"},
    "decoherence": set(DEVICE_KEYS),
    "crosstalk": set(DEVICE_KEYS),
    "crosstalk_decoherence": set(DEVICE_KEYS),
}
# A model preset: the config values it fixes and the device preset its
# model runs on.  Sample a's per-generator depolarizing alpha matches its
# measured r_1 through the mean word length of the Clifford decomposition.
MODEL_PRESETS = {
    "ideal": ({"model": "ideal", "sample_label": "ideal"}, None),
    "sample_a_depolarizing": (
        {"model": "depolarizing", "alpha1": "0.9957", "sample_label": "sample_a"}, None,
    ),
    "sample_a_crosstalk": ({"model": "crosstalk", "sample_label": "sample_a"}, "sample_a"),
    "sample_a_decoherence": ({"model": "decoherence", "sample_label": "sample_a"}, "sample_a"),
    "sample_a_full": (
        {"model": "crosstalk_decoherence", "sample_label": "sample_a"}, "sample_a",
    ),
    "sample_b_decoherence": ({"model": "decoherence", "sample_label": "sample_b"}, "sample_b"),
}
# The only model keys that may be set beside a model preset.
PRESET_FREE_KEYS = {"steps", "gate_time_ns"}

BOOLEAN_WORDS = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}


class ConfigError(ValueError):
    pass


def _config_values(build):
    """A ValueError while building from config values is a config error."""

    @functools.wraps(build)
    def wrapper(*args, **kwargs):
        try:
            return build(*args, **kwargs)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    return wrapper


def _number(key: str, text: str, kind: type = float):
    """``text``, a value of config key ``key``, as ``kind``: an int, or a
    finite float; anything else is a config error that names the key."""
    try:
        value = kind(text)
    except ValueError:
        value = None
    if value is None or (kind is float and not math.isfinite(value)):
        noun = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"{key} must be {noun}, not '{text}'")
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit with code 1
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _read_input(read, path):
    """``read(path)``; a file that cannot be opened or decoded is a config
    error."""
    try:
        return read(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def parse_config_file(path) -> dict[str, str]:
    """Flat 'key = value' config with '#' comments; a key may appear once."""
    cfg: dict[str, str] = {}
    lines: dict[str, int] = {}
    text = _read_input(Path.read_text, Path(path))
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        if key not in MODEL_KEYS | RUN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key '{key}'")
        if key in lines:
            raise ConfigError(
                f"{path}:{lineno}: config key '{key}' repeats line {lines[key]}"
            )
        cfg[key] = value
        lines[key] = lineno
    return cfg


def _device(values: dict[str, str], preset: str | None, required) -> DeviceParams:
    """The device the device keys describe, or the device preset at the
    configured gate time; without a preset, the keys ``required`` must be set."""
    keys = DEVICE_KEYS.keys() & values.keys()
    fields = {}
    if preset is None:
        missing = [key for key in required if key not in keys]
        if missing:
            raise ConfigError("missing device parameters: " + ", ".join(missing))
    elif preset not in DEVICE_PRESETS:
        raise ConfigError(
            f"unknown device preset '{preset}' (have: {', '.join(sorted(DEVICE_PRESETS))})"
        )
    elif keys - {"gate_time_ns"}:
        extra = ", ".join(sorted(keys - {"gate_time_ns"}))
        raise ConfigError(f"device preset '{preset}' fixes all but gate_time_ns: {extra}")
    else:
        fields = asdict(DEVICE_PRESETS[preset])
    for key in keys:
        name, factors = DEVICE_KEYS[key]
        value = _number(key, values[key])
        for factor in factors:
            value = value * factor
        if not math.isfinite(value):
            raise ConfigError(f"{key} = {values[key]} is out of range")
        # DeviceParams admits a zero-duration gate; a configured gate must take time
        if key in POSITIVE_DEVICE_KEYS and not value > 0:
            raise ConfigError(f"{key} must be positive, not '{values[key]}'")
        fields[name] = value
    for q in (1, 2):  # DeviceParams refuses this too, but cannot name the keys
        if fields[f"t2_{q}"] > 2 * fields[f"t1_{q}"]:
            t2, limit = values[f"t2_{q}_us"], 2e6 * fields[f"t1_{q}"]
            raise ConfigError(f"t2_{q}_us = {t2} exceeds 2 * t1_{q}_us = {limit:g}")
    return DeviceParams(**fields)


@_config_values
def build_model(values: dict[str, str], device_preset: str | None = None):
    """The noise model and sample label that config values describe.

    A ``preset`` value stands for the values its ``MODEL_PRESETS`` entry
    fixes, on that entry's device preset; otherwise a device model runs on
    ``device_preset`` (``predict --preset``) or on the device keys.  A model
    key that the preset fixes or the model does not read is a config error.
    """
    steps = _number("steps", values["steps"], int) if "steps" in values else DEFAULT_EVOLVE_STEPS
    if not MIN_EVOLVE_STEPS <= steps <= MAX_EVOLVE_STEPS:
        raise ConfigError(f"steps must be {MIN_EVOLVE_STEPS} to {MAX_EVOLVE_STEPS}")
    if "preset" in values:
        preset = values["preset"]
        if preset not in MODEL_PRESETS:
            raise ConfigError(
                f"unknown preset '{preset}' (have: {', '.join(sorted(MODEL_PRESETS))})"
            )
        fixed = sorted((MODEL_KEYS - PRESET_FREE_KEYS - {"preset"}) & values.keys())
        if fixed:
            raise ConfigError(
                f"preset '{preset}' fixes {', '.join(fixed)}; "
                f"only {' and '.join(sorted(PRESET_FREE_KEYS))} may be set beside it"
            )
        fixed_values, device_preset = MODEL_PRESETS[preset]
        values = {**values, **fixed_values}
    name = values.get("model", "ideal")
    if name not in MODELS:
        raise ConfigError(f"unknown model '{name}' (have: {' | '.join(MODELS)})")
    ignored = MODELS[name] | {"preset", "model", "sample_label", "steps"}
    unread = sorted((MODEL_KEYS - ignored) & values.keys())
    if unread:
        raise ConfigError(f"model '{name}' does not read: {', '.join(unread)}")
    label = values.get("sample_label", name)
    if name == "ideal":
        return Ideal(), label
    if name == "depolarizing":
        if "alpha1" not in values:
            raise ConfigError("depolarizing model needs config key 'alpha1'")
        alpha2 = _number("alpha2", values["alpha2"]) if "alpha2" in values else None
        joint = values.get("joint", "false").lower()
        if joint not in BOOLEAN_WORDS:
            raise ConfigError(f"joint must be one of {'/'.join(BOOLEAN_WORDS)}, not '{joint}'")
        alpha1 = _number("alpha1", values["alpha1"])
        return Depolarizing(alpha1, alpha2, BOOLEAN_WORDS[joint]), label
    crosstalk = CROSSTALK_DEVICE_KEYS if name != "decoherence" else ()
    device = _device(values, device_preset, REQUIRED_DEVICE_KEYS + crosstalk)
    if name == "decoherence":
        return Decoherence(device), label
    if name == "crosstalk":
        return CrossTalk(device, steps), label
    return Composite((CrossTalk(device, steps), Decoherence(device))), label


@_config_values
def _rb_config(values: dict[str, str]) -> RBConfig:
    """Run settings from the merged values; bad values exit 1."""
    kwargs = {"seed": _number("seed", values["seed"], int) if "seed" in values else 0}
    if "lengths" in values:
        items = values["lengths"].split(",")
        if not all(item.strip() for item in items):
            raise ConfigError(f"lengths has an empty item: '{values['lengths']}'")
        kwargs["lengths"] = tuple(_number("lengths", x, int) for x in items)
    if "k" in values:
        kwargs["K"] = _number("k", values["k"], int)
    if "shots" in values:
        kwargs["shots"] = _number("shots", values["shots"], int)
    cfg = RBConfig(**kwargs)
    check_run_size(cfg)
    return cfg


@_config_values
def _gateset(values: dict[str, str], model) -> NoisyGateSet:
    """The run's one gate set; a granularity the model cannot have exits 1."""
    return NoisyGateSet(model, values.get("granularity", "generator"))


# ---------------------------------------------------------------------------
# Artifact helpers


def _out_dir(args, command: str) -> Path:
    if args.out:
        out = Path(args.out)
    else:
        base = os.environ.get(OUT_ENV_VAR, "rbaddr_runs")
        out = Path(base) / command
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _dump_json(path: Path, payload) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@functools.lru_cache(maxsize=None)
def _sha256_type():
    """SHA-256 of the interpreter's built-in module, ``_sha2`` (Python 3.12
    on) or ``_sha256``: ``hashlib`` maps OpenSSL's libcrypto (~3.7 MB
    resident) to hash a few small files.  ``hashlib`` only where neither
    module exists."""
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:
        from hashlib import sha256
    return sha256


def _sha256(path: Path) -> str:
    return _sha256_type()(path.read_bytes()).hexdigest()


def _write_manifest(
    out: Path, command: str, args_dict: dict, cfg: dict, seed, started: str,
    inputs: dict[str, str], outputs: list[Path],
) -> None:
    args_dict = {
        k: v
        for k, v in args_dict.items()
        if k != "func" and isinstance(v, (str, int, float, bool))
    }
    manifest = {
        "command": command,
        "args": dict(sorted(args_dict.items())),
        "config": dict(sorted(cfg.items())),
        "seed": seed,
        "toolkit_version": __version__,
        "timestamps": {
            "started": started,
            "finished": datetime.now(timezone.utc).isoformat(),
        },
        "inputs": inputs,
        "outputs": {p.name: _sha256(p) for p in outputs},
    }
    _dump_json(out / "manifest.json", manifest)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


@functools.lru_cache(maxsize=None)
def _plot_lengths(max_m: int) -> np.ndarray:
    """The distinct integer lengths of 64 geometric steps from 1 to max_m."""
    # the rounded steps never decrease: np.unique's first call costs ~0.65 MB RSS
    steps = np.rint(np.geomspace(1, max_m, 64)).astype(int)
    ms = steps[np.concatenate(([True], steps[1:] != steps[:-1]))]
    ms.flags.writeable = False
    return ms


def _plot_data_rows(fits: dict) -> list[list]:
    rows = []
    for (experiment, projection), fit in sorted(fits.items()):
        if isinstance(fit, dict):  # failed fit
            continue
        ms = _plot_lengths(max(2, fit.curve_meta.get("max_m", 512)))
        for m, v in zip(ms, fit.evaluate(ms)):
            rows.append([experiment, projection, int(m), repr(float(v))])
    return rows


def _write_plot_csv(path: Path, fits: dict) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["experiment", "projection", "m", "fitted"])
        writer.writerows(_plot_data_rows(fits))


def _analyze_and_write(
    curves, out: Path, sample_label: str, provenance: dict
) -> list[Path]:
    result = fit_protocol_curves(curves)
    fits_payload = {
        "curves": [
            fit.to_dict() if not isinstance(fit, dict) else fit
            for fit in (result["fits"][key] for key in sorted(result["fits"]))
        ],
        "alpha_keys": {k: f"{v[0]}/{v[1]}" for k, v in sorted(ALPHA_SOURCES.items())},
    }
    fits_path = out / "fits.json"
    _dump_json(fits_path, fits_payload)
    plot_path = out / "plot_data.csv"
    _write_plot_csv(plot_path, result["fits"])

    report = build_report(
        result["alpha_fits"], sample_label=sample_label, provenance=provenance
    )
    report_json = out / "report.json"
    _dump_json(report_json, report.to_dict())
    report_txt = out / "report.txt"
    report_txt.write_text(report.to_text())
    if report.missing:
        print(
            "note: partial report; missing fits for " + ", ".join(report.missing)
        )
    print(report.to_text(), end="")
    return [fits_path, plot_path, report_json, report_txt]


# ---------------------------------------------------------------------------
# Commands


def cmd_simulate(args) -> int:
    started = _now()
    cfg = parse_config_file(args.config) if args.config else {}
    flags = {"preset": args.preset, "model": args.model, "lengths": args.lengths,
             "k": args.K, "seed": args.seed}
    values = {**cfg, **{key: str(value) for key, value in flags.items() if value is not None}}
    model, sample_label = build_model(values)
    rb_cfg = _rb_config(values)
    gateset = _gateset(values, model)
    out = _out_dir(args, "simulate")

    config_digest = _sha256_type()(json.dumps(sorted(cfg.items())).encode()).hexdigest()
    provenance = {
        "model": describe_model(model),
        "seed": rb_cfg.seed,
        "lengths": list(rb_cfg.lengths),
        "K": rb_cfg.K,
        "granularity": gateset.granularity,
        "mean_generators_per_clifford": get_group("c1").mean_slots,
        "config_digest": config_digest,
        "toolkit_version": __version__,
    }
    curves = run_protocol(rb_cfg, gateset)
    del gateset  # the analysis needs none of its tables (CxC's holds 1.2 MB)
    curves_path = out / "curves.csv"
    write_curves_csv(curves, curves_path)
    outputs = [curves_path]
    outputs += _analyze_and_write(curves, out, sample_label, provenance)
    _write_manifest(
        out, "simulate", vars(args), cfg, rb_cfg.seed, started, {}, outputs
    )
    print(f"artifacts written to {out}")
    return 0


def cmd_fit(args) -> int:
    started = _now()
    curves_path = Path(args.curves)
    curves = _read_input(read_curves_csv, curves_path)
    if not curves:
        raise FitError("no curves found in input CSV")
    out = _out_dir(args, "fit")
    provenance = {"input": str(curves_path), "toolkit_version": __version__}
    outputs = _analyze_and_write(
        curves, out, args.sample_label or curves_path.stem, provenance
    )
    _write_manifest(
        out,
        "fit",
        vars(args),
        {},
        None,
        started,
        {str(curves_path): _sha256(curves_path)},
        outputs,
    )
    print(f"artifacts written to {out}")
    return 0


def cmd_predict(args) -> int:
    started = _now()
    cfg = parse_config_file(args.config) if args.config else {}
    if "preset" in cfg:
        raise ConfigError(
            "predict takes its device preset from --preset, not the config key 'preset'"
        )
    unread = sorted(cfg.keys() - DEVICE_KEYS.keys() - {"steps"})
    if unread:
        raise ConfigError(f"predict reads only device keys and steps; remove: {', '.join(unread)}")
    name = "crosstalk_decoherence" if args.with_decoherence else "crosstalk"
    model, _ = build_model({**cfg, "model": name}, args.preset)
    crosstalk = model.factors[0] if args.with_decoherence else model
    prediction = predict_addressability(NoisyGateSet(model))
    prediction["gate_time_ns"] = crosstalk.params.gate_time * 1e9
    out = _out_dir(args, "predict")
    pred_path = out / "predictions.json"
    _dump_json(pred_path, prediction)
    _write_manifest(
        out, "predict", vars(args), cfg, None, started, {}, [pred_path]
    )
    print(json.dumps(prediction, indent=2, sort_keys=True))
    print(f"artifacts written to {out}")
    return 0


def cmd_verify(args) -> int:
    from .verify import run_verification  # only this command needs the oracles

    results = run_verification()
    failures = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name}: {res.detail} [{res.seconds:.2f}s]")
        failures += 0 if res.passed else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 3 if failures else 0


def cmd_dump_group(args) -> int:
    out = _out_dir(args, "dump-group")
    group = get_group(args.group)
    path = out / f"group_{args.group}.csv"
    dump_group_csv(group, path)
    print(f"wrote {len(group)} elements to {path}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rbaddr",
        description="Simultaneous randomized benchmarking and addressability toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", help=f"output directory (default ${OUT_ENV_VAR}/<cmd>)")

    p_sim = sub.add_parser("simulate", help="run the three RB experiments")
    p_sim.add_argument("--config", help="flat key=value config file")
    p_sim.add_argument("--preset", help="bundled model preset name")
    p_sim.add_argument(
        "--model",
        help="ideal | depolarizing | decoherence | crosstalk | crosstalk_decoherence",
    )
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--lengths", help="comma-separated sequence lengths")
    p_sim.add_argument("--K", type=int, default=None, help="sequences per length")
    add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit externally supplied curves CSV")
    p_fit.add_argument("curves", help="curves CSV (experiment,projection,m,mean,stderr,K)")
    p_fit.add_argument("--sample-label", default=None)
    add_common(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_pred = sub.add_parser("predict", help="model-based addressability prediction")
    p_pred.add_argument("--config", help="device parameter config file")
    p_pred.add_argument("--preset", help="device preset: sample_a | sample_b")
    p_pred.add_argument(
        "--with-decoherence", action="store_true", help="compose T1/T2 decay per slot"
    )
    add_common(p_pred)
    p_pred.set_defaults(func=cmd_predict)

    p_ver = sub.add_parser("verify", help="run the self-verification oracle suite")
    p_ver.set_defaults(func=cmd_verify)

    p_dump = sub.add_parser("dump-group", help="export a Clifford group table")
    p_dump.add_argument("--group", choices=("c1", "cxc", "cxi", "ixc"), default="c1")
    add_common(p_dump)
    p_dump.set_defaults(func=cmd_dump_group)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (FitError, ValueError) as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
