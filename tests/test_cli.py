import hashlib
import json
import re
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rbaddr.cli import (
    MODEL_KEYS,
    MODEL_PRESETS,
    RUN_KEYS,
    _plot_lengths,
    build_model,
    main,
    parse_config_file,
)
from rbaddr.noise import (
    SAMPLE_A,
    SAMPLE_B,
    TWO_PI,
    Composite,
    CrossTalk,
    Decoherence,
    Depolarizing,
    Ideal,
    NoisyGateSet,
    predict_addressability,
)

FAST_ARGS = ["--lengths", "1,2,4,8,16,32", "--K", "8"]
MANIFEST_KEYS = {
    "command", "args", "config", "seed", "toolkit_version", "timestamps", "inputs", "outputs",
}
ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
SAMPLE_A_DEVICE = (
    "omega1_ghz = 4.9895\nomega2_ghz = 5.0554\n"
    "t1_1_us = 9.7\nt1_2_us = 8.2\nt2_1_us = 10.3\nt2_2_us = 7.1\n"
    "zeta_mhz = 1.1\nm12 = 0.19\nm21 = 0.32\nmu1 = -0.088\nmu2 = -0.16\n"
    "nu1 = -0.025\nnu2 = -0.048\n"
)


def run_cli(*argv):
    return main(list(argv))


def test_simulate_smoke(tmp_path):
    out = tmp_path / "sim"
    code = run_cli(
        "simulate", "--preset", "sample_a_depolarizing", "--seed", "7",
        *FAST_ARGS, "--out", str(out),
    )
    assert code == 0
    for name in ("curves.csv", "fits.json", "report.json", "report.txt",
                 "plot_data.csv", "manifest.json"):
        assert (out / name).exists(), name
    report = json.loads((out / "report.json").read_text())
    assert report["missing"] == []
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert set(manifest["outputs"]) >= {"curves.csv", "fits.json", "report.json"}
    assert manifest.keys() == MANIFEST_KEYS
    assert set(manifest["outputs"]) == {p.name for p in out.iterdir()} - {"manifest.json"}


def test_simulate_ideal_near_zero_error(tmp_path):
    out = tmp_path / "ideal"
    code = run_cli("simulate", "--model", "ideal", "--seed", "1", *FAST_ARGS,
                   "--out", str(out))
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    # ideal curves are constant: fits are degenerate with r pinned near 0
    assert abs(report["r1"]["value"]) < 1e-6


def test_simulate_determinism_byte_identical(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli(
            "simulate", "--preset", "sample_a_depolarizing", "--seed", "3",
            *FAST_ARGS, "--out", str(out),
        ) == 0
        outs.append(out)
    for artifact in ("curves.csv", "fits.json", "report.json", "plot_data.csv"):
        a = (outs[0] / artifact).read_bytes()
        b = (outs[1] / artifact).read_bytes()
        assert a == b, artifact
    ma = json.loads((outs[0] / "manifest.json").read_text())
    mb = json.loads((outs[1] / "manifest.json").read_text())
    assert ma["outputs"] == mb["outputs"]  # digests identical


def test_per_clifford_depolarizing_curves_fit_as_deterministic(tmp_path):
    # every sequence decays alike; the curves' stderrs are 0 or rounding
    # noise, and all seven still fit
    cfg = tmp_path / "dep.cfg"
    cfg.write_text(
        "model = depolarizing\nalpha1 = 0.995\nalpha2 = 0.99\n"
        "granularity = clifford\nk = 20\n"
    )
    out = tmp_path / "sim"
    assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 0
    fits = json.loads((out / "fits.json").read_text())["curves"]
    assert len(fits) == 7
    assert all("error" not in fit and "deterministic_curve" in fit["flags"] for fit in fits)
    alphas = json.loads((out / "report.json").read_text())["alphas"]
    assert alphas["alpha_1"]["value"] == pytest.approx(0.995, abs=1e-9)
    assert alphas["alpha_2"]["value"] == pytest.approx(0.99, abs=1e-9)


def test_fit_round_trip_reproduces_fits(tmp_path):
    sim = tmp_path / "sim"
    assert run_cli(
        "simulate", "--preset", "sample_a_depolarizing", "--seed", "5",
        *FAST_ARGS, "--out", str(sim),
    ) == 0
    refit = tmp_path / "refit"
    assert run_cli("fit", str(sim / "curves.csv"), "--out", str(refit)) == 0
    sim_fits = json.loads((sim / "fits.json").read_text())
    refit_fits = json.loads((refit / "fits.json").read_text())
    assert sim_fits == refit_fits


def test_fit_single_curve_partial_report(tmp_path, capsys):
    csv = tmp_path / "one.csv"
    rows = ["experiment,projection,m,mean,stderr,K"]
    for m, mean in ((1, 0.99), (2, 0.985), (4, 0.975), (8, 0.955), (16, 0.92), (32, 0.86)):
        rows.append(f"exp1,Q1,{m},{mean},0.002,10")
    csv.write_text("\n".join(rows) + "\n")
    out = tmp_path / "out"
    assert run_cli("fit", str(csv), "--out", str(out)) == 0
    captured = capsys.readouterr().out
    assert "partial report" in captured
    report = json.loads((out / "report.json").read_text())
    assert "alpha_2" in report["missing"]


def test_fit_rejects_bad_rows(tmp_path, capsys):
    csv = tmp_path / "bad.csv"
    out = tmp_path / "o"
    csv.write_text("experiment,projection,m,mean,stderr,K\nexp1,Q1,1,0.9,-1,5\n")
    assert run_cli("fit", str(csv), "--out", str(out)) == 2
    assert not out.exists()
    csv.write_text(
        "experiment,projection,m,mean,stderr,K\n"
        + "".join(f"exp1,Q1,{m},0.9,0.01,5\n" for m in (-4, -2, 0))
    )
    assert run_cli("fit", str(csv), "--out", str(out)) == 2
    assert "m=-4 < 1 at line 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("k", [1, -3])
def test_fit_rejects_fewer_than_two_sequences(tmp_path, capsys, k):
    # simulate refuses K < 2 as a config error; a CSV row with it is bad input
    csv = tmp_path / "few.csv"
    rows = ["experiment,projection,m,mean,stderr,K"]
    rows += [f"exp1,Q1,{m},{0.5 + 0.5 * 0.99**m},0.01,{k}" for m in (1, 2, 4, 8, 16, 32, 64)]
    csv.write_text("\n".join(rows) + "\n")
    out = tmp_path / "o"
    assert run_cli("fit", str(csv), "--out", str(out)) == 2
    assert f"K={k} < 2 at line 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("curve", ["expX,Q9", "exp1,CORR"])
def test_fit_refuses_a_curve_outside_the_protocol(tmp_path, capsys, curve):
    csv = tmp_path / "curves.csv"
    rows = ["experiment,projection,m,mean,stderr,K"]
    rows += [f"{name},{m},{0.5 + 0.5 * 0.99**m},0.01,20" for name in ("exp1,Q1", curve)
             for m in (1, 2, 4, 8, 16, 32, 64)]
    csv.write_text("\n".join(rows) + "\n")
    out = tmp_path / "o"
    assert run_cli("fit", str(csv), "--out", str(out)) == 2
    assert f"unknown curve {curve.replace(',', '/')}" in capsys.readouterr().err
    assert not out.exists()


def test_package_and_cli_imports_load_the_pinned_modules():
    # the package loads twirl eagerly for the bench's tracer; only ``rbaddr
    # verify`` needs rbaddr.verify and only ``simulate`` rbaddr.streams, so
    # the CLI loads every module but those two
    code = ("import sys\n"
            "def loaded(): return [n for n in sys.modules if n.split('.')[0] == 'rbaddr']\n"
            "import rbaddr; print(*loaded())\n"
            "import rbaddr.cli; print(*loaded())")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                            capture_output=True, text=True, timeout=120)
    package, cli = (set(line.split()) for line in result.stdout.splitlines())
    assert package == {"rbaddr", "rbaddr.twirl"}
    assert cli == {"rbaddr"} | {f"rbaddr.{name}" for name in (
        "cli", "cliffords", "fitting", "noise", "parallel", "paulis", "protocol", "report",
        "twirl")}


def test_commands_hash_without_openssl(tmp_path):
    # the manifest digests come from the interpreter's own SHA-256, so no
    # command loads _hashlib unless ``simulate`` draws shots (numpy.random
    # imports it)
    cfg = tmp_path / "predict.cfg"
    cfg.write_text("steps = 16\n")
    csv = tmp_path / "curves.csv"
    rows = ["experiment,projection,m,mean,stderr,K"]
    rows += [f"exp1,Q1,{m},{0.5 * 0.99**m + 0.25},0.002,20" for m in (1, 2, 4, 8, 16, 32, 64)]
    csv.write_text("\n".join(rows) + "\n")
    code = ("import sys; from rbaddr.cli import main; code = main(sys.argv[1:]); "
            "print('_hashlib' in sys.modules); raise SystemExit(code)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    for argv in (("predict", "--preset", "sample_a", "--config", str(cfg)), ("fit", str(csv))):
        out = tmp_path / argv[0]
        result = subprocess.run([sys.executable, "-c", code, *argv, "--out", str(out)],
                                env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "False"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest.keys() == MANIFEST_KEYS
        assert manifest["command"] == argv[0]
        assert set(manifest["outputs"]) == {p.name for p in out.iterdir()} - {"manifest.json"}
        digests = {out / name: digest for name, digest in manifest["outputs"].items()}
        digests.update((Path(name), digest) for name, digest in manifest["inputs"].items())
        assert len(digests) == (1 if argv[0] == "predict" else 5)
        for path, digest in digests.items():
            assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


def test_plot_lengths_are_the_np_unique_lengths():
    # adjacent duplicates of the rounded geometric steps dropped: np.unique's
    # values and dtype
    for max_m in range(2, 4097):
        ms = _plot_lengths.__wrapped__(max_m)
        reference = np.unique(np.rint(np.geomspace(1, max_m, 64)).astype(int))
        assert ms.dtype == reference.dtype and np.array_equal(ms, reference), max_m


def test_commands_run_without_first_call_only_numpy_sorts(tmp_path):
    # np.unique, np.argsort and np.lexsort each page in code on their first
    # call in a process, which peak RSS counts; fit, predict and a
    # depolarizing simulate call none of them, and write the same artifacts
    # as when they are there
    cfg = tmp_path / "predict.cfg"
    cfg.write_text("steps = 16\n")
    run_cfg = tmp_path / "run.cfg"
    run_cfg.write_text("model = depolarizing\nalpha1 = 0.99\n")
    csv = tmp_path / "curves.csv"
    rows = ["experiment,projection,m,mean,stderr,K"]
    rows += [f"exp1,Q1,{m},{0.5 * 0.99**m + 0.25},0.002,20" for m in (1, 2, 4, 8, 16, 32, 64)]
    csv.write_text("\n".join(rows) + "\n")
    code = ("import sys, numpy\n"
            "def refuse(*args, **kwargs):\n"
            "    raise AssertionError('a first-call-only numpy sort')\n"
            "if sys.argv[1] == 'guarded':\n"
            "    numpy.unique = numpy.argsort = numpy.lexsort = refuse\n"
            "from rbaddr.cli import main\n"
            "raise SystemExit(main(sys.argv[2:]))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    commands = {
        "fit": ["fit", str(csv)],
        "predict": ["predict", "--preset", "sample_a", "--config", str(cfg)],
        "simulate": ["simulate", "--config", str(run_cfg), "--lengths", "1,2,4,8", "--K", "3"],
    }
    for name, argv in commands.items():
        outputs = {}
        for mode in ("plain", "guarded"):
            out = tmp_path / f"{name}_{mode}"
            result = subprocess.run([sys.executable, "-c", code, mode, *argv, "--out", str(out)],
                                    env=env, capture_output=True, text=True, timeout=120)
            assert result.returncode == 0, (name, mode, result.stderr)
            outputs[mode] = {p.name: p.read_bytes() for p in sorted(out.iterdir())
                             if p.name != "manifest.json"}  # timestamps
        assert outputs["guarded"] == outputs["plain"], name
        assert outputs["plain"], name


def test_commands_derive_only_the_group_arrays_they_read(tmp_path):
    # a product group derives each array on first read: predict reads none
    # of CxC's, and a per-generator simulate no group's whole PTM stack
    cfg = tmp_path / "steps.cfg"
    cfg.write_text("steps = 16\n")
    depolarizing = tmp_path / "depolarizing.cfg"
    depolarizing.write_text("model = depolarizing\nalpha1 = 0.99\n")
    lengths = ["--lengths", "1,2,3,4,5,6,7,8", "--K", "3"]
    commands = [
        ["predict", "--preset", "sample_a", "--config", str(cfg)],
        ["simulate", "--config", str(depolarizing), *lengths],
        ["simulate", "--preset", "sample_a_crosstalk", "--config", str(cfg), *lengths],
    ]
    code = ("import json, sys\n"
            "from rbaddr.cli import main\n"
            "from rbaddr.cliffords import product_group\n"
            "arrays = {'ptms', 'mult_table', 'inv_table', 'targets'}\n"
            "for n, argv in enumerate(json.loads(sys.argv[1])):\n"
            "    assert main([*argv, '--out', sys.argv[2] + str(n)]) == 0\n"
            "    print('derived', json.dumps({kind: sorted(arrays & vars(product_group(kind)).keys())\n"
            "                                 for kind in ('cxi', 'ixc', 'cxc')}))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code, json.dumps(commands), str(tmp_path / "o")],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    lines = [line.split(" ", 1)[1] for line in result.stdout.splitlines()
             if line.startswith("derived ")]
    predict, *simulate = map(json.loads, lines)
    assert len(simulate) == 2
    assert predict == {"cxi": [], "ixc": [], "cxc": []}
    for derived in simulate:
        assert all("ptms" not in arrays for arrays in derived.values()), derived
        assert all({"mult_table", "inv_table"} <= set(arrays) for arrays in derived.values())


@pytest.mark.parametrize("shots, loaded", [(None, "False False"), ("10", "True True")])
def test_only_shots_load_numpy_random(tmp_path, shots, loaded):
    # the index draws are rbaddr.streams' PCG64 copy; shots are numpy's
    # multinomial, and numpy.random imports _hashlib through secrets
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = depolarizing\nalpha1 = 0.99\n" + (f"shots = {shots}\n" if shots else ""))
    code = ("import sys; from rbaddr.cli import main; code = main(sys.argv[1:]); "
            "print('numpy.random' in sys.modules, '_hashlib' in sys.modules); "
            "raise SystemExit(code)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    argv = ["simulate", "--config", str(cfg), "--lengths", "1,2", "--K", "2",
            "--out", str(tmp_path / "o")]
    result = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == loaded


def test_joint_reads_boolean_words_in_any_case():
    for word, joint in (("TRUE", True), ("Yes", True), ("1", True),
                        ("false", False), ("NO", False), ("0", False)):
        cfg = {"model": "depolarizing", "alpha1": "0.99", "joint": word}
        assert build_model(cfg)[0].joint is joint, word


def test_device_keys_convert_units():
    cfg = {
        "omega1_ghz": "4.9895", "omega2_ghz": "5.0554",
        "t1_1_us": "9.7", "t1_2_us": "8.2", "t2_1_us": "10.3", "t2_2_us": "7.1",
        "zeta_mhz": "1.1", "m12": "0.19", "m21": "0.32",
        "mu1": "-0.088", "mu2": "-0.16", "nu1": "-0.025", "nu2": "-0.048",
        "gate_time_ns": "24", "model": "decoherence",
    }
    p = build_model(cfg)[0].params
    assert p.omega1 == pytest.approx(SAMPLE_A.omega1)
    assert p.zeta == pytest.approx(SAMPLE_A.zeta)
    assert p.gate_time == pytest.approx(24e-9)
    # each key's factors apply left to right: zeta is x * (2 pi 1e6), which
    # rounds as the preset does; omega is x * 2 pi * 1e9, one ulp below the
    # preset's 2 pi * 4.9895e9
    assert p.zeta == SAMPLE_A.zeta
    assert p.omega1 == 4.9895 * TWO_PI * 1e9
    assert p.omega1 == pytest.approx(SAMPLE_A.omega1, rel=1e-15)


PRESET_MODELS = {
    "ideal": (Ideal(), "ideal"),
    "sample_a_depolarizing": (Depolarizing(0.9957), "sample_a"),
    "sample_a_crosstalk": (CrossTalk(SAMPLE_A), "sample_a"),
    "sample_a_decoherence": (Decoherence(SAMPLE_A), "sample_a"),
    "sample_a_full": (Composite((CrossTalk(SAMPLE_A), Decoherence(SAMPLE_A))), "sample_a"),
    "sample_b_decoherence": (Decoherence(SAMPLE_B), "sample_b"),
}


@pytest.mark.parametrize("preset", sorted(MODEL_PRESETS))
def test_model_presets_build_the_bundled_models(preset):
    assert sorted(MODEL_PRESETS) == sorted(PRESET_MODELS)
    assert build_model({"preset": preset}) == PRESET_MODELS[preset]


def test_config_rejects_repeated_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 1\n# the same key again, in another case\nSEED = 2\n")
    out = tmp_path / "o"
    assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert f"{cfg}:3: config key 'seed' repeats line 1" in err
    assert not out.exists()


def test_readme_config_section_names_every_key_and_preset():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("### Config file", 1)[1].split("\n#", 1)[0]
    named = set(re.findall(r"`([a-z0-9_]+)`", section))
    assert sorted((MODEL_KEYS | RUN_KEYS | MODEL_PRESETS.keys()) - named) == []


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# device\n" + SAMPLE_A_DEVICE
        + "\nmodel = crosstalk\nseed = 2\nk = 8\nlengths = 1,2,4\n"
    )
    parsed = parse_config_file(cfg)
    assert parsed["model"] == "crosstalk"
    assert parsed["m12"] == "0.19"


def test_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("frequency = 5\n")
    assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1


def test_unknown_preset_is_config_error(tmp_path):
    assert run_cli(
        "simulate", "--preset", "sample_z", "--out", str(tmp_path / "o")
    ) == 1


def test_predict_sample_a(tmp_path):
    out = tmp_path / "pred"
    assert run_cli("predict", "--preset", "sample_a", "--out", str(out)) == 0
    pred = json.loads((out / "predictions.json").read_text())
    assert 1e-3 < pred["delta_r"]["dr1_given_2"] < 2e-2
    assert pred["gate_time_ns"] == pytest.approx(24.0)


def test_predict_honours_steps(tmp_path):
    cfg = tmp_path / "steps.cfg"
    cfg.write_text("steps = 16\n")
    out = tmp_path / "pred16"
    assert run_cli("predict", "--preset", "sample_a", "--config", str(cfg), "--out", str(out)) == 0
    expected = predict_addressability(NoisyGateSet(CrossTalk(SAMPLE_A, 16)))
    expected["gate_time_ns"] = SAMPLE_A.gate_time * 1e9
    pred = json.loads((out / "predictions.json").read_text())
    assert pred == json.loads(json.dumps(expected))
    assert pred["alphas"] != predict_addressability(NoisyGateSet(CrossTalk(SAMPLE_A)))["alphas"]


@pytest.mark.parametrize("steps", [None, 16])
def test_crosstalk_presets_honour_steps(steps):
    cfg = {} if steps is None else {"steps": str(steps)}
    build = CrossTalk(SAMPLE_A) if steps is None else CrossTalk(SAMPLE_A, steps)

    def model(preset):
        return build_model({**cfg, "preset": preset})[0]

    assert model("sample_a_crosstalk") == build
    assert model("sample_a_full") == Composite((build, Decoherence(SAMPLE_A)))


def test_presets_honour_gate_time():
    # gate_time_ns beside a preset sets its device's gate time, as in predict
    cfg = {"gate_time_ns": "48"}
    a48, b48 = (p.with_gate_time(48 * 1e-9) for p in (SAMPLE_A, SAMPLE_B))

    def model(preset):
        return build_model({**cfg, "preset": preset})[0]

    assert model("sample_a_crosstalk") == CrossTalk(a48)
    assert model("sample_a_decoherence") == Decoherence(a48)
    assert model("sample_a_full") == Composite((CrossTalk(a48), Decoherence(a48)))
    assert model("sample_b_decoherence") == Decoherence(b48)


@pytest.mark.parametrize(
    "command, config, named",
    [
        (("simulate", "--preset", "sample_a_full"), "mu1 = 0\n", "mu1"),
        (("predict", "--preset", "sample_a"), "mu1 = 0\nmu2 = 0\n", "mu1, mu2"),
        (("simulate", "--preset", "ideal"), "gate_time_ns = 48\n", "gate_time_ns"),
        (("simulate", "--preset", "sample_a_depolarizing"), "t1_1_us = 9\n", "t1_1_us"),
        (("simulate", "--preset", "sample_a_full"), "model = crosstalk\n", "model"),
        (("simulate", "--preset", "sample_a_depolarizing"), "alpha1 = 0.9\n", "alpha1"),
        (("simulate", "--preset", "sample_a_crosstalk"), "sample_label = x\n", "sample_label"),
        (("simulate", "--preset", "sample_a_full", "--model", "ideal"), "", "model"),
        (("simulate",), "preset = sample_a_depolarizing\nalpha1 = 0.9\nmodel = crosstalk\n",
         "alpha1, model"),
        (("simulate",), "model = depolarizing\nalpha1 = 0.99\nomega1_ghz = 5\n", "omega1_ghz"),
        (("simulate",), SAMPLE_A_DEVICE + "model = crosstalk\nalpha2 = 0.9\n", "alpha2"),
        (("simulate",), "model = depolarizing\nalpha1 = 0.99\nalpha2 = 0.5\njoint = true\n",
         "alpha2"),
    ],
    ids=["model_preset", "device_preset", "ideal", "depolarizing", "preset_model",
         "preset_alpha1", "preset_sample_label", "preset_model_flag", "preset_key_run_keys",
         "depolarizing_device_key", "crosstalk_alpha2", "joint_alpha2"],
)
def test_preset_device_key_errors_name_the_key(tmp_path, command, config, named, capsys):
    # beside a preset only gate_time_ns and steps may be set, and a model
    # refuses the model keys it does not read
    cfg = tmp_path / "keys.cfg"
    cfg.write_text(config)
    out = tmp_path / "o"
    assert run_cli(*command, "--config", str(cfg), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, t2, named",
    [
        ("simulate", "t2_1_us = 30", "t2_1_us = 30 exceeds 2 * t1_1_us = 19.4"),
        ("simulate", "t2_2_us = 16.5", "t2_2_us = 16.5 exceeds 2 * t1_2_us = 16.4"),
        ("predict", "t2_2_us = 16.5", "t2_2_us = 16.5 exceeds 2 * t1_2_us = 16.4"),
    ],
    ids=["qubit_1", "qubit_2", "predict_qubit_2"],
)
def test_t2_above_twice_t1_names_its_keys(tmp_path, command, t2, named, capsys):
    # DeviceParams refuses the pair too, but its message cannot name the keys
    key = t2.split(" = ")[0]
    device = re.sub(rf"^{key} = .*$", t2, SAMPLE_A_DEVICE, flags=re.MULTILINE)
    model = "model = decoherence\n" if command == "simulate" else ""
    cfg = tmp_path / "t2.cfg"
    cfg.write_text(model + device)
    out = tmp_path / "o"
    assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 1
    assert capsys.readouterr().err == f"config error: {named}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, config, named",
    [
        (("--preset", "sample_a"), "granularity = clifford\nlengths = 1,2\n",
         "remove: granularity, lengths"),
        (("--preset", "sample_a"), "model = crosstalk\nsteps = 32\n", "remove: model"),
        ((), "preset = sample_a\n", "device preset from --preset"),
    ],
    ids=["simulate_keys", "model", "preset_key"],
)
def test_predict_refuses_keys_it_does_not_read(tmp_path, command, config, named, capsys):
    # predict reads only the device keys and steps
    cfg = tmp_path / "pred.cfg"
    cfg.write_text(config)
    out = tmp_path / "o"
    assert run_cli("predict", *command, "--config", str(cfg), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err
    assert not out.exists()


def test_predict_sample_b_lists_missing(tmp_path, capsys):
    code = run_cli("predict", "--preset", "sample_b", "--out", str(tmp_path / "o"))
    assert code == 1
    err = capsys.readouterr().err
    for name in ("sample_b", "zeta_mhz", "m12", "mu1"):
        assert name in err


def test_predict_all_couplings_zero(tmp_path):
    cfg = tmp_path / "flat.cfg"
    cfg.write_text(
        "omega1_ghz = 4.99\nomega2_ghz = 5.05\n"
        "t1_1_us = 9.7\nt1_2_us = 8.2\nt2_1_us = 10.3\nt2_2_us = 7.1\n"
        "zeta_mhz = 0\nm12 = 0\nm21 = 0\nmu1 = 0\nmu2 = 0\nnu1 = 0\nnu2 = 0\n"
    )
    out = tmp_path / "pred0"
    assert run_cli("predict", "--config", str(cfg), "--out", str(out)) == 0
    pred = json.loads((out / "predictions.json").read_text())
    assert abs(pred["delta_r"]["dr1_given_2"]) < 1e-8
    assert abs(pred["delta_r"]["dr2_given_1"]) < 1e-8


def test_simulate_crosstalk_end_to_end(tmp_path):
    out = tmp_path / "xtalk"
    code = run_cli(
        "simulate", "--preset", "sample_a_crosstalk", "--seed", "2",
        "--lengths", "1,2,4,8,16,32,64,128", "--K", "16", "--out", str(out),
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    # addressability deltas populated at the milli-level
    assert 1e-4 < report["dr1_given_2"]["value"] < 5e-2
    assert 1e-4 < report["dr2_given_1"]["value"] < 5e-2


def test_simulate_crosstalk_from_config_file(tmp_path):
    cfg = tmp_path / "device.cfg"
    cfg.write_text(
        SAMPLE_A_DEVICE + "gate_time_ns = 24\n"
        "model = crosstalk\nlengths = 1,2,4,8,16\nk = 6\nseed = 5\n"
    )
    out = tmp_path / "from_cfg"
    assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 0
    assert (out / "report.json").exists()


def test_verify_passes_quickly(capsys):
    import time

    from rbaddr.verify import CHECKS

    t0 = time.perf_counter()
    assert run_cli("verify") == 0
    assert time.perf_counter() - t0 < 30
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "14/14 checks passed"
    # the names scripts/verify_mutants.py parses, in the runner's order
    passed = [line.split()[1].rstrip(":") for line in lines if line.startswith("PASS ")]
    assert passed == list(CHECKS)


@pytest.mark.parametrize("level", ["quick", "full"])
def test_verify_negative_control(level, monkeypatch, capsys):
    # a 1e-9 error in the analytic CxC twirl fails the twirl_oracles check
    # ("quick") and, through it, the whole rbaddr verify suite ("full")
    from dataclasses import replace

    from rbaddr import verify

    real = verify.twirl_cxc

    def perturbed(ptm):
        out = real(ptm)
        return replace(out, twirled=out.twirled + 1e-9)

    monkeypatch.setattr(verify, "twirl_cxc", perturbed)
    if level == "quick":
        result = verify.check_twirl_oracles()
        assert result.name == "twirl_oracles" and not result.passed
        return
    assert run_cli("verify") == 3
    assert re.search(r"^FAIL twirl_oracles: ", capsys.readouterr().out, re.MULTILINE)


def test_verify_takes_no_options():
    assert run_cli("verify", "--level", "full") == 1
    assert run_cli("verify", "--tol-override", "1e-16") == 1


def test_dump_group(tmp_path):
    out = tmp_path / "grp"
    assert run_cli("dump-group", "--group", "cxi", "--out", str(out)) == 0
    lines = (out / "group_cxi.csv").read_text().splitlines()
    assert len(lines) == 25


def test_out_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("RB_ADDR_OUT", str(tmp_path / "envbase"))
    assert run_cli("dump-group", "--group", "c1") == 0
    assert (tmp_path / "envbase" / "dump-group" / "group_c1.csv").exists()


def test_usage_error_exit_code():
    assert run_cli("simulate", "--bogus-flag") == 1
    assert run_cli() == 1


@pytest.mark.parametrize(
    "settings, key",
    [
        (("--lengths", "4,2"), "lengths"), (("--K", "1"), "K"), (("--K", "0"), "K"),
        (("--lengths", ""), "lengths"), (("--seed", "-1"), "seed"), ("seed = -1\n", "seed"),
        ("shots = 0\n", "shots"), ("shots = -5\n", "shots"), (("--lengths", "1,,2"), "lengths"),
        ("lengths = 1,2,\n", "lengths"), ("k = 2.5\n", "k"), ("seed = x\n", "seed"),
        ("shots = 1.5\n", "shots"), ("steps = 16.5\n", "steps"), ("lengths = 1,2.5\n", "lengths"),
        ("shots = 9223372036854775808\n", "shots"), ("shots = 1000000000000000000000\n", "shots"),
    ],
    ids=["lengths", "K", "K_zero", "lengths_empty", "seed_negative",
         "config_seed_negative", "config_shots_zero", "config_shots_negative",
         "lengths_empty_item", "config_lengths_trailing_comma", "config_k_not_integer",
         "config_seed_not_integer", "config_shots_not_integer", "config_steps_not_integer",
         "config_lengths_item_not_integer", "config_shots_2_to_the_63", "config_shots_huge"],
)
def test_bad_run_settings_are_config_errors(tmp_path, settings, key, capsys):
    if isinstance(settings, str):  # the contents of a config file
        cfg = tmp_path / "run.cfg"
        cfg.write_text(settings)
        settings = ("--config", str(cfg))
    code = run_cli(
        "simulate", "--model", "ideal", *settings, "--out", str(tmp_path / "o")
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert not (tmp_path / "o").exists()
    assert re.search(rf"\b{key}\b", err), err


@pytest.mark.parametrize(
    "run, key",
    [("lengths = 1,2\nk = 100000000\n", "k"), ("lengths = 100000000\nk = 2\n", "lengths")],
    ids=["k", "lengths"],
)
def test_runs_too_large_to_hold_are_refused_up_front(tmp_path, run, key):
    # a child that may map at most 2 GiB: a run that started anyway would
    # fail on its first big array (4.47 GiB and 1.49 GiB) with a traceback
    import resource

    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = depolarizing\nalpha1 = 0.99\n" + run)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "rbaddr.cli", "simulate", "--config", str(cfg),
         "--out", str(tmp_path / "o")],
        env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31)),
    )
    assert result.returncode == 1
    message = rf"config error: {key} .* GiB of arrays, above the 1 GiB bound\n"
    assert re.fullmatch(message, result.stderr), result.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command, config, key",
    [
        (("simulate",), "model = depolarizing\nalpha1 = abc\n", "alpha1"),
        (("simulate",), "model = depolarizing\nalpha1 = 1.5\n", "alpha1"),
        (("simulate",), "model = depolarizing\nalpha1 = 0.99\nalpha2 = -0.34\n", "alpha2"),
        (("simulate",), "model = depolarizing\nalpha1 = -0.07\njoint = true\n", "alpha1"),
        (("predict", "--preset", "sample_a"), "gate_time_ns = abc\n", "gate_time_ns"),
        (("predict", "--preset", "sample_a"), "gate_time_ns = 0\n", "gate_time_ns"),
        (("simulate",), SAMPLE_A_DEVICE + "model = crosstalk\ngate_time_ns = 0\n", "gate_time_ns"),
        (("simulate",), SAMPLE_A_DEVICE + "model = decoherence\nt1_1_us = -1\n", "t1_1_us"),
        (("simulate",), SAMPLE_A_DEVICE + "model = decoherence\nt1_1_us = nan\n", "t1_1_us"),
        (("simulate",), SAMPLE_A_DEVICE + "model = crosstalk\nsteps = 4\n", "steps"),
        (("simulate",), "model = depolarizing\nalpha1 = 0.99\nsteps = abc\n", "steps"),
        (("simulate",), SAMPLE_A_DEVICE + "model = decoherence\nsteps = 3\n", "steps"),
        (("simulate", "--preset", "sample_a_crosstalk"), "granularity = clifford\n", "granularity"),
        (("predict", "--preset", "sample_a"), "steps = 3\n", "steps"),
        (("simulate", "--preset", "sample_a_crosstalk"), "steps = 3\n", "steps"),
        (("simulate",), "model = depolarizing\nalpha1 = 0.99\njoint = ture\n", "joint"),
        (("simulate", "--preset", "sample_a_crosstalk"), "gate_time_ns = 0\n", "gate_time_ns"),
        (("simulate", "--preset", "sample_b_decoherence"), SAMPLE_A_DEVICE, "omega1_ghz"),
        (("predict", "--preset", "sample_a"), "gate_time_ns = -3\n", "gate_time_ns"),
        (("simulate",), SAMPLE_A_DEVICE + "model = crosstalk\ngate_time_ns = 1e-320\n",
         "gate_time_ns"),
        (("simulate",), SAMPLE_A_DEVICE.replace("4.9895", "1e300") + "model = crosstalk\n",
         "omega1_ghz"),
    ],
    ids=[
        "alpha_unparsable", "alpha_not_cptp", "alpha2_not_cptp",
        "joint_alpha_not_cptp", "gate_time_unparsable", "gate_time_zero",
        "crosstalk_gate_time_zero",
        "t1_negative", "t1_nan", "steps_too_few", "clifford_granularity_crosstalk",
        "depolarizing_steps_unparsable", "decoherence_steps_too_few",
        "predict_steps_too_few", "preset_steps_too_few", "joint_misspelt",
        "preset_gate_time_zero", "preset_device_keys", "gate_time_negative",
        "gate_time_underflows", "omega_overflows",
    ],
)
def test_bad_model_values_are_config_errors(tmp_path, command, config, key, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(config)
    code = run_cli(*command, "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert re.search(rf"\b{key}\b", err), err


@pytest.mark.parametrize(
    "command, config",
    [
        (("simulate",), SAMPLE_A_DEVICE + "model = crosstalk\nsteps = 65537\n"),
        (("simulate", "--preset", "sample_a_full"), "steps = 99999999999999999999\n"),
        (("simulate", "--preset", "sample_a_depolarizing"), "steps = 65537\n"),
        (("predict", "--preset", "sample_a"), "steps = 99999999999999999999\n"),
    ],
    ids=["crosstalk", "preset_full", "preset_depolarizing", "predict"],
)
def test_steps_above_the_bound_are_config_errors(tmp_path, command, config, capsys):
    # refused before the output directory exists and before any allocation
    cfg = tmp_path / "steps.cfg"
    cfg.write_text(config)
    out = tmp_path / "o"
    assert run_cli(*command, "--config", str(cfg), "--out", str(out)) == 1
    assert "config error: steps must be 16 to 65536" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [("simulate", "--config"), ("predict", "--config"), ("fit",)])
@pytest.mark.parametrize(
    "make_input",
    [
        lambda path: path.mkdir(),
        lambda path: path.write_bytes(b"experiment,projection,m,mean,stderr,K\nexp1,Q1,1,\xff\n"),
        lambda path: None,
    ],
    ids=["directory", "not_utf8", "missing"],
)
def test_unreadable_inputs_are_config_errors(tmp_path, command, make_input, capsys):
    path = tmp_path / "input"
    make_input(path)
    code = run_cli(*command, str(path), "--out", str(tmp_path / "o"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command",
    [
        ("simulate", "--preset", "sample_a_depolarizing", *FAST_ARGS),
        ("predict", "--preset", "sample_a"),
        ("fit", "curves.csv"),
        ("dump-group",),
    ],
    ids=["simulate", "predict", "fit", "dump-group"],
)
@pytest.mark.parametrize("out", ["taken", "taken/x"], ids=["file", "below_a_file"])
def test_out_naming_a_file_is_a_config_error(tmp_path, monkeypatch, command, out, capsys):
    monkeypatch.chdir(tmp_path)
    Path("curves.csv").write_text(
        "experiment,projection,m,mean,stderr,K\n"
        + "".join(f"exp1,Q1,{m},{0.99**m},0.002,10\n" for m in (1, 2, 4, 8, 16))
    )
    Path("taken").write_text("")
    assert run_cli(*command, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot create output directory {out}: ")
    assert "Traceback" not in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("m", [2**32, 10**400], ids=["2**32", "10**400"])
def test_fit_rejects_lengths_beyond_the_simulation_bound(tmp_path, capsys, m):
    # simulate refuses m >= 2**32; a huge m used to crash the fit's float conversion
    csv = tmp_path / "long.csv"
    rows = ["experiment,projection,m,mean,stderr,K"]
    rows += [f"exp1,Q1,{m},0.9,0.01,10" for m in (1, 2, 4, 8)]
    rows.append(f"exp1,Q1,{m},0.5,0.01,10")
    csv.write_text("\n".join(rows) + "\n")
    out = tmp_path / "o"
    assert run_cli("fit", str(csv), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("analysis error: ") and "m >= 2**32 at line 6" in err
    assert not (out / "fits.json").exists()


def test_fit_prints_no_warning_for_rejected_steps(tmp_path):
    # a flat curve at the 1/4 floor: LM tries and rejects steps that
    # overflow, and numpy used to print a RuntimeWarning for each kind
    ms = (67, 77, 104, 119, 133, 186, 200, 307, 325, 332, 488)
    means = (0.2466, 0.2440, 0.2348, 0.2396, 0.2555, 0.2437, 0.2444, 0.2492, 0.2501, 0.2415, 0.2470)
    csv = tmp_path / "flat.csv"
    rows = ["experiment,projection,m,mean,stderr,K"]
    rows += [f"exp1,Q1,{m},{mean},0.0047,20" for m, mean in zip(ms, means)]
    csv.write_text("\n".join(rows) + "\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "rbaddr.cli", "fit", str(csv), "--out", str(tmp_path / "o")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0
    assert result.stderr == ""


def test_fit_rejects_a_stderr_whose_weight_overflows(tmp_path, capfd):
    # 1e-200 squared underflows to 0: the fit used to exit 0 with r_1 = 0.0221 +- nan,
    # after two numpy overflow warnings and two LAPACK DLASCL lines
    csv = tmp_path / "tiny.csv"
    rows = ["experiment,projection,m,mean,stderr,K"]
    rows += [f"exp1,Q1,{m},{0.5 * 0.99**m + 0.25},0.002,50" for m in (1, 2, 4, 8, 16, 32)]
    rows.append(f"exp1,Q1,64,{0.5 * 0.99**64 + 0.25},1e-200,50")
    csv.write_text("\n".join(rows) + "\n")
    out = tmp_path / "o"
    assert run_cli("fit", str(csv), "--out", str(out)) == 2
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err == "analysis error: stderr too small at line 8: 1/stderr^2 overflows\n"
    assert not out.exists()


def test_fit_records_an_error_when_the_normal_matrix_overflows(tmp_path, capfd, recwarn):
    # 8e-155 passes the weight check (1/stderr^2 is finite), but two such
    # rows overflow J^T W J: the fit used to exit 0 with r_1 = 0.0221 +- nan,
    # a bare NaN in fits.json, a numpy warning and two LAPACK DLASCL lines
    csv = tmp_path / "tiny.csv"
    rows = ["experiment,projection,m,mean,stderr,K"]
    rows += [f"exp1,Q1,{m},{0.5 * 0.99**m + 0.25},{8e-155 if m in (32, 64) else 0.002},50"
             for m in range(1, 65)]
    csv.write_text("\n".join(rows) + "\n")
    out = tmp_path / "o"
    assert run_cli("fit", str(csv), "--out", str(out)) == 0
    captured = capfd.readouterr()
    assert captured.err == "" and "DLASCL" not in captured.out
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    fits = json.loads((out / "fits.json").read_text(), parse_constant=refuse)
    (curve,) = fits["curves"]
    assert curve["error"] == "the normal matrix J^T W J overflows at the fitted point"


def test_fit_rejects_nonfinite_mean(tmp_path):
    csv = tmp_path / "nan.csv"
    rows = ["experiment,projection,m,mean,stderr,K"]
    rows += [f"exp1,Q1,{m},0.9,0.01,10" for m in (1, 2, 4, 8)]
    rows.append("exp1,Q1,16,nan,0.01,10")
    csv.write_text("\n".join(rows) + "\n")
    out = tmp_path / "o"
    assert run_cli("fit", str(csv), "--out", str(out)) == 2
    assert not (out / "fits.json").exists()


def test_plot_data_includes_background_terms(tmp_path):
    # a correlation decay with fixed-rate background terms at the
    # simultaneous single-qubit rates: the plotted curve is the full model
    ms = (1, 2, 4, 8, 16, 32, 64, 128, 256)
    shapes = {
        "Q1": lambda m: 0.5 + 0.5 * 0.98**m,
        "Q2": lambda m: 0.5 + 0.5 * 0.97**m,
        "CORR": lambda m: 0.25 + 0.35 * 0.95**m + 0.2 * 0.98**m + 0.2 * 0.97**m,
    }
    rows = ["experiment,projection,m,mean,stderr,K"]
    for proj, shape in shapes.items():
        rows += [f"exp3,{proj},{m},{shape(m)!r},0.001,50" for m in ms]
    csv_in = tmp_path / "bg.csv"
    csv_in.write_text("\n".join(rows) + "\n")
    out = tmp_path / "o"
    assert run_cli("fit", str(csv_in), "--out", str(out)) == 0
    fits = json.loads((out / "fits.json").read_text())["curves"]
    corr = next(f for f in fits if f["projection"] == "CORR")
    assert corr["model"] == "correlation_with_background"
    plotted = [
        line.split(",")
        for line in (out / "plot_data.csv").read_text().splitlines()[1:]
    ]
    corr_rows = [(int(m), float(v)) for e, p, m, v in plotted if p == "CORR"]
    assert len(corr_rows) > 10
    for m, value in corr_rows:
        assert value == pytest.approx(shapes["CORR"](m), abs=1e-9)
