import json

import pytest

from rbaddr.cli import main, parse_config_file

FAST_ARGS = ["--lengths", "1,2,4,8,16,32", "--K", "8"]


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


def test_fit_rejects_bad_rows(tmp_path):
    csv = tmp_path / "bad.csv"
    csv.write_text("experiment,projection,m,mean,stderr,K\nexp1,Q1,1,0.9,-1,5\n")
    assert run_cli("fit", str(csv), "--out", str(tmp_path / "o")) == 2


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# device\nomega1_ghz = 4.9895\nomega2_ghz = 5.0554\n"
        "t1_1_us = 9.7\nt1_2_us = 8.2\nt2_1_us = 10.3\nt2_2_us = 7.1\n"
        "zeta_mhz = 1.1\nm12 = 0.19\nm21 = 0.32\nmu1 = -0.088\nmu2 = -0.16\n"
        "nu1 = -0.025\nnu2 = -0.048\n\nmodel = crosstalk\nseed = 2\nk = 8\n"
        "lengths = 1,2,4\n"
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


def test_predict_sample_b_lists_missing(tmp_path, capsys):
    code = run_cli("predict", "--preset", "sample_b", "--out", str(tmp_path / "o"))
    assert code == 1
    err = capsys.readouterr().err
    for name in ("zeta", "m12", "mu1"):
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
        "omega1_ghz = 4.9895\nomega2_ghz = 5.0554\n"
        "t1_1_us = 9.7\nt1_2_us = 8.2\nt2_1_us = 10.3\nt2_2_us = 7.1\n"
        "zeta_mhz = 1.1\nm12 = 0.19\nm21 = 0.32\nmu1 = -0.088\nmu2 = -0.16\n"
        "nu1 = -0.025\nnu2 = -0.048\ngate_time_ns = 24\n"
        "model = crosstalk\nlengths = 1,2,4,8,16\nk = 6\nseed = 5\n"
    )
    out = tmp_path / "from_cfg"
    assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 0
    assert (out / "report.json").exists()


def test_verify_quick_passes_quickly():
    import time

    t0 = time.perf_counter()
    assert run_cli("verify", "--level", "quick") == 0
    assert time.perf_counter() - t0 < 30


def test_verify_negative_control():
    assert run_cli("verify", "--level", "quick", "--tol-override", "1e-16") == 3


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
    "settings", [("--lengths", "4,2"), ("--K", "1")], ids=["lengths", "K"]
)
def test_bad_run_settings_are_config_errors(tmp_path, settings, capsys):
    code = run_cli(
        "simulate", "--model", "ideal", *settings, "--out", str(tmp_path / "o")
    )
    assert code == 1
    assert "config error" in capsys.readouterr().err


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
