import json

import numpy as np
import pytest

from rbaddr.report import (
    UVal,
    build_report,
    delta_alpha,
    delta_r,
    gate_error,
)

# Extracted hardware numbers the toolkit must reproduce arithmetically
# (alpha = 1 - 2r for qubit subsystems; sigma_alpha = 2 sigma_r).
SAMPLE_A_TABLE = {
    "r1": (0.0039, 0.0001),
    "r2": (0.0067, 0.0002),
    "r1_given_2": (0.0086, 0.0003),
    "r2_given_1": (0.0120, 0.0005),
    "dr1_given_2": (0.0047, 0.0003),
    "dr2_given_1": (0.0053, 0.0005),
    "delta_alpha": (0.0050, 0.0018),
}
SAMPLE_B_TABLE = {
    "r1": (0.0029, 0.0002),
    "r2": (0.0037, 0.0003),
    "r1_given_2": (0.0032, 0.0003),
    "r2_given_1": (0.0043, 0.0002),
    "dr1_given_2": (0.0003, 0.0003),
    "dr2_given_1": (0.0006, 0.0003),
    "delta_alpha": (0.0015, 0.0007),
}


def alphas_from_table(table, sigma_alpha12):
    def a_of_r(key):
        r, s = table[key]
        return UVal(1 - 2 * r, 2 * s)

    alphas = {
        "alpha_1": a_of_r("r1"),
        "alpha_2": a_of_r("r2"),
        "alpha_1_2": a_of_r("r1_given_2"),
        "alpha_2_1": a_of_r("r2_given_1"),
    }
    a12 = alphas["alpha_1_2"].value * alphas["alpha_2_1"].value + table["delta_alpha"][0]
    alphas["alpha_12"] = UVal(a12, sigma_alpha12)
    return alphas


def test_gate_error_examples():
    assert gate_error(1.0).value == 0.0
    assert gate_error(0.99).value == pytest.approx(0.005)
    assert gate_error(0.9922).value == pytest.approx(0.0039)
    r = gate_error(UVal(0.99, 0.002))
    assert r.sigma == pytest.approx(0.001)


def test_delta_r_examples():
    d12 = delta_r(UVal(0.0039, 0.0001), UVal(0.0086, 0.0003))
    assert d12.value == pytest.approx(0.0047)
    assert d12.sigma == pytest.approx(np.hypot(0.0001, 0.0003))
    d21 = delta_r(UVal(0.0067, 0.0002), UVal(0.0120, 0.0005))
    assert d21.value == pytest.approx(0.0053)
    assert delta_r(UVal(0.004, 0.001), UVal(0.004, 0.001)).value == 0.0


def test_delta_alpha_examples():
    product = delta_alpha(UVal(0.9, 0.0), UVal(0.95, 0.0), UVal(0.9473684, 0.0))
    assert product.value == pytest.approx(0.9 - 0.95 * 0.9473684)
    da = delta_alpha(UVal(0.96, 0.001), UVal(0.98, 0.002), UVal(0.97, 0.003))
    expected_sigma = np.sqrt(
        0.001**2 + (0.97 * 0.002) ** 2 + (0.98 * 0.003) ** 2
    )
    assert da.sigma == pytest.approx(expected_sigma)


@pytest.mark.parametrize(
    "table,sigma12,label",
    [(SAMPLE_A_TABLE, 0.00139, "sample_a"), (SAMPLE_B_TABLE, 0.0001, "sample_b")],
)
def test_report_reproduces_hardware_table(table, sigma12, label):
    report = build_report(alphas_from_table(table, sigma12), sample_label=label)
    assert report.missing == ()
    got = {
        "r1": report.r1,
        "r2": report.r2,
        "r1_given_2": report.r1_given_2,
        "r2_given_1": report.r2_given_1,
        "dr1_given_2": report.dr1_given_2,
        "dr2_given_1": report.dr2_given_1,
        "delta_alpha": report.dalpha,
    }
    for key, (value, sigma) in table.items():
        assert got[key].value == pytest.approx(value, abs=5e-5), key
        assert got[key].sigma == pytest.approx(sigma, abs=1e-4), key


def test_report_partial_and_missing_markers():
    report = build_report({"alpha_1": UVal(0.99, 0.001)})
    assert "alpha_2" in report.missing
    assert report.r1 is not None and report.r2 is None
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["r2"] is None
    assert "alpha_12" in payload["missing"]


def test_report_swap_symmetry():
    alphas = alphas_from_table(SAMPLE_A_TABLE, 0.0014)
    swapped = {
        "alpha_1": alphas["alpha_2"],
        "alpha_2": alphas["alpha_1"],
        "alpha_1_2": alphas["alpha_2_1"],
        "alpha_2_1": alphas["alpha_1_2"],
        "alpha_12": alphas["alpha_12"],
    }
    a = build_report(alphas)
    b = build_report(swapped)
    assert a.r1.value == pytest.approx(b.r2.value)
    assert a.dr1_given_2.value == pytest.approx(b.dr2_given_1.value)
    assert a.dalpha.value == pytest.approx(b.dalpha.value)


def test_report_deterministic_recompute():
    alphas = alphas_from_table(SAMPLE_A_TABLE, 0.0014)
    a = build_report(alphas, sample_label="x", provenance={"seed": 1})
    b = build_report(alphas, sample_label="x", provenance={"seed": 1})
    assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())


def test_report_chi2_flags():
    class FakeFit:
        alpha = 0.99
        alpha_sigma = 0.001
        chi2_reduced = 3.5
        converged = True

    report = build_report({"alpha_1": FakeFit()})
    assert any("suspect" in f for f in report.flags)
    assert report.chi2_reduced["alpha_1"] == 3.5


def test_report_text_layout():
    report = build_report(alphas_from_table(SAMPLE_A_TABLE, 0.0014), "sample_a")
    text = report.to_text()
    lines = text.splitlines()
    assert lines[0] == "sample: sample_a"
    assert any(line.startswith("r_1 ") or line.startswith("r_1|2") or "r_1" in line for line in lines)
    assert "dalpha" in text
    # a partial report renders n/a rows instead of failing
    partial = build_report({"alpha_1": UVal(0.99, 0.001)})
    assert "n/a" in partial.to_text()


def test_uval_validation():
    with pytest.raises(ValueError):
        UVal(1.0, -0.1)
