"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Runs are fully seeded so the outcome is deterministic.

One run of the ``rbaddr verify`` checks gives the oracle verdicts: every
registered check must pass, and criteria 1-4 read theirs too, so each
oracle is written once."""

import time
from dataclasses import replace

import numpy as np
import pytest

from rbaddr.cli import main as cli_main
from rbaddr.cliffords import generate_c1
from rbaddr.fitting import fit_protocol_curves
from rbaddr.noise import (
    SAMPLE_A,
    CrossTalk,
    Depolarizing,
    NoisyGateSet,
    StaticError,
    predict_addressability,
    zz_rotation_ptm,
)
from rbaddr.protocol import RBConfig, run_protocol
from rbaddr.report import UVal, build_report
from rbaddr import report as report_module
from rbaddr import noise, verify
from rbaddr.verify import run_verification

PUBLISHED_DR_ESTIMATES = {"dr1_given_2": 0.0034, "dr2_given_1": 0.007}


@pytest.fixture(scope="module")
def verify_checks():
    """The ``rbaddr verify`` checks, by name."""
    return {check.name: check for check in run_verification()}


# The counts the acceptance suite pins in a check's detail line
DETAIL_PINS = {
    "frame_rotation": "over 35 slot pairs",
    "zz_conjugation": "0.00e+00 over 12 slots",
    "element_words": "0.00e+00 over 576 elements",
    "decoupled_pulses": "over 12 single-line slots",
}


@pytest.mark.parametrize("name", list(verify.CHECKS))
def test_registered_check_passes(verify_checks, name):
    """Every ``rbaddr verify`` check passes, against its own tolerance and,
    where it has one, its negative control (see each check's docstring);
    criteria 1-4 below also read theirs."""
    check = verify_checks[name]
    print(f"[{name}] {'PASS' if check.passed else 'FAIL'}: {check.detail} "
          f"in {check.seconds:.2f}s")
    assert check.passed, check.detail
    assert DETAIL_PINS.get(name, "") in check.detail


def report_line(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number}] {status}: {detail}")
    assert passed, detail


def test_criterion_1_twirl_oracles(verify_checks):
    """50 random CPTP channels: the CxC and both CxI twirls match brute
    force at 1e-10."""
    check = verify_checks["twirl_oracles"]
    report_line(
        1,
        check.passed and check.seconds < 60,
        f"{check.detail} in {check.seconds:.1f}s",
    )


@pytest.mark.parametrize(
    "name, side", [("twirl_cxc", None), ("twirl_cxi", 1), ("twirl_cxi", 2)],
    ids=["cxc", "cxi_qubit_1", "cxi_qubit_2"],
)
def test_twirl_oracles_compare_every_twirl_predict_runs(monkeypatch, name, side):
    """A 1e-9 error in any of the three analytic twirls fails criterion 1's
    check at its 1e-10 tolerance."""
    real = getattr(verify, name)

    def perturbed(ptm, *which):
        out = real(ptm, *which)
        if name == "twirl_cxc" or which == (side,):
            return replace(out, twirled=out.twirled + 1e-9)
        return out

    monkeypatch.setattr(verify, name, perturbed)
    assert not verify.check_twirl_oracles().passed


def test_correlation_witness_check_reads_the_report_formula(monkeypatch):
    """A 1e-9 error in the report's witness, the one ``predict`` prints,
    fails criterion 3's check at its 1e-12 tolerance."""
    real = report_module.delta_alpha

    def perturbed(*alphas):
        out = real(*alphas)
        return replace(out, value=out.value + 1e-9)

    monkeypatch.setattr(report_module, "delta_alpha", perturbed)
    assert not verify.check_product_delta_alpha().passed


def test_criterion_2_group_integrity(verify_checks):
    """|C1| = 24 by closure; 1000 random recoveries compose to identity."""
    check = verify_checks["group_integrity"]
    report_line(2, check.passed, check.detail)


def test_criterion_3_correlation_witness(verify_checks):
    """Product channels give delta_alpha = 0 (50 channels, 1e-12); an
    injected ZZ error is detected at more than 3 sigma through
    simulate -> fit -> report, and a product of Z rotations is not."""
    product, injection = verify_checks["product_channel_delta_alpha"], verify_checks["zz_injection"]
    report_line(3, product.passed and injection.passed, f"{product.detail}; {injection.detail}")


def test_zz_injection_check_sees_a_weaker_correlation(monkeypatch):
    """With the injected ZZ angle halved, the witness falls to 2.5 sigma
    and the check fails."""
    monkeypatch.setattr(verify, "zz_rotation_ptm", lambda theta: zz_rotation_ptm(theta / 2))
    assert not verify.check_zz_injection().passed


def test_criterion_4_fit_recovery_and_table(verify_checks):
    """68% CI coverage in [0.58, 0.78] over 200 repetitions, and the
    report arithmetic reproduces the published table within rounding."""
    check = verify_checks["fit_ci_coverage"]
    table_r = {"r1": 0.0039, "r2": 0.0067, "r1_given_2": 0.0086, "r2_given_1": 0.0120}
    sig_r = {"r1": 0.0001, "r2": 0.0002, "r1_given_2": 0.0003, "r2_given_1": 0.0005}
    alphas = {
        "alpha_1": UVal(1 - 2 * table_r["r1"], 2 * sig_r["r1"]),
        "alpha_2": UVal(1 - 2 * table_r["r2"], 2 * sig_r["r2"]),
        "alpha_1_2": UVal(1 - 2 * table_r["r1_given_2"], 2 * sig_r["r1_given_2"]),
        "alpha_2_1": UVal(1 - 2 * table_r["r2_given_1"], 2 * sig_r["r2_given_1"]),
    }
    alphas["alpha_12"] = UVal(
        alphas["alpha_1_2"].value * alphas["alpha_2_1"].value + 0.0050, 0.00139
    )
    report = build_report(alphas, sample_label="sample_a")
    table_ok = (
        abs(report.r1.value - 0.0039) < 5e-5
        and abs(report.r2.value - 0.0067) < 5e-5
        and abs(report.dr1_given_2.value - 0.0047) < 5e-5
        and abs(report.dr1_given_2.sigma - 0.0003) < 1e-4
        and abs(report.dr2_given_1.value - 0.0053) < 5e-5
        and abs(report.dr2_given_1.sigma - 0.0005) < 1e-4
        and abs(report.dalpha.value - 0.0050) < 5e-5
        and abs(report.dalpha.sigma - 0.0018) < 1e-4
    )
    report_line(
        4,
        check.passed and table_ok,
        f"{check.detail}; table round-trip ok = {table_ok}",
    )


def test_frame_rotation_check_sees_one_slot_off():
    """A 1e-9 error in one slot channel, (y90, idle), the image of (x90,
    idle), of the sample-a channels given as a gate set fails the
    frame-rotation check at its 1e-12 tolerance; the channels as given
    pass it."""
    channels = NoisyGateSet(CrossTalk(SAMPLE_A)).slot_channels[1:].copy()
    ideal = noise._ideal_slot_ptms()[1:]
    given = NoisyGateSet(StaticError(channels @ ideal.swapaxes(1, 2)))
    assert verify.check_frame_rotation(given).passed
    channels[noise.SLOTS.index(("y90", None)), 1, 1] += 1e-9
    perturbed = NoisyGateSet(StaticError(channels @ ideal.swapaxes(1, 2)))
    assert not verify.check_frame_rotation(perturbed).passed


def test_full_verification_integrates_the_sample_a_batch_once(monkeypatch):
    """The step-doubling, qubit-relabeling, frame-rotation and Z (x) Z
    checks share one integration of the sample-a slots at the default
    steps: the relabeling check's unrelabeled device reuses its error."""
    real = noise.evolve_to_ptms
    sample_a = []

    def counting(p, slots, steps=noise.DEFAULT_EVOLVE_STEPS):
        sample_a.append(p == SAMPLE_A and steps == noise.DEFAULT_EVOLVE_STEPS)
        return real(p, slots, steps)

    monkeypatch.setattr(noise, "evolve_to_ptms", counting)
    monkeypatch.setattr(verify, "evolve_to_ptms", counting)
    checks = run_verification()
    assert all(check.passed for check in checks), [c.name for c in checks if not c.passed]
    assert sample_a.count(True) == 1


def test_element_words_check_sees_words_played_in_reverse(monkeypatch):
    """A slot map that plays each element's word in reverse fails the
    check, even on a gate-independent gate set."""
    real = noise._slot_positions

    def reversed_words(kind):
        rows = real(kind).copy()
        for row in rows:
            played = np.count_nonzero(row)  # slot rows start at 1, the pad is 0
            row[:played] = row[:played][::-1]
        return rows

    assert verify.check_element_words(NoisyGateSet(Depolarizing(0.99))).passed
    monkeypatch.setattr(noise, "_slot_positions", reversed_words)
    assert not verify.check_element_words(NoisyGateSet(Depolarizing(0.99))).passed


def test_decoupled_pulses_check_sees_the_pulse_area(monkeypatch):
    """A pulse area normalised to the flat top alone, 1.5x too large,
    fails the decoupled-pulse check."""
    assert verify.check_decoupled_pulses().passed
    monkeypatch.setattr(noise, "_shape_integral",
                        lambda gate_time: (1 - 2 * noise.RAMP_FRAC) * gate_time)
    assert not verify.check_decoupled_pulses().passed


def test_criterion_5_depolarizing_consistency():
    """Per-generator depolarizing noise: every curve's reduced chi2 <= 2
    and extracted rates match the word-length prediction within 3 sigma."""
    t0 = time.perf_counter()
    alpha_g = 0.999
    lens = np.array([len(word) for (word,) in generate_c1().words], dtype=float)
    pairs_max = np.array([max(a, b) for a in lens for b in lens])
    predicted = {
        "alpha_1": float(np.mean(alpha_g**lens)),
        "alpha_2": float(np.mean(alpha_g**lens)),
        "alpha_1_2": float(np.mean(alpha_g**pairs_max)),
        "alpha_2_1": float(np.mean(alpha_g**pairs_max)),
        "alpha_12": float(np.mean(alpha_g ** (2 * pairs_max))),
    }
    cfg = RBConfig(K=50, seed=123)  # default lengths 1..512
    curves = run_protocol(cfg, NoisyGateSet(Depolarizing(alpha_g)))
    result = fit_protocol_curves(curves)
    chi2 = {
        key: fit.chi2_reduced
        for key, fit in result["fits"].items()
        if hasattr(fit, "chi2_reduced")
    }
    max_chi2 = max(chi2.values())
    max_z = 0.0
    for key, fit in result["alpha_fits"].items():
        z = abs(fit.alpha - predicted[key]) / fit.alpha_sigma
        max_z = max(max_z, z)
    elapsed = time.perf_counter() - t0
    report_line(
        5,
        max_chi2 <= 2 and max_z < 3 and elapsed < 300,
        f"max reduced chi2 {max_chi2:.2f} over {len(chi2)} curves; "
        f"max |alpha - predicted|/sigma {max_z:.2f}; {elapsed:.1f}s",
    )


def test_criterion_6_crosstalk_prediction():
    """Measured-parameter predictions land within a factor of 3 of the
    published estimates and grow when the quantum couplings double."""
    pred = predict_addressability(NoisyGateSet(CrossTalk(SAMPLE_A)), gamma_max_m=0)
    doubled_params = replace(SAMPLE_A, mu1=2 * SAMPLE_A.mu1, mu2=2 * SAMPLE_A.mu2)
    pred_doubled = predict_addressability(NoisyGateSet(CrossTalk(doubled_params)), gamma_max_m=0)
    ok = True
    details = []
    for key, reference in PUBLISHED_DR_ESTIMATES.items():
        value = pred["delta_r"][key]
        ratio = value / reference
        ok = ok and (1 / 3 <= ratio <= 3)
        ok = ok and pred_doubled["delta_r"][key] > value
        details.append(f"{key} = {value:.4f} (x{ratio:.2f} of estimate)")
    report_line(6, ok, "; ".join(details) + "; both increase under mu x2")


def test_criterion_7_determinism(tmp_path):
    """Identical config and seed give byte-identical data artifacts."""
    digests = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        code = cli_main(
            [
                "simulate", "--preset", "sample_a_depolarizing", "--seed", "11",
                "--lengths", "1,2,4,8,16,32,64", "--K", "10", "--out", str(out),
            ]
        )
        assert code == 0
        digests.append(
            {
                artifact: (out / artifact).read_bytes()
                for artifact in ("curves.csv", "fits.json", "report.json", "plot_data.csv")
            }
        )
    identical = all(digests[0][k] == digests[1][k] for k in digests[0])
    report_line(7, identical, "curves/fits/report/plot artifacts byte-identical")
