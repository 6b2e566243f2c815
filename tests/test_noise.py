import numpy as np
import pytest
from dataclasses import replace

from rbaddr.cliffords import element_slots, generator_ptm, get_group
from rbaddr.noise import (
    SAMPLE_A,
    SAMPLE_B,
    Composite,
    CrossTalk,
    Decoherence,
    Depolarizing,
    DeviceParams,
    DriveEnvelope,
    Ideal,
    NoisyGateSet,
    StaticError,
    amplitude_damping_kraus,
    average_error_channel,
    crosstalk_hamiltonian,
    decoherence_ptm,
    depolarizing_kraus,
    evolve_to_ptm,
    generator_envelope,
    ideal_gate_ptm,
    noisy_gate,
    predict_addressability,
    predict_alphas,
    zz_rotation_ptm,
)
from rbaddr.paulis import (
    depolarizing_ptm,
    is_trace_preserving,
    pauli_matrices,
    ptm_from_kraus,
    tensor,
)

TWO_PI = 2 * np.pi


def decoupled_params(**overrides):
    base = dict(
        omega1=SAMPLE_A.omega1,
        omega2=SAMPLE_A.omega2,
        t1_1=9.7e-6,
        t1_2=8.2e-6,
        t2_1=10.3e-6,
        t2_2=7.1e-6,
        zeta=0.0,
        m12=0.0,
        m21=0.0,
        mu1=0.0,
        mu2=0.0,
        nu1=0.0,
        nu2=0.0,
    )
    base.update(overrides)
    return DeviceParams(**base)


def pauli_coeff(h, label_index):
    return np.trace(np.asarray(pauli_matrices(2)[label_index]) @ h).real / 4


# ---------------------------------------------------------------------------
# device parameters


def test_device_params_validation():
    with pytest.raises(ValueError):
        decoupled_params(t2_1=30e-6)  # T2 > 2 T1
    with pytest.raises(ValueError):
        decoupled_params(m12=1.5)


def test_sample_presets():
    assert SAMPLE_A.delta == pytest.approx(TWO_PI * -65.9e6, rel=1e-3)
    assert SAMPLE_B.delta == pytest.approx(TWO_PI * -579.1e6, rel=1e-3)
    assert SAMPLE_A.missing_crosstalk_fields() == ()
    assert set(SAMPLE_B.missing_crosstalk_fields()) == {
        "zeta", "m12", "m21", "mu1", "mu2", "nu1", "nu2",
    }


def test_device_params_from_config_units():
    cfg = {
        "omega1_ghz": "4.9895", "omega2_ghz": "5.0554",
        "t1_1_us": "9.7", "t1_2_us": "8.2", "t2_1_us": "10.3", "t2_2_us": "7.1",
        "zeta_mhz": "1.1", "m12": "0.19", "m21": "0.32",
        "mu1": "-0.088", "mu2": "-0.16", "nu1": "-0.025", "nu2": "-0.048",
        "gate_time_ns": "24",
    }
    p = DeviceParams.from_config(cfg)
    assert p.omega1 == pytest.approx(SAMPLE_A.omega1)
    assert p.zeta == pytest.approx(SAMPLE_A.zeta)
    assert p.gate_time == pytest.approx(24e-9)


# ---------------------------------------------------------------------------
# envelopes


def test_envelope_calibration_integral():
    env = DriveEnvelope(1, "x", np.pi, 24e-9)
    n = 200000
    dt = 24e-9 / n
    mid = (np.arange(n) + 0.5) * dt
    integral = env.amplitude(mid).sum() * dt
    assert integral == pytest.approx(np.pi / 2, rel=1e-6)


def test_envelope_vanishes_outside_gate():
    env = DriveEnvelope(2, "y", np.pi / 2, 20e-9)
    assert env.amplitude(-1e-9) == 0.0
    assert env.amplitude(21e-9) == 0.0


# ---------------------------------------------------------------------------
# Hamiltonian structure


def test_hamiltonian_zero_without_drives():
    p = decoupled_params()
    h = crosstalk_hamiltonian(p, None, None, 0.0)
    assert np.max(np.abs(h)) == 0.0


def test_hamiltonian_spurious_drive_term():
    # with only drive 1 on, qubit 2 sees (m12 - nu1) * eps1 on IX at t=0
    p = SAMPLE_A
    env1 = generator_envelope("x90", 1, p.gate_time)
    h = crosstalk_hamiltonian(p, env1, None, 0.0)
    eps = float(env1.amplitude(0.0))
    labels = {"IX": 1, "XI": 4, "ZX": 13, "XZ": 7}
    assert pauli_coeff(h, labels["XI"]) == pytest.approx(eps, rel=1e-12)
    assert pauli_coeff(h, labels["IX"]) == pytest.approx((p.m12 - p.nu1) * eps)
    assert pauli_coeff(h, labels["ZX"]) == pytest.approx(-p.mu1 * eps)
    assert pauli_coeff(h, labels["XZ"]) == pytest.approx(p.m12 * p.mu2 * eps)


def test_hamiltonian_zz_term_and_detunings():
    p = replace(decoupled_params(), zeta=TWO_PI * 1.1e6, detuning1=1e5, detuning2=-2e5)
    h = crosstalk_hamiltonian(p, None, None, 3e-9)
    assert pauli_coeff(h, 15) == pytest.approx(p.zeta / 4)  # ZZ
    assert pauli_coeff(h, 12) == pytest.approx(-p.detuning1 / 2)  # ZI
    assert pauli_coeff(h, 3) == pytest.approx(-p.detuning2 / 2)  # IZ


def test_idle_zz_evolution_phase():
    # free evolution for t = 1/(2 * 1.1 MHz) accumulates a pi/2 ZZ rotation
    zeta = TWO_PI * 1.1e6
    t = 1 / (2 * 1.1e6)
    p = decoupled_params(zeta=zeta, gate_time=t)
    ptm = evolve_to_ptm(p, [], steps=64)
    assert np.max(np.abs(ptm - zz_rotation_ptm(np.pi / 2))) < 1e-9


def test_missing_crosstalk_params_rejected():
    with pytest.raises(ValueError, match="zeta"):
        crosstalk_hamiltonian(SAMPLE_B, None, None, 0.0)


# ---------------------------------------------------------------------------
# evolution


def test_decoupled_pi_pulse_is_exact():
    p = decoupled_params()
    ptm = evolve_to_ptm(p, [generator_envelope("x180", 1, p.gate_time)])
    ideal = tensor(generator_ptm("x180"), np.eye(4))
    assert np.max(np.abs(ptm - ideal)) < 1e-8


def test_zero_duration_gate_is_identity():
    p = decoupled_params(gate_time=0.0)
    assert np.allclose(evolve_to_ptm(p, []), np.eye(16))


def test_step_doubling_convergence():
    drives = [
        generator_envelope("x90", 1, SAMPLE_A.gate_time),
        generator_envelope("y180", 2, SAMPLE_A.gate_time),
    ]
    coarse = evolve_to_ptm(SAMPLE_A, drives, steps=256)
    fine = evolve_to_ptm(SAMPLE_A, drives, steps=512)
    assert np.max(np.abs(coarse - fine)) < 1e-8


def test_negated_envelope_inverts_rotation():
    p = decoupled_params()
    fwd = evolve_to_ptm(p, [generator_envelope("x90", 1, p.gate_time)])
    bwd = evolve_to_ptm(p, [generator_envelope("xm90", 1, p.gate_time)])
    assert np.max(np.abs(fwd @ bwd - np.eye(16))) < 1e-8


def test_untargeted_qubit_picks_up_residual_rotation():
    # sample-a pi/2 on qubit 1 leaves a visible trace on idle qubit 2
    ptm = evolve_to_ptm(SAMPLE_A, [generator_envelope("x90", 1, SAMPLE_A.gate_time)])
    block = ptm.reshape(4, 4, 4, 4)[0, :, 0, :]
    deviation = np.max(np.abs(block - np.eye(4)))
    assert 1e-4 < deviation < 0.5


def test_min_steps_enforced():
    with pytest.raises(ValueError):
        evolve_to_ptm(SAMPLE_A, [], steps=4)


# ---------------------------------------------------------------------------
# decoherence


def test_decoherence_identity_at_t0():
    assert np.allclose(decoherence_ptm(9.7e-6, 10.3e-6, 0.0), np.eye(4))


def test_decoherence_long_time_limit():
    ptm = decoherence_ptm(9.7e-6, 10.3e-6, 1.0)
    state = ptm @ np.array([1.0, 0.3, -0.2, -1.0])
    assert np.allclose(state, [1, 0, 0, 1], atol=1e-12)  # ground-state pole


def test_decoherence_xy_decay_value():
    ptm = decoherence_ptm(9.7e-6, 10.3e-6, 20e-9)
    expected = np.exp(-20e-9 / 10.3e-6)
    assert ptm[1, 1] == pytest.approx(expected)
    assert expected == pytest.approx(0.99806, abs=1e-5)


def test_decoherence_semigroup():
    a = decoherence_ptm(9.7e-6, 10.3e-6, 13e-9)
    b = decoherence_ptm(9.7e-6, 10.3e-6, 29e-9)
    assert np.max(np.abs(b @ a - decoherence_ptm(9.7e-6, 10.3e-6, 42e-9))) < 1e-12


def test_decoherence_rejects_bad_t2():
    with pytest.raises(ValueError):
        decoherence_ptm(1e-6, 3e-6, 1e-9)


def test_elementary_kraus_channels():
    assert np.allclose(
        ptm_from_kraus(depolarizing_kraus(0.75)), np.diag([1.0, 0, 0, 0]), atol=1e-12
    )
    r = ptm_from_kraus(amplitude_damping_kraus(0.3))
    assert r[3, 0] == pytest.approx(0.3)


# ---------------------------------------------------------------------------
# noisy gates


def test_noisy_gate_ideal():
    out = noisy_gate(Ideal(), ("x180", None))
    assert np.allclose(out, tensor(generator_ptm("x180"), np.eye(4)))


def test_noisy_gate_depolarizing_idle_pair():
    out = noisy_gate(Depolarizing(0.99), (None, None))
    assert np.allclose(out, tensor(depolarizing_ptm(0.99), depolarizing_ptm(0.99)))


def test_noisy_gate_joint_depolarizing():
    out = noisy_gate(Depolarizing(0.97, joint=True), (None, None))
    assert np.allclose(out, depolarizing_ptm(0.97, 2))


def test_noisy_gate_crosstalk_error_factor():
    gateset = NoisyGateSet(CrossTalk(SAMPLE_A))
    gate = ("x90", None)
    lam = gateset.error_factor(gate)
    assert is_trace_preserving(lam, atol=1e-9)
    deviation = np.max(np.abs(lam - np.eye(16)))
    assert 0 < deviation < 0.5  # near-identity coherent error


def test_noisy_gate_composite_order():
    dep = Depolarizing(0.9)
    static = StaticError(zz_rotation_ptm(0.2))
    combined = noisy_gate(Composite((dep, static)), (None, None))
    expected = zz_rotation_ptm(0.2) @ noisy_gate(dep, (None, None))
    assert np.allclose(combined, expected)


def test_noisy_gate_unknown_generator():
    with pytest.raises(ValueError):
        noisy_gate(Ideal(), ("hadamard", None))


def test_crosstalk_reduces_to_ideal_without_couplings():
    gateset = NoisyGateSet(CrossTalk(decoupled_params()))
    for gate in (("x90", "y90"), ("x180", None), (None, "ym90")):
        assert np.max(np.abs(gateset.channel(gate) - ideal_gate_ptm(gate))) < 1e-8


def test_noisy_gates_trace_preserving_and_ideal_in_group():
    group = get_group("cxc")
    for model in (Ideal(), Depolarizing(0.98, 0.95), Decoherence(SAMPLE_A)):
        gateset = NoisyGateSet(model)
        for gate in (("x90", "y180"), (None, "x90"), ("ym90", None)):
            assert is_trace_preserving(gateset.channel(gate), atol=1e-9)
    ideal_set = NoisyGateSet(Ideal())
    assert group.lookup(ideal_set.channel(("x90", "y180"))) >= 0


def test_per_clifford_error_requires_gate_independence():
    with pytest.raises(ValueError):
        NoisyGateSet(CrossTalk(SAMPLE_A)).clifford_error()
    assert NoisyGateSet(Depolarizing(0.99)).clifford_error() is not None


# ---------------------------------------------------------------------------
# predictions


def test_predict_ideal_all_alphas_one():
    pred = predict_addressability(Ideal(), gamma_max_m=8)
    assert all(v == pytest.approx(1.0) for v in pred["alphas"].values())
    assert all(abs(v) < 1e-12 for v in pred["gate_errors"].values())


def test_predict_depolarizing_per_clifford_rate():
    # one depolarizing channel per Clifford: r_{1|2} = (1 - alpha) / 2
    pred = predict_addressability(
        Depolarizing(0.99), gamma_max_m=4, granularity="clifford"
    )
    assert pred["gate_errors"]["r1_given_2"] == pytest.approx(0.005)
    assert pred["delta_r"]["dr1_given_2"] == pytest.approx(0.0, abs=1e-12)


def test_predict_depolarizing_per_generator_word_lengths():
    from rbaddr.cliffords import generate_c1

    lens = generate_c1().word_slot_counts()
    alpha_g = 0.999
    pred = predict_alphas(Depolarizing(alpha_g), "cxi")
    assert pred.alpha == pytest.approx(np.mean(alpha_g ** lens.astype(float)))
    out = predict_alphas(Depolarizing(alpha_g), "cxc")
    expected = np.mean(
        [alpha_g ** max(a, b) for a in lens for b in lens]
    )
    assert out.alphas["alpha_1_2"] == pytest.approx(expected)


def test_predict_crosstalk_sample_a_magnitudes():
    pred = predict_addressability(CrossTalk(SAMPLE_A), gamma_max_m=8)
    dr1 = pred["delta_r"]["dr1_given_2"]
    dr2 = pred["delta_r"]["dr2_given_1"]
    # same order as the measured estimates 0.0034 and 0.007
    assert 1e-3 < dr1 < 2e-2
    assert 1e-3 < dr2 < 2e-2


def test_average_error_channel_is_trace_preserving():
    lam = average_error_channel(Decoherence(SAMPLE_A), "cxc")
    assert is_trace_preserving(lam, atol=1e-9)


def test_average_error_channel_matches_element_loop():
    # reference: compose each element's slot channels, then average
    # noisy(i) @ ideal(i)^T over the group one element at a time
    gateset = NoisyGateSet(
        Composite((CrossTalk(SAMPLE_A, steps=16), Decoherence(SAMPLE_A)))
    )
    for kind in ("cxi", "ixc", "cxc"):
        group = get_group(kind)
        acc = np.zeros((16, 16))
        for e in group.elements:
            channel = np.eye(16)
            for slot in element_slots(e):
                channel = gateset.channel(slot) @ channel
            acc += channel @ e.ptm.T
        lam = average_error_channel(gateset, group)
        assert np.max(np.abs(lam - acc / len(group))) < 1e-12
    dep = Depolarizing(0.98, 0.97)
    lam = average_error_channel(dep, "cxc", "clifford")
    assert np.max(np.abs(lam - NoisyGateSet(dep).clifford_error())) < 1e-12


def test_predict_addressability_builds_each_slot_channel_once(monkeypatch):
    # one gate set serves the three group averages: the 48 generator
    # pairs of CxC include the 6 of CxI and the 6 of IxC, and each pair
    # is evolved once
    import rbaddr.noise as noise

    calls = []

    def counting(p, drives, steps):
        calls.append(tuple((d.target, d.axis, d.angle) for d in drives))
        return evolve_to_ptm(p, drives, steps)

    monkeypatch.setattr(noise, "evolve_to_ptm", counting)
    predict_addressability(CrossTalk(SAMPLE_A, steps=16), gamma_max_m=0)
    assert len(calls) == 48
    assert len(set(calls)) == 48


def test_crosstalk_simulation_consistent_with_prediction():
    # the Monte Carlo pipeline should track the leading-order analytic
    # prediction for the gate-dependent cross-talk model (seeded run)
    from rbaddr.fitting import fit_protocol_curves
    from rbaddr.protocol import RBConfig, run_protocol
    from rbaddr.report import build_report

    model = CrossTalk(SAMPLE_A)
    cfg = RBConfig(lengths=(1, 2, 4, 8, 16, 32, 64, 128), K=24, seed=31)
    report = build_report(fit_protocol_curves(run_protocol(cfg, model))["alpha_fits"])
    pred = predict_addressability(model, gamma_max_m=0)
    for uval, predicted in (
        (report.r1, pred["gate_errors"]["r1"]),
        (report.r2, pred["gate_errors"]["r2"]),
        (report.r1_given_2, pred["gate_errors"]["r1_given_2"]),
        (report.r2_given_1, pred["gate_errors"]["r2_given_1"]),
    ):
        # loose band: the prediction is only first order in the
        # gate-dependence of the coherent errors
        assert abs(uval.value - predicted) < max(3 * uval.sigma, 0.7 * predicted)
