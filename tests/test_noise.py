import math
import re
import tracemalloc

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from gate_sets import near_identity_slot_errors, pauli_slot_errors
from rbaddr import noise
from rbaddr.cliffords import (
    GENERATOR_ANGLES,
    _canonical,
    element_slots,
    generator_ptm,
    get_group,
)
from rbaddr.noise import (
    DEFAULT_GATE_TIME,
    EVOLVE_CHUNK_STEPS,
    GATE_ALPHABET,
    MAX_EVOLVE_STEPS,
    SAMPLE_A,
    SAMPLE_B,
    SLOTS,
    Composite,
    CrossTalk,
    Decoherence,
    Depolarizing,
    DeviceParams,
    Ideal,
    NoisyGateSet,
    StaticError,
    average_error_channel,
    decoherence_ptm,
    evolve_to_ptm,
    evolve_to_ptms,
    predict_addressability,
    predict_alphas,
    zz_rotation_ptm,
    _drive_samples,
    _drive_terms,
    _envelope_shape,
    _hamiltonian_samples,
    _shape_integral,
    _ideal_slot_ptms,
    _distinct_rows,
    _slot_positions,
    _slot_roots,
    _slot_rows,
    _term_operators,
)
from rbaddr.paulis import (
    cptp_diagnostic,
    depolarizing_ptm,
    pauli_matrices,
    ptm_from_kraus,
    tensor,
)
from rbaddr.verify import (
    check_evolution_convergence,
    check_idle_zz_phase,
    check_zz_conjugation,
    random_cptp_ptm,
)

TWO_PI = 2 * np.pi


def ideal_gate_ptm(gate):
    """PTM of one generator slot (idle = identity) on two qubits, one kron
    per slot: the reference for the gate set's stacked ideal PTMs."""
    g1, g2 = gate
    return np.kron(generator_ptm(g1) if g1 else np.eye(4), generator_ptm(g2) if g2 else np.eye(4))


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
    for p, detuning in ((SAMPLE_A, -65.9e6), (SAMPLE_B, -579.1e6)):
        assert p.omega1 - p.omega2 == pytest.approx(TWO_PI * detuning, rel=1e-3)
    SAMPLE_A.require_crosstalk()
    with pytest.raises(ValueError) as err:
        SAMPLE_B.require_crosstalk()
    assert str(err.value) == (
        "cross-talk model needs parameters: zeta, m12, m21, mu1, mu2, nu1, nu2"
    )


# ---------------------------------------------------------------------------
# envelopes


def test_envelope_calibration_integral():
    n = 200000
    dt = 24e-9 / n
    mid = (np.arange(n) + 0.5) * dt
    amps, phases = _drive_samples(24e-9, mid)
    x180, idle = GATE_ALPHABET.index("x180"), GATE_ALPHABET.index(None)
    integral = amps[x180].sum() * dt
    assert integral == pytest.approx(np.pi / 2, rel=1e-6)
    assert np.all(amps[idle] == 0.0) and phases[x180] == 0.0


def reference_shape_integral(gate_time):
    """Integral of the unit-peak envelope by composite 2-point Gauss-Legendre
    on 4096 panels, the quadrature the closed form replaced."""
    npanels = 4096
    h = gate_time / npanels
    nodes = np.array([0.5 - math.sqrt(3) / 6, 0.5 + math.sqrt(3) / 6])
    t = (np.arange(npanels)[:, None] + nodes[None, :]) * h
    return float(_envelope_shape(t, gate_time).sum() * h / 2)


def test_shape_integral_is_the_quadrature_bit_for_bit():
    # the ramps' halves cancel exactly: s(x) + s(1 - x) = 1
    rng = np.random.default_rng(31)
    gate_times = np.concatenate([
        rng.uniform(8e-9, 64e-9, 600),
        rng.uniform(18e-9, 30e-9, 600),
        np.exp(rng.uniform(math.log(1e-13), math.log(1e-2), 800)),
        [DEFAULT_GATE_TIME],
    ])
    mismatched = [
        t for t in gate_times.tolist() if _shape_integral(t) != reference_shape_integral(t)
    ]
    assert mismatched == []


def test_envelope_vanishes_outside_gate():
    amps, phases = _drive_samples(20e-9, np.array([-1e-9, 21e-9]))
    assert np.all(amps == 0.0)
    assert phases[GATE_ALPHABET.index("y90")] == np.pi / 2


# ---------------------------------------------------------------------------
# Hamiltonian structure


def hamiltonian_at(p, slot, t):
    """The engine's Hamiltonian of one generator slot at one time (rad/s)."""
    times = np.array([t])
    drive = _drive_samples(p.gate_time, times)
    return _hamiltonian_samples(p, _slot_rows([slot]), times, *drive)[0, 0]


def test_hamiltonian_zero_without_drives():
    p = decoupled_params()
    h = hamiltonian_at(p, (None, None), 0.0)
    assert np.max(np.abs(h)) == 0.0


def test_hamiltonian_spurious_drive_term():
    # with only drive 1 on, qubit 2 sees (m12 - nu1) * eps1 on IX; at one
    # period of the qubit-qubit detuning, inside the flat top, every term
    # is back in phase with the drive
    p = SAMPLE_A
    t = TWO_PI / abs(p.omega1 - p.omega2)
    h = hamiltonian_at(p, ("x90", None), t)
    eps = (np.pi / 4) / reference_shape_integral(p.gate_time)
    assert float(_envelope_shape(t, p.gate_time)) == 1.0
    labels = {"IX": 1, "XI": 4, "ZX": 13, "XZ": 7}
    assert pauli_coeff(h, labels["XI"]) == pytest.approx(eps, rel=1e-12)
    assert pauli_coeff(h, labels["IX"]) == pytest.approx((p.m12 - p.nu1) * eps)
    assert pauli_coeff(h, labels["ZX"]) == pytest.approx(-p.mu1 * eps)
    assert pauli_coeff(h, labels["XZ"]) == pytest.approx(p.m12 * p.mu2 * eps)


def test_hamiltonian_zz_term():
    p = replace(decoupled_params(), zeta=TWO_PI * 1.1e6)
    h = hamiltonian_at(p, (None, None), 3e-9)
    assert pauli_coeff(h, 15) == pytest.approx(p.zeta / 4)  # ZZ


def test_idle_zz_evolution_phase():
    # free evolution for t = pi / zeta accumulates a pi/2 ZZ rotation
    check = check_idle_zz_phase()
    assert check.passed, check.detail


def test_missing_crosstalk_params_rejected():
    with pytest.raises(ValueError, match="zeta"):
        hamiltonian_at(SAMPLE_B, (None, None), 0.0)


# ---------------------------------------------------------------------------
# evolution


def test_decoupled_pi_pulse_is_exact():
    p = decoupled_params()
    ptm = evolve_to_ptm(p, ("x180", None))
    ideal = tensor(generator_ptm("x180"), np.eye(4))
    assert np.max(np.abs(ptm - ideal)) < 1e-8


def test_zero_duration_gate_is_identity():
    p = decoupled_params(gate_time=0.0)
    assert np.allclose(evolve_to_ptm(p, (None, None)), np.eye(16))


def test_step_doubling_convergence():
    check = check_evolution_convergence(NoisyGateSet(CrossTalk(SAMPLE_A)))
    assert check.passed, check.detail


def test_negated_envelope_inverts_rotation():
    p = decoupled_params()
    fwd = evolve_to_ptm(p, ("x90", None))
    bwd = evolve_to_ptm(p, ("xm90", None))
    assert np.max(np.abs(fwd @ bwd - np.eye(16))) < 1e-8


def test_untargeted_qubit_picks_up_residual_rotation():
    # sample-a pi/2 on qubit 1 leaves a visible trace on idle qubit 2
    ptm = evolve_to_ptm(SAMPLE_A, ("x90", None))
    block = ptm.reshape(4, 4, 4, 4)[0, :, 0, :]
    deviation = np.max(np.abs(block - np.eye(4)))
    assert 1e-4 < deviation < 0.5


def test_min_steps_enforced():
    with pytest.raises(ValueError):
        evolve_to_ptm(SAMPLE_A, (None, None), steps=4)


@pytest.mark.parametrize("steps", [MAX_EVOLVE_STEPS + 1, 10**20])
def test_max_steps_enforced(steps):
    # refused before the engine samples a single drive step
    with pytest.raises(ValueError, match="16 to 65536 steps"):
        evolve_to_ptms(SAMPLE_A, SLOTS, steps=steps)
    with pytest.raises(ValueError, match="16 to 65536 steps"):
        CrossTalk(SAMPLE_A, steps=steps)


def test_depolarizing_cptp_range_edges_accepted():
    Depolarizing(-1 / 3, 1.0)
    Depolarizing(-1 / 15, joint=True)


def test_joint_depolarizing_refuses_alpha2():
    # the joint channel reads alpha1 only; an alpha2 beside it is not ignored
    with pytest.raises(ValueError, match="alpha2"):
        Depolarizing(0.99, 0.5, joint=True)
    with pytest.raises(ValueError, match="alpha2"):
        Depolarizing(0.99, 0.99, joint=True)


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


# ---------------------------------------------------------------------------
# noisy gates


def test_noisy_gate_ideal():
    out = NoisyGateSet(Ideal()).channel(("x180", None))
    assert np.allclose(out, tensor(generator_ptm("x180"), np.eye(4)))


def test_noisy_gate_depolarizing_idle_pair():
    # qubit 2 idles, and its line still depolarizes
    slot = ("x90", None)
    out = NoisyGateSet(Depolarizing(0.99)).channel(slot)
    static = tensor(depolarizing_ptm(0.99), depolarizing_ptm(0.99))
    assert np.allclose(out, static @ ideal_gate_ptm(slot))


def test_noisy_gate_joint_depolarizing():
    slot = ("ym90", "y180")
    out = NoisyGateSet(Depolarizing(0.97, joint=True)).channel(slot)
    assert np.allclose(out, depolarizing_ptm(0.97, 2) @ ideal_gate_ptm(slot))


def test_noisy_gate_crosstalk_error_factor():
    gateset = NoisyGateSet(CrossTalk(SAMPLE_A))
    gate = ("x90", None)
    lam = gateset.error_factor(gate)
    assert cptp_diagnostic(lam, atol=1e-9).is_tp
    deviation = np.max(np.abs(lam - np.eye(16)))
    assert 0 < deviation < 0.5  # near-identity coherent error


def test_noisy_gate_composite_order():
    slot = ("ym90", "y180")
    dep = Depolarizing(0.9)
    static = StaticError(zz_rotation_ptm(0.2))
    combined = NoisyGateSet(Composite((dep, static))).channel(slot)
    expected = zz_rotation_ptm(0.2) @ NoisyGateSet(dep).channel(slot)
    assert np.allclose(combined, expected)


def test_noisy_gate_unknown_generator():
    with pytest.raises(ValueError):
        NoisyGateSet(Ideal()).channel(("hadamard", None))
    # no Clifford word idles both lines at once, so no gate set holds that slot
    with pytest.raises(ValueError, match="unknown generator pair"):
        NoisyGateSet(Depolarizing(0.99)).channel((None, None))
    # a slot that is not a pair of names is refused the same way, a list too
    gateset = NoisyGateSet(Ideal())
    for slot in (["x90", None], ("x90", ["y90"]), ("x90",), ("x90", "hadamard")):
        for lookup in (gateset.channel, gateset.error_factor):
            with pytest.raises(ValueError, match="unknown generator pair"):
                lookup(slot)


def test_error_factor_is_the_slot_channel_over_the_ideal_gate():
    # ideal slot PTMs are signed permutations, so undoing them is exact
    gateset = NoisyGateSet(Composite((CrossTalk(SAMPLE_A, steps=16), Decoherence(SAMPLE_A))))
    for slot in SLOTS:
        lam = gateset.error_factor(slot)
        assert np.array_equal(lam @ ideal_gate_ptm(slot), gateset.channel(slot)), slot


def test_crosstalk_reduces_to_ideal_without_couplings():
    gateset = NoisyGateSet(CrossTalk(decoupled_params()))
    for gate in (("x90", "y90"), ("x180", None), (None, "ym90")):
        assert np.max(np.abs(gateset.channel(gate) - ideal_gate_ptm(gate))) < 1e-8


def test_noisy_gates_trace_preserving_and_ideal_in_group():
    group = get_group("cxc")
    for model in (Ideal(), Depolarizing(0.98, 0.95), Decoherence(SAMPLE_A)):
        gateset = NoisyGateSet(model)
        for gate in (("x90", "y180"), (None, "x90"), ("ym90", None)):
            assert cptp_diagnostic(gateset.channel(gate), atol=1e-9).is_tp
    ideal_set = NoisyGateSet(Ideal())
    ideal = _canonical(ideal_set.channel(("x90", "y180")))
    assert np.count_nonzero(np.all(group.ptms == ideal, axis=(1, 2))) == 1


def test_per_clifford_error_requires_gate_independence(evolved_pairs):
    # the refusal reads the model's structure and evolves nothing; a
    # per-slot static error is gate-dependent too, alone or nested
    nested = Composite((Depolarizing(0.99), Composite((Decoherence(SAMPLE_A), CrossTalk(SAMPLE_A)))))
    per_slot = StaticError(np.broadcast_to(np.eye(16), (len(SLOTS), 16, 16)).copy())
    in_composite = Composite((Depolarizing(0.99), Composite((per_slot, Ideal()))))
    for model in (CrossTalk(SAMPLE_A), nested, per_slot, in_composite):
        with pytest.raises(ValueError, match="gate-independent"):
            NoisyGateSet(model, "clifford")
    assert evolved_pairs == []
    assert NoisyGateSet(Depolarizing(0.99), "clifford").granularity == "clifford"
    assert NoisyGateSet(StaticError(np.eye(16)), "clifford").granularity == "clifford"


@pytest.mark.parametrize("shape", [(4, 4), (16,), (47, 16, 16), (49, 16, 16), (48, 16, 4)])
def test_static_error_refuses_other_shapes(shape):
    # refused when built, not at the first product with a slot channel
    with pytest.raises(ValueError, match=re.escape(f"not {shape}")):
        StaticError(np.zeros(shape))


@pytest.mark.parametrize("decoherence", [False, True], ids=["crosstalk", "crosstalk_decoherence"])
def test_given_slot_channels_make_the_same_gate_set(decoherence):
    # the cross-talk gate set's own errors, given back per slot, rebuild its
    # slot channels and predictions bit for bit, alone and composed
    crosstalk = CrossTalk(SAMPLE_A, steps=16)
    given = StaticError(NoisyGateSet(crosstalk)._error)
    extra = (Decoherence(SAMPLE_A),) if decoherence else ()
    built, rebuilt = (NoisyGateSet(Composite((m, *extra))) for m in (crosstalk, given))
    assert rebuilt.slot_channels.tobytes() == built.slot_channels.tobytes()
    a, b = (predict_addressability(gateset, 8) for gateset in (built, rebuilt))
    for key in ("alphas", "gamma_exponential_deviation"):
        assert a[key] == b[key], key


@pytest.mark.parametrize("granularity", ["per_pulse", "Clifford", None])
def test_gate_set_refuses_unknown_granularity(granularity):
    with pytest.raises(ValueError, match="granularity must be"):
        NoisyGateSet(Ideal(), granularity)


# ---------------------------------------------------------------------------
# predictions


def test_predict_ideal_all_alphas_one():
    pred = predict_addressability(NoisyGateSet(Ideal()), gamma_max_m=8)
    assert all(v == pytest.approx(1.0) for v in pred["alphas"].values())
    assert all(abs(v) < 1e-12 for v in pred["gate_errors"].values())


def test_predict_depolarizing_per_clifford_rate():
    # one depolarizing channel per Clifford: r_{1|2} = (1 - alpha) / 2
    pred = predict_addressability(NoisyGateSet(Depolarizing(0.99), "clifford"), gamma_max_m=4)
    assert pred["gate_errors"]["r1_given_2"] == pytest.approx(0.005)
    assert pred["delta_r"]["dr1_given_2"] == pytest.approx(0.0, abs=1e-12)


def test_predict_depolarizing_per_generator_word_lengths():
    from rbaddr.cliffords import generate_c1

    lens = np.array([len(word) for (word,) in generate_c1().words])
    alpha_g = 0.999
    gateset = NoisyGateSet(Depolarizing(alpha_g))
    pred = predict_alphas(gateset, "cxi")
    assert pred.alphas["alpha_1"] == pytest.approx(np.mean(alpha_g ** lens.astype(float)))
    out = predict_alphas(gateset, "cxc")
    expected = np.mean(
        [alpha_g ** max(a, b) for a in lens for b in lens]
    )
    assert out.alphas["alpha_1_2"] == pytest.approx(expected)


def test_predict_crosstalk_sample_a_magnitudes():
    pred = predict_addressability(NoisyGateSet(CrossTalk(SAMPLE_A)), gamma_max_m=8)
    dr1 = pred["delta_r"]["dr1_given_2"]
    dr2 = pred["delta_r"]["dr2_given_1"]
    # same order as the measured estimates 0.0034 and 0.007
    assert 1e-3 < dr1 < 2e-2
    assert 1e-3 < dr2 < 2e-2


def test_average_error_channel_is_trace_preserving():
    lam = average_error_channel(NoisyGateSet(Decoherence(SAMPLE_A)), get_group("cxc"))
    assert cptp_diagnostic(lam, atol=1e-9).is_tp


def reference_element_table(gateset, group):
    """Per element, its word's slot channels composed one at a time."""
    channels = []
    for words in group.words:
        channel = np.eye(16)
        for slot in element_slots(words):
            channel = gateset.channel(slot) @ channel
        channels.append(channel)
    return np.stack(channels)


@pytest.mark.parametrize(
    "model",
    [Depolarizing(0.98, 0.97)]
    + [
        Composite((CrossTalk(p, steps=16), Decoherence(p)))
        for p in (SAMPLE_A.with_gate_time(t * 1e-9) for t in (8, 24, 64))
    ],
    ids=["depolarizing", "crosstalk_8ns", "crosstalk_24ns", "crosstalk_64ns"],
)
def test_element_table_matches_per_element_loop(model):
    # identity padding of the shorter words is exact, so the match is too
    assert_element_table_matches_per_element_loop(NoisyGateSet(model))


@given(error=near_identity_slot_errors())
@settings(max_examples=20, deadline=None)
def test_element_table_matches_per_element_loop_on_random_gate_sets(error):
    assert_element_table_matches_per_element_loop(NoisyGateSet(error))


def assert_element_table_matches_per_element_loop(gateset):
    for kind in ("cxi", "ixc", "cxc"):
        group = get_group(kind)
        table = gateset.element_table(group)
        assert np.array_equal(table, reference_element_table(gateset, group)), kind


@pytest.mark.parametrize(
    "model",
    [
        Depolarizing(0.98, 0.97),
        Composite((Depolarizing(0.97, 0.95), StaticError(zz_rotation_ptm(0.2)))),
        StaticError(np.random.default_rng(8).normal(size=(16, 16))),
    ],
    ids=["depolarizing", "zz_rotation", "dense"],
)
def test_clifford_element_table_matches_per_element_loop(model):
    # one stacked product over group.ptms, bit for bit the per-element one;
    # the error channel per Clifford is the one every slot gets
    gateset = NoisyGateSet(model, "clifford")
    error = gateset.error_factor(("x90", None))
    for kind in ("cxi", "ixc", "cxc"):
        group = get_group(kind)
        table = gateset.element_table(group)
        reference = np.stack([error @ ptm for ptm in group.ptms])
        assert np.array_equal(table, reference), kind


# A Pauli channel on each qubit: diagonal in the Pauli basis, so every
# element channel it makes is a monomial matrix
_PAULI_DIAGONAL = np.diag(np.kron([1.0, 0.9, 0.9, 1.0], [1.0, 0.8, 0.75, 0.9]))

_MONOMIAL_MODELS = {
    "ideal": (Ideal(), "generator"),
    "depolarizing": (Depolarizing(0.97, 0.95), "generator"),
    "alpha_zero": (Depolarizing(0.0), "generator"),
    "alpha1_lower_bound": (Depolarizing(-1 / 3, 0.95), "generator"),
    "joint_lower_bound": (Depolarizing(-1 / 15, joint=True), "generator"),
    "per_clifford": (Depolarizing(0.97, 0.95), "clifford"),
    "pauli_diagonal": (StaticError(_PAULI_DIAGONAL), "generator"),
    "composite_per_clifford": (
        Composite((Depolarizing(0.99), StaticError(_PAULI_DIAGONAL), Ideal())),
        "clifford",
    ),
    "alpha_zero_per_clifford": (Depolarizing(0.0), "clifford"),
    "pauli_diagonal_zeros": (
        StaticError(np.diag(np.kron([1.0, 0.0, -0.5, 1.0], [1.0, 0.8, 0.0, -0.9]))),
        "generator",
    ),
}


def test_ideal_slot_ptms_are_the_kron_bits():
    ideal = _ideal_slot_ptms()
    assert ideal[0].tobytes() == np.eye(16).tobytes()  # the identity pad
    reference = np.stack([ideal_gate_ptm(slot) for slot in SLOTS])
    assert ideal[1:].tobytes() == reference.tobytes()  # -0.0 entries included


@pytest.mark.parametrize("kind", ["cxi", "ixc", "cxc"])
def test_slot_positions_follow_element_slots(kind):
    group = get_group(kind)
    positions = _slot_positions(kind)
    assert positions.shape == (len(group), max(len(element_slots(w)) for w in group.words))
    for words, row in zip(group.words, positions):
        slots = [SLOTS.index(slot) + 1 for slot in element_slots(words)]
        assert row.tolist() == slots + [0] * (len(row) - len(slots))


@pytest.mark.parametrize("model, granularity", _MONOMIAL_MODELS.values(), ids=_MONOMIAL_MODELS)
def test_monomial_table_holds_each_row_one_entry(model, granularity):
    assert_monomial_table_holds_each_row_one_entry(NoisyGateSet(model, granularity))


@given(error=pauli_slot_errors())
@settings(max_examples=25, deadline=None)
def test_monomial_table_holds_each_row_one_entry_under_per_slot_pauli_channels(error):
    assert_monomial_table_holds_each_row_one_entry(NoisyGateSet(error))


def assert_monomial_table_holds_each_row_one_entry(gateset):
    for kind in ("cxi", "ixc", "cxc"):
        group = get_group(kind)
        table = gateset.element_table(group)
        factor = gateset.monomial_table(group)
        assert factor is not None, kind
        assert gateset.monomial_table(group) is factor  # cached per group
        source = np.argsort(group.targets, axis=1)
        assert factor.shape == (len(group), 16)
        read = np.take_along_axis(table, source[..., None], axis=2)[..., 0]
        assert factor.tobytes() == read.tobytes(), kind  # signs of zero included
        rebuilt = np.zeros_like(table)
        np.put_along_axis(rebuilt, source[..., None], factor[..., None], axis=2)
        assert np.array_equal(rebuilt, table), kind  # every other entry is 0
        # a Pauli's source is where the ideal element takes it from
        assert np.array_equal(source, np.argmax(group.ptms != 0, axis=2)), kind


def test_per_clifford_tables_evaluate_the_error_channel_once(monkeypatch):
    # all six tables, dense and monomial for the three groups, read one E
    real = noise._slot_errors
    calls = []

    def counting(model):
        calls.append(model)
        return real(model)

    monkeypatch.setattr(noise, "_slot_errors", counting)
    gateset = NoisyGateSet(Depolarizing(0.97, 0.95), "clifford")
    for kind in ("cxi", "ixc", "cxc"):
        group = get_group(kind)
        gateset.element_table(group)
        factor = gateset.monomial_table(group)
        assert isinstance(factor, np.ndarray) and factor.shape == (len(group), 16), kind
        assert not factor.flags.writeable, kind
    assert calls == [gateset.model]


_CROSSTALK_16 = CrossTalk(SAMPLE_A, steps=16)
# Pauli-diagonal on 47 slots, one off-diagonal entry on the 48th
_ONE_SLOT_OFF_DIAGONAL = np.broadcast_to(_PAULI_DIAGONAL, (len(SLOTS), 16, 16)).copy()
_ONE_SLOT_OFF_DIAGONAL[-1, 1, 2] = 1e-3


@pytest.mark.parametrize(
    "model, granularity",
    [
        (Decoherence(SAMPLE_A), "generator"),
        (Decoherence(SAMPLE_A), "clifford"),
        (_CROSSTALK_16, "generator"),
        (StaticError(zz_rotation_ptm(0.2)), "generator"),
        (Composite((Depolarizing(0.97, 0.95), StaticError(zz_rotation_ptm(0.2)))), "clifford"),
        (Composite((Depolarizing(0.99), Decoherence(SAMPLE_A))), "generator"),
        (Composite((Ideal(), _CROSSTALK_16)), "generator"),
        # monomial element channels, but Paulis land off their ideal targets
        (StaticError(ideal_gate_ptm(("x90", None))), "generator"),
        (StaticError(ideal_gate_ptm(("x90", "y180"))), "clifford"),
        (StaticError(_ONE_SLOT_OFF_DIAGONAL), "generator"),
    ],
    ids=["decoherence", "decoherence_per_clifford", "crosstalk", "zz_rotation",
         "depolarizing_zz_rotation", "depolarizing_decoherence", "ideal_crosstalk",
         "pauli_permuting", "pauli_permuting_per_clifford", "one_slot_off_diagonal"],
)
def test_monomial_table_is_none_for_mixing_or_non_unital_noise(model, granularity):
    gateset = NoisyGateSet(model, granularity)
    for kind in ("cxi", "ixc", "cxc"):
        assert gateset.monomial_table(get_group(kind)) is None, kind


def test_average_error_channel_matches_element_loop():
    # reference: compose each element's slot channels, then average
    # noisy(i) @ ideal(i)^T over the group one element at a time
    gateset = NoisyGateSet(
        Composite((CrossTalk(SAMPLE_A, steps=16), Decoherence(SAMPLE_A)))
    )
    for kind in ("cxi", "ixc", "cxc"):
        group = get_group(kind)
        acc = np.zeros((16, 16))
        for ptm, channel in zip(group.ptms, reference_element_table(gateset, group)):
            acc += channel @ ptm.T
        lam = average_error_channel(gateset, group)
        assert np.max(np.abs(lam - acc / len(group))) < 1e-12
    gateset = NoisyGateSet(Depolarizing(0.98, 0.97), "clifford")
    lam = average_error_channel(gateset, get_group("cxc"))
    assert np.max(np.abs(lam - gateset.error_factor(("x90", None)))) < 1e-12


def einsum_average(gateset, group):
    """The whole-table average that the streamed one replaced: one einsum
    over the group's element table."""
    return np.einsum("gij,gkj->ik", gateset.element_table(group), group.ptms) / len(group)


def assert_streamed_average_is_the_table_einsum(gateset):
    # per Clifford every element's error is the gate set's one error channel
    groups = [get_group(kind) for kind in ("cxi", "ixc", "cxc")]
    streamed = [average_error_channel(gateset, group) for group in groups]
    assert not gateset._tables  # no element table was built
    for group, lam in zip(groups, streamed):
        if gateset.granularity == "clifford":
            assert lam.tobytes() == gateset._error.tobytes(), group.kind
        else:
            assert lam.tobytes() == einsum_average(gateset, group).tobytes(), group.kind


_RANDOM_CPTP = StaticError(random_cptp_ptm(2, np.random.default_rng(35)))
_SAMPLE_A_AVERAGES = {
    "ideal": (Ideal(), "generator"),
    "ideal_per_clifford": (Ideal(), "clifford"),
    "depolarizing": (Depolarizing(0.99, 0.98), "generator"),
    "depolarizing_per_clifford": (Depolarizing(0.99, 0.98), "clifford"),
    "joint_depolarizing": (Depolarizing(0.97, joint=True), "generator"),
    "joint_depolarizing_per_clifford": (Depolarizing(0.97, joint=True), "clifford"),
    "decoherence": (Decoherence(SAMPLE_A), "generator"),
    "decoherence_per_clifford": (Decoherence(SAMPLE_A), "clifford"),
    "crosstalk": (CrossTalk(SAMPLE_A, steps=16), "generator"),
    "crosstalk_decoherence": (
        Composite((CrossTalk(SAMPLE_A, steps=16), Decoherence(SAMPLE_A))), "generator"),
    "random_cptp": (_RANDOM_CPTP, "generator"),
    "random_cptp_per_clifford": (_RANDOM_CPTP, "clifford"),
}


@pytest.mark.parametrize("model, granularity", _SAMPLE_A_AVERAGES.values(), ids=_SAMPLE_A_AVERAGES)
def test_streamed_average_is_the_table_einsum(model, granularity):
    # every error noisy(i) @ ideal(i)^T is exact, and the chunks' errors are
    # summed one at a time in element order, as the einsum sums them
    assert_streamed_average_is_the_table_einsum(NoisyGateSet(model, granularity))


@given(error=st.one_of(near_identity_slot_errors(), pauli_slot_errors()))
@settings(max_examples=20, deadline=None)
def test_streamed_average_is_the_table_einsum_on_random_gate_sets(error):
    assert_streamed_average_is_the_table_einsum(NoisyGateSet(error))


@pytest.mark.parametrize(
    "model, granularity",
    [(CrossTalk(SAMPLE_A, steps=16), "generator"), (Decoherence(SAMPLE_A), "clifford")],
    ids=["crosstalk", "decoherence_per_clifford"],
)
def test_predict_alphas_peaks_below_a_dense_table(model, granularity):
    # the CxC average is summed from one chunk buffer, so a prediction never
    # holds the (576, 16, 16) stack of the group's channels (1.18 MB); the
    # whole-table einsum peaked at 1.44 MB per generator
    gateset = NoisyGateSet(model, granularity)
    get_group("cxc"), _slot_positions("cxc")  # cached, outside the trace
    gateset.slot_channels, gateset._error  # the channels, outside the trace
    tracemalloc.start()
    try:
        predict_alphas(gateset, "cxc")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 576 * 16 * 16 * 8
    assert not gateset._tables


_PAIRS = st.tuples(st.sampled_from(GATE_ALPHABET), st.sampled_from(GATE_ALPHABET))


def assert_distinct_rows_are_np_unique(rows):
    distinct, which = _distinct_rows(rows)
    reference, inverse = np.unique(rows, axis=0, return_inverse=True)
    assert distinct.dtype == reference.dtype and np.array_equal(distinct, reference)
    assert np.array_equal(which, inverse.reshape(-1))


def test_distinct_slot_roots_are_np_unique():
    roots, _ = _slot_roots(_slot_rows(SLOTS))
    assert len(_distinct_rows(roots)[0]) == 36
    assert_distinct_rows_are_np_unique(roots)


@given(slots=st.lists(_PAIRS, min_size=1, max_size=60))
@settings(max_examples=50, deadline=None)
def test_distinct_roots_of_random_slot_lists_are_np_unique(slots):
    rows = _slot_rows(slots)
    assert_distinct_rows_are_np_unique(rows)
    assert_distinct_rows_are_np_unique(_slot_roots(rows)[0])


def assert_one_batch_of_all_slots(batches):
    assert len(batches) == 1
    assert len(batches[0]) == len(set(batches[0])) == 48


def test_predict_addressability_builds_each_slot_channel_once(evolved_pairs, workers):
    # one gate set serves the three group averages, and its 48 slots are
    # evolved in one batch, in the parent even when the engine forks
    workers(2)
    predict_addressability(NoisyGateSet(CrossTalk(SAMPLE_A, steps=16)), gamma_max_m=0)
    assert_one_batch_of_all_slots(evolved_pairs)


def test_run_protocol_builds_each_slot_channel_once(evolved_pairs, workers):
    from rbaddr.protocol import RBConfig, run_protocol

    # the parent builds the slot channels before the propagation forks
    workers(2)
    gateset = NoisyGateSet(CrossTalk(SAMPLE_A, steps=16))
    run_protocol(RBConfig(lengths=(1, 2), K=2, seed=3), gateset)
    assert_one_batch_of_all_slots(evolved_pairs)


def test_single_qubit_table_builds_every_slot_channel(evolved_pairs):
    # CxI plays 6 of the slots, and the gate set still builds all 48 at once
    gateset = NoisyGateSet(CrossTalk(SAMPLE_A, steps=16))
    gateset.element_table(get_group("cxi"))
    gateset.element_table(get_group("cxc"))
    assert_one_batch_of_all_slots(evolved_pairs)


# ---------------------------------------------------------------------------
# the batched Magnus engine against the per-pair, per-step loop it replaced


def reference_evolve_unitary(p, slot, steps):
    """One slot integrated directly, one Magnus step at a time, in the
    engine's arithmetic order."""
    if p.gate_time == 0.0:
        return np.eye(4, dtype=complex)
    static = (p.zeta / 4 * pauli_matrices(2)[15]).astype(complex)
    terms = []
    for which, name in ((1, slot[0]), (2, slot[1])):
        if name is None:
            continue
        axis, angle = GENERATOR_ANGLES[name]
        peak = (angle / 2) / reference_shape_integral(p.gate_time)
        omega_drive = p.omega1 if which == 1 else p.omega2
        phi0 = 0.0 if axis == "x" else np.pi / 2
        for coeff, target, cond in _drive_terms(p, which):
            omega_frame = p.omega1 if target == 1 else p.omega2
            terms.append(
                (peak, coeff, omega_drive - omega_frame, phi0, *_term_operators(target, cond))
            )

    def hamiltonians(times):
        out = np.broadcast_to(static, (len(times), 4, 4)).copy()
        for peak, coeff, delta, phi0, mx, my in terms:
            phase = delta * times + phi0
            weight = coeff * (peak * _envelope_shape(times, p.gate_time))
            out += (weight * np.cos(phase))[:, None, None] * mx
            out += (weight * np.sin(phase))[:, None, None] * my
        return out

    h = p.gate_time / steps
    starts = np.arange(steps) * h
    b_lo = -1j * hamiltonians(starts + (0.5 - math.sqrt(3) / 6) * h)
    b_hi = -1j * hamiltonians(starts + (0.5 + math.sqrt(3) / 6) * h)
    u = np.eye(4, dtype=complex)
    for b1, b2 in zip(b_lo, b_hi):
        omega = (h / 2) * (b1 + b2) + (math.sqrt(3) * h * h / 12) * (b2 @ b1 - b1 @ b2)
        w, v = np.linalg.eigh(1j * omega)
        u = ((v * np.exp(-1j * w)) @ v.conj().T) @ u
    assert np.linalg.norm(u.conj().T @ u - np.eye(4)) < 1e-8
    return u


NEGATED = {"x90": "xm90", "xm90": "x90", "y90": "ym90", "ym90": "y90", None: None}
ALL_PAIRS = [(a, b) for a in GATE_ALPHABET for b in GATE_ALPHABET]  # SLOTS order
ZZ_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])  # the diagonal of Z (x) Z


def root_of(slot):
    """The slot the engine integrates for ``slot``: of the slot and its
    negated pair, the first in SLOTS order."""
    if not all(g in NEGATED for g in slot):
        return slot
    return min(slot, tuple(NEGATED[g] for g in slot), key=ALL_PAIRS.index)


IMAGES = [slot for slot in SLOTS if root_of(slot) != slot]


def reference_evolve_to_ptm(p, slot, steps):
    """The PTM the engine gives: the slot's root integrated directly, then,
    for an image, conjugated by Z (x) Z entry by entry."""
    root = root_of(slot)
    u = reference_evolve_unitary(p, root, steps)
    if root != slot:
        u = ZZ_SIGNS[:, None] * u * ZZ_SIGNS
    return ptm_from_kraus([u], require_tp=False)


def reference_channel(model, gate):
    """Noisy slot channel: each factor's error in model order, then the gate."""
    ideal = ideal_gate_ptm(gate)

    def error(m):
        if isinstance(m, CrossTalk):
            return reference_evolve_to_ptm(m.params, gate, m.steps) @ ideal.T
        if isinstance(m, Composite):
            out = np.eye(16)
            for f in m.factors:
                out = error(f) @ out
            return out
        return NoisyGateSet(m).error_factor(gate)  # gate-independent

    return error(model) @ ideal


def assert_gate_set_matches_reference(model):
    gateset = NoisyGateSet(model)
    for gate in SLOTS:
        assert np.array_equal(gateset.channel(gate), reference_channel(model, gate)), gate


@pytest.mark.parametrize("gate_time_ns", [8, 24, 64])
@pytest.mark.parametrize("steps", [16, 256])
def test_gate_set_matches_per_pair_reference(gate_time_ns, steps):
    # the arithmetic order per pair is unchanged, so the match is exact
    assert_gate_set_matches_reference(CrossTalk(SAMPLE_A.with_gate_time(gate_time_ns * 1e-9), steps))


@pytest.mark.parametrize(
    "model",
    [
        Composite((CrossTalk(SAMPLE_A, steps=16), Decoherence(SAMPLE_A))),
        Composite((Decoherence(SAMPLE_A), Depolarizing(0.99, 0.98), CrossTalk(SAMPLE_A, steps=16))),
        Composite((
            Depolarizing(0.99),
            Composite((CrossTalk(SAMPLE_A, steps=16), StaticError(zz_rotation_ptm(0.1)))),
            Decoherence(SAMPLE_A),
        )),
    ],
    ids=["crosstalk_decoherence", "decoherence_depolarizing_crosstalk", "nested"],
)
def test_composite_gate_set_matches_reference(model):
    # gate-independent factors multiply the per-slot errors as one channel
    assert_gate_set_matches_reference(model)


ENGINE_SLOT_LISTS = {
    "1slot": SLOTS[-1:],
    "5slots": SLOTS[-5:],
    "48slots": SLOTS,
    "mixed": (("y90", "x180"), (None, None), ("x90", None), ("y90", "x180"), (None, "ym90")),
}


@pytest.mark.parametrize("slots", ENGINE_SLOT_LISTS.values(), ids=ENGINE_SLOT_LISTS.keys())
@pytest.mark.parametrize(
    "steps",
    [16, 37, 2 * EVOLVE_CHUNK_STEPS - 1, EVOLVE_CHUNK_STEPS + 1, 2 * EVOLVE_CHUNK_STEPS, 256],
)
def test_engine_chunk_boundaries(steps, slots):
    # step counts that end one step short of, one past and on a chunk
    # boundary (one short of the first is below MIN_EVOLVE_STEPS); batches
    # in any order, with repeats and free evolution
    ptms = evolve_to_ptms(SAMPLE_A, slots, steps=steps)
    assert ptms.shape == (len(slots), 16, 16)
    for ptm, slot in zip(ptms, slots):
        assert np.array_equal(ptm, reference_evolve_to_ptm(SAMPLE_A, slot, steps)), slot


couplings = st.sampled_from([0.0, -0.0]) | st.floats(-0.4, 0.4)
RANDOM_DEVICES = dict(
    zeta_mhz=st.sampled_from([0.0, -0.0]) | st.floats(-3.0, 3.0),
    m12=couplings, m21=couplings, mu1=couplings, mu2=couplings, nu1=couplings, nu2=couplings,
    gate_time_ns=st.floats(8.0, 64.0),
    steps=st.integers(16, 80),
)


def random_device(zeta_mhz, m12, m21, mu1, mu2, nu1, nu2, gate_time_ns):
    return replace(
        SAMPLE_A, zeta=TWO_PI * 1e6 * zeta_mhz, m12=m12, m21=m21, mu1=mu1, mu2=mu2,
        nu1=nu1, nu2=nu2, gate_time=gate_time_ns * 1e-9,
    )


@given(**RANDOM_DEVICES)
@settings(max_examples=20, deadline=None)
def test_engine_matches_reference_on_random_devices(
    zeta_mhz, m12, m21, mu1, mu2, nu1, nu2, gate_time_ns, steps
):
    # the terms each slot shares with others sum in the per-slot order:
    # ZZ shifts of either sign, zero (of either sign) and negative couplings
    p = random_device(zeta_mhz, m12, m21, mu1, mu2, nu1, nu2, gate_time_ns)
    ptms = evolve_to_ptms(p, SLOTS, steps)
    for ptm, slot in zip(ptms, SLOTS):
        assert np.array_equal(ptm, reference_evolve_to_ptm(p, slot, steps)), slot


@given(**RANDOM_DEVICES)
@settings(max_examples=20, deadline=None)
def test_derived_images_match_direct_integration_on_random_devices(
    zeta_mhz, m12, m21, mu1, mu2, nu1, nu2, gate_time_ns, steps
):
    # bit for bit where no slot Hamiltonian has a degenerate spectrum; with
    # couplings exactly zero LAPACK's eigenvectors are not sign-equivariant
    # and the two differ in the last bits
    p = random_device(zeta_mhz, m12, m21, mu1, mu2, nu1, nu2, gate_time_ns)
    ptms = evolve_to_ptms(p, IMAGES, steps)
    for ptm, slot in zip(ptms, IMAGES):
        direct = ptm_from_kraus([reference_evolve_unitary(p, slot, steps)], require_tp=False)
        assert np.max(np.abs(ptm - direct)) <= 1e-13, slot


@pytest.mark.parametrize("gate_time_ns", [8, 18, 24, 41.7, 64])
@pytest.mark.parametrize("steps", [17, 64, 256])
def test_derived_images_equal_direct_integration_on_sample_a(gate_time_ns, steps):
    gateset = NoisyGateSet(CrossTalk(SAMPLE_A.with_gate_time(gate_time_ns * 1e-9), steps))
    check = check_zz_conjugation(gateset)
    assert check.passed, check.detail


def test_an_image_asked_for_alone_is_derived_from_its_root():
    # without couplings, where a derived image and direct integration may
    # differ in the last bits, every image alone is its row of the batch
    p = decoupled_params(gate_time=8e-9)
    batch = evolve_to_ptms(p, SLOTS, 16)
    assert len(IMAGES) == 12
    for slot in IMAGES:
        assert np.array_equal(evolve_to_ptm(p, slot, 16), batch[SLOTS.index(slot)]), slot


def test_engine_integrates_the_36_roots_of_the_48_slots(workers, monkeypatch):
    import rbaddr.noise as noise

    workers(1)  # every share in this process, where the patch counts it
    integrated = []
    engine = noise._evolve_rows

    def counting(p, rows, steps):
        integrated.extend(tuple(GATE_ALPHABET[g] for g in row) for row in rows)
        return engine(p, rows, steps)

    monkeypatch.setattr(noise, "_evolve_rows", counting)
    evolve_to_ptms(SAMPLE_A, SLOTS, 16)
    assert len(integrated) == 36
    assert set(integrated) == {root_of(slot) for slot in SLOTS}


# tracemalloc peak of evolving the 48 slots of the sample-a gate set four
# slots at a time through all 256 steps, the engine that time chunks replaced
BLOCK_ENGINE_PEAK_BYTES = 2_311_848


def test_engine_memory_peak_stays_below_the_block_engine(workers):
    workers(1)  # the whole engine in this process, where tracemalloc sees it
    evolve_to_ptms(SAMPLE_A, SLOTS)  # fill the per-process caches first
    tracemalloc.start()
    try:
        evolve_to_ptms(SAMPLE_A, SLOTS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= BLOCK_ENGINE_PEAK_BYTES


# Beyond the table it returns, an element-table build holds one chunk's
# gathered channels and the copy of the chunk that an in-place product
# makes; the margin is three chunks.  Whole-group products peaked at
# 3.54 MB for the sample-a CxC table.
TABLE_BUILD_MARGIN_BYTES = 3 * noise.TABLE_CHUNK_ELEMENTS * 16 * 16 * 8


@pytest.mark.parametrize(
    "model, granularity",
    [(CrossTalk(SAMPLE_A, steps=16), "generator"), (Decoherence(SAMPLE_A), "clifford")],
    ids=["crosstalk", "decoherence_per_clifford"],
)
def test_element_table_build_peaks_at_the_table_plus_a_margin(model, granularity):
    gateset = NoisyGateSet(model, granularity)
    group = get_group("cxc")
    gateset.slot_channels, gateset._error  # the channels, outside the build
    tracemalloc.start()
    try:
        table = gateset.element_table(group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.nbytes == 576 * 16 * 16 * 8
    assert peak <= table.nbytes + TABLE_BUILD_MARGIN_BYTES


@pytest.mark.parametrize(
    "model, granularity, monomial",
    [
        (Depolarizing(0.99), "clifford", True),
        (Decoherence(SAMPLE_A), "clifford", False),
        (Depolarizing(0.99), "generator", True),
    ],
    ids=["depolarizing", "decoherence", "depolarizing_per_generator"],
)
def test_per_clifford_monomial_table_peaks_below_a_dense_table(model, granularity, monomial):
    # The channels are composed a chunk of elements at a time into one
    # reused buffer, so the build never holds a dense (576, 16, 16) stack of
    # the group's channels (1.18 MB); per Clifford, the whole-group product
    # and its mask gather peaked at 2.44 MB.
    gateset = NoisyGateSet(model, granularity)
    group = get_group("cxc")
    gateset.slot_channels, gateset._error  # the channels, outside the build
    tracemalloc.start()
    try:
        factor = gateset.monomial_table(group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (factor is not None) == monomial
    assert peak < 576 * 16 * 16 * 8


@pytest.mark.parametrize(
    "slot", [("x90",), ("x45", None), ("x90", None, None), ["x90", None], "x9", (None, "idle")]
)
def test_engine_rejects_a_slot_that_is_no_generator_pair(slot):
    message = re.escape(f"unknown generator pair {slot!r}")
    with pytest.raises(ValueError, match=message):
        evolve_to_ptm(SAMPLE_A, slot, steps=16)
    with pytest.raises(ValueError, match=message):
        evolve_to_ptms(SAMPLE_A, [("x90", None), slot], steps=16)


def test_crosstalk_simulation_consistent_with_prediction():
    # the Monte Carlo pipeline should track the leading-order analytic
    # prediction for the gate-dependent cross-talk model (seeded run)
    from rbaddr.fitting import fit_protocol_curves
    from rbaddr.protocol import RBConfig, run_protocol
    from rbaddr.report import build_report

    gateset = NoisyGateSet(CrossTalk(SAMPLE_A))
    cfg = RBConfig(lengths=(1, 2, 4, 8, 16, 32, 64, 128), K=24, seed=31)
    report = build_report(fit_protocol_curves(run_protocol(cfg, gateset))["alpha_fits"])
    pred = predict_addressability(gateset, gamma_max_m=0)
    for uval, predicted in (
        (report.r1, pred["gate_errors"]["r1"]),
        (report.r2, pred["gate_errors"]["r2"]),
        (report.r1_given_2, pred["gate_errors"]["r1_given_2"]),
        (report.r2_given_1, pred["gate_errors"]["r2_given_1"]),
    ):
        # loose band: the prediction is only first order in the
        # gate-dependence of the coherent errors
        assert abs(uval.value - predicted) < max(3 * uval.sigma, 0.7 * predicted)
