import numpy as np
import pytest

from rbaddr.cliffords import generate_c1, get_group
from rbaddr.noise import random_cptp_ptm, zz_rotation_ptm
from rbaddr.paulis import depolarizing_ptm, ptm_from_unitary, tensor
from rbaddr.twirl import (
    IRREP_TABLES,
    SubsystemTwirlBlocks,
    brute_force_twirl,
    gamma_decay_curve,
    pauli_twirl,
    pauli_twirl_brute,
    schur_general_twirl,
    twirl_cxc,
    twirl_cxi,
    twirl_full_clifford,
)

RNG = np.random.default_rng(2012)


@pytest.fixture(scope="module")
def channels_1q():
    return [random_cptp_ptm(1, RNG) for _ in range(10)]


@pytest.fixture(scope="module")
def channels_2q():
    return [random_cptp_ptm(2, RNG, n_kraus=5) for _ in range(10)]


def test_brute_force_twirl_fixes_identity():
    for kind in ("c1",):
        assert np.allclose(brute_force_twirl(np.eye(4), get_group(kind)), np.eye(4))
    assert np.allclose(brute_force_twirl(np.eye(16), get_group("cxc")), np.eye(16))


def test_brute_force_twirl_idempotent(channels_2q):
    group = get_group("cxc")
    once = brute_force_twirl(channels_2q[0], group)
    twice = brute_force_twirl(once, group)
    assert np.max(np.abs(once - twice)) < 1e-12


def test_full_clifford_twirl_examples():
    assert twirl_full_clifford(np.eye(4)).alphas["alpha"] == pytest.approx(1.0)
    assert twirl_full_clifford(np.diag([1.0, 0, 0, 0])).alphas["alpha"] == pytest.approx(0.0)


def test_full_clifford_twirl_vs_brute_force_amplitude_damping():
    from rbaddr.paulis import ptm_from_kraus

    gamma = 0.1
    r = ptm_from_kraus([np.diag([1, np.sqrt(1 - gamma)]), np.sqrt(gamma) * np.eye(2, k=1)])
    outcome = twirl_full_clifford(r)
    assert outcome.alphas["alpha"] == pytest.approx((np.trace(r) - 1) / 3)
    brute = brute_force_twirl(r, generate_c1())
    assert np.max(np.abs(outcome.twirled - brute)) < 1e-12


def test_unitary_conjugation_twirl_alpha(channels_1q):
    # any unitary channel twirls to alpha = (Tr R - 1) / 3
    u = np.array([[np.cos(0.4), -1j * np.sin(0.4)], [-1j * np.sin(0.4), np.cos(0.4)]])
    r = ptm_from_unitary(u)
    brute = brute_force_twirl(r, generate_c1())
    expected = (np.trace(r) - 1) / 3
    assert np.allclose(brute, np.diag([1, expected, expected, expected]), atol=1e-12)


def test_oracle_all_groups(channels_1q, channels_2q):
    c1 = generate_c1()
    for r in channels_1q[:5]:
        assert np.max(np.abs(brute_force_twirl(r, c1) - twirl_full_clifford(r).twirled)) < 1e-10
        assert np.max(np.abs(pauli_twirl(r) - pauli_twirl_brute(r))) < 1e-12
        assert abs(twirl_full_clifford(r).alphas["alpha"]) <= 1 + 1e-12
    for r in channels_2q[:5]:
        outcome = twirl_cxc(r)
        assert np.max(np.abs(brute_force_twirl(r, get_group("cxc")) - outcome.twirled)) < 1e-10
        assert np.max(np.abs(brute_force_twirl(r, get_group("cxi")) - twirl_cxi(r, 1).reassembled())) < 1e-10
        assert np.max(np.abs(brute_force_twirl(r, get_group("ixc")) - twirl_cxi(r, 2).reassembled())) < 1e-10
        assert np.max(np.abs(pauli_twirl(r) - pauli_twirl_brute(r))) < 1e-12
        assert all(abs(a) <= 1 + 1e-12 for a in outcome.alphas.values())


def test_cxc_alphas_product_channel():
    a = random_cptp_ptm(1, RNG)
    b = random_cptp_ptm(1, RNG)
    outcome = twirl_cxc(tensor(a, b))
    assert abs(outcome.delta_alpha) < 1e-12
    assert outcome.alphas["alpha_12"] == pytest.approx(
        outcome.alphas["alpha_1_2"] * outcome.alphas["alpha_2_1"], abs=1e-12
    )


def test_cxc_identity_all_ones():
    outcome = twirl_cxc(np.eye(16))
    assert all(v == pytest.approx(1.0) for v in outcome.alphas.values())


def test_zz_rotation_delta_alpha():
    theta = 0.1
    outcome = twirl_cxc(zz_rotation_ptm(theta))
    # analytic block traces of the ZZ-rotation channel
    assert outcome.alphas["alpha_1_2"] == pytest.approx((1 + 2 * np.cos(theta)) / 3)
    assert outcome.alphas["alpha_12"] == pytest.approx((5 + 4 * np.cos(theta)) / 9)
    assert outcome.delta_alpha == pytest.approx(4 * np.sin(theta) ** 2 / 9)
    brute = brute_force_twirl(zz_rotation_ptm(theta), get_group("cxc"))
    assert np.max(np.abs(outcome.twirled - brute)) < 1e-10


def test_twirled_channel_commutes_with_group(channels_2q):
    group = get_group("cxc")
    twirled = twirl_cxc(channels_2q[1]).twirled
    rng = np.random.default_rng(5)
    for idx in rng.integers(0, len(group), 20):
        g = group.ptm(int(idx))
        assert np.max(np.abs(g @ twirled - twirled @ g)) < 1e-10


def test_pauli_twirl_examples():
    d = np.diag([1.0, 0.9, 0.8, 0.7])
    assert np.allclose(pauli_twirl(d), d)
    r90 = ptm_from_unitary(
        np.cos(np.pi / 4) * np.eye(2)
        - 1j * np.sin(np.pi / 4) * np.array([[0, 1], [1, 0]])
    )
    assert np.allclose(pauli_twirl(r90), np.diag([1, 1, 0, 0]), atol=1e-12)


def test_depolarizing_fixed_point_of_pauli_twirl(channels_2q):
    twirled = twirl_cxc(channels_2q[2]).twirled
    assert np.max(np.abs(pauli_twirl(twirled) - twirled)) < 1e-12


# ---------------------------------------------------------------------------
# subsystem twirl blocks


def test_cxi_product_channel_blocks():
    r = tensor(depolarizing_ptm(0.9), np.eye(4))
    blocks = twirl_cxi(r, 1)
    assert np.allclose(blocks.gamma, 0.9 * np.eye(4), atol=1e-12)
    assert np.allclose(blocks.marginal, np.eye(4), atol=1e-12)
    assert blocks.alpha == pytest.approx(0.9)


def test_cxi_identity():
    blocks = twirl_cxi(np.eye(16), 1)
    assert np.allclose(blocks.gamma, np.eye(4))


def test_gamma_leading_element_is_projector_trace(channels_2q):
    from rbaddr.paulis import project, projector_diag

    r = channels_2q[3]
    assert twirl_cxi(r, 1).alpha == pytest.approx(project(r, projector_diag("q1", 2)))
    assert twirl_cxi(r, 2).alpha == pytest.approx(project(r, projector_diag("q2", 2)))


def test_marginal_block_is_partial_trace_map():
    # the untwirled qubit's block equals the PTM of
    # rho2 -> Tr_1[ Lambda(I (x) rho2) ] / 2, built here directly from Kraus
    from rbaddr.noise import random_cptp_kraus
    from rbaddr.paulis import pauli_matrices, ptm_from_kraus

    rng = np.random.default_rng(77)
    kraus = random_cptp_kraus(2, rng, n_kraus=5)
    blocks = twirl_cxi(ptm_from_kraus(kraus), 1)
    p1 = pauli_matrices(1)
    direct = np.empty((4, 4))
    for l in range(4):
        inp = np.kron(np.eye(2), np.asarray(p1[l]))
        out = sum(k @ inp @ k.conj().T for k in kraus)
        out2 = np.trace(out.reshape(2, 2, 2, 2), axis1=0, axis2=2) / 2
        for j in range(4):
            direct[j, l] = np.trace(np.asarray(p1[j]) @ out2).real / 2
    assert np.max(np.abs(blocks.marginal - direct)) < 1e-12


# ---------------------------------------------------------------------------
# Schur decompositions


def test_schur_single_irrep_gives_trace_over_dim(channels_2q):
    r = channels_2q[4]
    single = [[list(range(16))]]
    out = schur_general_twirl(r, single)
    assert np.allclose(out, np.trace(r) / 16 * np.eye(16), atol=1e-12)


def test_schur_distinct_irreps_matches_cxc(channels_2q):
    r = channels_2q[5]
    out = schur_general_twirl(r, IRREP_TABLES["cxc"])
    assert np.max(np.abs(out - twirl_cxc(r).twirled)) < 1e-12


def test_schur_cxi_matches_brute_force_20_channels():
    group = get_group("cxi")
    rng = np.random.default_rng(31)
    for _ in range(20):
        r = random_cptp_ptm(2, rng, n_kraus=5)
        out = schur_general_twirl(r, IRREP_TABLES["cxi"])
        assert np.max(np.abs(out - brute_force_twirl(r, group))) < 1e-10


def test_schur_rejects_inconsistent_copies():
    with pytest.raises(ValueError):
        schur_general_twirl(np.eye(16), [[[0, 1], [2]]])


# ---------------------------------------------------------------------------
# gamma powers


def test_gamma_decay_scalar_block():
    blocks = SubsystemTwirlBlocks(1, np.eye(4), 0.95 * np.eye(4))
    ms = np.array([0, 1, 5, 20])
    assert np.allclose(gamma_decay_curve(blocks, ms), 0.95 ** ms.astype(float))


def test_gamma_decay_m_zero_is_one():
    gamma = np.array([[0.9, 0.01], [0.0, 0.5]])
    assert gamma_decay_curve(gamma, [0])[0] == pytest.approx(1.0)


def test_crosstalk_gamma_near_exponential():
    # small coherent errors keep (Gamma^m)_00 within 1e-3 of alpha^m
    from rbaddr.noise import SAMPLE_A, CrossTalk, NoisyGateSet, predict_alphas

    blocks = predict_alphas(NoisyGateSet(CrossTalk(SAMPLE_A)), "cxi")
    ms = np.arange(0, 129)
    curve = gamma_decay_curve(blocks, ms)
    deviation = np.max(np.abs(curve - blocks.alpha ** ms.astype(float)))
    assert deviation < 1e-3
