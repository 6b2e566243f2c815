import numpy as np
import pytest

from rbaddr.cliffords import generate_c1, get_group
from rbaddr.paulis import depolarizing_ptm, ptm_from_kraus, ptm_from_unitary, tensor
from rbaddr.report import delta_alpha
from rbaddr.twirl import gamma_decay_curve, twirl_cxc, twirl_cxi
from rbaddr.noise import zz_rotation_ptm
from rbaddr.verify import brute_force_twirl, random_cptp_ptm

RNG = np.random.default_rng(2012)


def blocks(outcome, which: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """The marginal and gamma blocks of a CxI (``which`` 1) or IxC twirl."""
    r4 = outcome.twirled.reshape(4, 4, 4, 4)
    if which == 1:
        return r4[0, :, 0, :], r4[1, :, 1, :]
    return r4[:, 0, :, 0], r4[:, 1, :, 1]


def witness(outcome) -> float:
    """The correlation witness of a CxC twirl, as the report computes it."""
    keys = ("alpha_12", "alpha_1_2", "alpha_2_1")
    return delta_alpha(*((outcome.alphas[k], 0.0) for k in keys)).value


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


def test_full_clifford_twirl_vs_brute_force_amplitude_damping():
    # the C1 twirl of amplitude damping is depolarizing with alpha = (Tr R - 1) / 3
    gamma = 0.1
    r = ptm_from_kraus([np.diag([1, np.sqrt(1 - gamma)]), np.sqrt(gamma) * np.eye(2, k=1)])
    brute = brute_force_twirl(r, generate_c1())
    expected = (np.trace(r) - 1) / 3
    assert np.allclose(brute, np.diag([1, expected, expected, expected]), atol=1e-12)


def test_unitary_conjugation_twirl_alpha():
    # any unitary channel twirls to alpha = (Tr R - 1) / 3
    u = np.array([[np.cos(0.4), -1j * np.sin(0.4)], [-1j * np.sin(0.4), np.cos(0.4)]])
    r = ptm_from_unitary(u)
    brute = brute_force_twirl(r, generate_c1())
    expected = (np.trace(r) - 1) / 3
    assert np.allclose(brute, np.diag([1, expected, expected, expected]), atol=1e-12)


def test_oracle_all_groups(channels_2q):
    for r in channels_2q[:5]:
        outcome = twirl_cxc(r)
        assert np.max(np.abs(brute_force_twirl(r, get_group("cxc")) - outcome.twirled)) < 1e-10
        assert np.max(np.abs(brute_force_twirl(r, get_group("cxi")) - twirl_cxi(r, 1).twirled)) < 1e-10
        assert np.max(np.abs(brute_force_twirl(r, get_group("ixc")) - twirl_cxi(r, 2).twirled)) < 1e-10
        assert all(abs(a) <= 1 + 1e-12 for a in outcome.alphas.values())


def test_cxc_alphas_product_channel():
    a = random_cptp_ptm(1, RNG)
    b = random_cptp_ptm(1, RNG)
    outcome = twirl_cxc(tensor(a, b))
    assert abs(witness(outcome)) < 1e-12
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
    assert witness(outcome) == pytest.approx(4 * np.sin(theta) ** 2 / 9)
    brute = brute_force_twirl(zz_rotation_ptm(theta), get_group("cxc"))
    assert np.max(np.abs(outcome.twirled - brute)) < 1e-10


def test_twirled_channel_commutes_with_group(channels_2q):
    group = get_group("cxc")
    twirled = twirl_cxc(channels_2q[1]).twirled
    rng = np.random.default_rng(5)
    for idx in rng.integers(0, len(group), 20):
        g = group.ptms[idx]
        assert np.max(np.abs(g @ twirled - twirled @ g)) < 1e-10


def test_depolarizing_fixed_point_of_pauli_twirl(channels_2q):
    # the CxC twirl is diagonal, so the Pauli twirl leaves it as it is
    twirled = twirl_cxc(channels_2q[2]).twirled
    assert np.array_equal(twirled, np.diag(np.diag(twirled)))


# ---------------------------------------------------------------------------
# subsystem twirl blocks


def test_cxi_product_channel_blocks():
    r = tensor(depolarizing_ptm(0.9), np.eye(4))
    outcome = twirl_cxi(r, 1)
    marginal, gamma = blocks(outcome)
    assert np.allclose(gamma, 0.9 * np.eye(4), atol=1e-12)
    assert np.allclose(marginal, np.eye(4), atol=1e-12)
    assert outcome.alphas == {"alpha_1": pytest.approx(0.9)}


def test_cxi_identity():
    assert np.allclose(blocks(twirl_cxi(np.eye(16), 1))[1], np.eye(4))


def test_ixc_is_the_mirrored_cxi(channels_2q):
    # S R S^T for the SWAP permutation S of the Pauli indices: qubit 2's
    # twirl of the mirrored channel is qubit 1's twirl, mirrored, bit for bit
    swap = np.arange(16).reshape(4, 4).T.ravel()
    for r in channels_2q:
        mirrored = twirl_cxi(r[np.ix_(swap, swap)], 2)
        direct = twirl_cxi(r, 1)
        assert np.array_equal(mirrored.twirled, direct.twirled[np.ix_(swap, swap)])
        assert mirrored.alphas == {"alpha_2": direct.alphas["alpha_1"]}


def test_gamma_leading_element_is_projector_trace(channels_2q):
    from rbaddr.paulis import project, projector_diag

    r = channels_2q[3]
    assert twirl_cxi(r, 1).alphas["alpha_1"] == pytest.approx(project(r, projector_diag("q1", 2)))
    assert twirl_cxi(r, 2).alphas["alpha_2"] == pytest.approx(project(r, projector_diag("q2", 2)))


def test_marginal_block_is_partial_trace_map():
    # the untwirled qubit's block equals the PTM of
    # rho2 -> Tr_1[ Lambda(I (x) rho2) ] / 2, built here directly from Kraus
    from rbaddr.verify import random_cptp_kraus
    from rbaddr.paulis import pauli_matrices, ptm_from_kraus

    rng = np.random.default_rng(77)
    kraus = random_cptp_kraus(2, rng, n_kraus=5)
    marginal = blocks(twirl_cxi(ptm_from_kraus(kraus), 1))[0]
    p1 = pauli_matrices(1)
    direct = np.empty((4, 4))
    for l in range(4):
        inp = np.kron(np.eye(2), np.asarray(p1[l]))
        out = sum(k @ inp @ k.conj().T for k in kraus)
        out2 = np.trace(out.reshape(2, 2, 2, 2), axis1=0, axis2=2) / 2
        for j in range(4):
            direct[j, l] = np.trace(np.asarray(p1[j]) @ out2).real / 2
    assert np.max(np.abs(marginal - direct)) < 1e-12


# ---------------------------------------------------------------------------
# gamma powers


def test_gamma_decay_scalar_block():
    ms = np.array([0, 1, 5, 20])
    assert np.allclose(gamma_decay_curve(0.95 * np.eye(4), ms), 0.95 ** ms.astype(float))


def test_gamma_decay_m_zero_is_one():
    gamma = np.array([[0.9, 0.01], [0.0, 0.5]])
    assert gamma_decay_curve(gamma, [0])[0] == pytest.approx(1.0)


def test_gamma_decay_curve_reads_lengths_in_any_order():
    # the lengths are visited in ascending order, repeats included, and each
    # value lands where its length stood: a shuffled run is the sorted one
    # permuted, bit for bit
    rng = np.random.default_rng(35)
    gamma = 0.9 * np.eye(4) + 0.02 * rng.normal(size=(4, 4))
    ms = np.sort(np.concatenate([np.arange(65), [0, 3, 3, 64]]))
    perm = rng.permutation(len(ms))
    expected = gamma_decay_curve(gamma, ms)
    assert gamma_decay_curve(gamma, ms[perm]).tobytes() == expected[perm].tobytes()


def test_crosstalk_gamma_near_exponential():
    # small coherent errors keep (Gamma^m)_00 within 1e-3 of alpha^m
    from rbaddr.noise import SAMPLE_A, CrossTalk, NoisyGateSet, predict_alphas

    outcome = predict_alphas(NoisyGateSet(CrossTalk(SAMPLE_A)), "cxi")
    ms = np.arange(0, 129)
    curve = gamma_decay_curve(blocks(outcome)[1], ms)
    deviation = np.max(np.abs(curve - outcome.alphas["alpha_1"] ** ms.astype(float)))
    assert deviation < 1e-3
