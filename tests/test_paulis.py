import numpy as np
import pytest

from rbaddr.paulis import (
    computational_povm_vector,
    computational_state,
    depolarizing_ptm,
    pauli_matrices,
    ptm_from_kraus,
    ptm_from_unitary,
    tensor,
)
from rbaddr.twirl import BLOCKS, twirl_cxc

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def rot(axis, angle):
    return np.cos(angle / 2) * np.eye(2) - 1j * np.sin(angle / 2) * axis


def random_unitary(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_kraus(n, rng, n_kraus=4):
    d = 2**n
    g = rng.standard_normal((n_kraus, d, d)) + 1j * rng.standard_normal((n_kraus, d, d))
    s = sum(k.conj().T @ k for k in g)
    w, v = np.linalg.eigh(s)
    inv_half = v @ np.diag(1 / np.sqrt(w)) @ v.conj().T
    return [k @ inv_half for k in g]


# ---------------------------------------------------------------------------
# labels and encoding


def test_index_zero_is_identity():
    for n in (1, 2):
        assert np.allclose(pauli_matrices(n)[0], np.eye(2**n))


def test_pauli_matrix_tensor_structure():
    p1 = pauli_matrices(1)
    p2 = pauli_matrices(2)
    for i in range(4):
        for j in range(4):
            assert np.allclose(p2[4 * i + j], np.kron(p1[i], p1[j]))


# ---------------------------------------------------------------------------
# ptm_from_unitary


def test_ptm_identity():
    assert np.allclose(ptm_from_unitary(np.eye(2)), np.eye(4))


def test_ptm_of_x_gate():
    assert np.allclose(ptm_from_unitary(X), np.diag([1, 1, -1, -1]))


def test_ptm_of_x90():
    # X fixed; Y -> Z -> -Y under exp(-i pi/4 X)
    r = ptm_from_unitary(rot(X, np.pi / 2))
    assert np.allclose(r @ np.array([0, 1, 0, 0]), [0, 1, 0, 0], atol=1e-12)
    assert np.allclose(r @ np.array([0, 0, 1, 0]), [0, 0, 0, 1], atol=1e-12)
    assert np.allclose(r @ np.array([0, 0, 0, 1]), [0, 0, -1, 0], atol=1e-12)


def test_ptm_rejects_non_unitary():
    with pytest.raises(ValueError):
        ptm_from_unitary(np.array([[1.0, 0.2], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        ptm_from_unitary(np.full((2, 2), np.nan))


def test_ptm_unitary_is_orthogonal():
    rng = np.random.default_rng(7)
    for n in (1, 2):
        u = random_unitary(2**n, rng)
        ptm = ptm_from_unitary(u)
        assert np.max(np.abs(ptm.T @ ptm - np.eye(4**n))) <= 1e-12


def test_ptm_homomorphism_200_random_unitaries():
    # global-phase insensitivity of the channel representation
    rng = np.random.default_rng(11)
    for _ in range(100):
        for n in (1, 2):
            u = random_unitary(2**n, rng)
            v = random_unitary(2**n, rng)
            lhs = ptm_from_unitary(u @ v)
            rhs = ptm_from_unitary(u) @ ptm_from_unitary(v)
            assert np.max(np.abs(lhs - rhs)) < 1e-10


# ---------------------------------------------------------------------------
# ptm_from_kraus


def test_kraus_identity():
    assert np.allclose(ptm_from_kraus([np.eye(2)]), np.eye(4))


def test_kraus_fully_depolarizing():
    p = 0.75
    kraus = [
        np.sqrt(1 - p) * np.eye(2),
        np.sqrt(p / 3) * X,
        np.sqrt(p / 3) * Y,
        np.sqrt(p / 3) * Z,
    ]
    assert np.allclose(ptm_from_kraus(kraus), np.diag([1, 0, 0, 0]), atol=1e-12)


def test_kraus_amplitude_damping_full():
    k0 = np.array([[1, 0], [0, 0]], dtype=complex)
    k1 = np.array([[0, 1], [0, 0]], dtype=complex)
    r = ptm_from_kraus([k0, k1])
    # every input state maps to the +Z pole (the ground state)
    for vec in (computational_state("0"), computational_state("1")):
        out = r @ vec
        assert np.allclose(out, [1, 0, 0, 1], atol=1e-12)


def test_kraus_rejects_non_tp():
    with pytest.raises(ValueError):
        ptm_from_kraus([0.5 * np.eye(2)])
    # but the relaxed mode accepts it
    r = ptm_from_kraus([0.5 * np.eye(2)], require_tp=False)
    assert np.allclose(r, 0.25 * np.eye(4))


def test_kraus_first_row():
    rng = np.random.default_rng(3)
    for n in (1, 2):
        r = ptm_from_kraus(random_kraus(n, rng))
        assert np.allclose(r[0], np.eye(len(r))[0], rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# composition / tensor


def test_compose_identity_and_self_inverse():
    r = ptm_from_unitary(rot(Y, 0.3))
    assert np.allclose(r @ np.eye(4), r)
    rx = ptm_from_unitary(X)
    assert np.allclose(rx @ rx, np.eye(4), atol=1e-12)


def test_compose_two_x90_gives_x180():
    r90 = ptm_from_unitary(rot(X, np.pi / 2))
    r180 = ptm_from_unitary(rot(X, np.pi))
    assert np.allclose(r90 @ r90, r180, atol=1e-12)


def test_tensor_identity():
    assert np.allclose(tensor(np.eye(4), np.eye(4)), np.eye(16))


def test_tensor_x_on_first_qubit():
    lhs = tensor(np.diag([1.0, 1, -1, -1]), np.eye(4))
    rhs = ptm_from_unitary(np.kron(X, np.eye(2)))
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_tensor_depolarizing_corr_block():
    a1, a2 = 0.9, 0.8
    r = tensor(depolarizing_ptm(a1), depolarizing_ptm(a2))
    alphas = twirl_cxc(r).alphas
    assert alphas["alpha_12"] == pytest.approx(a1 * a2, abs=1e-12)
    assert alphas["alpha_1_2"] == pytest.approx(a1, abs=1e-12)


def test_tensor_respects_composition():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a, b, c, d = (ptm_from_unitary(random_unitary(2, rng)) for _ in range(4))
        lhs = tensor(a, b) @ tensor(c, d)
        rhs = tensor(a @ c, b @ d)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


# ---------------------------------------------------------------------------
# pauli conjugation: rho -> P rho P, by ptm_from_unitary


def test_pauli_conjugation_identity():
    for n in (1, 2):
        assert np.allclose(ptm_from_unitary(pauli_matrices(n)[0]), np.eye(4**n))


def test_pauli_conjugation_z():
    assert np.allclose(ptm_from_unitary(Z), np.diag([1, -1, -1, 1]))


def test_pauli_conjugation_xi_rows():
    r = ptm_from_unitary(pauli_matrices(2)[4])  # XI
    labels = [a + b for a in "IXYZ" for b in "IXYZ"]
    negative = {labels[i] for i in range(16) if r[i, i] < 0}
    assert negative == {"YI", "ZI", "YX", "ZX", "YY", "ZY", "YZ", "ZZ"}


def test_pauli_conjugation_matches_unitary_all_16():
    # P_k P_i P_k = +P_i where they commute and -P_i where they anticommute
    paulis = pauli_matrices(2)
    for k, pk in enumerate(paulis):
        signs = [1.0 if np.allclose(pk @ pi, pi @ pk) else -1.0 for pi in paulis]
        assert np.max(np.abs(ptm_from_unitary(pk) - np.diag(signs))) < 1e-12


# ---------------------------------------------------------------------------
# expectation and vectors


def test_expectation_ground_state():
    e = computational_povm_vector("0")
    x = computational_state("0")
    assert e @ np.eye(4) @ x == pytest.approx(1.0)


def test_expectation_depolarized():
    e = computational_povm_vector("0")
    x = computational_state("0")
    alpha = 0.7
    assert e @ depolarizing_ptm(alpha) @ x == pytest.approx((1 + alpha) / 2)


def test_expectation_orthogonal_states():
    e = computational_povm_vector("0")
    x = computational_state("1")
    assert e @ np.eye(4) @ x == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# projectors


def test_projector_partition_of_identity():
    total = sum(BLOCKS.values())
    assert np.allclose(total, np.ones(16))
    assert BLOCKS["q1"].sum() == 3
    assert BLOCKS["q2"].sum() == 3
    assert BLOCKS["corr"].sum() == 9


def test_project_identity_and_depolarizing():
    assert twirl_cxc(np.eye(16)).alphas["alpha_12"] == pytest.approx(1.0)
    r = depolarizing_ptm(0.42, 2)
    assert twirl_cxc(r).alphas["alpha_1_2"] == pytest.approx(0.42)
