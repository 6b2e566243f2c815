"""Pauli-basis linear algebra for one- and two-qubit channels.

Conventions (fixed; everything downstream depends on them):

* Single-qubit Pauli order ``I, X, Y, Z``, indexed 0..3.
* Multi-qubit index: qubit 1 carries the most significant bit pair, so
  for two qubits ``P[4*i + j] = kron(P1[i], P1[j])`` and the label order
  is ``II, IX, IY, IZ, XI, XX, ...``.
* The Pauli transfer matrix (PTM) of a channel has entries
  ``R[i, j] = Tr[P_i Lambda(P_j)] / d`` with ``d = 2**n``.  Channel
  composition is matrix multiplication of PTMs (rightmost acts first).
* States are row-expanded as ``x_j = Tr[P_j rho]`` and measurement
  operators as ``e_j = Tr[P_j E] / d`` so that
  ``Tr[E Lambda(rho)] = e @ R @ x``.

Complex arithmetic appears only in the constructors that evaluate traces
against unitaries/Kraus operators; all PTM algebra downstream is real.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DEFAULT_ATOL = 1e-10

_P1 = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def num_qubits(ptm: np.ndarray) -> int:
    """Number of qubits of a PTM (or Pauli vector) by its size."""
    size = ptm.shape[0]
    n = max(1, round(np.log2(size) / 2))
    if 4**n != size:
        raise ValueError(f"size {size} is not a power of 4")
    return n


@lru_cache(maxsize=None)
def pauli_matrices(n: int) -> tuple[np.ndarray, ...]:
    """All 4**n Pauli operators in index order (qubit 1 most significant)."""
    if n == 1:
        mats = _P1
    else:
        mats = tuple(
            np.kron(a, b) for a in pauli_matrices(n - 1) for b in pauli_matrices(1)
        )
    for m in mats:
        m.setflags(write=False)
    return mats


# ---------------------------------------------------------------------------
# PTM constructors


def ptm_from_unitary(unitary: np.ndarray, atol: float = DEFAULT_ATOL) -> np.ndarray:
    """PTM of the channel rho -> U rho U^dag.

    The result is a real orthogonal matrix; non-unitary input is rejected.
    """
    return ptms_from_unitaries(np.asarray(unitary)[None], atol)[0]


def ptms_from_unitaries(unitaries: np.ndarray, atol: float = DEFAULT_ATOL) -> np.ndarray:
    """PTMs of a batch of unitaries, shape (n, d**2, d**2) for input (n, d, d).

    Each unitary is checked on its own (Frobenius norm of U^dag U - 1 at
    most ``atol``; a non-finite entry fails).
    """
    unitaries = np.asarray(unitaries, dtype=complex)
    d = unitaries.shape[-1]
    n = max(1, round(np.log2(d)))
    if 2**n != d:
        raise ValueError(f"unitary dimension {d} is not a power of 2")
    gram = unitaries.conj().swapaxes(-1, -2) @ unitaries - np.eye(d)
    if not np.all(np.linalg.norm(gram, axis=(-2, -1)) <= atol):
        raise ValueError("input matrix is not unitary")
    paulis = np.stack(pauli_matrices(n))
    # images[u, j] = U P_j U^dag; R[u, i, j] = Tr[P_i images[u, j]] / d
    images = np.einsum("uab,jbc,udc->ujad", unitaries, paulis, unitaries.conj())
    return np.einsum("ida,ujad->uij", paulis, images).real / d


def ptm_from_kraus(
    kraus: list[np.ndarray] | tuple[np.ndarray, ...],
    require_tp: bool = True,
) -> np.ndarray:
    """PTM of the channel rho -> sum_k K_k rho K_k^dag.

    With ``require_tp`` the Kraus set must satisfy ``sum K^dag K = 1``;
    disable it to build non-trace-preserving objects (e.g. measurement
    operators with absorbed errors).
    """
    kraus = np.asarray(kraus, dtype=complex)
    d = kraus.shape[1]
    n = max(1, round(np.log2(d)))
    if 2**n != d:
        raise ValueError(f"Kraus dimension {d} is not a power of 2")
    if require_tp:
        total = np.einsum("kba,kbc->ac", kraus.conj(), kraus)
        if np.linalg.norm(total - np.eye(d)) > DEFAULT_ATOL:
            raise ValueError("Kraus set is not trace preserving")
    paulis = np.stack(pauli_matrices(n))
    # images[j] = sum_k K_k P_j K_k^dag; R[i, j] = Tr[P_i images[j]] / d
    images = np.einsum("kab,jbc,kdc->jad", kraus, paulis, kraus.conj())
    return np.einsum("ida,jad->ij", paulis, images).real / d


def tensor(ptm_a: np.ndarray, ptm_b: np.ndarray) -> np.ndarray:
    """Tensor product; qubit(s) of ``ptm_a`` become the most significant."""
    return np.kron(ptm_a, ptm_b)


def depolarizing_ptm(alpha: float, n: int = 1) -> np.ndarray:
    """Depolarizing PTM diag(1, alpha, ..., alpha)."""
    diag = np.full(4**n, float(alpha))
    diag[0] = 1.0
    return np.diag(diag)


# ---------------------------------------------------------------------------
# State / measurement vectors


def computational_state(bits: str) -> np.ndarray:
    """Pauli vector of |bits><bits| (e.g. '00'); qubit 1 is the first bit."""
    vec = np.ones(1)
    for b in bits:
        sign = 1.0 if b == "0" else -1.0
        vec = np.kron(vec, np.array([1.0, 0.0, 0.0, sign]))
    return vec


def computational_povm_vector(bits: str) -> np.ndarray:
    """Measurement Pauli vector of the projector onto |bits>."""
    return computational_state(bits) / 2 ** len(bits)


# ---------------------------------------------------------------------------
# Subspace projectors (diagonal 0/1 over Pauli indices)


@lru_cache(maxsize=None)
def projector_diag(kind: str, n: int) -> np.ndarray:
    """Diagonal of a Pauli-subspace projector.

    Kinds: 'identity' (P_0 only), and for n=2 the irreducible subsystem
    blocks 'q1' (non-identity on qubit 1, identity on qubit 2), 'q2'
    (mirror) and 'corr' (non-identity on both).
    """
    size = 4**n
    diag = np.zeros(size)
    if kind == "identity":
        diag[0] = 1.0
    elif kind in ("q1", "q2", "corr"):
        if n != 2:
            raise ValueError(f"projector '{kind}' is only defined for n=2")
        for idx in range(size):
            i, j = idx // 4, idx % 4
            if kind == "q1" and i != 0 and j == 0:
                diag[idx] = 1.0
            elif kind == "q2" and i == 0 and j != 0:
                diag[idx] = 1.0
            elif kind == "corr" and i != 0 and j != 0:
                diag[idx] = 1.0
    else:
        raise ValueError(f"unknown projector kind '{kind}'")
    diag.setflags(write=False)
    return diag


def project(ptm: np.ndarray, proj_diag: np.ndarray) -> float:
    """Normalized block trace Tr(Pi R) / Tr(Pi)."""
    if ptm.shape[0] != len(proj_diag):
        raise ValueError("projector and PTM dimensions differ")
    weight = proj_diag.sum()
    if weight == 0:
        raise ValueError("projector has zero trace")
    return float(np.diag(ptm) @ proj_diag / weight)


# ---------------------------------------------------------------------------
# Diagnostics


@lru_cache(maxsize=None)
def _choi_basis(n: int) -> np.ndarray:
    """Read-only (4**n, 4**n, d*d, d*d) array of kron(P_i, P_j.T)."""
    paulis = pauli_matrices(n)
    basis = np.stack([np.stack([np.kron(pi, pj.T) for pj in paulis]) for pi in paulis])
    basis.setflags(write=False)
    return basis


def choi_matrix(ptm: np.ndarray) -> np.ndarray:
    """Choi matrix (trace normalized to 1) reconstructed from a PTM:
    sum_ij R[i, j] kron(P_i, P_j.T) / d**2, one contraction against the
    cached basis."""
    n = num_qubits(ptm)
    return np.einsum("ij,ijab->ab", ptm, _choi_basis(n)) / 4**n


@dataclass(frozen=True)
class CptpDiagnostic:
    """Physicality report for a PTM (diagnostic, not enforced)."""

    min_choi_eigenvalue: float
    tp_deviation: float
    is_cp: bool
    is_tp: bool


def cptp_diagnostic(ptm: np.ndarray, atol: float = 1e-8) -> CptpDiagnostic:
    """Check complete positivity (Choi spectrum) and trace preservation."""
    eigs = np.linalg.eigvalsh(choi_matrix(ptm))
    row0 = np.zeros(ptm.shape[0])
    row0[0] = 1.0
    tp_dev = float(np.max(np.abs(ptm[0] - row0)))
    return CptpDiagnostic(
        min_choi_eigenvalue=float(eigs.min()),
        tp_deviation=tp_dev,
        is_cp=bool(eigs.min() >= -atol),
        is_tp=bool(tp_dev <= atol),
    )
