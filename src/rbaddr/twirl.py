"""Group twirls of two-qubit channels in the PTM representation.

The closed forms are the three twirls of the simultaneous protocol's
experiments: CxC (``twirl_cxc``) and CxI / IxC (``twirl_cxi``).
``brute_force_twirl`` is the explicit group average that ``rbaddr verify``
checks them against entrywise.  Its inverses use the transpose, valid
because Clifford PTMs are orthogonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cliffords import CliffordGroup
from .paulis import num_qubits, project, projector_diag


@dataclass(frozen=True)
class TwirlOutcome:
    twirled: np.ndarray
    alphas: dict[str, float]


@dataclass(frozen=True)
class SubsystemTwirlBlocks:
    """Block content of a single-subsystem (CxI or IxC) twirl.

    ``gamma`` is the d2^2 x d2^2 matrix repeated three times over the
    twirled qubit's X/Y/Z sector; its (0,0) element's powers govern the
    traced-out decay and approach alpha^m as the error vanishes.
    """

    which: int  # twirled qubit (1 or 2)
    marginal: np.ndarray
    gamma: np.ndarray

    @property
    def alpha(self) -> float:
        """Leading depolarizing parameter Tr(Pi_k R) / Tr(Pi_k)."""
        return float(self.gamma[0, 0])

    def reassembled(self) -> np.ndarray:
        """The full 16x16 twirled PTM rebuilt from the blocks."""
        out = np.zeros((4, 4, 4, 4))
        for j in range(4):
            for l in range(4):
                if self.which == 1:
                    out[0, j, 0, l] = self.marginal[j, l]
                    for n in range(1, 4):
                        out[n, j, n, l] = self.gamma[j, l]
                else:
                    out[j, 0, l, 0] = self.marginal[j, l]
                    for n in range(1, 4):
                        out[j, n, l, n] = self.gamma[j, l]
        return out.reshape(16, 16)


def brute_force_twirl(ptm: np.ndarray, group: CliffordGroup) -> np.ndarray:
    """Exact group average sum_U R_U^T R R_U / |G|."""
    if ptm.shape[0] != group.ptms.shape[-1]:
        raise ValueError("PTM and group dimensions differ")
    acc = np.zeros_like(ptm)
    for g in group.ptms:
        acc += g.T @ ptm @ g
    return acc / len(group)


def twirl_cxc(ptm: np.ndarray) -> TwirlOutcome:
    """CxC twirl: tensor products of depolarizing channels.

    Block parameters alpha_{k|k'} = Tr(Pi_k R)/Tr(Pi_k); deviation of
    alpha_12 from the product alpha_{1|2} alpha_{2|1}
    (``report.delta_alpha``) witnesses correlated errors.
    """
    if num_qubits(ptm) != 2:
        raise ValueError("CxC twirl requires a two-qubit PTM")
    a_1_2 = project(ptm, projector_diag("q1", 2))
    a_2_1 = project(ptm, projector_diag("q2", 2))
    a_12 = project(ptm, projector_diag("corr", 2))
    diag = (
        projector_diag("identity", 2)
        + a_1_2 * projector_diag("q1", 2)
        + a_2_1 * projector_diag("q2", 2)
        + a_12 * projector_diag("corr", 2)
    )
    alphas = {"alpha_1_2": a_1_2, "alpha_2_1": a_2_1, "alpha_12": a_12}
    return TwirlOutcome(np.diag(diag), alphas)


def twirl_cxi(ptm: np.ndarray, which: int = 1) -> SubsystemTwirlBlocks:
    """Single-subsystem twirl (Clifford on qubit ``which``, identity on the other).

    Returns the marginal map of the untwirled qubit and the gamma block;
    all other matrix elements of the twirl vanish.
    """
    if num_qubits(ptm) != 2:
        raise ValueError("subsystem twirl requires a two-qubit PTM")
    r4 = ptm.reshape(4, 4, 4, 4)
    if which == 1:
        marginal = r4[0, :, 0, :].copy()
        gamma = (r4[1, :, 1, :] + r4[2, :, 2, :] + r4[3, :, 3, :]) / 3
    elif which == 2:
        marginal = r4[:, 0, :, 0].copy()
        gamma = (r4[:, 1, :, 1] + r4[:, 2, :, 2] + r4[:, 3, :, 3]) / 3
    else:
        raise ValueError("which must be 1 or 2")
    return SubsystemTwirlBlocks(which, marginal, gamma)


def gamma_decay_curve(blocks, m_values) -> np.ndarray:
    """(Gamma^m)_{0,0} for each m, by repeated multiplication."""
    gamma = blocks.gamma if isinstance(blocks, SubsystemTwirlBlocks) else blocks
    m_values = np.asarray(m_values, dtype=np.int64)
    if np.any(m_values < 0):
        raise ValueError("m must be nonnegative")
    out = np.empty(len(m_values), dtype=float)
    order = np.argsort(m_values)
    power = np.eye(gamma.shape[0])
    current = 0
    for pos in order:
        target = int(m_values[pos])
        while current < target:
            power = power @ gamma
            current += 1
        out[pos] = power[0, 0]
    return out
