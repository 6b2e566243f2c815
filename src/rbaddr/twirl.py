"""Group twirls of two-qubit channels in the PTM representation.

The closed forms are the three twirls of the simultaneous protocol's
experiments: CxC (``twirl_cxc``) and CxI / IxC (``twirl_cxi``), each
returning a :class:`TwirlOutcome`.
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
    """The twirled 16x16 PTM and the alphas read from it, by report name."""

    twirled: np.ndarray
    alphas: dict[str, float]


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


def twirl_cxi(ptm: np.ndarray, which: int = 1) -> TwirlOutcome:
    """Single-subsystem twirl (Clifford on qubit ``which``, identity on the other).

    The twirled PTM keeps two blocks and zeros elsewhere: the marginal map
    of the other qubit, where qubit ``which`` carries the identity, and the
    gamma block, the 4x4 average of the other qubit's blocks over qubit
    ``which``'s X, Y and Z, repeated on each of the three.  ``alphas`` holds
    gamma's (0, 0) element, the leading depolarizing parameter
    Tr(Pi_k R) / Tr(Pi_k), as ``alpha_1`` or ``alpha_2``; the powers of
    gamma govern the traced-out decay (:func:`gamma_decay_curve`).
    """
    if num_qubits(ptm) != 2:
        raise ValueError("subsystem twirl requires a two-qubit PTM")
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    # index order (twirled qubit, other qubit) on both sides of the map
    order = (0, 1, 2, 3) if which == 1 else (1, 0, 3, 2)
    r4 = ptm.reshape(4, 4, 4, 4).transpose(order)
    twirled = np.zeros((16, 16))
    t4 = twirled.reshape(4, 4, 4, 4).transpose(order)
    t4[0, :, 0, :] = r4[0, :, 0, :]
    gamma = (r4[1, :, 1, :] + r4[2, :, 2, :] + r4[3, :, 3, :]) / 3
    for n in (1, 2, 3):
        t4[n, :, n, :] = gamma
    return TwirlOutcome(twirled, {f"alpha_{which}": float(gamma[0, 0])})


def gamma_decay_curve(gamma: np.ndarray, m_values) -> np.ndarray:
    """(Gamma^m)_{0,0} for each m of a square matrix ``gamma``, such as
    :func:`twirl_cxi`'s gamma block, by repeated multiplication."""
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
