"""Group twirls of two-qubit channels in the PTM representation.

The closed forms are the three twirls of the simultaneous protocol's
experiments: CxC (``twirl_cxc``) and CxI / IxC (``twirl_cxi``), each
returning a :class:`TwirlOutcome`; ``rbaddr verify`` checks them against
explicit group averages (``verify.brute_force_twirl``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The four blocks of the two-qubit Pauli indices 4 i + j (i the Pauli on
# qubit 1, j on qubit 2) as 0/1 masks: the identity, non-identity on qubit 1
# alone (q1) or on qubit 2 alone (q2), and non-identity on both (corr).
_ON_1, _ON_2 = np.divmod(np.arange(16), 4)
BLOCKS = {
    "identity": ((_ON_1 == 0) & (_ON_2 == 0)).astype(float),
    "q1": ((_ON_1 != 0) & (_ON_2 == 0)).astype(float),
    "q2": ((_ON_1 == 0) & (_ON_2 != 0)).astype(float),
    "corr": ((_ON_1 != 0) & (_ON_2 != 0)).astype(float),
}
for _mask in BLOCKS.values():
    _mask.setflags(write=False)


@dataclass(frozen=True)
class TwirlOutcome:
    """The twirled 16x16 PTM and the alphas read from it, by report name."""

    twirled: np.ndarray
    alphas: dict[str, float]


def twirl_cxc(ptm: np.ndarray) -> TwirlOutcome:
    """CxC twirl: tensor products of depolarizing channels.

    Block parameters alpha_{k|k'} = Tr(Pi_k R)/Tr(Pi_k), the mean of the
    PTM's diagonal over the q1, q2 and corr ``BLOCKS``; deviation of
    alpha_12 from the product alpha_{1|2} alpha_{2|1}
    (``report.delta_alpha``) witnesses correlated errors.
    """
    if np.shape(ptm) != (16, 16):
        raise ValueError("CxC twirl requires a two-qubit PTM")
    a_1_2, a_2_1, a_12 = (
        float(np.diag(ptm) @ BLOCKS[block] / BLOCKS[block].sum())
        for block in ("q1", "q2", "corr")
    )
    diag = (
        BLOCKS["identity"]
        + a_1_2 * BLOCKS["q1"]
        + a_2_1 * BLOCKS["q2"]
        + a_12 * BLOCKS["corr"]
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
    if np.shape(ptm) != (16, 16):
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
    values = m_values.tolist()
    out = np.empty(len(values), dtype=float)
    power = np.eye(gamma.shape[0])
    current = 0
    for pos in sorted(range(len(values)), key=values.__getitem__):
        while current < values[pos]:
            power = power @ gamma
            current += 1
        out[pos] = power[0, 0]
    return out
