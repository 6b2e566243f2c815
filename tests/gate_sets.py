"""Hypothesis strategies of random gate-dependent noise: one error channel
per slot of ``SLOTS``, given to a gate set as a per-slot ``StaticError``.
Each draws its values from a numpy generator seeded by hypothesis."""

import numpy as np
from hypothesis import strategies as st

from rbaddr.noise import SLOTS, StaticError
from rbaddr.paulis import ptms_from_unitaries

seeds = st.integers(0, 2**32 - 1)


@st.composite
def pauli_slot_errors(draw) -> StaticError:
    """Per-slot Pauli channels, not CPTP in general: every slot's error is
    diagonal in the Pauli basis, its 15 non-identity entries drawn from a
    pool that always holds 0 and a negative value."""
    pool = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4)) + [0.0, -0.5]
    rng = np.random.default_rng(draw(seeds))
    diagonals = rng.choice(pool, size=(len(SLOTS), 16))
    diagonals[:, 0] = 1.0
    ptms = np.zeros((len(SLOTS), 16, 16))  # +0.0 off the diagonal, as np.diag gives
    ptms[:, np.arange(16), np.arange(16)] = diagonals
    return StaticError(ptms)


@st.composite
def near_identity_slot_errors(draw) -> StaticError:
    """Per-slot CPTP maps near the identity: a random unitary exp(-i t H),
    H a Gaussian Hermitian matrix and t at most 0.1, then a Pauli channel
    on each qubit with X, Y and Z flip probabilities below 1e-2 each."""
    rng = np.random.default_rng(draw(seeds))
    t = draw(st.floats(0.0, 0.1))
    h = rng.normal(size=(len(SLOTS), 4, 4)) + 1j * rng.normal(size=(len(SLOTS), 4, 4))
    w, v = np.linalg.eigh(h + h.conj().swapaxes(1, 2))
    unitaries = (v * np.exp(-0.5j * t * w)[:, None, :]) @ v.conj().swapaxes(1, 2)
    px, py, pz = rng.uniform(0.0, 1e-2, size=(3, len(SLOTS), 2))
    one = np.stack([np.ones_like(px), 1 - 2 * (py + pz), 1 - 2 * (px + pz), 1 - 2 * (px + py)], -1)
    pauli = (one[:, 0, :, None] * one[:, 1, None, :]).reshape(len(SLOTS), 16)
    return StaticError(pauli[:, :, None] * ptms_from_unitaries(unitaries))
