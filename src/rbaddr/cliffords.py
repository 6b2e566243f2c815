"""Clifford groups as PTM tables.

The single-qubit group is enumerated by breadth-first closure of the
generator set {X+-pi/2, Y+-pi/2, X_pi, Y_pi}; the two-qubit subsystem
groups (CxC, CxI, IxC) are assembled as products.  Clifford PTMs are
signed permutation matrices, so elements are canonicalized by rounding to
integers and group operations run on precomputed index tables: the random
part of a benchmarking sequence never touches matrix arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .paulis import ptm_from_unitary, tensor

GENERATOR_ANGLES: dict[str, tuple[str, float]] = {
    "x90": ("x", np.pi / 2),
    "xm90": ("x", -np.pi / 2),
    "y90": ("y", np.pi / 2),
    "ym90": ("y", -np.pi / 2),
    "x180": ("x", np.pi),
    "y180": ("y", np.pi),
}

_AXES = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
}

_KEY_GUARD = 1e-6


def rotation_unitary(axis: str, angle: float) -> np.ndarray:
    """exp(-i * angle * sigma_axis / 2)."""
    sigma = _AXES[axis]
    return np.cos(angle / 2) * np.eye(2) - 1j * np.sin(angle / 2) * sigma


@lru_cache(maxsize=None)
def generator_ptm(name: str) -> np.ndarray:
    axis, angle = GENERATOR_ANGLES[name]
    ptm = _canonical(ptm_from_unitary(rotation_unitary(axis, angle)))
    ptm.setflags(write=False)
    return ptm


def _canonical(ptm: np.ndarray) -> np.ndarray:
    rounded = np.rint(ptm)
    if np.max(np.abs(ptm - rounded)) > _KEY_GUARD:
        raise ValueError("PTM is not a signed Pauli permutation")
    return rounded


def _key(ptm: np.ndarray) -> bytes:
    return np.rint(ptm).astype(np.int8).tobytes()


def _one_row(indices) -> np.ndarray:
    """One sequence as a (1, m) index array; an empty one is an integer (1, 0)."""
    row = np.asarray(indices)
    return row.reshape(1, -1) if row.size else np.zeros((1, 0), dtype=np.int64)


@dataclass(frozen=True)
class CliffordElement:
    group_kind: str
    index: int
    ptm: np.ndarray
    # one generator word per qubit, applied left to right
    words: tuple[tuple[str, ...], ...]

    @property
    def n_slots(self) -> int:
        """Generator slots the element occupies when played (max over qubits)."""
        return max(len(w) for w in self.words)


@dataclass(frozen=True)
class CliffordGroup:
    kind: str
    n: int
    elements: tuple[CliffordElement, ...]
    mult_table: np.ndarray  # mult_table[i, j] = index of (apply j, then i)
    inv_table: np.ndarray
    _key_index: dict[bytes, int] = field(repr=False)

    def __len__(self) -> int:
        return len(self.elements)

    def ptm(self, index: int) -> np.ndarray:
        return self.elements[index].ptm

    def lookup(self, ptm: np.ndarray) -> int:
        """Index of a (numerically) signed-permutation PTM in the group."""
        rounded = np.rint(ptm)
        if np.max(np.abs(ptm - rounded)) > _KEY_GUARD:
            raise KeyError("PTM is not close to a signed Pauli permutation")
        key = rounded.astype(np.int8).tobytes()
        try:
            return self._key_index[key]
        except KeyError:
            raise KeyError("PTM is not an element of this group") from None

    def _compose_rows(self, indices: np.ndarray) -> np.ndarray:
        """Composition of each row of a (K, m) index array, one column of
        the multiplication table per step."""
        if indices.ndim != 2:
            raise ValueError("expected a (K, m) array of element indices")
        total = np.zeros(len(indices), dtype=np.int64)
        for column in indices.T:
            total = self.mult_table[column, total]
        return total

    def recovery_indices(self, indices) -> np.ndarray:
        """Recovery of each row of a (K, m) index array, shape (K,)."""
        return self.inv_table[self._compose_rows(np.asarray(indices))]

    def compose_indices(self, indices) -> int:
        """Index of the composition of a sequence (applied in list order)."""
        return int(self._compose_rows(_one_row(indices))[0])

    def recovery_index(self, indices) -> int:
        """Element undoing a sequence: ptm(r) @ ptm(i_m) ... ptm(i_1) = 1."""
        return int(self.recovery_indices(_one_row(indices))[0])

    def sample_uniform(self, rng: np.random.Generator, m: int) -> np.ndarray:
        """m i.i.d. uniform element indices."""
        if m < 1:
            raise ValueError("sequence length must be >= 1")
        return rng.integers(0, len(self.elements), size=m)

    def word_slot_counts(self) -> np.ndarray:
        return np.array([e.n_slots for e in self.elements])

    @property
    def mean_slots(self) -> float:
        """Average generator slots per element (reported alongside fits)."""
        return float(self.word_slot_counts().mean())


@lru_cache(maxsize=None)
def generate_c1() -> CliffordGroup:
    """The 24-element single-qubit Clifford group by generator closure."""
    identity = np.eye(4)
    elements: list[tuple[np.ndarray, tuple[str, ...]]] = [(identity, ())]
    seen = {_key(identity): 0}
    frontier = [0]
    while frontier:
        next_frontier = []
        for idx in frontier:
            base_ptm, base_word = elements[idx]
            for name in GENERATOR_ANGLES:
                new_ptm = _canonical(generator_ptm(name) @ base_ptm)
                key = _key(new_ptm)
                if key not in seen:
                    seen[key] = len(elements)
                    elements.append((new_ptm, base_word + (name,)))
                    next_frontier.append(seen[key])
        frontier = next_frontier
        if len(elements) > 24:
            raise RuntimeError("closure exceeded 24 elements; generator bug")
    if len(elements) != 24:
        raise RuntimeError(f"closure stalled at {len(elements)} elements")

    mult = np.empty((24, 24), dtype=np.int64)
    inv = np.empty(24, dtype=np.int64)
    for i, (pi, _) in enumerate(elements):
        inv[i] = seen[_key(pi.T)]
        for j, (pj, _) in enumerate(elements):
            mult[i, j] = seen[_key(pi @ pj)]
    elems = []
    for i, (ptm, word) in enumerate(elements):
        ptm.setflags(write=False)
        elems.append(CliffordElement("c1", i, ptm, (word,)))
    mult.setflags(write=False)
    inv.setflags(write=False)
    return CliffordGroup("c1", 1, tuple(elems), mult, inv, seen)


@lru_cache(maxsize=None)
def product_group(kind: str) -> CliffordGroup:
    """Two-qubit subsystem groups: 'cxc' (576), 'cxi' or 'ixc' (24 each)."""
    c1 = generate_c1()
    i4 = np.eye(4)
    if kind == "cxc":
        pairs = [(a, b) for a in range(24) for b in range(24)]
    elif kind == "cxi":
        pairs = [(a, None) for a in range(24)]
    elif kind == "ixc":
        pairs = [(None, b) for b in range(24)]
    else:
        raise ValueError(f"unknown group kind '{kind}'")

    elements = []
    key_index: dict[bytes, int] = {}
    for idx, (a, b) in enumerate(pairs):
        ptm_a = c1.ptm(a) if a is not None else i4
        ptm_b = c1.ptm(b) if b is not None else i4
        word_a = c1.elements[a].words[0] if a is not None else ()
        word_b = c1.elements[b].words[0] if b is not None else ()
        ptm = tensor(ptm_a, ptm_b)
        ptm.setflags(write=False)
        elements.append(CliffordElement(kind, idx, ptm, (word_a, word_b)))
        key_index[_key(ptm)] = idx

    m1 = c1.mult_table
    inv1 = c1.inv_table
    if kind == "cxc":
        # index = 24 * a + b; the product factorizes per qubit
        a = np.arange(24)
        mult = (
            24 * m1[np.repeat(a, 24)][:, np.repeat(a, 24)]
            + m1[np.tile(a, 24)][:, np.tile(a, 24)]
        )
        inv = 24 * np.repeat(inv1, 24) + np.tile(inv1, 24)
    else:
        mult = m1.copy()
        inv = inv1.copy()
    mult.setflags(write=False)
    inv.setflags(write=False)
    return CliffordGroup(kind, 2, tuple(elements), mult, inv, key_index)


def get_group(kind: str) -> CliffordGroup:
    if kind == "c1":
        return generate_c1()
    return product_group(kind)


def element_slots(element: CliffordElement) -> list[tuple[str | None, str | None]]:
    """Per-slot generator pairs; the shorter word is padded with idles."""
    if element.group_kind == "c1":
        return [(g, None) for g in element.words[0]]
    w1, w2 = element.words
    n = max(len(w1), len(w2))
    return [
        (w1[i] if i < len(w1) else None, w2[i] if i < len(w2) else None)
        for i in range(n)
    ]


def dump_group_csv(group: CliffordGroup, path) -> None:
    """Plain-text table of the group: index, per-qubit words, PTM entries."""
    import csv

    size = group.elements[0].ptm.shape[0]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["index", "words"] + [f"r{i}{j}" for i in range(size) for j in range(size)]
        )
        for e in group.elements:
            word_str = "|".join(",".join(w) if w else "-" for w in e.words)
            writer.writerow(
                [e.index, word_str] + [int(v) for v in e.ptm.ravel()]
            )
