"""Clifford groups as PTM tables.

The single-qubit group is enumerated by breadth-first closure of the
generator set {X+-pi/2, Y+-pi/2, X_pi, Y_pi}; the two-qubit subsystem
groups (CxC, CxI, IxC) are assembled as products.  Clifford PTMs are
signed permutation matrices, so elements are canonicalized by rounding to
integers and group operations run on precomputed index tables: the random
part of a benchmarking sequence never touches matrix arithmetic.

Each group is built with a few array operations: one stacked matmul per
closure frontier, one broadcast Kronecker product for all pairs of a
product group, one stacked product for the tables.  On integer PTMs these
are exact, so the result equals the one-element-at-a-time build bit for
bit.  A group is its arrays, row ``i`` of each for element ``i``: the
read-only ``(|G|, d, d)`` PTMs ``ptms``, the generator words ``words``
(one per qubit), the tables ``mult_table`` and ``inv_table``, and ``targets``.
The tables are int16, as every index is below 576 (CxC's ``mult_table``
takes 0.66 MB instead of 2.65 MB as int64); arithmetic on a table value
that can exceed int16 runs in int64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import zip_longest

import numpy as np

from .paulis import ptm_from_unitary

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
    """The integer PTM ``ptm`` is within ``_KEY_GUARD`` of."""
    rounded = np.rint(ptm)
    # a non-finite entry is within the guard of no integer
    if not np.all(np.isfinite(ptm)) or np.max(np.abs(ptm - rounded)) > _KEY_GUARD:
        raise ValueError("PTM is not a signed Pauli permutation")
    return rounded


@dataclass(frozen=True)
class CliffordGroup:
    kind: str
    # every element's PTM, stacked (|G|, d, d)
    ptms: np.ndarray = field(repr=False)
    # per element, one generator word per qubit, applied left to right
    words: tuple[tuple[tuple[str, ...], ...], ...] = field(repr=False)
    mult_table: np.ndarray  # mult_table[i, j] = index of (apply j, then i)
    inv_table: np.ndarray
    # (|G|, d): element g sends Pauli j to +-Pauli targets[g, j]; built with
    # the group, so before any share of a run starts
    targets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "targets", np.argmax(self.ptms != 0, axis=1))
        for array in (self.ptms, self.mult_table, self.inv_table, self.targets):
            _read_only(array)

    def __len__(self) -> int:
        return len(self.ptms)

    def composites(self, indices) -> np.ndarray:
        """Running composites of each row of a (K, m) index array, shape
        (K, m + 1): column t composes the row's first t steps.

        A blocked prefix scan over the flattened multiplication table, in
        blocks of b ~ sqrt(m) steps: b steps compose every block's steps
        from its start, all blocks at once, then one step per block puts
        the composite before it on the right of each of its columns.
        Composition is associative, so the integers are those of the
        column-by-column scan; besides the output, each step holds (K,
        m / b)- or (K, b)-sized arrays."""
        indices = np.asarray(indices)
        if indices.ndim != 2:
            raise ValueError("expected a (K, m) array of element indices")
        k, m = indices.shape
        size = len(self)
        flat = self.mult_table.ravel()
        b = math.isqrt(max(m - 1, 0)) + 1
        # (m + 1, K), element 0 the identity: row t composes steps 1..t
        scan = np.zeros((m + 1, k), dtype=np.int64)
        scan[1::b] = indices[:, ::b].T
        for s in range(1, b):
            rows = scan[1 + s :: b]
            # int64 flat indices: row * size + column reaches size**2 - 1
            step = np.multiply(indices[:, s::b].T, size, dtype=np.int64)
            rows[...] = flat[step + scan[s::b][: len(rows)]]
        for first in range(1 + b, m + 1, b):
            block = scan[first : first + b]
            block[...] = flat[block * size + scan[first - 1]]
        return scan.T

    def recovery_indices(self, indices) -> np.ndarray:
        """Recovery of each row of a (K, m) index array, shape (K,): the
        inverse of the row's last composite."""
        return self.inv_table[self.composites(indices)[:, -1]]

    def recovery_index(self, indices) -> int:
        """Element undoing a sequence: ptms[r] @ ptms[i_m] ... ptms[i_1] = 1."""
        return int(self.recovery_indices(np.asarray(indices, dtype=np.int64)[None])[0])

    def sample_uniform(self, rng: np.random.Generator, m: int) -> np.ndarray:
        """m i.i.d. uniform element indices."""
        if m < 1:
            raise ValueError("sequence length must be >= 1")
        return rng.integers(0, len(self), size=m)

    @property
    def mean_slots(self) -> float:
        """Average generator slots per element (reported alongside fits):
        an element occupies as many slots as its longest word."""
        return float(np.mean([max(map(len, words)) for words in self.words]))


@lru_cache(maxsize=None)
def generate_c1() -> CliffordGroup:
    """The 24-element single-qubit Clifford group by generator closure."""
    generators = np.stack([generator_ptm(name) for name in GENERATOR_ANGLES])
    names = tuple(GENERATOR_ANGLES)
    ptms: list[np.ndarray] = [np.eye(4)]
    words: list[tuple[str, ...]] = [()]
    seen = dict.fromkeys(_keys(ptms[0]), 0)
    frontier = [0]
    while frontier:
        # every (element, generator) product of the frontier, in that order
        bases = np.stack([ptms[i] for i in frontier])
        products = _canonical(generators[None] @ bases[:, None])
        next_frontier = []
        for n, key in enumerate(_keys(products)):
            if key not in seen:
                f, g = divmod(n, len(names))
                seen[key] = len(ptms)
                ptms.append(products[f, g])
                words.append(words[frontier[f]] + (names[g],))
                next_frontier.append(seen[key])
        frontier = next_frontier
        if len(ptms) > 24:
            raise RuntimeError("closure exceeded 24 elements; generator bug")
    if len(ptms) != 24:
        raise RuntimeError(f"closure stalled at {len(ptms)} elements")

    stack = np.stack(ptms)
    # a signed permutation's inverse is its transpose
    mult = _indices(seen, stack[:, None] @ stack[None, :]).reshape(24, 24)
    inv = _indices(seen, stack.transpose(0, 2, 1))
    return CliffordGroup("c1", stack, tuple((w,) for w in words), mult, inv)


@lru_cache(maxsize=None)
def product_group(kind: str) -> CliffordGroup:
    """Two-qubit subsystem groups: 'cxc' (576), 'cxi' or 'ixc' (24 each).

    Element ``24 * a + b`` of CxC is C1 element a on qubit 1 and b on
    qubit 2; CxI and IxC index C1 directly.
    """
    c1 = generate_c1()
    identity = (np.eye(4)[None], [()])
    c1_side = (c1.ptms, [w for (w,) in c1.words])
    if kind == "cxc":
        (a, words_a), (b, words_b) = c1_side, c1_side
    elif kind == "cxi":
        (a, words_a), (b, words_b) = c1_side, identity
    elif kind == "ixc":
        (a, words_a), (b, words_b) = identity, c1_side
    else:
        raise ValueError(f"unknown group kind '{kind}'")

    # the Kronecker product of every pair as one broadcast multiply (not
    # einsum, which sums into a zeroed output and so loses kron's -0.0)
    ptms = (a[:, None, :, None, :, None] * b[None, :, None, :, None, :]).reshape(-1, 16, 16)
    words = tuple((wa, wb) for wa in words_a for wb in words_b)

    m1 = c1.mult_table
    inv1 = c1.inv_table
    if kind == "cxc":
        # the product factorizes per qubit; 24 * a + b <= 575 stays int16
        mult = (24 * m1[:, None, :, None] + m1[None, :, None, :]).reshape(576, 576)
        inv = 24 * np.repeat(inv1, 24) + np.tile(inv1, 24)
    else:
        mult = m1.copy()
        inv = inv1.copy()
    return CliffordGroup(kind, ptms, words, mult, inv)


def _keys(ptms: np.ndarray) -> list[bytes]:
    """Byte key (the int8 entries) of every matrix of a (..., d, d) stack,
    in C order."""
    rows = np.rint(ptms).astype(np.int8).reshape(-1, ptms.shape[-1] ** 2)
    return [row.tobytes() for row in rows]


def _indices(key_index: dict[bytes, int], ptms: np.ndarray) -> np.ndarray:
    """Group index of every matrix of a (..., d, d) stack, in C order."""
    return np.array([key_index[key] for key in _keys(ptms)], dtype=np.int16)


def _read_only(array: np.ndarray) -> None:
    """Freeze ``array`` and the arrays it views, so that no view of it can
    be made writeable again."""
    while isinstance(array, np.ndarray):
        array.setflags(write=False)
        array = array.base


def get_group(kind: str) -> CliffordGroup:
    if kind == "c1":
        return generate_c1()
    return product_group(kind)


def element_slots(words: tuple[tuple[str, ...], ...]) -> list[tuple[str | None, str | None]]:
    """Per-slot generator pairs of one element's per-qubit ``words``; the
    shorter word is padded with idles, and C1's single word plays on qubit 1."""
    w1, w2 = words if len(words) == 2 else (*words, ())
    return list(zip_longest(w1, w2))


def dump_group_csv(group: CliffordGroup, path) -> None:
    """Plain-text table of the group: index, per-qubit words, PTM entries."""
    import csv

    size = group.ptms.shape[-1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["index", "words"] + [f"r{i}{j}" for i in range(size) for j in range(size)]
        )
        for index, (words, ptm) in enumerate(zip(group.words, group.ptms)):
            word_str = "|".join(",".join(w) if w else "-" for w in words)
            writer.writerow([index, word_str] + [int(v) for v in ptm.ravel()])
