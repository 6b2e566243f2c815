"""Clifford groups as PTM tables.

The single-qubit group is enumerated by breadth-first closure of the
generator set {X+-pi/2, Y+-pi/2, X_pi, Y_pi}; the two-qubit subsystem
groups (CxC, CxI, IxC) are products of C1 and the one-element identity
group.  Clifford PTMs are signed permutation matrices, so elements are
canonicalized by rounding to integers and group operations run on index
tables: the random part of a benchmarking sequence never touches matrix
arithmetic.

A group is its arrays, row ``i`` of each for element ``i``: the read-only
``(|G|, d, d)`` PTMs ``ptms``, the generator words ``words`` (one per
qubit), the tables ``mult_table`` and ``inv_table``, and ``targets``.  C1
is built with a few array operations (one stacked matmul per closure
frontier, one stacked product for the tables), exact on integer PTMs.  A
product group keeps only its words and its two factors, and derives each
array from theirs when it is first read, then caches it: the tables and
``targets`` factorize per qubit, and ``ptm_rows`` gives the PTMs of a
slice of elements as the Kronecker products of their factor pairs, so a
caller that reads a chunk of PTMs at a time never holds CxC's 1.18 MB
stack.  Every derived array equals the one-element-at-a-time build bit for
bit, the ``-0.0`` entries of ``np.kron`` included.  The tables are int16,
as every index is below 576 (CxC's ``mult_table`` takes 0.66 MB instead
of 2.65 MB as int64); arithmetic on a table value that can exceed int16
runs in int64.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from itertools import zip_longest

import numpy as np

from .paulis import pauli_matrices, ptm_from_unitary

GENERATOR_ANGLES: dict[str, tuple[str, float]] = {
    "x90": ("x", np.pi / 2),
    "xm90": ("x", -np.pi / 2),
    "y90": ("y", np.pi / 2),
    "ym90": ("y", -np.pi / 2),
    "x180": ("x", np.pi),
    "y180": ("y", np.pi),
}

_KEY_GUARD = 1e-6


def rotation_unitary(axis: str, angle: float) -> np.ndarray:
    """exp(-i * angle * sigma_axis / 2)."""
    sigma = pauli_matrices(1)["ixyz".index(axis)]
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


class CliffordGroup:
    """A group of ``len(group)`` elements, with read-only arrays: given
    ones (C1, a reference build), or, by :meth:`product`, ones derived from
    two factors on first read and cached."""

    def __init__(self, kind: str, ptms: np.ndarray, words, mult_table: np.ndarray,
                 inv_table: np.ndarray):
        self.kind = kind
        # per element, one generator word per qubit, applied left to right
        self.words: tuple[tuple[tuple[str, ...], ...], ...] = words
        self.factors: tuple[CliffordGroup, CliffordGroup] | None = None
        # given arrays shadow the derivations below
        self.ptms = _read_only(ptms)
        self.mult_table = _read_only(mult_table)  # [i, j] = index of (apply j, then i)
        self.inv_table = _read_only(inv_table)

    @classmethod
    def product(cls, kind: str, first: CliffordGroup, second: CliffordGroup) -> CliffordGroup:
        """The group of element ``len(second) * a + b``: element a of
        ``first`` on qubit 1 beside element b of ``second`` on qubit 2."""
        group = cls.__new__(cls)
        group.kind, group.factors = kind, (first, second)
        group.words = tuple((wa, wb) for (wa,) in first.words for (wb,) in second.words)
        return group

    def __len__(self) -> int:
        return len(self.words)

    def __repr__(self) -> str:
        return f"CliffordGroup(kind={self.kind!r}, size={len(self)})"

    def ptm_rows(self, rows: slice) -> np.ndarray:
        """The ideal PTMs ``ptms[rows]`` of a slice of elements.  A product
        group's are the Kronecker products of the slice's factor pairs
        (A, B): ``kron(A, ones)`` times ``kron(ones, B)``, so that each entry
        is the one product A[p, r] * B[q, s] that ``np.kron`` takes, -0.0
        included.  On 64 CxC elements this takes 30 us, where one broadcast
        multiply over a 4-element inner axis took 60 us (one CPU of a
        2-core Xeon VM)."""
        if self.factors is None:
            return self.ptms[rows]
        a, b = self.factors
        first, second = np.divmod(np.arange(len(self))[rows], len(b))
        pa, pb = a.ptms[first], b.ptms[second]
        kron = pa.repeat(pb.shape[1], 1).repeat(pb.shape[2], 2)
        kron *= np.tile(pb, (1, *pa.shape[1:]))
        return kron

    @cached_property
    def ptms(self) -> np.ndarray:
        """(|G|, d, d), derived only for callers that want the whole stack."""
        return _read_only(self.ptm_rows(slice(None)))

    @cached_property
    def mult_table(self) -> np.ndarray:
        # the product factorizes per qubit; len(b) * i + j <= 575 stays int16
        a, b = self.factors
        mult = len(b) * a.mult_table[:, None, :, None] + b.mult_table[None, :, None, :]
        return _read_only(mult.reshape(len(self), len(self)))

    @cached_property
    def inv_table(self) -> np.ndarray:
        a, b = self.factors
        return _read_only(len(b) * np.repeat(a.inv_table, len(b)) + np.tile(b.inv_table, len(a)))

    @cached_property
    def targets(self) -> np.ndarray:
        """(|G|, d): element g sends Pauli j to +-Pauli ``targets[g, j]``;
        a product element sends Pauli ``d_b * r + s`` to ``d_b * t_a[r] +
        t_b[s]``, with no PTM read."""
        if self.factors is None:
            return _read_only(np.argmax(self.ptms != 0, axis=1))
        a, b = self.factors
        d = b.targets.shape[1]
        targets = d * a.targets[:, None, :, None] + b.targets[None, :, None, :]
        return _read_only(targets.reshape(len(self), -1))

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
        the length of its ``element_slots``."""
        return float(np.mean([len(element_slots(words)) for words in self.words]))


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
def _identity_group() -> CliffordGroup:
    """The one-element group on a qubit left idle."""
    zero = np.zeros((1, 1), dtype=np.int16)
    return CliffordGroup("i", np.eye(4)[None], (((),),), zero, zero[0])


@lru_cache(maxsize=None)
def product_group(kind: str) -> CliffordGroup:
    """Two-qubit subsystem groups: 'cxc' (576), 'cxi' or 'ixc' (24 each).

    Element ``24 * a + b`` of CxC is C1 element a on qubit 1 and b on
    qubit 2; CxI and IxC index C1 directly.  No array is built here.
    """
    c1, idle = generate_c1(), _identity_group()
    factors = {"cxc": (c1, c1), "cxi": (c1, idle), "ixc": (idle, c1)}
    if kind not in factors:
        raise ValueError(f"unknown group kind '{kind}'")
    return CliffordGroup.product(kind, *factors[kind])


def _keys(ptms: np.ndarray) -> list[bytes]:
    """Byte key (the int8 entries) of every matrix of a (..., d, d) stack,
    in C order."""
    rows = np.rint(ptms).astype(np.int8).reshape(-1, ptms.shape[-1] ** 2)
    return [row.tobytes() for row in rows]


def _indices(key_index: dict[bytes, int], ptms: np.ndarray) -> np.ndarray:
    """Group index of every matrix of a (..., d, d) stack, in C order."""
    return np.array([key_index[key] for key in _keys(ptms)], dtype=np.int16)


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, frozen with the arrays it views, so that no view of it
    can be made writeable again."""
    base = array
    while isinstance(base, np.ndarray):
        base.setflags(write=False)
        base = base.base
    return array


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
