import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbaddr.cli import main as cli_main
from rbaddr.cliffords import (
    GENERATOR_ANGLES,
    CliffordGroup,
    _canonical,
    dump_group_csv,
    element_slots,
    generate_c1,
    generator_ptm,
    get_group,
    product_group,
)
from rbaddr.paulis import depolarizing_ptm, tensor

KINDS = ("c1", "cxi", "ixc", "cxc")


def _key(ptm: np.ndarray) -> bytes:
    return np.rint(ptm).astype(np.int8).tobytes()


def reference_generate_c1() -> CliffordGroup:
    """C1 built one element and one table entry at a time: the generator
    closure with one product per (element, generator), then a key lookup of
    every pair product and every transpose."""
    ptms = [np.eye(4)]
    words = [()]
    seen = {_key(ptms[0]): 0}
    frontier = [0]
    while frontier:
        next_frontier = []
        for idx in frontier:
            for name in GENERATOR_ANGLES:
                new_ptm = _canonical(generator_ptm(name) @ ptms[idx])
                key = _key(new_ptm)
                if key not in seen:
                    seen[key] = len(ptms)
                    ptms.append(new_ptm)
                    words.append(words[idx] + (name,))
                    next_frontier.append(seen[key])
        frontier = next_frontier
    mult = np.empty((24, 24), dtype=np.int16)
    inv = np.empty(24, dtype=np.int16)
    for i, pi in enumerate(ptms):
        inv[i] = seen[_key(pi.T)]
        for j, pj in enumerate(ptms):
            mult[i, j] = seen[_key(pi @ pj)]
    return CliffordGroup("c1", np.stack(ptms), tuple((w,) for w in words), mult, inv)


def reference_product_group(kind: str) -> CliffordGroup:
    """A two-qubit group built one ``np.kron`` and one table entry at a time."""
    c1 = reference_generate_c1()
    pairs = {
        "cxc": [(a, b) for a in range(24) for b in range(24)],
        "cxi": [(a, None) for a in range(24)],
        "ixc": [(None, b) for b in range(24)],
    }[kind]
    ptms = []
    words = []
    key_index = {}
    for idx, (a, b) in enumerate(pairs):
        ptm = tensor(
            c1.ptms[a] if a is not None else np.eye(4),
            c1.ptms[b] if b is not None else np.eye(4),
        )
        ptms.append(ptm)
        words.append((
            c1.words[a][0] if a is not None else (),
            c1.words[b][0] if b is not None else (),
        ))
        key_index[_key(ptm)] = idx
    mult = np.empty((len(pairs), len(pairs)), dtype=np.int16)
    inv = np.empty(len(pairs), dtype=np.int16)
    for i, pi in enumerate(ptms):
        inv[i] = key_index[_key(pi.T)]
        for j, pj in enumerate(ptms):
            mult[i, j] = key_index[_key(pi @ pj)]
    return CliffordGroup(kind, np.stack(ptms), tuple(words), mult, inv)


def reference_group(kind: str) -> CliffordGroup:
    return reference_generate_c1() if kind == "c1" else reference_product_group(kind)


def index_of(group: CliffordGroup, ptm: np.ndarray) -> int:
    """The one element of ``group`` whose PTM equals ``ptm``."""
    (match,) = np.flatnonzero(np.all(group.ptms == ptm, axis=(1, 2)))
    return int(match)


@pytest.fixture(scope="module")
def c1():
    return generate_c1()


@pytest.fixture(scope="module")
def cxc():
    return product_group("cxc")


def test_group_sizes(c1, cxc):
    assert len(c1) == 24
    assert len(cxc) == 576
    assert len(product_group("cxi")) == 24
    assert len(product_group("ixc")) == 24


def test_identity_at_index_zero(c1):
    assert np.allclose(c1.ptms[0], np.eye(4))
    assert c1.words[0] == ((),)


def test_x180_element(c1):
    idx = index_of(c1, generator_ptm("x180"))
    assert np.allclose(c1.ptms[idx], np.diag([1, 1, -1, -1]))
    assert c1.words[idx] == (("x180",),)


def test_elements_are_signed_permutations(c1):
    for ptm in c1.ptms:
        assert np.allclose(np.abs(ptm).sum(axis=0), 1)
        assert np.allclose(np.abs(ptm).sum(axis=1), 1)
        assert np.allclose(ptm.T @ ptm, np.eye(4))


def test_words_reproduce_ptms(c1):
    for (word,), expected in zip(c1.words, c1.ptms, strict=True):
        ptm = np.eye(4)
        for gen in word:
            ptm = generator_ptm(gen) @ ptm
        assert np.max(np.abs(ptm - expected)) < 1e-12


def test_group_axioms_exhaustive(c1):
    mult = c1.mult_table
    # identity
    assert np.all(mult[0, :] == np.arange(24))
    assert np.all(mult[:, 0] == np.arange(24))
    # inverses are involutive through the table
    for i in range(24):
        assert mult[c1.inv_table[i], i] == 0
        assert mult[i, c1.inv_table[i]] == 0
    # associativity on all 24^3 triples via table composition
    for a in range(24):
        assert np.array_equal(mult[mult[a, :], :], mult[a, mult])


def test_conjugation_transitivity(c1):
    # every non-identity Pauli reaches all six signed non-identity Paulis
    for j in (1, 2, 3):
        basis = np.zeros(4)
        basis[j] = 1.0
        images = set()
        for ptm in c1.ptms:
            out = ptm @ basis
            k = int(np.argmax(np.abs(out)))
            images.add((k, int(np.sign(out[k]))))
        assert images == {(k, s) for k in (1, 2, 3) for s in (1, -1)}


def test_cxi_acts_trivially_on_second_qubit():
    cxi = product_group("cxi")
    for ptm in cxi.ptms:
        r4 = ptm.reshape(4, 4, 4, 4)
        # the {IX, IY, IZ} block is the identity for every element
        assert np.allclose(r4[0, :, 0, :], np.eye(4))


def test_cxc_contains_cxi_as_subgroup(cxc):
    # CxI element a is C1 element a beside the identity: CxC element 24 a
    cxi = product_group("cxi")
    inside = np.array([index_of(cxc, ptm) for ptm in cxi.ptms])
    assert np.array_equal(inside, 24 * np.arange(24))
    assert np.array_equal(cxc.mult_table[np.ix_(inside, inside)], inside[cxi.mult_table])


def test_recovery_empty_and_single(c1):
    assert c1.recovery_index([]) == 0
    x180 = index_of(c1, generator_ptm("x180"))
    assert c1.recovery_index([x180]) == x180  # self-inverse channel


@given(st.lists(st.integers(0, 23), min_size=1, max_size=40))
@settings(max_examples=50, deadline=None)
def test_recovery_closes_sequences(indices):
    c1 = generate_c1()
    rec = c1.recovery_index(indices)
    total = np.eye(4)
    for i in indices:
        total = c1.ptms[i] @ total
    total = c1.ptms[rec] @ total
    assert np.max(np.abs(total - np.eye(4))) < 1e-12


def test_recovery_table_vs_brute_force(c1):
    rng = np.random.default_rng(99)
    for _ in range(200):
        m = int(rng.integers(1, 101))
        seq = c1.sample_uniform(rng, m)
        total = np.eye(4)
        for i in seq:
            total = c1.ptms[i] @ total
        # the inverse of a signed permutation is its transpose
        assert np.array_equal(c1.ptms[c1.recovery_index(seq)], total.T)


def _reference_recovery(group, indices):
    """The per-row Python walk over mult_table that the batched scan replaced."""
    out = []
    for row in indices:
        total = 0
        for idx in row:
            total = int(group.mult_table[idx, total])
        out.append(int(group.inv_table[total]))
    return out


@pytest.mark.parametrize("kind", ["c1", "cxi", "ixc", "cxc"])
@pytest.mark.parametrize("K, m", [(1, 1), (1, 0), (7, 0), (1, 13), (5, 1), (50, 64)])
def test_recovery_indices_match_per_row_walk(kind, K, m):
    group = get_group(kind)
    rng = np.random.default_rng([K, m, len(group)])
    indices = rng.integers(0, len(group), size=(K, m))
    batch = group.recovery_indices(indices)
    assert batch.shape == (K,)
    assert batch.tolist() == _reference_recovery(group, indices)
    for row, rec in zip(indices, batch):
        one = group.recovery_index(row)
        assert type(one) is int and one == rec


@pytest.mark.parametrize("kind", ["c1", "cxi", "ixc", "cxc"])
@pytest.mark.parametrize("K, m", [(1, 0), (1, 1), (7, 13), (50, 64)])
def test_composites_match_per_row_walk(kind, K, m):
    group = get_group(kind)
    indices = np.random.default_rng([K, m, 7]).integers(0, len(group), size=(K, m))
    composites = group.composites(indices)
    assert composites.shape == (K, m + 1)
    for row, scanned in zip(indices, composites):
        total, walk = 0, [0]  # the identity before the first step
        for idx in row:
            total = int(group.mult_table[idx, total])
            walk.append(total)
        assert scanned.tolist() == walk
    # the last column is the composite the recovery undoes
    assert np.array_equal(group.inv_table[composites[:, -1]], group.recovery_indices(indices))
    with pytest.raises(ValueError):
        group.composites(indices[0])


def _column_scan(group, indices):
    """The column-by-column prefix scan that the blocked scan replaced: one
    gather over the flattened table per step, all rows at once."""
    flat = group.mult_table.ravel()
    scan = np.zeros((indices.shape[1] + 1, len(indices)), dtype=np.int64)
    for t, column in enumerate(np.multiply(indices.T, len(group), dtype=np.int64)):
        scan[t + 1] = flat[column + scan[t]]
    return scan.T


@given(
    kind=st.sampled_from(["cxi", "cxc"]),
    k=st.sampled_from([1, 2, 5]),
    # m = 1 and the block edges: perfect squares and one step either side
    m=st.one_of(st.just(1), st.builds(lambda r, d: max(1, r * r + d),
                                      st.integers(1, 23), st.sampled_from([-1, 0, 1]))),
    seed=st.integers(0, 2**32 - 1),
    wide=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_blocked_scan_gives_the_column_scan(kind, k, m, seed, wide):
    group = get_group(kind)
    indices = np.random.default_rng(seed).integers(0, len(group), size=(k, m))
    indices = indices if wide else indices.astype(np.int16)
    composites = group.composites(indices)
    reference = _column_scan(group, indices)
    assert composites.dtype == reference.dtype and composites.strides == reference.strides
    assert composites.tobytes() == reference.tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_targets_follow_each_pauli(kind):
    group = get_group(kind)
    d = group.ptms.shape[-1]
    for ptm, targets in zip(group.ptms, group.targets):
        # column j of a signed permutation is +-e_targets[j]
        assert np.array_equal(np.abs(ptm), np.eye(d)[targets].T)
    assert not group.targets.flags.writeable


def test_recovery_indices_close_cxc_sequences_in_ptms(cxc):
    rng = np.random.default_rng(41)
    indices = rng.integers(0, len(cxc), size=(6, 9))
    for row, rec in zip(indices, cxc.recovery_indices(indices)):
        total = np.eye(16)
        for i in (*row, rec):
            total = cxc.ptms[i] @ total
        assert np.array_equal(total, np.eye(16))


def test_recovery_indices_reject_one_dimensional_input(c1):
    with pytest.raises(ValueError):
        c1.recovery_indices([1, 2, 3])


def test_sample_uniform_determinism_and_bounds(c1):
    a = c1.sample_uniform(np.random.default_rng(4), 50)
    b = c1.sample_uniform(np.random.default_rng(4), 50)
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        c1.sample_uniform(np.random.default_rng(0), 0)


def test_sample_uniform_frequencies(c1):
    n = 100_000
    draws = c1.sample_uniform(np.random.default_rng(12), n)
    counts = np.bincount(draws, minlength=24)
    p = 1 / 24
    sigma = np.sqrt(n * p * (1 - p))
    assert np.all(np.abs(counts - n * p) < 5 * sigma)


def test_product_group_tables_match_ptms(cxc):
    # exact on integer PTMs
    rng = np.random.default_rng(6)
    for _ in range(50):
        i, j = rng.integers(0, 576, 2)
        assert np.array_equal(cxc.ptms[cxc.mult_table[i, j]], cxc.ptms[i] @ cxc.ptms[j])
    for kind in ("c1", "cxi", "ixc"):
        group = get_group(kind)
        products = group.ptms[:, None] @ group.ptms[None, :]
        assert np.array_equal(group.ptms[group.mult_table], products), kind
    for kind in KINDS:
        group = get_group(kind)
        eye = np.eye(group.ptms.shape[-1])
        for i in range(len(group)):
            assert np.array_equal(group.ptms[group.inv_table[i]] @ group.ptms[i], eye)


@pytest.mark.parametrize("kind", KINDS)
def test_array_built_group_matches_per_element_reference(kind):
    group, ref = get_group(kind), reference_group(kind)
    assert (group.kind, len(group)) == (ref.kind, len(ref))
    assert group.words == ref.words
    assert group.ptms.dtype == ref.ptms.dtype
    # bytes, so that the signed zeros of np.kron count too
    assert group.ptms.tobytes() == ref.ptms.tobytes()
    for table, ref_table in ((group.mult_table, ref.mult_table),
                             (group.inv_table, ref.inv_table)):
        assert table.dtype == ref_table.dtype
        assert np.array_equal(table, ref_table)


@pytest.mark.parametrize("kind", KINDS)
def test_shared_arrays_are_read_only(kind):
    group = get_group(kind)
    before = group.ptms.tobytes()
    for array in (group.ptms, group.mult_table, group.inv_table):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1
    for ptm in group.ptms:  # an element's PTM is a view of the stack
        assert np.shares_memory(ptm, group.ptms)
        assert not ptm.flags.writeable
        with pytest.raises(ValueError):
            ptm.setflags(write=True)
    with pytest.raises(ValueError):
        group.ptms[3][0, 0] = 5.0
    with pytest.raises(ValueError):
        group.ptms[3][...] = 0.0
    assert group.ptms.tobytes() == before


def test_canonical_rejects_non_finite(c1, cxc):
    nan_ptm = c1.ptms[5].copy()
    nan_ptm[tuple(np.argwhere(nan_ptm == 0)[0])] = np.nan
    inf_ptm = cxc.ptms[100].copy()
    inf_ptm[tuple(np.argwhere(inf_ptm == 0)[0])] = np.inf
    for ptm in (nan_ptm, inf_ptm, -inf_ptm, depolarizing_ptm(0.5)):
        with pytest.raises(ValueError):
            _canonical(ptm)
    assert np.array_equal(_canonical(c1.ptms[5] + 1e-9), c1.ptms[5])


def test_element_slots_padding(c1, cxc):
    for words in (cxc.words[30], cxc.words[571]):
        slots = element_slots(words)
        w1, w2 = words
        assert len(slots) == max(len(w1), len(w2))
        played1 = tuple(g for g, _ in slots if g is not None)
        played2 = tuple(g for _, g in slots if g is not None)
        assert played1 == w1 and played2 == w2
    # C1's single word plays on qubit 1 beside idles
    for (word,) in c1.words:
        assert element_slots((word,)) == [(g, None) for g in word]


def test_generator_names_cover_pulse_set():
    assert set(GENERATOR_ANGLES) == {"x90", "xm90", "y90", "ym90", "x180", "y180"}


def test_dump_group_csv(tmp_path, c1):
    path = tmp_path / "c1.csv"
    dump_group_csv(c1, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 25  # header + 24 elements
    assert lines[0].startswith("index,words")


def test_dump_group_cli_matches_per_element_reference(tmp_path):
    assert cli_main(["dump-group", "--group", "cxc", "--out", str(tmp_path / "o")]) == 0
    dump_group_csv(reference_product_group("cxc"), tmp_path / "reference.csv")
    written = (tmp_path / "o" / "group_cxc.csv").read_bytes()
    assert written == (tmp_path / "reference.csv").read_bytes()
    assert written.count(b"\n") == 577


# sha256 of each ``rbaddr dump-group`` file; the files hold integers and
# generator words only, so the bytes do not depend on the CPU
DUMP_GROUP_SHA256 = {
    "c1": "dd406dc2bac32717e8d1e520ad658e35795dcccd7b3dd888afeaee33ae657dfd",
    "cxi": "7445b2ddcf5909543141b6ccb80cb2b909bb0c5461275f6bf14b9c46c02276a7",
    "ixc": "e5beafd28aeafde59c792803d774f0dc3794f3ff5e9a9f6d71437c0079415dfc",
    "cxc": "e6b00c24c85ec007989041d9d7752f5a386b17b814b0ec6b205f04752c2a0547",
}


@pytest.mark.parametrize("kind", KINDS)
def test_dump_group_bytes_are_pinned(tmp_path, kind):
    # pins the element order, the words and the PTMs of every group
    assert cli_main(["dump-group", "--group", kind, "--out", str(tmp_path)]) == 0
    written = (tmp_path / f"group_{kind}.csv").read_bytes()
    assert hashlib.sha256(written).hexdigest() == DUMP_GROUP_SHA256[kind]


def test_get_group_rejects_unknown():
    with pytest.raises(ValueError):
        get_group("c3")
