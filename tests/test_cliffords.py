import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbaddr.cliffords import (
    GENERATOR_ANGLES,
    dump_group_csv,
    element_slots,
    generate_c1,
    generator_ptm,
    get_group,
    product_group,
)
from rbaddr.paulis import depolarizing_ptm


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
    assert np.allclose(c1.ptm(0), np.eye(4))
    assert c1.elements[0].words == ((),)


def test_x180_element(c1):
    idx = c1.lookup(generator_ptm("x180"))
    assert np.allclose(c1.ptm(idx), np.diag([1, 1, -1, -1]))


def test_elements_are_signed_permutations(c1):
    for e in c1.elements:
        assert np.allclose(np.abs(e.ptm).sum(axis=0), 1)
        assert np.allclose(np.abs(e.ptm).sum(axis=1), 1)
        assert np.allclose(e.ptm.T @ e.ptm, np.eye(4))


def test_words_reproduce_ptms(c1):
    for e in c1.elements:
        ptm = np.eye(4)
        for gen in e.words[0]:
            ptm = generator_ptm(gen) @ ptm
        assert np.max(np.abs(ptm - e.ptm)) < 1e-12


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
        for e in c1.elements:
            out = e.ptm @ basis
            k = int(np.argmax(np.abs(out)))
            images.add((k, int(np.sign(out[k]))))
        assert images == {(k, s) for k in (1, 2, 3) for s in (1, -1)}


def test_lookup_round_trip_and_miss(c1):
    for e in c1.elements:
        assert c1.lookup(e.ptm) == e.index
    with pytest.raises(KeyError):
        c1.lookup(depolarizing_ptm(0.5))


def test_cxi_acts_trivially_on_second_qubit():
    cxi = product_group("cxi")
    for e in cxi.elements:
        r4 = e.ptm.reshape(4, 4, 4, 4)
        # the {IX, IY, IZ} block is the identity for every element
        assert np.allclose(r4[0, :, 0, :], np.eye(4))


def test_cxc_contains_cxi_as_subgroup(cxc):
    cxi = product_group("cxi")
    for e in cxi.elements:
        assert cxc.lookup(e.ptm) >= 0


def test_recovery_empty_and_single(c1):
    assert c1.recovery_index([]) == 0
    x180 = c1.lookup(generator_ptm("x180"))
    assert c1.recovery_index([x180]) == x180  # self-inverse channel


@given(st.lists(st.integers(0, 23), min_size=1, max_size=40))
@settings(max_examples=50, deadline=None)
def test_recovery_closes_sequences(indices):
    c1 = generate_c1()
    rec = c1.recovery_index(indices)
    total = np.eye(4)
    for i in indices:
        total = c1.ptm(i) @ total
    total = c1.ptm(rec) @ total
    assert np.max(np.abs(total - np.eye(4))) < 1e-12


def test_recovery_table_vs_brute_force(c1):
    rng = np.random.default_rng(99)
    for _ in range(200):
        m = int(rng.integers(1, 101))
        seq = c1.sample_uniform(rng, m)
        total = np.eye(4)
        for i in seq:
            total = c1.ptm(int(i)) @ total
        brute = c1.lookup(total.T)
        assert brute == c1.recovery_index(seq)


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
        one, total = group.recovery_index(row), group.compose_indices(row)
        assert type(one) is int and one == rec
        assert type(total) is int and group.inv_table[total] == rec


def test_recovery_indices_close_cxc_sequences_in_ptms(cxc):
    rng = np.random.default_rng(41)
    indices = rng.integers(0, len(cxc), size=(6, 9))
    for row, rec in zip(indices, cxc.recovery_indices(indices)):
        total = np.eye(16)
        for i in (*row, rec):
            total = cxc.ptm(int(i)) @ total
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
    rng = np.random.default_rng(6)
    for _ in range(50):
        i, j = rng.integers(0, 576, 2)
        expected = cxc.lookup(cxc.ptm(int(i)) @ cxc.ptm(int(j)))
        assert cxc.mult_table[i, j] == expected


def test_element_slots_padding():
    cxc = product_group("cxc")
    for e in (cxc.elements[30], cxc.elements[571]):
        slots = element_slots(e)
        w1, w2 = e.words
        assert len(slots) == max(len(w1), len(w2))
        played1 = tuple(g for g, _ in slots if g is not None)
        played2 = tuple(g for _, g in slots if g is not None)
        assert played1 == w1 and played2 == w2


def test_generator_names_cover_pulse_set():
    assert set(GENERATOR_ANGLES) == {"x90", "xm90", "y90", "ym90", "x180", "y180"}


def test_dump_group_csv(tmp_path, c1):
    path = tmp_path / "c1.csv"
    dump_group_csv(c1, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 25  # header + 24 elements
    assert lines[0].startswith("index,words")


def test_get_group_rejects_unknown():
    with pytest.raises(ValueError):
        get_group("c3")
