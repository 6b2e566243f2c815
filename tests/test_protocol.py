import collections
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gate_sets import pauli_slot_errors
from rbaddr.cliffords import element_slots, generator_ptm, get_group
from rbaddr.fitting import fit_exponential
from rbaddr.noise import (
    SAMPLE_A,
    Composite,
    CrossTalk,
    Decoherence,
    Depolarizing,
    Ideal,
    NoisyGateSet,
    StaticError,
    zz_rotation_ptm,
)
from rbaddr.protocol import (
    EXPERIMENT_CODES,
    EXPERIMENT_GROUPS,
    MATVEC_CHUNK_SEQUENCES,
    RBConfig,
    SpamModel,
    SurvivalCurve,
    decay_single,
    generate_sequence,
    read_curves_csv,
    run_experiment,
    run_protocol,
    simulate_sequence,
    write_curves_csv,
    _path_states,
    _stream_words,
)
from rbaddr.streams import draw_blocks, draw_indices, pcg64_states, seeded_streams, stream_words
from rbaddr.twirl import gamma_decay_curve


def fit_curve(curve):
    return fit_exponential(curve.m, curve.mean, curve.stderr)


@pytest.fixture(scope="module")
def cxc():
    return get_group("cxc")


def test_config_validation():
    with pytest.raises(ValueError):
        RBConfig(lengths=(4, 2))
    with pytest.raises(ValueError):
        RBConfig(lengths=(0, 2))
    with pytest.raises(ValueError):
        RBConfig(K=1)
    with pytest.raises(ValueError):
        RBConfig(seed=-1)
    with pytest.raises(ValueError):
        RBConfig(shots=0)
    with pytest.raises(ValueError):  # k and m are one seed word each
        RBConfig(lengths=(1, 2**32))


def test_generate_sequence_closures(cxc):
    rng = np.random.default_rng(0)
    for _ in range(100):
        m = int(rng.integers(1, 30))
        indices, recovery = generate_sequence(cxc, m, rng)
        total = np.eye(16)
        for i in indices:
            total = cxc.ptms[i] @ total
        total = cxc.ptms[recovery] @ total
        assert np.max(np.abs(total - np.eye(16))) < 1e-12


def test_generate_sequence_m1_recovery_is_inverse(cxc):
    rng = np.random.default_rng(1)
    indices, recovery = generate_sequence(cxc, 1, rng)
    assert recovery == cxc.inv_table[indices[0]]


def test_generate_sequence_seeded(cxc):
    a = generate_sequence(cxc, 10, np.random.default_rng(42))
    b = generate_sequence(cxc, 10, np.random.default_rng(42))
    assert np.array_equal(a[0], b[0]) and a[1] == b[1]


def test_simulate_ideal_sequence(cxc):
    rng = np.random.default_rng(2)
    indices, recovery = generate_sequence(cxc, 5, rng)
    pops = simulate_sequence(
        cxc, indices, recovery, NoisyGateSet(Ideal()), SpamModel.perfect()
    )
    assert np.allclose(pops, [1, 0, 0, 0], atol=1e-12)


def test_simulate_depolarizing_matches_word_count(cxc):
    alpha = 0.99
    rng = np.random.default_rng(3)
    indices, recovery = generate_sequence(cxc, 8, rng)
    pops = simulate_sequence(
        cxc, indices, recovery, NoisyGateSet(Depolarizing(alpha)), SpamModel.perfect()
    )
    slots = sum(
        len(element_slots(cxc.words[i])) for i in (*indices, recovery)
    )
    expected_q1 = (1 + alpha**slots) / 2
    assert pops[0] + pops[1] == pytest.approx(expected_q1, abs=1e-12)


def test_simulate_fully_depolarizing_uniform(cxc):
    rng = np.random.default_rng(4)
    indices, recovery = generate_sequence(cxc, 4, rng)
    pops = simulate_sequence(
        cxc, indices, recovery, NoisyGateSet(Depolarizing(0.0)), SpamModel.perfect()
    )
    assert np.allclose(pops, 0.25, atol=1e-12)


def test_populations_sum_to_one(cxc):
    gateset = NoisyGateSet(StaticError(zz_rotation_ptm(0.3)))
    rng = np.random.default_rng(5)
    for _ in range(20):
        indices, recovery = generate_sequence(cxc, 10, rng)
        pops = simulate_sequence(
            cxc, indices, recovery, gateset, SpamModel.perfect()
        )
        assert pops.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(pops > -1e-9)


def _slot_loop_populations(group, indices, recovery, gateset, spam):
    """Reference propagation: one mat-vec per generator slot (per element
    and its error channel with granularity 'clifford', the channel every
    slot of a gate-independent model gets)."""
    state = spam.prep.copy()
    for idx in (*indices, recovery):
        if gateset.granularity == "clifford":
            state = gateset.error_factor(("x90", None)) @ (group.ptms[idx] @ state)
        else:
            for slot in element_slots(group.words[idx]):
                state = gateset.channel(slot) @ state
    return spam.populations(state)


_MISASSIGNED = replace(
    SpamModel.perfect(), assignment=0.88 * np.eye(4) + 0.03 * np.ones((4, 4))
)


@pytest.mark.parametrize(
    "model, granularity, spam, shots",
    [
        (
            Composite((CrossTalk(SAMPLE_A, steps=16), Decoherence(SAMPLE_A))),
            "generator",
            SpamModel.perfect(),
            None,
        ),
        (Decoherence(SAMPLE_A), "clifford", _MISASSIGNED, None),
        (Depolarizing(0.97), "generator", SpamModel.perfect(), 100),
    ],
    ids=["crosstalk_decoherence", "clifford_spam", "shots"],
)
def test_run_experiment_matches_per_sequence_propagation(model, granularity, spam, shots):
    # each sequence's stream draws its indices first, then its shots
    cfg = RBConfig(lengths=(1, 3, 8), K=4, seed=19, spam=spam, shots=shots, keep_raw=True)
    gateset = NoisyGateSet(model, granularity)
    for experiment, code in EXPERIMENT_CODES.items():
        group = get_group(EXPERIMENT_GROUPS[experiment])
        curves = run_experiment(cfg, gateset, experiment)
        for mi, m in enumerate(cfg.lengths):
            for k in range(cfg.K):
                rng = np.random.default_rng([cfg.seed, code, m, k])
                indices, recovery = generate_sequence(group, m, rng)
                pops = simulate_sequence(group, indices, recovery, gateset, spam)
                reference = _slot_loop_populations(group, indices, recovery, gateset, spam)
                assert np.max(np.abs(pops - reference)) < 1e-12
                if shots is not None:
                    probs = np.clip(pops, 0.0, None)
                    pops = rng.multinomial(shots, probs / probs.sum()) / shots
                sums = {"Q1": pops[0] + pops[1], "Q2": pops[0] + pops[2],
                        "CORR": pops[0] + pops[3]}
                for proj, curve in curves.items():
                    assert abs(curve.raw[mi, k] - sums[proj]) < 1e-12


# Pauli-diagonal noise, whose element tables are monomial (as in test_noise)
_PAULI_DIAGONAL = np.diag(np.kron([1.0, 0.9, 0.9, 1.0], [1.0, 0.8, 0.75, 0.9]))
_MONOMIAL_MODELS = {
    "ideal": (Ideal(), "generator"),
    "depolarizing": (Depolarizing(0.97, 0.95), "generator"),
    "alpha_zero": (Depolarizing(0.0), "generator"),
    "alpha_lower_bound": (Depolarizing(-1 / 3), "generator"),
    "alpha1_lower_bound": (Depolarizing(-1 / 3, 0.95), "generator"),
    # zero factors on some Paulis only, and negative ones on others
    "pauli_diagonal_zeros": (
        StaticError(np.diag(np.kron([1.0, 0.0, -0.5, 1.0], [1.0, 0.8, 0.0, -0.9]))),
        "generator",
    ),
    "joint_lower_bound": (Depolarizing(-1 / 15, joint=True), "generator"),
    "per_clifford": (Depolarizing(0.97, 0.95), "clifford"),
    "pauli_diagonal": (StaticError(_PAULI_DIAGONAL), "generator"),
    "composite_per_clifford": (
        Composite((Depolarizing(0.99), StaticError(_PAULI_DIAGONAL), Ideal())),
        "clifford",
    ),
}


def _einsum_states(table, columns, prep):
    """Reference propagation: the batched mat-vec of every step."""
    state = np.broadcast_to(prep, (len(columns), len(prep)))
    for column in columns.T:
        state = np.einsum("rij,rj->ri", table[column], state)
    return state


# every Pauli entry nonzero, with both signs and a -0.0 entry
_DENSE_PREP = np.random.default_rng(5).normal(size=16)
_DENSE_PREP[7] = -0.0


@pytest.mark.parametrize("model, granularity", _MONOMIAL_MODELS.values(), ids=_MONOMIAL_MODELS)
@pytest.mark.parametrize("kind", ["cxi", "ixc", "cxc"])
@pytest.mark.parametrize("K, m", [(1, 1), (7, 40), (50, 300)])
def test_gather_kernel_gives_the_matvec_bits(model, granularity, kind, K, m):
    # the path kernel, which replaced the per-step gather, against the einsum
    assert_gather_kernel_gives_the_matvec_bits(NoisyGateSet(model, granularity), kind, K, m)


@given(
    error=pauli_slot_errors(),
    kind=st.sampled_from(["cxi", "ixc", "cxc"]),
    shape=st.sampled_from([(1, 1), (7, 40), (50, 300)]),
)
@settings(max_examples=25, deadline=None)
def test_gather_kernel_gives_the_matvec_bits_under_per_slot_pauli_channels(error, kind, shape):
    # gate-dependent monomial tables: each slot's own Pauli channel
    assert_gather_kernel_gives_the_matvec_bits(NoisyGateSet(error), kind, *shape)


def assert_gather_kernel_gives_the_matvec_bits(gateset, kind, K, m):
    group = get_group(kind)
    rng = np.random.default_rng([K, m])
    indices = rng.integers(0, len(group), size=(K, m))
    composites = group.composites(indices)
    recovery = group.recovery_indices(indices)
    columns = np.column_stack([indices, recovery])
    factor = gateset.monomial_table(group)
    for prep in (SpamModel.perfect().prep, _DENSE_PREP, np.abs(_DENSE_PREP)):
        reference = _einsum_states(gateset.element_table(group), columns, prep)
        state = _path_states(group, indices, recovery, composites, factor, prep)
        assert state.tobytes() == reference.tobytes()  # signs of zeros included
    reference = _einsum_states(gateset.element_table(group), columns, SpamModel.perfect().prep)
    for spam in (SpamModel.perfect(), _MISASSIGNED):
        for given in (None, composites):
            pops = simulate_sequence(group, indices, recovery, gateset, spam, given)
            assert np.array_equal(pops, spam.populations(reference.T).T)


@pytest.mark.parametrize("extra", [1, 3])
def test_matvec_chunks_give_the_unchunked_bits(extra):
    # a block of one chunk and a few sequences more: each row's reduction
    # is the one the whole block's einsum makes, and the populations, taken
    # once for the block, keep their bits too
    group = get_group("cxc")
    gateset = NoisyGateSet(Composite((Depolarizing(0.97, 0.95), StaticError(zz_rotation_ptm(0.2)))))
    assert gateset.monomial_table(group) is None
    k = MATVEC_CHUNK_SEQUENCES + extra
    indices = np.random.default_rng(k).integers(0, len(group), size=(k, 6))
    recovery = group.recovery_indices(indices)
    columns = np.column_stack([indices, recovery])
    for spam in (replace(SpamModel.perfect(), prep=_DENSE_PREP), _MISASSIGNED):
        reference = _einsum_states(gateset.element_table(group), columns, spam.prep)
        pops = simulate_sequence(group, indices, recovery, gateset, spam)
        assert pops.tobytes() == spam.populations(reference.T).T.tobytes()


@pytest.mark.parametrize("kind", ["cxi", "cxc"])
def test_pauli_permuting_noise_takes_the_matvec_bits(kind):
    # every element channel is monomial, but not in its ideal PTM's pattern:
    # a Pauli's position then depends on more than the composite
    x90 = np.kron(generator_ptm("x90"), np.eye(4))
    gateset = NoisyGateSet(StaticError(x90))
    group = get_group(kind)
    assert gateset.monomial_table(group) is None
    table = gateset.element_table(group)
    assert np.count_nonzero(table, axis=2).max() == 1
    indices = np.random.default_rng(9).integers(0, len(group), size=(6, 30))
    recovery = group.recovery_indices(indices)
    reference = _einsum_states(table, np.column_stack([indices, recovery]), _DENSE_PREP)
    spam = replace(SpamModel.perfect(), prep=_DENSE_PREP)
    pops = simulate_sequence(group, indices, recovery, gateset, spam)
    assert pops.tobytes() == spam.populations(reference.T).T.tobytes()


def test_top_element_gives_the_bits_of_int64_tables(cxc):
    # the tables are int16: 575 * 576 would overflow it, 16 * 575 does not
    top = len(cxc) - 1
    wide = replace(cxc, mult_table=cxc.mult_table.astype(np.int64),
                   inv_table=cxc.inv_table.astype(np.int64))
    indices = np.random.default_rng(575).integers(0, len(cxc), size=(5, 24))
    indices[0] = top
    indices[1, ::3] = top
    # row 2's last step makes its composite top's inverse (recovery top), row 3's top
    for row, goal in ((2, int(cxc.inv_table[top])), (3, top)):
        before = wide.composites(indices[row : row + 1, :-1])[0, -1]
        indices[row, -1] = wide.mult_table[goal, wide.inv_table[before]]
    reference = wide.composites(indices)
    recovery = wide.recovery_indices(indices)
    assert recovery[2] == top and reference[3, -1] == top
    factor = NoisyGateSet(Depolarizing(0.97, 0.95)).monomial_table(cxc)
    state = _path_states(wide, indices, recovery, reference, factor, _DENSE_PREP)
    for steps in (indices, indices.astype(np.int16)):
        composites = cxc.composites(steps)
        assert composites.tobytes() == reference.tobytes()
        narrow = cxc.recovery_indices(steps)
        assert narrow.dtype == np.int16 and np.array_equal(narrow, recovery)
        got = _path_states(cxc, steps, narrow, composites, factor, _DENSE_PREP)
        assert got.tobytes() == state.tobytes()


@pytest.mark.parametrize("model", [Depolarizing(0.97, 0.95), Depolarizing(0.99, joint=True)],
                         ids=["product", "joint"])
@pytest.mark.parametrize("granularity", ["generator", "clifford"])
@pytest.mark.parametrize("cpus", [1, 2])
def test_depolarizing_runs_never_build_the_dense_table(monkeypatch, workers, model,
                                                       granularity, cpus):
    def refuse(self, group):
        raise AssertionError(f"dense element table of {group.kind} built")

    monkeypatch.setattr(NoisyGateSet, "element_table", refuse)
    workers(cpus)
    gateset = NoisyGateSet(model, granularity)
    curves = run_protocol(RBConfig(lengths=(1, 2, 5), K=3, seed=4), gateset)
    assert len(curves) == 7


def _per_sequence_curves(cfg, gateset, experiment):
    """Reference draw order, one stream per sequence k: its indices (and
    recovery) from generate_sequence, then, after propagation, its shots.

    The sequences are propagated as one stacked batch: a lone sequence's
    populations come from a (4, 16) @ (16, 1) product whose BLAS rounding
    differs from a row of the (16, K) batch by an ulp, and the per-sequence
    propagation itself is checked to 1e-12 above."""
    group = get_group(EXPERIMENT_GROUPS[experiment])
    code = EXPERIMENT_CODES[experiment]
    pops = np.empty((len(cfg.lengths), cfg.K, 4))
    for mi, m in enumerate(cfg.lengths):
        rngs = [np.random.default_rng([cfg.seed, code, m, k]) for k in range(cfg.K)]
        drawn = [generate_sequence(group, m, rng) for rng in rngs]
        indices = np.stack([seq for seq, _ in drawn])
        recovery = np.array([rec for _, rec in drawn])
        batch = simulate_sequence(group, indices, recovery, gateset, cfg.spam)
        for k, (rng, p) in enumerate(zip(rngs, batch)):
            if cfg.shots is not None:
                p = np.clip(p, 0.0, None)
                p = rng.multinomial(cfg.shots, p / p.sum()) / cfg.shots
            pops[mi, k] = p
    raw = {"Q1": pops[..., 0] + pops[..., 1], "Q2": pops[..., 0] + pops[..., 2]}
    if experiment == "exp3":
        raw["CORR"] = pops[..., 0] + pops[..., 3]
    return raw


# gate-independent, so both granularities apply; the ZZ rotation makes
# each sequence's populations depend on its elements
_ZZ_DEPOLARIZING = Composite((Depolarizing(0.97, 0.95), StaticError(zz_rotation_ptm(0.2))))


def _assert_per_sequence_draw_order(cfg, experiment, granularity, model=_ZZ_DEPOLARIZING):
    gateset = NoisyGateSet(model, granularity)
    curves = run_experiment(cfg, gateset, experiment)
    reference = _per_sequence_curves(cfg, gateset, experiment)
    assert set(curves) == set(reference)
    for proj, raw in reference.items():
        curve = curves[proj]
        assert np.array_equal(curve.raw, raw), proj
        assert np.array_equal(curve.mean, raw.mean(axis=1)), proj
        assert np.array_equal(curve.stderr, raw.std(axis=1, ddof=1) / np.sqrt(cfg.K)), proj


@pytest.mark.parametrize(
    "experiment, model",
    [
        pytest.param("exp1", _ZZ_DEPOLARIZING, id="exp1"),
        pytest.param("exp3", _ZZ_DEPOLARIZING, id="exp3"),
        # a monomial table: the gather kernel propagates
        pytest.param("exp1", Depolarizing(0.97, 0.95), id="exp1-depolarizing"),
        pytest.param("exp3", Depolarizing(0.97, 0.95), id="exp3-depolarizing"),
    ],
)
@pytest.mark.parametrize("granularity", ["generator", "clifford"])
@pytest.mark.parametrize("shots", [None, 200])
def test_run_experiment_reproduces_per_sequence_draw_order(experiment, model, granularity, shots):
    cfg = RBConfig(
        lengths=(1, 2, 7, 20), K=5, seed=23, spam=_MISASSIGNED, shots=shots, keep_raw=True
    )
    _assert_per_sequence_draw_order(cfg, experiment, granularity, model)


@pytest.mark.parametrize("seed", [2**32, 2**64 + 5])
@pytest.mark.parametrize("shots", [None, 200])
def test_run_experiment_draw_order_at_multiword_seeds(seed, shots):
    # a seed of two or three uint32 words goes through SeedSequence's
    # second mixing loop
    cfg = RBConfig(
        lengths=(1, 3, 9), K=4, seed=seed, spam=_MISASSIGNED, shots=shots,
        keep_raw=True,
    )
    _assert_per_sequence_draw_order(cfg, "exp2", "generator")


_EDGE_SEEDS = [0, 2**32 - 1, 2**32, 2**64 + 5, 2**70]


def _random_configs(count):
    rng = np.random.default_rng(2024)
    for i in range(count):
        seed = int(rng.integers(0, 2**63)) >> int(rng.integers(0, 63))
        if i % 2:  # and seeds of up to four words
            seed = seed << 64 | int(rng.integers(0, 2**63)) << int(rng.integers(0, 64))
        lengths = np.unique(rng.integers(1, 2**32, size=int(rng.integers(1, 6))))
        yield RBConfig(lengths=tuple(lengths), K=int(rng.integers(2, 9)), seed=seed)


def stream_states(cfg: RBConfig, experiment: str) -> list[list[dict]]:
    """The PCG64 state of ``np.random.default_rng([cfg.seed, code, m, k])``
    for each length m of ``cfg.lengths`` and each k < ``cfg.K``, where code
    is the experiment's code, as a run's shares seed them: one hash."""
    words = _stream_words(cfg, [(experiment, mi) for mi in range(len(cfg.lengths))])
    return [pcg64_states(*seeded_streams(block), 0, 0) for block in words]


@pytest.mark.parametrize(
    "cfg",
    [RBConfig(lengths=(1, 2, 512, 2**32 - 1), K=3, seed=s) for s in _EDGE_SEEDS]
    + list(_random_configs(12)),
)
def test_stream_states_are_default_rng_streams(cfg, cxc):
    rng = np.random.Generator(np.random.PCG64())
    for experiment, code in EXPERIMENT_CODES.items():
        states = stream_states(cfg, experiment)
        assert len(states) == len(cfg.lengths)
        for m, row in zip(cfg.lengths, states):
            assert len(row) == cfg.K
            for k, state in enumerate(row):
                reference = np.random.default_rng([cfg.seed, code, m, k])
                assert state == reference.bit_generator.state, (experiment, m, k)
                rng.bit_generator.state = state
                assert np.array_equal(
                    cxc.sample_uniform(rng, 6), cxc.sample_uniform(reference, 6)
                )


def _assert_draws_are_generator_integers(cfg, experiment, n):
    """``draw_indices`` gives each stream of ``cfg``'s blocks of
    ``experiment`` numpy's ``Generator.integers(0, n, m)`` and leaves the
    PCG64 state, buffered uint32 included, that numpy's draw leaves."""
    blocks = [(experiment, mi) for mi in range(len(cfg.lengths))]
    for (_, mi), words in zip(blocks, _stream_words(cfg, blocks)):
        m = cfg.lengths[mi]
        indices, after = draw_indices(words, n, m)
        for k, state in enumerate(pcg64_states(*after)):
            reference = np.random.default_rng([cfg.seed, EXPERIMENT_CODES[experiment], m, k])
            assert np.array_equal(indices[k], reference.integers(0, n, m)), (n, m, k)
            assert state == reference.bit_generator.state, (n, m, k)


def test_draws_of_a_default_run_are_generator_integers():
    for experiment, kind in EXPERIMENT_GROUPS.items():
        _assert_draws_are_generator_integers(RBConfig(seed=12345), experiment, len(get_group(kind)))


# 2**32 mod n of these bounds skips ~25%, ~50%, ~7% and none of the words
@pytest.mark.parametrize("n", [24, 576, 3 * 2**30 + 5, 2**31 + 1, 4 * 10**9, 2**32])
@pytest.mark.parametrize("chunk", [None, 8])
def test_draw_kernel_is_generator_integers(monkeypatch, n, chunk):
    # chunks of 8 outputs split streams whose words were skipped across chunks
    import rbaddr.streams as streams

    if chunk:
        monkeypatch.setattr(streams, "DRAW_CHUNK_OUTPUTS", chunk)
    cfg = RBConfig(lengths=(1, 2, 3, 7, 64, 515), K=4, seed=2**64 + 9)
    _assert_draws_are_generator_integers(cfg, "exp3", n)


# A share of blocks (code, n, m): lengths odd and even, both group sizes, and
# bounds that skip ~25% and ~50% of the words.
_SHARE = [
    (1, 24, 1), (1, 24, 3), (1, 24, 7), (3, 576, 2), (3, 576, 9),
    (2, 3 * 2**30 + 5, 5), (2, 3 * 2**30 + 5, 64), (1, 2**31 + 1, 2),
    (1, 2**31 + 1, 33), (3, 24, 4), (3, 24, 1),
]


# chunks of 8 pairs split long streams and pack no blocks; chunks of 12 split
# a block's K = 3 streams across chunks (m = 9: 5 pairs each) and pack the
# first two blocks (3 + 6 pairs)
@pytest.mark.parametrize("chunk", [None, 8, 12])
def test_packed_draws_are_generator_integers(monkeypatch, chunk):
    import rbaddr.streams as streams

    if chunk:
        monkeypatch.setattr(streams, "DRAW_CHUNK_OUTPUTS", chunk)
    seed, k = 2**64 + 9, 3
    codes, sizes, lengths = map(list, zip(*_SHARE))
    calls = []
    monkeypatch.setattr(streams, "draw_indices", lambda *a: calls.append(a) or draw_indices(*a))
    draws = draw_blocks(stream_words(seed, codes, lengths, k), sizes, lengths)
    for (code, n, m), (indices, after) in zip(_SHARE, draws, strict=True):
        assert indices.shape == (k, m)
        for i, state in enumerate(pcg64_states(*after)):
            reference = np.random.default_rng([seed, code, m, i])
            assert np.array_equal(indices[i], reference.integers(0, n, m)), (code, n, m, i)
            assert state == reference.bit_generator.state, (code, n, m, i)
    assert len(calls) == len(_SHARE) if chunk == 8 else len(calls) < len(_SHARE)


def test_packed_draw_of_a_default_share_peaks_below_one_block():
    # the bound is the peak of drawing one K = 50, m = 512 block on its own
    cfg = RBConfig(seed=3)
    blocks = [(e, mi) for e in EXPERIMENT_CODES for mi in range(len(cfg.lengths))]
    words = _stream_words(cfg, blocks)
    sizes = [len(get_group(EXPERIMENT_GROUPS[e])) for e, _ in blocks]
    lengths = [cfg.lengths[mi] for _, mi in blocks]
    tracemalloc.start()
    try:
        collections.deque(draw_blocks(words, sizes, lengths), maxlen=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.86 * 2**20


@pytest.mark.parametrize("field, value", [("lengths", (1.7, 4)), ("shots", 2.5), ("K", 2.5), ("seed", 1.5)])
def test_config_refuses_non_integral_values(field, value):
    # a float length would be truncated, and 2.5 shots would divide the
    # counts of a 2-shot multinomial by 2.5
    with pytest.raises(ValueError, match=f"{field} must be integral"):
        RBConfig(**{field: value})
    cfg = RBConfig(lengths=np.array([1, 4]), K=np.int64(3), seed=np.uint64(7), shots=np.int32(9))
    assert (cfg.lengths, cfg.K, cfg.seed, cfg.shots) == ((1, 4), 3, 7, 9)
    assert all(type(v) is int for v in (*cfg.lengths, cfg.K, cfg.seed, cfg.shots))


def test_shots_must_fit_numpy_multinomial():
    assert RBConfig(shots=2**63 - 1).shots == 2**63 - 1
    with pytest.raises(ValueError, match="shots"):
        RBConfig(shots=2**63)


@pytest.fixture
def rng_constructions(monkeypatch):
    """Counts of numpy generator, bit generator and seed constructions made
    through ``np.random`` names."""
    counts = dict.fromkeys(("default_rng", "Generator", "PCG64", "SeedSequence"), 0)

    def counting(name):
        real = getattr(np.random, name)

        def construct(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return construct

    for name in counts:
        monkeypatch.setattr(np.random, name, counting(name))
    return counts


@pytest.mark.parametrize("shots", [None, 50])
def test_run_experiment_shares_one_generator(rng_constructions, shots):
    # 3 lengths x 6 sequences; seeding them one by one would make 18
    cfg = RBConfig(lengths=(1, 2, 4), K=6, seed=5, shots=shots)
    run_experiment(cfg, NoisyGateSet(Depolarizing(0.99)), "exp3")
    assert rng_constructions["default_rng"] + rng_constructions["Generator"] <= 1
    assert rng_constructions["PCG64"] + rng_constructions["SeedSequence"] <= 1
    if shots is None:  # the index draws need no numpy generator
        assert not any(rng_constructions.values())


@pytest.mark.parametrize("cpus", [1, 2])
def test_each_share_seeds_only_its_own_streams(monkeypatch, workers, cpus):
    # one hash per share, of the streams of the share's own blocks
    import rbaddr.streams as streams

    hashed = []
    real = streams.seed_sequence_state

    def counting(entropy):
        hashed.append(len(entropy))
        return real(entropy)

    monkeypatch.setattr(streams, "seed_sequence_state", counting)
    workers(cpus)
    cfg = RBConfig(lengths=(1, 2, 4, 8), K=3, seed=1)
    run_protocol(cfg, NoisyGateSet(Depolarizing(0.99)))
    everything = 3 * len(cfg.lengths) * cfg.K
    assert len(hashed) == 1  # a child's hash is not seen here
    if cpus == 1:
        assert hashed == [everything]
    else:
        assert 0 < hashed[0] < everything and hashed[0] % cfg.K == 0


def test_run_experiment_ideal_constant_one():
    cfg = RBConfig(lengths=(1, 2, 4), K=3, seed=0)
    for experiment in ("exp1", "exp2", "exp3"):
        curves = run_experiment(cfg, NoisyGateSet(Ideal()), experiment)
        for curve in curves.values():
            assert np.allclose(curve.mean, 1.0, atol=1e-12)
    assert set(run_experiment(cfg, NoisyGateSet(Ideal()), "exp3")) == {"Q1", "Q2", "CORR"}
    assert set(run_experiment(cfg, NoisyGateSet(Ideal()), "exp1")) == {"Q1", "Q2"}


def test_run_experiment_depolarizing_fit_recovers_alpha():
    from rbaddr.cliffords import generate_c1

    alpha_g = 0.99
    cfg = RBConfig(lengths=(1, 2, 4, 8, 16, 32, 64, 128), K=40, seed=7)
    curves = run_experiment(cfg, NoisyGateSet(Depolarizing(alpha_g)), "exp3")
    fit = fit_curve(curves["Q1"])
    lens = [len(word) for (word,) in generate_c1().words]
    expected = np.mean([alpha_g ** max(a, b) for a in lens for b in lens])
    assert abs(fit.alpha - expected) < 3 * fit.alpha_sigma


def test_exp3_product_noise_corr_consistent():
    cfg = RBConfig(lengths=(1, 2, 4, 8, 16, 32, 64), K=40, seed=11)
    curves = run_experiment(cfg, NoisyGateSet(Depolarizing(0.995, 0.99)), "exp3")
    f1 = fit_curve(curves["Q1"])
    f2 = fit_curve(curves["Q2"])
    fc = fit_curve(curves["CORR"])
    product = f1.alpha * f2.alpha
    sigma = np.sqrt(
        fc.alpha_sigma**2
        + (f2.alpha * f1.alpha_sigma) ** 2
        + (f1.alpha * f2.alpha_sigma) ** 2
    )
    assert abs(fc.alpha - product) < 4 * sigma


def test_symmetric_model_exp1_exp2_consistent():
    cfg = RBConfig(lengths=(1, 2, 4, 8, 16, 32, 64), K=40, seed=13)
    f1 = fit_curve(run_experiment(cfg, NoisyGateSet(Depolarizing(0.995)), "exp1")["Q1"])
    f2 = fit_curve(run_experiment(cfg, NoisyGateSet(Depolarizing(0.995)), "exp2")["Q2"])
    sigma = np.hypot(f1.alpha_sigma, f2.alpha_sigma)
    assert abs(f1.alpha - f2.alpha) < 3 * sigma


def test_bitwise_reproducibility():
    cfg = RBConfig(lengths=(1, 4, 16), K=5, seed=21)
    a = run_experiment(cfg, NoisyGateSet(Depolarizing(0.99)), "exp3")
    b = run_experiment(cfg, NoisyGateSet(Depolarizing(0.99)), "exp3")
    for key in a:
        assert np.array_equal(a[key].mean, b[key].mean)
        assert np.array_equal(a[key].stderr, b[key].stderr)


def test_raw_values_retained_on_request():
    cfg = RBConfig(lengths=(1, 4, 16), K=5, seed=21, keep_raw=True)
    curves = run_experiment(cfg, NoisyGateSet(Depolarizing(0.99)), "exp3")
    assert curves["Q1"].raw.shape == (3, 5)
    assert np.allclose(curves["Q1"].raw.mean(axis=1), curves["Q1"].mean)
    assert run_experiment(
        RBConfig(lengths=(1, 4, 16), K=5, seed=21), NoisyGateSet(Depolarizing(0.99)), "exp3"
    )["Q1"].raw is None


def test_per_clifford_granularity():
    # one dep(0.99) per Clifford makes the per-sequence survival exactly
    # (1 + 0.99^(m+1))/2 independent of the drawn elements
    cfg = RBConfig(lengths=(1, 2, 4, 8, 16, 32), K=5, seed=3)
    gateset = NoisyGateSet(Depolarizing(0.99), "clifford")
    curves = run_experiment(cfg, gateset, "exp3")
    ms = curves["Q1"].m.astype(float)
    assert np.allclose(curves["Q1"].mean, (1 + 0.99 ** (ms + 1)) / 2, atol=1e-12)
    assert np.allclose(curves["Q1"].stderr, 0.0, atol=1e-15)
    # with shot noise the fitted rate recovers alpha itself
    cfg_shots = RBConfig(lengths=(1, 2, 4, 8, 16, 32, 64), K=30, seed=3, shots=400)
    fit = fit_curve(run_experiment(cfg_shots, gateset, "exp3")["Q1"])
    assert abs(fit.alpha - 0.99) < 3 * fit.alpha_sigma


def test_shot_noise_mode():
    cfg = RBConfig(lengths=(1, 2, 4), K=5, seed=9, shots=200)
    curves = run_experiment(cfg, NoisyGateSet(Depolarizing(0.95)), "exp3")
    means = curves["Q1"].mean
    assert np.all((means >= 0) & (means <= 1))
    again = run_experiment(cfg, NoisyGateSet(Depolarizing(0.95)), "exp3")
    assert np.array_equal(curves["Q1"].mean, again["Q1"].mean)


def test_spam_misassignment():
    flip = np.array(
        [[0.9, 0.1, 0, 0], [0.1, 0.9, 0, 0], [0, 0, 1.0, 0], [0, 0, 0, 1.0]]
    )
    spam = replace(SpamModel.perfect(), assignment=flip)
    pops = spam.populations(SpamModel.perfect().prep)
    assert pops[0] == pytest.approx(0.9)
    assert pops[1] == pytest.approx(0.1)
    # the constructor itself refuses a matrix that is not column-stochastic
    negative_entry = np.eye(4)
    negative_entry[:2, 0] = (1.5, -0.5)  # every column still sums to 1
    for bad in (np.eye(4) * 2, np.eye(3), negative_entry, np.full((4, 4), np.nan)):
        with pytest.raises(ValueError, match="column-stochastic"):
            SpamModel(spam.prep, spam.povm, bad)


def test_spam_errors_absorbed_into_amplitude():
    # misassignment changes A and B of the decay, not the rate
    eps = 0.03
    flip = (1 - 4 * eps) * np.eye(4) + eps * np.ones((4, 4))
    cfg = RBConfig(lengths=(1, 2, 4, 8, 16, 32, 64), K=40, seed=15)
    cfg_spam = RBConfig(
        lengths=cfg.lengths, K=cfg.K, seed=cfg.seed,
        spam=replace(SpamModel.perfect(), assignment=flip),
    )
    clean = fit_curve(run_experiment(cfg, NoisyGateSet(Depolarizing(0.99)), "exp1")["Q1"])
    dirty = fit_curve(run_experiment(cfg_spam, NoisyGateSet(Depolarizing(0.99)), "exp1")["Q1"])
    sigma = np.hypot(clean.alpha_sigma, dirty.alpha_sigma)
    assert abs(clean.alpha - dirty.alpha) < 3 * sigma
    assert dirty.A < clean.A


def test_uncorrelated_noise_null_addressability():
    # per-Clifford product noise: the full pipeline must find no
    # addressability signal and no correlation beyond 3 sigma
    from rbaddr.fitting import fit_protocol_curves
    from rbaddr.report import build_report

    cfg = RBConfig(lengths=(1, 2, 4, 8, 16, 32, 64, 128), K=40, seed=17, shots=800)
    curves = run_protocol(cfg, NoisyGateSet(Depolarizing(0.995, 0.99), "clifford"))
    report = build_report(fit_protocol_curves(curves)["alpha_fits"])
    assert report.missing == ()
    assert abs(report.dr1_given_2.value) < 3 * report.dr1_given_2.sigma
    assert abs(report.dr2_given_1.value) < 3 * report.dr2_given_1.sigma
    assert abs(report.dalpha.value) < 3 * report.dalpha.sigma


# ---------------------------------------------------------------------------
# decay models


def test_decay_single_flat():
    assert np.allclose(decay_single([1, 5, 100], 0.5, 1.0, 0.5), 1.0)


def decay_triple(m, a1, alpha_1_2, a2, alpha_2_1, a12, alpha_12, offset):
    """A1 a1^m + A2 a2^m + A12 a12^m + e0 (simultaneous-twirl observable)."""
    m = np.asarray(m, dtype=float)
    return (
        a1 * np.power(alpha_1_2, m)
        + a2 * np.power(alpha_2_1, m)
        + a12 * np.power(alpha_12, m)
        + offset
    )


def test_decay_triple_reduces():
    m = np.array([0, 1, 2, 8])
    lhs = decay_triple(m, 0.3, 0.9, 0.2, 0.8, 0.0, 0.7, 0.25)
    rhs = 0.3 * 0.9**m + 0.2 * 0.8**m + 0.25
    assert np.allclose(lhs, rhs)


def test_p00_triple_exponential_structure():
    # per-Clifford product depolarizing: p00 follows the three-exponential
    # law with equal quarter amplitudes from the |00><00| Pauli expansion
    a1, a2 = 0.97, 0.94
    cfg = RBConfig(lengths=(1, 2, 3, 5, 8), K=10, seed=1)
    group = get_group("cxc")
    gateset = NoisyGateSet(Depolarizing(a1, a2), "clifford")
    rng = np.random.default_rng(33)
    for m in cfg.lengths:
        indices, recovery = generate_sequence(group, m, rng)
        pops = simulate_sequence(group, indices, recovery, gateset, SpamModel.perfect())
        n = m + 1  # recovery carries a noise channel too
        expected = decay_triple(
            np.array([n]), 0.25, a1, 0.25, a2, 0.25, a1 * a2, 0.25
        )[0]
        assert pops[0] == pytest.approx(expected, abs=1e-12)


def test_decay_gamma_matches_matrix_powers():
    gamma = np.diag([0.95, 0.9, 0.9, 0.8])
    vals = 0.5 + 0.5 * gamma_decay_curve(gamma, [0, 1, 2, 3])
    assert np.allclose(vals, 0.5 + 0.5 * 0.95 ** np.array([0, 1, 2, 3.0]))


# ---------------------------------------------------------------------------
# CSV round trip


def test_curves_csv_round_trip(tmp_path):
    cfg = RBConfig(lengths=(1, 2, 4), K=4, seed=2)
    curves = run_protocol(cfg, NoisyGateSet(Depolarizing(0.99)))
    path = tmp_path / "curves.csv"
    write_curves_csv(curves, path)
    loaded = read_curves_csv(path)
    assert len(loaded) == len(curves)
    for orig, back in zip(curves, loaded):
        assert orig.experiment == back.experiment
        assert orig.projection == back.projection
        assert np.array_equal(orig.m, back.m)
        assert np.array_equal(orig.mean, back.mean)  # repr round-trips exactly
        assert np.array_equal(orig.stderr, back.stderr)


@st.composite
def curve_sets(draw):
    """Valid curves: distinct keys, increasing m, finite means, positive
    finite stderrs with finite weights 1/stderr^2, one K per curve."""
    names = st.text(min_size=1, max_size=6)
    keys = draw(st.lists(st.tuples(names, names), min_size=1, max_size=4, unique=True))
    curves = []
    for experiment, projection in keys:
        m = sorted(draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=8, unique=True)))
        mean = draw(st.lists(
            st.floats(allow_nan=False, allow_infinity=False), min_size=len(m), max_size=len(m)
        ))
        stderr = draw(st.lists(
            st.floats(min_value=0, exclude_min=True, allow_infinity=False).filter(
                lambda s: s * s > 0 and 1 / (s * s) < float("inf")
            ),
            min_size=len(m), max_size=len(m),
        ))
        curves.append(SurvivalCurve(
            experiment, projection, np.array(m), np.array(mean), np.array(stderr),
            K=draw(st.integers(2, 10**6)),
        ))
    return curves


@given(curve_sets())
@settings(max_examples=50, deadline=None)
def test_curves_csv_round_trip_property(tmp_path_factory, curves):
    path = tmp_path_factory.mktemp("csv") / "curves.csv"
    write_curves_csv(curves, path)
    loaded = read_curves_csv(path)
    assert len(loaded) == len(curves)
    for orig, back in zip(curves, loaded):
        assert (back.experiment, back.projection, back.K) == (
            orig.experiment, orig.projection, orig.K
        )
        assert np.array_equal(orig.m, back.m)
        assert np.array_equal(orig.mean, back.mean)
        assert np.array_equal(orig.stderr, back.stderr)


def test_read_curves_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "experiment,projection,m,mean,stderr,K\nexp1,Q1,1,0.9,not_a_number,5\n"
    )
    with pytest.raises(ValueError, match="line 2"):
        read_curves_csv(path)


def test_read_curves_rejects_nonpositive_stderr(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("experiment,projection,m,mean,stderr,K\nexp1,Q1,1,0.9,-0.1,5\n")
    with pytest.raises(ValueError, match="line 2"):
        read_curves_csv(path)


def test_read_curves_accepts_the_smallest_stderrs_with_finite_weights(tmp_path):
    # 8e-155 squared is subnormal, yet its weight 1/stderr^2 is 1.5625e308
    path = tmp_path / "tiny.csv"
    path.write_text("experiment,projection,m,mean,stderr,K\nexp1,Q1,1,0.9,8e-155,5\n"
                    "exp1,Q1,2,0.8,1e-154,5\n")
    assert read_curves_csv(path)[0].stderr.tolist() == [8e-155, 1e-154]


def test_read_curves_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n")
    with pytest.raises(ValueError, match="header"):
        read_curves_csv(path)


@pytest.mark.parametrize(
    "bad_row, message",
    [
        ("exp1,Q1,8,nan,0.01,5", "non-finite"),
        ("exp1,Q1,8,0.9,inf,5", "non-finite"),
        ("exp1,Q1,2,0.9,0.01,5", "duplicate m=2"),
        ("exp1,Q1,8,0.9,0.01,6", "K=6"),
        ("exp1,Q1,0,0.9,0.01,5", "m=0 < 1"),
        ("exp2,Q2,8,0.9,0.01,1", "K=1 < 2"),
        ("exp2,Q2,8,0.9,0.01,-3", "K=-3 < 2"),
        ("exp1,Q1,4294967296,0.9,0.01,5", r"m >= 2\*\*32"),
        ("exp1,Q1,1" + "0" * 400 + ",0.9,0.01,5", r"m >= 2\*\*32"),
        ("exp1,Q1,8,0.9,1e-200,5", r"1/stderr\^2 overflows"),
        ("exp1,Q1,8,0.9,7e-155,5", r"1/stderr\^2 overflows"),
    ],
    ids=["nan_mean", "inf_stderr", "duplicate_m", "mixed_K", "m_zero", "K_one", "K_negative",
         "m_2_to_the_32", "m_huge", "stderr_squared_underflows", "weight_overflows"],
)
def test_read_curves_rejects_bad_values(tmp_path, bad_row, message):
    path = tmp_path / "bad.csv"
    path.write_text(
        "experiment,projection,m,mean,stderr,K\n"
        "exp1,Q1,1,0.95,0.01,5\nexp1,Q1,2,0.92,0.01,5\n"
        "exp1,Q2,2,0.99,0.01,6\n" + bad_row + "\n"
    )
    with pytest.raises(ValueError, match=rf"{message}.*line 5|line 5.*{message}"):
        read_curves_csv(path)
