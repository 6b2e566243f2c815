import numpy as np
import pytest

from rbaddr.cliffords import element_slots, get_group
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
    RBConfig,
    SpamModel,
    decay_gamma,
    decay_single,
    decay_triple,
    generate_sequence,
    read_curves_csv,
    run_experiment,
    run_protocol,
    simulate_sequence,
    write_curves_csv,
)


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
        RBConfig(granularity="per_pulse")


def test_generate_sequence_closures(cxc):
    rng = np.random.default_rng(0)
    for _ in range(100):
        m = int(rng.integers(1, 30))
        indices, recovery = generate_sequence(cxc, m, rng)
        total = np.eye(16)
        for i in indices:
            total = cxc.ptm(int(i)) @ total
        total = cxc.ptm(recovery) @ total
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
        len(element_slots(cxc.elements[int(i)])) for i in (*indices, recovery)
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


def _slot_loop_populations(group, indices, recovery, gateset, spam, granularity):
    """Reference propagation: one mat-vec per generator slot (per element
    and its error channel with granularity 'clifford')."""
    state = spam.prep.copy()
    for idx in (*indices, recovery):
        element = group.elements[int(idx)]
        if granularity == "clifford":
            state = gateset.clifford_error() @ (element.ptm @ state)
        else:
            for slot in element_slots(element):
                state = gateset.channel(slot) @ state
    return spam.populations(state)


_MISASSIGNED = SpamModel.perfect().with_misassignment(
    0.88 * np.eye(4) + 0.03 * np.ones((4, 4))
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
    cfg = RBConfig(
        lengths=(1, 3, 8), K=4, seed=19, spam=spam, granularity=granularity,
        shots=shots, keep_raw=True,
    )
    gateset = NoisyGateSet(model)
    for experiment, code in EXPERIMENT_CODES.items():
        group = get_group(EXPERIMENT_GROUPS[experiment])
        curves = run_experiment(cfg, model, experiment)
        for mi, m in enumerate(cfg.lengths):
            for k in range(cfg.K):
                rng = np.random.default_rng([cfg.seed, code, m, k])
                indices, recovery = generate_sequence(group, m, rng)
                pops = simulate_sequence(
                    group, indices, recovery, gateset, spam, granularity
                )
                reference = _slot_loop_populations(
                    group, indices, recovery, gateset, spam, granularity
                )
                assert np.max(np.abs(pops - reference)) < 1e-12
                if shots is not None:
                    probs = np.clip(pops, 0.0, None)
                    pops = rng.multinomial(shots, probs / probs.sum()) / shots
                sums = {"Q1": pops[0] + pops[1], "Q2": pops[0] + pops[2],
                        "CORR": pops[0] + pops[3]}
                for proj, curve in curves.items():
                    assert abs(curve.raw[mi, k] - sums[proj]) < 1e-12


def test_run_experiment_ideal_constant_one():
    cfg = RBConfig(lengths=(1, 2, 4), K=3, seed=0)
    for experiment in ("exp1", "exp2", "exp3"):
        curves = run_experiment(cfg, Ideal(), experiment)
        for curve in curves.values():
            assert np.allclose(curve.mean, 1.0, atol=1e-12)
    assert set(run_experiment(cfg, Ideal(), "exp3")) == {"Q1", "Q2", "CORR"}
    assert set(run_experiment(cfg, Ideal(), "exp1")) == {"Q1", "Q2"}


def test_run_experiment_depolarizing_fit_recovers_alpha():
    from rbaddr.cliffords import generate_c1

    alpha_g = 0.99
    cfg = RBConfig(lengths=(1, 2, 4, 8, 16, 32, 64, 128), K=40, seed=7)
    curves = run_experiment(cfg, Depolarizing(alpha_g), "exp3")
    fit = fit_exponential(curves["Q1"])
    lens = generate_c1().word_slot_counts()
    expected = np.mean([alpha_g ** max(a, b) for a in lens for b in lens])
    assert abs(fit.alpha - expected) < 3 * fit.alpha_sigma


def test_exp3_product_noise_corr_consistent():
    cfg = RBConfig(lengths=(1, 2, 4, 8, 16, 32, 64), K=40, seed=11)
    curves = run_experiment(cfg, Depolarizing(0.995, 0.99), "exp3")
    f1 = fit_exponential(curves["Q1"])
    f2 = fit_exponential(curves["Q2"])
    fc = fit_exponential(curves["CORR"])
    product = f1.alpha * f2.alpha
    sigma = np.sqrt(
        fc.alpha_sigma**2
        + (f2.alpha * f1.alpha_sigma) ** 2
        + (f1.alpha * f2.alpha_sigma) ** 2
    )
    assert abs(fc.alpha - product) < 4 * sigma


def test_symmetric_model_exp1_exp2_consistent():
    cfg = RBConfig(lengths=(1, 2, 4, 8, 16, 32, 64), K=40, seed=13)
    f1 = fit_exponential(run_experiment(cfg, Depolarizing(0.995), "exp1")["Q1"])
    f2 = fit_exponential(run_experiment(cfg, Depolarizing(0.995), "exp2")["Q2"])
    sigma = np.hypot(f1.alpha_sigma, f2.alpha_sigma)
    assert abs(f1.alpha - f2.alpha) < 3 * sigma


def test_bitwise_reproducibility():
    cfg = RBConfig(lengths=(1, 4, 16), K=5, seed=21)
    a = run_experiment(cfg, Depolarizing(0.99), "exp3")
    b = run_experiment(cfg, Depolarizing(0.99), "exp3")
    for key in a:
        assert np.array_equal(a[key].mean, b[key].mean)
        assert np.array_equal(a[key].stderr, b[key].stderr)


def test_raw_values_retained_on_request():
    cfg = RBConfig(lengths=(1, 4, 16), K=5, seed=21, keep_raw=True)
    curves = run_experiment(cfg, Depolarizing(0.99), "exp3")
    assert curves["Q1"].raw.shape == (3, 5)
    assert np.allclose(curves["Q1"].raw.mean(axis=1), curves["Q1"].mean)
    assert run_experiment(
        RBConfig(lengths=(1, 4, 16), K=5, seed=21), Depolarizing(0.99), "exp3"
    )["Q1"].raw is None


def test_per_clifford_granularity():
    # one dep(0.99) per Clifford makes the per-sequence survival exactly
    # (1 + 0.99^(m+1))/2 independent of the drawn elements
    cfg = RBConfig(lengths=(1, 2, 4, 8, 16, 32), K=5, seed=3, granularity="clifford")
    curves = run_experiment(cfg, Depolarizing(0.99), "exp3")
    ms = curves["Q1"].m.astype(float)
    assert np.allclose(curves["Q1"].mean, (1 + 0.99 ** (ms + 1)) / 2, atol=1e-12)
    assert np.allclose(curves["Q1"].stderr, 0.0, atol=1e-15)
    # with shot noise the fitted rate recovers alpha itself
    cfg_shots = RBConfig(
        lengths=(1, 2, 4, 8, 16, 32, 64), K=30, seed=3,
        granularity="clifford", shots=400,
    )
    fit = fit_exponential(run_experiment(cfg_shots, Depolarizing(0.99), "exp3")["Q1"])
    assert abs(fit.alpha - 0.99) < 3 * fit.alpha_sigma


def test_shot_noise_mode():
    cfg = RBConfig(lengths=(1, 2, 4), K=5, seed=9, shots=200)
    curves = run_experiment(cfg, Depolarizing(0.95), "exp3")
    means = curves["Q1"].mean
    assert np.all((means >= 0) & (means <= 1))
    again = run_experiment(cfg, Depolarizing(0.95), "exp3")
    assert np.array_equal(curves["Q1"].mean, again["Q1"].mean)


def test_spam_misassignment():
    flip = np.array(
        [[0.9, 0.1, 0, 0], [0.1, 0.9, 0, 0], [0, 0, 1.0, 0], [0, 0, 0, 1.0]]
    )
    spam = SpamModel.perfect().with_misassignment(flip)
    pops = spam.populations(SpamModel.perfect().prep)
    assert pops[0] == pytest.approx(0.9)
    assert pops[1] == pytest.approx(0.1)
    with pytest.raises(ValueError):
        SpamModel.perfect().with_misassignment(np.eye(4) * 2)


def test_spam_errors_absorbed_into_amplitude():
    # misassignment changes A and B of the decay, not the rate
    eps = 0.03
    flip = (1 - 4 * eps) * np.eye(4) + eps * np.ones((4, 4))
    cfg = RBConfig(lengths=(1, 2, 4, 8, 16, 32, 64), K=40, seed=15)
    cfg_spam = RBConfig(
        lengths=cfg.lengths, K=cfg.K, seed=cfg.seed,
        spam=SpamModel.perfect().with_misassignment(flip),
    )
    clean = fit_exponential(run_experiment(cfg, Depolarizing(0.99), "exp1")["Q1"])
    dirty = fit_exponential(run_experiment(cfg_spam, Depolarizing(0.99), "exp1")["Q1"])
    sigma = np.hypot(clean.alpha_sigma, dirty.alpha_sigma)
    assert abs(clean.alpha - dirty.alpha) < 3 * sigma
    assert dirty.A < clean.A


def test_uncorrelated_noise_null_addressability():
    # per-Clifford product noise: the full pipeline must find no
    # addressability signal and no correlation beyond 3 sigma
    from rbaddr.fitting import fit_protocol_curves
    from rbaddr.report import build_report

    cfg = RBConfig(
        lengths=(1, 2, 4, 8, 16, 32, 64, 128), K=40, seed=17,
        granularity="clifford", shots=800,
    )
    curves = run_protocol(cfg, Depolarizing(0.995, 0.99))
    report = build_report(fit_protocol_curves(curves)["alpha_fits"])
    assert report.complete
    assert abs(report.dr1_given_2.value) < 3 * report.dr1_given_2.sigma
    assert abs(report.dr2_given_1.value) < 3 * report.dr2_given_1.sigma
    assert abs(report.dalpha.value) < 3 * report.dalpha.sigma


# ---------------------------------------------------------------------------
# decay models


def test_decay_single_flat():
    assert np.allclose(decay_single([1, 5, 100], 0.5, 1.0, 0.5), 1.0)


def test_decay_triple_reduces():
    m = np.array([0, 1, 2, 8])
    lhs = decay_triple(m, 0.3, 0.9, 0.2, 0.8, 0.0, 0.7, 0.25)
    rhs = 0.3 * 0.9**m + 0.2 * 0.8**m + 0.25
    assert np.allclose(lhs, rhs)


def test_p00_triple_exponential_structure():
    # per-Clifford product depolarizing: p00 follows the three-exponential
    # law with equal quarter amplitudes from the |00><00| Pauli expansion
    a1, a2 = 0.97, 0.94
    cfg = RBConfig(lengths=(1, 2, 3, 5, 8), K=10, seed=1, granularity="clifford")
    group = get_group("cxc")
    gateset = NoisyGateSet(Depolarizing(a1, a2))
    rng = np.random.default_rng(33)
    for m in cfg.lengths:
        indices, recovery = generate_sequence(group, m, rng)
        pops = simulate_sequence(
            group, indices, recovery, gateset, SpamModel.perfect(), "clifford"
        )
        n = m + 1  # recovery carries a noise channel too
        expected = decay_triple(
            np.array([n]), 0.25, a1, 0.25, a2, 0.25, a1 * a2, 0.25
        )[0]
        assert pops[0] == pytest.approx(expected, abs=1e-12)


def test_decay_gamma_matches_matrix_powers():
    gamma = np.diag([0.95, 0.9, 0.9, 0.8])
    vals = decay_gamma([0, 1, 2, 3], 0.5, gamma, 0.5)
    assert np.allclose(vals, 0.5 + 0.5 * 0.95 ** np.array([0, 1, 2, 3.0]))


# ---------------------------------------------------------------------------
# CSV round trip


def test_curves_csv_round_trip(tmp_path):
    cfg = RBConfig(lengths=(1, 2, 4), K=4, seed=2)
    curves = run_protocol(cfg, Depolarizing(0.99))
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
    ],
    ids=["nan_mean", "inf_stderr", "duplicate_m", "mixed_K"],
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
