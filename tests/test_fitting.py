import warnings
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rbaddr import fitting
from rbaddr.fitting import FitError, fit_correlation_curve, fit_exponential, fit_protocol_curves
from rbaddr.protocol import SurvivalCurve, decay_single
from rbaddr.twirl import gamma_decay_curve

M_GRID = np.array([1, 2, 4, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256])


def synthetic_curve(alpha, sigma, rng, amplitude=0.5, offset=0.5, m=M_GRID):
    y = decay_single(m, amplitude, alpha, offset)
    if sigma > 0:
        y = y + rng.normal(0, sigma, len(m))
    return m, y, np.full(len(m), max(sigma, 1e-6))


def as_curve(m, y, stderr, experiment="exp3", projection="CORR"):
    return SurvivalCurve(experiment, projection, np.asarray(m), np.asarray(y),
                         np.asarray(stderr), K=50)


def test_noiseless_fit_recovers_exactly():
    m, y, s = synthetic_curve(0.99, 0.0, None)
    fit = fit_exponential(m, y, s)
    assert fit.converged
    assert abs(fit.A - 0.5) < 1e-8
    assert abs(fit.alpha - 0.99) < 1e-8
    assert abs(fit.B - 0.5) < 1e-8
    assert all(fit.sigma(name) < 1e-6 for name in fit.param_names)


def test_noisy_fit_within_3ci():
    rng = np.random.default_rng(8)
    hits = 0
    for _ in range(100):
        m, y, s = synthetic_curve(0.9922, 0.005, rng)
        fit = fit_exponential(m, y, s)
        if abs(fit.alpha - 0.9922) <= 3 * fit.alpha_sigma:
            hits += 1
    assert hits >= 95


def test_coverage_calibration():
    rng = np.random.default_rng(9)
    repeats = 200
    hits = 0
    for _ in range(repeats):
        m, y, s = synthetic_curve(0.9922, 0.005, rng)
        fit = fit_exponential(m, y, s)
        if abs(fit.alpha - 0.9922) <= fit.alpha_sigma:
            hits += 1
    assert 0.58 <= hits / repeats <= 0.78


def test_constant_data_degenerate():
    m = M_GRID
    y = np.full(len(m), 0.25)
    fit = fit_exponential(m, y, np.full(len(m), 0.01))
    assert "degenerate" in fit.flags
    assert abs(fit.A) < 0.05


def test_too_few_points_or_bad_sigma():
    with pytest.raises(FitError):
        fit_exponential(np.array([1, 2, 3]), np.ones(3), np.ones(3))
    with pytest.raises(FitError):
        fit_exponential(M_GRID, np.ones(len(M_GRID)), np.zeros(len(M_GRID)))


def test_ci_scaling_with_doubled_sigma():
    rng = np.random.default_rng(10)
    m = M_GRID
    clean = decay_single(m, 0.5, 0.992, 0.5)
    noise = rng.normal(0, 0.004, len(m))
    fit1 = fit_exponential(m, clean + noise, np.full(len(m), 0.004))
    fit2 = fit_exponential(m, clean + 2 * noise, np.full(len(m), 0.008))
    for name in fit1.param_names:
        assert abs(fit2.sigma(name) / fit1.sigma(name) - 2) < 0.1


def test_sigma_is_the_scaled_covariance_diagonal():
    m, y, s = synthetic_curve(0.99, 0.002, np.random.default_rng(3))
    fit = fit_exponential(m, y, s)
    sigmas = [fit.sigma(name) for name in fit.param_names]
    assert np.allclose(sigmas, np.sqrt(np.diag(fit.covariance)))
    assert fit.to_dict()["ci68"] == fit.to_dict()["sigma"]


def test_reduced_chi_square_of_the_fit():
    m, y, s = synthetic_curve(0.99, 0.0, None)
    exact = fit_exponential(m, y, s)
    assert exact.dof == len(m) - 3
    assert exact.chi2 < 1e-12 and exact.chi2_reduced == exact.chi2 / exact.dof
    # alternating one-sigma offsets: the true curve scores chi2 = len(m)
    # and the best fit can absorb little of it
    shifted = fit_exponential(m, y + 0.1 * (-1.0) ** np.arange(len(m)), np.full(len(m), 0.1))
    assert 0.9 * len(m) < shifted.chi2 <= len(m)
    assert shifted.chi2 == pytest.approx(float(shifted.residuals @ shifted.residuals))
    assert shifted.chi2_reduced == pytest.approx(shifted.chi2 / (len(m) - 3))


def test_misfit_detection_on_non_exponential_decay():
    # single-subsystem decays are (Gamma^m)_00, not a pure exponential;
    # a strongly non-normal Gamma must blow up the chi-square
    gamma = np.array(
        [[0.97, 0.12, 0, 0], [-0.12, 0.9, 0, 0], [0, 0, 0.9, 0], [0, 0, 0, 0.9]]
    )
    m = M_GRID
    y = 0.5 + 0.5 * gamma_decay_curve(gamma, m)
    fit = fit_exponential(m, y, np.full(len(m), 1e-4))
    assert fit.chi2_reduced > 2


def test_fit_invariant_under_point_permutation():
    rng = np.random.default_rng(12)
    m, y, s = synthetic_curve(0.99, 0.003, rng)
    fit = fit_exponential(m, y, s)
    perm = rng.permutation(len(m))
    fit_p = fit_exponential(m[perm], y[perm], s[perm])
    assert np.allclose(fit.params, fit_p.params, atol=1e-10)


@given(
    alpha=st.floats(0.95, 0.999),
    amplitude=st.floats(0.2, 0.6),
    offset=st.floats(0.25, 0.5),
    sigma=st.floats(1e-4, 5e-3),
    seed=st.integers(0, 2**32 - 1),
    perm=st.permutations(range(len(M_GRID))),
)
@settings(max_examples=40, deadline=None)
# a recorded failure: two row orders converged 5e-5 apart in B
@example(alpha=0.999, amplitude=0.5859375, offset=0.5, sigma=0.0016811582565080313, seed=401,
         perm=[*range(11), 12, 13, 11])
def test_fit_invariant_under_row_permutation_property(alpha, amplitude, offset, sigma, seed, perm):
    # the fit depends on the set of (m, y, stderr) rows, not on their order
    rng = np.random.default_rng(seed)
    m, y, s = synthetic_curve(alpha, sigma, rng, amplitude=amplitude, offset=offset)
    s = s * rng.uniform(0.5, 2.0, len(m))
    fit = fit_exponential(m, y, s)
    perm = np.array(perm)
    fit_p = fit_exponential(m[perm], y[perm], s[perm])
    assert fit.converged and fit_p.converged
    assert np.allclose(fit_p.params, fit.params, rtol=1e-6, atol=0)


def test_gradient_norm_small_at_converged_fit():
    rng = np.random.default_rng(6)
    m, y, s = synthetic_curve(0.992, 0.004, rng)
    fit = fit_exponential(m, y, s)
    am = fit.alpha ** m.astype(float)
    jac = np.stack(
        [am, fit.A * m * fit.alpha ** (m - 1.0), np.ones(len(m))], axis=1
    ) / s[:, None]
    grad = jac.T @ fit.residuals
    # stationarity relative to the curvature scale of the objective
    assert np.linalg.norm(grad) < 1e-6 * np.trace(jac.T @ jac)


def test_estimator_consistency_with_shrinking_noise():
    rng = np.random.default_rng(14)
    sigmas = []
    errors = []
    for scale in (0.01, 0.005, 0.001):
        m, y, s = synthetic_curve(0.992, scale, rng)
        fit = fit_exponential(m, y, s)
        sigmas.append(fit.alpha_sigma)
        errors.append(abs(fit.alpha - 0.992))
        assert abs(fit.alpha - 0.992) < 4 * fit.alpha_sigma
    assert sigmas[0] > sigmas[1] > sigmas[2]


def test_against_scipy_curve_fit_oracle():
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(16)
    m, y, s = synthetic_curve(0.995, 0.004, rng)
    fit = fit_exponential(m, y, s)

    def model(mm, a, alpha, b):
        return a * alpha**mm + b

    popt, pcov = scipy_opt.curve_fit(
        model, m.astype(float), y, p0=[0.5, 0.99, 0.5], sigma=s, absolute_sigma=False
    )
    assert np.allclose(fit.params, popt, atol=1e-6)
    # scipy scales by chi2/dof too when absolute_sigma=False
    assert np.allclose(np.sqrt(np.diag(pcov)), [fit.sigma(n) for n in fit.param_names], rtol=1e-3)


@given(st.floats(0.9, 0.999), st.floats(0.1, 0.6))
@settings(max_examples=20, deadline=None)
def test_fit_recovers_varied_parameters(alpha, amplitude):
    m = M_GRID
    y = decay_single(m, amplitude, alpha, 0.5)
    fit = fit_exponential(m, y, np.full(len(m), 1e-5))
    assert abs(fit.alpha - alpha) < 1e-6


# ---------------------------------------------------------------------------
# correlation fitting


def test_correlation_fit_product_noise():
    rng = np.random.default_rng(18)
    a1, a2 = 0.995, 0.991
    m = M_GRID
    y = decay_single(m, 0.5, a1 * a2, 0.5) + rng.normal(0, 0.002, len(m))
    fit = fit_correlation_curve(m, y, np.full(len(m), 0.002), a1, a2)
    assert abs(fit.alpha - a1 * a2) < 3 * fit.alpha_sigma


def test_correlation_fit_with_true_background():
    rng = np.random.default_rng(19)
    a1, a2, a12 = 0.996, 0.992, 0.9
    m = M_GRID
    y = (
        0.1 * a1**m.astype(float)
        + 0.15 * a2**m.astype(float)
        + 0.25 * a12**m.astype(float)
        + 0.25
        + rng.normal(0, 0.0005, len(m))
    )
    fit = fit_correlation_curve(m, y, np.full(len(m), 0.0005), a1, a2)
    assert fit.model == "correlation_with_background"
    assert abs(fit.alpha - a12) < 4 * fit.alpha_sigma


def test_correlation_fit_merged_background_when_rates_equal():
    rng = np.random.default_rng(20)
    m = M_GRID
    y = decay_single(m, 0.5, 0.98, 0.5) + rng.normal(0, 0.001, len(m))
    fit = fit_correlation_curve(m, y, np.full(len(m), 0.001), 0.99, 0.99)
    assert fit.converged


def test_fit_protocol_curves_maps_alphas():
    rng = np.random.default_rng(21)
    curves = []
    for experiment, projection, alpha in (
        ("exp1", "Q1", 0.995), ("exp1", "Q2", 0.999),
        ("exp2", "Q1", 0.999), ("exp2", "Q2", 0.993),
        ("exp3", "Q1", 0.992), ("exp3", "Q2", 0.99), ("exp3", "CORR", 0.982),
    ):
        m, y, s = synthetic_curve(alpha, 0.002, rng)
        curves.append(as_curve(m, y, s, experiment, projection))
    result = fit_protocol_curves(curves)
    assert set(result["alpha_fits"]) == {
        "alpha_1", "alpha_2", "alpha_1_2", "alpha_2_1", "alpha_12",
    }
    assert abs(result["alpha_fits"]["alpha_1"].alpha - 0.995) < 0.002


def test_fit_protocol_curves_partial():
    rng = np.random.default_rng(22)
    m, y, s = synthetic_curve(0.99, 0.002, rng)
    result = fit_protocol_curves([as_curve(m, y, s, "exp1", "Q1")])
    assert set(result["alpha_fits"]) == {"alpha_1"}


# ---------------------------------------------------------------------------
# flags and fallbacks


def protocol_curves(rng, corr_y, corr_stderr):
    """Fittable exp3 Q1/Q2 curves plus the given correlation curve."""
    curves = []
    for projection, alpha in (("Q1", 0.992), ("Q2", 0.99)):
        m, y, s = synthetic_curve(alpha, 0.002, rng)
        curves.append(as_curve(m, y, s, "exp3", projection))
    return curves + [as_curve(M_GRID, corr_y, corr_stderr)]


def test_growing_curve_flags_alpha_outside_unit_interval():
    m = M_GRID
    y = 0.3 + 0.05 * 1.004 ** m.astype(float)
    fit = fit_exponential(m, y, np.full(len(m), 1e-3))
    assert fit.alpha > 1
    assert fit.flags == ("alpha_outside_(0,1]",)


def test_all_zero_stderr_curve_is_flagged_deterministic():
    m = M_GRID
    curve = as_curve(m, decay_single(m, 0.5, 0.99, 0.5), np.zeros(len(m)), "exp1", "Q1")
    fit = fit_protocol_curves([curve])["fits"][("exp1", "Q1")]
    assert fit.flags[-1] == "deterministic_curve"
    assert abs(fit.alpha - 0.99) < 1e-8
    assert fit.curve_meta == {"experiment": "exp1", "projection": "Q1", "max_m": 256}


def test_single_exponential_correlation_falls_back():
    rng = np.random.default_rng(18)
    m = M_GRID
    y = decay_single(m, 0.5, 0.995 * 0.991, 0.5) + rng.normal(0, 0.002, len(m))
    fit = fit_correlation_curve(m, y, np.full(len(m), 0.002), 0.995, 0.991)
    assert fit.model == "correlation_single_exponential"
    assert fit.param_names == ("A", "alpha", "B")
    assert fit.flags[-1] == "background_consistent_with_zero"
    assert fit.dof == len(m) - 3
    assert "background_rates" not in fit.curve_meta


def test_degenerate_background_fit_falls_back():
    # a correlation rate within 5e-4 of a background rate leaves the
    # background amplitudes unidentifiable
    a1, a2, a12 = 0.996, 0.95, 0.9965
    m = M_GRID.astype(float)
    y = 0.2 * a1**m + 0.15 * a2**m + 0.25 * a12**m + 0.25
    fit = fit_correlation_curve(M_GRID, y, np.full(len(m), 1e-4), a1, a2)
    assert fit.model == "correlation_single_exponential"
    assert fit.flags == ("background_fit_degenerate",)


def test_deterministic_constant_correlation_flags_in_order():
    rng = np.random.default_rng(23)
    curves = protocol_curves(rng, np.full(len(M_GRID), 0.25), np.zeros(len(M_GRID)))
    fit = fit_protocol_curves(curves)["fits"][("exp3", "CORR")]
    assert fit.model == "correlation_single_exponential"
    assert fit.flags == ("degenerate", "background_consistent_with_zero", "deterministic_curve")
    assert fit.curve_meta == {"experiment": "exp3", "projection": "CORR", "max_m": 256}


def test_correlation_rate_near_background_rate_is_flagged():
    a1, a2, a12 = 0.996, 0.95, 0.9955
    m = M_GRID.astype(float)
    y = 0.2 * a1**m + 0.15 * a2**m + 0.25 * a12**m + 0.25
    fit = fit_correlation_curve(M_GRID, y, np.full(len(m), 1e-4), a1, a2)
    assert fit.model == "correlation_with_background"
    assert fit.flags == ("alpha12_near_subsystem_rate",)
    assert np.allclose(fit.params, [0.25, a12, 0.2, 0.15, 0.25], atol=1e-6)


def test_merged_background_has_one_amplitude():
    rng = np.random.default_rng(24)
    a = 0.99
    m = M_GRID.astype(float)
    y = 0.2 * a**m + 0.3 * 0.9**m + 0.25 + rng.normal(0, 5e-4, len(m))
    fit = fit_correlation_curve(M_GRID, y, np.full(len(m), 5e-4), a, a)
    assert fit.model == "correlation_with_background"
    assert fit.param_names == ("A", "alpha", "A1", "B")
    assert fit.curve_meta["background_rates"] == [a]
    assert fit.dof == len(m) - 4
    assert np.allclose(fit.evaluate(m), y, atol=3e-3)


def test_too_few_points_for_background_model():
    m = M_GRID[:5]
    y = decay_single(m, 0.5, 0.98, 0.5)
    with pytest.raises(FitError, match="too few points for the background model"):
        fit_correlation_curve(m, y, np.full(5, 1e-3), 0.99, 0.98)
    with pytest.raises(FitError, match="too few points for the background model"):
        fit_correlation_curve(m[:4], y[:4], np.full(4, 1e-3), 0.99, 0.99)


def test_zero_stderr_correlation_fails_before_the_fit(capfd):
    rng = np.random.default_rng(25)
    y = decay_single(M_GRID, 0.5, 0.98, 0.5) + rng.normal(0, 0.002, len(M_GRID))
    stderr = np.full(len(M_GRID), 0.002)
    stderr[3] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fits = fit_protocol_curves(protocol_curves(rng, y, stderr))["fits"]
    assert fits[("exp3", "CORR")] == {
        "experiment": "exp3",
        "projection": "CORR",
        "error": "all standard errors must be positive",
    }
    assert capfd.readouterr() == ("", "")


# ---------------------------------------------------------------------------
# Reference Levenberg-Marquardt: the plain loop, which evaluates the model
# and its Jacobian through separate functions on every trial point.  The
# library's loop computes each number once but must match it bit for bit.

LM_MAX_ITER = 500
LM_CHI2_RTOL = 1e-10
LM_STEP_TOL = 1e-12
LM_LAMBDA0 = 1e-3


def _reference_lm(model_fn, jac_fn, p0, m, y, sigma):
    """Core Levenberg-Marquardt loop on weighted residuals.

    Damping lambda starts at 1e-3, x10 on a rejected step, /10 on an
    accepted one; converged when the relative chi2 change drops below
    1e-10 or the step norm below 1e-12.
    """
    w = 1.0 / sigma
    p = np.asarray(p0, dtype=float).copy()
    resid = (y - model_fn(p, m)) * w
    chi2 = float(resid @ resid)
    lam = LM_LAMBDA0
    converged = False
    iterations = 0
    for iterations in range(1, LM_MAX_ITER + 1):
        jac = jac_fn(p, m) * w[:, None]
        g = jac.T @ resid
        jtj = jac.T @ jac
        step_ok = False
        for _ in range(50):
            damped = jtj + lam * np.diag(np.maximum(np.diag(jtj), 1e-300))
            try:
                step = np.linalg.solve(damped, g)
            except np.linalg.LinAlgError:
                lam *= 10
                continue
            p_try = p + step
            resid_try = (y - model_fn(p_try, m)) * w
            chi2_try = float(resid_try @ resid_try)
            if np.isfinite(chi2_try) and chi2_try <= chi2:
                step_ok = True
                break
            lam *= 10
        if not step_ok:
            converged = True  # no descent direction left: at a minimum
            break
        rel_drop = (chi2 - chi2_try) / max(chi2, 1e-300)
        p, resid, chi2 = p_try, resid_try, chi2_try
        lam = max(lam / 10, 1e-12)
        if rel_drop < LM_CHI2_RTOL or np.linalg.norm(step) < LM_STEP_TOL:
            converged = True
            break
    jac = jac_fn(p, m) * w[:, None]
    jtj = jac.T @ jac
    flags: list[str] = []
    try:
        cov = np.linalg.inv(jtj)
        if np.linalg.cond(jtj) > 1e12:
            flags.append("degenerate")
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(jtj)
        flags.append("degenerate")
    return p, cov, chi2, resid, iterations, converged, flags


def _reference_decay_jac(p, m, rates=()):
    """Columns dF/dp of ``_decay``: alpha^m, A m alpha^(m-1), rate_i^m, 1."""
    am = np.power(p[1], m)
    with np.errstate(divide="ignore", invalid="ignore"):
        dalpha = p[0] * m * np.power(p[1], np.maximum(m - 1, 0))
    return np.stack([am, dalpha, *(rate**m for rate in rates), np.ones_like(am)], axis=1)


def reference_lm(p0, m, y, sigma, rates=()):
    """``fitting._lm``'s interface on the reference loop."""
    return _reference_lm(
        partial(fitting._decay, rates=rates),
        partial(_reference_decay_jac, rates=rates),
        p0, m, y, sigma,
    )


def fingerprint(fit):
    """Every number and label of a DecayFit, floats as their bytes."""
    return (
        fit.model, fit.param_names, fit.params.tobytes(), fit.covariance.tobytes(),
        fit.residuals.tobytes(), np.float64(fit.chi2).tobytes(), fit.dof,
        np.float64(fit.chi2_reduced).tobytes(), fit.iterations, fit.converged,
        fit.flags, fit.curve_meta,
    )


def run_with_both_lms(fit_fn):
    """``fit_fn()`` on the reference loop and on the library's.  The two fits
    must agree in every byte, and the library may raise no more
    RuntimeWarnings than the reference; returns both warning counts,
    reference first."""
    outcomes = []
    for lm in (reference_lm, fitting._lm):
        with mock.patch.object(fitting, "_lm", lm), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit = fit_fn()
        outcomes.append(
            (fingerprint(fit), sum(issubclass(w.category, RuntimeWarning) for w in caught))
        )
    (reference, reference_warnings), (library, library_warnings) = outcomes
    assert library == reference
    assert library_warnings <= reference_warnings
    return reference_warnings, library_warnings


@given(
    kind=st.sampled_from(["single", "merged_background", "two_rate_background"]),
    ms=st.lists(st.integers(1, 512), min_size=5, max_size=16, unique=True),
    alpha=st.floats(0.9, 0.999),
    rates=st.tuples(st.floats(0.9, 0.999), st.floats(0.9, 0.999)),
    amplitudes=st.tuples(st.floats(-0.2, 0.6), st.floats(-0.2, 0.3), st.floats(-0.2, 0.3)),
    offset=st.floats(0.25, 0.5),
    sigma=st.floats(1e-4, 5e-3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_lm_matches_reference_bit_for_bit(kind, ms, alpha, rates, amplitudes, offset, sigma,
                                          seed):
    rng = np.random.default_rng(seed)
    m = np.array(sorted(ms), dtype=float)
    rates = {"single": (), "merged_background": rates[:1], "two_rate_background": rates}[kind]
    assume(len(m) > len(rates) + 3)  # the callers' point-count check
    y = amplitudes[0] * alpha**m + offset + rng.normal(0, sigma, len(m))
    for amp, rate in zip(amplitudes[1:], rates):
        y = y + amp * rate**m
    s = sigma * rng.uniform(0.5, 2.0, len(m))
    seed_p = fitting._initial_guess(m, y)
    p0 = np.concatenate([seed_p[:2], np.zeros(len(rates)), seed_p[2:]])
    names = ("A", "alpha", *(f"A{i + 1}" for i in range(len(rates))), "B")
    run_with_both_lms(lambda: fitting._fit(kind, names, p0, m, y, s, rates))


def permutation_property_curve(amplitude, seed):
    # the input curves of recorded failures of the row-permutation property
    rng = np.random.default_rng(seed)
    m, y, s = synthetic_curve(0.999, 0.00390625, rng, amplitude=amplitude, offset=0.5)
    return m, y, s * rng.uniform(0.5, 2.0, len(m))


@pytest.mark.parametrize("amplitude, seed", [(0.5, 745), (0.25, 2), (0.5, 13228)])
def test_lm_matches_reference_on_recorded_slow_decays(amplitude, seed):
    # each of these runs into the iteration cap, so the cap path is compared too
    m, y, s = permutation_property_curve(amplitude, seed)
    assert run_with_both_lms(lambda: fit_exponential(m, y, s))[1] == 0
    assert fit_exponential(m, y, s).iterations == LM_MAX_ITER


def test_fits_are_bitwise_independent_of_row_order():
    rng = np.random.default_rng(21)
    m, y, s = synthetic_curve(0.99, 0.003, rng)
    s = s * rng.uniform(0.5, 2.0, len(m))
    perm = rng.permutation(len(m))
    for fit_fn in (fit_exponential, partial(fit_correlation_curve, alpha_1_2=0.995,
                                            alpha_2_1=0.98)):
        fit, fit_p = fit_fn(m, y, s), fit_fn(m[perm], y[perm], s[perm])
        assert fit_p.params.tobytes() == fit.params.tobytes()
        assert fit_p.covariance.tobytes() == fit.covariance.tobytes()
        # residuals stay in the caller's row order
        assert fit_p.residuals.tobytes() == fit.residuals[perm].tobytes()


def test_lm_matches_reference_on_three_decay_correlation_curve():
    # 0.1 0.996^m + 0.15 0.95^m + 0.25 0.9^m + 0.25: the background fit runs
    # onto a background rate and the single-exponential fallback takes over
    rng = np.random.default_rng(0)
    m = M_GRID.astype(float)
    y = 0.1 * 0.996**m + 0.15 * 0.95**m + 0.25 * 0.9**m + 0.25 + rng.normal(0, 5e-4, len(m))
    s = np.full(len(m), 5e-4)
    run_with_both_lms(lambda: fit_correlation_curve(m, y, s, 0.996, 0.95))
    assert "background_fit_degenerate" in fit_correlation_curve(m, y, s, 0.996, 0.95).flags


# a flat exp1/Q1 curve at the 1/4 floor, K=20: LM tries steps that overflow
# (alpha far above 1) and rejects them
RUN_OFF_M = np.array([67, 77, 104, 119, 133, 186, 200, 307, 325, 332, 488], dtype=float)
RUN_OFF_MEAN = np.array(
    [0.2466, 0.2440, 0.2348, 0.2396, 0.2555, 0.2437, 0.2444, 0.2492, 0.2501, 0.2415, 0.2470]
)


def test_lm_rejects_run_off_steps_without_warnings():
    s = np.full(len(RUN_OFF_M), 0.0047)
    reference_warnings, library_warnings = run_with_both_lms(
        lambda: fit_exponential(RUN_OFF_M, RUN_OFF_MEAN, s)
    )
    assert reference_warnings > 0  # the curve does run off
    assert library_warnings == 0
