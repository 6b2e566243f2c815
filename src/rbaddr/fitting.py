"""Weighted nonlinear least squares for exponential survival decays.

Levenberg-Marquardt with analytic Jacobians on the objective
sum_i (x_i - F(m_i))^2 / sigma_i^2.  Parameter uncertainties come from
the Jacobian at the best fit: covariance (J^T W J)^-1 scaled by the
reduced chi-square, with 68% intervals taken as one scaled sigma.
Every fit, single-exponential or correlation, runs through ``_fit``.
The LM loop evaluates the model once per trial point and reuses alpha^m
as the next Jacobian's first column.  It solves each damped system with
the LAPACK gufunc that ``np.linalg.solve`` wraps, without the wrapper's
per-call checks: a singular system comes back as a NaN step, which the
finite-chi2 test rejects, raising the damping as the reference loop does
on np.linalg.solve's LinAlgError.  The loop keeps every floating-point
operation of that plain loop, which lives in the tests as the reference
each fit must match bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial, wraps

import numpy as np
from numpy.linalg import _umath_linalg

LM_MAX_ITER = 500
LM_CHI2_RTOL = 1e-10
LM_STEP_TOL = 1e-12
LM_LAMBDA0 = 1e-3


@dataclass
class DecayFit:
    """Result of a weighted decay fit."""

    model: str
    param_names: tuple[str, ...]
    params: np.ndarray
    covariance: np.ndarray  # chi2/dof-scaled; what the intervals use
    chi2: float
    dof: int
    chi2_reduced: float
    residuals: np.ndarray  # weighted residuals (y - F)/sigma
    converged: bool
    iterations: int
    flags: tuple[str, ...] = ()
    curve_meta: dict = field(default_factory=dict)

    def value(self, name: str) -> float:
        return float(self.params[self.param_names.index(name)])

    def sigma(self, name: str) -> float:
        i = self.param_names.index(name)
        return float(np.sqrt(max(self.covariance[i, i], 0.0)))

    @property
    def A(self) -> float:
        return self.value("A")

    @property
    def alpha(self) -> float:
        return self.value("alpha")

    @property
    def B(self) -> float:
        return self.value("B")

    @property
    def alpha_sigma(self) -> float:
        return self.sigma("alpha")

    def evaluate(self, m) -> np.ndarray:
        """The fitted curve at sequence lengths m, background terms included."""
        rates = self.curve_meta.get("background_rates", ())
        return _decay(self.params, np.asarray(m, dtype=float), rates)

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "params": {n: float(v) for n, v in zip(self.param_names, self.params)},
            "sigma": {n: self.sigma(n) for n in self.param_names},
            "ci68": {n: self.sigma(n) for n in self.param_names},  # 1-sigma
            "chi2": self.chi2,
            "dof": self.dof,
            "chi2_reduced": self.chi2_reduced,
            "converged": self.converged,
            "iterations": self.iterations,
            "flags": list(self.flags),
            "residuals": [float(r) for r in self.residuals],
            **self.curve_meta,
        }


class FitError(RuntimeError):
    pass


def _lm(p0, m, y, sigma, rates=()):
    """Levenberg-Marquardt on the weighted residuals (y - F) / sigma of
    F = ``_decay(p, m, rates)``.

    Damping lambda starts at 1e-3, x10 on a rejected step, /10 on an
    accepted one; converged when the relative chi2 change drops below
    1e-10 or the step norm below 1e-12.  The loop builds F and its
    Jacobian (columns alpha^m, A m alpha^(m-1), rate_i^m, 1) itself: the
    weights, background powers and constant columns once per fit,
    alpha^m once per trial point (the next Jacobian's first column), the
    damping diagonal once per iteration.  Each number is computed by the
    same operations in the same order as the model written out.  A
    normal matrix that overflows at the final point raises FitError.
    """
    w = 1.0 / sigma
    m_prev = np.maximum(m - 1, 0)
    background = [rate**m for rate in rates]
    # C-ordered like the stacked columns, so the BLAS products round the same
    jac = np.empty((len(m), len(p0)))
    for col, term in enumerate(background, start=2):
        jac[:, col] = term * w
    jac[:, -1] = w  # ones * w

    def trial(p):
        """alpha^m and the weighted residuals at p."""
        am = np.power(p[1], m)
        out = p[0] * am + p[-1]
        for amp, term in zip(p[2:-1], background):
            out = out + amp * term
        return am, (y - out) * w

    def fill_jacobian(p, am):
        np.multiply(am, w, out=jac[:, 0])
        dalpha = p[0] * m * np.power(p[1], m_prev)
        np.multiply(dalpha, w, out=jac[:, 1])

    scale = np.zeros((len(p0), len(p0)))
    scale_diagonal = scale.reshape(-1)[:: len(p0) + 1]  # a writable view
    p = np.asarray(p0, dtype=float).copy()
    am, resid = trial(p)
    chi2 = float(resid @ resid)
    lam = LM_LAMBDA0
    converged = False
    iterations = 0
    # a trial step that runs off, or the NaN step of a singular system, is
    # rejected by the finite-chi2 test; its overflow or invalid flag is noise
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for iterations in range(1, LM_MAX_ITER + 1):
            fill_jacobian(p, am)
            g = jac.T @ resid
            jtj = jac.T @ jac
            np.maximum(jtj.diagonal(), 1e-300, out=scale_diagonal)
            step_ok = False
            for _ in range(50):
                step = _umath_linalg.solve1(jtj + lam * scale, g, signature="dd->d")
                p_try = p + step
                am_try, resid_try = trial(p_try)
                chi2_try = float(resid_try @ resid_try)
                if math.isfinite(chi2_try) and chi2_try <= chi2:
                    step_ok = True
                    break
                lam *= 10
            if not step_ok:
                converged = True  # no descent direction left: at a minimum
                break
            rel_drop = (chi2 - chi2_try) / max(chi2, 1e-300)
            p, am, resid, chi2 = p_try, am_try, resid_try, chi2_try
            lam = max(lam / 10, 1e-12)
            if rel_drop < LM_CHI2_RTOL or math.sqrt(step @ step) < LM_STEP_TOL:
                converged = True
                break
        fill_jacobian(p, am)  # at the final point
        jtj = jac.T @ jac
    if not np.all(np.isfinite(jtj)):
        raise FitError("the normal matrix J^T W J overflows at the fitted point")
    flags: list[str] = []
    try:
        cov = np.linalg.inv(jtj)
        if np.linalg.cond(jtj) > 1e12:
            flags.append("degenerate")
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(jtj)
        flags.append("degenerate")
    return p, cov, chi2, resid, iterations, converged, flags


def _decay(p, m, rates=()):
    """A alpha^m + sum_i A_i rate_i^m + B for p = (A, alpha, A_1.., B);
    without rates, the single exponential A alpha^m + B."""
    out = p[0] * np.power(p[1], m) + p[-1]
    for amp, rate in zip(p[2:-1], rates):
        out = out + amp * rate**m
    return out


def _initial_guess(m, y):
    """Seed (A, alpha, B): asymptote from the data floor, rate from a
    weighted log-linear regression of the offset-subtracted means."""
    ymin, ymax = float(np.min(y)), float(np.max(y))
    b0 = ymin
    for asym in (0.5, 0.25):
        if ymin >= asym - 0.02:
            b0 = asym
            break
    else:
        b0 = ymin - 0.05 * max(ymax - ymin, 1e-3)
    resid = y - b0
    mask = resid > 1e-12
    if mask.sum() >= 2:
        coeffs = np.polyfit(m[mask], np.log(resid[mask]), 1)
        alpha0 = float(np.exp(coeffs[0]))
        a0 = float(np.exp(coeffs[1]))
    else:
        alpha0, a0 = 0.5, 0.0
    alpha0 = min(max(alpha0, 1e-4), 1 - 1e-6)
    return np.array([a0, alpha0, b0])


def _fit(model, param_names, p0, m, y, stderr, rates) -> DecayFit:
    """The one fit path: ``_decay`` with the given background rates (none
    for a single exponential), from p0, weighted by 1/stderr^2, its
    covariance scaled by chi2/dof.

    Callers check the point count (at least one more point than
    parameters); a nonpositive standard error, or one whose weight
    1/stderr^2 overflows, is refused here, before LM would divide by it.
    """
    if np.any(stderr <= 0):
        raise FitError("all standard errors must be positive")
    with np.errstate(divide="ignore", over="ignore"):
        if not np.all(np.isfinite(1.0 / np.square(stderr))):
            raise FitError("a standard error is too small: its weight 1/stderr^2 overflows")
    p, cov, chi2, resid, iterations, converged, flags = _lm(p0, m, y, stderr, rates)
    dof = len(m) - len(p0)
    chi2_red = chi2 / dof
    return DecayFit(
        model=model,
        param_names=param_names,
        params=p,
        covariance=cov * max(chi2_red, 0.0),
        chi2=chi2,
        dof=dof,
        chi2_reduced=chi2_red,
        residuals=resid,
        converged=converged,
        iterations=iterations,
        flags=tuple(flags),
        curve_meta={"background_rates": list(rates)} if rates else {},
    )


def _fit_single(model, m, y, stderr, seed, reason) -> DecayFit:
    """A alpha^m + B from ``seed`` (``_initial_guess`` of the curve), flagged
    when alpha leaves (0, 1] or the curve barely moves; ``reason`` is
    appended to the flags."""
    fit = _fit(model, ("A", "alpha", "B"), seed, m, y, stderr, ())
    if not 0 < fit.alpha <= 1:
        fit.flags += ("alpha_outside_(0,1]",)
    if np.ptp(y) < 4 * float(np.max(stderr)) / np.sqrt(len(m)) and "degenerate" not in fit.flags:
        fit.flags += ("degenerate",)
    fit.flags += reason
    return fit


def _order_free(fit_fn):
    """``fit_fn(m, y, stderr, ...)`` on the rows sorted by (m, y, stderr),
    its residuals returned in the caller's row order: a fit is then a
    function of the set of rows, bit for bit.  Rows already in ascending m
    are fitted as given."""

    @wraps(fit_fn)
    def fit_rows(m, y, stderr, *args, **kwargs) -> DecayFit:
        m, y, stderr = (np.asarray(a, dtype=float) for a in (m, y, stderr))
        order = np.lexsort((stderr, y, m))
        fit = fit_fn(m[order], y[order], stderr[order], *args, **kwargs)
        fit.residuals = fit.residuals[np.argsort(order)]
        return fit

    return fit_rows


@_order_free
def fit_exponential(m, y, stderr) -> DecayFit:
    """Fit F(m) = A alpha^m + B to the points (m, y) with standard errors
    ``stderr``; points need positive standard errors (weights 1/sigma^2)
    and there must be at least four (three fit parameters).
    """
    if len(m) < 4:
        raise FitError("need at least 4 points to fit 3 parameters")
    return _fit_single("single_exponential", m, y, stderr, _initial_guess(m, y), ())


@_order_free
def fit_correlation_curve(m, y, stderr, alpha_1_2: float, alpha_2_1: float) -> DecayFit:
    """Extract alpha_12 from the two-qubit correlation decay.

    Fits A12 alpha_12^m with fixed-rate background exponentials at the
    single-subsystem rates (one shared background term when the two
    rates coincide); when the background amplitudes are consistent with
    zero, or the background fit is degenerate, the curve is refit to a
    single exponential.
    """
    f1, f2 = float(alpha_1_2), float(alpha_2_1)
    merged = abs(f1 - f2) < 1e-9
    bg_rates = (f1,) if merged else (f1, f2)
    bg_names = ("A1",) if merged else ("A1", "A2")

    seed = _initial_guess(m, y)
    p0 = np.concatenate([[seed[0], seed[1]], np.zeros(len(bg_rates)), [seed[2]]])
    if len(m) <= len(p0):
        raise FitError("too few points for the background model")
    fit = _fit(
        "correlation_with_background", ("A", "alpha", *bg_names, "B"),
        p0, m, y, stderr, bg_rates,
    )
    background_zero = all(
        abs(fit.value(name)) <= 2 * fit.sigma(name) for name in bg_names
    )
    if background_zero or "degenerate" in fit.flags or not fit.converged:
        reason = (
            "background_consistent_with_zero"
            if background_zero
            else "background_fit_degenerate"
        )
        return _fit_single("correlation_single_exponential", m, y, stderr, seed, (reason,))
    if min(abs(fit.alpha - rate) for rate in bg_rates) < 1e-3:
        fit.flags += ("alpha12_near_subsystem_rate",)
    return fit


# Mapping from (experiment, projection) to the alpha each curve estimates.
ALPHA_SOURCES = {
    "alpha_1": ("exp1", "Q1"),
    "alpha_2": ("exp2", "Q2"),
    "alpha_1_2": ("exp3", "Q1"),
    "alpha_2_1": ("exp3", "Q2"),
    "alpha_12": ("exp3", "CORR"),
}


# Rounding-level scatter, in ulps of the mean, that still marks a curve as
# deterministic: per-Clifford depolarizing curves reach ~0.5 ulp, while
# sampled curves sit billions of ulps above it.
DETERMINISTIC_ULPS = 4


def _fit_curve(fit, curve):
    """``fit(m, mean, stderr)`` of the curve, labelled with its experiment,
    projection and longest length; a FitError is recorded as the curve's
    entry instead of raised.

    Deterministic simulations have standard errors of zero or of rounding
    size; a curve whose every stderr lies in [0, DETERMINISTIC_ULPS * eps *
    |mean|] gets a nominal uniform weight so its (possibly degenerate) fit
    still reports, flagged ``deterministic_curve``.
    """
    label = {"experiment": curve.experiment, "projection": curve.projection}
    stderr = np.asarray(curve.stderr, dtype=float)
    rounding = DETERMINISTIC_ULPS * np.finfo(float).eps * np.abs(curve.mean)
    floored = bool(np.all((stderr >= 0.0) & (stderr <= rounding)))
    if floored:
        stderr = np.full(len(curve.m), 1e-9)
    try:
        result = fit(curve.m, curve.mean, stderr)
    except FitError as exc:
        return {**label, "error": str(exc)}
    result.curve_meta.update(label, max_m=int(np.max(curve.m)))
    if floored:
        result.flags += ("deterministic_curve",)
    return result


def fit_protocol_curves(curves) -> dict:
    """Fit every survival curve and pick out the five protocol alphas.

    The two-qubit correlation curve is fit last so the simultaneous
    single-subsystem rates can serve as its fixed background.  Curves
    that cannot be fit are recorded with their error instead of raised.
    """
    by_key = {(c.experiment, c.projection): c for c in curves}
    corr_key = ALPHA_SOURCES["alpha_12"]
    fits: dict[tuple[str, str], object] = {
        key: _fit_curve(fit_exponential, curve)
        for key, curve in by_key.items()
        if key != corr_key
    }
    if corr_key in by_key:
        f1 = fits.get(ALPHA_SOURCES["alpha_1_2"])
        f2 = fits.get(ALPHA_SOURCES["alpha_2_1"])
        if isinstance(f1, DecayFit) and isinstance(f2, DecayFit):
            fit = partial(fit_correlation_curve, alpha_1_2=f1.alpha, alpha_2_1=f2.alpha)
        else:
            fit = fit_exponential
        fits[corr_key] = _fit_curve(fit, by_key[corr_key])
    alpha_fits = {
        name: fits[src]
        for name, src in ALPHA_SOURCES.items()
        if isinstance(fits.get(src), DecayFit)
    }
    return {"fits": fits, "alpha_fits": alpha_fits}
