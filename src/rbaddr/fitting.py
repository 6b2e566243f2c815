"""Weighted nonlinear least squares for exponential survival decays.

Levenberg-Marquardt with analytic Jacobians on the objective
sum_i (x_i - F(m_i))^2 / sigma_i^2.  Parameter uncertainties come from
the Jacobian at the best fit: covariance (J^T W J)^-1 scaled by the
reduced chi-square, with 68% intervals taken as one scaled sigma.
Every fit, single-exponential or correlation, runs through ``_fit``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

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


def _lm(model_fn, jac_fn, p0, m, y, sigma):
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


def _decay(p, m, rates=()):
    """A alpha^m + sum_i A_i rate_i^m + B for p = (A, alpha, A_1.., B);
    without rates, the single exponential A alpha^m + B."""
    out = p[0] * np.power(p[1], m) + p[-1]
    for amp, rate in zip(p[2:-1], rates):
        out = out + amp * rate**m
    return out


def _decay_jac(p, m, rates=()):
    """Columns dF/dp of ``_decay``: alpha^m, A m alpha^(m-1), rate_i^m, 1."""
    am = np.power(p[1], m)
    with np.errstate(divide="ignore", invalid="ignore"):
        dalpha = p[0] * m * np.power(p[1], np.maximum(m - 1, 0))
    return np.stack([am, dalpha, *(rate**m for rate in rates), np.ones_like(am)], axis=1)


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
    parameters); a nonpositive standard error is refused here, before LM
    would divide by it.
    """
    if np.any(stderr <= 0):
        raise FitError("all standard errors must be positive")
    p, cov, chi2, resid, iterations, converged, flags = _lm(
        partial(_decay, rates=rates),
        partial(_decay_jac, rates=rates),
        p0, m, y, stderr,
    )
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


def _fit_single(model, m, y, stderr, reason) -> DecayFit:
    """A alpha^m + B from the data-driven seed, flagged when alpha leaves
    (0, 1] or the curve barely moves; ``reason`` is appended to the flags."""
    if len(m) < 4:
        raise FitError("need at least 4 points to fit 3 parameters")
    fit = _fit(model, ("A", "alpha", "B"), _initial_guess(m, y), m, y, stderr, ())
    if not 0 < fit.alpha <= 1:
        fit.flags += ("alpha_outside_(0,1]",)
    if np.ptp(y) < 4 * float(np.max(stderr)) / np.sqrt(len(m)) and "degenerate" not in fit.flags:
        fit.flags += ("degenerate",)
    fit.flags += reason
    return fit


def fit_exponential(m, y, stderr) -> DecayFit:
    """Fit F(m) = A alpha^m + B to the points (m, y) with standard errors
    ``stderr``; points need positive standard errors (weights 1/sigma^2)
    and there must be at least four (three fit parameters).
    """
    m, y, stderr = (np.asarray(a, dtype=float) for a in (m, y, stderr))
    return _fit_single("single_exponential", m, y, stderr, ())


def fit_correlation_curve(m, y, stderr, alpha_1_2: float, alpha_2_1: float) -> DecayFit:
    """Extract alpha_12 from the two-qubit correlation decay.

    Fits A12 alpha_12^m with fixed-rate background exponentials at the
    single-subsystem rates (one shared background term when the two
    rates coincide); when the background amplitudes are consistent with
    zero, or the background fit is degenerate, the curve is refit to a
    single exponential.
    """
    m, y, stderr = (np.asarray(a, dtype=float) for a in (m, y, stderr))
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
        return _fit_single("correlation_single_exponential", m, y, stderr, (reason,))
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


def _fit_curve(fit, curve):
    """``fit(m, mean, stderr)`` of the curve, labelled with its experiment,
    projection and longest length; a FitError is recorded as the curve's
    entry instead of raised.

    Deterministic simulations have zero standard errors; they get a
    nominal uniform weight so their (degenerate) fit still reports,
    flagged ``deterministic_curve``.
    """
    label = {"experiment": curve.experiment, "projection": curve.projection}
    stderr = np.asarray(curve.stderr, dtype=float)
    floored = bool(np.all(stderr == 0.0))
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
