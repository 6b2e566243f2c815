"""Weighted nonlinear least squares for exponential survival decays.

Levenberg-Marquardt with analytic Jacobians on the objective
sum_i (x_i - F(m_i))^2 / sigma_i^2.  Parameter uncertainties come from
the Jacobian at the best fit: covariance (J^T W J)^-1 scaled by the
reduced chi-square, with 68% intervals taken as one scaled sigma.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import NormalDist

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
    ci68: np.ndarray
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
            "ci68": {n: float(c) for n, c in zip(self.param_names, self.ci68)},
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


def _single_exp_jac(p, m):
    a, alpha, b = p
    am = np.power(alpha, m)
    with np.errstate(divide="ignore", invalid="ignore"):
        dalpha = a * m * np.power(alpha, np.maximum(m - 1, 0))
    return np.stack([am, dalpha, np.ones_like(am)], axis=1)


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


def fit_exponential(curve_or_m, y=None, stderr=None) -> DecayFit:
    """Fit F(m) = A alpha^m + B to a survival curve.

    Accepts a SurvivalCurve or explicit (m, mean, stderr) arrays; points
    need positive standard errors (weights 1/sigma^2) and at least four
    truncations (three fit parameters).
    """
    if y is None:
        curve = curve_or_m
        m = np.asarray(curve.m, dtype=float)
        y = np.asarray(curve.mean, dtype=float)
        stderr = np.asarray(curve.stderr, dtype=float)
        meta = {
            "experiment": curve.experiment,
            "projection": curve.projection,
            "max_m": int(np.max(curve.m)),
        }
    else:
        m = np.asarray(curve_or_m, dtype=float)
        y = np.asarray(y, dtype=float)
        stderr = np.asarray(stderr, dtype=float)
        meta = {}
    if len(m) < 4:
        raise FitError("need at least 4 points to fit 3 parameters")
    if np.any(stderr <= 0):
        raise FitError("all standard errors must be positive")

    p0 = _initial_guess(m, y)
    p, cov, chi2, resid, iters, converged, flags = _lm(
        _decay, _single_exp_jac, p0, m, y, stderr
    )
    dof = len(m) - 3
    chi2_red = chi2 / dof
    cov_scaled = cov * max(chi2_red, 0.0) if dof > 0 else cov
    if not 0 < p[1] <= 1:
        flags.append("alpha_outside_(0,1]")
    if np.ptp(y) < 4 * float(np.max(stderr)) / np.sqrt(len(m)) and "degenerate" not in flags:
        flags.append("degenerate")
    fit = DecayFit(
        model="single_exponential",
        param_names=("A", "alpha", "B"),
        params=p,
        covariance=cov_scaled,
        ci68=np.sqrt(np.clip(np.diag(cov_scaled), 0, None)),
        chi2=chi2,
        dof=dof,
        chi2_reduced=chi2_red,
        residuals=resid,
        converged=converged,
        iterations=iters,
        flags=tuple(flags),
        curve_meta=meta,
    )
    return fit


def confidence_intervals(fit: DecayFit, level: float = 0.68) -> np.ndarray:
    """Per-parameter half-widths from the scaled covariance.

    The 68% level is the 1-sigma convention (z = 1 exactly); other levels
    use the normal quantile.
    """
    if not fit.converged:
        raise FitError("confidence intervals need a converged fit")
    z = 1.0 if abs(level - 0.68) < 1e-12 else NormalDist().inv_cdf((1 + level) / 2)
    return z * np.sqrt(np.clip(np.diag(fit.covariance), 0, None))


def reduced_chi_square(y, sigma, model_values, n_params: int = 3):
    """(chi2, dof, chi2/dof) with dof = truncation count - fit parameters."""
    y = np.asarray(y, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    model_values = np.asarray(model_values, dtype=float)
    if np.any(sigma <= 0):
        raise FitError("all sigmas must be positive")
    dof = len(y) - n_params
    if dof <= 0:
        raise FitError("no degrees of freedom")
    chi2 = float(np.sum((y - model_values) ** 2 / sigma**2))
    return chi2, dof, chi2 / dof


def fit_correlation_curve(curve, alpha_1_2: float, alpha_2_1: float) -> DecayFit:
    """Extract alpha_12 from the two-qubit correlation decay.

    Fits A12 alpha_12^m with fixed-rate background exponentials at the
    single-subsystem rates (one shared background term when the two
    rates coincide); when the background amplitudes are consistent with
    zero, or the background fit is degenerate, the curve is refit to a
    single exponential.
    """
    m = np.asarray(curve.m, dtype=float)
    y = np.asarray(curve.mean, dtype=float)
    stderr = np.asarray(curve.stderr, dtype=float)
    f1, f2 = float(alpha_1_2), float(alpha_2_1)
    merged = abs(f1 - f2) < 1e-9
    bg_rates = (f1,) if merged else (f1, f2)
    bg_names = ("A1",) if merged else ("A1", "A2")

    def model(p, mm):
        return _decay(p, mm, bg_rates)

    def jac(p, mm):
        am = np.power(p[1], mm)
        dalpha = p[0] * mm * np.power(p[1], np.maximum(mm - 1, 0))
        cols = [am, dalpha]
        cols.extend(rate**mm for rate in bg_rates)
        cols.append(np.ones_like(am))
        return np.stack(cols, axis=1)

    seed = _initial_guess(m, y)
    p0 = np.concatenate([[seed[0], seed[1]], np.zeros(len(bg_rates)), [seed[2]]])
    n_params = len(p0)
    if len(m) <= n_params:
        raise FitError("too few points for the background model")
    p, cov, chi2, resid, iters, converged, flags = _lm(model, jac, p0, m, y, stderr)
    dof = len(m) - n_params
    chi2_red = chi2 / dof
    cov_scaled = cov * max(chi2_red, 0.0)
    sig = np.sqrt(np.clip(np.diag(cov_scaled), 0, None))
    background_zero = all(
        abs(p[2 + i]) <= 2 * sig[2 + i] for i in range(len(bg_rates))
    )
    meta = {
        "experiment": curve.experiment,
        "projection": curve.projection,
        "max_m": int(np.max(curve.m)),
    }
    if background_zero or "degenerate" in flags or not converged:
        fit = fit_exponential(m, y, stderr)
        fit.model = "correlation_single_exponential"
        reason = (
            "background_consistent_with_zero"
            if background_zero
            else "background_fit_degenerate"
        )
        fit.flags = fit.flags + (reason,)
        fit.curve_meta = meta
        return fit
    if min(abs(p[1] - rate) for rate in bg_rates) < 1e-3:
        flags.append("alpha12_near_subsystem_rate")
    meta["background_rates"] = list(bg_rates)
    return DecayFit(
        model="correlation_with_background",
        param_names=("A", "alpha", *bg_names, "B"),
        params=p,
        covariance=cov_scaled,
        ci68=sig,
        chi2=chi2,
        dof=dof,
        chi2_reduced=chi2_red,
        residuals=resid,
        converged=converged,
        iterations=iters,
        flags=tuple(flags),
        curve_meta=meta,
    )


# Mapping from (experiment, projection) to the alpha each curve estimates.
ALPHA_SOURCES = {
    "alpha_1": ("exp1", "Q1"),
    "alpha_2": ("exp2", "Q2"),
    "alpha_1_2": ("exp3", "Q1"),
    "alpha_2_1": ("exp3", "Q2"),
    "alpha_12": ("exp3", "CORR"),
}


def _with_weight_floor(curve):
    """Deterministic simulations have zero standard errors; substitute a
    nominal uniform weight so their (degenerate) fit still reports."""
    from dataclasses import replace

    if np.all(np.asarray(curve.stderr) == 0.0):
        return replace(curve, stderr=np.full(len(curve.m), 1e-9)), True
    return curve, False


def fit_protocol_curves(curves) -> dict:
    """Fit every survival curve and pick out the five protocol alphas.

    The two-qubit correlation curve is fit last so the simultaneous
    single-subsystem rates can serve as its fixed background.  Curves
    that cannot be fit are recorded with their error instead of raised.
    """
    fits: dict[tuple[str, str], object] = {}
    by_key = {(c.experiment, c.projection): c for c in curves}
    corr_key = ALPHA_SOURCES["alpha_12"]
    for key, curve in by_key.items():
        if key == corr_key:
            continue
        curve, floored = _with_weight_floor(curve)
        try:
            fits[key] = fit_exponential(curve)
            if floored:
                fits[key].flags = fits[key].flags + ("deterministic_curve",)
        except FitError as exc:
            fits[key] = {
                "experiment": key[0],
                "projection": key[1],
                "error": str(exc),
            }
    if corr_key in by_key:
        f1 = fits.get(ALPHA_SOURCES["alpha_1_2"])
        f2 = fits.get(ALPHA_SOURCES["alpha_2_1"])
        corr_curve, floored = _with_weight_floor(by_key[corr_key])
        try:
            if isinstance(f1, DecayFit) and isinstance(f2, DecayFit):
                fits[corr_key] = fit_correlation_curve(
                    corr_curve, f1.alpha, f2.alpha
                )
            else:
                fits[corr_key] = fit_exponential(corr_curve)
            if floored:
                fits[corr_key].flags = fits[corr_key].flags + ("deterministic_curve",)
        except FitError as exc:
            fits[corr_key] = {
                "experiment": corr_key[0],
                "projection": corr_key[1],
                "error": str(exc),
            }
    alpha_fits = {
        name: fits[src]
        for name, src in ALPHA_SOURCES.items()
        if isinstance(fits.get(src), DecayFit)
    }
    return {"fits": fits, "alpha_fits": alpha_fits, "alpha_sources": ALPHA_SOURCES}
