"""Gate errors, addressability metrics and report assembly.

Converts fitted depolarizing parameters to average qubit gate errors
r = (d-1)(1-alpha)/d = (1-alpha)/2, forms the addressability deltas
dr_{k|k'} = |r_k - r_{k|k'}| and the correlation witness
delta_alpha = alpha_12 - alpha_{1|2} alpha_{2|1}, and propagates
1-sigma uncertainties in quadrature / to first order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

CHI2_SUSPECT_THRESHOLD = 2.0

ALPHA_KEYS = ("alpha_1", "alpha_2", "alpha_1_2", "alpha_2_1", "alpha_12")


@dataclass(frozen=True)
class UVal:
    """A value with a 1-sigma uncertainty."""

    value: float
    sigma: float = 0.0

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")

    def to_dict(self) -> dict:
        return {"value": self.value, "sigma": self.sigma}


def _as_uval(x) -> UVal:
    if isinstance(x, UVal):
        return x
    value, sigma = x
    return UVal(float(value), float(sigma))


def gate_error(alpha, sigma: float = 0.0) -> UVal:
    """Average qubit gate error r = (1-alpha)/2 with scaled uncertainty."""
    if isinstance(alpha, UVal):
        alpha, sigma = alpha.value, alpha.sigma
    return UVal(0.5 * (1.0 - alpha), 0.5 * sigma)


def delta_r(r_k, r_k_given) -> UVal:
    """Addressability metric |r_k - r_{k|k'}|, uncertainties in quadrature."""
    a, b = _as_uval(r_k), _as_uval(r_k_given)
    return UVal(abs(a.value - b.value), float(np.hypot(a.sigma, b.sigma)))


def delta_alpha(alpha_12, alpha_1_2, alpha_2_1) -> UVal:
    """Correlation witness alpha_12 - alpha_{1|2} alpha_{2|1}.

    First-order propagation:
    sigma^2 = s12^2 + (a21 s1|2)^2 + (a12 s2|1)^2.
    """
    a12, a1, a2 = _as_uval(alpha_12), _as_uval(alpha_1_2), _as_uval(alpha_2_1)
    value = a12.value - a1.value * a2.value
    sigma = float(
        np.sqrt(
            a12.sigma**2 + (a2.value * a1.sigma) ** 2 + (a1.value * a2.sigma) ** 2
        )
    )
    return UVal(value, sigma)


@dataclass
class AddressabilityReport:
    """Table of extracted error rates and addressability metrics."""

    sample_label: str
    alphas: dict[str, UVal]
    r1: UVal | None = None
    r2: UVal | None = None
    r1_given_2: UVal | None = None
    r2_given_1: UVal | None = None
    dr1_given_2: UVal | None = None
    dr2_given_1: UVal | None = None
    dalpha: UVal | None = None
    chi2_reduced: dict[str, float] = field(default_factory=dict)
    flags: tuple[str, ...] = ()
    missing: tuple[str, ...] = ()
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        def enc(v):
            return None if v is None else v.to_dict()

        return {
            "sample_label": self.sample_label,
            "alphas": {k: enc(v) for k, v in sorted(self.alphas.items())},
            "r1": enc(self.r1),
            "r2": enc(self.r2),
            "r1_given_2": enc(self.r1_given_2),
            "r2_given_1": enc(self.r2_given_1),
            "dr1_given_2": enc(self.dr1_given_2),
            "dr2_given_1": enc(self.dr2_given_1),
            "delta_alpha": enc(self.dalpha),
            "chi2_reduced": dict(sorted(self.chi2_reduced.items())),
            "flags": list(self.flags),
            "missing": list(self.missing),
            "provenance": self.provenance,
        }

    def to_text(self) -> str:
        """Aligned plain-text table (one row per extracted quantity)."""
        rows = [
            ("r_1", "CxI", self.r1),
            ("r_2", "IxC", self.r2),
            ("r_1|2", "CxC", self.r1_given_2),
            ("r_2|1", "CxC", self.r2_given_1),
            ("dr_1|2", "-", self.dr1_given_2),
            ("dr_2|1", "-", self.dr2_given_1),
            ("dalpha", "-", self.dalpha),
        ]
        lines = [f"sample: {self.sample_label}"]
        lines.append(f"{'quantity':<10}{'twirl group':<14}{'value':>12}{'1-sigma':>12}")
        for name, grp, val in rows:
            if val is None:
                lines.append(f"{name:<10}{grp:<14}{'n/a':>12}{'n/a':>12}")
            else:
                lines.append(
                    f"{name:<10}{grp:<14}{val.value:>12.6f}{val.sigma:>12.6f}"
                )
        if self.chi2_reduced:
            pairs = ", ".join(
                f"{k}={v:.3f}" for k, v in sorted(self.chi2_reduced.items())
            )
            lines.append(f"reduced chi2: {pairs}")
        for flag in self.flags:
            lines.append(f"flag: {flag}")
        return "\n".join(lines) + "\n"


def build_report(
    alpha_inputs: dict,
    sample_label: str = "",
    provenance: dict | None = None,
) -> AddressabilityReport:
    """Assemble the report from five fitted alphas.

    ``alpha_inputs`` maps the keys alpha_1, alpha_2, alpha_1_2,
    alpha_2_1, alpha_12 to DecayFit objects, UVal or (value, sigma)
    pairs.  Missing keys yield a partial report with markers instead of
    an error.
    """
    alphas: dict[str, UVal] = {}
    chi2_map: dict[str, float] = {}
    flags: list[str] = []
    for key in ALPHA_KEYS:
        entry = alpha_inputs.get(key)
        if entry is None:
            continue
        if hasattr(entry, "alpha_sigma"):  # DecayFit
            alphas[key] = UVal(entry.alpha, entry.alpha_sigma)
            chi2_map[key] = float(entry.chi2_reduced)
            if entry.chi2_reduced > CHI2_SUSPECT_THRESHOLD:
                flags.append(f"single-exponential model suspect: {key}")
            if not entry.converged:
                flags.append(f"fit did not converge: {key}")
        else:
            alphas[key] = _as_uval(entry)
    missing = tuple(k for k in ALPHA_KEYS if k not in alphas)

    report = AddressabilityReport(
        sample_label=sample_label,
        alphas=alphas,
        chi2_reduced=chi2_map,
        missing=missing,
        provenance=provenance or {},
    )
    if "alpha_1" in alphas:
        report.r1 = gate_error(alphas["alpha_1"])
    if "alpha_2" in alphas:
        report.r2 = gate_error(alphas["alpha_2"])
    if "alpha_1_2" in alphas:
        report.r1_given_2 = gate_error(alphas["alpha_1_2"])
    if "alpha_2_1" in alphas:
        report.r2_given_1 = gate_error(alphas["alpha_2_1"])
    if report.r1 is not None and report.r1_given_2 is not None:
        report.dr1_given_2 = delta_r(report.r1, report.r1_given_2)
    if report.r2 is not None and report.r2_given_1 is not None:
        report.dr2_given_1 = delta_r(report.r2, report.r2_given_1)
    if all(k in alphas for k in ("alpha_12", "alpha_1_2", "alpha_2_1")):
        report.dalpha = delta_alpha(
            alphas["alpha_12"], alphas["alpha_1_2"], alphas["alpha_2_1"]
        )
    report.flags = tuple(flags)
    return report
