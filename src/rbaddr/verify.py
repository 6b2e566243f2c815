"""Self-verification suite: brute-force oracles against analytic results.

Each check returns a pass/fail record; the CLI prints one line per check
and exits nonzero on any failure.  ``tol_override`` replaces the default
comparison tolerances, which is used as a negative control (an absurdly
tight tolerance must make the harness report failures).

The ``full`` level is the release oracle set: acceptance criteria 1-4
(``tests/test_acceptance.py``) take their verdicts from its twirl,
group-integrity, product-channel and CI-coverage checks, which hold the
acceptance sample counts and tolerances.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .cliffords import generate_c1, get_group
from .fitting import fit_exponential
from .noise import (
    SAMPLE_A,
    SLOTS,
    decoherence_ptm,
    evolve_to_ptms,
    random_cptp_ptm,
)
from .paulis import pauli_conjugation_ptm, ptm_from_unitary, tensor
from .protocol import decay_single
from .twirl import (
    IRREP_TABLES,
    brute_force_twirl,
    pauli_twirl,
    pauli_twirl_brute,
    schur_general_twirl,
    twirl_cxc,
    twirl_cxi,
    twirl_full_clifford,
)

VERIFY_SEED = 20120717


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _result(name, passed, detail, t0) -> CheckResult:
    return CheckResult(name, bool(passed), detail, time.perf_counter() - t0)


def check_group_integrity(n_sequences: int, max_m: int, tol: float) -> CheckResult:
    t0 = time.perf_counter()
    c1 = generate_c1()
    if len(c1) != 24:
        return _result("group_integrity", False, f"|C1| = {len(c1)}", t0)
    rng = np.random.default_rng(VERIFY_SEED)
    worst = 0.0
    for _ in range(n_sequences):
        m = int(rng.integers(1, max_m + 1))
        seq = c1.sample_uniform(rng, m)
        rec = c1.recovery_index(seq)
        total = np.eye(4)
        for idx in seq:
            total = c1.ptm(int(idx)) @ total
        total = c1.ptm(rec) @ total
        worst = max(worst, float(np.max(np.abs(total - np.eye(4)))))
    ok = worst <= tol
    return _result(
        "group_integrity",
        ok,
        f"|C1|=24, worst recovery residual {worst:.2e} over {n_sequences} sequences",
        t0,
    )


def check_twirl_oracles(n_channels: int, tol: float) -> CheckResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(VERIFY_SEED + 1)
    c1 = generate_c1()
    worst = 0.0
    for _ in range(n_channels):
        r1 = random_cptp_ptm(1, rng)
        worst = max(
            worst,
            float(np.max(np.abs(brute_force_twirl(r1, c1) - twirl_full_clifford(r1).twirled))),
            float(np.max(np.abs(pauli_twirl(r1) - pauli_twirl_brute(r1)))),
        )
        r2 = random_cptp_ptm(2, rng, n_kraus=5)
        worst = max(
            worst,
            float(np.max(np.abs(brute_force_twirl(r2, get_group("cxc")) - twirl_cxc(r2).twirled))),
            float(np.max(np.abs(brute_force_twirl(r2, get_group("cxi")) - twirl_cxi(r2, 1).reassembled()))),
            float(np.max(np.abs(brute_force_twirl(r2, get_group("ixc")) - twirl_cxi(r2, 2).reassembled()))),
            float(np.max(np.abs(pauli_twirl(r2) - pauli_twirl_brute(r2)))),
            float(np.max(np.abs(schur_general_twirl(r2, IRREP_TABLES["cxi"]) - brute_force_twirl(r2, get_group("cxi"))))),
        )
    ok = worst <= tol
    return _result(
        "twirl_oracles",
        ok,
        f"max |analytic - brute force| = {worst:.2e} over {n_channels} channels",
        t0,
    )


def check_pauli_conjugation(tol: float) -> CheckResult:
    t0 = time.perf_counter()
    from .paulis import pauli_matrices

    worst = 0.0
    for n in (1, 2):
        for k, pk in enumerate(pauli_matrices(n)):
            direct = ptm_from_unitary(np.asarray(pk))
            worst = max(worst, float(np.max(np.abs(direct - pauli_conjugation_ptm(k, n)))))
    ok = worst <= tol
    return _result(
        "pauli_conjugation_signs", ok, f"max sign-rule deviation {worst:.2e}", t0
    )


def check_product_delta_alpha(n_channels: int, tol: float) -> CheckResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(VERIFY_SEED + 2)
    worst = 0.0
    for _ in range(n_channels):
        a = random_cptp_ptm(1, rng)
        b = random_cptp_ptm(1, rng)
        worst = max(worst, abs(twirl_cxc(tensor(a, b)).delta_alpha))
    ok = worst <= tol
    return _result(
        "product_channel_delta_alpha",
        ok,
        f"max |delta alpha| = {worst:.2e} over {n_channels} product channels",
        t0,
    )


def check_fit_recovery(tol: float) -> CheckResult:
    t0 = time.perf_counter()
    m = np.array([1, 2, 4, 8, 16, 32, 64, 128, 256])
    y = decay_single(m, 0.5, 0.99, 0.5)
    fit = fit_exponential(m, y, np.full(len(m), 1e-4))
    err = max(abs(fit.A - 0.5), abs(fit.alpha - 0.99), abs(fit.B - 0.5))
    ok = err <= tol and fit.converged
    return _result(
        "fit_noiseless_recovery", ok, f"max parameter error {err:.2e}", t0
    )


def check_fit_coverage(repeats: int, lo: float, hi: float) -> CheckResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(VERIFY_SEED + 3)
    m = np.array([1, 2, 4, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256])
    alpha_true = 0.9922
    sigma = 0.005
    hits = 0
    for _ in range(repeats):
        y = decay_single(m, 0.5, alpha_true, 0.5) + rng.normal(0, sigma, len(m))
        fit = fit_exponential(m, y, np.full(len(m), sigma))
        if abs(fit.alpha - alpha_true) <= fit.alpha_sigma:
            hits += 1
    frac = hits / repeats
    ok = lo <= frac <= hi
    return _result(
        "fit_ci_coverage",
        ok,
        f"68% CI covered truth in {frac:.1%} of {repeats} fits (want {lo:.0%}..{hi:.0%})",
        t0,
    )


def check_decoherence_semigroup(tol: float) -> CheckResult:
    t0 = time.perf_counter()
    t1, t2 = 9.7e-6, 10.3e-6
    a = decoherence_ptm(t1, t2, 20e-9)
    b = decoherence_ptm(t1, t2, 35e-9)
    both = decoherence_ptm(t1, t2, 55e-9)
    err = float(np.max(np.abs(b @ a - both)))
    ok = err <= tol
    return _result("decoherence_semigroup", ok, f"composition deviation {err:.2e}", t0)


def check_evolution_convergence(tol: float) -> CheckResult:
    """Step doubling (256 vs 512 Magnus steps) of every generator pair of
    the sample-a cross-talk gate set, in one batch per step count."""
    t0 = time.perf_counter()
    coarse = evolve_to_ptms(SAMPLE_A, SLOTS, steps=256)
    fine = evolve_to_ptms(SAMPLE_A, SLOTS, steps=512)
    errs = np.max(np.abs(coarse - fine), axis=(1, 2))
    worst = int(np.argmax(errs))
    err = float(errs[worst])
    ok = err <= tol
    name = ",".join(g or "idle" for g in SLOTS[worst])
    return _result(
        "evolution_step_doubling",
        ok,
        f"PTM change on doubling steps {err:.2e} (worst of {len(SLOTS)} generator "
        f"pairs: {name})",
        t0,
    )


def run_verification(level: str = "quick", tol_override: float | None = None):
    """Run the oracle suite; returns a list of CheckResult."""
    if level not in ("quick", "full"):
        raise ValueError("level must be 'quick' or 'full'")
    full = level == "full"

    def tol(default):
        return default if tol_override is None else tol_override

    checks = [
        check_group_integrity(
            n_sequences=1000 if full else 100, max_m=100, tol=tol(1e-12)
        ),
        check_twirl_oracles(n_channels=50 if full else 8, tol=tol(1e-10)),
        check_pauli_conjugation(tol=tol(1e-12)),
        check_product_delta_alpha(n_channels=50 if full else 10, tol=tol(1e-12)),
        check_fit_recovery(tol=tol(1e-8)),
        check_fit_coverage(
            repeats=200 if full else 60,
            lo=0.58 if full else 0.50,
            hi=0.78 if full else 0.85,
        ),
        check_decoherence_semigroup(tol=tol(1e-12)),
        check_evolution_convergence(tol=tol(1e-8)),
    ]
    return checks
