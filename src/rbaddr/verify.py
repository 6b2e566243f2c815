"""Self-verification suite: brute-force oracles against analytic results.

Each check returns a pass/fail record; the CLI prints one line per check
and exits nonzero on any failure.  ``tol_override`` replaces the default
comparison tolerances, which is used as a negative control (an absurdly
tight tolerance must make the harness report failures).

The ``full`` level is the release oracle set: acceptance criteria 1-4
(``tests/test_acceptance.py``) take their verdicts from its twirl,
group-integrity, product-channel and CI-coverage checks, which hold the
acceptance sample counts and tolerances.  Only the full level runs the
qubit-relabeling, frame-rotation, Z (x) Z conjugation and idle ZZ phase
checks, which the acceptance suite reads too.  The step-doubling,
relabeling, frame-rotation and Z (x) Z checks each take the cross-talk gate
set they check; ``run_verification`` builds sample a's once for all four.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .cliffords import generate_c1, get_group
from .fitting import fit_exponential
from .noise import (
    GATE_ALPHABET,
    SAMPLE_A,
    SLOTS,
    Composite,
    CrossTalk,
    Decoherence,
    DeviceParams,
    NoisyGateSet,
    StaticError,
    _evolve_rows,
    _slot_roots,
    _slot_rows,
    decoherence_ptm,
    evolve_to_ptm,
    evolve_to_ptms,
    predict_addressability,
    random_cptp_ptm,
    zz_rotation_ptm,
)
from .paulis import ptm_from_unitary, ptms_from_unitaries, tensor
from .protocol import decay_single
from .report import build_report
from .twirl import brute_force_twirl, twirl_cxc, twirl_cxi

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
        rec = int(c1.recovery_indices(seq[None])[0])
        total = np.eye(4)
        for idx in seq:
            total = c1.ptms[idx] @ total
        total = c1.ptms[rec] @ total
        worst = max(worst, float(np.max(np.abs(total - np.eye(4)))))
    ok = worst <= tol
    return _result(
        "group_integrity",
        ok,
        f"|C1|=24, worst recovery residual {worst:.2e} over {n_sequences} sequences",
        t0,
    )


def check_twirl_oracles(n_channels: int, tol: float) -> CheckResult:
    """The three twirls ``predict`` runs, CxC and CxI on either qubit,
    against brute-force group averages of random two-qubit channels."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(VERIFY_SEED + 1)
    worst = 0.0
    for _ in range(n_channels):
        random_cptp_ptm(1, rng)  # unused; drawn so that the channels below keep their values
        r2 = random_cptp_ptm(2, rng, n_kraus=5)
        for kind, outcome in (("cxc", twirl_cxc(r2)), ("cxi", twirl_cxi(r2, 1)),
                              ("ixc", twirl_cxi(r2, 2))):
            brute = brute_force_twirl(r2, get_group(kind))
            worst = max(worst, float(np.max(np.abs(brute - outcome.twirled))))
    ok = worst <= tol
    return _result(
        "twirl_oracles",
        ok,
        f"max |analytic - brute force| = {worst:.2e} over {n_channels} channels",
        t0,
    )


def check_product_delta_alpha(n_channels: int, tol: float) -> CheckResult:
    """The correlation witness of product channels, by the report path
    that ``predict`` runs."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(VERIFY_SEED + 2)
    worst = 0.0
    for _ in range(n_channels):
        a = random_cptp_ptm(1, rng)
        b = random_cptp_ptm(1, rng)
        alphas = twirl_cxc(tensor(a, b)).alphas
        witness = build_report({k: (v, 0.0) for k, v in alphas.items()}).dalpha.value
        worst = max(worst, abs(witness))
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


def check_evolution_convergence(tol: float, gateset: NoisyGateSet) -> CheckResult:
    """Step doubling of every generator pair of a cross-talk gate set: its
    slot channels against one batch at twice its model's steps (256 vs 512
    Magnus steps for sample a)."""
    t0 = time.perf_counter()
    fine = evolve_to_ptms(gateset.model.params, SLOTS, 2 * gateset.model.steps)
    errs = np.max(np.abs(gateset.slot_channels[1:] - fine), axis=(1, 2))
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


def _swap_qubits(p: DeviceParams, flip_signs: bool = True) -> DeviceParams:
    """The device with its two qubits relabeled.

    Line 1 carries -nu1 and -mu1 and line 2 +nu2 and +mu2, so the
    relabeled device has mu1 = -mu2, mu2 = -mu1, nu1 = -nu2 and
    nu2 = -nu1; ``flip_signs=False`` exchanges them without the flips.
    """
    s = -1.0 if flip_signs else 1.0
    return replace(
        p,
        omega1=p.omega2, omega2=p.omega1,
        t1_1=p.t1_2, t1_2=p.t1_1, t2_1=p.t2_2, t2_2=p.t2_1,
        m12=p.m21, m21=p.m12,
        mu1=s * p.mu2, mu2=s * p.mu1, nu1=s * p.nu2, nu2=s * p.nu1,
    )


_MIRROR_ALPHAS = {
    "alpha_1": "alpha_2",
    "alpha_2": "alpha_1",
    "alpha_1_2": "alpha_2_1",
    "alpha_2_1": "alpha_1_2",
    "alpha_12": "alpha_12",
}


def check_qubit_relabeling(tol: float, gateset: NoisyGateSet) -> CheckResult:
    """Relabeling the qubits of a cross-talk + decoherence device swaps
    every output: each relabeled slot channel is the SWAP conjugate of the
    mirrored slot's channel, and the predicted alphas map alpha_1 <->
    alpha_2, alpha_1|2 <-> alpha_2|1 and keep alpha_12.  The device is
    ``gateset``'s error, as given channels, then decoherence.  Negative
    control: without the coupling sign flips the relabeling must miss."""
    t0 = time.perf_counter()
    p, steps = gateset.model.params, gateset.model.steps

    def outputs(crosstalk, q):
        noisy = NoisyGateSet(Composite((crosstalk, Decoherence(q))))
        return noisy.slot_channels[1:], predict_addressability(noisy, gamma_max_m=0)["alphas"]

    channels, alphas = outputs(StaticError(gateset._error), p)
    # slot (a, b) -> (b, a), and Pauli index 4 i + j of P_i (x) P_j -> 4 j + i
    mirror = [SLOTS.index((b, a)) for a, b in SLOTS]
    swap = [4 * (k % 4) + k // 4 for k in range(16)]
    mirrored = channels[mirror][:, swap][:, :, swap]

    def deviation(q):
        relabeled, relabeled_alphas = outputs(CrossTalk(q, steps), q)
        return max(
            float(np.max(np.abs(relabeled - mirrored))),
            *(abs(relabeled_alphas[k] - alphas[m]) for k, m in _MIRROR_ALPHAS.items()),
        )

    err = deviation(_swap_qubits(p))
    control = deviation(_swap_qubits(p, flip_signs=False))
    ok = err <= tol < control
    return _result(
        "qubit_relabeling",
        ok,
        f"relabeled device vs mirrored outputs {err:.2e} over {len(SLOTS)} slot channels "
        f"and {len(_MIRROR_ALPHAS)} alphas; without the sign flips {control:.2e}",
        t0,
    )


# Each generator's image when pi/2 is added to its drive phase: x -> y ->
# -x -> -y, since xm90's amplitudes are the negatives of x90's.  y180
# would go to a -x pulse of amplitude pi, which is not in the alphabet.
_PHASE_SHIFTED = {"x90": "y90", "y90": "xm90", "xm90": "ym90", "ym90": "x90",
                  "x180": "y180", None: None}


def check_frame_rotation(tol: float, gateset: NoisyGateSet) -> CheckResult:
    """Adding pi/2 to both drive phases of a cross-talk drive is the frame
    rotation V = Rz(pi/2) (x) Rz(pi/2): it turns each drive term's X/Y pair
    by pi/2 and commutes with ZZ and with the Z-conditioned terms' other
    factor.  So the channel of every slot of ``gateset`` whose generators
    both have a phase-shifted image (35 of the 48) maps to P E P^T with P
    the PTM of V.  Negative control: the opposite rotation, P^T E P, must
    miss by more than ``tol``."""
    t0 = time.perf_counter()
    channels = gateset.slot_channels[1:]
    # a signed permutation, made exact by rounding
    rz = np.rint(ptm_from_unitary(np.diag(np.exp([-0.25j * np.pi, 0.25j * np.pi]))))
    rotation = tensor(rz, rz)
    pairs = [
        (SLOTS.index(slot), SLOTS.index(tuple(_PHASE_SHIFTED[g] for g in slot)))
        for slot in SLOTS
        if all(g in _PHASE_SHIFTED for g in slot)
    ]
    source, image = np.array(pairs).T

    def deviation(p):
        return float(np.max(np.abs(channels[image] - p @ channels[source] @ p.T)))

    err = deviation(rotation)
    control = deviation(rotation.T)
    ok = err <= tol < control
    return _result(
        "frame_rotation",
        ok,
        f"phase-shifted slot vs rotated channel {err:.2e} over {len(pairs)} slot pairs; "
        f"opposite rotation {control:.2e}",
        t0,
    )


def check_zz_conjugation(tol: float, gateset: NoisyGateSet) -> CheckResult:
    """The engine integrates a slot's root and derives the 12 image slots,
    whose generators negate an earlier slot's, as D U D with D = Z (x) Z
    (``noise._slot_roots``).  Integrating those 12 slots of the cross-talk
    ``gateset`` directly must give its channels to ``tol`` (0: bit for
    bit).  Negative control: the roots' channels conjugated by Z (x) I
    instead must miss by more than ``tol``."""
    t0 = time.perf_counter()
    p, steps = gateset.model.params, gateset.model.steps
    channels = gateset.slot_channels[1:]
    rows = _slot_rows(SLOTS)
    roots, image = _slot_roots(rows)
    direct = ptms_from_unitaries(_evolve_rows(p, rows[image], steps), atol=1e-8)
    err = float(np.max(np.abs(channels[image] - direct)))
    # the PTM of Z (x) I: a diagonal of signs, made exact by rounding
    z1 = np.rint(ptm_from_unitary(np.diag([1.0, 1.0, -1.0, -1.0])))
    root_index = [SLOTS.index(tuple(GATE_ALPHABET[g] for g in root)) for root in roots[image]]
    control = float(np.max(np.abs(z1 @ channels[root_index] @ z1 - direct)))
    ok = err <= tol < control
    return _result(
        "zz_conjugation",
        ok,
        f"derived vs integrated image slot {err:.2e} over {len(direct)} slots at "
        f"{p.gate_time * 1e9:g} ns, {steps} steps; Z (x) I conjugation {control:.2e}",
        t0,
    )


def check_idle_zz_phase(tol: float) -> CheckResult:
    """Free evolution of the sample-a device for t = pi / zeta accumulates
    the ZZ rotation exp(-i (pi/4) ZZ), the PTM ``zz_rotation_ptm(pi/2)``
    (64 Magnus steps).  Negative control: the -pi/2 rotation must miss by
    more than ``tol``."""
    t0 = time.perf_counter()
    ptm = evolve_to_ptm(SAMPLE_A.with_gate_time(np.pi / SAMPLE_A.zeta), (None, None), steps=64)
    err = float(np.max(np.abs(ptm - zz_rotation_ptm(np.pi / 2))))
    control = float(np.max(np.abs(ptm - zz_rotation_ptm(-np.pi / 2))))
    ok = err <= tol < control
    return _result(
        "idle_zz_phase",
        ok,
        f"idle evolution vs pi/2 ZZ rotation {err:.2e}; -pi/2 rotation {control:.2e}",
        t0,
    )


def run_verification(level: str = "quick", tol_override: float | None = None):
    """Run the oracle suite; returns a list of CheckResult.  The sample-a
    gate set four checks read is integrated once, in no check's time."""
    if level not in ("quick", "full"):
        raise ValueError("level must be 'quick' or 'full'")
    full = level == "full"
    sample_a = NoisyGateSet(CrossTalk(SAMPLE_A))
    sample_a.slot_channels  # the one integration, before any check starts its clock

    def tol(default):
        return default if tol_override is None else tol_override

    checks = [
        check_group_integrity(
            n_sequences=1000 if full else 100, max_m=100, tol=tol(1e-12)
        ),
        check_twirl_oracles(n_channels=50 if full else 8, tol=tol(1e-10)),
        check_product_delta_alpha(n_channels=50 if full else 10, tol=tol(1e-12)),
        check_fit_recovery(tol=tol(1e-8)),
        check_fit_coverage(
            repeats=200 if full else 60,
            lo=0.58 if full else 0.50,
            hi=0.78 if full else 0.85,
        ),
        check_decoherence_semigroup(tol=tol(1e-12)),
        check_evolution_convergence(tol(1e-8), sample_a),
    ]
    if full:
        checks.append(check_qubit_relabeling(tol(1e-12), sample_a))
        checks.append(check_frame_rotation(tol(1e-12), sample_a))
        checks.append(check_zz_conjugation(tol(0.0), sample_a))
        checks.append(check_idle_zz_phase(tol=tol(1e-9)))
    return checks
