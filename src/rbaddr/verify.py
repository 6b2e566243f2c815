"""Self-verification suite: brute-force oracles against analytic results.

``rbaddr verify`` runs every check once and prints one line per check,
exiting nonzero on any failure.  Each check holds its own sample count and
tolerance, written beside the comparison it governs, and most also require
a deliberately wrong reference to miss (a negative control).  The
acceptance suite (``tests/test_acceptance.py``) takes its oracle verdicts
from these same checks, so each oracle is written once.

A check is registered by ``@_check(name)`` into ``CHECKS``, in definition
order, which is the run and print order; it returns ``(passed, detail)``
and the registration times it.  The step-doubling, relabeling,
frame-rotation, Z (x) Z and element-word checks each take the cross-talk
gate set they check; ``run_verification`` builds sample a's once for all
five.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import wraps
from inspect import signature

import numpy as np

from .cliffords import CliffordGroup, element_slots, generate_c1, generator_ptm, get_group
from .fitting import fit_exponential, fit_protocol_curves
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
    _CROSSTALK_FIELDS,
    _evolve_rows,
    _slot_roots,
    _slot_rows,
    decoherence_ptm,
    evolve_to_ptm,
    evolve_to_ptms,
    predict_addressability,
    zz_rotation_ptm,
)
from .paulis import ptm_from_kraus, ptm_from_unitary, ptms_from_unitaries, tensor
from .protocol import RBConfig, decay_single, run_protocol
from .report import build_report
from .twirl import twirl_cxc, twirl_cxi

VERIFY_SEED = 20120717


# ---------------------------------------------------------------------------
# Oracles and the channels they are checked on


def brute_force_twirl(ptm: np.ndarray, group: CliffordGroup) -> np.ndarray:
    """Exact group average sum_U R_U^T R R_U / |G|; the inverses are
    transposes, as Clifford PTMs are orthogonal."""
    if ptm.shape[0] != group.ptms.shape[-1]:
        raise ValueError("PTM and group dimensions differ")
    acc = np.zeros_like(ptm)
    for g in group.ptms:
        acc += g.T @ ptm @ g
    return acc / len(group)


def random_cptp_kraus(
    n: int, rng: np.random.Generator, n_kraus: int = 4
) -> list[np.ndarray]:
    """Random CPTP channel as a normalized Ginibre Kraus set."""
    d = 2**n
    g = rng.standard_normal((n_kraus, d, d)) + 1j * rng.standard_normal((n_kraus, d, d))
    total = sum(k.conj().T @ k for k in g)
    w, v = np.linalg.eigh(total)
    inv_half = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
    return [k @ inv_half for k in g]


def random_cptp_ptm(n: int, rng: np.random.Generator, n_kraus: int = 4) -> np.ndarray:
    return ptm_from_kraus(random_cptp_kraus(n, rng, n_kraus))


# ---------------------------------------------------------------------------
# Checks


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


CHECKS: dict[str, Callable[..., CheckResult]] = {}
"""The suite: each registered check by name, in run order."""


def _check(name: str):
    """Register a check under ``name``, after the ones defined before it.
    The check returns ``(passed, detail)``; the registered function times
    it and returns its CheckResult."""

    def register(check):
        @wraps(check)
        def timed(*gateset) -> CheckResult:
            t0 = time.perf_counter()
            passed, detail = check(*gateset)
            return CheckResult(name, bool(passed), detail, time.perf_counter() - t0)

        CHECKS[name] = timed
        return timed

    return register


@_check("group_integrity")
def check_group_integrity():
    c1 = generate_c1()  # raises unless closure gave 24 elements
    rng = np.random.default_rng(VERIFY_SEED)
    n_sequences = 1000
    worst = 0.0
    for _ in range(n_sequences):
        m = int(rng.integers(1, 101))  # lengths 1..100
        seq = c1.sample_uniform(rng, m)
        rec = int(c1.recovery_indices(seq[None])[0])
        total = np.eye(4)
        for idx in seq:
            total = c1.ptms[idx] @ total
        total = c1.ptms[rec] @ total
        worst = max(worst, float(np.max(np.abs(total - np.eye(4)))))
    return worst <= 1e-12, (f"|C1|={len(c1)}, worst recovery residual {worst:.2e} over "
                            f"{n_sequences} sequences")


@_check("twirl_oracles")
def check_twirl_oracles():
    """The three twirls ``predict`` runs, CxC and CxI on either qubit,
    against brute-force group averages of random two-qubit channels."""
    rng = np.random.default_rng(VERIFY_SEED + 1)
    n_channels = 50
    worst = 0.0
    for _ in range(n_channels):
        r2 = random_cptp_ptm(2, rng, n_kraus=5)
        for kind, outcome in (("cxc", twirl_cxc(r2)), ("cxi", twirl_cxi(r2, 1)),
                              ("ixc", twirl_cxi(r2, 2))):
            brute = brute_force_twirl(r2, get_group(kind))
            worst = max(worst, float(np.max(np.abs(brute - outcome.twirled))))
    return worst <= 1e-10, (f"max |analytic - brute force| = {worst:.2e} over "
                            f"{n_channels} channels")


@_check("product_channel_delta_alpha")
def check_product_delta_alpha():
    """The correlation witness of product channels, by the report path
    that ``predict`` runs."""
    rng = np.random.default_rng(VERIFY_SEED + 2)
    n_channels = 50
    worst = 0.0
    for _ in range(n_channels):
        a = random_cptp_ptm(1, rng)
        b = random_cptp_ptm(1, rng)
        alphas = twirl_cxc(tensor(a, b)).alphas
        witness = build_report({k: (v, 0.0) for k, v in alphas.items()}).dalpha.value
        worst = max(worst, abs(witness))
    return worst <= 1e-12, f"max |delta alpha| = {worst:.2e} over {n_channels} product channels"


@_check("zz_injection")
def check_zz_injection():
    """A purely correlated error, the ZZ rotation ``zz_rotation_ptm(0.1)``
    after every slot, is witnessed at more than 3 sigma through simulate ->
    fit -> report (K = 50, lengths 1..256, seed 103).  Negative control: the
    uncorrelated error Rz(0.1) (x) Rz(0.1) must stay below 3 sigma."""
    cfg = RBConfig(lengths=tuple(2**k for k in range(9)), K=50, seed=103)
    rz = ptm_from_unitary(np.diag(np.exp([-0.05j, 0.05j])))

    def witness(error):
        curves = run_protocol(cfg, NoisyGateSet(StaticError(error)))
        return build_report(fit_protocol_curves(curves)["alpha_fits"]).dalpha

    zz, product = witness(zz_rotation_ptm(0.1)), witness(tensor(rz, rz))
    z, control = (dalpha.value / dalpha.sigma for dalpha in (zz, product))
    return z > 3 > abs(control), (f"ZZ(0.1) witnessed at {z:.1f} sigma (dalpha = "
                                  f"{zz.value:.4f} +/- {zz.sigma:.4f}, K = {cfg.K}); "
                                  f"Rz (x) Rz at {control:.1f} sigma")


@_check("fit_noiseless_recovery")
def check_fit_recovery():
    m = np.array([1, 2, 4, 8, 16, 32, 64, 128, 256])
    y = decay_single(m, 0.5, 0.99, 0.5)
    fit = fit_exponential(m, y, np.full(len(m), 1e-4))
    err = max(abs(fit.A - 0.5), abs(fit.alpha - 0.99), abs(fit.B - 0.5))
    return err <= 1e-8 and fit.converged, f"max parameter error {err:.2e}"


@_check("fit_ci_coverage")
def check_fit_coverage():
    """The 68% interval on alpha covers the truth in 58% to 78% of 200
    noisy curves.  Each curve is fitted with its stated stderr at the true
    noise, at half of it and at twice it; as the covariance is scaled by
    chi2/dof, a misstated stderr must leave the coverage in the band."""
    rng = np.random.default_rng(VERIFY_SEED + 3)
    m = np.array([1, 2, 4, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256])
    alpha_true = 0.9922
    sigma = 0.005
    repeats = 200
    stated = (1.0, 0.5, 2.0)  # stated stderr over the true noise
    hits = np.zeros(len(stated))
    for _ in range(repeats):
        y = decay_single(m, 0.5, alpha_true, 0.5) + rng.normal(0, sigma, len(m))
        for i, scale in enumerate(stated):
            fit = fit_exponential(m, y, np.full(len(m), scale * sigma))
            hits[i] += abs(fit.alpha - alpha_true) <= fit.alpha_sigma
    true, half, double = hits / repeats
    ok = all(0.58 <= frac <= 0.78 for frac in (true, half, double))
    return ok, (f"68% CI covered truth in {true:.1%} of {repeats} fits (want 58%..78%); "
                f"stated stderr x0.5 {half:.1%}, x2 {double:.1%}")


@_check("decoherence")
def check_decoherence():
    """Decoherence channels compose as a semigroup, and relaxation keeps the
    ground-state pole fixed at 20, 35 and 55 ns and at 1 ms, both to 1e-12.
    Negative control: the excited pole must move."""
    t1, t2 = 9.7e-6, 10.3e-6
    channels = np.array([decoherence_ptm(t1, t2, t) for t in (20e-9, 35e-9, 55e-9, 1e-3)])
    err = float(np.max(np.abs(channels[1] @ channels[0] - channels[2])))
    ground, excited = np.array([1.0, 0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0, -1.0])
    fixed = float(np.max(np.abs(channels @ ground - ground)))
    control = float(np.min(np.max(np.abs(channels @ excited - excited), axis=1)))
    return err <= 1e-12 and fixed <= 1e-12 < control, (
        f"composition deviation {err:.2e}; ground pole moved {fixed:.2e} at 20 ns to 1 ms; "
        f"excited pole {control:.2e}")


@_check("evolution_step_doubling")
def check_evolution_convergence(gateset: NoisyGateSet):
    """Step doubling of every generator pair of a cross-talk gate set: its
    slot channels against one batch at twice its model's steps (256 vs 512
    Magnus steps for sample a)."""
    fine = evolve_to_ptms(gateset.model.params, SLOTS, 2 * gateset.model.steps)
    errs = np.max(np.abs(gateset.slot_channels[1:] - fine), axis=(1, 2))
    worst = int(np.argmax(errs))
    err = float(errs[worst])
    name = ",".join(g or "idle" for g in SLOTS[worst])
    return err <= 1e-8, (f"PTM change on doubling steps {err:.2e} (worst of {len(SLOTS)} "
                         f"generator pairs: {name})")


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


@_check("qubit_relabeling")
def check_qubit_relabeling(gateset: NoisyGateSet):
    """Relabeling the qubits of a cross-talk + decoherence device swaps
    every output, to 1e-12: each relabeled slot channel is the SWAP
    conjugate of the mirrored slot's channel, and the predicted alphas map
    alpha_1 <-> alpha_2, alpha_1|2 <-> alpha_2|1 and keep alpha_12.  The
    device is ``gateset``'s error, as given channels, then decoherence.
    Negative control: without the coupling sign flips the relabeling must
    miss."""
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
    return err <= 1e-12 < control, (
        f"relabeled device vs mirrored outputs {err:.2e} over {len(SLOTS)} slot channels "
        f"and {len(_MIRROR_ALPHAS)} alphas; without the sign flips {control:.2e}")


# Each generator's image when pi/2 is added to its drive phase: x -> y ->
# -x -> -y, since xm90's amplitudes are the negatives of x90's.  y180
# would go to a -x pulse of amplitude pi, which is not in the alphabet.
_PHASE_SHIFTED = {"x90": "y90", "y90": "xm90", "xm90": "ym90", "ym90": "x90",
                  "x180": "y180", None: None}


@_check("frame_rotation")
def check_frame_rotation(gateset: NoisyGateSet):
    """Adding pi/2 to both drive phases of a cross-talk drive is the frame
    rotation V = Rz(pi/2) (x) Rz(pi/2): it turns each drive term's X/Y pair
    by pi/2 and commutes with ZZ and with the Z-conditioned terms' other
    factor.  So the channel of every slot of ``gateset`` whose generators
    both have a phase-shifted image (35 of the 48) maps to P E P^T with P
    the PTM of V, to 1e-12.  Negative control: the opposite rotation,
    P^T E P, must miss."""
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
    return err <= 1e-12 < control, (
        f"phase-shifted slot vs rotated channel {err:.2e} over {len(pairs)} slot pairs; "
        f"opposite rotation {control:.2e}")


@_check("zz_conjugation")
def check_zz_conjugation(gateset: NoisyGateSet):
    """The engine integrates a slot's root and derives the 12 image slots,
    whose generators negate an earlier slot's, as D U D with D = Z (x) Z
    (``noise._slot_roots``).  Integrating those 12 slots of the cross-talk
    ``gateset`` directly must give its channels bit for bit.  Negative
    control: the roots' channels conjugated by Z (x) I instead must miss."""
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
    return err == 0.0 < control, (
        f"derived vs integrated image slot {err:.2e} over {len(direct)} slots at "
        f"{p.gate_time * 1e9:g} ns, {steps} steps; Z (x) I conjugation {control:.2e}")


@_check("idle_zz_phase")
def check_idle_zz_phase():
    """Free evolution of the sample-a device for t = pi / zeta accumulates
    the ZZ rotation exp(-i (pi/4) ZZ), the PTM ``zz_rotation_ptm(pi/2)``
    (64 Magnus steps), to 1e-9.  Negative control: the -pi/2 rotation must
    miss."""
    ptm = evolve_to_ptm(SAMPLE_A.with_gate_time(np.pi / SAMPLE_A.zeta), (None, None), steps=64)
    err = float(np.max(np.abs(ptm - zz_rotation_ptm(np.pi / 2))))
    control = float(np.max(np.abs(ptm - zz_rotation_ptm(-np.pi / 2))))
    return err <= 1e-9 < control, (f"idle evolution vs pi/2 ZZ rotation {err:.2e}; "
                                   f"-pi/2 rotation {control:.2e}")


@_check("element_words")
def check_element_words(gateset: NoisyGateSet):
    """Each CxC element's channel in ``gateset``'s element table is its
    word's slot channels composed in play order, the first slot rightmost,
    to 1e-12.  Negative control: the words played in reverse must miss."""
    group = get_group("cxc")
    table = gateset.element_table(group)

    def deviation(order):
        worst = 0.0
        for words, channel in zip(group.words, table):
            product = np.eye(16)
            for slot in order(element_slots(words)):
                product = gateset.channel(slot) @ product
            worst = max(worst, float(np.max(np.abs(product - channel))))
        return worst

    err = deviation(list)
    control = deviation(reversed)
    return err <= 1e-12 < control, (f"element vs its word's slot channels {err:.2e} over "
                                    f"{len(group)} elements; reversed words {control:.2e}")


@_check("decoupled_pulses")
def check_decoupled_pulses():
    """With ZZ and every coupling of sample a set to 0, each of the 12
    single-line pulses (default steps and gate time) is its generator's
    ideal rotation on its own qubit, to 1e-8.  Negative control: the same
    rotation on the other qubit must miss."""
    decoupled = replace(SAMPLE_A, **dict.fromkeys(_CROSSTALK_FIELDS, 0.0))
    names = GATE_ALPHABET[:-1]
    slots = [(g, None) for g in names] + [(None, g) for g in names]
    eye = np.eye(4)
    ideal = np.array([tensor(generator_ptm(g), eye) for g in names]
                     + [tensor(eye, generator_ptm(g)) for g in names])
    ptms = evolve_to_ptms(decoupled, slots)
    err = float(np.max(np.abs(ptms - ideal)))
    other_line = np.roll(ideal, len(names), axis=0)
    control = float(np.min(np.max(np.abs(ptms - other_line), axis=(1, 2))))
    return err <= 1e-8 < control, (f"pulse vs ideal rotation {err:.2e} over {len(slots)} "
                                   f"single-line slots; other line {control:.2e}")


def run_verification() -> list[CheckResult]:
    """Run every registered check in order.  The sample-a gate set that the
    checks taking a gate set read is integrated once, in no check's time."""
    sample_a = NoisyGateSet(CrossTalk(SAMPLE_A))
    sample_a.slot_channels  # the one integration, before any check starts its clock
    return [check(sample_a) if signature(check).parameters else check()
            for check in CHECKS.values()]
