"""Per-gate error channels: depolarizing, T1/T2 decoherence and coherent
cross-talk from the dressed-basis two-qubit drive Hamiltonian.

The cross-talk Hamiltonian is evaluated in the rotating frame of both
drives, each resonant with its own qubit.  Terms where a drive acts on
the *other* qubit therefore oscillate at the qubit-qubit detuning; on
hardware this is what turns classical drive leakage into an AC Stark
shift rather than a full coherent rotation.  The always-on ZZ shift is
static.

Every pulse is one of the six generator rotations of
``cliffords.GENERATOR_ANGLES``, played for the device's gate time under
one envelope shape: a flat top with smooth C-infinity edges over a
quarter of the gate on each side.  Its area is exactly (1 - RAMP_FRAC)
times the gate time, so the shape is sampled only at the Magnus nodes.
Gate duration and pulse shape are not constrained by the device data and
dominate the cross-talk error predictions; the gate time is
configuration (default 24 ns).  A ``NoisyGateSet`` is one model at one
noise granularity, built once per run; simulation and prediction read
every element's channel from it, composed by one loop in place in
cache-sized element chunks (monomial factors and prediction's group
averages included), so that a table's build holds little more than the
table, and a prediction builds none.  A per-slot ``StaticError`` builds
one from given slot channels.
Its cross-talk slots are evolved in shares across the CPUs, each slot
whole and with equal cost ``steps``, 36 of the 48 integrated and the
other 12 derived from them exactly by Z (x) Z conjugation; a slot's
channel depends on neither its batch nor its share, so the bits do not
depend on the CPU count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property, lru_cache

import numpy as np

# _slot_positions reads element_slots by this module's name, the one
# bench/run.py wraps
from .cliffords import (
    GENERATOR_ANGLES,
    CliffordGroup,
    element_slots,
    generator_ptm,
    get_group,
)
from .paulis import (
    depolarizing_ptm,
    pauli_matrices,
    ptm_from_unitary,
    ptms_from_unitaries,
    tensor,
)
from .parallel import run_jobs

TWO_PI = 2 * np.pi

# Pulse duration is not constrained by the published device data; 24 ns
# keeps the model's addressability predictions in the measured range and
# every cross-talk figure is reported alongside this assumption.
DEFAULT_GATE_TIME = 24e-9
DEFAULT_EVOLVE_STEPS = 256
MIN_EVOLVE_STEPS = 16
# Far past any useful precision (256 steps put the Magnus error near 1e-9);
# the bound caps the run time, ~20 s per gate set, and the drive samples each
# worker holds, 2 x (7, steps) floats or 7 MB.
MAX_EVOLVE_STEPS = 2**16
# The largest simulate run: its arrays' estimated peak (protocol.check_run_size),
# where a default run needs ~1.3 MB; not a property of the machine.
MAX_RUN_BYTES = 2**30

_CROSSTALK_FIELDS = ("zeta", "m12", "m21", "mu1", "mu2", "nu1", "nu2")


@dataclass(frozen=True)
class DeviceParams:
    """Measured device parameters; angular frequencies in rad/s, times in s.

    The dimensionless couplings follow the drive-Hamiltonian convention:
    m12/m21 classical drive leakage, mu1/mu2 cross-resonance couplings,
    nu1/nu2 off-resonant drive corrections, zeta the ZZ energy shift.
    Fields not measured for a sample may be left None.
    """

    omega1: float
    omega2: float
    t1_1: float
    t1_2: float
    t2_1: float
    t2_2: float
    zeta: float | None = None
    m12: float | None = None
    m21: float | None = None
    mu1: float | None = None
    mu2: float | None = None
    nu1: float | None = None
    nu2: float | None = None
    gate_time: float = DEFAULT_GATE_TIME

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite")
        for name in ("t1_1", "t1_2", "t2_1", "t2_2", "gate_time"):
            if getattr(self, name) < 0 or (name != "gate_time" and getattr(self, name) == 0):
                raise ValueError(f"{name} must be positive")
        if self.t2_1 > 2 * self.t1_1 or self.t2_2 > 2 * self.t1_2:
            raise ValueError("T2 must not exceed 2*T1")
        for name in ("m12", "m21", "mu1", "mu2", "nu1", "nu2"):
            value = getattr(self, name)
            if value is not None and not abs(value) < 1:
                raise ValueError(f"|{name}| must be < 1")

    def require_crosstalk(self) -> None:
        missing = [f for f in _CROSSTALK_FIELDS if getattr(self, f) is None]
        if missing:
            raise ValueError(
                "cross-talk model needs parameters: " + ", ".join(missing)
            )

    def with_gate_time(self, gate_time: float) -> "DeviceParams":
        return replace(self, gate_time=gate_time)


# Measured parameters of the two benchmarked samples.  Sample b's
# cross-talk couplings and ZZ shift were not measured; its preset only
# supports decoherence modeling.
SAMPLE_A = DeviceParams(
    omega1=TWO_PI * 4.9895e9,
    omega2=TWO_PI * 5.0554e9,
    t1_1=9.7e-6,
    t1_2=8.2e-6,
    t2_1=10.3e-6,
    t2_2=7.1e-6,
    zeta=TWO_PI * 1.1e6,
    m12=0.19,
    m21=0.32,
    mu1=-0.088,
    mu2=-0.16,
    nu1=-0.025,
    nu2=-0.048,
)

SAMPLE_B = DeviceParams(
    omega1=TWO_PI * 4.7610e9,
    omega2=TWO_PI * 5.3401e9,
    t1_1=9.4e-6,
    t1_2=9.9e-6,
    t2_1=7.3e-6,
    t2_2=10.2e-6,
)

DEVICE_PRESETS = {"sample_a": SAMPLE_A, "sample_b": SAMPLE_B}


# ---------------------------------------------------------------------------
# Drive envelopes


def _smooth_step(x: np.ndarray) -> np.ndarray:
    """C-infinity monotone step from 0 at x<=0 to 1 at x>=1."""
    x = np.clip(x, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(x > 0, np.exp(-1.0 / np.maximum(x, 1e-300)), 0.0)
        b = np.where(x < 1, np.exp(-1.0 / np.maximum(1 - x, 1e-300)), 0.0)
    return a / (a + b)


# Each edge of the flat top ramps over this fraction of the gate.
RAMP_FRAC = 0.25


def _envelope_shape(t, gate_time: float) -> np.ndarray:
    """Unit-peak flat-top shape on [0, gate_time], zero outside."""
    t = np.asarray(t, dtype=float)
    ramp = RAMP_FRAC * gate_time
    up = _smooth_step(t / ramp)
    down = _smooth_step((gate_time - t) / ramp)
    inside = (t >= 0) & (t <= gate_time)
    return np.where(inside, up * down, 0.0)


# 2-point Gauss-Legendre nodes on a unit panel, of each Magnus step.
_GAUSS_NODES = (0.5 - math.sqrt(3) / 6, 0.5 + math.sqrt(3) / 6)


def _shape_integral(gate_time: float) -> float:
    """Integral of the unit-peak shape over the gate, exactly.

    The smooth step obeys s(x) + s(1 - x) = 1, so each ramp integrates to
    half its width, and the shape to the flat top plus one ramp.
    """
    return (1 - RAMP_FRAC) * gate_time


# ---------------------------------------------------------------------------
# Cross-talk Hamiltonian and time evolution

_P1 = pauli_matrices(1)
_P2 = pauli_matrices(2)
_ZZ = _P2[15]

# Magnus steps advanced together.  Memory sets the size: a chunk holds
# the Hamiltonians, exponents and step propagators of every slot at once.
# Evolving the 48 slots of a gate set peaks at 1.45 MB (tracemalloc) with
# 16 steps, 2.85 MB with 32, and 2.31 MB in four-slot blocks of all steps.
EVOLVE_CHUNK_STEPS = 16
# Estimated seconds of one Magnus step of one slot: 48 slots x 256 steps
# took 70-120 ms (2-core Xeon VM).
SLOT_STEP_SECONDS = 6e-6

GATE_ALPHABET = tuple(GENERATOR_ANGLES) + (None,)


def _drive_terms(p: DeviceParams, which: int):
    """(coefficient, target qubit, conditioning) triples for one drive line."""
    if which == 1:
        return (
            (1.0, 1, None),
            (p.m12 - p.nu1, 2, None),
            (-p.mu1, 2, "z1"),
            (p.m12 * p.mu2, 1, "z2"),
        )
    return (
        (1.0, 2, None),
        (p.m21 + p.nu2, 1, None),
        (p.mu2, 1, "z2"),
        (-p.m21 * p.mu1, 2, "z1"),
    )


@lru_cache(maxsize=None)
def _term_operators(target: int, cond: str | None) -> tuple[np.ndarray, np.ndarray]:
    """X and Y parts of a drive term on qubit ``target``, times Z on the
    other qubit when ``cond`` names it; four combinations, each built once."""
    i2, x, y, z = _P1
    other = z if cond == ("z2" if target == 1 else "z1") else i2
    ops = tuple(np.kron(op, other) if target == 1 else np.kron(other, op) for op in (x, y))
    for op in ops:
        op.setflags(write=False)
    return ops


def _drive_samples(gate_time: float, times: np.ndarray):
    """Amplitudes (rad/s), shape (7, len(times)), and phase offsets of the
    entries of GATE_ALPHABET on a drive line; the idle entry has amplitude
    0.  Each generator scales the unit-peak shape so that its envelope
    integrates to half its rotation angle (a term eps * sigma in the
    Hamiltonian rotates by 2 * integral(eps)).  An x pulse has phase 0, a
    y pulse pi/2.
    """
    shape = _envelope_shape(times, gate_time)
    integral = _shape_integral(gate_time)
    amps = np.zeros((len(GATE_ALPHABET), len(times)))
    phases = np.zeros(len(GATE_ALPHABET))
    for i, name in enumerate(GATE_ALPHABET[:-1]):
        axis, angle = GENERATOR_ANGLES[name]
        amps[i] = (angle / 2) / integral * shape
        phases[i] = 0.0 if axis == "x" else np.pi / 2
    return amps, phases


def _slot_rows(slots) -> np.ndarray:
    """(len(slots), 2) rows in GATE_ALPHABET of each slot's generators."""
    for slot in slots:
        if type(slot) is not tuple or len(slot) != 2 or any(g not in GATE_ALPHABET for g in slot):
            raise ValueError(f"unknown generator pair {slot!r}")
    rows = [[GATE_ALPHABET.index(g) for g in slot] for slot in slots]
    return np.array(rows, dtype=np.intp).reshape(-1, 2)


def _hamiltonian_samples(p: DeviceParams, rows, times, amps, phases) -> np.ndarray:
    """Hamiltonians of the slots of :func:`_slot_rows` at many times, given
    :func:`_drive_samples` there; shape (len(rows), len(times), 4, 4).

    Each line's eight terms (x and y parts of four drive terms) are built
    once per entry of GATE_ALPHABET, exact zeros for the idle one.  The
    static part plus line 1's terms is summed once per first generator,
    then each slot adds its second generator's terms: one fixed order of
    sums per slot, whatever the batch.
    """
    p.require_crosstalk()
    static = (p.zeta / 4 * _ZZ).astype(complex)
    out = np.broadcast_to(static, (len(GATE_ALPHABET), len(times), 4, 4)).copy()
    for line, omega_drive in enumerate((p.omega1, p.omega2)):
        if line == 1:
            out = out[rows[:, 0]]
        for coeff, target, cond in _drive_terms(p, line + 1):
            omega_frame = p.omega1 if target == 1 else p.omega2
            phase = (omega_drive - omega_frame) * times + phases[:, None]
            weight = coeff * amps
            for part, op in zip((np.cos(phase), np.sin(phase)), _term_operators(target, cond)):
                term = (weight * part)[..., None, None] * op
                out += term if line == 0 else term[rows[:, 1]]
    return out


# Each generator's negation in GATE_ALPHABET, -1 for none: xm90's amplitudes
# are the exact negatives of x90's (ym90's of y90's), and the idle entry's
# zeros are their own.  A pi pulse of the opposite sign is not in the alphabet.
_NEGATIONS = {"x90": "xm90", "xm90": "x90", "y90": "ym90", "ym90": "y90", None: None}
_NEGATED = np.array(
    [GATE_ALPHABET.index(_NEGATIONS[g]) if g in _NEGATIONS else -1 for g in GATE_ALPHABET]
)
# Z (x) Z = diag(d), d = (1, -1, -1, 1), as the signs outer(d, d) that D U D
# puts on U's entries
_ZZ_SIGNS = np.outer([1.0, -1.0, -1.0, 1.0], [1.0, -1.0, -1.0, 1.0])


def _slot_roots(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The root of each slot of :func:`_slot_rows` and whether the slot is
    its root's image.  A slot whose two generators both have a negation
    shares a root with the slot of the negated pair, the one of the two that
    comes first in GATE_ALPHABET order (as in ``SLOTS``); 12 of the 48
    ``SLOTS`` are images."""
    negated = _NEGATED[rows]
    size = len(GATE_ALPHABET)
    image = np.all(negated >= 0, axis=1) & (
        size * negated[:, 0] + negated[:, 1] < size * rows[:, 0] + rows[:, 1]
    )
    return np.where(image[:, None], negated, rows), image


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(rows, axis=0, return_inverse=True)`` for rows of
    :func:`_slot_rows`, read off the 49 pairs 7a + b without a sort, whose
    first call in a process costs ~0.2 MB of peak RSS."""
    size = len(GATE_ALPHABET)
    pairs = size * rows[:, 0] + rows[:, 1]
    present = np.zeros(size * size, dtype=bool)
    present[pairs] = True
    return np.argwhere(present.reshape(size, size)), np.cumsum(present)[pairs] - 1


def evolve_to_ptms(
    p: DeviceParams,
    slots,
    steps: int = DEFAULT_EVOLVE_STEPS,
) -> np.ndarray:
    """Time-ordered evolution of each generator slot under the cross-talk
    Hamiltonian, as PTMs of shape (len(slots), 16, 16).

    A slot is a pair drawn from GATE_ALPHABET, the generators played on
    drive lines 1 and 2 (None idle, ``(None, None)`` free evolution), as
    in ``SLOTS``; anything else raises ValueError, and so does a step count
    outside [MIN_EVOLVE_STEPS, MAX_EVOLVE_STEPS].

    Fourth-order Magnus integrator with two Gauss-Legendre samples per
    step (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)); doubling
    ``steps`` changes the PTM entries by less than 1e-8 at the default
    settings.  Only the distinct roots of the slots (:func:`_slot_roots`)
    are integrated, 36 for ``SLOTS``.  Conjugating by D = Z (x) Z negates
    every drive term and keeps ZZ, so the negated pair evolves to D U D,
    and the engine's arithmetic is odd in the drive amplitudes: an image's
    unitary is its root's times the signs outer(d, d), bit for bit what
    integrating it gives wherever the slot Hamiltonians' spectra are not
    degenerate (with couplings exactly zero, to ~1e-14).  The roots are
    split into shares across the CPUs (``parallel.run_jobs``, cost
    ``steps`` slot steps each).  Within a share, all roots advance together
    through chunks of EVOLVE_CHUNK_STEPS steps, one batched
    eigendecomposition per chunk, and each root's step propagators are
    multiplied in time order; one PTM conversion then takes every
    requested slot's unitary.  So a slot's PTM depends neither on its batch
    nor on its share, and an image asked for alone is still derived from
    its root.
    """
    rows = _slot_rows(slots)
    if not MIN_EVOLVE_STEPS <= steps <= MAX_EVOLVE_STEPS:
        raise ValueError(f"need {MIN_EVOLVE_STEPS} to {MAX_EVOLVE_STEPS} steps per gate")
    if p.gate_time == 0.0 or len(rows) == 0:
        return np.broadcast_to(np.eye(16), (len(rows), 16, 16)).copy()
    roots, image = _slot_roots(rows)
    distinct, which = _distinct_rows(roots)
    unitaries = run_jobs(
        lambda share: _evolve_rows(p, distinct[share], steps),
        range(len(distinct)),
        [steps * SLOT_STEP_SECONDS] * len(distinct),
    )
    u = np.stack(unitaries)[which]
    u[image] *= _ZZ_SIGNS
    return ptms_from_unitaries(u, atol=1e-8)


def _evolve_rows(p: DeviceParams, rows: np.ndarray, steps: int) -> np.ndarray:
    """Unitaries of the slots of :func:`_slot_rows`, all advanced together,
    shape (len(rows), 4, 4); see :func:`evolve_to_ptms`."""
    h = p.gate_time / steps
    nodes = [np.arange(steps) * h + c * h for c in _GAUSS_NODES]
    drives = [(t, *_drive_samples(p.gate_time, t)) for t in nodes]
    u = np.broadcast_to(np.eye(4, dtype=complex), (len(rows), 4, 4))
    for first in range(0, steps, EVOLVE_CHUNK_STEPS):
        chunk = slice(first, first + EVOLVE_CHUNK_STEPS)
        b1, b2 = (_hamiltonian_samples(p, rows, t[chunk], a[:, chunk], ph) for t, a, ph in drives)
        b1 *= -1j
        b2 *= -1j
        # Magnus exponent (h/2)(b1 + b2) + (sqrt(3) h^2 / 12)[b2, b1], built
        # in b1's buffer to hold few chunk-sized arrays at once
        comm = b2 @ b1
        comm -= b1 @ b2
        comm *= math.sqrt(3) * h * h / 12
        omega = b1
        omega += b2
        omega *= h / 2
        omega += comm
        del b1, b2, comm
        # exp(omega) of the anti-Hermitian exponents by eigendecomposition
        omega *= 1j
        w, v = np.linalg.eigh(omega)
        del omega
        vh = v.conj().swapaxes(-1, -2)
        v *= np.exp(-1j * w)[..., None, :]
        props = v @ vh
        for k in range(props.shape[1]):
            u = props[:, k] @ u
    return u


def evolve_to_ptm(
    p: DeviceParams,
    slot: tuple[str | None, str | None],
    steps: int = DEFAULT_EVOLVE_STEPS,
) -> np.ndarray:
    """Time-ordered evolution of one generator slot as a PTM; see
    :func:`evolve_to_ptms`."""
    return evolve_to_ptms(p, [slot], steps)[0]


# ---------------------------------------------------------------------------
# Decoherence and elementary channels


def decoherence_ptm(t1: float, t2: float, t: float) -> np.ndarray:
    """Single-qubit relaxation + dephasing channel over time t.

    Amplitude damping with gamma = 1 - exp(-t/T1) composed with pure
    dephasing so the X/Y components decay as exp(-t/T2); the channel is
    non-unital (Bloch vector drifts to the ground-state pole).
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t2 > 2 * t1:
        raise ValueError("T2 must not exceed 2*T1")
    xy = math.exp(-t / t2)
    zz = math.exp(-t / t1)
    ptm = np.diag([1.0, xy, xy, zz])
    ptm[3, 0] = 1.0 - zz
    return ptm


def zz_rotation_ptm(theta: float) -> np.ndarray:
    """PTM of exp(-i theta ZZ / 2); a purely correlated coherent error."""
    u = np.diag(np.exp(-1j * theta / 2 * np.array([1.0, -1.0, -1.0, 1.0])))
    return ptm_from_unitary(u)


# ---------------------------------------------------------------------------
# Noise models


@dataclass(frozen=True)
class Ideal:
    """No errors: gates are their exact PTMs."""


@dataclass(frozen=True)
class Depolarizing:
    """Depolarizing error per generator slot.

    Product form dep(alpha1) (x) dep(alpha2) by default; ``joint`` applies
    one correlated two-qubit depolarizing channel with parameter alpha1 and
    refuses an alpha2.
    """

    alpha1: float
    alpha2: float | None = None
    joint: bool = False

    def __post_init__(self):
        if self.joint and self.alpha2 is not None:
            raise ValueError("a joint depolarizing channel does not read alpha2")
        # CPTP range of depolarizing_ptm: -1/(d^2 - 1) <= alpha <= 1
        lo = -1 / 15 if self.joint else -1 / 3
        for name in ("alpha1", "alpha2"):
            value = getattr(self, name)
            if value is not None and not lo <= value <= 1:
                raise ValueError(f"{name} = {value} outside the CPTP range [{lo:.4g}, 1]")


@dataclass(frozen=True)
class Decoherence:
    """T1/T2 decay on both qubits over each generator slot."""

    params: DeviceParams


@dataclass(frozen=True)
class CrossTalk:
    """Coherent evolution under the drive Hamiltonian per generator slot."""

    params: DeviceParams
    steps: int = DEFAULT_EVOLVE_STEPS

    def __post_init__(self):
        self.params.require_crosstalk()
        if not MIN_EVOLVE_STEPS <= self.steps <= MAX_EVOLVE_STEPS:
            raise ValueError(f"need {MIN_EVOLVE_STEPS} to {MAX_EVOLVE_STEPS} steps per gate")


@dataclass(frozen=True)
class StaticError:
    """Given error channels: one (16, 16) channel after every slot, or
    ``ptm[s]`` after slot s of ``SLOTS``, shape (48, 16, 16), which makes
    the gate set of given slot channels (see :class:`NoisyGateSet`)."""

    ptm: np.ndarray

    def __post_init__(self):
        if self.ptm.shape not in ((16, 16), (len(SLOTS), 16, 16)):
            raise ValueError(f"a static error is (16, 16) or (48, 16, 16), not {self.ptm.shape}")
        self.ptm.setflags(write=False)


@dataclass(frozen=True)
class Composite:
    """Error factors of several models composed in order after the gate."""

    factors: tuple


NoiseModel = Ideal | Depolarizing | Decoherence | CrossTalk | StaticError | Composite

# The generator pairs played on the two drive lines: every pair but the
# all-idle one, which no Clifford word plays.  Row 0 of a gate set's slot
# channels is the identity pad, so slot s sits in row s + 1.
SLOTS = tuple((a, b) for a in GATE_ALPHABET for b in GATE_ALPHABET if (a, b) != (None, None))
_SLOT_ROW = {slot: row for row, slot in enumerate(SLOTS, start=1)}


@lru_cache(maxsize=None)
def _ideal_slot_ptms() -> np.ndarray:
    """Read-only (49, 16, 16): the identity pad, then the ideal PTM of each
    slot of ``SLOTS``, kron's bits by one broadcast product; pair (a, b) of
    GATE_ALPHABET comes out at 7a + b, so (None, None), the pad, is last."""
    one = np.stack([generator_ptm(g) for g in GATE_ALPHABET[:-1]] + [np.eye(4)])
    pairs = (one[:, None, :, None, :, None] * one[None, :, None, :, None, :]).reshape(-1, 16, 16)
    ptms = np.roll(pairs, 1, axis=0)
    ptms.setflags(write=False)
    return ptms


@lru_cache(maxsize=None)
def _slot_positions(kind: str) -> np.ndarray:
    """(len(group), L): the ``slot_channels`` row of each slot of each
    element's ``element_slots``, or 0, the identity pad, past its end.
    Each pass holds one element's slots at a time: a list of the whole
    group's raised ``predict``'s peak RSS by ~0.2 MB."""
    words = get_group(kind).words
    rows = np.zeros((len(words), max(map(len, map(element_slots, words)))), dtype=np.int64)
    for row, element in zip(rows, map(element_slots, words)):
        row[: len(element)] = [_SLOT_ROW[slot] for slot in element]
    rows.setflags(write=False)
    return rows


def describe_model(model: NoiseModel) -> str:
    if isinstance(model, Ideal):
        return "ideal"
    if isinstance(model, Depolarizing):
        a2 = model.alpha1 if model.alpha2 is None else model.alpha2
        if model.joint:
            return f"joint depolarizing(alpha={model.alpha1})"
        return f"depolarizing(alpha1={model.alpha1}, alpha2={a2})"
    if isinstance(model, Decoherence):
        return "decoherence(T1/T2)"
    if isinstance(model, CrossTalk):
        return f"crosstalk(gate_time={model.params.gate_time * 1e9:g} ns)"
    if isinstance(model, StaticError):
        return "static error channel"
    if isinstance(model, Composite):
        return " + ".join(describe_model(f) for f in model.factors)
    raise TypeError(f"unknown noise model {model!r}")


def _gate_dependent(model: NoiseModel) -> bool:
    """Whether a CrossTalk or a per-slot StaticError sits anywhere in
    ``model``, read from its structure: nothing is integrated."""
    if isinstance(model, Composite):
        return any(_gate_dependent(f) for f in model.factors)
    return isinstance(model, CrossTalk) or (isinstance(model, StaticError) and model.ptm.ndim == 3)


def _slot_errors(model: NoiseModel) -> np.ndarray:
    """Error channels E with noisy = E @ ideal of the slots of ``SLOTS``:
    one (16, 16) channel when the error does not depend on the gate, else
    one per slot, (len(SLOTS), 16, 16).  A composite's factors act in
    order."""
    if isinstance(model, Ideal):
        return np.eye(16)
    if isinstance(model, Depolarizing):
        if model.joint:
            return depolarizing_ptm(model.alpha1, 2)
        a2 = model.alpha1 if model.alpha2 is None else model.alpha2
        return tensor(depolarizing_ptm(model.alpha1), depolarizing_ptm(a2))
    if isinstance(model, Decoherence):
        p = model.params
        return tensor(
            decoherence_ptm(p.t1_1, p.t2_1, p.gate_time),
            decoherence_ptm(p.t1_2, p.t2_2, p.gate_time),
        )
    if isinstance(model, StaticError):
        return model.ptm
    if isinstance(model, CrossTalk):
        noisy = evolve_to_ptms(model.params, SLOTS, model.steps)
        return noisy @ _ideal_slot_ptms()[1:].swapaxes(1, 2)
    if isinstance(model, Composite):
        out = np.eye(16)
        for f in model.factors:
            out = _slot_errors(f) @ out
        return out
    raise TypeError(f"unknown noise model {model!r}")


# Elements composed at a time, in place, into the element table or the
# buffer of ``NoisyGateSet.chunks``: 128 KB of channels.  The sample-a CxC
# table (1.18 MB) took 0.46 ms in chunks of 64, 0.44 ms of 128, 0.64 ms of
# 16 and 1.79 ms as whole-group products (one CPU, median of 41), which
# peaked at 3.54 MB (tracemalloc), where chunks of 64 peak at 1.44 MB.
TABLE_CHUNK_ELEMENTS = 64


class NoisyGateSet:
    """Noisy channels of the 48 played slots and of every group element, for
    one model at one noise granularity (per generator slot, or per Clifford
    for a gate-independent model), built once.  The gate set of given slot
    channels C is ``NoisyGateSet(StaticError(E))`` with ``E[s] = C[s] @
    ideal[s].T`` for the ideal slot PTMs, exact as they are signed
    permutations; E can also be one factor of a ``Composite``.

    ``slot_channels`` holds the identity pad in row 0 and the channel of
    ``SLOTS[s]`` in row s + 1, all built as one batch: for a cross-talk
    model, one :func:`evolve_to_ptms` call.  One loop (:meth:`_compose`)
    composes the element channels, in place and a chunk of elements at a
    time: ``element_table`` into the table, and :meth:`chunks` into one
    reused buffer, whose chunks prediction averages without a table.  When
    the error channels are diagonal in the Pauli basis (ideal,
    depolarizing, a Pauli-diagonal static error and composites of these),
    ``monomial_table`` keeps each chunk row's one nonzero entry, so that
    propagation can follow each Pauli's path instead.
    """

    def __init__(self, model: NoiseModel, granularity: str = "generator"):
        if granularity not in ("generator", "clifford"):
            raise ValueError("granularity must be 'generator' or 'clifford'")
        if granularity == "clifford" and _gate_dependent(model):
            raise ValueError("per-Clifford noise granularity requires a gate-independent model")
        self.model = model
        self.granularity = granularity
        self._tables: dict[str, np.ndarray] = {}
        self._monomials: dict[str, np.ndarray | None] = {}

    @cached_property
    def _error(self) -> np.ndarray:
        """The model's error channel, evaluated once: see :func:`_slot_errors`."""
        return _slot_errors(self.model)

    @cached_property
    def slot_channels(self) -> np.ndarray:
        """Read-only (49, 16, 16): the identity, then each slot's channel."""
        pad, ideal = np.split(_ideal_slot_ptms(), [1])
        channels = np.concatenate([pad, self._error @ ideal])
        channels.setflags(write=False)
        return channels

    def channel(self, gate: tuple[str | None, str | None]) -> np.ndarray:
        """Noisy PTM of one played slot."""
        # scanned, not hashed: an unhashable slot is refused like any other
        if type(gate) is not tuple or gate not in SLOTS:
            raise ValueError(f"unknown generator pair {gate!r}")
        return self.slot_channels[_SLOT_ROW[gate]]

    def error_factor(self, gate: tuple[str | None, str | None]) -> np.ndarray:
        """Error channel E with noisy = E @ ideal for one slot; exact, as
        the ideal PTM is a signed permutation."""
        return self.channel(gate) @ _ideal_slot_ptms()[_SLOT_ROW[gate]].T

    def _compose(self, group: CliffordGroup, rows: slice, out: np.ndarray) -> None:
        """Noisy channels of the elements ``rows`` of ``group``, composed in
        ``out``: per generator, the slot channels along each element's padded
        word, first rightmost; per Clifford, each element's PTM, then the
        error channel.  A stacked product is one matrix product per element,
        so a channel's bits depend neither on its chunk nor on the buffer,
        and the identity pad past a short word's end leaves the product
        exact."""
        if self.granularity == "clifford":
            np.matmul(self._error, group.ptms[rows], out=out)
            return
        positions = _slot_positions(group.kind)[rows]
        out[...] = self.slot_channels[positions[:, 0]]
        for column in positions[:, 1:].T:
            np.matmul(self.slot_channels[column], out, out=out)

    def chunks(self, group: CliffordGroup):
        """Yield ``(rows, chunk)`` in element order: the channels of the
        elements ``rows`` (a slice) of ``group``, composed (:meth:`_compose`)
        into one buffer of TABLE_CHUNK_ELEMENTS, which the next overwrites."""
        buffer = np.empty((TABLE_CHUNK_ELEMENTS, 16, 16))
        for first in range(0, len(group), TABLE_CHUNK_ELEMENTS):
            rows = slice(first, min(first + TABLE_CHUNK_ELEMENTS, len(group)))
            chunk = buffer[: rows.stop - first]
            self._compose(group, rows, chunk)
            yield rows, chunk

    def element_table(self, group: CliffordGroup) -> np.ndarray:
        """Noisy channel of every group element, shape (len(group), 16, 16),
        composed (:meth:`_compose`) TABLE_CHUNK_ELEMENTS elements at a time
        into the table itself."""
        if group.kind not in self._tables:
            table = np.empty((len(group), 16, 16))
            for first in range(0, len(group), TABLE_CHUNK_ELEMENTS):
                rows = slice(first, first + TABLE_CHUNK_ELEMENTS)
                self._compose(group, rows, table[rows])
            table.setflags(write=False)
            self._tables[group.kind] = table
        return self._tables[group.kind]

    def monomial_table(self, group: CliffordGroup) -> np.ndarray | None:
        """Read-only ``factor`` (len(group), 16) with ``table[g, i] =
        factor[g, i] * e_source[g, i]`` for the group's :meth:`element_table`
        and its Pauli permutation ``source = np.argsort(group.targets, 1)``,
        when the model's error channels are diagonal in the Pauli basis;
        None otherwise, as for decoherence, cross-talk, a ZZ rotation or a
        Pauli-permuting static error.  As ``E[s] = C[s] @ ideal[s].T``
        exactly, a diagonal error is what keeps every channel nonzero only
        where its ideal PTM is.  The factors are read out of the
        :meth:`chunks`: the table's bits."""
        if group.kind not in self._monomials:
            error, factor = self._error, None
            if np.count_nonzero(error) == np.count_nonzero(np.diagonal(error, 0, -2, -1)):
                # argsort's inverse permutations without argsort, whose first
                # call in a process costs ~0.13 MB of peak RSS
                source = np.empty_like(group.targets)
                np.put_along_axis(source, group.targets, np.arange(16), 1)
                factor = np.empty((len(group), 16))
                for rows, chunk in self.chunks(group):
                    factor[rows] = np.take_along_axis(chunk, source[rows, :, None], 2)[..., 0]
                factor.setflags(write=False)
            self._monomials[group.kind] = factor
        return self._monomials[group.kind]


# ---------------------------------------------------------------------------
# Model-based predictions


def average_error_channel(gateset: NoisyGateSet, group: CliffordGroup) -> np.ndarray:
    """Exact group average of per-Clifford errors noisy(i) @ ideal(i)^-1 from
    the gate set's chunks, with no table (the sample-a CxC one peaks at
    0.53 MB).  Each error is exact, as ideal(i) is a signed permutation, and
    they are summed one at a time in element order: the table einsum's bits.
    Per Clifford every element's error is the one error channel, returned
    as it is."""
    if gateset.granularity == "clifford":
        return gateset._error.copy()
    total = np.zeros((1, 16, 16))
    for rows, chunk in gateset.chunks(group):
        terms = chunk @ group.ptms[rows].swapaxes(1, 2)
        total = np.add.reduce(np.concatenate([total, terms]), axis=0, keepdims=True)
    return total[0] / len(group)


def predict_alphas(gateset: NoisyGateSet, group_kind: str):
    """Twirl of the exact average error channel for one experiment group
    ('cxi', 'ixc' or 'cxc'): a TwirlOutcome whose alphas are per-Clifford
    depolarizing parameters, ``alpha_1``, ``alpha_2`` or the three CxC
    ones."""
    from .twirl import twirl_cxc, twirl_cxi

    lam = average_error_channel(gateset, get_group(group_kind))
    if group_kind == "cxc":
        return twirl_cxc(lam)
    if group_kind == "cxi":
        return twirl_cxi(lam, which=1)
    if group_kind == "ixc":
        return twirl_cxi(lam, which=2)
    raise ValueError(f"unsupported group kind '{group_kind}'")


def predict_addressability(gateset: NoisyGateSet, gamma_max_m: int = 128) -> dict:
    """Full model-based prediction of the protocol outputs (no sampling).

    Returns per-Clifford alphas, gate errors, addressability deltas and a
    diagnostic for the non-exponential correction of the single-subsystem
    decay (max |(Gamma^m)_00 - alpha^m| over m).
    """
    from .report import build_report
    from .twirl import gamma_decay_curve

    exp1, exp2, exp3 = (predict_alphas(gateset, kind) for kind in ("cxi", "ixc", "cxc"))
    alphas = {**exp1.alphas, **exp2.alphas, **exp3.alphas}
    report = build_report({k: (alpha, 0.0) for k, alpha in alphas.items()})

    ms = np.arange(gamma_max_m + 1)
    gamma_dev = {}
    # each gamma block read back out of its twirled PTM and copied: numpy's
    # matmul takes BLAS only for unit-stride rows, and its own loop may round
    # differently
    for name, gamma, alpha in (
        ("exp1", exp1.twirled.reshape(4, 4, 4, 4)[1, :, 1, :], alphas["alpha_1"]),
        ("exp2", exp2.twirled.reshape(4, 4, 4, 4)[:, 1, :, 1], alphas["alpha_2"]),
    ):
        curve = gamma_decay_curve(gamma.copy(), ms)
        gamma_dev[name] = float(np.max(np.abs(curve - alpha**ms)))

    group = get_group("c1")
    return {
        "alphas": alphas,
        "gate_errors": {
            key: getattr(report, key).value
            for key in ("r1", "r2", "r1_given_2", "r2_given_1")
        },
        "delta_r": {
            key: getattr(report, key).value for key in ("dr1_given_2", "dr2_given_1")
        },
        "delta_alpha": report.dalpha.value,
        "gamma_exponential_deviation": gamma_dev,
        "mean_generators_per_clifford": group.mean_slots,
        "model": describe_model(gateset.model),
    }
