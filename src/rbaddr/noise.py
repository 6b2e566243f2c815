"""Per-gate error channels: depolarizing, T1/T2 decoherence and coherent
cross-talk from the dressed-basis two-qubit drive Hamiltonian.

The cross-talk Hamiltonian is evaluated in the rotating frame of both
drives, each resonant with its own qubit.  Terms where a drive acts on
the *other* qubit therefore oscillate at the qubit-qubit detuning; on
hardware this is what turns classical drive leakage into an AC Stark
shift rather than a full coherent rotation.  The residual frame
detunings are zero on resonance and the always-on ZZ shift is static.

Gate duration and pulse shape are not constrained by the device data and
dominate the cross-talk error predictions; they are explicit, documented
configuration (defaults: 24 ns, flat-top envelope with smooth C-infinity
edges over a quarter of the gate on each side).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

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
    ptm_from_kraus,
    ptm_from_unitary,
    tensor,
)

TWO_PI = 2 * np.pi

# Pulse duration is not constrained by the published device data; 24 ns
# keeps the model's addressability predictions in the measured range and
# every cross-talk figure is reported alongside this assumption.
DEFAULT_GATE_TIME = 24e-9
DEFAULT_EVOLVE_STEPS = 256

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
    # residual frame detunings (rad/s); zero when drives sit on resonance
    detuning1: float = 0.0
    detuning2: float = 0.0

    def __post_init__(self):
        for name in ("t1_1", "t1_2", "t2_1", "t2_2", "gate_time"):
            if getattr(self, name) < 0 or (name != "gate_time" and getattr(self, name) == 0):
                raise ValueError(f"{name} must be positive")
        if self.t2_1 > 2 * self.t1_1 or self.t2_2 > 2 * self.t1_2:
            raise ValueError("T2 must not exceed 2*T1")
        for name in ("m12", "m21", "mu1", "mu2", "nu1", "nu2"):
            value = getattr(self, name)
            if value is not None and not abs(value) < 1:
                raise ValueError(f"|{name}| must be < 1")

    @property
    def delta(self) -> float:
        """Qubit-qubit detuning omega1 - omega2 (rad/s)."""
        return self.omega1 - self.omega2

    def missing_crosstalk_fields(self) -> tuple[str, ...]:
        return tuple(f for f in _CROSSTALK_FIELDS if getattr(self, f) is None)

    def require_crosstalk(self) -> None:
        missing = self.missing_crosstalk_fields()
        if missing:
            raise ValueError(
                "cross-talk model needs parameters: " + ", ".join(missing)
            )

    @classmethod
    def from_config(cls, cfg: dict) -> "DeviceParams":
        """Build from flat config keys (GHz / us / MHz / ns units).

        Keys: omega1_ghz, omega2_ghz (omega/2pi), t1_1_us, t1_2_us,
        t2_1_us, t2_2_us, zeta_mhz (zeta/2pi), m12, m21, mu1, mu2, nu1,
        nu2, gate_time_ns.
        """
        def opt(key, scale=1.0):
            return float(cfg[key]) * scale if key in cfg else None

        kwargs = dict(
            omega1=float(cfg["omega1_ghz"]) * TWO_PI * 1e9,
            omega2=float(cfg["omega2_ghz"]) * TWO_PI * 1e9,
            t1_1=float(cfg["t1_1_us"]) * 1e-6,
            t1_2=float(cfg["t1_2_us"]) * 1e-6,
            t2_1=float(cfg["t2_1_us"]) * 1e-6,
            t2_2=float(cfg["t2_2_us"]) * 1e-6,
            zeta=opt("zeta_mhz", TWO_PI * 1e6),
        )
        for key in ("m12", "m21", "mu1", "mu2", "nu1", "nu2"):
            kwargs[key] = opt(key)
        if "gate_time_ns" in cfg:
            kwargs["gate_time"] = float(cfg["gate_time_ns"]) * 1e-9
        return cls(**kwargs)

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


@dataclass(frozen=True)
class DriveEnvelope:
    """Shaped drive on one qubit implementing a calibrated rotation.

    The envelope is a flat top with smooth edges; the peak amplitude is
    normalized so that the integral of eps(t) equals angle/2 (a term
    eps * sigma in the Hamiltonian rotates by 2 * integral(eps)).
    """

    target: int  # 1 or 2
    axis: str  # 'x' or 'y'
    angle: float  # signed rotation angle (rad)
    gate_time: float
    ramp_frac: float = 0.25

    def __post_init__(self):
        if self.target not in (1, 2):
            raise ValueError("target must be 1 or 2")
        if self.axis not in ("x", "y"):
            raise ValueError("axis must be 'x' or 'y'")
        if self.gate_time <= 0:
            raise ValueError("gate_time must be positive")

    def shape(self, t: np.ndarray) -> np.ndarray:
        """Unit-peak envelope shape on [0, gate_time]."""
        t = np.asarray(t, dtype=float)
        ramp = self.ramp_frac * self.gate_time
        up = _smooth_step(t / ramp)
        down = _smooth_step((self.gate_time - t) / ramp)
        inside = (t >= 0) & (t <= self.gate_time)
        return np.where(inside, up * down, 0.0)

    @cached_property
    def _peak(self) -> float:
        # normalization integral via composite 2-point Gauss-Legendre;
        # 4096 panels put the quadrature error far below evolution error
        npanels = 4096
        h = self.gate_time / npanels
        offs = np.array([0.5 - math.sqrt(3) / 6, 0.5 + math.sqrt(3) / 6])
        t = (np.arange(npanels)[:, None] + offs[None, :]) * h
        integral = float(self.shape(t).sum() * h / 2)
        return (self.angle / 2) / integral

    def amplitude(self, t) -> np.ndarray:
        """eps(t) in rad/s (signed)."""
        return self._peak * self.shape(t)


def generator_envelope(
    name: str, target: int, gate_time: float, ramp_frac: float = 0.25
) -> DriveEnvelope:
    """Envelope implementing a named generator pulse on one qubit."""
    axis, angle = GENERATOR_ANGLES[name]
    return DriveEnvelope(target, axis, angle, gate_time, ramp_frac)


# ---------------------------------------------------------------------------
# Cross-talk Hamiltonian and time evolution

_P2 = pauli_matrices(2)
_ZZ = _P2[15]
_ZI = _P2[12]
_IZ = _P2[3]


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


def _conditioned(op: np.ndarray, target: int, cond: str | None) -> np.ndarray:
    i2 = np.eye(2)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    if target == 1:
        other = z if cond == "z2" else i2
        return np.kron(op, other)
    other = z if cond == "z1" else i2
    return np.kron(other, op)


class _HamiltonianSampler:
    """Precomputed term structure of the drive Hamiltonian for fast sampling."""

    def __init__(
        self,
        p: DeviceParams,
        drive1: DriveEnvelope | None,
        drive2: DriveEnvelope | None,
    ):
        p.require_crosstalk()
        self.static = (
            p.zeta / 4 * _ZZ - p.detuning1 / 2 * _ZI - p.detuning2 / 2 * _IZ
        ).astype(complex)
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        y = np.array([[0, -1j], [1j, 0]], dtype=complex)
        # per term: (envelope, coeff, detuning, phase offset, X-part, Y-part)
        self.terms = []
        for which, drive in ((1, drive1), (2, drive2)):
            if drive is None:
                continue
            omega_drive = p.omega1 if which == 1 else p.omega2
            phi0 = 0.0 if drive.axis == "x" else np.pi / 2
            for coeff, target, cond in _drive_terms(p, which):
                omega_frame = p.omega1 if target == 1 else p.omega2
                self.terms.append(
                    (
                        drive,
                        coeff,
                        omega_drive - omega_frame,
                        phi0,
                        _conditioned(x, target, cond),
                        _conditioned(y, target, cond),
                    )
                )

    def stack_at(self, times: np.ndarray) -> np.ndarray:
        """Hamiltonians at many times at once, shape (len(times), 4, 4)."""
        out = np.broadcast_to(self.static, (len(times), 4, 4)).copy()
        amps = {id(term[0]): term[0].amplitude(times) for term in self.terms}
        for drive, coeff, delta, phi0, mx, my in self.terms:
            phase = delta * times + phi0
            weight = coeff * amps[id(drive)]
            out += (weight * np.cos(phase))[:, None, None] * mx
            out += (weight * np.sin(phase))[:, None, None] * my
        return out


def crosstalk_hamiltonian(
    p: DeviceParams,
    drive1: DriveEnvelope | None,
    drive2: DriveEnvelope | None,
    t: float,
) -> np.ndarray:
    """Two-qubit drive Hamiltonian at time t, doubly-rotating frame (rad/s).

    Each drive is resonant with its own qubit, so its terms on that qubit
    are static while its leakage terms on the partner rotate at the
    qubit-qubit detuning.  Y-axis drives use the same coupling pattern
    with the drive phase advanced by pi/2.
    """
    return _HamiltonianSampler(p, drive1, drive2).stack_at(np.array([float(t)]))[0]


def _expm_antihermitian(omega: np.ndarray) -> np.ndarray:
    """exp(Omega) for anti-Hermitian Omega via eigendecomposition."""
    h_eff = 1j * omega
    w, v = np.linalg.eigh(h_eff)
    return (v * np.exp(-1j * w)) @ v.conj().T


def evolve_to_ptm(
    p: DeviceParams,
    drives: list[DriveEnvelope],
    steps: int = DEFAULT_EVOLVE_STEPS,
) -> np.ndarray:
    """Time-ordered evolution under the cross-talk Hamiltonian as a PTM.

    Fourth-order Magnus integrator with two Gauss-Legendre samples per
    step; doubling ``steps`` changes the PTM entries by less than 1e-8 at
    the default settings.
    """
    if steps < 16:
        raise ValueError("need at least 16 steps per gate")
    drive1 = next((d for d in drives if d.target == 1), None)
    drive2 = next((d for d in drives if d.target == 2), None)
    span = p.gate_time
    if span == 0.0:
        return np.eye(16)
    sampler = _HamiltonianSampler(p, drive1, drive2)
    h = span / steps
    c_lo = 0.5 - math.sqrt(3) / 6
    c_hi = 0.5 + math.sqrt(3) / 6
    starts = np.arange(steps) * h
    b_lo = -1j * sampler.stack_at(starts + c_lo * h)
    b_hi = -1j * sampler.stack_at(starts + c_hi * h)
    u = np.eye(4, dtype=complex)
    for k in range(steps):
        b1, b2 = b_lo[k], b_hi[k]
        omega = (h / 2) * (b1 + b2) + (math.sqrt(3) * h * h / 12) * (b2 @ b1 - b1 @ b2)
        u = _expm_antihermitian(omega) @ u
    return ptm_from_unitary(u, atol=1e-8)


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


def depolarizing_kraus(p: float) -> list[np.ndarray]:
    """Kraus set of the depolarizing channel with error probability p."""
    if not 0 <= p <= 1:
        raise ValueError("p must be in [0, 1]")
    i2, x, y, z = pauli_matrices(1)
    return [
        math.sqrt(1 - p) * i2,
        math.sqrt(p / 3) * x,
        math.sqrt(p / 3) * y,
        math.sqrt(p / 3) * z,
    ]


def amplitude_damping_kraus(gamma: float) -> list[np.ndarray]:
    if not 0 <= gamma <= 1:
        raise ValueError("gamma must be in [0, 1]")
    k0 = np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex)
    return [k0, k1]


def zz_rotation_ptm(theta: float) -> np.ndarray:
    """PTM of exp(-i theta ZZ / 2); a purely correlated coherent error."""
    u = np.diag(np.exp(-1j * theta / 2 * np.array([1.0, -1.0, -1.0, 1.0])))
    return ptm_from_unitary(u)


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
# Noise models


@dataclass(frozen=True)
class Ideal:
    """No errors: gates are their exact PTMs."""


@dataclass(frozen=True)
class Depolarizing:
    """Depolarizing error per generator slot.

    Product form dep(alpha1) (x) dep(alpha2) by default; ``joint`` applies
    one correlated two-qubit depolarizing channel with parameter alpha1.
    """

    alpha1: float
    alpha2: float | None = None
    joint: bool = False


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


@dataclass(frozen=True)
class StaticError:
    """A fixed gate-independent channel applied after every slot."""

    ptm: np.ndarray

    def __post_init__(self):
        self.ptm.setflags(write=False)


@dataclass(frozen=True)
class Composite:
    """Error factors of several models composed in order after the gate."""

    factors: tuple


NoiseModel = Ideal | Depolarizing | Decoherence | CrossTalk | StaticError | Composite

GATE_ALPHABET = tuple(GENERATOR_ANGLES) + (None,)


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


def ideal_gate_ptm(gate: tuple[str | None, str | None]) -> np.ndarray:
    """PTM of one generator slot (idle = identity) on two qubits."""
    g1, g2 = gate
    p1 = generator_ptm(g1) if g1 is not None else np.eye(4)
    p2 = generator_ptm(g2) if g2 is not None else np.eye(4)
    return tensor(p1, p2)


def _gate_independent_error(model: NoiseModel) -> np.ndarray | None:
    """The per-slot error PTM when it does not depend on the gate."""
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
    if isinstance(model, Composite):
        factors = [_gate_independent_error(f) for f in model.factors]
        if any(f is None for f in factors):
            return None
        out = np.eye(16)
        for f in factors:
            out = f @ out
        return out
    return None


class NoisyGateSet:
    """Per-slot and per-element noisy channels for a model, built once."""

    def __init__(self, model: NoiseModel):
        self.model = model
        self._cache: dict[tuple[str | None, str | None], np.ndarray] = {}
        self._tables: dict[tuple[str, str], np.ndarray] = {}
        self._static = _gate_independent_error(model)

    def error_factor(self, gate: tuple[str | None, str | None]) -> np.ndarray:
        """Error channel E with noisy = E @ ideal for one slot."""
        return self._error(self.model, gate)

    def _error(self, model: NoiseModel, gate) -> np.ndarray:
        static = _gate_independent_error(model)
        if static is not None:
            return static
        if isinstance(model, CrossTalk):
            drives = []
            for target, name in ((1, gate[0]), (2, gate[1])):
                if name is not None:
                    drives.append(
                        generator_envelope(name, target, model.params.gate_time)
                    )
            noisy = evolve_to_ptm(model.params, drives, model.steps)
            return noisy @ ideal_gate_ptm(gate).T
        if isinstance(model, Composite):
            out = np.eye(16)
            for f in model.factors:
                out = self._error(f, gate) @ out
            return out
        raise TypeError(f"unknown noise model {model!r}")

    def channel(self, gate: tuple[str | None, str | None]) -> np.ndarray:
        """Noisy PTM of one slot."""
        if gate not in self._cache:
            g1, g2 = gate
            if (g1 is not None and g1 not in GENERATOR_ANGLES) or (
                g2 is not None and g2 not in GENERATOR_ANGLES
            ):
                raise ValueError(f"unknown generator pair {gate!r}")
            ptm = self.error_factor(gate) @ ideal_gate_ptm(gate)
            ptm.setflags(write=False)
            self._cache[gate] = ptm
        return self._cache[gate]

    def clifford_error(self) -> np.ndarray:
        """One error channel per Clifford (gate-independent models only)."""
        if self._static is None:
            raise ValueError(
                "per-Clifford noise granularity requires a gate-independent model"
            )
        return self._static

    def element_table(self, group: CliffordGroup, granularity: str) -> np.ndarray:
        """Noisy channel of every group element, shape (len(group), 16, 16)."""
        key = (group.kind, granularity)
        if key not in self._tables:
            channels = [element_channel(e, self, granularity) for e in group.elements]
            self._tables[key] = np.stack(channels)
            self._tables[key].setflags(write=False)
        return self._tables[key]


def noisy_gate(model: NoiseModel, gate: tuple[str | None, str | None]) -> np.ndarray:
    """Noisy PTM of one generator slot (convenience over NoisyGateSet)."""
    return NoisyGateSet(model).channel(gate)


# ---------------------------------------------------------------------------
# Model-based predictions


def element_channel(
    group_element, gateset: NoisyGateSet, granularity: str = "generator"
) -> np.ndarray:
    """Noisy channel of one Clifford element (its padded generator word)."""
    if granularity == "clifford":
        return gateset.clifford_error() @ group_element.ptm
    out = np.eye(16)
    for slot in element_slots(group_element):
        out = gateset.channel(slot) @ out
    return out


def average_error_channel(
    model: NoiseModel | NoisyGateSet,
    group: CliffordGroup | str,
    granularity: str = "generator",
) -> np.ndarray:
    """Exact group average of per-Clifford errors noisy(i) @ ideal(i)^-1."""
    if isinstance(group, str):
        group = get_group(group)
    gateset = model if isinstance(model, NoisyGateSet) else NoisyGateSet(model)
    table = gateset.element_table(group, granularity)
    ideal = np.stack([e.ptm for e in group.elements])
    return np.einsum("gij,gkj->ik", table, ideal) / len(group)


def predict_alphas(
    model: NoiseModel | NoisyGateSet, group_kind: str, granularity: str = "generator"
):
    """Twirl of the exact average error channel for one experiment group.

    Returns a TwirlOutcome for 'cxc' and SubsystemTwirlBlocks for
    'cxi'/'ixc'; these are per-Clifford depolarizing parameters.
    """
    from .twirl import twirl_cxc, twirl_cxi

    lam = average_error_channel(model, group_kind, granularity)
    if group_kind == "cxc":
        return twirl_cxc(lam)
    if group_kind == "cxi":
        return twirl_cxi(lam, which=1)
    if group_kind == "ixc":
        return twirl_cxi(lam, which=2)
    raise ValueError(f"unsupported group kind '{group_kind}'")


def predict_addressability(
    model: NoiseModel, gamma_max_m: int = 128, granularity: str = "generator"
) -> dict:
    """Full model-based prediction of the protocol outputs (no sampling).

    Returns per-Clifford alphas, gate errors, addressability deltas and a
    diagnostic for the non-exponential correction of the single-subsystem
    decay (max |(Gamma^m)_00 - alpha^m| over m).
    """
    from .report import delta_alpha, delta_r, gate_error
    from .twirl import gamma_decay_curve

    gateset = NoisyGateSet(model)
    blocks1 = predict_alphas(gateset, "cxi", granularity)
    blocks2 = predict_alphas(gateset, "ixc", granularity)
    out3 = predict_alphas(gateset, "cxc", granularity)
    alpha_1 = blocks1.alpha
    alpha_2 = blocks2.alpha
    a_1_2 = out3.alphas["alpha_1_2"]
    a_2_1 = out3.alphas["alpha_2_1"]
    a_12 = out3.alphas["alpha_12"]

    r1 = gate_error(alpha_1)
    r2 = gate_error(alpha_2)
    r_1_2 = gate_error(a_1_2)
    r_2_1 = gate_error(a_2_1)

    ms = np.arange(gamma_max_m + 1)
    gamma_dev = {}
    for name, blocks in (("exp1", blocks1), ("exp2", blocks2)):
        curve = gamma_decay_curve(blocks, ms)
        gamma_dev[name] = float(np.max(np.abs(curve - blocks.alpha**ms)))

    group = get_group("c1")
    return {
        "alphas": {
            "alpha_1": alpha_1,
            "alpha_2": alpha_2,
            "alpha_1_2": a_1_2,
            "alpha_2_1": a_2_1,
            "alpha_12": a_12,
        },
        "gate_errors": {
            "r1": r1.value,
            "r2": r2.value,
            "r1_given_2": r_1_2.value,
            "r2_given_1": r_2_1.value,
        },
        "delta_r": {
            "dr1_given_2": delta_r(r1, r_1_2).value,
            "dr2_given_1": delta_r(r2, r_2_1).value,
        },
        "delta_alpha": delta_alpha(
            (a_12, 0.0), (a_1_2, 0.0), (a_2_1, 0.0)
        ).value,
        "gamma_exponential_deviation": gamma_dev,
        "mean_generators_per_clifford": group.mean_slots,
        "model": describe_model(model),
    }
