"""The three simultaneous-benchmarking experiments.

Experiment 1 twirls qubit 1 alone (CxI, qubit 2 idles), experiment 2
mirrors it (IxC), experiment 3 runs independent random Cliffords on both
qubits at once (CxC).  Each sequence of m random elements plus the
table-computed recovery is propagated through the noisy element channels
of one gate set shared by the three experiments, K sequences at a time;
the four final populations give the traced projections p00+p01 (qubit 1),
p00+p10 (qubit 2) and the correlation p00+p11.

Noise enters once per generator slot by default (error scales with
pulse count); an optional per-Clifford mode applies one channel per
element for gate-independent models.  Per-sequence RNG streams are
derived from (seed, experiment, m, k), so results are independent of
execution order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

# element_slots stays importable here: bench/run.py wraps it under this name
from .cliffords import CliffordGroup, element_slots, get_group  # noqa: F401
from .noise import NoiseModel, NoisyGateSet
from .paulis import computational_povm_vector, computational_state

EXPERIMENT_GROUPS = {"exp1": "cxi", "exp2": "ixc", "exp3": "cxc"}
EXPERIMENT_CODES = {"exp1": 1, "exp2": 2, "exp3": 3}
PROJECTIONS = ("Q1", "Q2", "CORR")

DEFAULT_LENGTHS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)

CSV_HEADER = ["experiment", "projection", "m", "mean", "stderr", "K"]


@dataclass(frozen=True)
class SpamModel:
    """State preparation and measurement model in the Pauli basis."""

    prep: np.ndarray  # length-16 Pauli vector of the prepared state
    povm: np.ndarray  # 4x16 rows: measurement vectors for p00, p01, p10, p11
    assignment: np.ndarray | None = None  # 4x4 stochastic misassignment

    @classmethod
    def perfect(cls) -> "SpamModel":
        prep = computational_state("00")
        povm = np.stack(
            [computational_povm_vector(b) for b in ("00", "01", "10", "11")]
        )
        return cls(prep, povm)

    def with_misassignment(self, matrix: np.ndarray) -> "SpamModel":
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape != (4, 4) or np.any(matrix < 0) or not np.allclose(
            matrix.sum(axis=0), 1.0, atol=1e-9
        ):
            raise ValueError("misassignment matrix must be 4x4 column-stochastic")
        return replace(self, assignment=matrix)

    def populations(self, state: np.ndarray) -> np.ndarray:
        p = self.povm @ state
        if self.assignment is not None:
            p = self.assignment @ p
        return p


@dataclass(frozen=True)
class RBConfig:
    """Configuration of one benchmarking run."""

    lengths: tuple[int, ...] = DEFAULT_LENGTHS
    K: int = 50
    seed: int = 0
    spam: SpamModel = field(default_factory=SpamModel.perfect)
    granularity: str = "generator"  # or "clifford"
    shots: int | None = None  # None = expectation-valued readout
    keep_raw: bool = False

    def __post_init__(self):
        lengths = tuple(int(m) for m in self.lengths)
        if not lengths or any(m < 1 for m in lengths):
            raise ValueError("sequence lengths must all be >= 1")
        if any(b <= a for a, b in zip(lengths, lengths[1:])):
            raise ValueError("sequence lengths must be strictly increasing")
        if self.K < 2:
            raise ValueError("need K >= 2 sequences per length")
        if self.granularity not in ("generator", "clifford"):
            raise ValueError("granularity must be 'generator' or 'clifford'")
        object.__setattr__(self, "lengths", lengths)


@dataclass
class SurvivalCurve:
    """Mean sequence fidelity of one projection vs sequence length."""

    experiment: str
    projection: str
    m: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    K: int
    raw: np.ndarray | None = None  # per-sequence values, shape (len(m), K)


def generate_sequence(
    group: CliffordGroup, m: int, rng: np.random.Generator
) -> tuple[np.ndarray, int]:
    """m uniform element indices plus the recovery index."""
    indices = group.sample_uniform(rng, m)
    return indices, group.recovery_index(indices)


def simulate_sequence(
    group: CliffordGroup,
    indices,
    recovery,
    gateset: NoisyGateSet,
    spam: SpamModel,
    granularity: str = "generator",
) -> np.ndarray:
    """Propagate one sequence, or K at once (indices (K, m), recovery (K,));
    returns (p00, p01, p10, p11), with a leading K axis for a batch."""
    table = gateset.element_table(group, granularity)
    columns = np.column_stack([np.atleast_2d(indices), np.atleast_1d(recovery)])
    state = np.broadcast_to(spam.prep, (len(columns), len(spam.prep)))
    for column in columns.T:
        state = np.einsum("rij,rj->ri", table[column], state)
    pops = spam.populations(state.T).T
    return pops if np.ndim(indices) == 2 else pops[0]


def _sequence_rng(cfg: RBConfig, experiment: str, m: int, k: int):
    return np.random.default_rng(
        [cfg.seed, EXPERIMENT_CODES[experiment], int(m), int(k)]
    )


def run_experiment(
    cfg: RBConfig, model: NoiseModel | NoisyGateSet, experiment: str
) -> dict[str, SurvivalCurve]:
    """Run one experiment; returns curves keyed Q1, Q2 (and CORR for exp3)."""
    if experiment not in EXPERIMENT_GROUPS:
        raise ValueError(f"unknown experiment '{experiment}'")
    group = get_group(EXPERIMENT_GROUPS[experiment])
    gateset = model if isinstance(model, NoisyGateSet) else NoisyGateSet(model)
    projections = PROJECTIONS if experiment == "exp3" else PROJECTIONS[:2]
    values = {proj: np.empty((len(cfg.lengths), cfg.K)) for proj in projections}
    for mi, m in enumerate(cfg.lengths):
        rngs = [_sequence_rng(cfg, experiment, m, k) for k in range(cfg.K)]
        drawn = [generate_sequence(group, m, rng) for rng in rngs]
        indices, recovery = map(np.array, zip(*drawn))
        pops = simulate_sequence(
            group, indices, recovery, gateset, cfg.spam, cfg.granularity
        )
        if cfg.shots is not None:
            probs = np.clip(pops, 0.0, None)
            probs = probs / probs.sum(axis=1, keepdims=True)
            counts = [rng.multinomial(cfg.shots, p) for rng, p in zip(rngs, probs)]
            pops = np.array(counts) / cfg.shots
        values["Q1"][mi] = pops[:, 0] + pops[:, 1]
        values["Q2"][mi] = pops[:, 0] + pops[:, 2]
        if "CORR" in values:
            values["CORR"][mi] = pops[:, 0] + pops[:, 3]
    curves = {}
    ms = np.array(cfg.lengths)
    for proj, raw in values.items():
        curves[proj] = SurvivalCurve(
            experiment=experiment,
            projection=proj,
            m=ms.copy(),
            mean=raw.mean(axis=1),
            stderr=raw.std(axis=1, ddof=1) / np.sqrt(cfg.K),
            K=cfg.K,
            raw=raw if cfg.keep_raw else None,
        )
    return curves


def run_protocol(cfg: RBConfig, model: NoiseModel) -> list[SurvivalCurve]:
    """All three experiments; curves in a fixed, deterministic order."""
    gateset = NoisyGateSet(model)
    out = []
    for experiment in ("exp1", "exp2", "exp3"):
        curves = run_experiment(cfg, gateset, experiment)
        for proj in PROJECTIONS:
            if proj in curves:
                out.append(curves[proj])
    return out


# ---------------------------------------------------------------------------
# Decay models (forward curves used by tests and the fitter)


def decay_single(m, amplitude: float, alpha: float, offset: float):
    """A alpha^m + e0."""
    return amplitude * np.power(alpha, np.asarray(m, dtype=float)) + offset


def decay_triple(m, a1, alpha_1_2, a2, alpha_2_1, a12, alpha_12, offset):
    """A1 a1^m + A2 a2^m + A12 a12^m + e0 (simultaneous-twirl observable)."""
    m = np.asarray(m, dtype=float)
    return (
        a1 * np.power(alpha_1_2, m)
        + a2 * np.power(alpha_2_1, m)
        + a12 * np.power(alpha_12, m)
        + offset
    )


def decay_gamma(m, amplitude: float, gamma: np.ndarray, offset: float):
    """e0 + A (Gamma^m)_00 (single-subsystem twirl, exact form)."""
    from .twirl import gamma_decay_curve

    return offset + amplitude * gamma_decay_curve(gamma, np.asarray(m))


# ---------------------------------------------------------------------------
# Curve CSV round trip


def _format_float(x: float) -> str:
    return repr(float(x))


def write_curves_csv(curves: list[SurvivalCurve], path) -> None:
    """Emit curves as CSV rows (experiment, projection, m, mean, stderr, K)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for curve in curves:
            for i in range(len(curve.m)):
                writer.writerow(
                    [
                        curve.experiment,
                        curve.projection,
                        int(curve.m[i]),
                        _format_float(curve.mean[i]),
                        _format_float(curve.stderr[i]),
                        curve.K,
                    ]
                )


def read_curves_csv(path) -> list[SurvivalCurve]:
    """Parse the curve CSV schema back into SurvivalCurve objects."""
    rows: dict[tuple[str, str], list[tuple[int, float, float, int]]] = {}
    first_line: dict[tuple[str, str, int], int] = {}
    order: list[tuple[str, str]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                experiment, projection = row[0], row[1]
                m = int(row[2])
                mean = float(row[3])
                stderr = float(row[4])
                k = int(row[5])
            except (IndexError, ValueError) as exc:
                raise ValueError(f"malformed CSV row at line {lineno}: {row}") from exc
            if not (math.isfinite(mean) and math.isfinite(stderr)):
                raise ValueError(f"non-finite mean or stderr at line {lineno}")
            if stderr <= 0:
                raise ValueError(f"nonpositive stderr at line {lineno}")
            key = (experiment, projection)
            if (*key, m) in first_line:
                raise ValueError(
                    f"duplicate m={m} for {experiment}/{projection} at line "
                    f"{lineno} (first at line {first_line[(*key, m)]})"
                )
            first_line[(*key, m)] = lineno
            if key not in rows:
                rows[key] = []
                order.append(key)
            elif k != rows[key][0][3]:
                raise ValueError(
                    f"K={k} at line {lineno} differs from K={rows[key][0][3]} "
                    f"earlier in {experiment}/{projection}"
                )
            rows[key].append((m, mean, stderr, k))
    curves = []
    for key in order:
        entries = sorted(rows[key])
        ms, means, errs, ks = zip(*entries)
        curves.append(
            SurvivalCurve(
                experiment=key[0],
                projection=key[1],
                m=np.array(ms),
                mean=np.array(means),
                stderr=np.array(errs),
                K=int(ks[0]),
            )
        )
    return curves
