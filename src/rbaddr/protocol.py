"""The three simultaneous-benchmarking experiments.

Experiment 1 twirls qubit 1 alone (CxI, qubit 2 idles), experiment 2
mirrors it (IxC), experiment 3 runs independent random Cliffords on both
qubits at once (CxC).  The recoveries of the K sequences of one length
come from one batched recovery scan per length over the group's
multiplication table.  Each sequence of m random elements plus its
recovery is propagated through the noisy element channels of one gate set
shared by the three experiments, K sequences at a time; the four final
populations give the traced projections p00+p01 (qubit 1), p00+p10
(qubit 2) and the correlation p00+p11.  The gate set fixes the noise
granularity: once per generator slot (error scales with pulse count) or
one channel per element for gate-independent models.  A step is a
batched mat-vec, or, when the gate set's table is monomial (Pauli-diagonal
noise, ``NoisyGateSet.monomial_table``), a gather and a multiply with the
same bits.

The unit of work is a block: the K sequences of one (experiment, length),
cost K stream draws plus K (m + 1) steps of its table's kernel.
``run_protocol`` deals the blocks of all three experiments into shares
across the CPUs, longest first to the least-loaded share
(``parallel.run_jobs``); ``run_experiment`` does the same for one
experiment's blocks.  A block never splits, because
``SpamModel.populations`` rounds with the batch size, and the gate set's
tables are built before any share starts, so every curve is bit for bit
the same at any CPU count.

Sequence k of length m in an experiment draws its elements, then its
shots, from its own stream: numpy's ``default_rng([seed, experiment code,
m, k])`` stream, so results are independent of execution order.  A share
seeds the streams of its own blocks in one batch, by numpy's SeedSequence
hash in uint32 array arithmetic and PCG64's seeding step in Python ints,
and draws them from one generator whose state is set per stream.  This
relies on numpy's stream-compatibility guarantee for SeedSequence and
PCG64 (NEP 19); the draws themselves stay numpy's own.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

# element_slots stays importable here: bench/run.py wraps it under this name
from .cliffords import CliffordGroup, element_slots, get_group  # noqa: F401
from .noise import NoisyGateSet
from .parallel import run_jobs
from .paulis import computational_povm_vector, computational_state

EXPERIMENT_GROUPS = {"exp1": "cxi", "exp2": "ixc", "exp3": "cxc"}
EXPERIMENT_CODES = {"exp1": 1, "exp2": 2, "exp3": 3}
PROJECTIONS = ("Q1", "Q2", "CORR")

DEFAULT_LENGTHS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)

CSV_HEADER = ["experiment", "projection", "m", "mean", "stderr", "K"]

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and the PCG64
# seeding multiplier (O'Neill 2014, numpy's pcg64.h)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


@dataclass(frozen=True)
class SpamModel:
    """State preparation and measurement model in the Pauli basis."""

    prep: np.ndarray  # length-16 Pauli vector of the prepared state
    povm: np.ndarray  # 4x16 rows: measurement vectors for p00, p01, p10, p11
    assignment: np.ndarray | None = None  # 4x4 stochastic misassignment

    def __post_init__(self):
        if self.assignment is None:
            return
        matrix = np.asarray(self.assignment, dtype=float)
        if matrix.shape != (4, 4) or np.any(matrix < 0) or not np.allclose(
            matrix.sum(axis=0), 1.0, atol=1e-9
        ):
            raise ValueError("misassignment matrix must be 4x4 column-stochastic")
        object.__setattr__(self, "assignment", matrix)

    @classmethod
    def perfect(cls) -> "SpamModel":
        prep = computational_state("00")
        povm = np.stack(
            [computational_povm_vector(b) for b in ("00", "01", "10", "11")]
        )
        return cls(prep, povm)

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
    shots: int | None = None  # None = expectation-valued readout
    keep_raw: bool = False

    def __post_init__(self):
        lengths = tuple(int(m) for m in self.lengths)
        if not lengths or any(m < 1 for m in lengths):
            raise ValueError("sequence lengths must all be >= 1")
        if any(b <= a for a, b in zip(lengths, lengths[1:])):
            raise ValueError("sequence lengths must be strictly increasing")
        if lengths[-1] > _MASK32:
            raise ValueError("sequence lengths must be below 2**32")
        if self.K < 2:
            raise ValueError("need K >= 2 sequences per length")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if self.shots is not None and self.shots < 1:
            raise ValueError("shots must be >= 1")
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
    """m uniform element indices plus the recovery index (one sequence;
    ``run_experiment`` draws the K sequences of a length as one batch)."""
    indices = group.sample_uniform(rng, m)
    return indices, group.recovery_index(indices)


# (sequence, step) pairs whose sources and factors the gather kernel
# takes at once: 2**10 of them hold 0.26 MB at any K.  Propagating a
# K = 50, m = 512 block peaks at 0.74 MB (tracemalloc) in chunks of 2**10,
# at 6.9 MB in one chunk.
GATHER_CHUNK_SEQUENCE_STEPS = 2**10


def simulate_sequence(
    group: CliffordGroup, indices, recovery, gateset: NoisyGateSet, spam: SpamModel
) -> np.ndarray:
    """Propagate one sequence, or K at once (indices (K, m), recovery (K,));
    returns (p00, p01, p10, p11), with a leading K axis for a batch.

    A step applies one element channel to each sequence's state: a gather
    and a multiply when the gate set's table is monomial, else a batched
    mat-vec; both give the same bits."""
    columns = np.column_stack([np.atleast_2d(indices), np.atleast_1d(recovery)])
    monomial = gateset.monomial_table(group)
    if monomial is None:
        table = gateset.element_table(group)
        state = np.broadcast_to(spam.prep, (len(columns), len(spam.prep)))
        for column in columns.T:
            state = np.einsum("rij,rj->ri", table[column], state)
    else:
        state = _gather_steps(columns, *monomial, spam.prep)
    pops = spam.populations(state.T).T
    return pops if np.ndim(indices) == 2 else pops[0]


def _gather_steps(columns, source, factor, prep) -> np.ndarray:
    """The (K, d) states after the steps ``columns`` (K, steps) under the
    monomial table ``(source, factor)`` of ``NoisyGateSet.monomial_table``.

    The batched mat-vec sums a row's one product ``t * s`` with exact
    zeros, which returns ``t * s`` rounded once, as the multiply here does;
    only the sign of a zero can differ, and the final ``+ 0.0`` makes every
    zero +0.0, as that sum does."""
    k, d = len(columns), len(prep)
    state = np.broadcast_to(prep, (k, d)).copy()
    offset = d * np.arange(k)[:, None]
    steps = columns.T
    chunk = max(1, GATHER_CHUNK_SEQUENCE_STEPS // k)
    for first in range(0, len(steps), chunk):
        block = steps[first : first + chunk]
        rows = source[block]
        rows += offset
        for f, row in zip(factor[block], rows):
            state = f * state.ravel()[row]
    return state + 0.0


def _uint32_words(n: int) -> list[int]:
    """The uint32 words SeedSequence makes of a non-negative int, least
    significant first (0 is one word)."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _seed_sequence_state(entropy: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence(row).generate_state(4, np.uint64)`` for every row of a
    (N, L) uint32 entropy array with L >= 4, as four length-N uint64
    columns."""
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> 16

    def mix(x, y):
        value = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return value ^ value >> 16

    pool = [hashmix(entropy[:, i]) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, entropy.shape[1]):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    const = _INIT_B
    words = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        words.append((value ^ value >> 16).astype(np.uint64))
    # each uint64 is two consecutive uint32 words, little-endian
    return [lo | hi << np.uint64(32) for lo, hi in zip(words[::2], words[1::2])]


def _pcg64_state(seed: int, inc: int) -> dict:
    """PCG64's state after seeding with 128-bit ``seed`` and stream ``inc``."""
    inc = (inc << 1 | 1) & _MASK128
    state = ((inc + seed) * _PCG_MULT + inc) & _MASK128
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


def _stream_words(cfg: RBConfig, blocks) -> np.ndarray:
    """PCG64's seed words (s0, s1, s2, s3) of ``np.random.default_rng([
    cfg.seed, code, m, k])`` for each k < ``cfg.K`` of each block
    ``(experiment, length index)``, where code is the experiment's code,
    as a (len(blocks), 4, K) uint64 array; one hash for all of them."""
    prefix = _uint32_words(cfg.seed)
    entropy = np.empty((len(blocks), cfg.K, len(prefix) + 3), np.uint32)
    entropy[..., :-3] = prefix
    entropy[..., -3] = [[EXPERIMENT_CODES[e]] for e, _ in blocks]
    entropy[..., -2] = [[cfg.lengths[mi]] for _, mi in blocks]
    entropy[..., -1] = np.arange(cfg.K)
    words = _seed_sequence_state(entropy.reshape(-1, entropy.shape[-1]))
    return np.stack(words).reshape(4, len(blocks), cfg.K).swapaxes(0, 1)


def _block_states(words: np.ndarray) -> list[dict]:
    """The PCG64 states of one block's streams from its (4, K) seed words:
    PCG64 seeds with seed = (s0, s1) and inc = (s2, s3), high word first."""
    s0, s1, s2, s3 = words.tolist()
    return [_pcg64_state(a << 64 | b, c << 64 | d) for a, b, c, d in zip(s0, s1, s2, s3)]


def stream_states(cfg: RBConfig, experiment: str) -> list[list[dict]]:
    """The PCG64 state of ``np.random.default_rng([cfg.seed, code, m, k])``
    for each length m of ``cfg.lengths`` and each k < ``cfg.K``, where code
    is the experiment's code; one hash for the whole experiment."""
    words = _stream_words(cfg, [(experiment, mi) for mi in range(len(cfg.lengths))])
    return [_block_states(block) for block in words]


# Estimated seconds of a block's work (2-core Xeon VM, K = 50, lengths 1..512):
# seeding a stream, setting it and drawing its sequence took 8-12 us
# whatever m; a sequence step (one element channel applied to one
# sequence's state, with its share of the recovery scan) took 0.13-0.17 us
# by gather and multiply and 0.3-0.45 us by batched mat-vec.
STREAM_DRAW_SECONDS = 1e-5
GATHER_STEP_SECONDS = 1.5e-7
MATVEC_STEP_SECONDS = 4e-7


def _run_block(cfg, gateset, group, m, states, rng) -> np.ndarray:
    """The (K, 4) read-out populations of the K sequences of length m, one
    stream state each; ``rng`` serves every stream."""
    bitgen = rng.bit_generator
    rows, shot_states = [], []
    for state in states:
        bitgen.state = state
        rows.append(group.sample_uniform(rng, m))
        if cfg.shots is not None:  # each stream's shots follow its indices
            shot_states.append(bitgen.state)
    indices = np.stack(rows)
    recovery = group.recovery_indices(indices)
    pops = simulate_sequence(group, indices, recovery, gateset, cfg.spam)
    if cfg.shots is None:
        return pops
    probs = np.clip(pops, 0.0, None)
    probs = probs / probs.sum(axis=1, keepdims=True)
    counts = []
    for state, p in zip(shot_states, probs):
        bitgen.state = state
        counts.append(rng.multinomial(cfg.shots, p))
    return np.array(counts) / cfg.shots


def _run_experiments(cfg, gateset, experiments) -> dict[str, dict[str, SurvivalCurve]]:
    """Curves of each experiment, keyed as :func:`run_experiment` keys them;
    the blocks of all of them run in one set of shares.  The element
    tables and their monomial forms are built here, before any share
    starts; a share seeds the streams of its own blocks only, in one hash,
    and holds the stream states of one block at a time."""
    for experiment in experiments:
        if experiment not in EXPERIMENT_GROUPS:
            raise ValueError(f"unknown experiment '{experiment}'")
    groups = {e: get_group(EXPERIMENT_GROUPS[e]) for e in experiments}
    step = {  # monomial_table builds the element table too
        e: MATVEC_STEP_SECONDS if gateset.monomial_table(group) is None else GATHER_STEP_SECONDS
        for e, group in groups.items()
    }
    blocks = [(e, mi) for e in experiments for mi in range(len(cfg.lengths))]
    costs = [
        cfg.K * (STREAM_DRAW_SECONDS + (cfg.lengths[mi] + 1) * step[e]) for e, mi in blocks
    ]

    def work(share):
        # one generator serves every stream; its own seed is overwritten
        rng = np.random.Generator(np.random.PCG64())
        return [
            _run_block(cfg, gateset, groups[e], cfg.lengths[mi], _block_states(words), rng)
            for (e, mi), words in zip(share, _stream_words(cfg, share))
        ]

    pops = iter(run_jobs(work, blocks, costs))
    ms = np.array(cfg.lengths)
    out = {}
    for experiment in experiments:
        block_pops = [next(pops) for _ in cfg.lengths]
        projections = PROJECTIONS if experiment == "exp3" else PROJECTIONS[:2]
        out[experiment] = {}
        for column, proj in enumerate(projections, start=1):
            # p00 plus p01 (Q1), p10 (Q2) or p11 (CORR)
            raw = np.stack([p[:, 0] + p[:, column] for p in block_pops])
            out[experiment][proj] = SurvivalCurve(
                experiment=experiment,
                projection=proj,
                m=ms.copy(),
                mean=raw.mean(axis=1),
                stderr=raw.std(axis=1, ddof=1) / np.sqrt(cfg.K),
                K=cfg.K,
                raw=raw if cfg.keep_raw else None,
            )
    return out


def run_experiment(
    cfg: RBConfig, gateset: NoisyGateSet, experiment: str
) -> dict[str, SurvivalCurve]:
    """Run one experiment; returns curves keyed Q1, Q2 (and CORR for exp3)."""
    return _run_experiments(cfg, gateset, (experiment,))[experiment]


def run_protocol(cfg: RBConfig, gateset: NoisyGateSet) -> list[SurvivalCurve]:
    """All three experiments, their blocks in one set of shares; curves in a
    fixed, deterministic order."""
    curves = _run_experiments(cfg, gateset, ("exp1", "exp2", "exp3"))
    return [curve for experiment in curves.values() for curve in experiment.values()]


# ---------------------------------------------------------------------------
# Decay model (forward curve used by tests and the verify oracles)


def decay_single(m, amplitude: float, alpha: float, offset: float):
    """A alpha^m + e0."""
    return amplitude * np.power(alpha, np.asarray(m, dtype=float)) + offset


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
            if m < 1:
                raise ValueError(f"sequence length m={m} < 1 at line {lineno}")
            if m > _MASK32:
                raise ValueError(f"sequence length m >= 2**32 at line {lineno}")
            if k < 2:
                raise ValueError(f"sequence count K={k} < 2 at line {lineno}")
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
