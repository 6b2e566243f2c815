"""The three simultaneous-benchmarking experiments.

Experiment 1 twirls qubit 1 alone (CxI, qubit 2 idles), experiment 2
mirrors it (IxC), experiment 3 runs independent random Cliffords on both
qubits at once (CxC).  One prefix scan per length over the group's
multiplication table gives the K sequences' running composites, the last
of which each recovery undoes.  Each sequence of m random elements plus its
recovery is propagated through the noisy element channels of one gate set
shared by the three experiments, K sequences at a time; the four final
populations give the traced projections p00+p01 (qubit 1), p00+p10
(qubit 2) and the correlation p00+p11.  The gate set fixes the noise
granularity: once per generator slot (error scales with pulse count) or
one channel per element for gate-independent models.  Under Pauli-diagonal
noise (``NoisyGateSet.monomial_table``) each Pauli entry of the state
follows its path through the composites, times the factors along it;
other tables take a batched mat-vec per step.  Both give the same bits.

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
shots, from numpy's ``default_rng([seed, experiment code, m, k])`` stream,
whatever the execution order.  A share seeds its blocks' streams in one
hash and draws their indices with ``streams.draw_blocks``, which packs
short consecutive blocks into one draw; ``rbaddr.streams`` copies numpy's
SeedSequence, PCG64 and ``Generator.integers``, pinned to numpy bit for bit
by tier-1 tests, so a run without shots never imports ``numpy.random``.
Shots are numpy's ``multinomial``, from each stream's state after its draw.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass, field

import numpy as np

# element_slots stays importable here: bench/run.py wraps it under this name
from .cliffords import CliffordGroup, element_slots, get_group  # noqa: F401
from .noise import MAX_RUN_BYTES, NoisyGateSet
from .parallel import run_jobs
from .paulis import computational_povm_vector, computational_state

EXPERIMENT_GROUPS = {"exp1": "cxi", "exp2": "ixc", "exp3": "cxc"}
EXPERIMENT_CODES = {"exp1": 1, "exp2": 2, "exp3": 3}
PROJECTIONS = ("Q1", "Q2", "CORR")

DEFAULT_LENGTHS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)

CSV_HEADER = ["experiment", "projection", "m", "mean", "stderr", "K"]

_MASK32 = 0xFFFFFFFF  # a length is one uint32 word of its streams' seeds


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


def _integral(name: str, value) -> int:
    try:  # operator.index refuses a float; the error names the field
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be integral, not {value!r}") from None


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
        lengths = tuple(_integral("lengths", m) for m in self.lengths)
        for name in ("K", "seed") if self.shots is None else ("K", "seed", "shots"):
            object.__setattr__(self, name, _integral(name, getattr(self, name)))
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
        if self.shots is not None and not 1 <= self.shots < 2**63:
            # numpy's multinomial counts in int64
            raise ValueError(f"shots must be 1 to 2**63 - 1, not {self.shots}")
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


# (sequence, step, Pauli) factors the path kernel gathers at once, 0.13 MB
# per array: a K = 50, m = 512 block from the perfect preparation's four
# Paulis peaks at 0.41 MB (tracemalloc) in these chunks, at 2.5 MB in one.
PATH_CHUNK_FACTORS = 2**14
# Sequences the mat-vec kernel carries through all steps at once, each
# step's gathered channels 0.5 MB; a row's reduction does not depend on the
# rows beside it.  Cross-talk mat-vec steps of K = 16384 sequences took
# 240-340 ns per sequence step in chunks of 256, 370-430 ns in chunks of
# 512-2048 and 630 ns unchunked (one CPU).
MATVEC_CHUNK_SEQUENCES = 256


def simulate_sequence(
    group: CliffordGroup, indices, recovery, gateset: NoisyGateSet, spam: SpamModel, composites=None
) -> np.ndarray:
    """Propagate one sequence, or K at once (indices (K, m), recovery (K,));
    returns (p00, p01, p10, p11), with a leading K axis for a batch.
    ``composites``, ``group.composites(indices)``, is scanned if not given.
    Each Pauli follows its path (:func:`_path_states`) when the gate set
    has a monomial table, else each step is a batched mat-vec, over
    MATVEC_CHUNK_SEQUENCES sequences at a time: same bits."""
    batch, recovery = np.atleast_2d(indices), np.atleast_1d(recovery)
    monomial = gateset.monomial_table(group)
    if monomial is None:
        table = gateset.element_table(group)
        steps = np.column_stack([batch, recovery])
        state = np.empty((len(batch), len(spam.prep)))
        for first in range(0, len(batch), MATVEC_CHUNK_SEQUENCES):
            rows = steps[first : first + MATVEC_CHUNK_SEQUENCES]
            part = np.broadcast_to(spam.prep, (len(rows), len(spam.prep)))
            for column in rows.T:
                part = np.einsum("rij,rj->ri", table[column], part)
            state[first : first + len(rows)] = part
    else:
        scan = group.composites(batch) if composites is None else composites
        state = _path_states(group, batch, recovery, scan, monomial, spam.prep)
    pops = spam.populations(state.T).T
    return pops if np.ndim(indices) == 2 else pops[0]


def _path_states(group, indices, recovery, composites, factor, prep) -> np.ndarray:
    """The (K, d) states after the steps ``indices`` (K, m), scanned into
    ``composites`` (K, m + 1), then ``recovery`` (K,), under the monomial
    table's ``factor``.

    After steps whose composite is h, Pauli j of ``prep`` sits at
    ``group.targets[h, j]``; each step scales it by its factor there.
    ``np.multiply.reduce`` along the outer, step axis is the left fold of
    the step-by-step product, so the bits are the mat-vec's, whose sums of
    one product and exact zeros differ only in the sign of a zero: the
    final ``+ 0.0`` makes every zero +0.0, as those sums do."""
    (paulis,) = np.nonzero(prep)
    targets = group.targets[:, paulis]
    k, m = indices.shape
    d = factor.shape[1]
    flat = factor.ravel()
    value = np.broadcast_to(prep[paulis], (k, len(paulis)))
    chunk = max(1, PATH_CHUNK_FACTORS // max(1, k * len(paulis)))
    for first in range(0, m, chunk):
        rows = targets[composites[:, first + 1 : first + 1 + chunk].T]
        rows += d * indices[:, first : first + chunk].T[..., None]
        value = np.multiply.reduce(np.concatenate([value[None], flat[rows]]), axis=0)
    last = group.mult_table[recovery, composites[:, -1]]
    # an int16 recovery keeps its dtype: d * recovery <= 16 * 575 = 9,200
    value = flat[targets[last] + d * recovery[:, None]] * value
    state = np.zeros((k, d))
    np.put_along_axis(state, targets[last], value + 0.0, axis=1)
    return state


def _stream_words(cfg: RBConfig, blocks) -> np.ndarray:
    """``streams.stream_words`` of the blocks ``(experiment, length index)``."""
    from . import streams  # only runs that draw load the stream code

    return streams.stream_words(cfg.seed, [EXPERIMENT_CODES[e] for e, _ in blocks],
                                [cfg.lengths[mi] for _, mi in blocks], cfg.K)


# Estimated seconds of a block's work (2-core Xeon VM, K = 50, fitted over
# whole one-CPU shares of 2-30 lengths up to 1000): a stream's share of
# seeding, of its packed draw's fixed cost and of its block's took 0.8-3.2
# us, some 20 path steps; a sequence step (its index draw, one element
# channel on one sequence's state and its share of the prefix scan) took
# 0.10-0.15 us along Pauli paths and 0.38-0.54 us by batched mat-vec.
STREAM_DRAW_SECONDS = 2e-6
PATH_STEP_SECONDS = 1e-7
MATVEC_STEP_SECONDS = 4e-7
# Bytes a run holds (tracemalloc, one CPU): per stream of the blocks a share
# seeds in one hash (entropy, words, read-out), 130-170; per sequence of the
# block in hand (its state and populations), 190 by mat-vec and 290 along
# Pauli paths; per step of its (K, m + 1) index and composite arrays, 16-24.
STREAM_BYTES, SEQUENCE_BYTES, STEP_BYTES = 200, 320, 32


def check_run_size(cfg: RBConfig) -> None:
    """Refuse, naming the key, a run whose arrays would need more than
    ``MAX_RUN_BYTES`` by the estimate above, before any of it starts."""
    streams = 3 * len(cfg.lengths) * STREAM_BYTES + SEQUENCE_BYTES  # per sequence index k
    steps = (cfg.lengths[-1] + 1) * STEP_BYTES
    need = cfg.K * (streams + steps)
    if need > MAX_RUN_BYTES:
        key = (f"k = {cfg.K} over {len(cfg.lengths)} lengths" if streams > steps
               else f"lengths up to {cfg.lengths[-1]} at k = {cfg.K}")
        from decimal import Decimal  # a k past float's range still prints

        raise ValueError(f"{key}: ~{Decimal(need) / 2**30:.3g} GiB of arrays, "
                         f"above the {MAX_RUN_BYTES / 2**30:g} GiB bound")


def _run_block(cfg, gateset, group, indices, after, rng) -> np.ndarray:
    """The (K, 4) read-out populations of the K sequences of ``indices`` (K,
    m), one stream per sequence; ``rng`` draws every stream's shots, from
    the state ``after`` its indices (``streams.pcg64_states`` arguments)."""
    composites = group.composites(indices)
    recovery = group.inv_table[composites[:, -1]]
    pops = simulate_sequence(group, indices, recovery, gateset, cfg.spam, composites)
    if cfg.shots is None:
        return pops
    from . import streams

    probs = np.clip(pops, 0.0, None)
    probs = probs / probs.sum(axis=1, keepdims=True)
    counts = []
    for state, p in zip(streams.pcg64_states(*after), probs):
        rng.bit_generator.state = state
        counts.append(rng.multinomial(cfg.shots, p))
    return np.array(counts) / cfg.shots


def _run_experiments(cfg, gateset, experiments) -> dict[str, dict[str, SurvivalCurve]]:
    """Curves of each experiment, keyed as :func:`run_experiment` keys them;
    the blocks of all of them run in one set of shares.  The table each
    experiment's blocks read, monomial or dense, is built here, before any
    share starts; a share seeds the streams of its own blocks only, in one
    hash, and holds the indices of one draw at a time."""
    if unknown := [e for e in experiments if e not in EXPERIMENT_GROUPS]:
        raise ValueError(f"unknown experiment '{unknown[0]}'")
    groups = {e: get_group(EXPERIMENT_GROUPS[e]) for e in experiments}
    step = {e: PATH_STEP_SECONDS for e in groups if gateset.monomial_table(groups[e]) is not None}
    for e in groups.keys() - step.keys():
        gateset.element_table(groups[e])
        step[e] = MATVEC_STEP_SECONDS
    blocks = [(e, mi) for e in experiments for mi in range(len(cfg.lengths))]
    costs = [
        cfg.K * (STREAM_DRAW_SECONDS + (cfg.lengths[mi] + 1) * step[e]) for e, mi in blocks
    ]

    def work(share):
        from . import streams

        # shots only: one generator serves every stream; its own seed is overwritten
        rng = None if cfg.shots is None else np.random.Generator(np.random.PCG64())
        sizes, lengths = [len(groups[e]) for e, _ in share], [cfg.lengths[mi] for _, mi in share]
        draws = streams.draw_blocks(_stream_words(cfg, share), sizes, lengths)
        # map drops each block's indices before the next draw
        return list(map(lambda b, d: _run_block(cfg, gateset, groups[b[0]], *d, rng), share, draws))

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


def _csv_rows(reader):
    """The rows of a ``csv.reader``; a line it cannot split (a field past
    its size limit) is a ValueError that names the line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ValueError(f"malformed CSV at line {reader.line_num}: {exc}") from exc


def read_curves_csv(path) -> list[SurvivalCurve]:
    """Parse the curve CSV schema back into SurvivalCurve objects."""
    rows: dict[tuple[str, str], list[tuple[int, float, float, int]]] = {}
    first_line: dict[tuple[str, str, int], int] = {}
    order: list[tuple[str, str]] = []
    with open(path, newline="") as fh:
        reader = _csv_rows(csv.reader(fh))
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
            if stderr * stderr == 0 or math.isinf(1 / (stderr * stderr)):
                raise ValueError(f"stderr too small at line {lineno}: 1/stderr^2 overflows")
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
