"""numpy's ``default_rng(seed words)`` streams, computed in numpy arrays.

``seed_sequence_state`` is numpy's SeedSequence hash of many entropy rows
at once, in uint32 array arithmetic; ``seeded_streams`` is PCG64's seeding
step of each row.  ``draw_indices`` is a copy of
``Generator.integers(0, n, m)`` for many streams at once: each stream's
PCG64 states are reached by jump-ahead from a cached table, their XSL-RR
outputs (O'Neill 2014) are split into uint32 words, and each word goes
through Lemire's bounded draw (ACM TOMACS 2019) with numpy's rejection
rule, in chunks of ``DRAW_CHUNK_OUTPUTS``.  ``pcg64_states`` gives the
``PCG64.state`` dicts that hand a stream back to numpy.  Nothing here
imports ``numpy.random`` (which, through ``secrets``, maps OpenSSL's
libcrypto), and tier-1 tests pin every function to numpy's own, rejection
draws and the stream state a draw leaves included.  This copy relies on
numpy's stream-compatibility guarantee for SeedSequence and PCG64
(NEP 19).  ``rbaddr.protocol`` imports this module only when it draws, so
commands that never draw neither compile nor load it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and the PCG64
# multiplier (O'Neill 2014, numpy's pcg64.h)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1


def uint32_words(n: int) -> list[int]:
    """The uint32 words SeedSequence makes of a non-negative int, least
    significant first (0 is one word)."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def seed_sequence_state(entropy: np.ndarray) -> list[np.ndarray]:
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


# A 128-bit PCG64 value is a (high, low) pair of uint64 arrays; numpy's
# unsigned ufuncs wrap modulo 2**64.
_LOW32, _32 = np.uint64(_MASK32), np.uint64(32)
_PCG_MULT_WORDS = (np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & _MASK64))


def _mul128(a, b):
    """``a * b`` modulo 2**128 of broadcasting (high, low) pairs: the low
    words' full product from their 32-bit halves, the cross terms modulo
    2**64."""
    (a_hi, a_lo), (b_hi, b_lo) = a, b
    a0, a1, b0, b1 = a_lo & _LOW32, a_lo >> _32, b_lo & _LOW32, b_lo >> _32
    cross0, cross1 = a1 * b0, a0 * b1
    carry = ((a0 * b0 >> _32) + (cross0 & _LOW32) + (cross1 & _LOW32)) >> _32
    high = a1 * b1 + (cross0 >> _32) + (cross1 >> _32) + carry
    return high + a_lo * b_hi + a_hi * b_lo, a_lo * b_lo


def _add128(a, b):
    """``a + b`` modulo 2**128 of broadcasting (high, low) pairs."""
    low = a[1] + b[1]
    return a[0] + b[0] + (low < b[1]), low


def seeded_streams(words):
    """PCG64's (state, inc) after seeding from the four words (s0, s1, s2,
    s3) that ``seed_sequence_state`` makes: seed (s0, s1) and stream
    (s2, s3), high word first, as numpy's ``pcg_setseq_128_srandom_r``
    seeds them."""
    s0, s1, s2, s3 = words
    inc = (s2 << np.uint64(1) | s3 >> np.uint64(63), s3 << np.uint64(1) | np.uint64(1))
    return _add128(_mul128(_add128(inc, (s0, s1)), _PCG_MULT_WORDS), inc), inc


def pcg64_states(state, inc, has_uint32, uinteger) -> list[dict]:
    """numpy's ``PCG64.state`` dicts of streams held as (high, low) pairs."""
    columns = np.broadcast_arrays(*state, *inc, has_uint32, uinteger)
    return [
        {
            "bit_generator": "PCG64",
            "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo},
            "has_uint32": has,
            "uinteger": word,
        }
        for s_hi, s_lo, i_hi, i_lo, has, word in zip(*(c.tolist() for c in columns))
    ]


@lru_cache(maxsize=None)
def _jump_table(count: int):
    """(MULT**i, MULT**(i - 1) + ... + MULT + 1) for i = 1..count, as two
    (high, low) pairs of length ``count``: a stream's state i steps after
    ``state`` is ``A_i * state + C_i * inc``."""
    a, c, rows = 1, 0, []
    for _ in range(count):
        a, c = a * _PCG_MULT & _MASK128, (c * _PCG_MULT + 1) & _MASK128
        rows.append((a >> 64, a & _MASK64, c >> 64, c & _MASK64))
    table = np.array(rows, dtype=np.uint64).T
    table.setflags(write=False)
    return (table[0], table[1]), (table[2], table[3])


# PCG64 outputs ``draw_indices`` computes at once, over all its streams:
# 32 KB per uint64 array.  Drawing a K = 50, m = 512 block peaks at 0.86 MB
# (tracemalloc), its 0.2 MB of indices included, in these chunks; at 1.5 MB
# in one.
DRAW_CHUNK_OUTPUTS = 2**12


def draw_indices(words, n: int, m: int):
    """``Generator.integers(0, n, m)`` (1 < n <= 2**32) of each of K
    streams, seeded from their (4, K) seed words, as a (K, m) int64 array,
    and each stream's state after its draw as ``pcg64_states`` arguments.

    Output i of a stream is PCG64's XSL-RR of its state i steps on
    (O'Neill 2014), split into two uint32 words, low half first.  Word w
    gives index ``w * n >> 32`` unless ``w * n mod 2**32 < 2**32 mod n``,
    when numpy skips it (Lemire 2019, numpy's rejection rule).  The streams
    advance together, ``DRAW_CHUNK_OUTPUTS`` outputs at a time, until each
    has m indices."""
    state, inc = seeded_streams(words)
    k = len(words[0])
    width = max(1, DRAW_CHUNK_OUTPUTS // k)
    jump, offset = _jump_table(width)
    threshold, n = np.uint64((1 << 32) % n), np.uint64(n)
    indices = np.empty((k, m), np.int64)
    filled = np.zeros(k, np.int64)
    after = (np.empty(k, np.uint64), np.empty(k, np.uint64))
    has_uint32, uinteger = np.empty(k, np.int64), np.empty(k, np.uint64)
    while (first := int(filled.min())) < m:
        w = min(width, (m - first + 1) // 2)
        hi, lo = _add128(
            _mul128((state[0][:, None], state[1][:, None]), (jump[0][:w], jump[1][:w])),
            _mul128((inc[0][:, None], inc[1][:, None]), (offset[0][:w], offset[1][:w])),
        )
        mixed, rotate = hi ^ lo, hi >> np.uint64(58)
        out = mixed >> rotate | mixed << (np.uint64(64) - rotate & np.uint64(63))
        word = np.stack([out & _LOW32, out >> _32], axis=2).reshape(k, 2 * w)
        scaled = word * n
        accept = (scaled & _LOW32) >= threshold
        if accept.all() and first == filled.max():  # no word skipped: the usual case
            rank = filled[:, None] + np.arange(1, 2 * w + 1)
            indices[:, first : first + 2 * w] = (scaled >> _32)[:, : m - first]
        else:
            rank = filled[:, None] + np.cumsum(accept, axis=1)
            keep = accept & (rank <= m)
            indices[np.nonzero(keep)[0], rank[keep] - 1] = scaled[keep] >> _32
        # the state of each stream that took its m-th index from this chunk
        (done,) = np.nonzero((filled < m) & (rank[:, -1] >= m))
        last = np.argmax(rank[done] >= m, axis=1)
        after[0][done], after[1][done] = hi[done, last // 2], lo[done, last // 2]
        has_uint32[done], uinteger[done] = 1 - last % 2, word[done, last | 1]
        filled, state = rank[:, -1], (hi[:, -1], lo[:, -1])
    return indices, (after, inc, has_uint32, uinteger)
