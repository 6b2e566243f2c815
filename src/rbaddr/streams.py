"""numpy's ``default_rng(seed words)`` streams, computed in numpy arrays.

``seed_sequence_state`` is numpy's SeedSequence hash of many entropy rows
(``stream_words`` makes a run's rows), ``seeded_streams`` PCG64's seeding
of each.  ``draw_indices`` is ``Generator.integers(0, n, m)`` of many
streams, each with its own m: it lays the (stream, output) pairs they need
end to end in one flat list and computes ``DRAW_CHUNK_OUTPUTS`` of them at
a time, by PCG64 jump-ahead and XSL-RR output (O'Neill 2014) and Lemire's
bounded draw with numpy's rejection rule (ACM TOMACS 2019).
``draw_blocks`` packs a share's short blocks into one draw per chunk.
``pcg64_states`` hands a stream back to numpy.  Nothing here imports
``numpy.random`` (which maps OpenSSL's libcrypto); tier-1 tests pin every
function to numpy's own, rejections and post-draw states included, which
relies on numpy's stream compatibility (NEP 19).  Only ``simulate`` loads
this module.
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


def stream_words(seed: int, codes, lengths, k: int) -> np.ndarray:
    """PCG64's seed words (s0, s1, s2, s3) of ``default_rng([seed, code, m,
    i])`` for each i < k of each block (code, m), as a (blocks, 4, k) uint64
    array; one hash for all of them."""
    prefix = uint32_words(seed)
    entropy = np.empty((len(codes), k, len(prefix) + 3), np.uint32)
    entropy[..., :-3] = prefix
    entropy[..., -3] = np.reshape(codes, (-1, 1))
    entropy[..., -2] = np.reshape(lengths, (-1, 1))
    entropy[..., -1] = np.arange(k)
    words = seed_sequence_state(entropy.reshape(-1, entropy.shape[-1]))
    return np.stack(words).reshape(4, len(codes), k).swapaxes(0, 1)


# A 128-bit PCG64 value is a (high, low) pair of uint64 arrays; numpy's
# unsigned ufuncs wrap modulo 2**64.
_LOW32, _32 = np.uint64(_MASK32), np.uint64(32)
_PCG_MULT_WORDS = (np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & _MASK64))


def _mul128(a, b):
    """``a * b`` modulo 2**128 of (high, low) pairs: the low words' full
    product by 32-bit halves (each partial sum below 2**64), the cross
    terms modulo 2**64."""
    (a_hi, a_lo), (b_hi, b_lo) = a, b
    a0, b0 = a_lo & _LOW32, b_lo & _LOW32
    middle = a0 * b0 >> _32
    a1, b1 = a_lo >> _32, b_lo >> _32
    b0 *= a1
    middle += b0
    a0 *= b1
    a0 += middle & _LOW32
    a1 *= b1
    a1 += middle >> _32
    a1 += a0 >> _32
    a1 += a_lo * b_hi
    a1 += a_hi * b_lo
    return a1, a_lo * b_lo


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
def _jump_table(count: int) -> np.ndarray:
    """(A_i, C_i) for i = 1..count as (2, count, 2) (high, low) words, where
    the state i steps after ``state`` is ``A_i * state + C_i * inc``."""
    a, c, rows = 1, 0, []
    for _ in range(count):
        a, c = a * _PCG_MULT & _MASK128, (c * _PCG_MULT + 1) & _MASK128
        rows.append(((a >> 64, a & _MASK64), (c >> 64, c & _MASK64)))
    table = np.array(rows, dtype=np.uint64).swapaxes(0, 1).copy()
    table.setflags(write=False)
    return table


# (stream, output) pairs drawn at once, 32 KB per uint64 array: a default
# share's draws peak at 0.75 MiB (tracemalloc), 0.2 MB of indices included.
DRAW_CHUNK_OUTPUTS = 2**12


def draw_indices(words, n: int, m):
    """``Generator.integers(0, n, m)`` (1 < n <= 2**32) of K streams seeded
    from their (4, K) words, and their states after it as ``pcg64_states``
    arguments.  One length m gives (K, m) indices; K lengths, one flat array.

    Output j of a stream is PCG64's XSL-RR of ``A_j * state + C_j * inc``,
    split into two uint32 words, low half first; word w gives index
    ``w * n >> 32`` unless ``w * n mod 2**32 < 2**32 mod n`` (numpy's
    rejection).  A pass lays the outputs each stream lacks end to end,
    ``DRAW_CHUNK_OUTPUTS`` to a chunk; a stream that had a word skipped gets
    its missing outputs in the next pass."""
    walk = np.stack(seeded_streams(words)).reshape(4, -1)  # state, inc
    k, inc = walk.shape[1], walk[2:]
    need = np.zeros(k, np.int64) + m  # the indices each stream lacks
    indices = np.empty(int(need.sum()), np.int64)
    dest = np.cumsum(need) - need  # where its next index goes
    # state (high, low), has_uint32 and uinteger after the draw
    after = np.concatenate([walk[:2], np.zeros((2, k), np.uint64)])
    threshold, low_n, n = np.uint32((1 << 32) % n), np.uint32(n & _MASK32), np.uint64(n)
    todo = np.arange(k)
    while (left := need > 0).any():
        todo, need, dest, walk = todo[left], need[left], dest[left], walk[:, left]
        outputs = (need + 1) // 2
        ends = np.cumsum(outputs)
        table = _jump_table(1 << (int(min(outputs.max(), DRAW_CHUNK_OUTPUTS)) - 1).bit_length())
        for q in range(0, int(ends[-1]), DRAW_CHUNK_OUTPUTS):
            size = min(DRAW_CHUNK_OUTPUTS, int(ends[-1]) - q)
            a, b = ends.searchsorted([q, q + size - 1], "right")
            rows = slice(a, b + 1)  # the streams with pairs in the chunk
            stop = ends[rows] - q
            stop[-1] = size
            run = stop.copy()
            run[1:] -= stop[:-1]
            step = np.arange(size)  # from where the stream's last chunk left it
            step -= np.repeat(stop - run, run)

            def jump(part):
                origin = np.repeat(walk[part : part + 2, rows], run, axis=1)
                return _mul128(origin, np.take(table[part // 2], step, axis=0).T)

            hi, lo = jump(0)
            carry_hi, carry_lo = jump(2)
            lo += carry_lo
            hi += carry_hi
            hi += lo < carry_lo
            del step, carry_hi, carry_lo
            out, rotate = hi ^ lo, hi >> np.uint64(58)
            spill = out << (np.uint64(64) - rotate & np.uint64(63))
            out >>= rotate
            out |= spill
            del rotate, spill
            words = out.astype("<u8", copy=False).view("<u4")  # low half first
            accept = words * low_n >= threshold
            scaled = np.multiply(words, n, dtype=np.uint64)
            scaled >>= _32
            first, take = 2 * (stop - run), np.minimum(2 * run, need[rows])
            if accept.all() and (dest[a + 1 : b + 1] == dest[a:b] + take[:-1]).all():
                # no word skipped: the indices lie end to end but for the
                # high word past a stream's odd last index
                last = first + take - 1
                if (take < 2 * run).any():
                    accept[last[take < 2 * run] + 1] = False
                    scaled = scaled[accept]
                indices[dest[a] : dest[a] + len(scaled)] = scaled
                gained = take
            else:
                word_row = np.repeat(np.arange(len(run)), 2 * run)
                rank = np.cumsum(accept)
                rank -= (rank[first] - accept[first])[word_row]
                keep = accept & (rank <= need[rows][word_row])
                indices[(dest[rows] - 1)[word_row][keep] + rank[keep]] = scaled[keep]
                gained = np.minimum(rank[2 * stop - 1], need[rows])
                last = np.zeros(len(run), np.int64)
                last[gained == need[rows]] = np.flatnonzero(keep & (rank == need[rows][word_row]))
            need[rows] -= gained
            dest[rows] += gained
            # the state of each stream whose last index came from this chunk
            done = need[rows] == 0
            pair, r = last[done] // 2, todo[rows][done]
            after[0, r], after[1, r], after[3, r] = hi[pair], lo[pair], out[pair] >> _32
            after[2, r] = 1 - last[done] % 2
            walk[0, rows], walk[1, rows] = hi[stop - 1], lo[stop - 1]
    if np.ndim(m) == 0:
        indices = indices.reshape(k, m)
    return indices, (after[:2], inc, after[2], after[3])


def draw_blocks(words, sizes, lengths):
    """Each block's ``draw_indices``, in order, from its (4, K) ``words[b]``,
    bound ``sizes[b]`` and length ``lengths[b]``.  Consecutive blocks of one
    size whose first-pass outputs fit one chunk share a draw, a larger
    block has its own; a block's (K, m) indices are a view of its draw."""
    k, b = words.shape[-1], 0
    while b < len(lengths):
        end, outputs = b + 1, k * ((lengths[b] + 1) // 2)
        while end < len(lengths) and sizes[end] == sizes[b]:
            outputs += k * ((lengths[end] + 1) // 2)
            if outputs > DRAW_CHUNK_OUTPUTS:
                break
            end += 1
        seeds = words[b:end].swapaxes(0, 1).reshape(4, -1)
        flat, (state, inc, has_uint32, uinteger) = draw_indices(
            seeds, sizes[b], np.repeat(lengths[b:end], k)
        )
        start = 0
        for i, m in enumerate(lengths[b:end]):
            rows = slice(i * k, (i + 1) * k)
            yield flat[start : start + k * m].reshape(k, m), (
                state[:, rows], inc[:, rows], has_uint32[rows], uinteger[rows]
            )
            start += k * m
        del flat  # held only by the last block's view while the next draws
        b = end
