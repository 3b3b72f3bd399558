"""The random stream forms are drawn from, written out so that a record
replays whatever numpy is installed.

`integers(seed, p, count)` equals numpy 2.4.6's
`default_rng(seed).integers(0, p, size=count, dtype=np.int64)`, bit for
bit, which numpy itself does not promise across versions (NEP 19):

- seeding: numpy's `SeedSequence` hashes the seed's little-endian 32-bit
  words into a pool of 4 words, and the pool into 8 state words;
- generator: PCG64 (O'Neill, HMC-CS-2014-0905), a 128-bit LCG seeded as
  `pcg_setseq_128_srandom_r`, that steps, then outputs the XSL-RR of its
  state; each 64-bit output gives two 32-bit words, low half first;
- bounded draw: Lemire's method (arXiv:1805.10941), m = w*p for each
  32-bit word w, retried while m mod 2^32 < 2^32 mod p; the draw is
  m >> 32.

Drawing here also leaves numpy's random module unimported: its import
costs about 12 ms and 5-6 MB per process.
"""

from __future__ import annotations

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1

# SeedSequence's hash constants, as numpy's bit_generator.pyx has them
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4

# PCG_DEFAULT_MULTIPLIER_128
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> list[int]:
    """SeedSequence(seed).generate_state(8): the seed's 32-bit words,
    least significant first, hashed into the pool, then the pool read
    out twice through a second hash."""
    entropy = [seed & _MASK32]
    while seed := seed >> 32:
        entropy.append(seed & _MASK32)
    hash_a = _INIT_A

    def hashmix(value):
        nonlocal hash_a
        value ^= hash_a
        hash_a = hash_a * _MULT_A & _MASK32
        value = value * hash_a & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (_MIX_L * x - _MIX_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    words, hash_b = [], _INIT_B
    for value in pool * 2:
        value ^= hash_b
        hash_b = hash_b * _MULT_B & _MASK32
        value = value * hash_b & _MASK32
        words.append(value ^ value >> 16)
    return words


def integers(seed: int, p: int, count: int) -> np.ndarray:
    """The first count draws, uniform in [0, p), of the stream of seed, as
    an int64 array. The LCG steps in Python, one 128-bit int per output;
    its XSL-RR outputs and the bounded draws are computed in numpy, and a
    rejected word is dropped, so the next one takes its place. ValueError
    for a negative seed, a negative count or p outside [2, 2^31]."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if count < 0:
        raise ValueError("count must be nonnegative")
    if not 2 <= p <= 2**31:
        raise ValueError(f"bound {p} is outside [2, 2^31]")
    w = _seed_words(seed)
    # PCG64 reads the 8 words as four uint64s, each two words low first;
    # the first two make the 128-bit initial state, high half first, and
    # the last two the sequence
    state = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
    inc = (w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]) << 1 & _MASK128 | 1
    state = ((inc + state) * _PCG_MULT + inc) & _MASK128
    threshold = (1 << 32) % p
    out = np.zeros(0, dtype=np.int64)
    while out.size < count:
        states = []
        for _ in range((count - out.size + 1) // 2):
            state = (state * _PCG_MULT + inc) & _MASK128
            states.append(state)
        raw = b"".join([s.to_bytes(16, "little") for s in states])
        low, high = np.frombuffer(raw, dtype="<u8").reshape(-1, 2).T
        rot = high >> 58
        x = low ^ high
        x = x >> rot | x << ((64 - rot) & 63)
        m = x.astype("<u8").view("<u4").astype(np.int64) * p
        out = np.concatenate([out, (m >> 32)[m & _MASK32 >= threshold]])
    return out[:count]
