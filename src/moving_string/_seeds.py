"""Seeded uniform draws: numpy's ``default_rng(seed).random(n)``, bit for bit.

The stream is PCG64 (O'Neill, "PCG: A Family of Simple Fast
Space-Efficient Statistically Good Algorithms for Random Number
Generation", HMC-CS-2014-0905, 2014), seeded as numpy's ``SeedSequence``
seeds it.  Owning it keeps numpy's random package (and, through its
``secrets`` import, OpenSSL) out of the process, and keeps a numpy upgrade
from moving the certified sample points: NEP 19 exempts ``Generator``
methods from cross-version stream compatibility.

Seeding: the seed's little-endian 32-bit words are hashed into a pool of
four words, and eight words drawn from the pool give PCG64's initial state
w0 2^64 + w1 and its increment 2 (w2 2^64 + w3) + 1.  Each draw is one
128-bit LCG step, taken on Python ints, then the XSL-RR output and the
double (x >> 11) 2^-53, taken in numpy uint64 a chunk at a time.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError

_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_POOL = 4
_CHUNK = 1024      # draws per output pass: about 64 KB of bytes objects


def _hasher(const: int, mult: int):
    """numpy's ``hashmix`` with its running hash constant."""
    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16
    return hashmix


def _mix(x: int, y: int) -> int:
    r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return r ^ r >> 16


def check_seed(seed, name: str = "seed") -> None:
    """Refuse a seed that is not an integer (TypeError) or is negative."""
    if not isinstance(seed, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(seed).__name__}")
    if seed < 0:
        raise ConfigurationError(f"{name} must be a nonnegative integer, got {seed}")


def _seed_words(seed) -> tuple[int, int]:
    """PCG64's (initial state, increment) for ``seed``, as ``SeedSequence`` forms them."""
    check_seed(seed)
    seed = int(seed)
    words = [seed & _M32]
    while seed := seed >> 32:
        words.append(seed & _M32)
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    draw = _hasher(0x8B51F9DD, 0x58F38DED)
    w = [draw(pool[i % _POOL]) for i in range(8)]
    w0, w1, w2, w3 = (lo | hi << 32 for lo, hi in zip(w[::2], w[1::2]))
    return w0 << 64 | w1, (w2 << 64 | w3) << 1 & _M128 | 1


def uniforms(seed, n: int) -> np.ndarray:
    """The first ``n`` doubles in [0, 1) of ``default_rng(seed).random``."""
    initstate, inc = _seed_words(seed)
    state = (inc + initstate) * _MULTIPLIER + inc & _M128
    out = np.empty(n)
    for lo in range(0, n, _CHUNK):
        states = []
        for _ in range(min(_CHUNK, n - lo)):
            state = state * _MULTIPLIER + inc & _M128
            states.append(state.to_bytes(16, "little"))
        words = np.frombuffer(b"".join(states), dtype="<u8").reshape(-1, 2)
        x, rot = words[:, 0] ^ words[:, 1], words[:, 1] >> np.uint64(58)
        x = x >> rot | x << (np.uint64(64) - rot & np.uint64(63))
        out[lo:lo + len(x)] = (x >> np.uint64(11)) * 2.0 ** -53
    return out
