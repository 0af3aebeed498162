"""Deterministic random numbers for init, sampling, and synthetic data.

The generator is xoshiro256++ seeded through splitmix64, implemented in
plain Python integers. The stream depends only on the seed and the call
sequence, never on numpy or platform details, so checkpointed states
replay bit-identically anywhere. The bulk draws (`uniform_array`,
`normal_array`) equal the scalar stream: the same values, in the same
order, leaving the same state as the matching run of `uniform()` calls
or of Box-Muller pairs built from `u64()`. Their transcendental
functions stay in `math`, whose results do not depend on numpy's build.
"""
from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_TWO_POW_NEG53 = 2.0 ** -53


def _splitmix64(x):
    x = (x + _GOLDEN) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return x, z ^ (z >> 31)


class Rng:
    """Seeded generator: identical seed implies identical draw sequence."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        s = self.seed
        state = []
        for _ in range(4):
            s, z = _splitmix64(s)
            state.append(z)
        if not any(state):
            state[0] = 1  # all-zero state is the one forbidden point
        self._s = state

    def u64(self) -> int:
        return self._u64s(1)[0]

    def _u64s(self, n: int) -> list:
        """The next n raw 64-bit outputs; the state is stored once, at the end."""
        s0, s1, s2, s3 = self._s
        out = [0] * n
        for i in range(n):
            r = (s0 + s3) & _MASK
            out[i] = (((r << 23) | (r >> 41)) + s0) & _MASK
            t = (s1 << 17) & _MASK
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & _MASK
        self._s = [s0, s1, s2, s3]
        return out

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = (self.u64() >> 11) * _TWO_POW_NEG53  # [0, 1)
        return lo + u * (hi - lo)

    def uniform_array(self, shape, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        k = np.array(self._u64s(math.prod(shape)), dtype=np.uint64) >> np.uint64(11)
        # same operation order as uniform(): lo + (k * 2**-53) * span
        return (lo + k.astype(np.float64) * _TWO_POW_NEG53 * (hi - lo)).reshape(shape)

    def normal_array(self, shape) -> np.ndarray:
        # Box-Muller pairs, u1 in (0, 1] and u2 in [0, 1), keeping both
        # partners; an odd count drops the last sine partner.
        n = math.prod(shape)
        raw = self._u64s(2 * ((n + 1) // 2))
        vals = []
        for i in range(0, len(raw), 2):
            u1 = ((raw[i] >> 11) + 1) * _TWO_POW_NEG53
            u2 = (raw[i + 1] >> 11) * _TWO_POW_NEG53
            r = math.sqrt(-2.0 * math.log(u1))
            a = 2.0 * math.pi * u2
            vals.append(r * math.cos(a))
            vals.append(r * math.sin(a))
        return np.array(vals[:n], dtype=np.float64).reshape(shape)

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n) without modulo bias."""
        if n <= 0:
            raise ValueError("randint bound must be positive")
        limit = (_MASK + 1) - ((_MASK + 1) % n)
        while True:
            u = self.u64()
            if u < limit:
                return u % n

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample_indices(self, n: int, k: int, exclude: int | None = None) -> list[int]:
        """k distinct indices from range(n), optionally never `exclude`."""
        pool = [i for i in range(n) if i != exclude]
        if k > len(pool):
            raise ValueError(f"cannot sample {k} from pool of {len(pool)}")
        for i in range(k):
            j = i + self.randint(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]

    def categorical(self, weights) -> int:
        u = self.uniform()
        acc = 0.0
        for i, w in enumerate(weights):
            acc += w
            if u < acc:
                return i
        return len(weights) - 1

    def spawn(self, tag: int) -> "Rng":
        """Derive an independent generator from (seed, tag)."""
        _, z = _splitmix64(self.seed ^ (tag * _GOLDEN) & _MASK)
        return Rng(z)

    def get_state(self) -> list[int]:
        return [self.seed, *self._s]

    def set_state(self, state) -> None:
        if len(state) != 5:
            raise ValueError("rng state must have 5 integers")
        self.seed = int(state[0]) & _MASK
        self._s = [int(x) & _MASK for x in state[1:]]
