"""Deterministic random numbers for init, sampling, and synthetic data.

The generator is xoshiro256++ seeded through splitmix64. The stream
depends only on the seed and the call sequence, never on numpy or
platform details, so checkpointed states replay bit-identically
anywhere. A generator's first `_SCALAR_PREFIX` outputs come from a loop
over Python integers, cheapest for an explanation, a shuffle or a split.
Later ones come in blocks of `_LANES` lanes x `_STEPS` steps, stepped
together on uint64 arrays; lane j starts 64 j states past the block's
start, so read lane by lane they give the stream in order. The state map
T is linear over GF(2), so lane starts are exact jumps (Haramoto et al.,
2008) by tables of T^(64 2^k), each doubling the starts known, built
once per process from the 256 unit states. Mid-block, `get_state` steps
the current lane's start by the outputs taken from that lane, and
`set_state` drops the block.

The bulk draws (`uniform_array`, `normal_array`) equal the scalar stream:
the same values, in the same order, leaving the same state as the
matching run of `uniform()` calls or of Box-Muller pairs built from
`u64()`. Box-Muller stays in `math`, whose results do not depend on
numpy's build and which beats numpy on the 6 to 30 values per call that
synthetic utterances draw.
"""
from __future__ import annotations

import functools
import math

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_TWO_POW_NEG53 = 2.0 ** -53
_SCALAR_PREFIX = 2048  # outputs a generator hands out before its first block
_LANES, _STEPS = 256, 64
_SHIFT17, _SHIFT45, _SHIFT19 = (np.array(k, dtype=np.uint64) for k in (17, 45, 19))
_NIBBLE_ROWS = np.arange(0, 1024, 16)  # first jump-table row of each state nibble


def _splitmix64(x):
    x = (x + _GOLDEN) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return x, z ^ (z >> 31)


def _steps(state, n: int):
    """The next n outputs from a state of four ints, and the state after them."""
    s0, s1, s2, s3 = state
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
    return out, [s0, s1, s2, s3]


def _run_lanes(starts):
    """Step each row of ``starts`` (L x 4) `_STEPS` times: the outputs, the end states."""
    h0, h3 = np.empty((2, _STEPS + 1, len(starts)), dtype=np.uint64)  # words 0, 3 per step
    h0[0], s1, s2, h3[0] = np.array(starts, dtype=np.uint64).T
    t, u = np.empty_like(s1), np.empty_like(s1)
    for k in range(_STEPS):
        np.left_shift(s1, _SHIFT17, out=t)
        s2 ^= h0[k]
        np.bitwise_xor(h3[k], s1, out=u)
        s1 ^= s2
        np.bitwise_xor(h0[k], u, out=h0[k + 1])
        s2 ^= t
        np.left_shift(u, _SHIFT45, out=h3[k + 1])
        h3[k + 1] |= u >> _SHIFT19
    r = h0[:-1] + h3[:-1]
    return ((r << 23) | (r >> 41)) + h0[:-1], np.stack([h0[-1], s1, s2, h3[-1]], axis=1)


def _jump(table, states):
    """T^J of each row of ``states`` (n x 4 uint64), given T^J's jump table."""
    b = np.ascontiguousarray(states, dtype="<u8").view(np.uint8)  # bytes by significance
    rows = np.stack([b & 15, b >> 4], axis=2).reshape(len(states), 64) + _NIBBLE_ROWS
    return np.bitwise_xor.reduce(np.take(table, rows.T, axis=0), axis=0)


@functools.cache
def _jump_tables() -> tuple:
    """Jump tables of T^(64 2^k), one per doubling of the lanes. Row 16 n + v
    of a table is the XOR of T^J's columns 4 n + i over the set bits i of v."""
    units = np.packbits(np.eye(256, dtype=np.uint8), axis=1, bitorder="little").view("<u8")
    columns, tables = _run_lanes(units)[1], []  # T^64 e for each unit state e
    for k in range(_LANES.bit_length() - 1):
        if k:
            columns = _jump(tables[-1], columns)  # T^2J e = T^J (T^J e)
        table = np.zeros((64, 16, 4), dtype=np.uint64)
        for i in range(4):
            table[:, 1 << i:2 << i] = table[:, :1 << i] ^ columns[i::4, None]
        tables.append(table.reshape(1024, 4))
    return tuple(tables)


class Rng:
    """Seeded generator: identical seed implies identical draw sequence."""

    def __init__(self, seed: int):
        s = self.seed = seed & _MASK
        state = []
        for _ in range(4):
            s, z = _splitmix64(s)
            state.append(z)
        if not any(state):
            state[0] = 1  # all-zero state is the one forbidden point
        self._s = state
        self._scalar_left = _SCALAR_PREFIX
        self._marks = None  # set by _fill with _block and _taken: lane starts, then end state

    def u64(self) -> int:
        return self._u64s(1)[0]

    def _u64s(self, n: int) -> list:
        """The next n raw 64-bit outputs."""
        if n <= self._scalar_left:
            self._scalar_left -= n
            out, self._s = _steps(self._s, n)
            return out
        out = self._u64s(self._scalar_left) if self._scalar_left else []
        while len(out) < n:
            if self._marks is None or self._taken == len(self._block):
                self._fill()
            part = self._block[self._taken:self._taken + n - len(out)]
            self._taken += len(part)
            out += part.tolist()
        return out

    def _fill(self) -> None:
        starts = np.array([self.get_state()[1:]], dtype=np.uint64)
        for table in _jump_tables():
            starts = np.concatenate([starts, _jump(table, starts)])
        out, ends = _run_lanes(starts)
        self._block, self._taken = out.T.ravel(), 0  # lane by lane
        self._marks = np.concatenate([starts, ends[-1:]])

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
        """k distinct indices from range(n), optionally never `exclude`: the
        first k slots of a Fisher-Yates shuffle of that pool, in O(k), for
        only the moved slots are stored (slot p holds p, p + 1 from `exclude` on)."""
        skip = exclude if exclude in range(n) else n
        size = n - (skip < n)
        if k > size:
            raise ValueError(f"cannot sample {k} from pool of {size}")
        moved = {}
        out = []
        for i in range(k):
            j = i + self.randint(size - i)
            p = moved.get(j, j)
            moved[j] = moved.get(i, i)
            out.append(p + (p >= skip))
        return out

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
        if self._marks is None:
            return [self.seed, *self._s]
        lane, step = divmod(self._taken, _STEPS)
        return [self.seed, *_steps(self._marks[lane].tolist(), step)[1]]

    def set_state(self, state) -> None:
        if len(state) != 5:
            raise ValueError("rng state must have 5 integers")
        self.seed = int(state[0]) & _MASK
        self._s = [int(x) & _MASK for x in state[1:]]
        self._marks = None
