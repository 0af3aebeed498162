"""Determinism and distribution sanity for the seeded generator."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emofuse.explain import PerturbationConfig, perturb_and_score
from emofuse.rng import Rng


def test_same_seed_same_stream():
    a = Rng(1234)
    b = Rng(1234)
    assert [a.u64() for _ in range(64)] == [b.u64() for _ in range(64)]


def test_different_seeds_diverge():
    a = Rng(1)
    b = Rng(2)
    assert [a.u64() for _ in range(8)] != [b.u64() for _ in range(8)]


def test_u64_range():
    r = Rng(7)
    for _ in range(1000):
        v = r.u64()
        assert 0 <= v < 2 ** 64


def test_uniform_bounds_and_mean():
    r = Rng(42)
    xs = [r.uniform(-2.0, 3.0) for _ in range(20000)]
    assert all(-2.0 <= x < 3.0 for x in xs)
    mean = sum(xs) / len(xs)
    assert abs(mean - 0.5) < 0.05


def test_normal_moments():
    r = Rng(99)
    xs = r.normal_array((30000,))
    mean = xs.mean()
    var = ((xs - mean) ** 2).mean()
    assert abs(mean) < 0.03
    assert abs(var - 1.0) < 0.05


def test_arrays_match_shapes():
    r = Rng(5)
    u = r.uniform_array((3, 4), 0.0, 1.0)
    n = r.normal_array((2, 5))
    assert u.shape == (3, 4)
    assert n.shape == (2, 5)
    assert ((0.0 <= u) & (u < 1.0)).all()


def test_randint_uniformity_and_range():
    r = Rng(11)
    counts = [0] * 7
    for _ in range(14000):
        v = r.randint(7)
        assert 0 <= v < 7
        counts[v] += 1
    for c in counts:
        assert abs(c - 2000) < 250


def test_shuffle_is_permutation():
    r = Rng(3)
    items = list(range(50))
    shuffled = list(items)
    r.shuffle(shuffled)
    assert sorted(shuffled) == items
    assert shuffled != items


def test_sample_indices_properties():
    r = Rng(8)
    for _ in range(200):
        got = r.sample_indices(20, 5, exclude=7)
        assert len(got) == 5
        assert len(set(got)) == 5
        assert 7 not in got
        assert all(0 <= i < 20 for i in got)


def test_sample_indices_k_too_large():
    r = Rng(8)
    with pytest.raises(Exception):
        r.sample_indices(3, 4)


def test_categorical_respects_weights():
    r = Rng(21)
    counts = [0, 0, 0]
    for _ in range(30000):
        counts[r.categorical([0.2, 0.5, 0.3])] += 1
    assert abs(counts[0] / 30000 - 0.2) < 0.02
    assert abs(counts[1] / 30000 - 0.5) < 0.02
    assert abs(counts[2] / 30000 - 0.3) < 0.02


def test_state_roundtrip_resumes_stream():
    r = Rng(1337)
    for _ in range(17):
        r.u64()
    state = r.get_state()
    ahead = [r.u64() for _ in range(20)]
    fresh = Rng(0)
    fresh.set_state(state)
    assert [fresh.u64() for _ in range(20)] == ahead


def test_spawn_streams_independent_and_stable():
    a = Rng(100).spawn(1)
    b = Rng(100).spawn(1)
    c = Rng(100).spawn(2)
    sa = [a.u64() for _ in range(8)]
    assert sa == [b.u64() for _ in range(8)]
    assert sa != [c.u64() for _ in range(8)]


@given(st.integers(min_value=0, max_value=2 ** 63), st.integers(min_value=1, max_value=64))
@settings(max_examples=50, deadline=None)
def test_stream_prefix_stable_under_replay(seed, n):
    first = [Rng(seed).u64() for _ in range(n)]
    second = [Rng(seed).u64() for _ in range(n)]
    assert first == second


def test_normal_array_matches_box_muller_structure():
    # pairwise fill: values must be finite and not collapse to a constant
    r = Rng(55)
    arr = r.normal_array((9,))
    assert arr.shape == (9,)
    assert all(math.isfinite(v) for v in arr)
    assert max(arr) != min(arr)


def _scalar_uniforms(r, n, lo, hi):
    return [lo + (r.u64() >> 11) * 2.0 ** -53 * (hi - lo) for _ in range(n)]


def _scalar_normals(r, n):
    out = []
    while len(out) < n:
        u1 = ((r.u64() >> 11) + 1) * 2.0 ** -53
        u2 = (r.u64() >> 11) * 2.0 ** -53
        rad = math.sqrt(-2.0 * math.log(u1))
        out += [rad * math.cos(2.0 * math.pi * u2), rad * math.sin(2.0 * math.pi * u2)]
    return out[:n]  # an odd count drops the last sine partner


@pytest.mark.parametrize("shape", [(0,), (1,), (2,), (7,), (8,), (), (3,), (2, 5)])
@pytest.mark.parametrize("seed", [0, 9, 2 ** 63 + 5])
def test_bulk_draws_equal_scalar_stream(seed, shape):
    n = math.prod(shape)
    bulk, scalar = Rng(seed), Rng(seed)
    u = bulk.uniform_array(shape, -0.75, 0.5)
    want = _scalar_uniforms(scalar, n, -0.75, 0.5)
    assert u.shape == shape and u.dtype.name == "float64"
    assert u.tobytes() == np.array(want, dtype=np.float64).tobytes()
    assert bulk.get_state() == scalar.get_state()
    z = bulk.normal_array(shape)
    want = _scalar_normals(scalar, n)
    assert z.shape == shape
    assert z.tobytes() == np.array(want, dtype=np.float64).tobytes()
    assert bulk.get_state() == scalar.get_state()
    assert bulk.u64() == scalar.u64()


# ---------------------------------------------------------------------------
# known answers and the block path (jump-ahead lanes)

_M64 = (1 << 64) - 1


class ScalarXoshiro:
    """Reference xoshiro256++ (Blackman & Vigna, 2021), one output per
    step, with the draws of `Rng` built on it the way their docstrings
    state."""

    def __init__(self, state):
        self.s = list(state)

    def u64(self):
        s0, s1, s2, s3 = self.s
        r = (s0 + s3) & _M64
        out = ((((r << 23) | (r >> 41)) & _M64) + s0) & _M64
        t = (s1 << 17) & _M64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        self.s = [s0, s1, s2, ((s3 << 45) | (s3 >> 19)) & _M64]
        return out

    def randint(self, n):
        limit = 2 ** 64 - 2 ** 64 % n
        while True:
            u = self.u64()
            if u < limit:
                return u % n

    def shuffle(self, items):
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample_indices(self, n, k, exclude):
        pool = [i for i in range(n) if i != exclude]
        for i in range(k):
            j = i + self.randint(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]


REFERENCE_OUTPUTS = [41943041, 58720359, 3588806011781223, 3591011842654386,
                     9228616714210784205, 9973669472204895162, 14011001112246962877,
                     12406186145184390807, 15849039046786891736, 10450023813501588000]


def test_seeding_is_splitmix64():
    # the SplitMix64 outputs for seed 0
    assert Rng(0).get_state()[1:] == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
                                      0x06C45D188009454F, 0xF88BB8A8724C81EC]


def test_outputs_are_the_reference_xoshiro256plusplus():
    # the first outputs of xoshiro256plusplus.c from state (1, 2, 3, 4)
    r = Rng(0)
    r.set_state([0, 1, 2, 3, 4])
    assert [r.u64() for _ in range(10)] == REFERENCE_OUTPUTS
    ref = ScalarXoshiro([1, 2, 3, 4])
    assert [ref.u64() for _ in range(10)] == REFERENCE_OUTPUTS


def test_one_call_through_blocks_is_the_reference_stream():
    r = Rng(0)
    r.set_state([0, 1, 2, 3, 4])
    got = r._u64s(20_000)  # 2,048 scalar outputs, then two blocks
    ref = ScalarXoshiro([1, 2, 3, 4])
    assert got[:10] == REFERENCE_OUTPUTS
    assert got == [ref.u64() for _ in range(20_000)]
    assert r.get_state()[1:] == ref.s == [6505995263570399941, 7044887240741313544,
                                          3046661998898085239, 6457739391994974503]


_OPS = st.one_of(
    st.tuples(st.just("u64s"), st.integers(1, 20_000)),
    st.tuples(st.just("normal"), st.integers(0, 3_000)),
    st.tuples(st.just("uniform"), st.integers(0, 20_000)),
    st.tuples(st.just("randint"), st.integers(1, 2 ** 64)),
    st.tuples(st.just("shuffle"), st.integers(0, 300)),
    st.tuples(st.just("sample"), st.integers(1, 300)))


@given(st.integers(0, 2 ** 64 - 1), st.lists(_OPS, min_size=1, max_size=8))
@settings(max_examples=40, deadline=None)
def test_every_draw_equals_the_scalar_reference(seed, ops):
    r = Rng(seed)
    ref = ScalarXoshiro(r.get_state()[1:])
    for op, n in ops:
        if op == "u64s":
            assert r._u64s(n) == [ref.u64() for _ in range(n)]
        elif op == "normal":
            assert r.normal_array((n,)).tobytes() == \
                np.array(_scalar_normals(ref, n), dtype=np.float64).tobytes()
        elif op == "uniform":
            assert r.uniform_array((n,), -1.5, 2.0).tobytes() == \
                np.array(_scalar_uniforms(ref, n, -1.5, 2.0), dtype=np.float64).tobytes()
        elif op == "randint":
            assert r.randint(n) == ref.randint(n)
        elif op == "shuffle":
            got, want = list(range(n)), list(range(n))
            r.shuffle(got)
            ref.shuffle(want)
            assert got == want
        else:
            assert r.sample_indices(n + 1, n // 2, exclude=n // 3) == \
                ref.sample_indices(n + 1, n // 2, n // 3)
        assert r.get_state() == [seed, *ref.s]


def test_set_state_mid_block_continues_as_a_fresh_generator():
    src = Rng(41)
    src._u64s(5_000)  # mid-block
    target = src.get_state()
    moved = Rng(17)
    moved._u64s(9_000)  # also mid-block, in another block
    moved.set_state(target)
    fresh = Rng(0)
    fresh.set_state(target)
    for n in (1, 63, 700, 20_000, 5):
        assert moved._u64s(n) == fresh._u64s(n) == src._u64s(n)
        assert moved.get_state() == fresh.get_state() == src.get_state()


def test_small_generators_never_build_a_block(monkeypatch):
    def no_block(self):
        raise AssertionError("a block was built")

    monkeypatch.setattr(Rng, "_fill", no_block)
    Rng(5).shuffle(list(range(30)))
    perturb_and_score(np.ones(6), lambda x: 0.5,
                      [("text", 0, 2), ("video", 2, 4), ("audio", 4, 6)],
                      PerturbationConfig())
