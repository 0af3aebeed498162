"""Fusion algebra: composition identities, the mixing matrix, interpolation
contracts, coefficient estimation, EMA updates, informative-sample selection."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emofuse import tensor as T
from emofuse.errors import ContractError
from emofuse.encoders import MODES
from emofuse.fusion import (AlphaState, adaptive_fuse, compose_alphas,
                            estimate_alpha_pair, mixing, select_informative_samples,
                            update_alphas)
from emofuse.rng import Rng

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


# ---------------------------------------------------------------------------
# composition

def test_compose_corner_cases():
    assert compose_alphas(1.0, 1.0) == (1.0, 0.0, 0.0)
    assert compose_alphas(0.5, 0.5) == (0.25, 0.25, 0.5)


def test_compose_rejects_out_of_range():
    with pytest.raises(ContractError):
        compose_alphas(1.5, 0.5)
    with pytest.raises(ContractError):
        compose_alphas(0.5, -0.1)


@given(unit, unit)
@settings(max_examples=200, deadline=None)
def test_compose_is_probability_vector(a1, a2):
    c = compose_alphas(a1, a2)
    assert all(0.0 <= v <= 1.0 for v in c)
    assert abs(sum(c) - 1.0) < 1e-12


def test_compose_sum_over_many_random_pairs():
    rng = Rng(1)
    for _ in range(10000):
        c = compose_alphas(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))
        assert abs(sum(c) - 1.0) < 1e-12


def test_pairwise_bridge_properties():
    # mixing entry (j, i) is the pair coefficient a[j, i] / n off the diagonal
    mix = 3.0 * mixing((0.2, 0.3, 0.5))
    for i in range(3):
        for j in range(3):
            if i != j:
                assert 0.0 <= mix[j, i] <= 1.0
                assert abs(mix[j, i] + mix[i, j] - 1.0) < 1e-12
    assert mix[0, 1] == pytest.approx(0.4)  # text's weight against video
    both_zero = mixing((1.0, 0.0, 0.0))
    assert both_zero[1, 2] == both_zero[2, 1] == 0.5 / 3.0
    assert both_zero[0, 1] == both_zero[0, 2] == 1.0 / 3.0
    assert both_zero[1, 0] == both_zero[2, 0] == 0.0


@given(unit, unit)
@settings(max_examples=100, deadline=None)
def test_mixing_blocks_sum_to_n_minus_one_over_n(a1, a2):
    assert np.allclose(mixing(compose_alphas(a1, a2)).sum(axis=0), 2.0 / 3.0,
                       rtol=0.0, atol=1e-15)


def test_alpha_state_mixing_is_mixing_of_its_composed_weights():
    rng = Rng(10)
    for _ in range(20):
        a1, a2 = rng.uniform(), rng.uniform()
        assert np.array_equal(AlphaState(a1, a2).mixing(), mixing(compose_alphas(a1, a2)))


# ---------------------------------------------------------------------------
# fusion forward

def descriptors(rng, d=4, rows=1):
    return {m: T.Tensor(rng.uniform_array((rows, d), -1.0, 1.0))
            for m in ("text", "video", "audio")}


def const_mix(v):
    """The mixing matrix that keeps every mode at the pair coefficient ``v``
    against every other (not one `mixing` can make unless v is 0.5)."""
    return np.where(np.eye(3) == 1.0, 2.0 * v, 1.0 - v) / 3.0


def pairwise_oracle(desc, a):
    """Fusion written out pair by pair: block i averages over n the
    interpolations a[i, j] d_i + (1 - a[i, j]) d_j of the modes j != i."""
    d = {m: desc[m].values for m in MODES}
    return np.concatenate([
        sum(a[i, j] * d[m] + (1.0 - a[i, j]) * d[mj]
            for j, mj in enumerate(MODES) if j != i) / len(MODES)
        for i, m in enumerate(MODES)], axis=-1)


def test_fuse_width_and_order():
    desc = descriptors(Rng(2))
    fused = adaptive_fuse(desc, const_mix(0.5))
    assert fused.shape == (1, 12)


def test_fuse_all_alphas_one():
    desc = descriptors(Rng(3))
    fused = adaptive_fuse(desc, const_mix(1.0)).values
    for i, m in enumerate(("text", "video", "audio")):
        block = fused[0, 4 * i:4 * (i + 1)]
        assert np.allclose(block, (2.0 / 3.0) * desc[m].values[0], atol=1e-12)


def test_fuse_all_alphas_zero():
    desc = descriptors(Rng(4))
    fused = adaptive_fuse(desc, const_mix(0.0)).values
    order = ("text", "video", "audio")
    for i, m in enumerate(order):
        others = [desc[mi].values[0] for mi in order if mi != m]
        assert np.allclose(fused[0, 4 * i:4 * (i + 1)], (others[0] + others[1]) / 3.0,
                           atol=1e-12)


def test_fuse_equal_descriptors_half_alphas():
    v = Rng(5).uniform_array((1, 4), -1.0, 1.0)
    desc = {m: T.Tensor(v.copy()) for m in ("text", "video", "audio")}
    fused = adaptive_fuse(desc, const_mix(0.5)).values
    for i in range(3):
        assert np.allclose(fused[0, 4 * i:4 * (i + 1)], (2.0 / 3.0) * v[0], atol=1e-12)


def test_fuse_lipschitz_in_alpha():
    rng = Rng(6)
    desc = descriptors(rng)
    base = const_mix(0.5)
    for delta in (0.01, 0.1, 0.3):
        # text's coefficient against audio moves by delta
        pert = base.copy()
        pert[0, 0] += delta / 3.0
        pert[2, 0] -= delta / 3.0
        a = adaptive_fuse(desc, base).values
        b = adaptive_fuse(desc, pert).values
        diff = np.linalg.norm(b - a)
        bound = (delta / 3.0) * np.linalg.norm(desc["text"].values - desc["audio"].values)
        assert diff <= bound + 1e-12


def test_fuse_missing_mode_and_bad_alpha():
    desc = descriptors(Rng(7))
    del desc["audio"]
    with pytest.raises(ContractError):
        adaptive_fuse(desc, const_mix(0.5))
    desc = descriptors(Rng(8))
    for bad in (np.eye(2), np.ones((3, 4)), np.ones(3)):
        with pytest.raises(ContractError, match="mixing matrix of shape"):
            adaptive_fuse(desc, bad)


def test_fuse_equals_the_pairwise_interpolation():
    rng = Rng(11)
    for _ in range(20):
        a1, a2 = rng.uniform(), rng.uniform()
        w = compose_alphas(a1, a2)
        a = np.array([[0.5 if w[i] + w[j] == 0.0 else w[i] / (w[i] + w[j])
                       for j in range(3)] for i in range(3)])
        desc = descriptors(rng, d=5, rows=3)
        got = adaptive_fuse(desc, AlphaState(a1, a2).mixing()).values
        assert np.abs(got - pairwise_oracle(desc, a)).max() <= 1e-15


@pytest.mark.parametrize("rows", [1, 36])
def test_fuse_is_two_tape_records(rows):
    desc = {m: T.Tensor(t.values, requires_grad=True)
            for m, t in descriptors(Rng(12), d=8, rows=rows).items()}
    with T.recording(T.Tape()) as tape:
        fused = adaptive_fuse(desc, mixing((0.2, 0.3, 0.5)))
    assert len(tape) == 2
    assert fused.shape == (rows, 24)


def test_fuse_gradients_flow():
    desc = descriptors(Rng(9), d=3, rows=2)
    weights = T.Tensor(Rng(14).uniform_array((2, 9), -1.0, 1.0))
    for mix in (const_mix(0.3), mixing((0.6, 0.1, 0.3))):
        for m in MODES:
            x = T.Tensor(desc[m].values.copy(), requires_grad=True)

            def f(t):
                return T.sum_all(T.mul(adaptive_fuse(dict(desc, **{m: t}), mix), weights))

            assert T.finite_diff_check(f, x) < 1e-6


def test_fuse_batch_equals_rows_fused_alone():
    desc = descriptors(Rng(15), d=4, rows=5)
    mix = mixing((0.7, 0.2, 0.1))
    batch = adaptive_fuse(desc, mix).values
    for r in range(5):
        alone = adaptive_fuse({m: T.slice_rows(t, r, r + 1) for m, t in desc.items()}, mix)
        assert np.allclose(alone.values[0], batch[r], rtol=0.0, atol=1e-15)


# ---------------------------------------------------------------------------
# coefficient estimation

def test_estimate_worked_example():
    got = estimate_alpha_pair([1.0, 1.0], [0.0, 0.0], [3.0, 4.0], 0.1)
    want = (0.1 * math.sqrt(2.0) * 3.0 / 5.0 + 0.1 * math.sqrt(2.0) * 4.0 / 5.0) / 2.0
    assert got == pytest.approx(0.0990, abs=5e-5)
    assert got == pytest.approx(want, abs=1e-12)


def test_estimate_zero_gradient():
    assert estimate_alpha_pair([1.0, 2.0], [0.0, 0.0], [0.0, 0.0], 0.1) == 0.0


def test_estimate_identical_descriptors():
    assert estimate_alpha_pair([1.0, 2.0], [1.0, 2.0], [3.0, 4.0], 0.1) == 0.5


def test_estimate_epsilon_scaling():
    f_a, f_b, g = [2.0, 3.0], [0.5, 1.0], [0.2, 0.1]
    small = estimate_alpha_pair(f_a, f_b, g, 0.05)
    big = estimate_alpha_pair(f_a, f_b, g, 0.10)
    assert big == pytest.approx(2.0 * small, rel=1e-12)


def test_estimate_partial_zero_delta_dropped():
    # second coordinate has zero delta; only the first contributes
    got = estimate_alpha_pair([1.0, 5.0], [0.0, 5.0], [0.5, 9.9], 0.1)
    norm_g = math.sqrt(0.5 ** 2 + 9.9 ** 2)
    want = min(1.0, max(0.0, 0.1 * 1.0 * 0.5 / norm_g))
    assert got == pytest.approx(want, rel=1e-12)


def test_estimate_clamps_entries():
    # tiny delta entry next to a large one blows its ratio past 1
    got = estimate_alpha_pair([0.001, 10.0], [0.0, 0.0], [1.0, 0.0], 0.1)
    assert got == pytest.approx(0.5)  # entries (clamped 1, 0) -> mean 0.5
    # negative ratio clamps to 0
    got = estimate_alpha_pair([1.0, -1.0], [0.0, 0.0], [5.0, 5.0], 0.1)
    entry = 0.1 * math.sqrt(2.0) * 5.0 / (math.sqrt(50.0) * 1.0)
    assert got == pytest.approx(entry / 2.0, rel=1e-12)


# ---------------------------------------------------------------------------
# state updates

def test_update_momentum_zero_takes_batch_mean():
    s = AlphaState(0.5, 0.5, momentum=0.0)
    out = update_alphas(s, [(0.2, 0.8), (0.4, 0.6)])
    assert out.alpha_prime_1 == pytest.approx(0.3)
    assert out.alpha_prime_2 == pytest.approx(0.7)


def test_update_momentum_near_one_keeps_state():
    s = AlphaState(0.5, 0.5, momentum=0.999999)
    out = update_alphas(s, [(0.0, 1.0)])
    assert out.alpha_prime_1 == pytest.approx(0.5, abs=1e-5)
    assert out.alpha_prime_2 == pytest.approx(0.5, abs=1e-5)


def test_update_two_steps_hand_computed():
    s = AlphaState(0.5, 0.5, momentum=0.9)
    s = update_alphas(s, [(0.1, 0.9)])
    assert s.alpha_prime_1 == pytest.approx(0.9 * 0.5 + 0.1 * 0.1)
    s2 = update_alphas(s, [(0.3, 0.7), (0.5, 0.5)])
    assert s2.alpha_prime_1 == pytest.approx(0.9 * s.alpha_prime_1 + 0.1 * 0.4)
    assert s2.alpha_prime_2 == pytest.approx(0.9 * s.alpha_prime_2 + 0.1 * 0.6)


def test_update_rejects_empty():
    with pytest.raises(ContractError):
        update_alphas(AlphaState(), [])


def test_alpha_state_validation_and_roundtrip():
    with pytest.raises(ContractError):
        AlphaState(alpha_prime_1=1.5)
    with pytest.raises(ContractError):
        AlphaState(momentum=1.0)
    s = AlphaState(0.3, 0.7, epsilon=0.2, momentum=0.8)
    assert AlphaState(**dataclasses.asdict(s)) == s


# ---------------------------------------------------------------------------
# informative-sample selection

def test_constant_model_selects_nothing():
    ids = ["a", "b", "c"]
    got = select_informative_samples(ids, lambda sid, st: 1, lambda sid: (0.9, 0.9),
                                     AlphaState(), budget=3)
    assert got == []


def test_budget_validation():
    with pytest.raises(ContractError):
        select_informative_samples(["a"], lambda s, st: 0, lambda s: (0.5, 0.5),
                                   AlphaState(), budget=0)
    with pytest.raises(ContractError):
        select_informative_samples([], lambda s, st: 0, lambda s: (0.5, 0.5),
                                   AlphaState(), budget=1)


def test_boundary_point_is_selected():
    # prediction depends on whether the composed text weight crosses 0.5
    def predict(sid, state):
        if sid == "boundary":
            return 1 if state.composed()[0] > 0.3 else 0
        return 0

    got = select_informative_samples(["stable", "boundary"], predict,
                                     lambda sid: (0.9, 0.9), AlphaState(0.5, 0.5),
                                     budget=5)
    assert got == ["boundary"]


def test_budget_truncates():
    def predict(sid, state):
        return 0 if state.alpha_prime_1 == 0.5 else 1

    got = select_informative_samples(list("abcdef"), predict, lambda sid: (0.1, 0.1),
                                     AlphaState(0.5, 0.5), budget=2)
    assert got == ["a", "b"]
