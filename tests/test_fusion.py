"""Fusion algebra: composition identities, interpolation contracts,
coefficient estimation, EMA updates, informative-sample selection."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emofuse import tensor as T
from emofuse.errors import ContractError
from emofuse.fusion import (AlphaState, adaptive_fuse, compose_alphas,
                            estimate_alpha_pair, pairwise_from_composed,
                            select_informative_samples, update_alphas)
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
    pw = pairwise_from_composed((0.2, 0.3, 0.5))
    for (m, mi), v in pw.items():
        assert 0.0 <= v <= 1.0
        assert abs(v + pw[(mi, m)] - 1.0) < 1e-12
    assert pw[("text", "video")] == pytest.approx(0.4)
    both_zero = pairwise_from_composed((0.0, 0.0, 1.0))
    assert both_zero[("text", "video")] == 0.5


# ---------------------------------------------------------------------------
# fusion forward

def descriptors(rng, d=4):
    return {m: T.Tensor(rng.uniform_array((1, d), -1.0, 1.0))
            for m in ("text", "video", "audio")}


def const_alphas(v):
    out = {}
    for m in ("text", "video", "audio"):
        for mi in ("text", "video", "audio"):
            if m != mi:
                out[(m, mi)] = v
    return out


def test_fuse_width_and_order():
    desc = descriptors(Rng(2))
    fused = adaptive_fuse(desc, const_alphas(0.5))
    assert fused.shape == (1, 12)


def test_fuse_all_alphas_one():
    desc = descriptors(Rng(3))
    fused = adaptive_fuse(desc, const_alphas(1.0)).values
    for i, m in enumerate(("text", "video", "audio")):
        block = fused[0, 4 * i:4 * (i + 1)]
        assert np.allclose(block, (2.0 / 3.0) * desc[m].values[0], atol=1e-12)


def test_fuse_all_alphas_zero():
    desc = descriptors(Rng(4))
    fused = adaptive_fuse(desc, const_alphas(0.0)).values
    order = ("text", "video", "audio")
    for i, m in enumerate(order):
        others = [desc[mi].values[0] for mi in order if mi != m]
        assert np.allclose(fused[0, 4 * i:4 * (i + 1)], (others[0] + others[1]) / 3.0,
                           atol=1e-12)


def test_fuse_equal_descriptors_half_alphas():
    v = Rng(5).uniform_array((1, 4), -1.0, 1.0)
    desc = {m: T.Tensor(v.copy()) for m in ("text", "video", "audio")}
    fused = adaptive_fuse(desc, const_alphas(0.5)).values
    for i in range(3):
        assert np.allclose(fused[0, 4 * i:4 * (i + 1)], (2.0 / 3.0) * v[0], atol=1e-12)


def test_fuse_lipschitz_in_alpha():
    rng = Rng(6)
    desc = descriptors(rng)
    base = const_alphas(0.5)
    for delta in (0.01, 0.1, 0.3):
        pert = dict(base)
        pert[("text", "audio")] = 0.5 + delta
        a = adaptive_fuse(desc, base).values
        b = adaptive_fuse(desc, pert).values
        diff = np.linalg.norm(b - a)
        bound = (delta / 3.0) * np.linalg.norm(desc["text"].values - desc["audio"].values)
        assert diff <= bound + 1e-12


def test_fuse_missing_mode_and_bad_alpha():
    desc = descriptors(Rng(7))
    del desc["audio"]
    with pytest.raises(ContractError):
        adaptive_fuse(desc, const_alphas(0.5))
    desc = descriptors(Rng(8))
    bad = const_alphas(0.5)
    bad[("text", "video")] = 1.2
    with pytest.raises(ContractError):
        adaptive_fuse(desc, bad)


def test_fuse_gradients_flow():
    desc = descriptors(Rng(9))
    x = T.Tensor(desc["text"].values.copy(), requires_grad=True)

    def f(t):
        d = dict(desc)
        d["text"] = t
        return T.sum_all(adaptive_fuse(d, const_alphas(0.3)))

    assert T.finite_diff_check(f, x) < 1e-6


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
    assert AlphaState.from_dict(s.to_dict()) == s


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
