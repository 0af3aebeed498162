"""Perturbation masking, surrogate fitting, and report rendering."""
import json
import os
import re
import warnings

import numpy as np
import pytest

from emofuse.errors import ContractError, DataError
from emofuse.explain import (Explanation, PerturbationConfig, explain_instance,
                             explanation_svg, fit_surrogate, mode_groups,
                             perturb_and_score, render_report)

from oracles import ridge_closed_form


def linear_prob(coefs, base=0.5):
    """Model whose score is affine in the unmasked features."""
    c = np.asarray(coefs, dtype=np.float64)

    def predict(x):
        return base + float(x.reshape(-1) @ c)

    return predict


THREE_GROUPS = [("text", 0, 2), ("video", 2, 4), ("audio", 4, 6)]


def test_mode_groups_whole_blocks():
    groups = mode_groups(("text", "video", "audio"), 4)
    assert groups == [("text", 0, 4), ("video", 4, 8), ("audio", 8, 12)]


def test_first_mask_row_reproduces_original_score():
    x = np.arange(6, dtype=np.float64)
    predict = linear_prob([0.1, -0.2, 0.3, 0.0, 0.05, -0.1])
    cfg = PerturbationConfig(num_samples=32, seed=3)
    masks, scores, weights = perturb_and_score(x, predict, THREE_GROUPS, cfg)
    assert np.all(masks[0] == 1.0)
    assert scores[0] == predict(x.reshape(1, -1))
    assert weights[0] == 1.0


def test_locality_weights_match_hamming_kernel():
    x = np.ones(6)
    cfg = PerturbationConfig(num_samples=64, seed=9)
    masks, _, weights = perturb_and_score(x, lambda m: 0.0, THREE_GROUPS, cfg)
    kernel = 0.75 * np.sqrt(3.0)
    for row, w in zip(masks, weights):
        h = float((row == 0).sum())
        assert w == pytest.approx(np.exp(-h * h / kernel**2), abs=1e-15)


def test_masking_is_groupwise():
    # a group is either fully zeroed or fully kept, never split
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    seen = []

    def probe(m):
        seen.append(m.copy().reshape(-1))
        return 0.0

    cfg = PerturbationConfig(num_samples=50, seed=1)
    masks, _, _ = perturb_and_score(x, probe, THREE_GROUPS, cfg)
    for row, vals in zip(masks, seen):
        for j, (_, lo, hi) in enumerate(THREE_GROUPS):
            if row[j] == 0.0:
                assert np.all(vals[lo:hi] == 0.0)
            else:
                assert np.all(vals[lo:hi] == x[lo:hi])


def test_sample_budget_below_group_count_rejected():
    cfg = PerturbationConfig(num_samples=3, seed=0)
    with pytest.raises(ContractError, match="group count"):
        perturb_and_score(np.ones(6), lambda m: 0.0, THREE_GROUPS, cfg)


def test_config_validation():
    with pytest.raises(ContractError):
        PerturbationConfig(num_samples=1)
    with pytest.raises(ContractError):
        PerturbationConfig(mask_prob=0.0)
    with pytest.raises(ContractError):
        PerturbationConfig(mask_prob=1.0)
    with pytest.raises(ContractError):
        PerturbationConfig(ridge_lambda=0.0)


def test_surrogate_matches_ridge_oracle():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n, g = 40, 4
        masks = (rng.random((n, g)) > 0.5).astype(np.float64)
        masks[0] = 1.0
        scores = rng.normal(size=n)
        weights = rng.random(n) + 0.05
        cfg = PerturbationConfig(num_samples=n, seed=0)
        exp = fit_surrogate(masks, scores, weights, cfg, list("abcd"))
        b0, coefs = ridge_closed_form(masks, scores, weights, cfg.ridge_lambda)
        assert exp.intercept == pytest.approx(b0, abs=1e-9)
        assert np.allclose(exp.weights, coefs, atol=1e-9)


def test_planted_linear_model_recovered():
    # score is exactly linear in the group masks, so the surrogate is exact
    coefs = np.array([0.3, -0.15, 0.0, 0.12, -0.3, 0.0])
    predict = linear_prob(coefs, base=0.4)
    x = np.ones(6)
    cfg = PerturbationConfig(num_samples=400, ridge_lambda=1e-3, seed=5)
    exp = explain_instance(x, predict, THREE_GROUPS, cfg, "u0", 2)
    expected = [coefs[lo:hi].sum() for _, lo, hi in THREE_GROUPS]
    for got, want in zip(exp.weights, expected):
        if want == 0.0:
            assert abs(got) < 1e-3
        else:
            assert got * want > 0.0
            assert abs(got - want) <= 0.10 * abs(want)
    assert exp.r2 > 0.99


def test_zero_weight_group_gets_near_zero_attribution():
    coefs = np.array([0.5, 0.5, 0.0, 0.0, -0.4, -0.4])
    predict = linear_prob(coefs)
    cfg = PerturbationConfig(num_samples=300, seed=11)
    exp = explain_instance(np.ones(6), predict, THREE_GROUPS, cfg)
    assert abs(exp.weights[1]) < 1e-3  # video block is ignored by the model


def test_constant_model_yields_zero_attributions():
    cfg = PerturbationConfig(num_samples=50, seed=2)
    exp = explain_instance(np.ones(6), lambda m: 0.77, THREE_GROUPS, cfg)
    assert all(abs(w) < 1e-9 for w in exp.weights)
    assert exp.intercept == pytest.approx(0.77, abs=1e-9)
    assert exp.r2 == 1.0


def test_duplicated_mask_columns_split_attribution_equally():
    rng = np.random.default_rng(7)
    masks = (rng.random((60, 2)) > 0.5).astype(np.float64)
    masks = np.hstack([masks, masks[:, :1]])  # third column copies the first
    masks[0] = 1.0
    scores = 2.0 * masks[:, 0] + 0.5 * masks[:, 1]
    weights = np.ones(60)
    cfg = PerturbationConfig(num_samples=60, seed=0)
    exp = fit_surrogate(masks, scores, weights, cfg, ["a", "b", "a_copy"])
    assert exp.weights[0] == pytest.approx(exp.weights[2], abs=1e-9)
    assert exp.weights[0] + exp.weights[2] == pytest.approx(2.0, abs=1e-2)


def test_rank_deficient_design_warns_and_still_fits():
    # constant column plus duplicate with lambda so small the solve degrades
    masks = np.ones((8, 3))
    masks[4:, 1] = 0.0
    masks[:, 2] = masks[:, 1]
    scores = masks[:, 1] * 3.0
    weights = np.ones(8)
    cfg = PerturbationConfig(num_samples=8, ridge_lambda=1e-16, seed=0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        exp = fit_surrogate(masks, scores, weights, cfg, ["a", "b", "c"])
    assert any("rank-deficient" in str(w.message) for w in caught)
    assert np.isfinite(exp.weights).all()


def test_explanations_deterministic_per_seed():
    coefs = np.linspace(-0.3, 0.4, 6)
    predict = linear_prob(coefs)
    cfg = PerturbationConfig(num_samples=120, seed=21)
    a = explain_instance(np.ones(6), predict, THREE_GROUPS, cfg, "u3", 1)
    b = explain_instance(np.ones(6), predict, THREE_GROUPS, cfg, "u3", 1)
    assert json.dumps(a.to_dict(), sort_keys=True) == \
        json.dumps(b.to_dict(), sort_keys=True)
    c = explain_instance(np.ones(6), predict, THREE_GROUPS,
                         PerturbationConfig(num_samples=120, seed=22), "u3", 1)
    assert a.weights != c.weights


def test_r2_high_on_locally_linear_model():
    rng = np.random.default_rng(3)
    coefs = rng.normal(scale=0.2, size=6)
    predict = linear_prob(coefs, base=0.5)
    cfg = PerturbationConfig(num_samples=200, seed=8)
    exp = explain_instance(np.ones(6), predict, THREE_GROUPS, cfg)
    assert exp.r2 >= 0.9


def test_explanation_round_trip():
    exp = Explanation("u1", 3, ["t", "v", "a"], [0.2, -0.1, 0.0],
                      0.4, 0.97, 100, 0.5)
    assert json.loads(json.dumps(exp.to_dict())) == exp.to_dict()


def test_svg_has_one_bar_per_group_with_sign_colors():
    exp = Explanation("u7", 0, ["t", "v", "a"], [0.3, -0.2, 0.1],
                      0.1, 0.95, 64, 0.5)
    svg = explanation_svg(exp)
    assert svg.count("<rect") == 3
    assert svg.count("#2e8b57") == 2
    assert svg.count("#c0392b") == 1
    assert "u7" in svg


def test_render_report_writes_json_svg_and_index(tmp_path):
    exps = [Explanation(f"d0_u{i}", i % 2, ["t", "v", "a"],
                        [0.1 * i, -0.05, 0.02], 0.3, 0.9, 50, 0.5)
            for i in range(3)]
    out = tmp_path / "report"
    written = render_report(exps, str(out))
    assert len(written) == 7  # 3 json + 3 svg + index
    index = json.loads((out / "index.json").read_text())
    assert [e["utterance_id"] for e in index] == ["d0_u0", "d0_u1", "d0_u2"]
    loaded = json.loads((out / "d0_u1.json").read_text())
    assert loaded == exps[1].to_dict()
    assert (out / "d0_u2.svg").read_text().count("<rect") == 3


@pytest.mark.parametrize("ids, named", [
    (["a/b", "u0", "a_b"], "'a/b', 'a_b'"),  # both write a_b.json
    (["u0", "u\0"], "'u\\x00'"),  # no file name holds a NUL byte
    (["index", "u0"], "'index'"),  # index.json is the report's index
], ids=["collision", "nul-byte", "index"])
def test_render_report_rejects_ids_without_files_of_their_own(tmp_path, ids, named):
    exps = [Explanation(uid, 0, ["t", "v", "a"], [0.1, -0.05, 0.02], 0.3, 0.9, 50, 0.5)
            for uid in ids]
    out = tmp_path / "report"
    with pytest.raises(DataError, match=re.escape(f"utterance ids {named} cannot each")):
        render_report(exps, str(out))
    assert not out.exists()


def test_render_report_empty_list(tmp_path):
    out = tmp_path / "empty"
    written = render_report([], str(out))
    assert written == [str(out / "index.json")]
    assert json.loads((out / "index.json").read_text()) == []
