"""Objectives: probability model, contrastive terms against the
transcription oracle, focal variants, combination, negative sampling."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emofuse import tensor as T
from emofuse import train as train_mod
from emofuse.config import RunConfig
from emofuse.data import SynthSpec, all_utterances, synth_generate
from emofuse.errors import ConfigError, ContractError
from emofuse.losses import (ace_loss, averaged_focal,
                            candidate_distribution, combined_loss, focal_loss,
                            focal_mean, nce_loss)
from emofuse.model import init_pipeline
from emofuse.rng import Rng

from oracles import ace_oracle, focal_term, nce_printed_oracle


def vec(vals):
    return T.Tensor([list(vals)])


def rvec(rng, d=3):
    return T.Tensor(rng.uniform_array((1, d), -1.0, 1.0))


def candidates(vecs):
    """1 x d tensors as the 1 x K x d candidate set of one query row."""
    return T.Tensor(np.stack([v.values for v in vecs], axis=1))


# ---------------------------------------------------------------------------
# probability model

def positive_probability(query, key, negatives, tau):
    """Mass the candidate softmax puts on the positive key (entry [0, 0])."""
    return candidate_distribution(query, candidates([key] + negatives), tau).values[0, 0]


def test_single_candidate_probability_one():
    p = positive_probability(vec([1.0, 0.0]), vec([0.3, 0.4]), [], tau=1.0)
    assert p == pytest.approx(1.0)


def test_aligned_vs_orthogonal():
    q = vec([2.0, 0.0])
    pos = vec([5.0, 0.0])     # cosine 1
    neg = vec([0.0, 1.0])     # cosine 0
    p = positive_probability(q, pos, [neg], tau=1.0)
    assert p == pytest.approx(math.e / (math.e + 1.0), abs=1e-12)


def test_identical_positive_and_negative():
    q = rvec(Rng(1))
    key = rvec(Rng(2))
    twin = T.Tensor(key.values.copy())
    p = positive_probability(q, key, [twin], tau=0.1)
    assert p == pytest.approx(0.5, abs=1e-12)


def test_zero_vector_similarity_is_zero():
    # a zero candidate scores cosine 0, as does every candidate of a zero query
    dist = candidate_distribution(vec([1.0, 2.0]), candidates([vec([0.0, 0.0]), vec([2.0, 4.0])]),
                                  tau=1.0).values[0]
    assert dist == pytest.approx([1.0 / (1.0 + math.e), math.e / (1.0 + math.e)], abs=1e-12)
    dist = candidate_distribution(vec([0.0, 0.0]), candidates([vec([1.0, 2.0]), vec([0.0, 0.0])]),
                                  tau=0.1).values[0]
    assert list(dist) == [0.5, 0.5]


def test_distribution_sums_to_one():
    rng = Rng(3)
    dist = candidate_distribution(rvec(rng), candidates([rvec(rng) for _ in range(5)]), tau=0.1)
    assert dist.values.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# contrastive loss

def test_nce_matches_transcription_oracle():
    rng = Rng(4)
    for _ in range(20):
        q, pos = rvec(rng), rvec(rng)
        negs = [rvec(rng) for _ in range(4)]
        nu = 4 / 50
        got = nce_loss(q, pos, negs, nu=nu, tau=0.5).item()
        want = nce_printed_oracle(list(q.values[0]), list(pos.values[0]),
                                  [list(n.values[0]) for n in negs], nu, 0.5)
        assert got == pytest.approx(want, abs=1e-12)


def test_nce_decreases_as_positive_aligns():
    q = vec([1.0, 0.0])
    negs = [vec([0.0, 1.0]), vec([-1.0, 0.5])]
    losses = []
    for angle in (1.2, 0.8, 0.4, 0.1):
        pos = vec([math.cos(angle), math.sin(angle)])
        losses.append(nce_loss(q, pos, negs, nu=0.1, tau=0.5).item())
    assert losses == sorted(losses, reverse=True)


def test_nce_small_nu_first_term_vanishes():
    q, pos = vec([1.0, 0.0]), vec([1.0, 0.1])
    negs = [vec([0.0, 1.0])]
    tiny = nce_loss(q, pos, negs, nu=1e-12, tau=1.0).item()
    # first term ~0; remainder is sum log(P_k/(P_k+nu)) - 1 ~ 0 - 1
    dist = candidate_distribution(q, candidates([pos] + negs), 1.0).values[0]
    want = -math.log(dist[0] / (dist[0] + 1e-12)) + math.log(dist[1] / (dist[1] + 1e-12)) - 1.0
    assert tiny == pytest.approx(want, abs=1e-9)
    assert abs(-math.log(dist[0] / (dist[0] + 1e-12))) < 1e-9


def test_nce_standard_form():
    q, pos = rvec(Rng(5)), rvec(Rng(6))
    negs = [rvec(Rng(7)), rvec(Rng(8))]
    got = nce_loss(q, pos, negs, nu=0.1, tau=0.3, form="standard").item()
    dist = candidate_distribution(q, candidates([pos] + negs), 0.3)
    assert got == pytest.approx(-math.log(dist.values[0, 0]), abs=1e-12)


def test_nce_validates_inputs():
    q, pos = rvec(Rng(9)), rvec(Rng(10))
    with pytest.raises(ContractError):
        nce_loss(q, pos, [], nu=0.1, tau=0.5)
    with pytest.raises(ContractError):
        nce_loss(q, pos, [rvec(Rng(11))], nu=0.0, tau=0.5)


# ---------------------------------------------------------------------------
# aggregated contrastive loss

def make_batch(rng, n_utts=3, modes=("audio", "text", "video"), d=3, n_negs=2):
    desc = {f"u{j}": {m: rvec(rng, d) for m in modes} for j in range(n_utts)}
    negs = {uid: [{m: rvec(rng, d) for m in modes} for _ in range(n_negs)]
            for uid in desc}
    return desc, negs


def test_ace_single_utterance_two_modes():
    rng = Rng(12)
    desc, negs = make_batch(rng, n_utts=1, modes=("audio", "text"))
    got = ace_loss(desc, negs, pool_size=10, tau=0.5).item()
    nu = 2 / 10
    a = nce_loss(desc["u0"]["audio"], desc["u0"]["text"],
                 [n["text"] for n in negs["u0"]], nu, 0.5).item()
    b = nce_loss(desc["u0"]["text"], desc["u0"]["audio"],
                 [n["audio"] for n in negs["u0"]], nu, 0.5).item()
    assert got == pytest.approx((a + b) / 2.0, abs=1e-12)


def test_ace_matches_triple_loop_oracle():
    rng = Rng(13)
    desc, negs = make_batch(rng, n_utts=3, n_negs=2)
    got = ace_loss(desc, negs, pool_size=20, tau=0.4).item()
    desc_p = {u: {m: list(t.values[0]) for m, t in mm.items()} for u, mm in desc.items()}
    negs_p = {u: [{m: list(t.values[0]) for m, t in nn.items()} for nn in ll]
              for u, ll in negs.items()}
    want = ace_oracle(desc_p, negs_p, 20, 0.4)
    assert got == pytest.approx(want, abs=1e-10)


def test_ace_invariant_to_duplication():
    rng = Rng(14)
    desc, negs = make_batch(rng, n_utts=2)
    base = ace_loss(desc, negs, pool_size=10, tau=0.4).item()
    doubled_desc = dict(desc)
    doubled_negs = dict(negs)
    for uid in list(desc):
        doubled_desc[uid + "_copy"] = {m: T.Tensor(t.values.copy())
                                       for m, t in desc[uid].items()}
        doubled_negs[uid + "_copy"] = [{m: T.Tensor(t.values.copy())
                                        for m, t in n.items()} for n in negs[uid]]
    doubled = ace_loss(doubled_desc, doubled_negs, pool_size=10, tau=0.4).item()
    assert doubled == pytest.approx(base, abs=1e-12)


def test_ace_validates():
    with pytest.raises(ContractError):
        ace_loss({}, {}, pool_size=10, tau=0.5)
    rng = Rng(15)
    desc, negs = make_batch(rng, n_utts=1)
    negs["u0"] = []
    with pytest.raises(ContractError):
        ace_loss(desc, negs, pool_size=10, tau=0.5)


# ---------------------------------------------------------------------------
# focal loss

def test_focal_perfect_prediction_zero():
    assert focal_loss(1.0, gamma=1.0).item() == 0.0


def test_focal_gamma_zero_is_cross_entropy():
    for p in (0.1, 0.37, 0.9, 0.999):
        got = focal_loss(p, gamma=0.0).item()
        assert got == pytest.approx(-math.log(p), abs=1e-12)


def test_focal_half_gamma_one():
    assert focal_loss(0.5, gamma=1.0).item() == pytest.approx(0.5 * math.log(2.0), abs=1e-9)


def test_focal_matches_reference_formula():
    for p in (0.05, 0.3, 0.77):
        for g in (0.5, 1.0, 2.0):
            assert focal_loss(p, g).item() == pytest.approx(focal_term(p, g), abs=1e-12)


def test_focal_printed_form():
    got = focal_loss(0.3, gamma=2.0, form="printed").item()
    assert got == pytest.approx((0.7 ** 2) * 0.3, abs=1e-12)


@given(st.floats(min_value=1e-6, max_value=1.0), st.floats(min_value=1e-6, max_value=1.0),
       st.sampled_from([0.0, 0.5, 1.0, 2.0]))
@settings(max_examples=80, deadline=None)
def test_focal_non_increasing_in_p(p1, p2, gamma):
    lo, hi = min(p1, p2), max(p1, p2)
    assert focal_loss(lo, gamma).item() >= focal_loss(hi, gamma).item() - 1e-12


def test_focal_zero_probability_clamped():
    got = focal_loss(0.0, gamma=1.0).item()
    assert got == pytest.approx(-math.log(1e-12), abs=1e-6)


def test_focal_rejects_bad_inputs():
    with pytest.raises(ContractError):
        focal_loss(1.5, gamma=1.0)
    with pytest.raises(ContractError):
        focal_loss(0.5, gamma=-1.0)


# ---------------------------------------------------------------------------
# averaged focal

def probs_for(label, c=3, p=0.8):
    row = [(1.0 - p) / (c - 1)] * c
    row[label] = p
    return T.Tensor([row])


def test_averaged_all_perfect_is_zero():
    per_mode = {"text": [(probs_for(0, p=1.0 - 1e-15), 0)],
                "audio": [(probs_for(1, p=1.0 - 1e-15), 1)]}
    assert averaged_focal(per_mode, gamma=1.0).item() == pytest.approx(0.0, abs=1e-12)


def test_averaged_single_equals_focal():
    pm = {"text": [(probs_for(2, p=0.6), 2)]}
    got = averaged_focal(pm, gamma=1.0).item()
    assert got == pytest.approx(focal_loss(0.6, 1.0).item(), abs=1e-12)


def test_averaged_two_by_two_hand_sum():
    pm = {"text": [(probs_for(0, p=0.9), 0), (probs_for(1, p=0.4), 1)],
          "audio": [(probs_for(0, p=0.7), 0), (probs_for(2, p=0.55), 2)]}
    got = averaged_focal(pm, gamma=1.0).item()
    want = (focal_term(0.9, 1.0) + focal_term(0.4, 1.0) +
            focal_term(0.7, 1.0) + focal_term(0.55, 1.0)) / 4.0
    assert got == pytest.approx(want, abs=1e-12)


def test_focal_mean_is_one_column_of_terms():
    rng = Rng(18)
    pairs = [(probs_for(i % 3, p=rng.uniform(0.2, 0.9)), i % 3) for i in range(5)]
    want = sum(focal_term(pr.values[0, lab], 0.5) for pr, lab in pairs) / 5
    sizes = []
    for n in (2, 5):
        # a one-hot gather: the tape holds a fixed count whatever the term count
        probs = [T.Tensor(pr.values, requires_grad=True) for pr, _ in pairs[:n]]
        tape = T.Tape()
        with T.recording(tape):
            got = focal_mean([(pr, lab) for pr, (_, lab) in zip(probs, pairs)], 0.5)
        sizes.append(len(tape))
    assert got.item() == pytest.approx(want, abs=1e-12)
    assert sizes[0] == sizes[1]
    # one block of rows with a label per row is the same column of terms
    block = T.Tensor(np.vstack([pr.values for pr, _ in pairs]))
    assert focal_mean([(block, [lab for _, lab in pairs])], 0.5).item() == \
        pytest.approx(want, abs=1e-12)
    with pytest.raises(ContractError):
        focal_mean([], 1.0)
    with pytest.raises(ContractError):
        focal_mean([(probs_for(0), 3)], 1.0)
    with pytest.raises(ContractError):
        focal_mean([(block, [0, 1])], 1.0)


def test_averaged_rejects_unbalanced():
    pm = {"text": [(probs_for(0), 0)], "audio": []}
    with pytest.raises(ContractError):
        averaged_focal(pm, gamma=1.0)


# ---------------------------------------------------------------------------
# combination

def test_combined_values():
    zero = combined_loss(T.Tensor([[0.0]]), T.Tensor([[0.0]]))
    assert zero.total.item() == 0.0
    r = combined_loss(T.Tensor([[1.5]]), T.Tensor([[0.25]]))
    assert r.total.item() == pytest.approx(1.75)
    assert r.total.item() == r.l_ace.item() + r.l_fl.item()


def test_combined_gradient_additivity():
    rng = Rng(16)
    x = T.Tensor(rng.uniform_array((1, 3), -1.0, 1.0), requires_grad=True)
    pos = rvec(rng)
    negs = [rvec(rng), rvec(rng)]
    w = T.Tensor(rng.uniform_array((3, 3), -1.0, 1.0))

    def parts(t):
        l_ace = nce_loss(t, pos, negs, nu=0.2, tau=0.5)
        probs = T.softmax_rows(T.matmul(t, w))
        l_fl = focal_loss(T.reshape(T.pick(probs, 0, 1), (1, 1)), gamma=1.0)
        return l_ace, l_fl

    grads = []
    for which in ("ace", "fl", "total"):
        tape = T.Tape()
        x.grad = None
        with T.recording(tape):
            l_ace, l_fl = parts(x)
            loss = {"ace": l_ace, "fl": l_fl,
                    "total": combined_loss(l_ace, l_fl).total}[which]
        T.backward(loss, tape)
        grads.append(x.grad.copy())
    assert np.allclose(grads[2], grads[0] + grads[1], atol=1e-10)


def test_loss_gradients_pass_finite_diff():
    rng = Rng(17)
    pos = rvec(rng)
    negs = [rvec(rng), rvec(rng)]
    x = T.Tensor(rng.uniform_array((1, 3), -1.0, 1.0), requires_grad=True)

    def f(t):
        return T.reshape(nce_loss(t, pos, negs, nu=0.2, tau=0.5), (1, 1))

    assert T.finite_diff_check(f, x, step=1e-6) < 1e-4


# ---------------------------------------------------------------------------
# negative sampling: train._negative_cache draws pool positions per anchor

def negative_ids(num_dialogues, per_dialogue, anchor, k, rng):
    corpus = synth_generate(SynthSpec(num_dialogues=num_dialogues,
                                      utterances_per_dialogue=(per_dialogue, per_dialogue),
                                      seed=3))
    ids = [u.utterance_id for u in all_utterances(corpus)]
    pipeline = init_pipeline(RunConfig(seed=1))
    _, negatives = train_mod._negative_cache(pipeline, corpus, k, rng, 2)
    return ids, [ids[j] for j in negatives[anchor].tolist()]


def test_negative_ids_exclude_anchor_and_are_deterministic():
    ids, a = negative_ids(5, 2, 3, 4, Rng(42))
    _, b = negative_ids(5, 2, 3, 4, Rng(42))
    assert len(ids) == 10
    assert a == b
    assert ids[3] not in a
    assert len(a) == len(set(a)) == 4


def test_negative_ids_cap_at_pool():
    ids, got = negative_ids(1, 3, 0, 99, Rng(1))
    assert sorted(got) == sorted(ids[1:])


def test_loss_config_validation():
    # the loss knobs are checked by RunConfig, and a failure names the key
    for key, value in [("gamma", -0.1), ("tau", 0.0), ("tau", -1.0),
                       ("negatives_per_anchor", 0), ("focal_form", "unknown"),
                       ("nce_form", "other")]:
        with pytest.raises(ConfigError, match=key):
            RunConfig(**{key: value})
    assert RunConfig(gamma=0.0).tau == 0.1
