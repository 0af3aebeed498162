"""Dialogue/speaker context classifier: dual recurrent states, prediction
head, speaker-relabeling invariance, explanation queries."""
import math

import numpy as np
import pytest

from emofuse import context
from emofuse import tensor as T
from emofuse.context import (ContextConfig, ContextParams, classify_dialogue,
                             init_context, predict_emotion, row_query)
from emofuse.encoders import bilstm_forward
from emofuse.errors import ContractError
from emofuse.rng import Rng


def fused(rng, n, d=4):
    return T.Tensor(rng.uniform_array((n, d), -1.0, 1.0))


def params(d=4, seed=1, c=3, state=3):
    return init_context(ContextConfig(input_dim=d, num_classes=c, state_dim=state,
                                      lstm_hidden=2), Rng(seed))


# ---------------------------------------------------------------------------
# joined context states (speaker branch, then dialogue branch)

def joined_states(monkeypatch, seq, speakers, p):
    """The state classify_dialogue hands the prediction head, per utterance."""
    seen = []
    head = context.predict_emotion

    def spy(e, params, utterance_ids=None):
        seen.extend(T.Tensor(row[None]) for row in e.values)
        return head(e, params, utterance_ids)

    monkeypatch.setattr(context, "predict_emotion", spy)
    classify_dialogue(seq, speakers, [f"u{i}" for i in range(seq.shape[0])], p)
    return seen


def test_zero_params_give_zero_states(monkeypatch):
    p = params()
    for t in p.tensors():
        t.values[:] = 0.0
    seq = fused(Rng(5), 3)
    states = joined_states(monkeypatch, seq, ["a", "a", "b"], p)
    assert len(states) == 3
    for e in states:
        assert e.shape == (1, 6)
        assert np.all(e.values == 0.0)


def test_single_utterance_dialogue(monkeypatch):
    p = params()
    seq = fused(Rng(6), 1)
    states = joined_states(monkeypatch, seq, ["a"], p)
    assert len(states) == 1 and states[0].shape == (1, 6)


def test_matches_composed_lstm_oracle(monkeypatch):
    p = params(seed=7)
    seq = fused(Rng(8), 4)
    states = joined_states(monkeypatch, seq, ["a", "b", "a", "a"], p)

    d_states = bilstm_forward(p.dialogue_lstm, seq).values
    for turns in ([0, 2, 3], [1]):
        s_states = bilstm_forward(p.speaker_lstm, T.Tensor(seq.values[turns])).values
        for l, i in enumerate(turns):
            want = np.hstack([s_states[l:l + 1], d_states[i:i + 1]])
            assert np.allclose(states[i].values, want, atol=1e-10)


def test_width_is_sum_of_branch_widths(monkeypatch):
    p = params(state=5)
    seq = fused(Rng(9), 2)
    assert joined_states(monkeypatch, seq, ["a", "a"], p)[0].shape == (1, 10)


def test_empty_sequences_rejected():
    with pytest.raises(ContractError):
        classify_dialogue(T.Tensor(np.zeros((0, 4))), [], [], params())


# ---------------------------------------------------------------------------
# prediction head

def test_zero_head_uniform_distribution():
    p = params(c=4)
    p.head_w.values[:] = 0.0
    p.head_b.values[:] = 0.0
    e = T.Tensor(Rng(10).uniform_array((1, 6), -1.0, 1.0))
    pred = predict_emotion(e, p)[0]
    assert np.allclose(pred.probs.values, 0.25, atol=1e-12)
    assert pred.label == 0  # tie broken toward lowest index


def test_known_logits_probabilities():
    p = params(c=2, state=1)
    # e = [1, 0]; head maps to logits (ln 3, 0)
    p.head_w.values[:] = np.array([[math.log(3.0), 0.0], [0.0, 0.0]])
    p.head_b.values[:] = 0.0
    e = T.Tensor([[1.0, 0.0]])
    pred = predict_emotion(e, p)[0]
    assert np.allclose(pred.probs.values[0], [0.75, 0.25], atol=1e-12)
    assert pred.label == 0


def test_argmax_invariant_to_logit_shift():
    p = params(c=3)
    e = T.Tensor(Rng(11).uniform_array((1, 6), -1.0, 1.0))
    base = predict_emotion(e, p).labels
    p.head_b.values[:] += 5.0
    assert predict_emotion(e, p).labels == base


# ---------------------------------------------------------------------------
# whole-dialogue classification

def test_classify_covers_every_utterance_in_order():
    p = params(seed=12)
    seq = fused(Rng(13), 4)
    preds = classify_dialogue(seq, ["a", "b", "a", "b"], ["u0", "u1", "u2", "u3"], p)
    assert [x.utterance_id for x in preds] == ["u0", "u1", "u2", "u3"]
    for x in preds:
        assert abs(x.probs.values.sum() - 1.0) < 1e-9


def test_relabeling_other_speakers_preserves_predictions():
    p = params(seed=14)
    seq = fused(Rng(15), 5)
    ids = ["u%d" % i for i in range(5)]
    base = classify_dialogue(seq, ["s", "x", "s", "y", "s"], ids, p)
    relabeled = classify_dialogue(seq, ["s", "q", "s", "q", "s"], ids, p)
    for i in (0, 2, 4):
        assert np.array_equal(base[i].probs.values, relabeled[i].probs.values)


def test_dialogue_only_mode_ignores_speaker_structure():
    p = params(seed=16)
    seq = fused(Rng(17), 3)
    ids = ["u0", "u1", "u2"]
    a = classify_dialogue(seq, ["a", "b", "a"], ids, p, eval_mode="dialogue")
    b = classify_dialogue(seq, ["a", "a", "b"], ids, p, eval_mode="dialogue")
    for x, y in zip(a, b):
        assert np.array_equal(x.probs.values, y.probs.values)


def test_classify_validates():
    p = params()
    seq = fused(Rng(18), 2)
    with pytest.raises(ContractError):
        classify_dialogue(seq, ["a"], ["u0", "u1"], p)
    with pytest.raises(ContractError):
        classify_dialogue(seq, ["a", "a"], ["u0", "u1"], p, eval_mode="nope")


def test_gradient_through_context_classifier():
    p = params(seed=19, state=2)
    seq = fused(Rng(20), 2)
    x = T.Tensor(seq.values[:1].copy(), requires_grad=True)

    def f(t):
        preds = classify_dialogue(T.concat([t, T.slice_rows(seq, 1, 2)], 0),
                                  ["a", "b"], ["u0", "u1"], p)
        return T.pick(preds[0].probs, 0, 1)

    assert T.finite_diff_check(f, x, step=1e-5) < 1e-4


# ---------------------------------------------------------------------------
# explanation queries

@pytest.mark.parametrize("eval_mode", ["own", "dialogue"])
@pytest.mark.parametrize("speakers", ["a", "ab", "aab", "abcab"])
def test_row_query_matches_classifying_the_swapped_dialogue(eval_mode, speakers):
    # one-utterance dialogues and speakers put the row at both ends at once;
    # k rows scored in one call equal k one-row calls and k full re-runs
    p = params(seed=21, c=4)
    seq = fused(Rng(22), len(speakers))
    ids = [f"u{i}" for i in range(len(speakers))]
    masks = Rng(23).uniform_array((3, 4), 0.0, 1.0) < 0.5
    for index in range(len(speakers)):
        query = row_query(seq, list(speakers), index, p, eval_mode)
        xs = np.where(masks, seq.values[index], 0.0)
        together = query(xs)
        assert together.shape == (len(xs), 4)
        for x, got in zip(xs, together):
            assert np.max(np.abs(query(x[None, :])[0] - got)) < 1e-14
            rows = seq.values.copy()
            rows[index] = x
            full = classify_dialogue(T.Tensor(rows), list(speakers), ids, p, eval_mode)
            assert np.max(np.abs(got - full[index].probs.values[0])) < 1e-14


def test_row_query_never_reruns_a_bilstm(monkeypatch):
    # building the query scans nothing; each call is one forward scan of
    # every direction for all k rows, as long as the longest run plus one
    p = params(seed=24)
    seq = fused(Rng(25), 6)
    scans = []
    real_scan = T.lstm_scan

    def counted(xg, wh, reverse):
        scans.append((wh.values.shape[0], xg.values.shape[:-1]))
        assert not any(reverse)
        return real_scan(xg, wh, reverse)

    monkeypatch.setattr(context, "bilstm_forward", None)
    monkeypatch.setattr(T, "lstm_scan", counted)
    query = row_query(seq, list("abaabb"), 3, p)
    assert scans == []
    # speaker "a" holds rows 0, 2, 3: two rows before row 3, none after it;
    # the dialogue has three before it and two after
    query(np.zeros((5, 4)))
    query(seq.values[3:4])
    assert scans == [(4, (5, 4)), (4, (1, 4))]
    scans.clear()
    row_query(seq, list("abaabb"), 3, p, "dialogue")(np.zeros((2, 4)))
    assert scans == [(2, (2, 4))]


def test_row_query_validates():
    p = params()
    seq = fused(Rng(26), 3)
    with pytest.raises(ContractError):
        row_query(seq, ["a", "b", "a"], 3, p)
    with pytest.raises(ContractError):
        row_query(seq, ["a", "b"], 0, p)
    with pytest.raises(ContractError):
        row_query(seq, ["a", "b", "a"], 0, p, eval_mode="nope")
    query = row_query(seq, ["a", "b", "a"], 1, p)
    with pytest.raises(ContractError, match="finite"):
        query(np.array([[0.0, np.nan, 0.0, 0.0]]))
