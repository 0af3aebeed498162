"""Conversation-level emotion classification.

Two recurrent encoders read the fused utterance descriptors: one over
the whole dialogue in order, one over the subsequence spoken by a single
speaker. Each speaker utterance is represented by the concatenation of
its speaker-branch state and its dialogue-branch state, then classified
by a linear softmax head that takes every utterance of the dialogue in
one matmul.

An explanation asks for one utterance's probability with that
utterance's descriptor replaced, many times over (`row_query`). Only
that row's state is read, so every branch direction is laid out to end
at the row, and a batch of replacement rows is one forward scan of all
directions at once, read at its last step.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .encoders import BiLstmParams, bilstm_forward, init_bilstm
from .errors import ContractError
from .rng import Rng


@dataclass
class ContextConfig:
    input_dim: int
    num_classes: int
    state_dim: int = 8
    lstm_hidden: int = 8

    def __post_init__(self):
        for name in ("input_dim", "num_classes", "state_dim", "lstm_hidden"):
            if getattr(self, name) < 1:
                raise ContractError(f"ContextConfig.{name} must be positive")


@dataclass
class ContextParams:
    dialogue_lstm: BiLstmParams
    speaker_lstm: BiLstmParams
    head_w: T.Tensor
    head_b: T.Tensor

    def tensors(self):
        return (self.dialogue_lstm.tensors() + self.speaker_lstm.tensors() +
                [self.head_w, self.head_b])


def init_context(config: ContextConfig, rng: Rng) -> ContextParams:
    return ContextParams(
        dialogue_lstm=init_bilstm(config.input_dim, config.lstm_hidden,
                                  config.state_dim, rng),
        speaker_lstm=init_bilstm(config.input_dim, config.lstm_hidden,
                                 config.state_dim, rng),
        head_w=T.init_xavier((2 * config.state_dim, config.num_classes), rng),
        head_b=T.Tensor(np.zeros((1, config.num_classes)), requires_grad=True),
    )


@dataclass
class EmotionPrediction:
    utterance_id: str
    probs: T.Tensor  # 1 x num_classes
    label: int


class DialoguePredictions(Sequence):
    """Predictions for every utterance of a dialogue. ``probs`` holds one
    row per utterance; item i is utterance i's EmotionPrediction, its
    probability row sliced on access."""

    def __init__(self, utterance_ids, probs: T.Tensor, labels):
        self.utterance_ids = list(utterance_ids)
        self.probs = probs
        self.labels = labels

    def __len__(self):
        return len(self.labels)

    def __getitem__(self, i):
        if not 0 <= i < len(self):
            raise IndexError(i)
        return EmotionPrediction(self.utterance_ids[i], T.slice_rows(self.probs, i, i + 1),
                                 self.labels[i])


def predict_emotion(e: T.Tensor, params: ContextParams,
                    utterance_ids=None) -> DialoguePredictions:
    """Linear softmax head over joined context states, one per row; ties
    go to the lowest class index."""
    probs = T.softmax_rows(T.affine(e, params.head_w, params.head_b))
    labels = [int(c) for c in np.argmax(probs.values, axis=1)]
    ids = ["?"] * len(labels) if utterance_ids is None else utterance_ids
    return DialoguePredictions(ids, probs, labels)


def classify_dialogue(fused_seq: T.Tensor, speaker_ids, utt_ids, params: ContextParams,
                      eval_mode: str = "own") -> DialoguePredictions:
    """Predict every utterance of one dialogue, in order, from its n x D
    fused descriptors.

    eval_mode "own": each utterance pairs the dialogue state with its own
    speaker's branch state. eval_mode "dialogue": the speaker slot is a
    zero placeholder everywhere, so only dialogue context is used.
    """
    if eval_mode not in ("own", "dialogue"):
        raise ContractError(f"classify_dialogue: unknown eval_mode {eval_mode!r}")
    n = fused_seq.values.shape[0]
    if n == 0:
        raise ContractError("classify_dialogue: empty dialogue")
    if not (n == len(speaker_ids) == len(utt_ids)):
        raise ContractError("classify_dialogue: sequence length mismatch")
    d_states = bilstm_forward(params.dialogue_lstm, fused_seq)
    if eval_mode == "own":
        order, branches = [], []
        for speaker in dict.fromkeys(speaker_ids):  # first-appearance order
            index_map = [i for i, s in enumerate(speaker_ids) if s == speaker]
            branches.append(bilstm_forward(params.speaker_lstm,
                                           T.take_rows(fused_seq, index_map)))
            order.extend(index_map)
        stacked = branches[0] if len(branches) == 1 else T.concat(branches, 0)
        s_states = T.take_rows(stacked, np.argsort(order))  # back to dialogue order
    else:
        s_states = T.Tensor(np.zeros(d_states.values.shape))
    return predict_emotion(T.concat([s_states, d_states], -1), params, utt_ids)


def row_query(fused_seq: T.Tensor, speaker_ids, index: int, params: ContextParams,
              eval_mode: str = "own"):
    """``probs(x)``: the class probabilities `classify_dialogue` gives
    utterance ``index`` when its fused row is replaced by a row of the
    k x D array ``x``, as k x num_classes, one row per row of ``x``.

    Every direction of the dialogue branch and (eval_mode "own") the
    row's speaker branch reads the row last: a forward direction after
    the branch's rows before it, a backward one after the rows after it
    in reverse. So each call is one forward scan of all directions for
    all k rows, and the head reads its last step. The scan is as long as
    the longest of these runs plus one; a shorter run starts after zero
    gate rows, which hold the zero start state at exactly zero.
    """
    if eval_mode not in ("own", "dialogue"):
        raise ContractError(f"row_query: unknown eval_mode {eval_mode!r}")
    if fused_seq.values.shape[0] != len(speaker_ids) or \
            not 0 <= index < len(speaker_ids):
        raise ContractError("row_query: need one speaker id per row and a row index")
    branches = [(params.dialogue_lstm, range(len(speaker_ids)))]  # (lstm, its rows)
    if eval_mode == "own":
        branches.insert(0, (params.speaker_lstm, [i for i, s in enumerate(speaker_ids)
                                                  if s == speaker_ids[index]]))
    # the branches' directions side by side
    lstms = [lstm for lstm, _ in branches]
    wx = T.concat([lstm.wx for lstm in lstms], -1)
    b = T.concat([lstm.b for lstm in lstms], -1)
    wh = T.concat([lstm.wh for lstm in lstms], 0)
    ins, outs = lstms[0].proj_w.values.shape

    # every direction's run of neighbours, aligned to end just before the row
    runs = [run for _, rows in branches for pos in [rows.index(index)]
            for run in (rows[:pos], rows[:pos:-1])]
    gates, width = T.affine(fused_seq, wx, b).values, wh.values.shape[-1]
    steps = max(map(len, runs))
    lead = np.zeros((steps, len(runs) * width))
    for d, run in enumerate(runs):
        cols = slice(d * width, (d + 1) * width)
        lead[steps - len(run):, cols] = gates[run, cols]

    def probs(x) -> np.ndarray:
        rows = T.Tensor(np.reshape(x, (-1, 1, wx.values.shape[0])))  # rejects a non-finite row
        size = rows.values.shape[0]
        xg = np.concatenate([np.broadcast_to(lead, (size,) + lead.shape),
                             T.affine(rows, wx, b).values], axis=1)
        states = T.Tensor(T.lstm_scan(T.Tensor(xg), wh, [False] * len(runs)).values[:, -1:])
        parts = [T.affine(T.slice_cols(states, i * ins, (i + 1) * ins), lstm.proj_w,
                          lstm.proj_b) for i, lstm in enumerate(lstms)]
        if len(lstms) == 1:  # eval_mode "dialogue": the speaker slot is zero
            parts.insert(0, T.Tensor(np.zeros((size, 1, outs))))
        joined = T.concat(parts, -1)
        return T.softmax_rows(T.affine(joined, params.head_w, params.head_b)).values[:, 0]

    return probs
