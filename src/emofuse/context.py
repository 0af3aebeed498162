"""Conversation-level emotion classification.

Two recurrent encoders read the fused utterance descriptors: one over
the whole dialogue in order, one over the subsequence spoken by a single
speaker. Each speaker utterance is represented by the concatenation of
its speaker-branch state and its dialogue-branch state, then classified
by a linear softmax head.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .encoders import BiLstmParams, bilstm_forward, init_bilstm
from .errors import ContractError, DataError
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


def speaker_subsequence(fused_seq, speaker_ids, speaker_id: str):
    """One speaker's utterances: (dialogue positions, descriptors at them)."""
    if len(fused_seq) != len(speaker_ids):
        raise ContractError("speaker_subsequence: one speaker id per descriptor required")
    index_map = [i for i, s in enumerate(speaker_ids) if s == speaker_id]
    if not index_map:
        known = sorted(set(speaker_ids))
        raise DataError(f"unknown speaker {speaker_id!r}; dialogue has speakers {known}")
    return index_map, [fused_seq[i] for i in index_map]


def _stack(rows):
    return rows[0] if len(rows) == 1 else T.concat_rows(rows)


@dataclass
class EmotionPrediction:
    utterance_id: str
    probs: T.Tensor
    label: int


def predict_emotion(e_l: T.Tensor, params: ContextParams,
                    utterance_id: str = "?") -> EmotionPrediction:
    """Linear softmax head over one joined context state; ties go to the
    lowest class index."""
    probs = T.softmax_rows(T.add(T.matmul(e_l, params.head_w), params.head_b))
    label = int(np.argmax(probs.values[0]))
    return EmotionPrediction(utterance_id=utterance_id, probs=probs, label=label)


def classify_dialogue(fused_seq, speaker_ids, utt_ids, params: ContextParams,
                      eval_mode: str = "own"):
    """Predict every utterance of one dialogue, in order.

    eval_mode "own": each utterance pairs the dialogue state with its own
    speaker's branch state. eval_mode "dialogue": the speaker slot is a
    zero placeholder everywhere, so only dialogue context is used.
    """
    if eval_mode not in ("own", "dialogue"):
        raise ContractError(f"classify_dialogue: unknown eval_mode {eval_mode!r}")
    n = len(fused_seq)
    if n == 0:
        raise ContractError("classify_dialogue: empty dialogue")
    if not (n == len(speaker_ids) == len(utt_ids)):
        raise ContractError("classify_dialogue: sequence length mismatch")
    d_states = bilstm_forward(params.dialogue_lstm, _stack(fused_seq))
    state_dim = d_states.values.shape[1]
    joined = [None] * n
    if eval_mode == "own":
        for speaker in dict.fromkeys(speaker_ids):  # first-appearance order
            index_map, rows = speaker_subsequence(fused_seq, speaker_ids, speaker)
            s_states = bilstm_forward(params.speaker_lstm, _stack(rows))
            for l, i in enumerate(index_map):
                joined[i] = T.concat_cols([T.slice_rows(s_states, l, l + 1),
                                           T.slice_rows(d_states, i, i + 1)])
    else:
        zero = T.Tensor(np.zeros((1, state_dim)))
        for i in range(n):
            joined[i] = T.concat_cols([zero, T.slice_rows(d_states, i, i + 1)])
    return [predict_emotion(joined[i], params, utt_ids[i]) for i in range(n)]
