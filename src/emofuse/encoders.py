"""Per-mode sequence encoders.

Each mode's raw feature rows pass through a bidirectional LSTM, a stack
of self-attention refinement layers, and mean pooling over rows. Video
arrives as two parallel streams (face and background); each stream gets
its own LSTM parameters and the row-concatenated pair feeds one shared
attention stack, so face rows can attend to background rows.

Each LSTM direction is one fused ``tensor.lstm_scan`` record and each
attention layer one ``tensor.attend`` record, so the tape grows by a
fixed count per call whatever the sequence length. The context
classifier reuses ``bilstm_forward`` for its speaker and dialogue
branches.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ContractError, DataError, ShapeError
from .rng import Rng

MODES = ("text", "video", "audio")

# feature streams each mode consumes, in processing order
MODE_STREAMS = {
    "text": ("text",),
    "video": ("video_face", "video_back"),
    "audio": ("audio",),
}


@dataclass
class EncoderConfig:
    text_in: int
    video_in: int
    audio_in: int
    out: int = 8
    lstm_hidden: int = 8
    attention_layers: int = 2

    def __post_init__(self):
        for name in ("text_in", "video_in", "audio_in", "out", "lstm_hidden",
                     "attention_layers"):
            if getattr(self, name) < 1:
                raise ContractError(f"EncoderConfig.{name} must be positive")

    def in_dim(self, mode: str) -> int:
        return {"text": self.text_in, "video": self.video_in, "audio": self.audio_in}[mode]


@dataclass
class BiLstmParams:
    """One bidirectional LSTM plus the output projection.

    Gate blocks along the weight columns are ordered input, forget,
    candidate, output. Hidden states start at zero.
    """
    wx_f: T.Tensor
    wh_f: T.Tensor
    b_f: T.Tensor
    wx_b: T.Tensor
    wh_b: T.Tensor
    b_b: T.Tensor
    proj_w: T.Tensor
    proj_b: T.Tensor

    def tensors(self):
        return [self.wx_f, self.wh_f, self.b_f, self.wx_b, self.wh_b, self.b_b,
                self.proj_w, self.proj_b]


def init_bilstm(din: int, hidden: int, dout: int, rng: Rng) -> BiLstmParams:
    def zeros(shape):
        return T.Tensor(np.zeros(shape), requires_grad=True)

    return BiLstmParams(
        wx_f=T.init_xavier((din, 4 * hidden), rng),
        wh_f=T.init_xavier((hidden, 4 * hidden), rng),
        b_f=zeros((1, 4 * hidden)),
        wx_b=T.init_xavier((din, 4 * hidden), rng),
        wh_b=T.init_xavier((hidden, 4 * hidden), rng),
        b_b=zeros((1, 4 * hidden)),
        proj_w=T.init_xavier((2 * hidden, dout), rng),
        proj_b=zeros((1, dout)),
    )


def bilstm_forward(params: BiLstmParams, seq: T.Tensor) -> T.Tensor:
    """len x din sequence -> len x dout, both directions concatenated then projected."""
    if seq.values.ndim != 2 or seq.values.shape[0] < 1:
        raise ShapeError(f"bilstm_forward: need a nonempty matrix, got shape {seq.shape}")
    if seq.values.shape[1] != params.wx_f.values.shape[0]:
        raise ShapeError(
            f"bilstm_forward: input width {seq.values.shape[1]} does not match "
            f"parameter width {params.wx_f.values.shape[0]}")
    n = seq.values.shape[0]
    xg_f = T.add(T.matmul(seq, params.wx_f), params.b_f)
    xg_b = T.add(T.matmul(seq, params.wx_b), params.b_b)
    both = T.concat_cols([T.lstm_scan(xg_f, params.wh_f, range(n)),
                          T.lstm_scan(xg_b, params.wh_b, range(n - 1, -1, -1))])
    return T.add(T.matmul(both, params.proj_w), params.proj_b)


@dataclass
class AttentionStackParams:
    """M refinement layers, each a learnable square map plus bias."""
    layers: list = field(default_factory=list)  # [(weight d x d, bias 1 x d)]

    def tensors(self):
        out = []
        for w, b in self.layers:
            out.append(w)
            out.append(b)
        return out


def init_attention_stack(d: int, m_layers: int, rng: Rng) -> AttentionStackParams:
    layers = []
    for _ in range(m_layers):
        layers.append((T.init_xavier((d, d), rng),
                       T.Tensor(np.zeros((1, d)), requires_grad=True)))
    return AttentionStackParams(layers=layers)


def self_attention_stack(params: AttentionStackParams, w0: T.Tensor) -> T.Tensor:
    """Apply the refinement recurrence once per layer.

    Each layer mixes rows by softmax(w w^T / sqrt(d)) then maps the
    mixture through the layer's affine transform. Output shape equals
    input shape.
    """
    if len(params.layers) < 1:
        raise ContractError("self_attention_stack: need at least one layer")
    w = w0
    inv = 1.0 / math.sqrt(w0.values.shape[1])
    for lw, lb in params.layers:
        w = T.add(T.matmul(T.attend(w, w, w, inv), lw), lb)
    return w


@dataclass
class ModeEncoderParams:
    mode: str
    lstms: dict
    attention: AttentionStackParams

    def tensors(self):
        out = []
        for key in sorted(self.lstms):
            out.extend(self.lstms[key].tensors())
        out.extend(self.attention.tensors())
        return out


def init_encoders(config: EncoderConfig, rng: Rng) -> dict:
    """Build parameters for all modes, in canonical mode order."""
    encoders = {}
    for mode in MODES:
        din = config.in_dim(mode)
        if mode == "video":
            lstms = {"face": init_bilstm(din, config.lstm_hidden, config.out, rng),
                     "back": init_bilstm(din, config.lstm_hidden, config.out, rng)}
        else:
            lstms = {"main": init_bilstm(din, config.lstm_hidden, config.out, rng)}
        attention = init_attention_stack(config.out, config.attention_layers, rng)
        encoders[mode] = ModeEncoderParams(mode=mode, lstms=lstms, attention=attention)
    return encoders


def encode_mode(params: ModeEncoderParams, features: dict, utt_id: str = "?"):
    """Encode one utterance's streams for this mode.

    Returns (full matrix, pooled 1 x d row). ``features`` maps stream
    name to a Tensor of raw feature rows.
    """
    for stream in MODE_STREAMS[params.mode]:
        if stream not in features:
            raise DataError(f"utterance {utt_id}: missing {stream} stream")
    if params.mode == "video":
        face, back = features["video_face"], features["video_back"]
        if face.values.shape[0] != back.values.shape[0]:
            raise ContractError(
                f"utterance {utt_id}: video streams disagree on length "
                f"({face.values.shape[0]} vs {back.values.shape[0]})")
        h = T.concat_rows([bilstm_forward(params.lstms["face"], face),
                           bilstm_forward(params.lstms["back"], back)])
    else:
        stream = MODE_STREAMS[params.mode][0]
        h = bilstm_forward(params.lstms["main"], features[stream])
    full = self_attention_stack(params.attention, h)
    return full, T.mean_rows(full)
