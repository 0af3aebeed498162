"""Per-mode sequence encoders.

Each mode's raw feature rows pass through a bidirectional LSTM and a
stack of self-attention refinement layers. Video arrives as two parallel
streams (face and background); each stream gets its own LSTM parameters
and the row-concatenated pair feeds one shared attention stack, so face
rows can attend to background rows.

Encoders run on a batch of utterances: every stream is zero-padded on
the right to its longest sequence in the batch (``pad_streams``), and one
boolean mask of the real rows is the only form the padding takes. A
BiLSTM zeroes its padded gate rows and steps its two directions together
in one ``tensor.lstm_scan`` record; each attention layer is one masked
``tensor.attend`` record. So the tape grows by a fixed count per batch
whatever its size and lengths. The context classifier reuses
``bilstm_forward`` on single sequences for its speaker and dialogue
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

# feature streams each mode consumes, in processing order; a mode's
# streams share one length per utterance, and each has its own BiLSTM
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
    """One bidirectional LSTM plus the output projection, stored as
    `tensor.lstm_scan` reads it: ``wx`` (din x 8H) and ``b`` (1 x 8H) hold
    the forward then the backward direction's gate columns, and ``wh``
    (2 x H x 4H) stacks the two directions' recurrent weights. Gate blocks
    are ordered input, forget, candidate, output. Hidden states start at
    zero.
    """
    wx: T.Tensor
    b: T.Tensor
    wh: T.Tensor
    proj_w: T.Tensor
    proj_b: T.Tensor

    def tensors(self):
        return [self.wx, self.b, self.wh, self.proj_w, self.proj_b]


def init_bilstm(din: int, hidden: int, dout: int, rng: Rng) -> BiLstmParams:
    """Draws each direction's input then recurrent weight, forward then
    backward, each with its own Xavier bound, then the projection."""
    wx, wh = [], []
    for _ in ("forward", "backward"):
        wx.append(T.init_xavier((din, 4 * hidden), rng).values)
        wh.append(T.init_xavier((hidden, 4 * hidden), rng).values)
    return BiLstmParams(
        wx=T.Tensor(np.concatenate(wx, axis=1), requires_grad=True),
        b=T.Tensor(np.zeros((1, 8 * hidden)), requires_grad=True),
        wh=T.Tensor(np.stack(wh), requires_grad=True),
        proj_w=T.init_xavier((2 * hidden, dout), rng),
        proj_b=T.Tensor(np.zeros((1, dout)), requires_grad=True),
    )


def bilstm_forward(params: BiLstmParams, seq: T.Tensor, mask=None) -> T.Tensor:
    """Both directions concatenated, then projected to dout columns.

    ``seq`` is one len x din sequence, or a B x L x din batch padded on
    the right, ``mask`` (B x L boolean) marking its real steps. The
    directions step together in one scan, which a padded step enters as
    a zero gate row: so no padded row of ``seq`` gets gradient. Outputs
    at padded steps are not zero; every consumer masks them.
    """
    sv = seq.values
    if sv.ndim not in (2, 3) or sv.shape[-2] < 1:
        raise ShapeError(f"bilstm_forward: need a nonempty sequence or batch, got shape {seq.shape}")
    if sv.shape[-1] != params.wx.values.shape[0]:
        raise ShapeError(
            f"bilstm_forward: input width {sv.shape[-1]} does not match "
            f"parameter width {params.wx.values.shape[0]}")
    xg = T.affine(seq, params.wx, params.b)
    if mask is not None:
        xg = T.mul(xg, T.Tensor(mask[..., None]))
    both = T.lstm_scan(xg, params.wh, (False, True))
    return T.affine(both, params.proj_w, params.proj_b)


@dataclass
class AttentionStackParams:
    """M refinement layers, each a learnable square map plus bias."""
    layers: list = field(default_factory=list)  # [(weight d x d, bias 1 x d)]

    def tensors(self):
        return [t for layer in self.layers for t in layer]


def init_attention_stack(d: int, m_layers: int, rng: Rng) -> AttentionStackParams:
    layers = []
    for _ in range(m_layers):
        layers.append((T.init_xavier((d, d), rng),
                       T.Tensor(np.zeros((1, d)), requires_grad=True)))
    return AttentionStackParams(layers=layers)


def self_attention_stack(params: AttentionStackParams, w0: T.Tensor,
                         mask=None) -> T.Tensor:
    """Apply the refinement recurrence once per layer.

    Each layer mixes rows by softmax(w w^T / sqrt(d)) then maps the
    mixture through the layer's affine transform. ``w0`` is one n x d
    matrix or a B x L x d batch whose real rows ``mask`` (B x L boolean)
    marks; padded rows are never attended to. Output shape equals input
    shape.
    """
    if len(params.layers) < 1:
        raise ContractError("self_attention_stack: need at least one layer")
    w = w0
    inv = 1.0 / math.sqrt(w0.values.shape[-1])
    keys = None if mask is None else mask[..., None, :]
    for lw, lb in params.layers:
        w = T.affine(T.attend(w, w, w, inv, mask=keys), lw, lb)
    return w


@dataclass
class ModeEncoderParams:
    mode: str
    lstms: dict  # stream of MODE_STREAMS[mode] -> BiLstmParams
    attention: AttentionStackParams

    def tensors(self):
        lstms = [t for stream in sorted(self.lstms) for t in self.lstms[stream].tensors()]
        return lstms + self.attention.tensors()


def init_encoders(config: EncoderConfig, rng: Rng) -> dict:
    """Build parameters for all modes, in canonical mode order."""
    encoders = {}
    for mode in MODES:
        lstms = {stream: init_bilstm(config.in_dim(mode), config.lstm_hidden,
                                     config.out, rng)
                 for stream in MODE_STREAMS[mode]}
        attention = init_attention_stack(config.out, config.attention_layers, rng)
        encoders[mode] = ModeEncoderParams(mode=mode, lstms=lstms, attention=attention)
    return encoders


def pad_streams(features, utt_ids) -> dict:
    """Zero-pad a batch's feature matrices, stream by stream.

    ``features`` holds one stream -> matrix dict per utterance. Returns
    stream -> (B x L x din tensor, B x L boolean mask of the real rows), L
    being that stream's longest sequence in the batch.
    """
    batch = {}
    for stream in (s for streams in MODE_STREAMS.values() for s in streams):
        mats = []
        for feats, uid in zip(features, utt_ids):
            if stream not in feats:
                raise DataError(f"utterance {uid}: missing {stream} stream")
            mats.append(feats[stream])
        lengths = np.array([m.shape[0] for m in mats])
        rows = np.zeros((len(mats), lengths.max(), mats[0].shape[1]))
        for b, m in enumerate(mats):
            rows[b, :m.shape[0]] = m
        batch[stream] = (T.Tensor(rows), np.arange(rows.shape[1]) < lengths[:, None])
    for mode, streams in MODE_STREAMS.items():
        for uid, *lens in zip(utt_ids, *(batch[s][1].sum(axis=1) for s in streams)):
            if len(set(lens)) > 1:
                raise ContractError(f"utterance {uid}: {mode} streams disagree on length "
                                    f"({' vs '.join(map(str, lens))})")
    return batch


def encode_mode(params: ModeEncoderParams, batch: dict):
    """Encode one mode for a padded batch from `pad_streams`.

    Returns (B x L x d rows, B x L boolean mask of the real rows). Video
    rows are the face rows then the background rows, each padded to the
    batch's longest video.
    """
    streams = MODE_STREAMS[params.mode]
    rows = [bilstm_forward(params.lstms[s], *batch[s]) for s in streams]
    h = rows[0] if len(rows) == 1 else T.concat(rows, 1)
    mask = np.concatenate([batch[s][1] for s in streams], axis=1)
    return self_attention_stack(params.attention, h, mask), mask
