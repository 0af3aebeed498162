"""Encoder stack: LSTM against a step oracle, attention stack against the
dense-formula oracle, shape and pooling contracts, gradient checks."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emofuse import tensor as T
from emofuse.encoders import (AttentionStackParams, EncoderConfig, MODES,
                              bilstm_forward, encode_mode, init_bilstm,
                              init_encoders, pad_streams, self_attention_stack)
from emofuse.errors import ContractError, DataError, ShapeError
from emofuse.rng import Rng

from oracles import attention_layer, lstm_step, matmul_loops


def zero_params(params):
    for t in params.tensors():
        t.values[:] = 0.0
    return params


def seq_t(rng, n, d):
    return T.Tensor(rng.uniform_array((n, d), -1.0, 1.0))


# ---------------------------------------------------------------------------
# Bi-LSTM

def test_bilstm_zero_params_zero_output():
    p = zero_params(init_bilstm(3, 2, 4, Rng(1)))
    out = bilstm_forward(p, seq_t(Rng(2), 5, 3))
    assert out.shape == (5, 4)
    assert np.all(out.values == 0.0)


def test_bilstm_len1_shape():
    p = init_bilstm(3, 2, 4, Rng(3))
    out = bilstm_forward(p, seq_t(Rng(4), 1, 3))
    assert out.shape == (1, 4)


def test_bilstm_matches_step_oracle():
    din, H, dout, n = 2, 2, 2, 3
    p = init_bilstm(din, H, dout, Rng(5))
    x = Rng(6).uniform_array((n, din), -1.0, 1.0)
    got = bilstm_forward(p, T.Tensor(x)).values

    def direction(d, order):
        # direction d's gate columns of wx and b, and its recurrent weight
        cols = slice(d * 4 * H, (d + 1) * 4 * H)
        wx, wh, b = p.wx.values[:, cols], p.wh.values[d], p.b.values[0, cols]
        h, c = [0.0] * H, [0.0] * H
        states = [None] * n
        for t in order:
            h, c = lstm_step(list(x[t]), h, c, wx, wh, b, H)
            states[t] = h
        return states

    fwd = direction(0, range(n))
    bwd = direction(1, range(n - 1, -1, -1))
    concat = np.array([fwd[t] + bwd[t] for t in range(n)])
    want = matmul_loops(concat.tolist(), p.proj_w.values.tolist()) + p.proj_b.values
    assert np.allclose(got, want, atol=1e-10)


def test_bilstm_stores_each_direction_as_drawn():
    # the forward then the backward direction's input and recurrent weights
    # are successive Xavier draws, then the projection; biases start at zero
    din, H, dout = 3, 2, 4
    p = init_bilstm(din, H, dout, Rng(11))
    rng = Rng(11)
    for block in (p.wx.values[:, :4 * H], p.wh.values[0],
                  p.wx.values[:, 4 * H:], p.wh.values[1], p.proj_w.values):
        assert np.array_equal(block, T.init_xavier(block.shape, rng).values)
    assert p.wx.shape == (din, 8 * H) and p.wh.shape == (2, H, 4 * H)
    assert np.all(p.b.values == 0.0) and p.b.shape == (1, 8 * H)
    assert all(t.requires_grad for t in p.tensors())


def test_bilstm_forward_is_three_records():
    # input affine, one two-direction scan, output affine
    p = init_bilstm(3, 2, 4, Rng(12))
    tape = T.Tape()
    with T.recording(tape):
        bilstm_forward(p, seq_t(Rng(13), 5, 3))
    assert len(tape) == 3


def ragged_batch(rng, lengths, din):
    """A batch padded on the right with zero rows, as `pad_streams` builds
    it, and its mask of the real rows."""
    mask = np.arange(max(lengths)) < np.array(lengths)[:, None]
    return T.Tensor(rng.uniform_array(mask.shape + (din,), -1.0, 1.0) * mask[..., None]), mask


def test_bilstm_ragged_batch_equals_rows_alone():
    # the mask is one more record; each row's real steps are its scan alone
    # (to roundoff: BLAS may sum a batch of three and of one differently)
    p = init_bilstm(3, 2, 4, Rng(30))
    p.b.values[:] = Rng(31).uniform_array(p.b.shape, -0.5, 0.5)
    seq, mask = ragged_batch(Rng(32), [5, 1, 3], 3)
    tape = T.Tape()
    with T.recording(tape):
        out = bilstm_forward(p, seq, mask)
    assert len(tape) == 4
    for b, m in enumerate([5, 1, 3]):
        alone = bilstm_forward(p, T.Tensor(seq.values[b, :m])).values
        assert np.max(np.abs(out.values[b, :m] - alone)) <= 1e-15


@pytest.mark.parametrize("probe", ["seq", "wx", "b", "wh"])
def test_grad_bilstm_ragged_batch(probe):
    # a nonzero bias reaches the padded gate rows before the mask zeroes them
    p = init_bilstm(3, 2, 4, Rng(33))
    p.b.values[:] = Rng(34).uniform_array(p.b.shape, -0.5, 0.5)
    seq, mask = ragged_batch(Rng(35), [5, 1, 3], 3)
    # every consumer ignores the padded output rows, so this readout does too
    r = T.Tensor(Rng(36).uniform_array((3, 5, 4), -1.0, 1.0) * mask[..., None])
    x = {"seq": seq, "wx": p.wx, "b": p.b, "wh": p.wh}[probe]

    def loss(_):
        return T.sum_all(T.mul(bilstm_forward(p, seq, mask), r))

    assert T.finite_diff_check(loss, x) < 1e-6
    if probe == "seq":  # padded input rows get exactly zero gradient
        seq.requires_grad = True
        tape = T.Tape()
        with T.recording(tape):
            total = loss(seq)
        T.backward(total, tape)
        assert np.all(seq.grad[~mask] == 0.0) and np.all(seq.grad[mask] != 0.0)


def test_bilstm_dim_mismatch():
    p = init_bilstm(3, 2, 4, Rng(7))
    with pytest.raises(ShapeError):
        bilstm_forward(p, seq_t(Rng(8), 4, 5))


def test_bilstm_direction_matters():
    # asymmetric sequences must not encode the same forward and reversed
    p = init_bilstm(2, 3, 4, Rng(9))
    x = Rng(10).uniform_array((4, 2), -1.0, 1.0)
    a = bilstm_forward(p, T.Tensor(x)).values
    b = bilstm_forward(p, T.Tensor(x[::-1].copy())).values
    assert not np.allclose(a, b[::-1])


# ---------------------------------------------------------------------------
# self-attention stack

def test_attention_single_row_identity_map_fixed_point():
    d = 4
    v = Rng(11).uniform_array((1, d), -1.0, 1.0)
    params = AttentionStackParams(layers=[(T.Tensor(np.eye(d), requires_grad=True),
                                           T.Tensor(np.zeros((1, d)), requires_grad=True))])
    out = self_attention_stack(params, T.Tensor(v))
    assert np.allclose(out.values, v, atol=1e-12)


def test_attention_identical_rows_stay_identical():
    d = 3
    row = Rng(12).uniform_array((1, d), -1.0, 1.0)
    w0 = T.Tensor(np.vstack([row, row]))
    params = AttentionStackParams(layers=[(T.init_xavier((d, d), Rng(13)),
                                           T.Tensor(np.zeros((1, d)), requires_grad=True))])
    out = self_attention_stack(params, w0).values
    assert np.allclose(out[0], out[1], atol=1e-12)


def test_attention_two_layers_compose_and_match_oracle():
    rng = Rng(14)
    w0 = rng.uniform_array((3, 4), -1.0, 1.0)
    l1 = (T.init_xavier((4, 4), rng), T.Tensor(rng.uniform_array((1, 4), -0.1, 0.1),
                                               requires_grad=True))
    l2 = (T.init_xavier((4, 4), rng), T.Tensor(rng.uniform_array((1, 4), -0.1, 0.1),
                                               requires_grad=True))
    both = self_attention_stack(AttentionStackParams(layers=[l1, l2]), T.Tensor(w0)).values
    step1 = self_attention_stack(AttentionStackParams(layers=[l1]), T.Tensor(w0))
    step2 = self_attention_stack(AttentionStackParams(layers=[l2]), step1).values
    assert np.allclose(both, step2, atol=1e-12)

    want = attention_layer(w0, l1[0].values, l1[1].values[0])
    want = attention_layer(want, l2[0].values, l2[1].values[0])
    assert np.allclose(both, want, atol=1e-10)


# ---------------------------------------------------------------------------
# encode_mode

def cfg():
    return EncoderConfig(text_in=5, video_in=4, audio_in=3,
                         out=6, lstm_hidden=3, attention_layers=2)


def feats(rng, p=4, n=2, e=3):
    return {
        "text": rng.uniform_array((p, 5), -1.0, 1.0),
        "video_face": rng.uniform_array((n, 4), -1.0, 1.0),
        "video_back": rng.uniform_array((n, 4), -1.0, 1.0),
        "audio": rng.uniform_array((e, 3), -1.0, 1.0),
    }


def batch_of(*utts):
    return pad_streams(list(utts), [f"u{i}" for i in range(len(utts))])


def pooled(full, mask):
    """Mean over each utterance's real rows."""
    w = mask / mask.sum(axis=1, keepdims=True)
    return (full.values * w[:, :, None]).sum(axis=1)


def test_video_attention_spans_both_streams():
    enc = init_encoders(cfg(), Rng(15))
    full, mask = encode_mode(enc["video"], batch_of(feats(Rng(16), n=1)))
    assert full.shape == (1, 2, 6)
    assert mask.tolist() == [[True, True]]


def test_zero_params_zero_pooled():
    enc = init_encoders(cfg(), Rng(17))
    for mode in MODES:
        zero_params(enc[mode])
        assert np.all(pooled(*encode_mode(enc[mode], batch_of(feats(Rng(18))))) == 0.0)


def test_pooled_equals_column_means():
    # padding never leaks: in a ragged batch each utterance's real rows are
    # the rows it gets alone, so its pooled row is their column means
    enc = init_encoders(cfg(), Rng(19))
    utts = [feats(Rng(20), p=4, n=2, e=3), feats(Rng(21), p=1, n=3, e=5),
            feats(Rng(22), p=6, n=1, e=1)]
    for mode in MODES:
        full, mask = encode_mode(enc[mode], batch_of(*utts))
        rows = pooled(full, mask)
        for b, u in enumerate(utts):
            alone, _ = encode_mode(enc[mode], batch_of(u))
            assert np.allclose(full.values[b][mask[b]], alone.values[0], atol=1e-12)
            assert np.allclose(rows[b], alone.values[0].mean(axis=0), atol=1e-12)


def test_missing_stream_names_utterance():
    f = feats(Rng(22))
    del f["video_back"]
    with pytest.raises(DataError, match="utt7.*video_back"):
        pad_streams([f], ["utt7"])


def test_video_stream_length_mismatch():
    f = feats(Rng(24))
    f["video_back"] = Rng(25).uniform_array((3, 4), -1.0, 1.0)
    with pytest.raises(ContractError):
        batch_of(f)


@given(st.integers(min_value=1, max_value=16), st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=25, deadline=None)
def test_output_dims_for_random_lengths(n, seed):
    enc = init_encoders(cfg(), Rng(26))
    batch = batch_of(feats(Rng(seed), p=n, n=n, e=n), feats(Rng(seed + 1), p=1, n=1, e=1))
    for mode, rows in (("text", n), ("video", 2 * n), ("audio", n)):
        full, mask = encode_mode(enc[mode], batch)
        assert full.shape == (2, rows, 6)
        assert mask.sum(axis=1).tolist() == [rows, rows // n]


def test_encoder_gradients_pass_finite_diff():
    config = EncoderConfig(text_in=3, video_in=3, audio_in=3,
                           out=4, lstm_hidden=2, attention_layers=1)
    enc = init_encoders(config, Rng(27))
    # two utterances of lengths 3 and 1, the second padded
    x = T.Tensor(Rng(28).uniform_array((2, 3, 3), -1.0, 1.0), requires_grad=True)
    real = np.array([[True, True, True], [True, False, False]])
    probe = T.Tensor(Rng(29).uniform_array((2, 3, 4), -1.0, 1.0))

    def head(t):
        full, mask = encode_mode(enc["text"], {"text": (t, real)})
        return T.sum_all(T.mul(T.mul(full, T.Tensor(mask[:, :, None] * 1.0)), probe))

    assert T.finite_diff_check(head, x, step=1e-5) < 1e-4
    # padded input rows get exactly zero gradient
    tape = T.Tape()
    with T.recording(tape):
        loss = head(x)
    T.backward(loss, tape)
    assert np.all(x.grad[1, 1:] == 0.0) and np.any(x.grad[0] != 0.0)

    # and through a parameter
    w = enc["text"].lstms["text"].wx

    def head_w(t):
        full, mask = encode_mode(enc["text"], {"text": (x, real)})
        return T.sum_all(T.mul(T.mul(full, T.Tensor(mask[:, :, None] * 1.0)), probe))

    assert T.finite_diff_check(head_w, w, step=1e-5) < 1e-4
