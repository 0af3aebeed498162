"""Cross-modal attention network: projection and injection contracts,
residual identity, head averaging, oracle equivalence, gradients."""
import numpy as np
import pytest

from emofuse import tensor as T
from emofuse.errors import ContractError
from emofuse.man import (CrossMaps, ManConfig, cross_attend_layer, init_man,
                         man_forward, peripheral_kv)
from emofuse.rng import Rng

from oracles import cross_attention_block, cross_network_oracle, matmul_loops


def ten(rng, shape, lo=-1.0, hi=1.0):
    return T.Tensor(rng.uniform_array(shape, lo, hi))


def scalar(v, rg=True):
    return T.Tensor([[v]], requires_grad=rg)


def maps_of(wk, wv, sc=1.0, bi=0.0):
    return CrossMaps(wk=T.Tensor(wk, requires_grad=True),
                     wv=T.Tensor(wv, requires_grad=True),
                     score_scale=scalar(sc), score_bias=scalar(bi))


# ---------------------------------------------------------------------------
# peripheral projections

def test_kv_identity_padded_selects_columns():
    f = ten(Rng(1), (3, 4))
    w = np.zeros((4, 2))
    w[0, 0] = w[1, 1] = 1.0
    k, v = peripheral_kv(f, maps_of(w, w))
    assert np.allclose(k.values, f.values[:, :2], atol=1e-15)


def test_kv_zero_weights():
    f = ten(Rng(2), (3, 4))
    k, v = peripheral_kv(f, maps_of(np.zeros((4, 2)), np.zeros((4, 2))))
    assert np.all(k.values == 0.0) and np.all(v.values == 0.0)


def test_kv_matches_matmul_oracle():
    rng = Rng(3)
    f = ten(rng, (3, 4))
    wk = rng.uniform_array((4, 2), -1.0, 1.0)
    wv = rng.uniform_array((4, 2), -1.0, 1.0)
    k, v = peripheral_kv(f, maps_of(wk, wv))
    assert np.allclose(k.values, matmul_loops(f.values.tolist(), wk.tolist()), atol=1e-12)
    assert np.allclose(v.values, matmul_loops(f.values.tolist(), wv.tolist()), atol=1e-12)


# ---------------------------------------------------------------------------
# one injection layer

def test_zero_values_residual_identity_bitwise():
    rng = Rng(4)
    g = ten(rng, (3, 2))
    k = ten(rng, (4, 2))
    v = T.Tensor(np.zeros((4, 2)))
    out = cross_attend_layer(g, [(k, v)], [(scalar(1.3), scalar(0.2))], num_modes=3)
    assert np.array_equal(out.values, g.values)


def test_single_position_peripheral_broadcasts_value():
    rng = Rng(5)
    g = ten(rng, (3, 2))
    k = ten(rng, (1, 2))
    v = ten(rng, (1, 2))
    out = cross_attend_layer(g, [(k, v)], [(scalar(2.0), scalar(-1.0))], num_modes=3)
    want = g.values + v.values / 3.0
    assert np.allclose(out.values, want, atol=1e-12)


def test_layer_matches_direct_formula():
    rng = Rng(6)
    g = ten(rng, (2, 2))
    f_mi = ten(rng, (3, 2))
    wk = rng.uniform_array((2, 2), -1.0, 1.0)
    wv = rng.uniform_array((2, 2), -1.0, 1.0)
    m = maps_of(wk, wv, sc=0.7, bi=0.3)
    k, v = peripheral_kv(f_mi, m)
    out = cross_attend_layer(g, [(k, v)], [(m.score_scale, m.score_bias)], num_modes=2)
    want = g.values + cross_attention_block(g.values, f_mi.values, wk, wv, 0.7, 0.3, 2) / 2.0
    assert np.allclose(out.values, want, atol=1e-10)


def test_empty_peripheral_set_rejected():
    g = ten(Rng(7), (2, 2))
    with pytest.raises(ContractError):
        cross_attend_layer(g, [], [], num_modes=3)


# ---------------------------------------------------------------------------
# full network

def setup_model(heads=2, layers=2, d=3, seed=30, num_classes=4):
    config = ManConfig(num_classes=num_classes, layers=layers, heads=heads,
                       descriptor_dim=d)
    dims = {"text": 4, "video": 5, "audio": 3}
    params = init_man(config, dims, Rng(seed))
    rng = Rng(seed + 1)
    encoded = {"text": ten(rng, (3, 4)), "video": ten(rng, (4, 5)),
               "audio": ten(rng, (2, 3))}
    return config, params, encoded


def as_oracle_args(p, encoded):
    dense = [(w.values, b.values) for w, b in p.dense]
    cross = {key: (m.wk.values, m.wv.values, m.score_scale.values, m.score_bias.values)
             for key, m in p.cross.items()}
    enc = {k: t.values for k, t in encoded.items()}
    return enc, dense, cross, p.cls_w.values, p.cls_b.values


def test_forward_matches_straight_line_oracle():
    config, params, encoded = setup_model(heads=2, layers=2)
    out = man_forward(encoded, params)
    for mode in ("text", "video", "audio"):
        p = params[mode]
        enc, dense, cross, cw, cb = as_oracle_args(p, encoded)
        pooled, probs = cross_network_oracle(mode, enc, dense, cross, cw, cb,
                                             p.peripherals, 3, config.heads)
        assert np.allclose(out[mode].f_ca.values[0], pooled, atol=1e-9)
        assert np.allclose(out[mode].probs.values[0], probs, atol=1e-9)


def test_probs_rows_sum_to_one():
    _, params, encoded = setup_model()
    out = man_forward(encoded, params)
    for d in out.values():
        assert d.probs.values.min() >= 0.0
        assert abs(d.probs.values.sum() - 1.0) < 1e-9


def test_zero_values_gives_dense_only_network():
    config, params, encoded = setup_model(heads=1, layers=1)
    for p in params.values():
        for m in p.cross.values():
            m.wv.values[:] = 0.0
    out = man_forward(encoded, params)
    for mode, p in params.items():
        g = encoded[mode].values @ p.dense[0][0].values + p.dense[0][1].values
        pooled = g.mean(axis=0)
        assert np.allclose(out[mode].f_ca.values[0], pooled, atol=1e-12)


def test_residual_identity_all_layers_via_trace():
    _, params, encoded = setup_model(heads=2, layers=3)
    for p in params.values():
        for m in p.cross.values():
            m.wv.values[:] = 0.0
    trace = []
    man_forward(encoded, params, trace=trace)
    assert len(trace) == 3 * 3 * 2  # modes x layers x heads
    for _, _, _, dense_out, after in trace:
        assert np.array_equal(dense_out.values, after.values)


def test_peripheral_order_irrelevant():
    _, params, encoded = setup_model()
    out1 = man_forward(encoded, params)
    for p in params.values():
        p.peripherals = tuple(reversed(p.peripherals))
    out2 = man_forward(encoded, params)
    for mode in params:
        assert np.array_equal(out1[mode].f_ca.values, out2[mode].f_ca.values)


def test_identical_heads_equal_single_head():
    config, params, encoded = setup_model(heads=2, layers=2, seed=40)
    single_config = ManConfig(num_classes=4, layers=2, heads=1, descriptor_dim=3)
    single = init_man(single_config, {"text": 4, "video": 5, "audio": 3}, Rng(40))
    for mode, p in params.items():
        s = single[mode]
        for i, (w, b) in enumerate(p.dense):
            s.dense[i][0].values[:] = w.values
            s.dense[i][1].values[:] = b.values
        s.cls_w.values[:] = p.cls_w.values
        s.cls_b.values[:] = p.cls_b.values
        for (layer, mi, head), m in p.cross.items():
            src = p.cross[(layer, mi, 0)]
            m.wk.values[:] = src.wk.values
            m.wv.values[:] = src.wv.values
            m.score_scale.values[:] = src.score_scale.values
            m.score_bias.values[:] = src.score_bias.values
            if head == 0:
                t = s.cross[(layer, mi, 0)]
                t.wk.values[:] = src.wk.values
                t.wv.values[:] = src.wv.values
                t.score_scale.values[:] = src.score_scale.values
                t.score_bias.values[:] = src.score_bias.values
    out2 = man_forward(encoded, params)
    out1 = man_forward(encoded, single)
    for mode in params:
        assert np.array_equal(out2[mode].f_ca.values, out1[mode].f_ca.values)


def test_two_mode_configuration_works():
    config = ManConfig(num_classes=3, layers=1, heads=1, descriptor_dim=2)
    params = init_man(config, {"text": 3, "audio": 2}, Rng(50))
    rng = Rng(51)
    encoded = {"text": ten(rng, (2, 3)), "audio": ten(rng, (2, 2))}
    out = man_forward(encoded, params)
    assert set(out) == {"text", "audio"}
    p = params["text"]
    enc, dense, cross, cw, cb = as_oracle_args(p, encoded)
    pooled, _ = cross_network_oracle("text", enc, dense, cross, cw, cb,
                                     p.peripherals, 2, 1)
    assert np.allclose(out["text"].f_ca.values[0], pooled, atol=1e-9)


def test_single_mode_rejected():
    with pytest.raises(ContractError):
        init_man(ManConfig(num_classes=3), {"text": 4}, Rng(60))
    with pytest.raises(ContractError):
        man_forward({"text": ten(Rng(61), (2, 2))}, {"text": None})


def test_missing_encoder_output_rejected():
    _, params, encoded = setup_model()
    del encoded["audio"]
    with pytest.raises(ContractError, match="audio"):
        man_forward(encoded, params)


def test_gradients_pass_finite_diff():
    config, params, encoded = setup_model(heads=1, layers=2, seed=70)
    probe = ten(Rng(71), (1, 3))
    x0 = T.Tensor(encoded["text"].values.copy(), requires_grad=True)

    def head_input(t):
        enc = dict(encoded)
        enc["text"] = t
        out = man_forward(enc, params)
        s = None
        for mode in out:
            term = T.sum_all(T.mul(out[mode].f_ca, probe))
            s = term if s is None else T.add(s, term)
        return s

    assert T.finite_diff_check(head_input, x0, step=1e-5) < 1e-4

    wv = params["video"].cross[(1, "text", 0)].wv

    def head_param(t):
        out = man_forward(encoded, params)
        return T.sum_all(T.mul(out["video"].f_ca, probe))

    assert T.finite_diff_check(head_param, wv, step=1e-5) < 1e-4


def test_tensor_collection_is_stable():
    _, params, _ = setup_model()
    a = [id(t) for mode in params for t in params[mode].tensors()]
    b = [id(t) for mode in params for t in params[mode].tensors()]
    assert a == b and len(a) > 0


def test_records_per_call_do_not_grow_with_heads_or_modes():
    # the query networks run as one stack: the tape count is fixed by the
    # layer count; a mode adds only its two output rows (f_ca and probs)
    def records(heads, dims):
        params = init_man(ManConfig(num_classes=3, layers=2, heads=heads, descriptor_dim=3),
                          dims, Rng(80))
        rng = Rng(81)
        encoded = {m: T.Tensor(rng.uniform_array((2, 3, w), -1.0, 1.0), requires_grad=True)
                   for m, w in dims.items()}
        tape = T.Tape()
        with T.recording(tape):
            man_forward(encoded, params)
        return len(tape)

    two = {"text": 4, "audio": 3}
    three = {"text": 4, "video": 5, "audio": 3}
    four = dict(three, extra=2)
    assert records(1, three) == records(2, three) == records(4, three)
    assert records(2, three) - records(2, two) == records(2, four) - records(2, three) == 2


def test_batch_equals_members_alone_with_mixed_widths_and_lengths():
    # modes of different widths and lengths, utterances of different
    # lengths: zero padding on either axis never reaches a real row
    config = ManConfig(num_classes=4, layers=2, heads=2, descriptor_dim=3)
    dims = {"text": 4, "video": 6, "audio": 2}
    params = init_man(config, dims, Rng(82))
    rng = Rng(83)
    lengths = {"text": [3, 1, 2], "video": [2, 4, 1], "audio": [5, 2, 3]}
    members = [{m: rng.uniform_array((lengths[m][b], w), -1.0, 1.0) for m, w in dims.items()}
               for b in range(3)]
    encoded, masks = {}, {}
    for m, w in dims.items():
        rows = np.zeros((3, max(lengths[m]), w))
        for b, member in enumerate(members):
            rows[b, :lengths[m][b]] = member[m]
        encoded[m] = T.Tensor(rows)
        masks[m] = np.arange(rows.shape[1])[None, :] < np.array(lengths[m])[:, None]
    out = man_forward(encoded, params, masks=masks)
    for b, member in enumerate(members):
        alone = man_forward({m: T.Tensor(x) for m, x in member.items()}, params)
        for m in dims:
            for field in ("f_ca", "probs"):
                assert np.allclose(getattr(out[m], field).values[b],
                                   getattr(alone[m], field).values[0], atol=1e-12, rtol=0)
