"""Autodiff core: forward values against loop oracles, gradients against
central differences, recording semantics, and bit-level determinism."""
import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emofuse import tensor as T
from emofuse.errors import ContractError, ShapeError
from emofuse.rng import Rng

from oracles import matmul_loops, softmax_row

TOL = 1e-6


def rand_t(rng, shape, lo=-1.0, hi=1.0):
    return T.Tensor(rng.uniform_array(shape, lo, hi), requires_grad=True)


def rand_away_from_zero(rng, shape, margin=0.2):
    """Signed values with |x| >= margin, safe for kinked ops."""
    mag = rng.uniform_array(shape, margin, 1.0 + margin)
    sign = np.where(rng.uniform_array(shape, 0.0, 1.0) < 0.5, -1.0, 1.0)
    return T.Tensor(mag * sign, requires_grad=True)


# ---------------------------------------------------------------------------
# forward-value oracles

def test_matmul_matches_loop_oracle():
    rng = Rng(10)
    for _ in range(5):
        a = rng.uniform_array((4, 3), -2.0, 2.0)
        b = rng.uniform_array((3, 5), -2.0, 2.0)
        got = T.matmul(T.Tensor(a), T.Tensor(b)).values
        want = matmul_loops(a.tolist(), b.tolist())
        assert np.allclose(got, want, atol=1e-12)


def test_softmax_matches_scalar_oracle():
    rng = Rng(20)
    x = rng.uniform_array((6, 4), -3.0, 3.0)
    got = T.softmax_rows(T.Tensor(x)).values
    for i in range(6):
        want = softmax_row(list(x[i]))
        assert np.allclose(got[i], want, atol=1e-12)


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=60, deadline=None)
def test_softmax_rows_properties(r, c, seed):
    x = Rng(seed).uniform_array((r, c), -5.0, 5.0)
    y = T.softmax_rows(T.Tensor(x)).values
    assert (y > 0).all()
    assert np.allclose(y.sum(axis=1), 1.0, atol=1e-12)
    # shift invariance per row
    y2 = T.softmax_rows(T.Tensor(x + 3.7)).values
    assert np.allclose(y, y2, atol=1e-12)


def test_lstm_scan_saturated_gates_stable():
    # gate blocks input, forget, candidate, output; one hidden unit
    wh = T.Tensor(np.zeros((1, 1, 4)))
    # saturated: input 1, forget 0, candidate 1, output 1 -> c = 1, h = tanh(1)
    h = T.lstm_scan(T.Tensor([[800.0, -800.0, 800.0, 800.0]]), wh, [False]).values
    assert np.all(np.isfinite(h))
    assert h[0, 0] == pytest.approx(math.tanh(1.0), abs=1e-12)
    # closed input gate: c stays 0 whatever the candidate
    h = T.lstm_scan(T.Tensor([[-800.0, 800.0, 800.0, 800.0]]), wh, [False]).values
    assert h[0, 0] == pytest.approx(0.0, abs=1e-12)
    # zero pre-activations give sigmoid gates of 0.5
    h = T.lstm_scan(T.Tensor([[0.0, 0.0, 0.5, 0.0]]), wh, [False]).values
    assert h[0, 0] == pytest.approx(0.5 * math.tanh(0.5 * math.tanh(0.5)), abs=1e-15)


# ---------------------------------------------------------------------------
# gradient checks against central differences

def fd_cases(op_builder, shapes, seed, lo=-1.0, hi=1.0, away=False):
    rng = Rng(seed)
    worst = 0.0
    for shape in shapes:
        if away:
            x = rand_away_from_zero(rng, shape)
        else:
            x = rand_t(rng, shape, lo, hi)
        err = T.finite_diff_check(op_builder(rng, shape), x)
        worst = max(worst, err)
    return worst


SHAPES5 = [(2, 3), (3, 2), (1, 4), (4, 1), (3, 3)]


def test_grad_matmul():
    rng = Rng(30)
    for shape in SHAPES5:
        other = T.Tensor(rng.uniform_array((shape[1], 2), -1.0, 1.0))
        x = rand_t(rng, shape)
        err = T.finite_diff_check(lambda t, o=other: T.sum_all(T.matmul(t, o)), x)
        assert err < TOL


def test_grad_matmul_right_arg():
    rng = Rng(31)
    for shape in SHAPES5:
        other = T.Tensor(rng.uniform_array((2, shape[0]), -1.0, 1.0))
        x = rand_t(rng, shape)
        err = T.finite_diff_check(lambda t, o=other: T.sum_all(T.matmul(o, t)), x)
        assert err < TOL


def test_grad_add_broadcast_bias():
    rng = Rng(32)
    for shape in SHAPES5:
        bias = rand_t(rng, (1, shape[1]))
        x = T.Tensor(rng.uniform_array(shape, -1.0, 1.0))
        err = T.finite_diff_check(lambda b, xx=x: T.sum_all(T.mul(T.add(xx, b), T.add(xx, b))), bias)
        assert err < TOL


def square(t):
    """A smooth wrapper whose gradient depends on its input."""
    return T.mul(t, t)


@pytest.mark.parametrize("op", [T.add, T.mul])
def test_grad_binary_elementwise(op):
    rng = Rng(33)
    for shape in SHAPES5:
        other = T.Tensor(rng.uniform_array(shape, -1.0, 1.0))
        x = rand_t(rng, shape)
        err = T.finite_diff_check(lambda t, o=other: T.sum_all(square(op(t, o))), x)
        assert err < TOL


def test_grad_div():
    rng = Rng(34)
    for shape in SHAPES5:
        denom = T.Tensor(rng.uniform_array(shape, 0.5, 1.5))
        x = rand_t(rng, shape)
        err = T.finite_diff_check(lambda t, d=denom: T.sum_all(T.div(t, d)), x)
        assert err < TOL
        y = T.Tensor(rng.uniform_array(shape, 0.5, 1.5), requires_grad=True)
        num = T.Tensor(rng.uniform_array(shape, -1.0, 1.0))
        err = T.finite_diff_check(lambda d, n=num: T.sum_all(T.div(n, d)), y)
        assert err < 1e-5


@pytest.mark.parametrize("op,lo,hi", [(T.log, 0.5, 2.0)])
def test_grad_positive_domain_unary(op, lo, hi):
    worst = fd_cases(lambda rng, shape: (lambda t: T.sum_all(op(t))), SHAPES5, 36, lo, hi)
    assert worst < 1e-5


def test_grad_clamps_away_from_kink():
    worst = fd_cases(lambda rng, shape: (lambda t: T.sum_all(T.maximum_scalar(t, 0.0))),
                     SHAPES5, 38, away=True)
    assert worst < TOL


def test_grad_powf():
    worst = fd_cases(lambda rng, shape: (lambda t: T.sum_all(T.powf(t, 1.7))), SHAPES5, 40, 0.3, 1.5)
    assert worst < 1e-5


def test_grad_powf_zero_base_is_zero():
    x = T.Tensor([[0.0, 1.0]], requires_grad=True)
    tape = T.Tape()
    with T.recording(tape):
        y = T.sum_all(T.powf(x, 2.0))
    T.backward(y, tape)
    assert x.grad[0, 0] == 0.0
    assert x.grad[0, 1] == pytest.approx(2.0)


def test_grad_reductions():
    for fn in (T.sum_all, T.mean_all, lambda t: T.sum_all(T.sum_axis(t, 0))):
        worst = fd_cases(lambda rng, shape: fn, SHAPES5, 41)
        assert worst < TOL


def test_grad_softmax_rows():
    rng = Rng(42)
    for shape in SHAPES5:
        w = T.Tensor(rng.uniform_array(shape, -1.0, 1.0))
        x = rand_t(rng, shape, -2.0, 2.0)
        err = T.finite_diff_check(lambda t, ww=w: T.sum_all(T.mul(T.softmax_rows(t), ww)), x)
        assert err < 1e-5


def test_grad_structure_ops():
    rng = Rng(43)
    x = rand_t(rng, (4, 3))
    err = T.finite_diff_check(lambda t: T.sum_all(T.mul(T.reshape(t, (3, 4)), T.reshape(t, (3, 4)))), x)
    assert err < TOL
    err = T.finite_diff_check(lambda t: T.sum_all(T.slice_rows(t, 1, 3)), x)
    assert err < TOL
    err = T.finite_diff_check(lambda t: T.sum_all(T.slice_cols(t, 0, 2)), x)
    assert err < TOL
    err = T.finite_diff_check(lambda t: T.pick(t, 2, 1), x)
    assert err < TOL


def test_grad_concat():
    rng = Rng(44)
    a = rand_t(rng, (2, 3))
    b = T.Tensor(rng.uniform_array((3, 3), -1.0, 1.0))

    def f_rows(t):
        return T.sum_all(square(T.concat([t, b], 0)))

    assert T.finite_diff_check(f_rows, a) < TOL

    c = T.Tensor(rng.uniform_array((2, 4), -1.0, 1.0))

    def f_cols(t):
        return T.sum_all(square(T.concat([t, c], -1)))

    assert T.finite_diff_check(f_cols, a) < TOL


def test_grad_composite_chain():
    # layered composite touching matmul, attention, nonlinearity
    rng = Rng(45)
    w1 = T.Tensor(rng.uniform_array((3, 4), -0.7, 0.7))
    w2 = T.Tensor(rng.uniform_array((4, 2), -0.7, 0.7))
    x = rand_t(rng, (5, 3), -1.0, 1.0)

    def f(t):
        h = T.softmax_rows(T.matmul(t, w1))
        out = T.matmul(T.attend(h, h, h, 1.0 / math.sqrt(4)), w2)
        return T.mean_all(T.mul(out, out))

    assert T.finite_diff_check(f, x) < 1e-5


# ---------------------------------------------------------------------------
# fused ops: one tape record each, hand-written adjoints

def readout(rng, shape):
    """Fixed random projection to a scalar, so every output entry matters."""
    r = T.Tensor(rng.uniform_array(shape, -1.0, 1.0))
    return lambda out: T.sum_all(T.mul(out, r))


@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("reverse", [False, True])
def test_grad_lstm_scan(n, reverse):
    rng = Rng(46 + n)
    hid = 3
    xg = rand_t(rng, (n, 4 * hid), -1.5, 1.5)
    wh = rand_t(rng, (1, hid, 4 * hid), -0.8, 0.8)
    r = readout(rng, (n, hid))
    assert T.finite_diff_check(lambda t: r(T.lstm_scan(t, wh, [reverse])), xg) < TOL
    assert T.finite_diff_check(lambda t: r(T.lstm_scan(xg, t, [reverse])), wh) < TOL


def test_lstm_scan_is_one_record_and_untracked_off_tape():
    rng = Rng(47)
    xg = rand_t(rng, (5, 8))
    wh = rand_t(rng, (1, 2, 8))
    tape = T.Tape()
    with T.recording(tape):
        taped = T.lstm_scan(xg, wh, [False])
    assert len(tape) == 1 and taped.requires_grad
    plain = T.lstm_scan(xg, wh, [False])
    assert not plain.requires_grad
    assert np.array_equal(plain.values, taped.values)
    with pytest.raises(ShapeError):
        T.lstm_scan(xg, rand_t(rng, (1, 3, 8)), [False])
    with pytest.raises(ShapeError):  # an unstacked H x 4H weight
        T.lstm_scan(xg, rand_t(rng, (2, 8)), [False])


@pytest.mark.parametrize("lead", [1, 3])
@pytest.mark.parametrize("case", ["one-sequence", "ragged", "two-forward"])
def test_lstm_scan_after_zero_gate_rows_is_bit_identical(case, lead):
    # a step with zero gate input keeps the zero state at exactly zero, so
    # the n steps after the zero rows are the scan of xg itself; in the
    # ragged case row b has lead + b zero rows in front and the rest
    # behind, as a reverse direction reads a batch padded on the right
    rng = Rng(61)
    hid, n, dirs = 3, 5, 2 if case == "two-forward" else 1
    rows = 4 if case == "ragged" else 1
    xg = rng.uniform_array((rows, n, 4 * dirs * hid), -1.5, 1.5)
    wh = T.Tensor(rng.uniform_array((dirs, hid, 4 * hid), -0.8, 0.8))
    flags = [False] * dirs
    padded = np.zeros((rows, lead + rows - 1 + n, 4 * dirs * hid))
    for b in range(rows):
        padded[b, lead + b:lead + b + n] = xg[b]
    if rows == 1:  # the one-sequence form
        xg, padded = xg[0], padded[0]
    whole = T.lstm_scan(T.Tensor(padded), wh, flags).values.reshape(rows, -1, dirs * hid)
    alone = T.lstm_scan(T.Tensor(xg), wh, flags).values.reshape(rows, n, dirs * hid)
    for b in range(rows):
        assert not whole[b, :lead + b].any()
        assert np.array_equal(whole[b, lead + b:lead + b + n], alone[b])


def test_grad_attend_self_attention_form():
    rng = Rng(48)
    x = rand_t(rng, (4, 3))
    r = readout(rng, (4, 3))
    inv = 1.0 / math.sqrt(3)
    assert T.finite_diff_check(lambda t: r(T.attend(t, t, t, inv)), x) < TOL
    tape = T.Tape()
    with T.recording(tape):
        T.attend(x, x, x, inv)
    assert len(tape) == 1


def test_grad_attend_score_affine_form():
    rng = Rng(49)
    q, k, v = rand_t(rng, (3, 4)), rand_t(rng, (5, 4)), rand_t(rng, (5, 2))
    sc = T.Tensor([[1.3]], requires_grad=True)
    bi = T.Tensor([[0.2]], requires_grad=True)
    r = readout(rng, (3, 2))

    def f(_):
        # every input is read through the closure; the probe is perturbed in place
        return r(T.attend(q, k, v, 0.5, sc, bi))

    for x in (q, k, v, sc):
        assert T.finite_diff_check(f, x) < TOL
    # a score bias shifts whole rows, which the row softmax ignores: its true
    # gradient is 0, so a relative error would only measure roundoff
    tape = T.Tape()
    with T.recording(tape):
        loss = f(None)
    T.backward(loss, tape)
    assert abs(bi.grad[0, 0]) <= 1e-12
    with pytest.raises(ContractError):
        T.attend(q, k, v, 0.5, sc)


def test_grad_attend_batched_self_attention_with_padded_row():
    rng = Rng(56)
    x = rand_t(rng, (2, 3, 4))
    mask = np.array([[True, True, True], [True, True, False]])[:, None, :]
    r = readout(rng, (2, 3, 4))
    inv = 0.5
    assert T.finite_diff_check(lambda t: r(T.attend(t, t, t, inv, mask=mask)), x) < TOL
    # the padded key gets exactly zero weight: row 1 equals its real part alone
    out = T.attend(x, x, x, inv, mask=mask).values
    alone = T.attend(T.Tensor(x.values[1, :2]), T.Tensor(x.values[1, :2]),
                     T.Tensor(x.values[1, :2]), inv).values
    assert np.allclose(out[1, :2], alone, atol=1e-12)
    with pytest.raises(ContractError, match="no real key"):
        T.attend(x, x, x, inv, mask=np.zeros((2, 1, 3), dtype=bool))


def test_grad_attend_batched_score_affine_with_padded_row():
    # the cross-attention layout: (peripheral, batch) leading axes, a query
    # broadcast over peripherals, one score affine per peripheral
    rng = Rng(57)
    q = rand_t(rng, (2, 3, 4))
    k, v = rand_t(rng, (2, 2, 3, 4)), rand_t(rng, (2, 2, 3, 2))
    sc = T.Tensor([[[[1.3]]], [[[0.7]]]], requires_grad=True)
    bi = T.Tensor([[[[0.2]]], [[[-0.1]]]], requires_grad=True)
    mask = np.array([[True, True, True], [True, False, False]])[None, :, None, :]
    r = readout(rng, (2, 2, 3, 2))

    def f(_):
        return r(T.attend(q, k, v, 0.5, sc, bi, mask))

    for x in (q, k, v, sc):
        assert T.finite_diff_check(f, x) < TOL
    tape = T.Tape()
    with T.recording(tape):
        loss = f(None)
    T.backward(loss, tape)
    assert np.all(np.abs(bi.grad) <= 1e-12)
    assert np.all(k.grad[:, 1, 1:] == 0.0) and np.all(v.grad[:, 1, 1:] == 0.0)


@pytest.mark.parametrize("op", ["affine", "sum_axis", "stack", "place",
                                "take_rows", "concat_mid"])
def test_grad_batch_layout_ops(op):
    rng = Rng(58)
    x = rand_t(rng, (2, 3, 4))
    w, b = T.Tensor(rng.uniform_array((4, 2), -1.0, 1.0)), rand_t(rng, (1, 2))
    other = T.Tensor(rng.uniform_array((2, 3, 4), -1.0, 1.0))
    f = {"affine": lambda t: T.affine(t, w, b),
         "sum_axis": lambda t: T.sum_axis(t, (0, 2)),
         "stack": lambda t: T.stack([t, other, t]),
         "place": lambda t: T.place((3, 2, 5, 4), [(t, (0, slice(None), slice(3))),
                                                   (t, (2, slice(None), slice(1, 4)))]),
         "take_rows": lambda t: T.take_rows(t, [1, 0, 1]),
         "concat_mid": lambda t: T.concat([t, other], 1)}[op]
    r = readout(rng, f(x).shape)
    assert T.finite_diff_check(lambda t: r(f(t)), x) < TOL
    if op == "affine":
        assert T.finite_diff_check(lambda t: r(T.affine(x, w, t)), b) < TOL
        assert np.array_equal(T.affine(x, w, b).values, x.values @ w.values + b.values)


def test_grad_cosine_rows_per_row_candidates():
    # P query rows, each against its own K candidates
    rng = Rng(59)
    a = rand_t(rng, (3, 4))
    b = rand_t(rng, (3, 2, 4))
    r = readout(rng, (3, 2))
    assert T.finite_diff_check(lambda t: r(T.cosine_rows(t, b)), a) < TOL
    assert T.finite_diff_check(lambda t: r(T.cosine_rows(a, t)), b) < TOL
    got = T.cosine_rows(a, b).values
    for p in range(3):
        want = T.cosine_rows(T.Tensor(a.values[p:p + 1]), T.Tensor(b.values[p:p + 1])).values
        assert np.array_equal(got[p], want[0])
    with pytest.raises(ShapeError):  # a K x d set shared by every row
        T.cosine_rows(a, T.Tensor(b.values[0]))


def test_grad_cosine_rows():
    rng = Rng(51)
    a = rand_t(rng, (1, 4))
    b = rand_t(rng, (1, 3, 4))
    r = readout(rng, (1, 3))
    assert T.finite_diff_check(lambda t: r(T.cosine_rows(t, b)), a) < TOL
    assert T.finite_diff_check(lambda t: r(T.cosine_rows(a, t)), b) < TOL
    want = [float(a.values[0] @ row / (np.linalg.norm(a.values) * np.linalg.norm(row)))
            for row in b.values[0]]
    assert np.allclose(T.cosine_rows(a, b).values[0], want, atol=1e-15)


def test_cosine_rows_zero_vectors_score_zero_without_gradient():
    rng = Rng(52)
    b = rand_t(rng, (1, 3, 4))
    b.values[0, 1] = 0.0
    a = rand_t(rng, (1, 4))
    r = readout(rng, (1, 3))
    # a zero candidate row: its cosine is 0 and the other rows are unaffected
    out = T.cosine_rows(a, b).values[0]
    assert out[1] == 0.0
    live = T.Tensor(b.values[:, [0, 2]])
    assert np.array_equal(out[[0, 2]], T.cosine_rows(a, live).values[0])
    assert T.finite_diff_check(lambda t: r(T.cosine_rows(t, b)), a) < TOL
    tape = T.Tape()
    with T.recording(tape):
        loss = r(T.cosine_rows(a, b))
    T.backward(loss, tape)
    assert np.all(b.grad[0, 1] == 0.0)
    # a zero query: every cosine is 0 and neither input gets a gradient
    zero = T.Tensor(np.zeros((1, 4)), requires_grad=True)
    b.grad = None
    tape = T.Tape()
    with T.recording(tape):
        loss = r(T.cosine_rows(zero, b))
    assert np.all(loss.values == 0.0)
    T.backward(loss, tape)
    assert np.all(zero.grad == 0.0) and np.all(b.grad == 0.0)


# ---------------------------------------------------------------------------
# recording and accumulation semantics

def test_no_tape_no_recording():
    x = T.Tensor([[1.0, 2.0]], requires_grad=True)
    y = T.log(x)
    assert y.requires_grad is False
    tape = T.Tape()
    with T.recording(tape):
        z = T.log(x)
    assert z.requires_grad is True
    assert len(tape) == 1


def test_constant_inputs_not_tracked():
    a = T.Tensor([[1.0]])
    b = T.Tensor([[2.0]])
    tape = T.Tape()
    with T.recording(tape):
        c = T.add(a, b)
    assert len(tape) == 0
    assert c.requires_grad is False


def test_backward_requires_scalar():
    x = T.Tensor([[1.0, 2.0]], requires_grad=True)
    tape = T.Tape()
    with T.recording(tape):
        y = T.log(x)
    with pytest.raises(ContractError):
        T.backward(y, tape)


def test_leaf_grads_accumulate_across_backwards():
    x = T.Tensor([[2.0]], requires_grad=True)
    tape = T.Tape()
    with T.recording(tape):
        y = T.mul(x, x)
    T.backward(y, tape)
    first = x.grad.copy()
    tape2 = T.Tape()
    with T.recording(tape2):
        y2 = T.mul(x, x)
    T.backward(y2, tape2)
    assert np.allclose(x.grad, 2 * first)
    T.zero_grad([x])
    assert x.grad is None


def test_shared_subexpression_grad():
    # y = x*x + x, dy/dx = 2x + 1
    x = T.Tensor([[3.0]], requires_grad=True)
    tape = T.Tape()
    with T.recording(tape):
        y = T.add(T.mul(x, x), x)
    T.backward(y, tape)
    assert x.grad[0, 0] == pytest.approx(7.0)


def test_first_gradient_contribution_is_copied():
    # add()'s adjoint returns g itself and sum_axis()'s a read-only broadcast view;
    # a later contribution to one input must not leak into its sibling
    x = T.Tensor([[1.0, -2.0]], requires_grad=True)
    tape = T.Tape()
    with T.recording(tape):
        y = T.sum_all(T.add(x, x))
    T.backward(y, tape)
    assert np.array_equal(x.grad, [[2.0, 2.0]])

    a = T.Tensor([[1.0, 2.0]], requires_grad=True)
    b = T.Tensor([[3.0, -1.0]], requires_grad=True)
    m = T.Tensor([[1.0, 4.0], [2.0, 0.5]], requires_grad=True)
    k = T.Tensor([[0.5, 3.0]])
    c = T.Tensor([[2.0, -5.0]])
    tape = T.Tape()
    with T.recording(tape):
        u = T.mul(a, k)            # recorded first, so pulled last
        w = T.mul(m, T.Tensor([[1.0, 1.0], [1.0, 1.0]]))  # pulled after sum_axis
        s = T.add(T.add(a, b), u)
        loss = T.sum_all(T.mul(T.add(s, T.scale(T.sum_axis(m, 0), 0.5)), c))
        loss = T.add(loss, T.sum_all(w))
    T.backward(loss, tape)
    assert np.array_equal(b.grad, c.values)
    assert np.array_equal(a.grad, c.values + c.values * k.values)
    assert np.array_equal(m.grad, np.broadcast_to(c.values / 2.0, (2, 2)) + 1.0)


def test_nonfinite_creation_rejected():
    with pytest.raises(ContractError):
        T.Tensor([[float("nan")]])
    with pytest.raises(ContractError):
        T.Tensor([[float("inf")]])


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        T.matmul(T.Tensor([[1.0, 2.0]]), T.Tensor([[1.0, 2.0]]))


def test_finite_diff_restores_input_and_tape_state():
    x = T.Tensor([[1.0, -2.0], [0.5, 3.0]], requires_grad=False)
    before = x.values.copy()
    outer = T.Tape()
    with T.recording(outer):
        T.finite_diff_check(lambda t: T.sum_all(square(t)), x)
        y = T.log(T.Tensor([[1.0]], requires_grad=True))
    assert np.array_equal(x.values, before)
    assert x.requires_grad is False
    assert y.requires_grad is True  # outer tape became active again
    assert len(outer) == 1  # and it holds only that op


def test_recording_restores_the_outer_tape_when_nested_or_raising():
    x = T.Tensor([[1.0]], requires_grad=True)
    outer, inner = T.Tape(), T.Tape()
    with T.recording(outer):
        with T.recording(inner) as active:
            assert active is inner
            T.log(x)
        T.log(x)
        with pytest.raises(RuntimeError, match="inside"):
            with T.recording(inner):
                raise RuntimeError("inside")
        with T.recording(None):
            assert T.log(x).requires_grad is False
        T.log(x)
    assert T.log(x).requires_grad is False
    assert (len(outer), len(inner)) == (2, 1)


def test_init_xavier_bounds_and_determinism():
    b1 = T.init_xavier((6, 4), Rng(77))
    b2 = T.init_xavier((6, 4), Rng(77))
    assert np.array_equal(b1.values, b2.values)
    bound = math.sqrt(6.0 / 10.0)
    assert (np.abs(b1.values) <= bound).all()
    assert b1.requires_grad is True
    v = T.init_xavier((5,), Rng(78))
    assert (np.abs(v.values) <= math.sqrt(6.0 / 10.0)).all()


def test_full_pipeline_bit_determinism():
    def run():
        rng = Rng(2024)
        w = T.init_xavier((4, 4), rng)
        x = T.Tensor(rng.normal_array((3, 4)), requires_grad=True)
        tape = T.Tape()
        with T.recording(tape):
            h = T.maximum_scalar(T.matmul(x, w), 0.0)
            p = T.softmax_rows(h)
            loss = T.mean_all(T.mul(p, p))
        T.backward(loss, tape)
        return loss.values.tobytes(), x.grad.tobytes(), w.grad.tobytes()

    assert run() == run()


# ---------------------------------------------------------------------------
# two LSTM directions in one scan, weights with leading batch axes

def directions(rng, shape, hid, dirs=2):
    """Gate inputs of ``dirs`` directions side by side, their stacked
    recurrent weights, and each direction's own (xg, 1 x H x 4H wh)."""
    xs = [rand_t(rng, shape + (4 * hid,), -1.5, 1.5) for _ in range(dirs)]
    ws = [rand_t(rng, (1, hid, 4 * hid), -0.8, 0.8) for _ in range(dirs)]
    return (T.Tensor(np.concatenate([x.values for x in xs], -1), requires_grad=True),
            T.Tensor(np.concatenate([w.values for w in ws]), requires_grad=True),
            tuple(zip(xs, ws)))


@pytest.mark.parametrize("case", ["one-sequence", "ragged"])
def test_two_direction_scan_equals_two_one_direction_scans(case):
    # ragged: rows of 5, 1, 3 and 0 steps padded to 5 with zero gate rows
    rng = Rng(64)
    hid, n = 3, 5
    shape = (n,) if case == "one-sequence" else (4, n)
    xg, wh, ((xf, wf), (xb, wb)) = directions(rng, shape, hid)
    if case == "ragged":
        for x in (xg, xf, xb):
            x.values *= (np.arange(n) < np.array([[5], [1], [3], [0]]))[..., None]
    flags = (False, True)
    both = T.lstm_scan(xg, wh, flags)
    alone = [T.lstm_scan(x, w, [flag])
             for (x, w), flag in zip(((xf, wf), (xb, wb)), flags)]
    assert np.max(np.abs(both.values - np.concatenate([out.values for out in alone], -1))) \
        <= 1e-12
    # the adjoints are the two directions' adjoints, side by side
    r = rng.uniform_array(both.shape, -1.0, 1.0)
    for parts in ([(xg, wh, flags, r)],
                  [(x, w, [flag], part) for (x, w), flag, part in zip(
                      ((xf, wf), (xb, wb)), flags, np.split(r, 2, axis=-1))]):
        tape = T.Tape()
        with T.recording(tape):
            terms = [T.sum_all(T.mul(T.lstm_scan(x, w, rev), T.Tensor(part)))
                     for x, w, rev, part in parts]
            loss = terms[0] if len(terms) == 1 else T.add(*terms)
        T.backward(loss, tape)
    assert np.max(np.abs(xg.grad - np.concatenate([xf.grad, xb.grad], -1))) <= 1e-12
    assert np.max(np.abs(wh.grad - np.concatenate([wf.grad, wb.grad]))) <= 1e-12


@pytest.mark.parametrize("backward_first", [False, True])
def test_grad_two_direction_scan_ragged(backward_first):
    # rows of 4, 1 and 3 steps whose padded gate rows are masked to zero
    rng = Rng(65)
    hid, n = 2, 4
    xg, wh, _ = directions(rng, (3, n), hid)
    live = T.Tensor((np.arange(n) < np.array([[4], [1], [3]]))[..., None])
    flags = (True, False) if backward_first else (False, True)
    r = readout(rng, (3, n, 2 * hid))
    assert T.finite_diff_check(lambda t: r(T.lstm_scan(T.mul(t, live), wh, flags)), xg) < TOL
    assert T.finite_diff_check(lambda t: r(T.lstm_scan(T.mul(xg, live), t, flags)), wh) < TOL
    with pytest.raises(ShapeError, match="reverse flags"):
        T.lstm_scan(xg, wh, flags[:1])


@pytest.mark.parametrize("flag", [range(3), 1, "yes"], ids=["range", "int", "str"])
def test_lstm_scan_rejects_a_reverse_flag_that_is_not_a_bool(flag):
    # a truthy visit order such as range(n) must not silently reverse
    xg, wh, _ = directions(Rng(66), (2, 3), 2)
    with pytest.raises(ShapeError, match=re.escape(f"reverse flag 1 must be a bool, "
                                                   f"got {flag!r}")):
        T.lstm_scan(xg, wh, (False, flag))
    assert np.array_equal(T.lstm_scan(xg, wh, (False, np.bool_(True))).values,
                          T.lstm_scan(xg, wh, (False, True)).values)


@pytest.mark.parametrize("index", [[3, 0, 2], [1, 0, 1, 1, 3, 1], [[2, 0], [0, 3], [2, 2]], 2])
def test_take_rows_adjoint_adds_as_np_add_at(index):
    # unique, repeated and 2-D indices: the adjoint sums repeated rows in
    # the order np.add.at does, bit for bit
    rng = Rng(68)
    a = rand_t(rng, (4, 3))
    g = rng.uniform_array(np.shape(index) + (3,), -1.0, 1.0) * \
        10.0 ** rng.uniform_array(np.shape(index) + (3,), -8.0, 8.0)
    tape = T.Tape()
    with T.recording(tape):
        loss = T.sum_all(T.mul(T.take_rows(a, index), T.Tensor(g)))
    T.backward(loss, tape)
    want = np.zeros((4, 3))
    np.add.at(want, np.asarray(index), g)
    assert np.array_equal(a.grad, want)


@pytest.mark.parametrize("x_shape, w_shape", [((2, 3, 4), (2, 4, 5)),   # one matrix each
                                              ((3, 4), (2, 4, 5)),      # x shared
                                              ((2, 2, 3, 4), (2, 1, 4, 5))])  # broadcast
def test_grad_matmul_and_affine_with_batched_weight(x_shape, w_shape):
    rng = Rng(66)
    x, w = rand_t(rng, x_shape), rand_t(rng, w_shape)
    b = rand_t(rng, w_shape[:-2] + (1, w_shape[-1]))
    out_shape = np.broadcast_shapes(x_shape[:-2], w_shape[:-2]) + (x_shape[-2], w_shape[-1])
    r = readout(rng, out_shape)
    assert np.allclose(T.matmul(x, w).values, x.values @ w.values, atol=1e-15)
    for probe in (x, w):
        assert T.finite_diff_check(lambda _: r(T.matmul(x, w)), probe) < TOL
    for probe in (x, w, b):
        assert T.finite_diff_check(lambda _: r(T.affine(x, w, b)), probe) < TOL


# ---------------------------------------------------------------------------
# the record form: every op records (out, inputs, adjoint)

# op name (a suffix after "-" marks a second form) -> (input shapes, op)
RECORDED_OPS = {
    "matmul": ([(2, 3, 4), (4, 2)], T.matmul),
    "affine": ([(3, 4), (2, 4, 2), (1, 2)], T.affine),
    "add": ([(3, 2), (1, 2)], T.add),
    "mul": ([(3, 2), (3, 1)], T.mul),
    "div": ([(3, 2), (2,)], T.div),
    "scale": ([(3, 2)], lambda a: T.scale(a, -1.5)),
    "add_scalar": ([(3, 2)], lambda a: T.add_scalar(a, 0.5)),
    "maximum_scalar": ([(3, 2)], lambda a: T.maximum_scalar(a, 1.0)),
    "powf": ([(3, 2)], lambda a: T.powf(a, 1.5)),
    "powf-zero": ([(3, 2)], lambda a: T.powf(a, 0.0)),
    "log": ([(3, 2)], T.log),
    "sum_all": ([(3, 2)], T.sum_all),
    "mean_all": ([(3, 2)], T.mean_all),
    "sum_axis": ([(3, 2, 4)], lambda a: T.sum_axis(a, (0, 2))),
    "softmax_rows": ([(3, 4)], T.softmax_rows),
    "reshape": ([(3, 4)], lambda a: T.reshape(a, (2, 6))),
    "concat": ([(2, 3), (2, 1), (2, 2)], lambda *p: T.concat(p, -1)),
    "stack": ([(2, 3), (2, 3)], lambda *p: T.stack(p)),
    "place": ([(2, 3), (3,)], lambda a, b: T.place((3, 2, 3), [(a, 0), (b, (2, 1))])),
    "slice_rows": ([(4, 2)], lambda a: T.slice_rows(a, 1, 3)),
    "slice_cols": ([(2, 3, 4)], lambda a: T.slice_cols(a, 1, 3)),
    "take_rows": ([(4, 2)], lambda a: T.take_rows(a, [2, 0, 2])),
    "pick": ([(3, 2)], lambda a: T.pick(a, 2, 1)),
    "lstm_scan": ([(2, 3, 16), (2, 2, 8)],
                  lambda x, w: T.lstm_scan(x, w, (False, True))),
    "attend": ([(2, 3, 4), (2, 5, 4), (5, 3)], lambda q, k, v: T.attend(q, k, v, 0.5)),
    "attend-affine": ([(2, 3, 4), (2, 5, 4), (2, 5, 3), (2, 1, 1), (1, 1, 1)],
                      lambda q, k, v, sc, bi: T.attend(
                          q, k, v, 0.5, sc, bi, mask=np.array([1, 1, 0, 1, 0], bool))),
    "cosine_rows": ([(3, 4), (3, 2, 4)], T.cosine_rows),
}
NOT_OPS = {"recording", "backward", "zero_grad", "init_xavier", "finite_diff_check"}


def test_record_table_covers_every_op():
    public = {name for name, f in vars(T).items() if inspect.isfunction(f)
              and f.__module__ == T.__name__ and not name.startswith("_")}
    assert public - NOT_OPS == {name.split("-")[0] for name in RECORDED_OPS}


def run_op(name, off=None):
    """The op on fresh inputs in [0.5, 1.5] (every input requires grad but
    the one at position ``off``), recorded on its own tape."""
    shapes, op = RECORDED_OPS[name]
    rng = Rng(80)
    ins = [T.Tensor(rng.uniform_array(s, 0.5, 1.5), requires_grad=i != off)
           for i, s in enumerate(shapes)]
    tape = T.Tape()
    with T.recording(tape):
        out = op(*ins)
    return ins, tape, out


@pytest.mark.parametrize("name", sorted(RECORDED_OPS))
def test_every_op_records_one_triple_with_one_contribution_per_input(name):
    ins, tape, out = run_op(name)
    assert len(tape) == 1
    rec_out, inputs, adjoint = tape.records[0]
    assert rec_out is out and [id(t) for t in inputs] == [id(t) for t in ins]
    contribs = adjoint(Rng(81).uniform_array(out.shape, -1.0, 1.0))
    assert len(contribs) == len(inputs)
    assert [np.shape(c) for c in contribs] == [t.shape for t in inputs]


@pytest.mark.parametrize("name", sorted(RECORDED_OPS))
def test_an_input_that_requires_no_grad_gets_none(name):
    for off in range(len(RECORDED_OPS[name][0])):
        ins, tape, out = run_op(name, off)
        if len(ins) == 1:  # nothing left to differentiate
            assert len(tape) == 0 and not out.requires_grad
            continue
        with T.recording(tape):
            loss = T.sum_all(T.mul(out, T.Tensor(Rng(82).uniform_array(out.shape, -1, 1))))
        T.backward(loss, tape)
        assert [t.grad is None for t in ins] == [i == off for i in range(len(ins))]
        assert all(t.grad.shape == t.shape for t in ins if t.grad is not None)


def test_backward_calls_a_multi_input_adjoint_once():
    w = rand_t(Rng(83), (3, 4))
    tape = T.Tape()
    with T.recording(tape):
        loss = T.sum_all(T.attend(w, w, w, 0.5))
    out, inputs, adjoint = tape.records[0]
    seen = []

    def spy(g):
        seen.append(g)
        return adjoint(g)

    tape.records[0] = (out, inputs, spy)
    T.backward(loss, tape)
    assert len(seen) == 1 and len(inputs) == 3
    dq, dk, dv = adjoint(seen[0])
    assert np.array_equal(w.grad, dq + dk + dv)
