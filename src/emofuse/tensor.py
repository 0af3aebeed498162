"""Float64 tensors with a reverse-mode gradient tape.

Everything downstream (encoders, cross-modal attention, fusion, losses,
context classifier) is built from the operations in this module. Design
points that the rest of the package relies on:

* values are float64 and treated as immutable once an op has produced
  them (``finite_diff_check`` is the one sanctioned exception; it
  restores what it perturbs),
* gradients are recorded only inside a ``recording(tape)`` block, and
  ``backward`` replays the tape once, in reverse execution order, calling
  each record's adjoint once and adding its contributions in input
  order, so accumulation order is fixed and runs are bit-reproducible,
* after ``backward`` every tensor that requires grad and lies upstream
  of the loss holds its full adjoint in ``.grad``; leaf grads accumulate
  across calls until ``zero_grad``,
* the model's three hot blocks are fused ops: ``lstm_scan`` (LSTM
  directions stepped together), ``attend`` (scaled dot-product attention
  with an optional score affine) and ``cosine_rows`` (query rows' cosines
  against candidates). Each runs its forward pass in numpy and records
  exactly one tape entry with its hand-written adjoint,
* the batch axis is leading: ``lstm_scan`` takes a B x L batch,
  ``attend`` any leading batch axes with a key mask, and ``matmul`` and
  ``affine`` a weight with leading batch axes, so one record covers a
  padded batch or a stack of networks. Padding never leaks into real
  rows: a padded LSTM step is a zero gate row (see ``lstm_scan``), and a
  padded key gets exactly zero attention weight.
"""
from __future__ import annotations

import contextlib
import functools

import numpy as np

from .errors import ContractError, ShapeError
from .rng import Rng

_TAPE = None  # active Tape or None


class Tensor:
    """Dense float64 array plus an optional gradient buffer."""

    __slots__ = ("values", "requires_grad", "grad")

    def __init__(self, values, requires_grad: bool = False):
        arr = np.array(values, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ContractError("tensor values must be finite")
        self.values = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.values.shape

    def item(self) -> float:
        if self.values.size != 1:
            raise ContractError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.values.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"


def _wrap(arr, requires_grad=False):
    t = Tensor.__new__(Tensor)
    t.values = arr
    t.requires_grad = requires_grad
    t.grad = None
    return t


class Tape:
    """Ordered record of executed differentiable ops.

    Each record is ``(out, inputs, adjoint)``: ``adjoint`` maps the
    adjoint of ``out`` to one contribution per input, in the order of
    ``inputs``, each shaped like its input.
    """

    __slots__ = ("records",)

    def __init__(self):
        self.records = []

    def __len__(self):
        return len(self.records)


@contextlib.contextmanager
def recording(tape):
    """Record ops on ``tape`` (None: on no tape) inside the block; the
    tape active before it is active again after it, however it ends."""
    global _TAPE
    prev, _TAPE = _TAPE, tape
    try:
        yield tape
    finally:
        _TAPE = prev


def _result(values, inputs, adjoint):
    tape = _TAPE
    if tape is not None and any(t.requires_grad for t in inputs):
        out = _wrap(values, True)
        tape.records.append((out, inputs, adjoint))
        return out
    return _wrap(values, False)


def backward(loss: Tensor, tape: Tape) -> None:
    """Populate ``.grad`` for every requires-grad tensor upstream of loss.

    Intermediate grads are cleared first; leaf grads accumulate across
    calls until ``zero_grad`` (the alpha probe sums its validation
    dialogues' context gradients this way, then clears them).
    """
    if loss.values.size != 1:
        raise ContractError(f"backward: loss must be scalar, got shape {loss.shape}")
    for out, _, _ in tape.records:
        out.grad = None
    loss.grad = np.ones_like(loss.values)
    for out, inputs, adjoint in reversed(tape.records):
        g = out.grad
        if g is None:
            continue
        for inp, contrib in zip(inputs, adjoint(g)):
            if not inp.requires_grad:
                continue
            if inp.grad is None:
                # a copy, never the adjoint's array: it may be g itself
                # or a read-only broadcast view
                inp.grad = np.array(contrib, dtype=np.float64)
            else:
                inp.grad += contrib


def zero_grad(tensors) -> None:
    for t in tensors:
        t.grad = None


def _sum_to(g, shape):
    """Reduce a broadcast gradient back to the input's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# binary ops

def _matmul_adjoint(xv, wv, g):
    """Adjoints of ``xv @ wv``, each summed over the axes its input broadcast along."""
    dw = xv.reshape(-1, wv.shape[0]).T @ g.reshape(-1, wv.shape[1]) if wv.ndim == 2 \
        else _sum_to(np.swapaxes(xv, -1, -2) @ g, wv.shape)
    return _sum_to(g @ np.swapaxes(wv, -1, -2), xv.shape), dw


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a`` (..., n, k) times ``b`` (..., k, m). The leading axes are batch
    axes and broadcast as in numpy's matmul: a k x m ``b`` multiplies every
    batch member, a stacked one gives each member its own matrix."""
    av, bv = a.values, b.values
    if av.ndim < 2 or bv.ndim < 2 or av.shape[-1] != bv.shape[-2]:
        raise ShapeError(f"matmul: incompatible shapes {av.shape} x {bv.shape}")
    return _result(av @ bv, (a, b), lambda g: _matmul_adjoint(av, bv, g))


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``matmul(x, w)`` plus the bias ``b`` (1 x m, or broadcastable like
    ``w``), as one record: the values and adjoints of matmul then add."""
    xv, wv, bv = x.values, w.values, b.values
    if xv.ndim < 2 or wv.ndim < 2 or xv.shape[-1] != wv.shape[-2] or \
            bv.shape[-1] != wv.shape[-1]:
        raise ShapeError(f"affine: incompatible shapes {xv.shape} x {wv.shape} + {bv.shape}")
    return _result(xv @ wv + bv, (x, w, b),
                   lambda g: _matmul_adjoint(xv, wv, g) + (_sum_to(g, bv.shape),))


def add(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.values, b.values
    return _result(av + bv, (a, b), lambda g: (_sum_to(g, av.shape), _sum_to(g, bv.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.values, b.values
    return _result(av * bv, (a, b),
                   lambda g: (_sum_to(g * bv, av.shape), _sum_to(g * av, bv.shape)))


def div(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.values, b.values
    return _result(av / bv, (a, b), lambda g: (_sum_to(g / bv, av.shape),
                                               _sum_to(-g * av / (bv * bv), bv.shape)))


# ---------------------------------------------------------------------------
# scalar-parameter ops

def scale(a: Tensor, c: float) -> Tensor:
    return _result(a.values * c, (a,), lambda g: (g * c,))


def add_scalar(a: Tensor, c: float) -> Tensor:
    return _result(a.values + c, (a,), lambda g: (g,))


def maximum_scalar(a: Tensor, c: float) -> Tensor:
    """Elementwise lower clamp; gradient passes only where a > c."""
    av = a.values
    return _result(np.maximum(av, c), (a,), lambda g: (g * (av > c),))


def powf(a: Tensor, p: float) -> Tensor:
    """Elementwise a**p for a >= 0; gradient is 0 where the base is 0."""
    av = a.values
    if p == 0.0:
        return _result(np.ones_like(av), (a,), lambda g: (np.zeros_like(av),))
    out = av ** p
    safe = np.where(av > 0.0, av, 1.0)
    dmask = np.where(av > 0.0, p * safe ** (p - 1.0), 0.0)
    return _result(out, (a,), lambda g: (g * dmask,))


# ---------------------------------------------------------------------------
# elementwise nonlinearities

def log(a: Tensor) -> Tensor:
    av = a.values
    return _result(np.log(av), (a,), lambda g: (g / av,))


# ---------------------------------------------------------------------------
# reductions and softmax

def sum_all(a: Tensor) -> Tensor:
    av = a.values
    return _result(np.asarray(av.sum()), (a,), lambda g: (np.full_like(av, float(g)),))


def mean_all(a: Tensor) -> Tensor:
    av = a.values
    n = av.size
    return _result(np.asarray(av.mean()), (a,), lambda g: (np.full_like(av, float(g) / n),))


def sum_axis(a: Tensor, axis) -> Tensor:
    """Sum over one axis or a tuple of axes, which are dropped."""
    av = a.values
    return _result(av.sum(axis=axis), (a,),
                   lambda g: (np.broadcast_to(np.expand_dims(g, axis), av.shape),))


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax along the last axis, stabilized by row-max subtraction."""
    xv = x.values
    if not np.all(np.isfinite(xv)):
        raise ContractError("softmax_rows: input must be finite")
    e = np.exp(xv - xv.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)

    return _result(y, (x,), lambda g: (y * (g - (g * y).sum(axis=-1, keepdims=True)),))


# ---------------------------------------------------------------------------
# structure ops

def reshape(a: Tensor, shape) -> Tensor:
    orig = a.values.shape
    return _result(a.values.reshape(shape), (a,), lambda g: (g.reshape(orig),))


def concat(parts, axis: int) -> Tensor:
    """Join tensors along one axis (negative counts from the end)."""
    parts = tuple(parts)
    cuts = np.cumsum([t.values.shape[axis] for t in parts])[:-1]
    return _result(np.concatenate([t.values for t in parts], axis=axis), parts,
                   lambda g: tuple(np.split(g, cuts, axis=axis)))


def stack(parts) -> Tensor:
    """Stack equal-shaped tensors along a new leading axis."""
    parts = tuple(parts)
    return _result(np.stack([t.values for t in parts]), parts, tuple)


def place(shape, parts) -> Tensor:
    """Zeros of ``shape`` with each (tensor, index) of ``parts`` written at
    that numpy index (the slots must not overlap): pads and stacks as one record."""
    parts = tuple(parts)
    out = np.zeros(shape)
    for t, index in parts:
        out[index] = t.values
    return _result(out, tuple(t for t, _ in parts),
                   lambda g: tuple(g[i].reshape(t.values.shape) for t, i in parts))


def _select(a: Tensor, index) -> Tensor:
    """``a`` at a basic numpy ``index``; the adjoint writes g back there
    into zeros."""
    av = a.values

    def adjoint(g):
        z = np.zeros_like(av)
        z[index] = g
        return (z,)

    return _result(np.asarray(av[index]), (a,), adjoint)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    """Slice along the leading axis."""
    return _select(a, slice(start, stop))


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    """Slice along the last axis."""
    return _select(a, (Ellipsis, slice(start, stop)))


def take_rows(a: Tensor, index) -> Tensor:
    """Rows ``index`` of ``a``, in that order; repeated rows add their
    adjoints."""
    av = a.values
    index = np.asarray(index, dtype=np.intp)

    def adjoint(g):
        z = np.zeros_like(av)
        rows = index.reshape(-1) % max(len(av), 1)
        if len(set(rows.tolist())) == len(rows):
            z[index] = g
        else:  # in index order, so the sums round as np.add.at's do
            for i, gi in zip(rows, g.reshape((-1,) + av.shape[1:])):
                z[i] += gi
        return (z,)

    return _result(av[index], (a,), adjoint)


def pick(a: Tensor, i: int, j: int) -> Tensor:
    """Extract one entry of a matrix as a scalar tensor."""
    return _select(a, (i, j))


# ---------------------------------------------------------------------------
# fused ops: one record per model block, with a hand-written adjoint


@functools.lru_cache(maxsize=None)
def _gate_affine(width: int):
    """(half, rest): tanh(z * half) * half + rest is the sigmoid of the
    input, forget and output gates and the tanh of the candidate, since
    sigmoid(z) = (1 + tanh(z / 2)) / 2; one tanh gives all four gates."""
    half = np.where(np.arange(4 * width)[:, None] // width == 2, 1.0, 0.5)
    return half, 1.0 - half


def lstm_scan(xg: Tensor, wh: Tensor, reverse):
    """D LSTM directions stepped together over precomputed input projections.

    ``xg`` is n x 4DH for one sequence, or B x L x 4DH for a batch of B
    sequences of L steps (B is 1 for one sequence).
    ``wh`` is the D x H x 4H stack of the directions' recurrent weights,
    with gate blocks ordered input, forget, candidate, output; ``reverse``
    holds one flag per direction: a reverse direction visits the
    timesteps last to first, the others first to last. The columns of
    ``xg``, the output and the state hold D blocks side by side. The
    state starts at zero. Returns the hidden states indexed by timestep,
    not visit order, in the shape of ``xg`` with DH columns. The adjoint
    runs backpropagation through time into ``xg`` and ``wh``.

    A step whose gate input is zero leaves the zero state at exactly
    zero (every gate is a half and the candidate zero), so zero gate rows
    in front of a sequence change none of its states. A reverse direction
    reads the zeroed gate rows of a batch padded on the right that way.
    """
    xv, whv = xg.values, wh.values
    if xv.ndim not in (2, 3) or whv.ndim != 3 or whv.shape[2] != 4 * whv.shape[1] or \
            xv.shape[-1] != 4 * whv.shape[0] * whv.shape[1]:
        raise ShapeError(f"lstm_scan: need n x 4DH or B x L x 4DH, and D x H x 4H, "
                         f"got {xv.shape} and {whv.shape}")
    dirs, hid = whv.shape[:2]
    width = dirs * hid
    if len(reverse) != dirs:
        raise ShapeError(f"lstm_scan: need {dirs} reverse flags, got {len(reverse)}")
    for i, r in enumerate(reverse):
        if not isinstance(r, (bool, np.bool_)):
            raise ShapeError(f"lstm_scan: reverse flag {i} must be a bool, got {r!r}")
    n, size = xv.shape[-2], xv.shape[0] if xv.ndim == 3 else 1
    # steps run on (feature, row) arrays with features ordered (gate,
    # direction, unit), so each gate of every direction is one leading
    # slice and one block-diagonal matrix steps all directions
    visit = np.array([range(n - 1, -1, -1) if r else range(n) for r in reverse],
                     dtype=np.intp).T  # step -> timesteps
    across = np.arange(dirs)
    half, rest = _gate_affine(width)
    wt = np.zeros((4, dirs, hid, dirs, hid))  # (gate, direction, out, direction, in)
    wt[:, across, :, across] = whv.reshape(dirs, hid, 4, hid).transpose(0, 2, 3, 1)
    wt = wt.reshape(4 * width, width)
    # z * half is exact, so the inputs and recurrent weight take it up front
    xs = xv.reshape(size, n, dirs, 4, hid).transpose(1, 2, 3, 4, 0)[visit, across] \
        .swapaxes(1, 2).reshape(n, 4 * width, size) * half
    wt_half = wt * half
    # the per-step caches feed only the adjoint, so an untaped scan skips them
    keep = _TAPE is not None and (xg.requires_grad or wh.requires_grad)
    hs = np.zeros((n + 1, width, size))  # hs[0] is the start state, hs[k + 1] step k's
    if keep:
        gates = np.empty((n, 4 * width, size))
        tanh_c, c_prev = np.empty((n, width, size)), np.empty((n, width, size))
    h = c = hs[0]
    for k in range(n):
        a = np.tanh(xs[k] + wt_half @ h) * half + rest
        c_new = a[width:2 * width] * c + a[:width] * a[2 * width:3 * width]
        tc = np.tanh(c_new)
        if keep:
            gates[k], c_prev[k], tanh_c[k] = a, c, tc
        c, h = c_new, np.multiply(a[3 * width:], tc, out=hs[k + 1])

    def by_time(a):
        """(step, direction, feature, row) in visit order to xg's layout."""
        t = np.zeros((n,) + a.shape[1:])
        t[visit, across] = a
        return t.transpose(3, 0, 1, 2).reshape(xv.shape[:-1] + (a.shape[1] * a.shape[2],))

    out = by_time(hs[1:].reshape(n, dirs, hid, size))
    if not keep:
        return _wrap(out)

    def adjoint(g):
        gs = g.reshape(size, n, width).transpose(1, 2, 0).reshape(n, dirs, hid, size)
        gs = gs[visit, across].reshape(n, width, size)
        slope = gates * (1.0 - gates)
        slope[:, 2 * width:3 * width] = 1.0 - gates[:, 2 * width:3 * width] ** 2
        dz_all = np.empty((n, 4 * width, size))
        da = np.empty((4 * width, size))
        dh = dc = np.zeros((width, size))
        back = np.ascontiguousarray(wt.T)
        for k in reversed(range(n)):
            a, tc = gates[k], tanh_c[k]
            dh_t = dh + gs[k]
            dc_t = dc + dh_t * a[3 * width:] * (1.0 - tc * tc)
            da[:width] = dc_t * a[2 * width:3 * width]
            da[width:2 * width] = dc_t * c_prev[k]
            da[2 * width:3 * width] = dc_t * a[:width]
            da[3 * width:] = dh_t * tc
            dz = np.multiply(da, slope[k], out=dz_all[k])
            dh = back @ dz
            dc = dc_t * a[width:2 * width]
        # sum over every step and row, then keep each direction's own block
        full = hs[:-1].transpose(1, 0, 2).reshape(width, -1) @ \
            dz_all.transpose(0, 2, 1).reshape(-1, 4 * width)
        dwh = np.einsum("ahgae->ahge", full.reshape(dirs, hid, 4, dirs, hid))
        dz_t = dz_all.reshape(n, 4, dirs, hid, size).swapaxes(1, 2)
        return by_time(dz_t.reshape(n, dirs, 4 * hid, size)), dwh.reshape(whv.shape)

    return _result(out, (xg, wh), adjoint)


def attend(q: Tensor, k: Tensor, v: Tensor, inv: float,
           sc: Tensor = None, bi: Tensor = None, mask=None) -> Tensor:
    """Scaled dot-product attention softmax(sc * (q k^T * inv) + bi) v.

    ``q`` is (..., Lq, d), ``k`` (..., Lk, d) and ``v`` (..., Lk, dv);
    their leading batch axes broadcast against each other, and so do the
    optional score scale ``sc`` and bias ``bi`` (given together) against
    the (..., Lq, Lk) scores. ``mask``, a boolean array broadcastable to
    the scores, marks the real keys: a padded key gets exactly zero
    weight, and every query row needs at least one real key. Passing one
    tensor as several of q, k, v is how self-attention is spelled; its
    adjoint contributions add up.
    """
    qv, kv, vv = q.values, k.values, v.values
    if min(qv.ndim, kv.ndim, vv.ndim) < 2 or qv.shape[-1] != kv.shape[-1] \
            or kv.shape[-2] != vv.shape[-2]:
        raise ShapeError(f"attend: incompatible shapes q {qv.shape}, k {kv.shape}, v {vv.shape}")
    if (sc is None) != (bi is None):
        raise ContractError("attend: score scale and bias go together")
    raw = (qv @ np.swapaxes(kv, -1, -2)) * inv
    scores = raw if sc is None else raw * sc.values + bi.values
    if not np.all(np.isfinite(scores)):
        raise ContractError("attend: scores must be finite")
    if mask is None:
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    else:
        top = np.where(mask, scores, -np.inf).max(axis=-1, keepdims=True)
        if not np.all(np.isfinite(top)):
            raise ContractError("attend: a query row has no real key")
        e = np.exp(np.where(mask, scores - top, -np.inf))
    p = e / e.sum(axis=-1, keepdims=True)
    inputs = (q, k, v) if sc is None else (q, k, v, sc, bi)

    def adjoint(g):
        dp = g @ np.swapaxes(vv, -1, -2)
        ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True))
        extra = ()
        if sc is not None:
            extra = (_sum_to(ds * raw, sc.values.shape), _sum_to(ds, bi.values.shape))
            ds = ds * sc.values
        ds = ds * inv
        return (_sum_to(ds @ kv, qv.shape), _sum_to(np.swapaxes(ds, -1, -2) @ qv, kv.shape),
                _sum_to(np.swapaxes(p, -1, -2) @ g, vv.shape)) + extra

    return _result(p @ vv, inputs, adjoint)


def cosine_rows(a: Tensor, b: Tensor) -> Tensor:
    """Cosine similarity of each row of P x d ``a`` with its own K
    candidates, the rows of P x K x d ``b``, as P x K. A zero vector has
    no direction: its similarity is defined as 0 and passes no gradient.
    """
    av, bv = a.values, b.values
    if av.ndim != 2 or bv.ndim != 3 or bv.shape[0] != av.shape[0] or \
            bv.shape[2] != av.shape[1]:
        raise ShapeError(f"cosine_rows: need P x d and P x K x d, "
                         f"got {av.shape} and {bv.shape}")
    na = np.sqrt((av * av).sum(axis=1))[:, None]
    nb = np.sqrt((bv * bv).sum(axis=2))
    live = (nb > 0.0) & (na > 0.0)
    denom = np.where(live, na * nb, 1.0)
    cos = np.where(live, (bv @ av[:, :, None])[..., 0] / denom, 0.0)

    def adjoint(g):
        w = np.where(live, g / denom, 0.0)
        gc = (g * cos).sum(axis=1, keepdims=True)
        da = (w[:, :, None] * bv).sum(axis=1) - gc / np.where(na > 0.0, na * na, 1.0) * av
        db = w[:, :, None] * av[:, None, :] - \
            (g * cos / np.where(live, nb * nb, 1.0))[:, :, None] * bv
        return da, db

    return _result(cos, (a, b), adjoint)


# ---------------------------------------------------------------------------
# initialization and verification

def init_xavier(shape, rng: Rng) -> Tensor:
    """Uniform draw in +/- sqrt(6 / (fan_in + fan_out)), seed-reproducible,
    as a parameter that requires grad."""
    shape = tuple(shape)
    if len(shape) < 1:
        raise ContractError("init_xavier: shape needs at least one dim")
    fan_in = shape[0]
    fan_out = shape[-1] if len(shape) > 1 else shape[0]
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return _wrap(rng.uniform_array(shape, -bound, bound), True)


def finite_diff_check(f, x: Tensor, step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference grads.

    ``f`` must map the tensor to a scalar tensor and be re-evaluable.
    ``x.values`` is perturbed in place coordinate by coordinate and fully
    restored before returning.
    """
    if step <= 0:
        raise ContractError("finite_diff_check: step must be positive")
    saved_rg = x.requires_grad
    try:
        x.requires_grad = True
        tape = Tape()
        with recording(tape):
            y = f(x)
        x.grad = None
        backward(y, tape)
        analytic = x.grad.copy() if x.grad is not None else np.zeros_like(x.values)

        worst = 0.0
        flat = x.values.reshape(-1)
        aflat = analytic.reshape(-1)
        with recording(None):
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                fp = f(x).item()
                flat[i] = orig - step
                fm = f(x).item()
                flat[i] = orig
                numeric = (fp - fm) / (2.0 * step)
                a = aflat[i]
                rel = abs(a - numeric) / (abs(a) + abs(numeric) + 1e-12)
                if rel > worst:
                    worst = rel
        return worst
    finally:
        x.requires_grad = saved_rg
