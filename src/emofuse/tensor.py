"""Float64 tensors with a reverse-mode gradient tape.

Everything downstream (encoders, cross-modal attention, fusion, losses,
context classifier) is built from the operations in this module. Design
points that the rest of the package relies on:

* values are float64 and treated as immutable once an op has produced
  them (``finite_diff_check`` is the one sanctioned exception; it
  restores what it perturbs),
* gradients are recorded only inside a ``recording(tape)`` block, and
  ``backward`` replays the tape once, in reverse execution order, so
  accumulation order is fixed and runs are bit-reproducible,
* after ``backward`` every tensor that requires grad and lies upstream
  of the loss holds its full adjoint in ``.grad``; leaf grads accumulate
  across calls until ``zero_grad``,
* the model's three hot blocks are fused ops: ``lstm_scan`` (one LSTM
  direction), ``attend`` (scaled dot-product attention with an optional
  score affine) and ``cosine_rows`` (a query's cosine row against
  stacked candidates). Each runs its forward pass in numpy and records
  exactly one tape entry, whose pulls compute the hand-written adjoint
  once and share it between the inputs.
"""
from __future__ import annotations

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

    Each record is ``(out, pulls)`` where ``pulls`` is a tuple of
    ``(input_tensor, fn)`` and ``fn`` maps the adjoint of ``out`` to the
    adjoint contribution for that input.
    """

    __slots__ = ("records",)

    def __init__(self):
        self.records = []

    def __len__(self):
        return len(self.records)


class recording:
    """Context manager that activates a tape for op recording."""

    def __init__(self, tape: Tape):
        self.tape = tape
        self._prev = None

    def __enter__(self):
        global _TAPE
        self._prev = _TAPE
        _TAPE = self.tape
        return self.tape

    def __exit__(self, *exc):
        global _TAPE
        _TAPE = self._prev
        return False


def _result(values, pulls):
    tape = _TAPE
    if tape is not None and any(t.requires_grad for t, _ in pulls):
        out = _wrap(values, True)
        tape.records.append((out, pulls))
        return out
    return _wrap(values, False)


def backward(loss: Tensor, tape: Tape) -> None:
    """Populate ``.grad`` for every requires-grad tensor upstream of loss.

    Intermediate grads are cleared first; leaf grads accumulate, which is
    what per-utterance micro-batching relies on.
    """
    if loss.values.size != 1:
        raise ContractError(f"backward: loss must be scalar, got shape {loss.shape}")
    for out, _ in tape.records:
        out.grad = None
    loss.grad = np.ones_like(loss.values)
    for out, pulls in reversed(tape.records):
        g = out.grad
        if g is None:
            continue
        for inp, pull in pulls:
            if not inp.requires_grad:
                continue
            contrib = pull(g)
            if inp.grad is None:
                # a copy, never the pull's array: pulls may return g itself
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

def matmul(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.values, b.values
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {av.shape} x {bv.shape}")
    return _result(av @ bv, ((a, lambda g: g @ bv.T), (b, lambda g: av.T @ g)))


def add(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.values, b.values
    return _result(av + bv, ((a, lambda g: _sum_to(g, av.shape)),
                             (b, lambda g: _sum_to(g, bv.shape))))


def mul(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.values, b.values
    return _result(av * bv, ((a, lambda g: _sum_to(g * bv, av.shape)),
                             (b, lambda g: _sum_to(g * av, bv.shape))))


def div(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.values, b.values
    return _result(av / bv, ((a, lambda g: _sum_to(g / bv, av.shape)),
                             (b, lambda g: _sum_to(-g * av / (bv * bv), bv.shape))))


# ---------------------------------------------------------------------------
# scalar-parameter ops

def scale(a: Tensor, c: float) -> Tensor:
    return _result(a.values * c, ((a, lambda g: g * c),))


def add_scalar(a: Tensor, c: float) -> Tensor:
    return _result(a.values + c, ((a, lambda g: g),))


def neg(a: Tensor) -> Tensor:
    return _result(-a.values, ((a, lambda g: -g),))


def maximum_scalar(a: Tensor, c: float) -> Tensor:
    """Elementwise lower clamp; gradient passes only where a > c."""
    av = a.values
    return _result(np.maximum(av, c), ((a, lambda g: g * (av > c)),))


def powf(a: Tensor, p: float) -> Tensor:
    """Elementwise a**p for a >= 0; gradient is 0 where the base is 0."""
    av = a.values
    if p == 0.0:
        return _result(np.ones_like(av), ((a, lambda g: np.zeros_like(av)),))
    out = av ** p
    safe = np.where(av > 0.0, av, 1.0)
    dmask = np.where(av > 0.0, p * safe ** (p - 1.0), 0.0)
    return _result(out, ((a, lambda g: g * dmask),))


# ---------------------------------------------------------------------------
# elementwise nonlinearities

def relu(a: Tensor) -> Tensor:
    av = a.values
    return _result(np.maximum(av, 0.0), ((a, lambda g: g * (av > 0.0)),))


def log(a: Tensor) -> Tensor:
    av = a.values
    return _result(np.log(av), ((a, lambda g: g / av),))


# ---------------------------------------------------------------------------
# reductions and softmax

def sum_all(a: Tensor) -> Tensor:
    av = a.values
    return _result(np.asarray(av.sum()), ((a, lambda g: np.full_like(av, float(g))),))


def mean_all(a: Tensor) -> Tensor:
    av = a.values
    n = av.size
    return _result(np.asarray(av.mean()), ((a, lambda g: np.full_like(av, float(g) / n)),))


def mean_rows(a: Tensor) -> Tensor:
    """Mean over rows of an r x c matrix, keeping a 1 x c shape."""
    av = a.values
    if av.ndim != 2:
        raise ShapeError(f"mean_rows expects a matrix, got shape {av.shape}")
    r = av.shape[0]
    return _result(av.mean(axis=0, keepdims=True),
                   ((a, lambda g: np.broadcast_to(g / r, av.shape)),))


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax, stabilized by row-max subtraction."""
    xv = x.values
    if xv.ndim != 2:
        raise ShapeError(f"softmax_rows expects a matrix, got shape {xv.shape}")
    if not np.all(np.isfinite(xv)):
        raise ContractError("softmax_rows: input must be finite")
    shifted = xv - xv.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)

    def pull(g):
        return y * (g - (g * y).sum(axis=1, keepdims=True))

    return _result(y, ((x, pull),))


# ---------------------------------------------------------------------------
# structure ops

def reshape(a: Tensor, shape) -> Tensor:
    orig = a.values.shape
    return _result(a.values.reshape(shape), ((a, lambda g: g.reshape(orig)),))


def _concat(parts, axis):
    vs = [t.values for t in parts]
    out = np.concatenate(vs, axis=axis)
    pulls = []
    off = 0
    for t in parts:
        n = t.values.shape[axis]
        if axis == 0:
            pulls.append((t, lambda g, o=off, k=n: g[o:o + k]))
        else:
            pulls.append((t, lambda g, o=off, k=n: g[:, o:o + k]))
        off += n
    return _result(out, tuple(pulls))


def concat_rows(parts) -> Tensor:
    return _concat(list(parts), axis=0)


def concat_cols(parts) -> Tensor:
    return _concat(list(parts), axis=1)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    av = a.values

    def pull(g):
        z = np.zeros_like(av)
        z[start:stop] = g
        return z

    return _result(av[start:stop], ((a, pull),))


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    av = a.values

    def pull(g):
        z = np.zeros_like(av)
        z[:, start:stop] = g
        return z

    return _result(av[:, start:stop], ((a, pull),))


def pick(a: Tensor, i: int, j: int) -> Tensor:
    """Extract one entry of a matrix as a scalar tensor."""
    av = a.values

    def pull(g):
        z = np.zeros_like(av)
        z[i, j] = float(g)
        return z

    return _result(np.asarray(av[i, j]), ((a, pull),))


# ---------------------------------------------------------------------------
# fused ops: one record each, adjoint computed once for all inputs

def _joint_pulls(inputs, adjoint):
    """Pulls for inputs whose adjoints come from one shared computation.

    ``adjoint(g)`` returns one array per input. It runs once per
    upstream gradient, however many of the inputs ask for theirs.
    """
    memo = [None, None]  # (g, adjoint(g))

    def pull_for(i):
        def pull(g):
            if memo[0] is not g:
                memo[0], memo[1] = g, adjoint(g)
            return memo[1][i]
        return pull

    return tuple((t, pull_for(i)) for i, t in enumerate(inputs))


def lstm_scan(xg: Tensor, wh: Tensor, order) -> Tensor:
    """One LSTM direction over precomputed input projections.

    ``xg`` is n x 4H (inputs already through their weight and bias),
    ``wh`` the H x 4H recurrent weight, with gate blocks ordered input,
    forget, candidate, output; ``order`` visits every timestep once.
    The state starts at zero. Returns the n x H hidden states indexed by
    timestep, not visit order. The pull runs backpropagation through
    time into ``xg`` and ``wh``.
    """
    xv, whv = xg.values, wh.values
    if xv.ndim != 2 or xv.shape[1] % 4 or whv.shape != (xv.shape[1] // 4, xv.shape[1]):
        raise ShapeError(f"lstm_scan: need n x 4H and H x 4H, got {xv.shape} and {whv.shape}")
    n, four_h = xv.shape
    hid = four_h // 4
    steps = list(order)
    # sigmoid(z) = (1 + tanh(z / 2)) / 2, so one tanh gives all four gates
    half = np.full(four_h, 0.5)
    half[2 * hid:3 * hid] = 1.0
    rest = 1.0 - half
    # the per-step caches feed only the pull, so an untaped scan skips them
    keep = _TAPE is not None and (xg.requires_grad or wh.requires_grad)
    hs = np.empty((n, hid))
    if keep:
        gates = np.empty((n, four_h))
        tanh_c = np.empty((n, hid))
        c_prev = np.empty((n, hid))
        h_prev = np.empty((n, hid))
    h = np.zeros(hid)
    c = np.zeros(hid)
    for t in steps:
        a = np.tanh((xv[t] + h @ whv) * half) * half + rest
        if keep:
            gates[t] = a
            c_prev[t] = c
            h_prev[t] = h
        c = a[hid:2 * hid] * c + a[:hid] * a[2 * hid:3 * hid]
        tc = np.tanh(c)
        h = a[3 * hid:] * tc
        hs[t] = h
        if keep:
            tanh_c[t] = tc
    if not keep:
        return _wrap(hs)

    def adjoint(g):
        slope = gates * (1.0 - gates)
        slope[:, 2 * hid:3 * hid] = 1.0 - gates[:, 2 * hid:3 * hid] ** 2
        dxg = np.empty((n, four_h))
        da = np.empty(four_h)
        dh = np.zeros(hid)
        dc = np.zeros(hid)
        for t in reversed(steps):
            a, tc = gates[t], tanh_c[t]
            dh = g[t] + dh
            dc = dc + dh * a[3 * hid:] * (1.0 - tc * tc)
            da[:hid] = dc * a[2 * hid:3 * hid]
            da[hid:2 * hid] = dc * c_prev[t]
            da[2 * hid:3 * hid] = dc * a[:hid]
            da[3 * hid:] = dh * tc
            dz = da * slope[t]
            dxg[t] = dz
            dc = dc * a[hid:2 * hid]
            dh = whv @ dz
        return dxg, h_prev.T @ dxg

    return _result(hs, _joint_pulls((xg, wh), adjoint))


def attend(q: Tensor, k: Tensor, v: Tensor, inv: float,
           sc: Tensor = None, bi: Tensor = None) -> Tensor:
    """Scaled dot-product attention softmax(sc * (q k^T * inv) + bi) v.

    ``sc`` and ``bi`` are an optional 1 x 1 score scale and bias, given
    together. Passing one tensor as several of q, k, v is how
    self-attention is spelled; its adjoint contributions add up.
    """
    qv, kv, vv = q.values, k.values, v.values
    if qv.ndim != 2 or kv.ndim != 2 or vv.ndim != 2 or qv.shape[1] != kv.shape[1] \
            or kv.shape[0] != vv.shape[0]:
        raise ShapeError(f"attend: incompatible shapes q {qv.shape}, k {kv.shape}, v {vv.shape}")
    if (sc is None) != (bi is None):
        raise ContractError("attend: score scale and bias go together")
    raw = (qv @ kv.T) * inv
    scores = raw if sc is None else raw * sc.values + bi.values
    if not np.all(np.isfinite(scores)):
        raise ContractError("attend: scores must be finite")
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    inputs = (q, k, v) if sc is None else (q, k, v, sc, bi)

    def adjoint(g):
        dp = g @ vv.T
        ds = p * (dp - (dp * p).sum(axis=1, keepdims=True))
        extra = ()
        if sc is not None:
            extra = (np.full(sc.values.shape, (ds * raw).sum()),
                     np.full(bi.values.shape, ds.sum()))
            ds = ds * sc.values
        ds = ds * inv
        return (ds @ kv, ds.T @ qv, p.T @ g) + extra

    return _result(p @ vv, _joint_pulls(inputs, adjoint))


def cosine_rows(a: Tensor, b: Tensor) -> Tensor:
    """Cosine similarity of a 1 x d query with each row of K x d ``b``, as 1 x K.

    A zero vector has no direction: its similarity is defined as 0 and
    passes no gradient.
    """
    av, bv = a.values, b.values
    if av.ndim != 2 or av.shape[0] != 1 or bv.ndim != 2 or bv.shape[1] != av.shape[1]:
        raise ShapeError(f"cosine_rows: need 1 x d and K x d, got {av.shape} and {bv.shape}")
    na = np.sqrt((av * av).sum())
    nb = np.sqrt((bv * bv).sum(axis=1))
    live = (nb > 0.0) & (na > 0.0)
    denom = np.where(live, na * nb, 1.0)
    cos = np.where(live, (bv @ av[0]) / denom, 0.0)

    def adjoint(g):
        w = np.where(live, g[0] / denom, 0.0)
        gc = g[0] * cos
        da = w @ bv - (gc.sum() / (na * na if na > 0.0 else 1.0)) * av[0]
        db = w[:, None] * av - (gc / np.where(live, nb * nb, 1.0))[:, None] * bv
        return da[None, :], db

    return _result(cos[None, :], _joint_pulls((a, b), adjoint))


# ---------------------------------------------------------------------------
# initialization and verification

def init_xavier(shape, rng: Rng, requires_grad: bool = True) -> Tensor:
    """Uniform draw in +/- sqrt(6 / (fan_in + fan_out)), seed-reproducible."""
    shape = tuple(shape)
    if len(shape) < 1:
        raise ContractError("init_xavier: shape needs at least one dim")
    fan_in = shape[0]
    fan_out = shape[-1] if len(shape) > 1 else shape[0]
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return _wrap(rng.uniform_array(shape, -bound, bound), requires_grad)


def finite_diff_check(f, x: Tensor, step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference grads.

    ``f`` must map the tensor to a scalar tensor and be re-evaluable.
    ``x.values`` is perturbed in place coordinate by coordinate and fully
    restored before returning.
    """
    if step <= 0:
        raise ContractError("finite_diff_check: step must be positive")
    global _TAPE
    saved_tape = _TAPE
    saved_rg = x.requires_grad
    _TAPE = None
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
        _TAPE = saved_tape
