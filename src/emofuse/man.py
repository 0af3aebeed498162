"""Cross-modal attention network.

Each mode owns a query network of ``layers`` dense transforms. After
every dense transform, the running representation receives a residual
injection attended from the other modes: keys and values are bias-free
linear maps of those modes' encoder outputs, scores get a learnable
scalar affine before the row softmax, and the injections are averaged
over the full mode count. Heads share dense weights and differ only in
their key/value/affine maps; head outputs are averaged, pooled over
rows, and classified per mode.

The query networks of all modes run as one, on a padded batch of
utterances: each mode's encoder rows and weights are zero-padded and
placed at its index of one stack. One matmul gives the keys and values
of every layer, peripheral, mode and head; each layer is then one
affine, one relu and one masked ``tensor.attend`` over the (peripheral,
mode, head, batch) axes, so the tape grows by a fixed count per call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ContractError, ShapeError
from .rng import Rng


@dataclass
class ManConfig:
    num_classes: int
    layers: int = 4
    heads: int = 2
    descriptor_dim: int = 8

    def __post_init__(self):
        if self.num_classes < 2:
            raise ContractError("ManConfig.num_classes must be at least 2")
        for name in ("layers", "heads", "descriptor_dim"):
            if getattr(self, name) < 1:
                raise ContractError(f"ManConfig.{name} must be positive")


@dataclass
class CrossMaps:
    """Key/value projections plus the score affine for one
    (layer, peripheral mode, head) slot."""
    wk: T.Tensor
    wv: T.Tensor
    score_scale: T.Tensor  # 1x1, init 1
    score_bias: T.Tensor   # 1x1, init 0

    def tensors(self):
        return [self.wk, self.wv, self.score_scale, self.score_bias]


@dataclass
class ModeManParams:
    peripherals: tuple
    dense: list = field(default_factory=list)   # [(w, b)] per layer, head-shared
    cross: dict = field(default_factory=dict)   # (layer, peripheral, head) -> CrossMaps
    cls_w: T.Tensor = None
    cls_b: T.Tensor = None

    def tensors(self):
        out = []
        for w, b in self.dense:
            out.extend([w, b])
        for key in sorted(self.cross):
            out.extend(self.cross[key].tensors())
        out.extend([self.cls_w, self.cls_b])
        return out


@dataclass
class CrossAttendedDescriptor:
    f_ca: T.Tensor   # B x descriptor_dim, one row per utterance
    probs: T.Tensor  # B x num_classes


def init_man(config: ManConfig, encoder_dims: dict, rng: Rng) -> dict:
    """Build per-mode parameters.

    ``encoder_dims`` maps mode name to its encoder output width; its key
    set defines the mode universe (at least 2 modes).
    """
    modes = tuple(encoder_dims)
    if len(modes) < 2:
        raise ContractError("cross-modal attention needs at least 2 modes")
    d = config.descriptor_dim

    def zeros(shape):
        return T.Tensor(np.zeros(shape), requires_grad=True)

    params = {}
    for mode in modes:
        peripherals = tuple(mi for mi in modes if mi != mode)
        dense = []
        din = encoder_dims[mode]
        for _ in range(config.layers):
            dense.append((T.init_xavier((din, d), rng), zeros((1, d))))
            din = d
        cross = {}
        for layer in range(config.layers):
            for mi in peripherals:
                for head in range(config.heads):
                    cross[(layer, mi, head)] = CrossMaps(
                        wk=T.init_xavier((encoder_dims[mi], d), rng),
                        wv=T.init_xavier((encoder_dims[mi], d), rng),
                        score_scale=T.Tensor(np.ones((1, 1)), requires_grad=True),
                        score_bias=zeros((1, 1)),
                    )
        params[mode] = ModeManParams(
            peripherals=peripherals, dense=dense, cross=cross,
            cls_w=T.init_xavier((d, config.num_classes), rng),
            cls_b=zeros((1, config.num_classes)),
        )
    return params


def peripheral_kv(f_mi: T.Tensor, maps):
    """Bias-free key/value projections of peripheral encoder rows, from one
    matmul over the column-stacked maps.

    ``maps`` is one CrossMaps, or a nested list of them of shape S: each
    map's [wk | wv], zero-padded to the width k of ``f_mi`` (..., n, k),
    sits at its index of one S x k x 2d weight, whose leading axes
    broadcast against those of ``f_mi`` as in numpy's matmul.
    """
    grid = np.array(maps, dtype=object)
    width = f_mi.values.shape[-1]
    d = grid.flat[0].wk.values.shape[1]
    parts = []
    for index, m in np.ndenumerate(grid):
        if m.wk.values.shape[0] > width:
            raise ShapeError(f"peripheral width {width} is narrower than projection "
                             f"input width {m.wk.values.shape[0]}")
        rows = slice(m.wk.values.shape[0])
        parts += [(m.wk, index + (rows, slice(d))), (m.wv, index + (rows, slice(d, 2 * d)))]
    kv = T.matmul(f_mi, T.place(grid.shape + (width, 2 * d), parts))
    return T.slice_cols(kv, 0, d), T.slice_cols(kv, d, 2 * d)


def cross_attend_layer(g_prev: T.Tensor, kv_pairs, affines, num_modes: int,
                       mask=None) -> T.Tensor:
    """Residual cross-modal injection for one layer, every peripheral in
    one attention call.

    ``kv_pairs`` is a list of (K, V), one per peripheral mode as
    `peripheral_kv` makes them, and ``affines`` the matching 1 x 1
    (scale, bias) pairs; or one (K, V) and one (scale, bias) pair stacked
    on a leading peripheral axis of the (peripheral, ..., query, key)
    scores. ``mask``, broadcastable to the scores, marks the real keys
    (None: all real). The summed injections are averaged over the full
    mode count ``num_modes``.
    """
    if isinstance(kv_pairs, list):
        if not kv_pairs or len(kv_pairs) != len(affines):
            raise ContractError("cross_attend_layer: need one (scale, bias) per (K, V), "
                                "and at least one peripheral")
        if len({k.values.shape for k, _ in kv_pairs}) != 1:
            raise ShapeError("cross_attend_layer: peripheral keys differ in shape "
                             f"{[k.values.shape for k, _ in kv_pairs]}")
        shape = (len(kv_pairs),) + (1,) * kv_pairs[0][0].values.ndim
        kv_pairs, affines = ([T.stack([pair[j] for pair in kv_pairs]) for j in (0, 1)],
                             [T.place(shape, [(pair[j], i) for i, pair in enumerate(affines)])
                              for j in (0, 1)])
    (keys, values), (scale, bias) = kv_pairs, affines
    inv = 1.0 / math.sqrt(g_prev.values.shape[-1])
    attended = T.attend(g_prev, keys, values, inv, scale, bias, mask)
    return T.add(g_prev, T.scale(T.sum_axis(attended, 0), 1.0 / num_modes))


def man_forward(encoded: dict, params: dict, trace=None, masks=None) -> dict:
    """Run every mode's query network with cross-modal injections.

    ``encoded`` maps mode name to that mode's encoder rows for a batch,
    B x L_m x d_m, with ``masks`` mode -> B x L_m boolean marking the real
    rows (None: all real); one L_m x d_m matrix per mode is a batch of
    one. Returns a dict of CrossAttendedDescriptor with one row per
    utterance. When ``trace`` is a list, (mode, layer, head, dense_out,
    after_injection) tuples are appended for every cross-attention
    application, each tensor B x L x d over the padded rows.
    """
    modes = tuple(params)
    if len(modes) < 2:
        raise ContractError("man_forward: need at least 2 modes")
    for mode in modes:
        if mode not in encoded:
            raise ContractError(f"man_forward: missing encoder output for mode {mode}")
    ps = [params[m] for m in modes]
    xs = [encoded[m] for m in modes]
    num_modes, n_layers = len(modes), len(ps[0].dense)
    num_heads = max(h for (_, _, h) in ps[0].cross) + 1
    size = xs[0].values.shape[0] if xs[0].values.ndim == 3 else 1
    length = max(x.values.shape[-2] for x in xs)
    d, classes = ps[0].cls_w.values.shape

    # every mode's rows zero-padded to one length and width; real marks
    # the rows that are not padding
    real = np.zeros((num_modes, size, length), dtype=bool)
    for i, (mode, x) in enumerate(zip(modes, xs)):
        real[i, :, :x.values.shape[-2]] = True if masks is None else masks[mode]
    rows = _stack(xs, (1, size, length, max(x.values.shape[-1] for x in xs)))

    # entry (j, i) of index is query mode i's j-th peripheral; keys and
    # values for every layer come from one matmul
    index = np.array([[modes.index(mi) for mi in p.peripherals] for p in ps]).T
    grid = np.array([[[[p.cross[(layer, p.peripherals[j], h)] for h in range(num_heads)]
                       for p in ps] for j in range(num_modes - 1)]
                     for layer in range(n_layers)], dtype=object)
    periph = T.reshape(T.take_rows(rows, index), index.shape + (1, -1, rows.values.shape[-1]))
    keys, values = (T.reshape(t, t.values.shape[:-2] + (size, length, d))
                    for t in peripheral_kv(periph, grid))
    scale, bias = (T.place(grid.shape + (1, 1, 1), [(getattr(m, name), i)
                                                    for i, m in np.ndenumerate(grid)])
                   for name in ("score_scale", "score_bias"))
    key_mask = real[index][:, :, None, :, None, :]

    g = rows
    for layer in range(n_layers):
        g = T.affine(g, _stack([p.dense[layer][0] for p in ps], (1, 1, g.values.shape[-1], d)),
                     _stack([p.dense[layer][1] for p in ps], (1, 1, 1, d)))
        if layer < n_layers - 1:
            g = T.maximum_scalar(g, 0.0)
        dense_out = g
        g = cross_attend_layer(
            g, tuple(T.take_rows(t, layer) for t in (keys, values)),
            tuple(T.take_rows(t, layer) for t in (scale, bias)), num_modes, key_mask)
        if trace is not None:
            before = np.broadcast_to(dense_out.values, g.values.shape)
            for i, mode in enumerate(modes):
                for head in range(num_heads):
                    trace.append((mode, layer, head, T.Tensor(before[i, head]),
                                  T.Tensor(g.values[i, head])))
    # average the heads, then each utterance's real rows
    weights = real / real.sum(axis=2, keepdims=True) / num_heads
    f_ca = T.sum_axis(T.mul(T.sum_axis(g, 1), T.Tensor(weights[..., None])), 2)
    probs = T.softmax_rows(T.affine(f_ca, _stack([p.cls_w for p in ps], (d, classes)),
                                    _stack([p.cls_b for p in ps], (1, classes))))
    return {mode: CrossAttendedDescriptor(f_ca=T.take_rows(f_ca, i), probs=T.take_rows(probs, i))
            for i, mode in enumerate(modes)}


def _stack(parts, shape) -> T.Tensor:
    """``parts`` zero-padded to ``shape``, each aligned at its last axes,
    and stacked on a new leading (mode) axis, as one record."""
    return T.place((len(parts),) + shape, [
        (t, (i,) + (0,) * (len(shape) - t.values.ndim) + tuple(map(slice, t.values.shape)))
        for i, t in enumerate(parts)])
