"""Cross-modal attention network.

Each mode owns a query network of ``layers`` dense transforms. After
every dense transform, the running representation receives a residual
injection attended from the other modes: keys and values are bias-free
linear maps of those modes' encoder outputs, scores get a learnable
scalar affine before the row softmax, and the injections are averaged
over the full mode count. Heads share dense weights and differ only in
their key/value/affine maps; head outputs are averaged, pooled over
rows, and classified per mode.

The network runs on a padded batch of utterances. Every mode's rows are
padded to one length, so at each (mode, layer) the heads and
peripherals fold into leading batch axes of a single masked
``tensor.attend`` call, and each peripheral's keys and values for all
heads come from one matmul over column-stacked maps.
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
    """Bias-free key/value projections of one peripheral mode's encoder
    output, from one matmul over the column-stacked maps.

    ``maps`` is one CrossMaps, or a list of them, one per head; with a
    list, K and V gain a leading head axis.
    """
    many = isinstance(maps, (list, tuple))
    heads = list(maps) if many else [maps]
    if f_mi.values.shape[-1] != heads[0].wk.values.shape[0]:
        raise ShapeError(
            f"peripheral width {f_mi.values.shape[-1]} does not match projection "
            f"input width {heads[0].wk.values.shape[0]}")
    kv = T.matmul(f_mi, T.concat_cols([w for m in heads for w in (m.wk, m.wv)]))
    if many:
        kv = T.split_cols(kv, len(heads))
    d = heads[0].wk.values.shape[1]
    return T.slice_cols(kv, 0, d), T.slice_cols(kv, d, 2 * d)


def cross_attend_layer(g_prev: T.Tensor, kv_pairs, affines, num_modes: int,
                       key_masks=None) -> T.Tensor:
    """Residual cross-modal injection for one layer, all heads and
    peripherals in one attention call.

    ``kv_pairs`` is a list of (K, V) per peripheral mode, as
    `peripheral_kv` makes them, all padded to one key length;
    ``affines`` the matching (scale, bias) pairs, each a 1 x 1 tensor or
    a list with one per head; ``key_masks`` one boolean array per
    peripheral marking its real keys (None: all real). The summed
    injections are averaged over the full mode count ``num_modes``.
    """
    if not kv_pairs:
        raise ContractError("cross_attend_layer: empty peripheral set")
    if len(kv_pairs) != len(affines):
        raise ContractError("cross_attend_layer: kv/affine count mismatch")
    if len({k.values.shape for k, _ in kv_pairs}) != 1:
        raise ShapeError("cross_attend_layer: peripheral keys differ in shape "
                         f"{[k.values.shape for k, _ in kv_pairs]}")
    keys = T.stack([k for k, _ in kv_pairs])
    values = T.stack([v for _, v in kv_pairs])
    # one scale and bias per (peripheral, head), shaped to broadcast over
    # the (peripheral, [head,] ..., query, key) scores
    per_head = isinstance(affines[0][0], (list, tuple))
    head_axes = (len(affines[0][0]),) if per_head else ()
    shape = (len(kv_pairs),) + head_axes + \
        (1,) * (keys.values.ndim - 1 - len(head_axes))

    def stacked(j):
        parts = [t for pair in affines for t in (pair[j] if per_head else [pair[j]])]
        return T.reshape(T.concat_rows(parts), shape)

    mask = None
    if key_masks is not None:
        m = np.stack(key_masks)[..., None, :]
        mask = m.reshape(m.shape[:1] + (1,) * len(head_axes) + m.shape[1:])
    inv = 1.0 / math.sqrt(g_prev.values.shape[-1])
    attended = T.attend(g_prev, keys, values, inv, stacked(0), stacked(1), mask)
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

    # pad every mode to one length, so all of a query's peripherals stack
    rows, real = {}, {}
    for mode in modes:
        x = encoded[mode]
        if x.values.ndim == 2:
            x = T.reshape(x, (1,) + x.values.shape)
        rows[mode] = x
        real[mode] = np.ones(x.values.shape[:2], dtype=bool) if masks is None else masks[mode]
    length = max(x.values.shape[1] for x in rows.values())
    for mode in modes:
        size, n, width = rows[mode].values.shape
        if n < length:
            pad = (size, length - n)
            rows[mode] = T.concat([rows[mode], T.Tensor(np.zeros(pad + (width,)))], 1)
            real[mode] = np.concatenate([real[mode], np.zeros(pad, dtype=bool)], axis=1)

    num_modes = len(modes)
    out = {}
    for mode in modes:
        p = params[mode]
        n_layers = len(p.dense)
        num_heads = max(h for (_, _, h) in p.cross) + 1 if p.cross else 1
        g = rows[mode]
        for layer, (w, b) in enumerate(p.dense):
            g = T.affine(g, w, b)
            if layer < n_layers - 1:
                g = T.relu(g)
            dense_out = g
            slots = [[p.cross[(layer, mi, h)] for h in range(num_heads)]
                     for mi in p.peripherals]
            g = cross_attend_layer(
                g, [peripheral_kv(rows[mi], maps) for mi, maps in zip(p.peripherals, slots)],
                [([m.score_scale for m in maps], [m.score_bias for m in maps])
                 for maps in slots],
                num_modes, [real[mi] for mi in p.peripherals])
            if trace is not None:
                dense = np.broadcast_to(dense_out.values, g.values.shape)
                for head in range(num_heads):
                    trace.append((mode, layer, head, T.Tensor(dense[head]),
                                  T.Tensor(g.values[head])))
        # average the heads, then each utterance's real rows
        avg = T.sum_axis(g, 0)
        if num_heads > 1:
            avg = T.scale(avg, 1.0 / num_heads)
        weights = real[mode] / real[mode].sum(axis=1, keepdims=True)
        f_ca = T.sum_axis(T.mul(avg, T.Tensor(weights[:, :, None])), 1)
        probs = T.softmax_rows(T.affine(f_ca, p.cls_w, p.cls_b))
        out[mode] = CrossAttendedDescriptor(f_ca=f_ca, probs=probs)
    return out
