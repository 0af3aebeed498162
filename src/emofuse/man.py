"""Cross-modal attention network.

Each mode owns a query network of ``layers`` dense transforms. After
every dense transform, the running representation receives a residual
injection attended from the other modes: keys and values are bias-free
linear maps of those modes' encoder outputs, scores get a learnable
scalar affine before the row softmax, and the injections are averaged
over the full mode count. Heads share dense weights and differ only in
their key/value/affine maps; head outputs are averaged, pooled over
rows, and classified per mode.
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
    f_ca: T.Tensor   # 1 x descriptor_dim
    probs: T.Tensor  # 1 x num_classes


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


def peripheral_kv(f_mi: T.Tensor, maps: CrossMaps):
    """Bias-free key/value projections of one peripheral mode's encoder output."""
    if f_mi.values.shape[1] != maps.wk.values.shape[0]:
        raise ShapeError(
            f"peripheral width {f_mi.values.shape[1]} does not match projection "
            f"input width {maps.wk.values.shape[0]}")
    return T.matmul(f_mi, maps.wk), T.matmul(f_mi, maps.wv)


def cross_attend_layer(g_prev: T.Tensor, kv_pairs, affines, num_modes: int) -> T.Tensor:
    """Residual cross-modal injection for one layer of one head.

    ``kv_pairs`` is a list of (K, V) per peripheral mode, ``affines`` the
    matching (scale, bias) scalar pairs. The summed injections are
    averaged over the full mode count ``num_modes``.
    """
    if not kv_pairs:
        raise ContractError("cross_attend_layer: empty peripheral set")
    if len(kv_pairs) != len(affines):
        raise ContractError("cross_attend_layer: kv/affine count mismatch")
    d_l = g_prev.values.shape[1]
    inv = 1.0 / math.sqrt(d_l)
    total = None
    for (k, v), (sc, bi) in zip(kv_pairs, affines):
        attended = T.attend(g_prev, k, v, inv, sc, bi)
        total = attended if total is None else T.add(total, attended)
    return T.add(g_prev, T.scale(total, 1.0 / num_modes))


def man_forward(encoded: dict, params: dict, trace=None) -> dict:
    """Run every mode's query network with cross-modal injections.

    ``encoded`` maps mode name to that mode's full encoder output matrix.
    Returns a dict of CrossAttendedDescriptor. When ``trace`` is a list,
    (mode, layer, head, dense_out, after_injection) tuples are appended
    for every cross-attention application.
    """
    modes = tuple(params)
    if len(modes) < 2:
        raise ContractError("man_forward: need at least 2 modes")
    for mode in modes:
        if mode not in encoded:
            raise ContractError(f"man_forward: missing encoder output for mode {mode}")

    num_modes = len(modes)
    out = {}
    for mode in modes:
        p = params[mode]
        n_layers = len(p.dense)
        heads = []
        num_heads = max(h for (_, _, h) in p.cross) + 1 if p.cross else 1
        for head in range(num_heads):
            g = encoded[mode]
            for layer, (w, b) in enumerate(p.dense):
                g = T.add(T.matmul(g, w), b)
                if layer < n_layers - 1:
                    g = T.relu(g)
                dense_out = g
                kv_pairs = []
                affines = []
                for mi in p.peripherals:
                    maps = p.cross[(layer, mi, head)]
                    kv_pairs.append(peripheral_kv(encoded[mi], maps))
                    affines.append((maps.score_scale, maps.score_bias))
                g = cross_attend_layer(g, kv_pairs, affines, num_modes)
                if trace is not None:
                    trace.append((mode, layer, head, dense_out, g))
            heads.append(g)
        acc = heads[0]
        for h in heads[1:]:
            acc = T.add(acc, h)
        avg = T.scale(acc, 1.0 / num_heads) if num_heads > 1 else acc
        f_ca = T.mean_rows(avg)
        probs = T.softmax_rows(T.add(T.matmul(f_ca, p.cls_w), p.cls_b))
        out[mode] = CrossAttendedDescriptor(f_ca=f_ca, probs=probs)
    return out
