"""Adaptive fusion of the cross-attended mode descriptors.

The fused vector concatenates one block per mode; each block linearly
interpolates the mode's own descriptor with every other mode's, governed
by pairwise coefficients in [0, 1]. The coefficients themselves come
from two learned scalars composed into a per-mode probability vector,
estimated sample-by-sample from validation gradients and smoothed with
an exponential moving average between batches.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .encoders import MODES
from .errors import ContractError


def compose_alphas(alpha_prime_1: float, alpha_prime_2: float):
    """Nest the two learned scalars into three per-mode weights.

    The products (a1*a2, a2*(1-a1), 1-a2) are nonnegative and sum to 1
    identically for inputs in [0, 1].
    """
    for name, v in (("alpha_prime_1", alpha_prime_1), ("alpha_prime_2", alpha_prime_2)):
        if not 0.0 <= v <= 1.0:
            raise ContractError(f"compose_alphas: {name}={v} outside [0, 1]")
    return (alpha_prime_1 * alpha_prime_2,
            alpha_prime_2 * (1.0 - alpha_prime_1),
            1.0 - alpha_prime_2)


def pairwise_from_composed(composed) -> dict:
    """Bridge per-mode weights to the pairwise coefficients fusion needs.

    alpha[(m, mi)] = w_m / (w_m + w_mi), falling back to 0.5 when both
    weights are zero. Complementary pairs sum to 1.
    """
    if len(composed) != len(MODES):
        raise ContractError("pairwise_from_composed: one weight per mode required")
    w = dict(zip(MODES, composed))
    out = {}
    for m in MODES:
        for mi in MODES:
            if m == mi:
                continue
            denom = w[m] + w[mi]
            out[(m, mi)] = 0.5 if denom == 0.0 else w[m] / denom
    return out


@dataclass
class AlphaState:
    """Learned interpolation scalars plus their update hyperparameters."""
    alpha_prime_1: float = 0.5
    alpha_prime_2: float = 0.5
    epsilon: float = 0.1
    momentum: float = 0.9

    def __post_init__(self):
        if not 0.0 <= self.alpha_prime_1 <= 1.0 or not 0.0 <= self.alpha_prime_2 <= 1.0:
            raise ContractError("AlphaState scalars must lie in [0, 1]")
        if self.epsilon <= 0.0:
            raise ContractError("AlphaState.epsilon must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ContractError("AlphaState.momentum must lie in [0, 1)")

    def composed(self):
        return compose_alphas(self.alpha_prime_1, self.alpha_prime_2)

    def pairwise(self) -> dict:
        return pairwise_from_composed(self.composed())

    def estimate(self, f: dict, grads: dict):
        """One sample's (a1', a2') from its mode descriptors ``f`` and the
        loss gradients ``grads`` at them: a1' weighs text against video,
        a2' the current text/video mixture against audio."""
        a1 = estimate_alpha_pair(f["text"], f["video"], grads["video"], self.epsilon)
        mix = self.alpha_prime_1 * f["text"] + (1.0 - self.alpha_prime_1) * f["video"]
        return a1, estimate_alpha_pair(mix, f["audio"], grads["audio"], self.epsilon)

    def to_dict(self) -> dict:
        return {"alpha_prime_1": self.alpha_prime_1, "alpha_prime_2": self.alpha_prime_2,
                "epsilon": self.epsilon, "momentum": self.momentum}

    @classmethod
    def from_dict(cls, d: dict) -> "AlphaState":
        return cls(**d)


def adaptive_fuse(descriptors: dict, alphas: dict) -> T.Tensor:
    """Interpolate and concatenate mode descriptors into B x (|M| d) rows.

    ``descriptors`` maps mode -> B x d tensor, one row per utterance of a
    batch; ``alphas`` maps ordered mode pairs (m, mi) -> coefficient in
    [0, 1]. Gradients flow through the descriptors; the coefficients are
    plain floats. Blocks follow ``MODES`` order.
    """
    for m in MODES:
        if m not in descriptors:
            raise ContractError(f"adaptive_fuse: missing descriptor for mode {m}")
    n = len(MODES)
    blocks = []
    for m in MODES:
        acc = None
        for mi in MODES:
            if mi == m:
                continue
            a = alphas.get((m, mi))
            if a is None:
                raise ContractError(f"adaptive_fuse: missing coefficient for pair {(m, mi)}")
            if not 0.0 <= a <= 1.0:
                raise ContractError(f"adaptive_fuse: coefficient {a} for {(m, mi)} outside [0, 1]")
            term = T.add(T.scale(descriptors[m], a), T.scale(descriptors[mi], 1.0 - a))
            acc = term if acc is None else T.add(acc, term)
        blocks.append(T.scale(acc, 1.0 / n))
    return T.concat(blocks, -1)


def estimate_alpha_pair(f_a, f_b, grad_b, epsilon: float) -> float:
    """One-sample coefficient estimate from the loss gradient at f_b.

    Elementwise ratio epsilon * ||f_a - f_b|| * grad_b / (||grad_b|| * (f_a - f_b)),
    entries clamped to [0, 1], reduced by mean. Degenerate cases: zero
    gradient -> 0.0 (nothing to move), identical descriptors -> 0.5
    (interpolation irrelevant); zero-delta entries alongside nonzero
    ones are dropped from the mean.
    """
    if epsilon <= 0.0:
        raise ContractError("estimate_alpha_pair: epsilon must be positive")
    fa = np.asarray(f_a, dtype=np.float64).reshape(-1)
    fb = np.asarray(f_b, dtype=np.float64).reshape(-1)
    gb = np.asarray(grad_b, dtype=np.float64).reshape(-1)
    delta = fa - fb
    norm_grad = float(np.linalg.norm(gb))
    if norm_grad == 0.0:
        return 0.0
    norm_delta = float(np.linalg.norm(delta))
    if norm_delta == 0.0:
        return 0.5
    live = delta != 0.0
    ratio = epsilon * norm_delta * gb[live] / (norm_grad * delta[live])
    ratio = np.where(np.isnan(ratio), 0.5, ratio)
    return float(np.clip(ratio, 0.0, 1.0).mean())


def update_alphas(current: AlphaState, estimates) -> AlphaState:
    """Fold a batch of per-sample (a1', a2') estimates into the state by EMA."""
    estimates = list(estimates)
    if not estimates:
        raise ContractError("update_alphas: empty estimate batch")
    m1 = sum(e[0] for e in estimates) / len(estimates)
    m2 = sum(e[1] for e in estimates) / len(estimates)
    mom = current.momentum
    return replace(current,
                   alpha_prime_1=mom * current.alpha_prime_1 + (1.0 - mom) * m1,
                   alpha_prime_2=mom * current.alpha_prime_2 + (1.0 - mom) * m2)


def select_informative_samples(sample_ids, predict, estimate, current: AlphaState,
                               budget: int):
    """Pick validation samples whose prediction flips under their own
    coefficient estimate.

    ``predict(sample_id, alpha_state) -> class index`` and
    ``estimate(sample_id) -> (a1', a2')`` are supplied by the caller.
    Returns up to ``budget`` ids in input order.
    """
    ids = list(sample_ids)
    if not ids:
        raise ContractError("select_informative_samples: empty validation set")
    if budget < 1:
        raise ContractError("select_informative_samples: budget must be >= 1")
    chosen = []
    for sid in ids:
        base = predict(sid, current)
        a1, a2 = estimate(sid)
        candidate = replace(current,
                            alpha_prime_1=float(np.clip(a1, 0.0, 1.0)),
                            alpha_prime_2=float(np.clip(a2, 0.0, 1.0)))
        if predict(sid, candidate) != base:
            chosen.append(sid)
            if len(chosen) >= budget:
                break
    return chosen
