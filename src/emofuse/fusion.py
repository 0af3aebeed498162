"""Adaptive fusion of the cross-attended mode descriptors.

The fused vector concatenates one block per mode; each block linearly
interpolates the mode's own descriptor with every other mode's, governed
by pairwise coefficients in [0, 1]. `mixing` writes all of them as one
n x n matrix, and `adaptive_fuse` applies it as one matmul. The
coefficients themselves come from two learned scalars composed into a
per-mode probability vector, estimated sample-by-sample from validation
gradients and smoothed with an exponential moving average between batches.
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


def mixing(weights) -> np.ndarray:
    """The fusion coefficients of per-mode weights as one n x n matrix,
    whose entry (j, i) weighs mode j's descriptor in mode i's block.

    With a[i, j] = w_i / (w_i + w_j) (0.5 when both are 0), entry (j, i)
    is a[j, i] / n off the diagonal and the sum of a[i, j] over j != i,
    over n, on it: each block's coefficients sum to (n - 1) / n.
    """
    w = np.asarray(weights, dtype=np.float64)
    total = w[:, None] + w[None, :]
    a = np.divide(w[:, None], total, out=np.full(total.shape, 0.5), where=total != 0.0)
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(a, a.sum(axis=1))
    return a / len(w)


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

    def mixing(self) -> np.ndarray:
        return mixing(self.composed())

    def estimate(self, f: dict, grads: dict):
        """One sample's (a1', a2') from its mode descriptors ``f`` and the
        loss gradients ``grads`` at them: a1' weighs text against video,
        a2' the current text/video mixture against audio."""
        a1 = estimate_alpha_pair(f["text"], f["video"], grads["video"], self.epsilon)
        mix = self.alpha_prime_1 * f["text"] + (1.0 - self.alpha_prime_1) * f["video"]
        return a1, estimate_alpha_pair(mix, f["audio"], grads["audio"], self.epsilon)


def adaptive_fuse(descriptors: dict, mix: np.ndarray) -> T.Tensor:
    """Interpolate and concatenate mode descriptors into B x (n d) rows.

    ``descriptors`` maps mode -> B x d tensor, one row per utterance;
    ``mix`` is `mixing`'s matrix, a constant. The concat of the descriptors
    in ``MODES`` order times the (n d) x (n d) matrix whose d x d block
    (j, i) is mix[j, i] times the identity is the fused row, block i mode i's.
    """
    for m in MODES:
        if m not in descriptors:
            raise ContractError(f"adaptive_fuse: missing descriptor for mode {m}")
    n = len(MODES)
    if np.shape(mix) != (n, n):
        raise ContractError(f"adaptive_fuse: mixing matrix of shape {np.shape(mix)}, "
                            f"expected {(n, n)}")
    x = T.concat([descriptors[m] for m in MODES], -1)
    d = x.shape[-1] // n
    blocks = (mix[:, None, :, None] * np.eye(d)[None, :, None, :]).reshape(n * d, n * d)
    return T.matmul(x, T.Tensor(blocks))


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
