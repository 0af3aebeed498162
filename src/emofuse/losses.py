"""Training objectives.

Two parts combine into the stage-1 loss: a noise-contrastive term that
pulls a sample's descriptors from different modes together against
uniformly sampled negatives, and a focal classification term over the
per-mode class probabilities. Both are built from tape ops end to end so
one backward pass reaches every parameter, and both take a whole batch
at once: the contrastive term is one cosine matrix over utterances x
ordered mode pairs, the focal term one gathered column of true-class
probabilities.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError

FOCAL_FORMS = ("canonical", "printed")
NCE_FORMS = ("printed", "standard")


def candidate_distribution(f_query: T.Tensor, candidates: T.Tensor, tau: float) -> T.Tensor:
    """Softmax over temperature-scaled cosine similarities, one row per
    query: row i of N x d ``f_query`` against its own K candidates, row i
    of the N x K x d ``candidates``."""
    if tau <= 0.0:
        raise ContractError("candidate_distribution: tau must be positive")
    row = T.cosine_rows(f_query, candidates)
    return T.softmax_rows(T.scale(row, 1.0 / tau))


def nce_loss(f_query: T.Tensor, f_positive: T.Tensor, negatives, nu: float,
             tau: float, form: str = "printed") -> T.Tensor:
    """Contrastive loss of anchor pairs against their negative sets, mean
    over the N query rows.

    ``f_query`` and ``f_positive`` are N x d; ``negatives`` is a list of
    1 x d tensors (for N = 1) or an N x k x d array of constants. The
    default form follows the ratio structure
    -log(P_pos/(P_pos+nu)) + sum_k log(P_k/(P_k+nu)) - 1; the
    "standard" form is the plain -log P_pos.
    """
    listed = isinstance(negatives, (list, tuple))
    if (len(negatives) if listed else negatives.shape[1]) == 0:
        raise ContractError("nce_loss: negatives must be nonempty")
    if nu <= 0.0:
        raise ContractError("nce_loss: nu must be positive")
    if form not in NCE_FORMS:
        raise ContractError(f"nce_loss: unknown form {form!r}")
    n, d = f_positive.values.shape
    negs = [T.reshape(t, (n, 1, d)) for t in negatives] if listed else [T.Tensor(negatives)]
    candidates = T.concat([T.reshape(f_positive, (n, 1, d))] + negs, 1)
    dist = candidate_distribution(f_query, candidates, tau)
    if form == "standard":
        return T.scale(T.mean_all(T.log(T.slice_cols(dist, 0, 1))), -1.0)
    ratios = T.log(T.div(dist, T.add_scalar(dist, nu)))
    signs = np.ones(dist.values.shape[1])
    signs[0] = -1.0
    per_row = T.sum_all(T.mul(ratios, T.Tensor(signs)))
    return T.add_scalar(T.scale(per_row, 1.0 / dist.values.shape[0]), -1.0)


def ace_loss(descriptors: dict, negatives: dict, pool_size: int, tau: float,
             form: str = "printed") -> T.Tensor:
    """Mean contrastive loss over utterances and ordered mode pairs.

    Batch form: ``descriptors`` maps mode -> B x d tensor (one row per
    utterance, on the tape) and ``negatives`` mode -> B x k x d array of
    each utterance's negatives, sampled from the rest of the training
    pool (constants). Per-utterance form: utterance id -> {mode: 1 x d
    tensor} and utterance id -> list of {mode: 1 x d tensor}; every
    utterance needs the same modes and negative count. ``pool_size`` is
    the global pool size |N| entering nu = |N_j| / |N|.
    """
    if not descriptors:
        raise ContractError("ace_loss: empty batch")
    if pool_size < 1:
        raise ContractError("ace_loss: pool_size must be >= 1")
    if not all(isinstance(t, T.Tensor) for t in descriptors.values()):
        descriptors, negatives = _stack_utterances(descriptors, negatives)
    modes = sorted(descriptors)
    if len(modes) < 2:
        raise ContractError("ace_loss: need at least 2 modes")
    pairs = [(m, mi) for m in modes for mi in modes if mi != m]
    negs = np.concatenate([negatives[mi] for _, mi in pairs])
    return nce_loss(T.concat([descriptors[m] for m, _ in pairs], 0),
                    T.concat([descriptors[mi] for _, mi in pairs], 0),
                    negs, negs.shape[1] / pool_size, tau, form)


def _stack_utterances(descriptors: dict, negatives: dict):
    """The per-utterance form of `ace_loss` arguments in the batch form."""
    uids = sorted(descriptors)
    modes = sorted(descriptors[uids[0]])
    count = len(negatives.get(uids[0], []))
    for uid in uids:
        if sorted(descriptors[uid]) != modes:
            raise ContractError(f"ace_loss: utterance {uid} has modes "
                                f"{sorted(descriptors[uid])}, expected {modes}")
        negs = negatives.get(uid, [])
        if not negs:
            raise ContractError(f"ace_loss: no negatives for utterance {uid}")
        if len(negs) != count:
            raise ContractError(f"ace_loss: utterance {uid} has {len(negs)} negatives, "
                                f"expected {count}")

    def rows(parts):
        return parts[0] if len(parts) == 1 else T.concat(parts, 0)

    return ({m: rows([descriptors[uid][m] for uid in uids]) for m in modes},
            {m: np.stack([[n[m].values[0] for n in negatives[uid]] for uid in uids])
             for m in modes})


def focal_loss(p_c, gamma: float, form: str = "canonical") -> T.Tensor:
    """Class-imbalance-weighted penalty on true class probabilities.

    ``p_c`` is one probability or a tensor of them; the result holds one
    term per entry, in the same shape (a bare number gives 1 x 1).
    Canonical form -(1-p)^gamma * log(p) with p floored at 1e-12; the
    "printed" variant (1-p)^gamma * p is kept for fidelity experiments.
    """
    if gamma < 0.0:
        raise ContractError("focal_loss: gamma must be >= 0")
    p = p_c if isinstance(p_c, T.Tensor) else T.Tensor([[float(p_c)]])
    outside = ~((p.values >= 0.0) & (p.values <= 1.0))
    if outside.any():
        raise ContractError(f"focal_loss: probability {float(p.values[outside][0])} "
                            f"outside [0, 1]")
    modulator = T.powf(T.add_scalar(T.scale(p, -1.0), 1.0), gamma)
    if form == "printed":
        return T.mul(modulator, p)
    if form != "canonical":
        raise ContractError(f"focal_loss: unknown form {form!r}")
    ce = T.scale(T.log(T.maximum_scalar(p, 1e-12)), -1.0)
    return T.mul(modulator, ce)


def focal_mean(pairs: list, gamma: float, form: str = "canonical") -> T.Tensor:
    """Mean focal term over (probs R x C tensor, labels) pairs, ``labels``
    holding one true class per row (a bare int when R is 1).

    The true class probabilities are gathered into one column by a
    one-hot mask, so the focal terms and their mean are a fixed number of
    ops for any count.
    """
    if not pairs:
        raise ContractError("focal_mean: no terms")
    classes = []
    for probs, labels in pairs:
        labels = [labels] if isinstance(labels, (int, np.integer)) else list(labels)
        if len(labels) != probs.values.shape[0]:
            raise ContractError(f"focal_mean: {len(labels)} labels for "
                                f"{probs.values.shape[0]} probability rows")
        for label in labels:
            if not 0 <= label < probs.values.shape[1]:
                raise ContractError(f"focal_mean: label {label} out of range for "
                                    f"{probs.values.shape[1]} classes")
        classes.extend(labels)
    probs = pairs[0][0] if len(pairs) == 1 else T.concat([p for p, _ in pairs], 0)
    onehot = np.zeros(probs.values.shape)
    onehot[np.arange(len(classes)), classes] = 1.0
    column = T.sum_axis(T.mul(probs, T.Tensor(onehot)), 1)
    return T.mean_all(focal_loss(column, gamma, form))


def averaged_focal(per_mode: dict, gamma: float, form: str = "canonical") -> T.Tensor:
    """Double mean of focal terms over modes and utterances.

    ``per_mode``: mode -> list of (probs tensor, labels) pairs as
    `focal_mean` takes them, the same utterance count for every mode.
    """
    if not per_mode:
        raise ContractError("averaged_focal: no modes")
    counts = {m: sum(p.values.shape[0] for p, _ in v) for m, v in per_mode.items()}
    sizes = set(counts.values())
    if len(sizes) != 1 or 0 in sizes:
        raise ContractError(f"averaged_focal: unbalanced or empty mode lists {counts}")
    return focal_mean([pair for mode in sorted(per_mode) for pair in per_mode[mode]],
                      gamma, form)


@dataclass
class LossReport:
    """Combined objective with its parts still on the tape."""
    l_ace: T.Tensor
    l_fl: T.Tensor
    total: T.Tensor


def combined_loss(l_ace: T.Tensor, l_fl: T.Tensor) -> LossReport:
    return LossReport(l_ace=l_ace, l_fl=l_fl, total=T.add(l_ace, l_fl))


def sample_negative_ids(ids, anchor_index: int, k: int, rng) -> list:
    """Uniform distinct draws from the pool, never the anchor itself."""
    n = len(ids)
    if n < 2:
        raise ContractError("sample_negative_ids: pool must hold at least 2 ids")
    k = min(k, n - 1)
    picked = rng.sample_indices(n, k, exclude=anchor_index)
    return [ids[i] for i in picked]
