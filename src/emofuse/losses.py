"""Training objectives.

Two parts combine into the stage-1 loss: a noise-contrastive term that
pulls a sample's descriptors from different modes together against
uniformly sampled negatives, and a focal classification term over the
per-mode class probabilities. Both are built from tape ops end to end so
one backward pass reaches every parameter.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import tensor as T
from .errors import ContractError

FOCAL_FORMS = ("canonical", "printed")
NCE_FORMS = ("printed", "standard")


@dataclass
class LossConfig:
    gamma: float = 1.0
    tau: float = 0.1
    negatives_per_anchor: int = 16
    focal_form: str = "canonical"
    nce_form: str = "printed"

    def __post_init__(self):
        if self.gamma < 0.0:
            raise ContractError("LossConfig.gamma must be >= 0")
        if self.tau <= 0.0:
            raise ContractError("LossConfig.tau must be positive")
        if self.negatives_per_anchor < 1:
            raise ContractError("LossConfig.negatives_per_anchor must be >= 1")
        if self.focal_form not in FOCAL_FORMS:
            raise ContractError(f"LossConfig.focal_form must be one of {FOCAL_FORMS}")
        if self.nce_form not in NCE_FORMS:
            raise ContractError(f"LossConfig.nce_form must be one of {NCE_FORMS}")


def candidate_distribution(f_query: T.Tensor, candidates, tau: float) -> T.Tensor:
    """Softmax over temperature-scaled cosine similarities, 1 x K."""
    if tau <= 0.0:
        raise ContractError("candidate_distribution: tau must be positive")
    if not candidates:
        raise ContractError("candidate_distribution: empty candidate set")
    row = T.cosine_rows(f_query, T.concat_rows(candidates))
    return T.softmax_rows(T.scale(row, 1.0 / tau))


def nce_loss(f_query: T.Tensor, f_positive: T.Tensor, negatives, nu: float,
             tau: float, form: str = "printed") -> T.Tensor:
    """Contrastive loss for one anchor pair against its negative set.

    The default form follows the ratio structure
    -log(P_pos/(P_pos+nu)) + sum_k log(P_k/(P_k+nu)) - 1; the
    "standard" form is the plain -log P_pos.
    """
    negatives = list(negatives)
    if not negatives:
        raise ContractError("nce_loss: negatives must be nonempty")
    if nu <= 0.0:
        raise ContractError("nce_loss: nu must be positive")
    dist = candidate_distribution(f_query, [f_positive] + negatives, tau)
    if form == "standard":
        return T.neg(T.log(T.pick(dist, 0, 0)))
    if form != "printed":
        raise ContractError(f"nce_loss: unknown form {form!r}")
    k = len(negatives) + 1
    ratios = T.log(T.div(dist, T.add_scalar(dist, nu)))
    first = T.neg(T.pick(ratios, 0, 0))
    rest = T.sum_all(T.slice_cols(ratios, 1, k))
    return T.add_scalar(T.add(first, rest), -1.0)


def ace_loss(descriptors: dict, negatives: dict, pool_size: int, tau: float,
             form: str = "printed") -> T.Tensor:
    """Mean contrastive loss over utterances and ordered mode pairs.

    ``descriptors``: utterance id -> {mode: 1 x d tensor} (on the tape).
    ``negatives``: utterance id -> list of {mode: 1 x d tensor} sampled
    from the rest of the training pool (treated as constants).
    ``pool_size`` is the global pool size |N| entering nu = |N_j| / |N|.
    """
    if not descriptors:
        raise ContractError("ace_loss: empty batch")
    if pool_size < 1:
        raise ContractError("ace_loss: pool_size must be >= 1")
    total = None
    count = 0
    for utt_id in sorted(descriptors):
        modes = sorted(descriptors[utt_id])
        if len(modes) < 2:
            raise ContractError(f"ace_loss: utterance {utt_id} has fewer than 2 modes")
        negs = negatives.get(utt_id, [])
        if not negs:
            raise ContractError(f"ace_loss: no negatives for utterance {utt_id}")
        nu = len(negs) / pool_size
        for m in modes:
            for mi in modes:
                if mi == m:
                    continue
                neg_keys = [n[mi] for n in negs]
                term = nce_loss(descriptors[utt_id][m], descriptors[utt_id][mi],
                                neg_keys, nu, tau, form)
                total = term if total is None else T.add(total, term)
                count += 1
    return T.scale(total, 1.0 / count)


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
    modulator = T.powf(T.add_scalar(T.neg(p), 1.0), gamma)
    if form == "printed":
        return T.mul(modulator, p)
    if form != "canonical":
        raise ContractError(f"focal_loss: unknown form {form!r}")
    ce = T.neg(T.log(T.maximum_scalar(p, 1e-12)))
    return T.mul(modulator, ce)


def focal_mean(pairs: list, gamma: float, form: str = "canonical") -> T.Tensor:
    """Mean focal term over a list of (probs 1 x C tensor, true label) pairs.

    The true class probabilities are gathered into one column, so the
    focal terms and their mean are a fixed number of ops for any count.
    """
    if not pairs:
        raise ContractError("focal_mean: no terms")
    for probs, label in pairs:
        if not 0 <= label < probs.values.shape[1]:
            raise ContractError(f"focal_mean: label {label} out of range for "
                                f"{probs.values.shape[1]} classes")
    column = T.concat_rows([T.slice_cols(probs, label, label + 1)
                            for probs, label in pairs])
    return T.mean_all(focal_loss(column, gamma, form))


def averaged_focal(per_mode: dict, gamma: float, form: str = "canonical") -> T.Tensor:
    """Double mean of focal terms over modes and utterances.

    ``per_mode``: mode -> list of (probs 1 x C tensor, true label int),
    one entry per utterance, equal counts across modes.
    """
    if not per_mode:
        raise ContractError("averaged_focal: no modes")
    counts = {m: len(v) for m, v in per_mode.items()}
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
