"""Local surrogate explanations of individual predictions.

The classifier is treated as a black box over the fused descriptor.
Mode-tagged feature groups are masked on and off, the frozen model is
re-queried, and a locality-weighted ridge regression on the mask matrix
yields one signed attribution per group: positive supports the
prediction, negative detracts. Reports are written as JSON plus an SVG
bar chart per utterance.
"""
from __future__ import annotations

import json
import math
import os
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DataError
from .rng import Rng


@dataclass
class PerturbationConfig:
    num_samples: int = 200
    mask_prob: float = 0.5
    ridge_lambda: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.num_samples < 2:
            raise ContractError("PerturbationConfig.num_samples must be >= 2")
        if not 0.0 < self.mask_prob < 1.0:
            raise ContractError("PerturbationConfig.mask_prob must lie in (0, 1)")
        if self.ridge_lambda <= 0.0:
            raise ContractError("PerturbationConfig.ridge_lambda must be positive")


@dataclass
class Explanation:
    utterance_id: str
    predicted_label: int
    group_names: list
    weights: list
    intercept: float
    r2: float
    sample_count: int
    mask_prob: float

    def to_dict(self) -> dict:
        return {"utterance_id": self.utterance_id,
                "predicted_label": self.predicted_label,
                "group_names": list(self.group_names),
                "weights": [float(w) for w in self.weights],
                "intercept": float(self.intercept),
                "r2": float(self.r2),
                "sample_count": self.sample_count,
                "mask_prob": self.mask_prob}


def mode_groups(mode_order, block_width: int) -> list:
    """Contiguous (name, start, stop) groups over a fused descriptor, one
    per mode block."""
    if block_width < 1:
        raise ContractError("mode_groups: block_width must be positive")
    return [(mode, i * block_width, (i + 1) * block_width)
            for i, mode in enumerate(mode_order)]


def masked_rows(descriptor, groups, masks) -> np.ndarray:
    """The descriptor once per row of the S x G ``masks``, as S x F, with
    each group whose mask entry is 0 zeroed."""
    rows = np.repeat(np.asarray(descriptor, dtype=np.float64).reshape(1, -1), len(masks), axis=0)
    for j, (_, lo, hi) in enumerate(groups):
        rows[masks[:, j] == 0.0, lo:hi] = 0.0
    return rows


def perturb_and_score(descriptor, predict_fn, groups, config: PerturbationConfig):
    """Draw group masks, query the model on masked inputs, weight by locality.

    Returns (masks S x G with row 0 all ones, scores length S, locality
    weights length S). ``predict_fn`` maps a 1 x F array to the scalar
    probability being explained.
    """
    x0 = np.asarray(descriptor, dtype=np.float64).reshape(1, -1)
    g = len(groups)
    if g < 1:
        raise ContractError("perturb_and_score: need at least one group")
    if config.num_samples < g + 1:
        raise ContractError(
            f"perturb_and_score: num_samples {config.num_samples} below "
            f"group count + 1 ({g + 1})")
    rng = Rng(config.seed)
    masks = np.ones((config.num_samples, g))
    masks[1:][rng.uniform_array((config.num_samples - 1, g)) < config.mask_prob] = 0.0
    rows = masked_rows(x0, groups, masks)
    scores = np.array([float(predict_fn(rows[s:s + 1])) for s in range(config.num_samples)])
    kernel = 0.75 * math.sqrt(g)
    hamming = (masks == 0.0).sum(axis=1).astype(np.float64)
    weights = np.exp(-(hamming ** 2) / (kernel ** 2))
    return masks, scores, weights


def fit_surrogate(masks, scores, weights, config: PerturbationConfig,
                  group_names, utterance_id: str = "?",
                  predicted_label: int = -1) -> Explanation:
    """Weighted ridge fit of scores on masks; coefficients are attributions.

    The intercept is unpenalized. A singular normal matrix doubles the
    ridge strength (with a warning) until it factors.
    """
    masks = np.asarray(masks, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    n, g = masks.shape
    if n < g + 1:
        raise ContractError("fit_surrogate: need at least group count + 1 samples")
    design = np.hstack([np.ones((n, 1)), masks])
    wd = design * weights[:, None]
    normal = design.T @ wd
    rhs = design.T @ (weights * scores)
    lam = config.ridge_lambda
    pen = np.eye(g + 1)
    pen[0, 0] = 0.0
    beta = None
    for _ in range(64):
        mat = normal + lam * pen
        cond = np.linalg.cond(mat)
        if not np.isfinite(cond) or cond > 1e12:
            warnings.warn(f"surrogate design is rank-deficient, raising ridge "
                          f"strength to {2 * lam}")
            lam *= 2.0
            continue
        beta = np.linalg.solve(mat, rhs)
        break
    if beta is None:
        raise ContractError("fit_surrogate: normal matrix never became solvable")
    pred = design @ beta
    wsum = weights.sum()
    ybar = float((weights * scores).sum() / wsum)
    ss_res = float((weights * (scores - pred) ** 2).sum())
    ss_tot = float((weights * (scores - ybar) ** 2).sum())
    # constant targets leave ss_tot at rounding noise, so compare to scale
    tol = 1e-18 * max(1.0, float((weights * scores * scores).sum()))
    if ss_tot <= tol:
        r2 = 1.0 if ss_res <= tol else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return Explanation(utterance_id=utterance_id, predicted_label=predicted_label,
                       group_names=list(group_names),
                       weights=[float(b) for b in beta[1:]],
                       intercept=float(beta[0]), r2=r2, sample_count=n,
                       mask_prob=config.mask_prob)


def explain_instance(descriptor, predict_fn, groups, config: PerturbationConfig,
                     utterance_id: str = "?", predicted_label: int = -1) -> Explanation:
    masks, scores, weights = perturb_and_score(descriptor, predict_fn, groups, config)
    return fit_surrogate(masks, scores, weights, config,
                         [name for name, _, _ in groups],
                         utterance_id, predicted_label)


# ---------------------------------------------------------------------------
# rendering

_BAR_H = 22
_CHART_W = 420
_LABEL_W = 120


def explanation_svg(exp: Explanation) -> str:
    """Horizontal bar chart, one bar per group, green positive / red negative."""
    g = len(exp.weights)
    height = _BAR_H * g + 40
    peak = max((abs(w) for w in exp.weights), default=0.0) or 1.0
    half = (_CHART_W - _LABEL_W) / 2.0
    mid = _LABEL_W + half
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CHART_W}" height="{height}">',
        f'<text x="4" y="16" font-size="13" font-family="sans-serif">'
        f'{exp.utterance_id} | class {exp.predicted_label} | R2 {exp.r2:.3f}</text>',
        f'<line x1="{mid}" y1="24" x2="{mid}" y2="{height - 8}" stroke="#888"/>',
    ]
    for i, (name, w) in enumerate(zip(exp.group_names, exp.weights)):
        y = 28 + i * _BAR_H
        span = abs(w) / peak * half
        x = mid if w >= 0 else mid - span
        color = "#2e8b57" if w >= 0 else "#c0392b"
        parts.append(f'<rect x="{x:.2f}" y="{y}" width="{span:.2f}" '
                     f'height="{_BAR_H - 6}" fill="{color}"/>')
        parts.append(f'<text x="4" y="{y + _BAR_H - 10}" font-size="12" '
                     f'font-family="sans-serif">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def report_stems(utterance_ids) -> list:
    """The file stem of each id: the id with path separators as underscores.
    A DataError names the ids that cannot own their files."""
    stems = [uid.replace(os.sep, "_") for uid in utterance_ids]
    count = Counter(stems)
    bad = [uid for uid, stem in zip(utterance_ids, stems)
           if count[stem] > 1 or stem == "index" or "\0" in stem]
    if bad:
        raise DataError(f"utterance ids {', '.join(map(repr, bad))} cannot each name their "
                        f"own explanation files (two ids share a name, 'index' is the "
                        f"index, or the id holds a NUL byte)")
    return stems


def render_report(explanations, out_dir) -> list:
    """Write JSON and SVG files per utterance, named by `report_stems`, and an index;
    returns the paths."""
    stems = report_stems([exp.utterance_id for exp in explanations])
    os.makedirs(out_dir, exist_ok=True)
    written = []
    index = []
    for exp, stem in zip(explanations, stems):
        jpath = os.path.join(out_dir, f"{stem}.json")
        spath = os.path.join(out_dir, f"{stem}.svg")
        with open(jpath, "w", encoding="utf-8") as fh:
            json.dump(exp.to_dict(), fh, indent=1, sort_keys=True)
        with open(spath, "w", encoding="utf-8") as fh:
            fh.write(explanation_svg(exp))
        written.extend([jpath, spath])
        index.append({"utterance_id": exp.utterance_id, "json": os.path.basename(jpath),
                      "svg": os.path.basename(spath)})
    ipath = os.path.join(out_dir, "index.json")
    with open(ipath, "w", encoding="utf-8") as fh:
        json.dump(index, fh, indent=1, sort_keys=True)
    written.append(ipath)
    return written
