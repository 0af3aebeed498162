"""Two-stage training loop.

Stage 1 fits the encoders and cross-modal networks with the combined
contrastive + focal objective, resampling a stop-gradient negative pool
every epoch. Every training step covers a micro-batch of dialogues, and
the negative cache, evaluation and the alpha probe go over a corpus in
chunks of the same size, so memory stays bounded. Stage 2 freezes into
fine-tuning: interpolation coefficients update from validation gradients
on informative samples, while the context classifier trains with the
focal loss and stage-1 parameters move at a reduced rate. Every epoch ends with a checkpoint
and one JSON log record, and the whole loop is resumable bit-for-bit.
"""
from __future__ import annotations

import io
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import RunConfig, read_text
from .data import all_utterances
from .encoders import MODES
from .errors import ContractError, DataError, NumericError
from .fusion import adaptive_fuse, select_informative_samples, update_alphas
from .losses import ace_loss, averaged_focal, combined_loss, focal_mean
from .model import (AdamState, LoadedCheckpoint, Pipeline, chunks, classify_dialogues,
                    evaluate, init_pipeline, named_parameters, pairwise_coefficients,
                    require_same_config, save_checkpoint, stage1_parameters,
                    utterance_descriptors)
from .rng import Rng

_TRAIN_STREAM = 7
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_step(params: dict, state: AdamState, lr: float, scale: dict = None) -> None:
    """Apply one update to every parameter holding a gradient, then clear it."""
    for name in sorted(params):
        p = params[name]
        g = p.grad
        if g is None:
            continue
        t = state.steps.get(name, 0) + 1
        m = state.m.get(name)
        v = state.v.get(name)
        if m is None:
            m = np.zeros_like(p.values)
            v = np.zeros_like(p.values)
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
        state.steps[name] = t
        state.m[name] = m
        state.v[name] = v
        mhat = m / (1.0 - ADAM_BETA1 ** t)
        vhat = v / (1.0 - ADAM_BETA2 ** t)
        s = 1.0 if scale is None else scale.get(name, 1.0)
        p.values = p.values - lr * s * mhat / (np.sqrt(vhat) + ADAM_EPS)
        p.grad = None


@contextmanager
def _numeric_guard(where: str):
    """Turn a non-finite ContractError raised in the block into a
    NumericError that names ``where``."""
    try:
        yield
    except ContractError as e:
        if "finite" in str(e):
            raise NumericError(f"non-finite value while {where}: {e}") from None
        raise


def _taped(where: str, build):
    """Record ``build()`` on a fresh tape, check that its loss (the first
    item it returns) is finite, and run backward from it. Returns what
    ``build`` returned; any non-finite value names ``where``."""
    tape = T.Tape()
    with _numeric_guard(where):
        with T.recording(tape):
            out = build()
        if not math.isfinite(out[0].item()):
            raise NumericError(f"non-finite loss while {where}")
        T.backward(out[0], tape)
    return out


def _train_epoch(stage: int, order, build, params: dict, adam: AdamState,
                 config: RunConfig, scale: dict = None) -> dict:
    """One pass over ``order`` in micro-batches of ``batch_size`` dialogues.

    ``build(batch)`` returns (loss, name -> scalar tensor to log); each
    batch is one `_taped` pass and one Adam step on ``params``. Returns
    the epoch mean of every logged scalar.
    """
    sums = {}
    for bi, batch in enumerate(chunks(order, config.batch_size)):
        _, logged = _taped(f"training stage {stage} batch {bi} "
                           f"(dialogues {[d.dialogue_id for d in batch]})",
                           lambda: build(batch))
        adam_step(params, adam, config.lr, scale)
        for k, t in logged.items():
            sums[k] = sums.get(k, 0.0) + t.item()
    return {k: v / (bi + 1) for k, v in sums.items()}


# ---------------------------------------------------------------------------
# stage 1

def _negative_cache(pipeline: Pipeline, dialogues, k: int, rng: Rng, chunk: int):
    """Frozen descriptor arrays for every pool utterance plus sampled negatives.

    Returns (mode -> N x d array in pool order, N x min(k, N - 1) array
    whose row i holds the pool positions of utterance i's negatives,
    never i itself). Descriptors are computed ``chunk`` dialogues at a time.
    """
    cache = {m: [] for m in MODES}
    for part in chunks(dialogues, chunk):
        descs = utterance_descriptors(pipeline, all_utterances(part))
        for m in MODES:
            cache[m].append(descs[m].f_ca.values)
    cache = {m: np.concatenate(cache[m]) for m in MODES}
    n = len(cache[MODES[0]])
    negatives = np.empty((n, min(k, n - 1)), dtype=np.intp)
    for i in range(n):
        negatives[i] = rng.sample_indices(n, negatives.shape[1], exclude=i)
    return cache, negatives


def _stage1_epoch(pipeline: Pipeline, adam: AdamState, rng: Rng,
                  train_dlgs, pool, config: RunConfig) -> dict:
    with _numeric_guard("building the stage 1 negative cache"):
        cache, negatives = _negative_cache(pipeline, train_dlgs,
                                           config.negatives_per_anchor, rng,
                                           config.batch_size)
    position = {u.utterance_id: i for i, u in enumerate(pool)}
    order = list(train_dlgs)
    rng.shuffle(order)

    def build(batch):
        utts = all_utterances(batch)
        negs = negatives[[position[u.utterance_id] for u in utts]]
        descs = utterance_descriptors(pipeline, utts)
        l_ace = ace_loss({m: descs[m].f_ca for m in MODES},
                         {m: cache[m][negs] for m in MODES},
                         len(pool), config.tau, config.nce_form)
        l_fl = averaged_focal({m: [(descs[m].probs, [u.label for u in utts])]
                               for m in MODES}, config.gamma, config.focal_form)
        report = combined_loss(l_ace, l_fl)
        return report.total, {"l_ace": report.l_ace, "l_fl": report.l_fl,
                              "total": report.total}

    return _train_epoch(1, order, build, stage1_parameters(pipeline), adam, config)


def per_mode_accuracy(pipeline: Pipeline, dialogues) -> dict:
    """Accuracy of each mode's own classification head, pre-fusion."""
    correct = {m: 0 for m in MODES}
    n = 0
    for part in chunks(list(dialogues), pipeline.config.batch_size):
        utts = all_utterances(part)
        labels = np.array([u.label for u in utts])
        descs = utterance_descriptors(pipeline, utts)
        n += len(utts)
        for m in MODES:
            correct[m] += int((np.argmax(descs[m].probs.values, axis=1) == labels).sum())
    if n == 0:
        return {m: 0.0 for m in MODES}
    return {m: correct[m] / n for m in MODES}


# ---------------------------------------------------------------------------
# stage 2

def _stage2_loss(pipeline: Pipeline, dialogues, f_ca: dict, mix: np.ndarray,
                 config: RunConfig):
    """The focal loss of the context classifier over consecutive dialogues,
    one batch, from their utterances' mode descriptors ``f_ca`` (mode -> one
    row per utterance) fused by ``mix``: (loss, DialoguePredictions of each)."""
    preds = classify_dialogues(pipeline, dialogues, adaptive_fuse(f_ca, mix))
    loss = focal_mean([(p.probs, [u.label for u in d.utterances])
                       for d, p in zip(dialogues, preds)],
                      config.gamma, config.focal_form)
    return loss, preds


def _update_alphas_from_val(pipeline: Pipeline, val_dlgs, config: RunConfig) -> dict:
    """Fold into the coefficients the (a1', a2') estimates, from d loss /
    d f_ca, of the validation utterances they flip. Each chunk of
    ``batch_size`` dialogues is one descriptor pass, made off the tape into
    leaves, and one taped loss: only fusion, context and loss are taped.
    The chunk loss scales each dialogue's gradient rows by one factor,
    which an estimate does not depend on."""
    current = pipeline.alphas
    mix = current.mixing()
    estimates, labels, cache = {}, {}, {}
    for part in chunks(list(val_dlgs), config.batch_size):
        where = (f"running the alpha probe on validation dialogues "
                 f"{[d.dialogue_id for d in part]}")
        with _numeric_guard(where):
            descs = utterance_descriptors(pipeline, all_utterances(part))
            f = {m: T.Tensor(c.f_ca.values, requires_grad=True) for m, c in descs.items()}
        _, preds = _taped(where, lambda: _stage2_loss(pipeline, part, f, mix, config))
        start = 0
        for d, p in zip(part, preds):
            rows = {m: T.Tensor(t.values[start:start + len(d.utterances)]) for m, t in f.items()}
            for i, utt in enumerate(d.utterances):
                estimates[utt.utterance_id] = current.estimate(
                    {m: t.values[i] for m, t in rows.items()},
                    {m: t.grad[start + i] for m, t in f.items()})
                labels[utt.utterance_id] = p.labels[i]
                cache[utt.utterance_id] = (d, rows, i)
            start += len(d.utterances)
    # the probe steps nothing; its context gradients must not reach Adam
    T.zero_grad(pipeline.context.tensors())

    def predict(uid, alpha_state):
        if alpha_state == current:
            # the estimate pass already classified under these coefficients
            return labels[uid]
        dialogue, f, index = cache[uid]
        fused = adaptive_fuse(f, alpha_state.mixing())
        return classify_dialogues(pipeline, [dialogue], fused)[0].labels[index]

    chosen = select_informative_samples(
        list(estimates), predict, lambda uid: estimates[uid],
        current, config.informative_budget)
    if chosen:
        pipeline.alphas = update_alphas(pipeline.alphas,
                                        [estimates[uid] for uid in chosen])
    return {"informative_samples": len(chosen),
            "alpha_prime_1": pipeline.alphas.alpha_prime_1,
            "alpha_prime_2": pipeline.alphas.alpha_prime_2}


def _stage2_epoch(pipeline: Pipeline, adam: AdamState, rng: Rng,
                  train_dlgs, val_dlgs, config: RunConfig) -> dict:
    rec = {}
    if config.alpha_mode == "learned" and val_dlgs:
        rec.update(_update_alphas_from_val(pipeline, val_dlgs, config))
    mix = pairwise_coefficients(pipeline)
    order = list(train_dlgs)
    rng.shuffle(order)
    params = named_parameters(pipeline)
    scale = {name: (1.0 if name.startswith("ctx.") else config.fine_tune_scale)
             for name in params}

    def build(batch):
        descs = utterance_descriptors(pipeline, all_utterances(batch))
        loss = _stage2_loss(pipeline, batch, {m: c.f_ca for m, c in descs.items()},
                            mix, config)[0]
        return loss, {"focal": loss}

    rec.update(_train_epoch(2, order, build, params, adam, config, scale))
    return rec


# ---------------------------------------------------------------------------
# orchestration

def _truncate_log(path, stage: int, epoch: int) -> None:
    """Keep only the log records at or before a checkpoint's (stage, epoch).

    An epoch is logged before it is checkpointed, so a run stopped between
    the two leaves a record that the resumed run writes again. A cut-short
    last line is dropped; an earlier line that is not JSON is a DataError.
    """
    kept = []
    text = read_text(path, "training log", DataError) if os.path.exists(path) else ""
    lines = io.StringIO(text).readlines()
    for line_no, line in enumerate(lines, start=1):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            if line_no == len(lines):
                break
            raise DataError(f"{path} line {line_no}: not a JSON log record: "
                            f"{line.strip():.60}") from None
        if not isinstance(rec, dict) or not all(
                isinstance(rec.get(k), int) and not isinstance(rec[k], bool)
                for k in ("stage", "epoch")):
            raise DataError(f"{path} line {line_no}: expected a log record "
                            f"with integer stage and epoch, got {line.strip():.60}")
        if (rec["stage"], rec["epoch"]) > (stage, epoch):
            break
        kept.append(line)
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.writelines(kept)
    os.replace(tmp, path)


@dataclass
class TrainResult:
    pipeline: Pipeline
    logs: list
    checkpoint_path: str = None


def run_training(config: RunConfig, train_dlgs, val_dlgs, out_dir=None,
                 resume: LoadedCheckpoint = None, emit=None) -> TrainResult:
    """Run (or continue) both stages; checkpoint and log once per epoch.

    A ``resume`` checkpoint must have been written under ``config``.
    """
    if not train_dlgs:
        raise DataError("training requires at least one dialogue")
    rng = Rng(config.seed).spawn(_TRAIN_STREAM)
    if resume is not None:
        require_same_config(resume.pipeline.config, config)
        pipeline = resume.pipeline
        adam = resume.adam
        if resume.trainer_rng:
            rng.set_state(resume.trainer_rng)
        stage, epoch = resume.stage, resume.epoch
    else:
        pipeline = init_pipeline(config)
        adam = AdamState()
        stage, epoch = 1, 0
    pool = all_utterances(train_dlgs)
    if stage == 1 and epoch < config.stage1_epochs and len(pool) < 2:
        raise DataError(f"stage 1 draws each utterance's negatives from the other "
                        f"training utterances, so it needs at least 2; got {len(pool)}")

    logs = []
    ckpt_path = os.path.join(out_dir, "checkpoint.json") if out_dir else None
    log_fh = None
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        log_path = os.path.join(out_dir, "train_log.jsonl")
        if resume is not None:
            _truncate_log(log_path, stage, epoch)
        log_fh = open(log_path, "a" if resume is not None else "w",
                      encoding="utf-8")

    def _emit(rec):
        logs.append(rec)
        if log_fh:
            log_fh.write(json.dumps(rec, sort_keys=True) + "\n")
            log_fh.flush()
        if emit:
            emit(rec)

    def _save():
        if ckpt_path:
            save_checkpoint(ckpt_path, pipeline, stage, epoch,
                            adam.to_dict(), rng.get_state())

    held_out = val_dlgs if val_dlgs else train_dlgs
    try:
        while True:
            if stage == 1 and epoch >= config.stage1_epochs:
                stage, epoch = 2, 0
            if stage == 2 and epoch >= config.stage2_epochs:
                break
            if stage == 1:
                rec = _stage1_epoch(pipeline, adam, rng, train_dlgs, pool, config)
                rec["val_mode_accuracy"] = per_mode_accuracy(pipeline, held_out)
            else:
                rec = _stage2_epoch(pipeline, adam, rng, train_dlgs, val_dlgs, config)
                report = evaluate(pipeline, held_out)
                rec["val_accuracy"] = report["accuracy"]
                rec["val_weighted_f1"] = report["weighted_f1"]
            epoch += 1
            rec.update({"stage": stage, "epoch": epoch})
            _emit(rec)
            _save()
        _save()
    finally:
        if log_fh:
            log_fh.close()
    return TrainResult(pipeline=pipeline, logs=logs, checkpoint_path=ckpt_path)
