"""End-to-end pipeline assembly, inference, and checkpointing.

A Pipeline owns the per-mode sequence encoders, the cross-modal query
networks, the interpolation coefficients, and the conversation-context
classifier. Utterances flow encoder -> cross-modal network -> adaptive
fusion; whole dialogues then flow through the dual recurrent context to
per-utterance class probabilities.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import RunConfig
from .context import ContextParams, classify_dialogue, init_context
from .encoders import MODES, encode_mode, init_encoders
from .errors import ConfigError, ContractError, DataError
from .explain import Explanation, PerturbationConfig, explain_instance, mode_groups
from .fusion import AlphaState, adaptive_fuse
from .man import init_man, man_forward
from .metrics import confusion, metrics_report
from .rng import Rng

CHECKPOINT_FORMAT = "emofuse-checkpoint-v1"
# required checkpoint keys and their JSON types (a bool is not an integer)
_CHECKPOINT_KEYS = {"config": dict, "alphas": dict, "stage": int, "epoch": int,
                    "params": dict}
_PARAM_STREAM = 101
_ALPHA_STREAM = 102


@dataclass
class Pipeline:
    config: RunConfig
    encoders: dict
    man: dict
    context: ContextParams
    alphas: AlphaState


def init_pipeline(config: RunConfig) -> Pipeline:
    rng = Rng(config.seed).spawn(_PARAM_STREAM)
    encoders = init_encoders(config.encoder_config(), rng)
    man = init_man(config.man_config(),
                   {m: config.encoder_out for m in MODES}, rng)
    context = init_context(config.context_config(), rng)
    if config.alpha_mode == "random":
        # one shared draw per run, frozen afterwards
        arng = Rng(config.seed).spawn(_ALPHA_STREAM)
        alphas = AlphaState(arng.uniform(), arng.uniform(),
                            config.epsilon, config.alpha_momentum)
    else:
        alphas = AlphaState(epsilon=config.epsilon,
                            momentum=config.alpha_momentum)
    return Pipeline(config=config, encoders=encoders, man=man,
                    context=context, alphas=alphas)


def pairwise_coefficients(pipeline: Pipeline) -> dict:
    """Interpolation coefficients under the configured regime."""
    if pipeline.config.alpha_mode == "fixed":
        return {(m, mi): 0.5 for m in MODES for mi in MODES if m != mi}
    return pipeline.alphas.pairwise()


def utterance_descriptors(pipeline: Pipeline, utt) -> dict:
    """Encoder plus cross-modal network for one utterance.

    Returns mode -> CrossAttendedDescriptor (pooled descriptor and
    per-mode class probabilities).
    """
    feats = utt.tensor_features()
    encoded = {}
    for mode in MODES:
        full, _ = encode_mode(pipeline.encoders[mode], feats, utt.utterance_id)
        encoded[mode] = full
    return man_forward(encoded, pipeline.man)


def fuse_dialogue(pipeline: Pipeline, dialogue, pairwise=None):
    """Per-utterance fused descriptors for one dialogue.

    Returns (fused 1 x 3d tensors in utterance order, list of
    per-utterance descriptor dicts).
    """
    if pairwise is None:
        pairwise = pairwise_coefficients(pipeline)
    fused = []
    descs = []
    for utt in dialogue.utterances:
        d = utterance_descriptors(pipeline, utt)
        descs.append(d)
        fused.append(adaptive_fuse({m: d[m].f_ca for m in d}, pairwise))
    return fused, descs


def predict_dialogue(pipeline: Pipeline, dialogue, pairwise=None, eval_mode=None):
    """Classify every utterance of a dialogue; returns EmotionPredictions."""
    fused, _ = fuse_dialogue(pipeline, dialogue, pairwise)
    return classify_dialogue(fused,
                             [u.speaker_id for u in dialogue.utterances],
                             [u.utterance_id for u in dialogue.utterances],
                             pipeline.context,
                             eval_mode or pipeline.config.eval_mode)


def evaluate(pipeline: Pipeline, dialogues, subset=None) -> dict:
    """Full-corpus metrics report; read-only on the parameters."""
    if subset is None:
        subset = pipeline.config.subset_classes
    golds = []
    preds = []
    for d in dialogues:
        out = predict_dialogue(pipeline, d)
        for utt, pred in zip(d.utterances, out):
            golds.append(utt.label)
            preds.append(pred.label)
    cm = confusion(golds, preds, pipeline.config.num_classes)
    return metrics_report(cm, subset=subset)


# ---------------------------------------------------------------------------
# explanations

def explain_utterance(pipeline: Pipeline, dialogue, index: int,
                      pcfg: PerturbationConfig) -> Explanation:
    """Surrogate explanation of one utterance's final-head prediction.

    The fused descriptor is perturbed by masking mode blocks; each query
    re-runs the frozen context classifier over the dialogue with the
    masked descriptor swapped in at ``index``.
    """
    if not 0 <= index < len(dialogue.utterances):
        raise DataError(f"dialogue {dialogue.dialogue_id} has no utterance "
                        f"index {index}")
    fused, _ = fuse_dialogue(pipeline, dialogue)
    speakers = [u.speaker_id for u in dialogue.utterances]
    utt_ids = [u.utterance_id for u in dialogue.utterances]
    base = classify_dialogue(fused, speakers, utt_ids, pipeline.context,
                             pipeline.config.eval_mode)
    target = base[index].label
    groups = mode_groups(MODES, pipeline.config.descriptor_dim)

    def predict_fn(x):
        seq = list(fused)
        seq[index] = T.Tensor(np.asarray(x, dtype=np.float64))
        out = classify_dialogue(seq, speakers, utt_ids, pipeline.context,
                                pipeline.config.eval_mode)
        return float(out[index].probs.values[0, target])

    return explain_instance(fused[index].values, predict_fn, groups, pcfg,
                            utterance_id=utt_ids[index], predicted_label=target)


# ---------------------------------------------------------------------------
# parameter registry and checkpoints

def named_parameters(pipeline: Pipeline) -> dict:
    out = {}
    for mode in MODES:
        for i, t in enumerate(pipeline.encoders[mode].tensors()):
            out[f"enc.{mode}.{i}"] = t
        for i, t in enumerate(pipeline.man[mode].tensors()):
            out[f"man.{mode}.{i}"] = t
    for i, t in enumerate(pipeline.context.tensors()):
        out[f"ctx.{i}"] = t
    return out


def stage1_parameters(pipeline: Pipeline) -> dict:
    return {k: v for k, v in named_parameters(pipeline).items()
            if not k.startswith("ctx.")}


def save_checkpoint(path, pipeline: Pipeline, stage: int, epoch: int,
                    adam: dict = None, trainer_rng: list = None) -> None:
    doc = {
        "format": CHECKPOINT_FORMAT,
        "config": pipeline.config.to_dict(),
        "config_hash": pipeline.config.hash(),
        "stage": stage,
        "epoch": epoch,
        "alphas": pipeline.alphas.to_dict(),
        "params": {name: t.values.tolist()
                   for name, t in named_parameters(pipeline).items()},
        "adam": adam,
        "trainer_rng": trainer_rng,
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    os.replace(tmp, path)


@dataclass
class LoadedCheckpoint:
    pipeline: Pipeline
    stage: int
    epoch: int
    adam: dict
    trainer_rng: list


def load_checkpoint(path) -> LoadedCheckpoint:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise DataError(f"cannot read checkpoint {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise DataError(f"checkpoint {path} is not valid JSON: {e}") from None
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise DataError(f"checkpoint {path} has unknown format "
                        f"{doc.get('format')!r}" if isinstance(doc, dict)
                        else f"checkpoint {path} is not a JSON object")
    for key, kind in _CHECKPOINT_KEYS.items():
        if key not in doc:
            raise DataError(f"checkpoint {path}: missing key {key!r}")
        if not isinstance(doc[key], kind) or isinstance(doc[key], bool):
            raise DataError(f"checkpoint {path}: key {key!r} must be a JSON "
                            f"{'object' if kind is dict else 'integer'}, "
                            f"got {type(doc[key]).__name__}")
    config = RunConfig.from_dict(doc["config"])
    if doc.get("config_hash") != config.hash():
        raise DataError(f"checkpoint {path}: config hash mismatch")
    pipeline = init_pipeline(config)
    params = named_parameters(pipeline)
    stored = doc["params"]
    missing = sorted(set(params) - set(stored))
    extra = sorted(set(stored) - set(params))
    if missing or extra:
        raise DataError(f"checkpoint {path}: parameter set mismatch "
                        f"(missing {missing[:3]}, extra {extra[:3]})")
    for name, t in params.items():
        try:
            arr = np.asarray(stored[name], dtype=np.float64)
        except (TypeError, ValueError):
            raise DataError(f"checkpoint {path}: parameter {name} is not a "
                            f"numeric array") from None
        if arr.shape != t.values.shape:
            raise DataError(f"checkpoint {path}: parameter {name} has shape "
                            f"{arr.shape}, expected {t.values.shape}")
        t.values = arr
    try:
        pipeline.alphas = AlphaState.from_dict(doc["alphas"])
    except (TypeError, ContractError) as e:
        raise DataError(f"checkpoint {path}: invalid alphas: {e}") from None
    return LoadedCheckpoint(pipeline=pipeline, stage=doc["stage"],
                            epoch=doc["epoch"], adam=doc.get("adam"),
                            trainer_rng=doc.get("trainer_rng"))


def require_same_config(checkpoint_config: RunConfig, given: RunConfig) -> None:
    """Reject evaluation or resumption under an incompatible config."""
    if checkpoint_config.hash() != given.hash():
        raise ConfigError(
            "checkpoint was produced under a different configuration "
            f"(hash {checkpoint_config.hash()} vs {given.hash()})")
