"""End-to-end pipeline assembly, inference, and checkpointing.

A Pipeline owns the per-mode sequence encoders, the cross-modal query
networks, the interpolation coefficients, and the conversation-context
classifier. Utterances flow encoder -> cross-modal network -> adaptive
fusion a batch at a time; whole dialogues then flow through the dual
recurrent context to per-utterance class probabilities.
"""
from __future__ import annotations

import base64
import itertools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .config import RunConfig, read_json
from .context import ContextParams, classify_dialogue, init_context, row_query
from .data import Utterance, all_utterances
from .encoders import MODES, encode_mode, init_encoders, pad_streams
from .errors import ConfigError, ContractError, DataError
from .explain import (Explanation, PerturbationConfig, explain_instance, masked_rows,
                      mode_groups)
from .fusion import AlphaState, adaptive_fuse
from .man import CrossAttendedDescriptor, init_man, man_forward
from .metrics import confusion, metrics_report
from .rng import Rng

CHECKPOINT_FORMAT = "emofuse-checkpoint-v3"
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
    pipeline = _assemble(config, Rng(config.seed).spawn(_PARAM_STREAM))
    if config.alpha_mode == "random":
        # one shared draw per run, frozen afterwards
        arng = Rng(config.seed).spawn(_ALPHA_STREAM)
        pipeline.alphas = AlphaState(arng.uniform(), arng.uniform(),
                                     config.epsilon, config.alpha_momentum)
    return pipeline


def _assemble(config: RunConfig, rng) -> Pipeline:
    """Parameters drawn from ``rng`` in a fixed order; default alphas."""
    return Pipeline(
        config=config,
        encoders=init_encoders(config.encoder_config(), rng),
        man=init_man(config.man_config(),
                     {m: config.encoder_out for m in MODES}, rng),
        context=init_context(config.context_config(), rng),
        alphas=AlphaState(epsilon=config.epsilon, momentum=config.alpha_momentum))


class _NoDraws:
    """Stands in for the parameter Rng when a checkpoint is about to
    overwrite every value: the skeleton gets zeros, and no draws."""

    @staticmethod
    def uniform_array(shape, lo=0.0, hi=1.0):
        return np.zeros(shape)


def pairwise_coefficients(pipeline: Pipeline) -> dict:
    """Interpolation coefficients under the configured regime."""
    if pipeline.config.alpha_mode == "fixed":
        return {(m, mi): 0.5 for m in MODES for mi in MODES if m != mi}
    return pipeline.alphas.pairwise()


def utterance_descriptors(pipeline: Pipeline, utts) -> dict:
    """Encoders plus cross-modal network for a batch of utterances.

    ``utts`` is a list of utterances, or one utterance (a batch of one).
    Returns mode -> CrossAttendedDescriptor whose pooled descriptors and
    per-mode class probabilities hold one row per utterance, in order.
    """
    if isinstance(utts, Utterance):
        utts = [utts]
    if not utts:
        raise ContractError("utterance_descriptors: empty batch")
    batch = pad_streams([u.features for u in utts], [u.utterance_id for u in utts])
    encoded, masks = {}, {}
    for mode in MODES:
        encoded[mode], masks[mode] = encode_mode(pipeline.encoders[mode], batch)
    return man_forward(encoded, pipeline.man, masks=masks)


def fuse_utterances(pipeline: Pipeline, utts, pairwise=None):
    """Fused descriptors for a batch of utterances: (B x 3d tensor,
    mode -> CrossAttendedDescriptor of B rows)."""
    if pairwise is None:
        pairwise = pairwise_coefficients(pipeline)
    descs = utterance_descriptors(pipeline, utts)
    return adaptive_fuse({m: descs[m].f_ca for m in MODES}, pairwise), descs


def fuse_dialogue(pipeline: Pipeline, dialogue, pairwise=None):
    """`fuse_utterances` over one dialogue, its descriptors split into one
    dict per utterance of mode -> one-row CrossAttendedDescriptor."""
    fused, descs = fuse_utterances(pipeline, dialogue.utterances, pairwise)
    return fused, [{m: CrossAttendedDescriptor(T.slice_rows(d.f_ca, i, i + 1),
                                               T.slice_rows(d.probs, i, i + 1))
                    for m, d in descs.items()} for i in range(fused.shape[0])]


def classify_dialogues(pipeline: Pipeline, dialogues, fused: T.Tensor) -> list:
    """One DialoguePredictions per dialogue, each classified on its own
    rows of ``fused`` (consecutive dialogues; a lone one owns every row)."""
    out = []
    start = 0
    for d in dialogues:
        stop = start + len(d.utterances)
        rows = fused if len(dialogues) == 1 else T.slice_rows(fused, start, stop)
        out.append(classify_dialogue(rows, [u.speaker_id for u in d.utterances],
                                     [u.utterance_id for u in d.utterances],
                                     pipeline.context, pipeline.config.eval_mode))
        start = stop
    return out


def chunks(seq, size):
    """Consecutive slices of ``seq`` of ``size`` items; the last may be shorter."""
    for i in range(0, len(seq), size):
        yield seq[i:i + size]


@T.recording(None)
def evaluate(pipeline: Pipeline, dialogues, subset=None) -> dict:
    """Full-corpus metrics report; read-only on the parameters and on any
    active tape. Each chunk of ``batch_size`` dialogues is one fuse and
    one `classify_dialogues`."""
    if subset is None:
        subset = pipeline.config.subset_classes
    golds = []
    preds = []
    for part in chunks(list(dialogues), pipeline.config.batch_size):
        utts = all_utterances(part)
        golds.extend(u.label for u in utts)
        for p in classify_dialogues(pipeline, part, fuse_utterances(pipeline, utts)[0]):
            preds.extend(p.labels)
    cm = confusion(golds, preds, pipeline.config.num_classes)
    return metrics_report(cm, subset=subset)


# ---------------------------------------------------------------------------
# explanations

@T.recording(None)
def explain_dialogue(pipeline: Pipeline, dialogue, indices,
                     pcfg: PerturbationConfig) -> list:
    """Surrogate explanations of utterances ``indices`` of one dialogue,
    from one fuse of it, recorded on no tape. Each masks mode blocks of
    the utterance's fused descriptor; a query is the frozen context
    classifier's probability of the class the unmasked descriptor gets.
    A sample can only be one of the 2^G mode masks, so one
    `context.row_query` call scores all of them and each query looks its
    row up, however many samples there are.
    """
    for index in indices:
        if not 0 <= index < len(dialogue.utterances):
            raise DataError(f"dialogue {dialogue.dialogue_id} has no utterance "
                            f"index {index}")
    fused, _ = fuse_utterances(pipeline, dialogue.utterances)
    speakers = [u.speaker_id for u in dialogue.utterances]
    groups = mode_groups(MODES, pipeline.config.descriptor_dim)
    every_mask = np.array(list(itertools.product((1.0, 0.0), repeat=len(groups))))

    def explain(index):
        table = masked_rows(fused.values[index], groups, every_mask)  # row 0 unmasked
        probs = row_query(fused, speakers, index, pipeline.context,
                          pipeline.config.eval_mode)(table)
        target = int(np.argmax(probs[0]))
        scores = {row.tobytes(): p for row, p in zip(table, probs[:, target])}

        def score(x):
            key = np.asarray(x, dtype=np.float64).tobytes()
            if key not in scores:
                raise ContractError("explain_dialogue: a query is not a mode mask of the row")
            return scores[key]

        return explain_instance(table[:1], score, groups, pcfg,
                                utterance_id=dialogue.utterances[index].utterance_id,
                                predicted_label=target)

    return [explain(index) for index in indices]


def explain_utterance(pipeline: Pipeline, dialogue, index: int,
                      pcfg: PerturbationConfig) -> Explanation:
    """`explain_dialogue` of the one utterance ``index``."""
    return explain_dialogue(pipeline, dialogue, [index], pcfg)[0]


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


def encode_array(a) -> dict:
    """Exact JSON form of a float64 array: its shape and the base64 of its
    little-endian bytes."""
    a = np.asarray(a, dtype="<f8")
    return {"shape": list(a.shape),
            "data": base64.b64encode(a.tobytes()).decode("ascii")}


def decode_array(obj, what: str) -> np.ndarray:
    """Inverse of `encode_array`; a DataError names ``what`` and the reason."""
    def bad(reason):
        return DataError(f"{what} is not a numeric array: {reason}")

    if not isinstance(obj, dict) or set(obj) != {"shape", "data"}:
        raise bad(f"expected an object with shape and data, got "
                  f"{type(obj).__name__}")
    shape = obj["shape"]
    if not isinstance(shape, list) or not all(
            isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in shape):
        raise bad(f"bad shape {shape!r:.60}")
    if not isinstance(obj["data"], str):
        raise bad("data is not a base64 string")
    try:
        raw = base64.b64decode(obj["data"], validate=True)
    except ValueError as e:
        raise bad(f"bad base64 ({e})") from None
    if len(raw) != 8 * math.prod(shape):
        raise bad(f"{len(raw)} bytes of data for shape {shape}, expected "
                  f"8 x {math.prod(shape)}")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


@dataclass
class AdamState:
    """First and second moment accumulators, keyed like named_parameters."""
    steps: dict = field(default_factory=dict)
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"steps": dict(self.steps),
                "m": {k: encode_array(a) for k, a in self.m.items()},
                "v": {k: encode_array(a) for k, a in self.v.items()}}

    @classmethod
    def from_dict(cls, d: dict) -> "AdamState":
        return cls(steps={k: int(v) for k, v in d["steps"].items()},
                   m={k: decode_array(a, f"adam.m entry {k}")
                      for k, a in d["m"].items()},
                   v={k: decode_array(a, f"adam.v entry {k}")
                      for k, a in d["v"].items()})


def save_checkpoint(path, pipeline: Pipeline, stage: int, epoch: int,
                    adam: dict = None, trainer_rng: list = None) -> None:
    doc = {
        "format": CHECKPOINT_FORMAT,
        "config": pipeline.config.to_dict(),
        "config_hash": pipeline.config.hash(),
        "stage": stage,
        "epoch": epoch,
        "alphas": pipeline.alphas.to_dict(),
        "params": {name: encode_array(t.values)
                   for name, t in named_parameters(pipeline).items()},
        "adam": adam,
        "trainer_rng": trainer_rng,
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    os.replace(tmp, path)


@dataclass
class LoadedCheckpoint:
    pipeline: Pipeline
    stage: int
    epoch: int
    adam: AdamState
    trainer_rng: list


def load_checkpoint(path) -> LoadedCheckpoint:
    doc = read_json(path, "checkpoint", DataError)
    try:
        return _checkpoint_from_doc(doc)
    except DataError as e:
        raise DataError(f"checkpoint {path}: {e}") from None


def _checkpoint_from_doc(doc) -> LoadedCheckpoint:
    if not isinstance(doc, dict):
        raise DataError("not a JSON object")
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise DataError(f"unknown format {doc.get('format')!r:.60}, expected "
                        f"{CHECKPOINT_FORMAT!r}")
    for key, kind in _CHECKPOINT_KEYS.items():
        if key not in doc:
            raise DataError(f"missing key {key!r}")
        if not isinstance(doc[key], kind) or isinstance(doc[key], bool):
            raise DataError(f"key {key!r} must be a JSON "
                            f"{'object' if kind is dict else 'integer'}, "
                            f"got {type(doc[key]).__name__}")
    if doc["stage"] not in (1, 2):
        raise DataError(f"key 'stage' must be 1 or 2, got {doc['stage']}")
    if doc["epoch"] < 0:
        raise DataError(f"key 'epoch' must not be negative, got {doc['epoch']}")
    config = RunConfig.from_dict(doc["config"])
    if doc.get("config_hash") != config.hash():
        raise DataError("config hash mismatch")
    pipeline = _assemble(config, _NoDraws())
    params = named_parameters(pipeline)
    stored = doc["params"]
    missing = sorted(set(params) - set(stored))
    extra = sorted(set(stored) - set(params))
    if missing or extra:
        raise DataError(f"parameter set mismatch "
                        f"(missing {missing[:3]}, extra {extra[:3]})")
    for name, t in params.items():
        arr = decode_array(stored[name], f"parameter {name}")
        if arr.shape != t.values.shape:
            raise DataError(f"parameter {name} has shape {arr.shape}, "
                            f"expected {t.values.shape}")
        t.values = arr
    try:
        pipeline.alphas = AlphaState.from_dict(doc["alphas"])
    except (TypeError, ContractError) as e:
        raise DataError(f"invalid alphas: {e}") from None
    return LoadedCheckpoint(pipeline=pipeline, stage=doc["stage"],
                            epoch=doc["epoch"],
                            adam=_adam_from_doc(doc.get("adam"), params),
                            trainer_rng=_trainer_rng_from_doc(doc.get("trainer_rng")))


def _adam_from_doc(adam, params: dict) -> AdamState:
    """Optimizer state whose entries name parameters and match their shapes."""
    if adam is None:
        return AdamState()
    if not isinstance(adam, dict) or set(adam) != {"steps", "m", "v"} or \
            not all(isinstance(adam[k], dict) for k in adam):
        raise DataError(f"key 'adam' must be null or an object of three "
                        f"objects steps, m and v, got {adam!r:.60}")
    for name, n in adam["steps"].items():
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise DataError(f"adam.steps entry {name} must be a positive "
                            f"integer, got {n!r:.60}")
    for part in ("m", "v"):
        if set(adam[part]) != set(adam["steps"]):
            raise DataError(f"adam.{part} names other parameters than adam.steps")
    unknown = sorted(set(adam["steps"]) - set(params))
    if unknown:
        raise DataError(f"adam.steps names unknown parameters {unknown[:3]}")
    state = AdamState.from_dict(adam)
    for part in ("m", "v"):
        for name, a in getattr(state, part).items():
            if a.shape != params[name].values.shape:
                raise DataError(f"adam.{part} entry {name} has shape {a.shape}, "
                                f"expected {params[name].values.shape}")
    return state


def _trainer_rng_from_doc(state):
    if state is not None and not (
            isinstance(state, list) and len(state) == 5 and
            all(isinstance(x, int) and not isinstance(x, bool) and 0 <= x < 2 ** 64
                for x in state)):
        raise DataError(f"key 'trainer_rng' must be null or five integers in "
                        f"[0, 2**64), got {state!r:.60}")
    if state is not None and not any(state[1:]):
        raise DataError("key 'trainer_rng' holds the all-zero generator state, "
                        "from which xoshiro256++ never leaves")
    return state


def require_same_config(checkpoint_config: RunConfig, given: RunConfig) -> None:
    """Reject evaluation or resumption under an incompatible config."""
    if checkpoint_config.hash() != given.hash():
        raise ConfigError(
            "checkpoint was produced under a different configuration "
            f"(hash {checkpoint_config.hash()} vs {given.hash()})")
