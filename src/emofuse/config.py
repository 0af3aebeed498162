"""Run configuration: one flat document driving every module.

A RunConfig mirrors the knobs of the encoders, cross-modal network,
fusion, losses, context classifier, and trainer. It loads from a flat
JSON object, validates every knob (module sizes by constructing each
module's own config), and hashes canonically so checkpoints can reject
incompatible evaluation.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass

from .context import ContextConfig
from .encoders import EncoderConfig
from .errors import ConfigError
from .losses import FOCAL_FORMS, NCE_FORMS
from .man import ManConfig

ALPHA_MODES = ("learned", "fixed", "random")


def check_type(key: str, value, kind: str) -> None:
    """Raise a ConfigError naming ``key`` unless ``value`` is a JSON value
    of ``kind``: "int" (not a bool or float), "float" (an int or a finite
    float, not a bool) or "str"."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    ok = {"int": number and isinstance(value, int),
          "float": number and math.isfinite(value),
          "str": isinstance(value, str)}[kind]
    if not ok:
        noun = {"int": "an integer", "float": "a finite number", "str": "a string"}[kind]
        raise ConfigError(f"{key} must be {noun}, got {value!r:.40}")


@dataclass
class RunConfig:
    # raw feature widths per mode
    text_dim: int = 6
    video_dim: int = 5
    audio_dim: int = 4
    num_classes: int = 4
    # sequence encoders
    encoder_out: int = 8
    lstm_hidden: int = 8
    attention_layers: int = 1
    # cross-modal network
    man_layers: int = 2
    man_heads: int = 1
    descriptor_dim: int = 8
    # adaptive fusion
    alpha_mode: str = "learned"
    epsilon: float = 0.1
    alpha_momentum: float = 0.9
    informative_budget: int = 16
    # losses
    gamma: float = 1.0
    tau: float = 0.1
    negatives_per_anchor: int = 4
    focal_form: str = "canonical"
    nce_form: str = "printed"
    # conversation context
    context_state_dim: int = 8
    context_lstm_hidden: int = 8
    eval_mode: str = "own"
    # training
    lr: float = 1e-2
    stage1_epochs: int = 6
    stage2_epochs: int = 6
    batch_size: int = 8
    fine_tune_scale: float = 0.1
    seed: int = 0
    # reporting
    subset_classes: list = None

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if f.type in ("int", "float", "str"):
                check_type(f.name, getattr(self, f.name), f.type)
        try:
            self.encoder_config()
            self.man_config()
            self.context_config()
        except Exception as e:
            raise ConfigError(f"invalid configuration: {e}") from None
        if self.alpha_mode not in ALPHA_MODES:
            raise ConfigError(f"alpha_mode must be one of {ALPHA_MODES}, "
                              f"got {self.alpha_mode!r}")
        if self.gamma < 0.0:
            raise ConfigError(f"gamma must be >= 0, got {self.gamma}")
        if self.tau <= 0.0:
            raise ConfigError(f"tau must be positive, got {self.tau}")
        if self.negatives_per_anchor < 1:
            raise ConfigError(f"negatives_per_anchor must be >= 1, "
                              f"got {self.negatives_per_anchor}")
        if self.focal_form not in FOCAL_FORMS:
            raise ConfigError(f"focal_form must be one of {FOCAL_FORMS}, "
                              f"got {self.focal_form!r}")
        if self.nce_form not in NCE_FORMS:
            raise ConfigError(f"nce_form must be one of {NCE_FORMS}, "
                              f"got {self.nce_form!r}")
        if self.eval_mode not in ("own", "dialogue"):
            raise ConfigError(f"eval_mode must be 'own' or 'dialogue', "
                              f"got {self.eval_mode!r}")
        if not 0.0 < self.epsilon:
            raise ConfigError("epsilon must be positive")
        if not 0.0 <= self.alpha_momentum < 1.0:
            raise ConfigError("alpha_momentum must lie in [0, 1)")
        if self.lr <= 0.0:
            raise ConfigError("lr must be positive")
        if self.stage1_epochs < 0 or self.stage2_epochs < 0:
            raise ConfigError("epoch counts must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not 0.0 < self.fine_tune_scale <= 1.0:
            raise ConfigError("fine_tune_scale must lie in (0, 1]")
        if self.informative_budget < 1:
            raise ConfigError("informative_budget must be >= 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must be a u64")
        if self.subset_classes is not None:
            if not isinstance(self.subset_classes, (list, tuple)) or not self.subset_classes:
                raise ConfigError("subset_classes must be null or a nonempty list")
            self.subset_classes = list(self.subset_classes)
            for c in self.subset_classes:
                if not isinstance(c, int) or isinstance(c, bool) or \
                        not 0 <= c < self.num_classes:
                    raise ConfigError(f"subset class {c!r} outside "
                                      f"[0, {self.num_classes})")
            if len(set(self.subset_classes)) != len(self.subset_classes):
                raise ConfigError(f"subset_classes repeats a class, got "
                                  f"{self.subset_classes}")

    # per-module views -----------------------------------------------------

    def encoder_config(self) -> EncoderConfig:
        return EncoderConfig(text_in=self.text_dim, video_in=self.video_dim,
                             audio_in=self.audio_dim, out=self.encoder_out,
                             lstm_hidden=self.lstm_hidden,
                             attention_layers=self.attention_layers)

    def man_config(self) -> ManConfig:
        return ManConfig(num_classes=self.num_classes, layers=self.man_layers,
                         heads=self.man_heads, descriptor_dim=self.descriptor_dim)

    def context_config(self) -> ContextConfig:
        return ContextConfig(input_dim=3 * self.descriptor_dim,
                             num_classes=self.num_classes,
                             state_dim=self.context_state_dim,
                             lstm_hidden=self.context_lstm_hidden)

    # serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        return from_json_object(cls, d, "configuration")

    def hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def from_json_object(cls, d, noun: str):
    """Build dataclass ``cls`` from a JSON object, rejecting a non-object
    and unknown keys with a ConfigError that names the ``noun``."""
    if not isinstance(d, dict):
        raise ConfigError(f"{noun} must be a JSON object")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(d) - known)
    if unknown:
        raise ConfigError(f"unknown {noun} keys: {unknown}")
    try:
        return cls(**d)
    except TypeError as e:
        raise ConfigError(f"invalid {noun}: {e}") from None


def read_text(path, what: str, error) -> str:
    """The UTF-8 text of the file at ``path``. A file that cannot be read
    or is not UTF-8 raises ``error`` naming ``what`` and the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise error(f"cannot read {what} {path}: {e}") from None
    except UnicodeDecodeError as e:
        raise error(f"{what} {path} is not UTF-8 text: {e}") from None


def read_json(path, what: str, error):
    """The JSON document in the file at ``path``; errors as ``read_text``."""
    text = read_text(path, what, error)
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise error(f"{what} {path} is not valid JSON: {e}") from None


def load_config(path) -> RunConfig:
    return RunConfig.from_dict(read_json(path, "config", ConfigError))
