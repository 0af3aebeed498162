"""Dataset ingestion, synthesis, and splitting.

The on-disk format is JSON Lines, one dialogue per line. Every
utterance carries four feature streams (text, video_face, video_back,
audio) as row-major matrices, a speaker id, and a class label; stream
widths must be constant across a file. Floats are written with Python's
shortest round-trip repr, so save followed by load is bit-exact.
"""
from __future__ import annotations

import dataclasses
import io
import json
from dataclasses import dataclass

import numpy as np

from .config import check_type, from_json_object, read_json, read_text
from .encoders import MODE_STREAMS, MODES
from .errors import ConfigError, ContractError, DataError
from .rng import Rng

# every feature stream in file and processing order, and the mode it feeds
STREAMS = tuple(s for mode in MODES for s in MODE_STREAMS[mode])
STREAM_MODE = {s: mode for mode in MODES for s in MODE_STREAMS[mode]}


@dataclass
class Utterance:
    utterance_id: str
    speaker_id: str
    label: int
    features: dict  # stream name -> float64 matrix


@dataclass
class Dialogue:
    dialogue_id: str
    utterances: list

    def __post_init__(self):
        if not self.utterances:
            raise ContractError(f"dialogue {self.dialogue_id}: needs at least 1 utterance")
        ids = [u.utterance_id for u in self.utterances]
        if len(set(ids)) != len(ids):
            raise ContractError(f"dialogue {self.dialogue_id}: duplicate utterance ids")


def _as_matrix(obj, stream, record, utt_id):
    where = f"record {record}, utterance {utt_id!r}, {stream}_feat"
    if not isinstance(obj, list) or not obj:
        raise DataError(f"{where}: expected a nonempty list of rows")
    width = None
    for row in obj:
        if not isinstance(row, list) or not row:
            raise DataError(f"{where}: rows must be nonempty lists")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise DataError(f"{where}: ragged rows ({len(row)} vs {width})")
        for v in row:
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise DataError(f"{where}: non-numeric entry {v!r}")
    mat = np.array(obj, dtype=np.float64)
    if not np.all(np.isfinite(mat)):
        raise DataError(f"{where}: non-finite entry")
    return mat


def load_dataset(path) -> list:
    """Parse and validate a JSONL dialogue file.

    Raises DataError with the offending line for malformed JSON, and
    with the record number and utterance id for schema violations.
    Stream widths are pinned by the first utterance seen.
    """
    dialogues = []
    widths = {}
    first_seen = {}  # utterance id -> the dialogue it first appeared in
    record = 0
    text = read_text(path, "dataset", DataError)
    for line_no, line in enumerate(io.StringIO(text), start=1):
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as e:
            raise DataError(f"line {line_no}: malformed JSON ({e.msg})") from None
        if not isinstance(raw, dict) or "dialogue_id" not in raw or "utterances" not in raw:
            raise DataError(f"line {line_no}: expected dialogue_id and utterances keys")
        if not isinstance(raw["utterances"], list):
            raise DataError(f"line {line_no}: utterances must be a list, got "
                            f"{type(raw['utterances']).__name__}")
        utts = []
        for u in raw["utterances"]:
            record += 1
            if not isinstance(u, dict):
                raise DataError(f"line {line_no}, record {record}: utterance must be "
                                f"an object, got {type(u).__name__}")
            try:
                utt_id = u["utterance_id"]
                speaker = u["speaker_id"]
                label = u["label"]
            except KeyError as e:
                raise DataError(f"line {line_no}, record {record}: missing field {e}") from None
            if str(utt_id) in first_seen:
                raise DataError(f"record {record}: duplicate utterance id {utt_id!r}, first "
                                f"seen in dialogue {first_seen[str(utt_id)]!r}")
            first_seen[str(utt_id)] = str(raw["dialogue_id"])
            if not isinstance(label, int) or isinstance(label, bool) or label < 0:
                raise DataError(
                    f"record {record}, utterance {utt_id!r}: label must be a "
                    f"nonnegative integer, got {label!r}")
            feats = {}
            for stream in STREAMS:
                key = f"{stream}_feat"
                if key not in u:
                    raise DataError(f"record {record}, utterance {utt_id!r}: missing {key}")
                mat = _as_matrix(u[key], stream, record, utt_id)
                if stream in widths and mat.shape[1] != widths[stream]:
                    raise DataError(
                        f"record {record}, utterance {utt_id!r}: {key} width "
                        f"{mat.shape[1]} does not match dataset width {widths[stream]}")
                widths.setdefault(stream, mat.shape[1])
                feats[stream] = mat
            for mode, streams in MODE_STREAMS.items():
                lengths = [str(feats[s].shape[0]) for s in streams]
                if len(set(lengths)) > 1:
                    raise DataError(
                        f"record {record}, utterance {utt_id!r}: {mode} streams disagree "
                        f"on length ({' vs '.join(lengths)})")
            utts.append(Utterance(utterance_id=str(utt_id), speaker_id=str(speaker),
                                  label=label, features=feats))
        try:
            dialogues.append(Dialogue(dialogue_id=str(raw["dialogue_id"]), utterances=utts))
        except ContractError as e:
            raise DataError(f"line {line_no}: {e}") from None
    return dialogues


def save_dataset(dialogues, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for d in dialogues:
            fh.write(json.dumps({
                "dialogue_id": d.dialogue_id,
                "utterances": [{
                    "utterance_id": u.utterance_id,
                    "speaker_id": u.speaker_id,
                    "label": u.label,
                    **{f"{s}_feat": u.features[s].tolist() for s in STREAMS},
                } for u in d.utterances],
            }, separators=(",", ":")))
            fh.write("\n")


@dataclass
class SynthSpec:
    """Knobs for the synthetic conversation generator.

    Class signal lives in per-(class, stream) centroid directions of
    norm `separation` (in units of the noise scale). Each utterance
    draws one shared latent vector; every stream row adds
    noise_scale * (correlation * projected latent + (1-correlation) * own noise),
    so `correlation` couples the modes. `informativeness` scales the
    class signal per mode (text, video, audio) to make some modes
    weaker evidence than others.
    """
    num_classes: int = 4
    text_dim: int = 6
    video_dim: int = 5
    audio_dim: int = 4
    separation: float = 4.0
    correlation: float = 0.6
    noise_scale: float = 1.0
    text_len: tuple = (3, 6)
    video_len: tuple = (2, 4)
    audio_len: tuple = (2, 5)
    class_weights: list = None
    num_dialogues: int = 50
    utterances_per_dialogue: tuple = (2, 8)
    num_speakers: int = 2
    informativeness: tuple = (1.0, 1.0, 1.0)
    seed: int = 0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if f.type in ("int", "float"):
                check_type(f.name, getattr(self, f.name), f.type)
        for key in [f"{mode}_dim" for mode in MODES]:
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be positive, got {getattr(self, key)}")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"seed must be a u64, got {self.seed}")
        for key in [f"{mode}_len" for mode in MODES] + ["utterances_per_dialogue"]:
            v = getattr(self, key)
            if not (isinstance(v, (list, tuple)) and len(v) == 2 and
                    all(isinstance(x, int) and not isinstance(x, bool) for x in v) and
                    1 <= v[0] <= v[1]):
                raise ConfigError(f"{key} must be a list of two integers "
                                  f"1 <= lo <= hi, got {v!r:.40}")
            setattr(self, key, tuple(v))
        if self.separation <= 0.0:
            raise ConfigError("SynthSpec.separation must be positive")
        if not 0.0 <= self.correlation <= 1.0:
            raise ConfigError("SynthSpec.correlation must lie in [0, 1]")
        if self.noise_scale < 0.0:
            raise ConfigError("SynthSpec.noise_scale must be >= 0")
        if self.num_classes < 2:
            raise ConfigError("SynthSpec.num_classes must be at least 2")
        if self.num_speakers < 1 or self.num_dialogues < 1:
            raise ConfigError("SynthSpec: speaker pool and dialogue count must be positive")
        _check_weights("informativeness", self.informativeness, len(MODES))
        self.informativeness = tuple(self.informativeness)
        if self.class_weights is None:
            self.class_weights = [1.0 / self.num_classes] * self.num_classes
        _check_weights("class_weights", self.class_weights, self.num_classes)
        if abs(sum(self.class_weights) - 1.0) > 1e-9:
            raise ConfigError("SynthSpec.class_weights must sum to 1")


def _check_weights(key: str, v, size: int) -> None:
    if not isinstance(v, (list, tuple)) or len(v) != size:
        raise ConfigError(f"{key} must be a list of {size} numbers, got {v!r:.40}")
    for x in v:
        check_type(f"{key} entry", x, "float")
        if x < 0:
            raise ConfigError(f"{key} entries must be >= 0, got {x}")


def load_synth_spec(path) -> SynthSpec:
    raw = read_json(path, "spec", ConfigError)
    return from_json_object(SynthSpec, raw, "synth spec")


_LATENT_DIM = 6


def synth_generate(spec: SynthSpec) -> list:
    """Deterministically sample a dialogue corpus from the spec."""
    rng = Rng(spec.seed)
    # per-stream constants, drawn and looked up once: (stream, mode, width, mixer)
    layout = []
    centroids = {}
    for stream in STREAMS:
        mode = STREAM_MODE[stream]
        dim = getattr(spec, f"{mode}_dim")
        signal = spec.informativeness[MODES.index(mode)]
        mixer = rng.normal_array((_LATENT_DIM, dim)) / np.sqrt(_LATENT_DIM)
        for c in range(spec.num_classes):
            direction = rng.normal_array((dim,))
            norm = float(np.linalg.norm(direction))
            if norm == 0.0:
                direction[0] = 1.0
                norm = 1.0
            centroids[(c, stream)] = (direction / norm) * spec.separation * signal
        layout.append((stream, mode, dim, mixer))

    def rand_len(rng, lo_hi):
        lo, hi = lo_hi
        return lo + rng.randint(hi - lo + 1) if hi > lo else lo

    len_ranges = {mode: getattr(spec, f"{mode}_len") for mode in MODES}
    # the streams of one mode share one length; a mode with several streams
    # draws it before any stream's own draws, which fixes the corpus bytes
    shared = [mode for mode in MODES if len(MODE_STREAMS[mode]) > 1]
    scale, corr, own = spec.noise_scale, spec.correlation, 1.0 - spec.correlation
    dialogues = []
    for di in range(spec.num_dialogues):
        n_utts = rand_len(rng, spec.utterances_per_dialogue)
        utts = []
        for uj in range(n_utts):
            label = rng.categorical(spec.class_weights)
            latent = rng.normal_array((_LATENT_DIM,))
            feats = {}
            rows = {mode: rand_len(rng, len_ranges[mode]) for mode in shared}
            for stream, mode, dim, mixer in layout:
                n = rows[mode] if mode in rows else rand_len(rng, len_ranges[mode])
                noise = rng.normal_array((n, dim))
                feats[stream] = (centroids[(label, stream)] +
                                 scale * (corr * (latent @ mixer) + own * noise))
            utts.append(Utterance(
                utterance_id=f"d{di:04d}_u{uj:02d}",
                speaker_id=f"s{uj % spec.num_speakers}",
                label=label,
                features=feats,
            ))
        dialogues.append(Dialogue(dialogue_id=f"d{di:04d}", utterances=utts))
    return dialogues


def split(dialogues, fractions, seed: int):
    """Shuffle dialogues and partition them by the three fractions."""
    if len(fractions) != 3:
        raise ContractError("split: need exactly 3 fractions")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ContractError(f"split: fractions sum to {sum(fractions)}, not 1")
    order = list(dialogues)
    Rng(seed).shuffle(order)
    n = len(order)
    cut1 = int(n * fractions[0] + 1e-9)
    cut2 = int(n * (fractions[0] + fractions[1]) + 1e-9)
    return order[:cut1], order[cut1:cut2], order[cut2:]


def all_utterances(dialogues) -> list:
    out = []
    for d in dialogues:
        out.extend(d.utterances)
    return out
