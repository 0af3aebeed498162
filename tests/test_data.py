"""Ingestion, synthesis, and splitting: schema errors with locations,
bit-exact round-trips, generator statistics, partition properties."""
import hashlib
import json

import numpy as np
import pytest

from emofuse.data import (STREAMS, Dialogue, SynthSpec, Utterance,
                          all_utterances, load_dataset, save_dataset, split,
                          synth_generate)
from emofuse.errors import ConfigError, ContractError, DataError
from emofuse.rng import Rng


def tiny_spec(**kw):
    base = dict(num_classes=3, text_dim=4, video_dim=3, audio_dim=2,
                num_dialogues=6, utterances_per_dialogue=(2, 4), seed=7)
    base.update(kw)
    return SynthSpec(**base)


# ---------------------------------------------------------------------------
# loading and saving

def test_empty_file_empty_dataset(tmp_path):
    p = tmp_path / "empty.jsonl"
    p.write_text("")
    assert load_dataset(p) == []


def test_round_trip_is_identity(tmp_path):
    ds = synth_generate(tiny_spec())
    p = tmp_path / "ds.jsonl"
    save_dataset(ds, p)
    back = load_dataset(p)
    assert len(back) == len(ds)
    for d1, d2 in zip(ds, back):
        assert d1.dialogue_id == d2.dialogue_id
        for u1, u2 in zip(d1.utterances, d2.utterances):
            assert u1.utterance_id == u2.utterance_id
            assert u1.speaker_id == u2.speaker_id
            assert u1.label == u2.label
            for s in u1.features:
                assert np.array_equal(u1.features[s], u2.features[s])


def test_double_round_trip_byte_identical(tmp_path):
    ds = synth_generate(tiny_spec())
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_dataset(ds, p1)
    save_dataset(load_dataset(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_malformed_json_cites_line(tmp_path):
    ds = synth_generate(tiny_spec(num_dialogues=2))
    p = tmp_path / "bad.jsonl"
    save_dataset(ds, p)
    lines = p.read_text().splitlines()
    lines[1] = lines[1][:-10]
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="line 2"):
        load_dataset(p)


def test_width_mismatch_cites_record(tmp_path):
    ds = synth_generate(tiny_spec(num_dialogues=1, utterances_per_dialogue=(3, 3)))
    u3 = ds[0].utterances[2]
    u3.features["audio"] = np.hstack([u3.features["audio"],
                                      np.zeros((u3.features["audio"].shape[0], 1))])
    p = tmp_path / "mismatch.jsonl"
    save_dataset(ds, p)
    with pytest.raises(DataError, match="record 3.*audio_feat"):
        load_dataset(p)


def test_video_length_mismatch_rejected(tmp_path):
    ds = synth_generate(tiny_spec(num_dialogues=1))
    u = ds[0].utterances[0]
    u.features["video_back"] = np.vstack([u.features["video_back"],
                                          u.features["video_back"][-1:]])
    p = tmp_path / "video.jsonl"
    save_dataset(ds, p)
    with pytest.raises(DataError, match="video streams disagree"):
        load_dataset(p)


def test_missing_stream_and_bad_label(tmp_path):
    p = tmp_path / "schema.jsonl"
    rec = {"dialogue_id": "d0", "utterances": [{
        "utterance_id": "u0", "speaker_id": "s0", "label": 0,
        "text_feat": [[1.0]], "video_face_feat": [[1.0]],
        "video_back_feat": [[1.0]], "audio_feat": [[1.0]]}]}
    broken = json.loads(json.dumps(rec))
    del broken["utterances"][0]["audio_feat"]
    p.write_text(json.dumps(broken) + "\n")
    with pytest.raises(DataError, match="missing audio_feat"):
        load_dataset(p)

    bad_label = json.loads(json.dumps(rec))
    bad_label["utterances"][0]["label"] = -1
    p.write_text(json.dumps(bad_label) + "\n")
    with pytest.raises(DataError, match="label"):
        load_dataset(p)


def test_duplicate_utterance_ids_rejected(tmp_path):
    def dialogue(dialogue_id, utterance_ids):
        return json.dumps({"dialogue_id": dialogue_id, "utterances": [{
            "utterance_id": uid, "speaker_id": "s0", "label": 0,
            "text_feat": [[1.0]], "video_face_feat": [[1.0]],
            "video_back_feat": [[1.0]], "audio_feat": [[1.0]]} for uid in utterance_ids]})

    p = tmp_path / "dup.jsonl"
    p.write_text(dialogue("d0", ["same", "same"]) + "\n")
    with pytest.raises(DataError, match="duplicate"):
        load_dataset(p)
    # an id repeated in another dialogue collides in every id-keyed table
    # (negative pools, alpha estimates), so it is rejected too, and the
    # message names the record, the id and where it first appeared
    p.write_text(dialogue("d0", ["u0", "u1"]) + "\n" + dialogue("d1", ["u2", "u1"]) + "\n")
    with pytest.raises(DataError,
                       match=r"record 4: duplicate utterance id 'u1', first seen in "
                             r"dialogue 'd0'"):
        load_dataset(p)


# ---------------------------------------------------------------------------
# synthesis

def test_same_seed_identical_dataset(tmp_path):
    a = synth_generate(tiny_spec())
    b = synth_generate(tiny_spec())
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_dataset(a, p1)
    save_dataset(b, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_default_corpus_bytes_are_pinned():
    # recorded from the scalar-draw generator; any change to the draw order
    # or to the arithmetic of synthesis changes this digest
    h = hashlib.sha256()
    for d in synth_generate(SynthSpec(seed=3)):
        for u in d.utterances:
            h.update(str(u.label).encode())
            for s in STREAMS:
                m = u.features[s]
                h.update(repr(m.shape).encode() + m.tobytes())
    assert h.hexdigest() == \
        "578a233b48e03c087683d9b457857c70bb564860feda451bc7bdc3b7750d41ff"


def test_degenerate_generator_is_pure_signal():
    ds = synth_generate(tiny_spec(correlation=1.0, noise_scale=0.0))
    by_class = {}
    for u in all_utterances(ds):
        pooled = tuple(u.features["text"].mean(axis=0).round(12))
        by_class.setdefault(u.label, set()).add(pooled)
    for label, pools in by_class.items():
        assert len(pools) == 1  # pooled mean exactly determines the class
    assert len({next(iter(v)) for v in by_class.values()}) == len(by_class)


def test_nearest_centroid_oracle_on_separated_classes():
    ds = synth_generate(tiny_spec(num_classes=3, separation=5.0, num_dialogues=40,
                                  utterances_per_dialogue=(3, 6), seed=11))
    utts = all_utterances(ds)
    pooled = np.array([u.features["text"].mean(axis=0) for u in utts])
    labels = np.array([u.label for u in utts])
    cents = np.array([pooled[labels == c].mean(axis=0) for c in range(3)])
    d2 = ((pooled[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    acc = (d2.argmin(axis=1) == labels).mean()
    assert acc >= 0.99


def test_class_priors_converge():
    weights = [0.5, 0.3, 0.2]
    ds = synth_generate(tiny_spec(num_classes=3, class_weights=weights,
                                  num_dialogues=400, utterances_per_dialogue=(4, 8),
                                  seed=13))
    labels = [u.label for u in all_utterances(ds)]
    n = len(labels)
    for c, w in enumerate(weights):
        assert abs(labels.count(c) / n - w) < 0.03


def test_speaker_pool_round_robin():
    ds = synth_generate(tiny_spec(num_speakers=3, utterances_per_dialogue=(4, 4)))
    for d in ds:
        assert [u.speaker_id for u in d.utterances] == ["s0", "s1", "s2", "s0"]


def test_informativeness_scales_signal():
    weak = synth_generate(tiny_spec(informativeness=(1.0, 1.0, 0.1), noise_scale=0.0,
                                    correlation=1.0))
    strong = synth_generate(tiny_spec(informativeness=(1.0, 1.0, 1.0), noise_scale=0.0,
                                      correlation=1.0))
    weak_norm = np.linalg.norm(weak[0].utterances[0].features["audio"][0])
    strong_norm = np.linalg.norm(strong[0].utterances[0].features["audio"][0])
    assert weak_norm == pytest.approx(0.1 * strong_norm, rel=1e-9)


def test_spec_validation():
    with pytest.raises(ConfigError):
        tiny_spec(separation=0.0)
    with pytest.raises(ConfigError):
        tiny_spec(correlation=1.5)
    with pytest.raises(ConfigError):
        tiny_spec(class_weights=[0.5, 0.5])  # wrong length for 3 classes
    with pytest.raises(ConfigError):
        tiny_spec(class_weights=[0.5, 0.3, 0.3])


@pytest.mark.parametrize("key, value, message", [
    ("text_len", (0, 2), "text_len must be a list of two integers 1 <= lo <= hi, got (0, 2)"),
    ("utterances_per_dialogue", (3, 2),
     "utterances_per_dialogue must be a list of two integers 1 <= lo <= hi, got (3, 2)"),
    ("num_dialogues", 2.5, "num_dialogues must be an integer, got 2.5"),
    ("seed", -1, "seed must be a u64, got -1"),
    ("seed", 2 ** 64, f"seed must be a u64, got {2 ** 64}"),
    ("informativeness", (1.0, 0.5), "informativeness must be a list of 3 numbers"),
    ("class_weights", [1.5, -0.5, 0.0], "class_weights entries must be >= 0, got -0.5"),
], ids=["text-len-zero", "utterances-reversed", "float-dialogues", "seed-negative",
        "seed-2**64", "informativeness-two", "class-weight-negative"])
def test_spec_built_in_code_is_checked_like_json(key, value, message):
    with pytest.raises(ConfigError) as e:
        tiny_spec(**{key: value})
    assert message in str(e.value)


# ---------------------------------------------------------------------------
# splitting

def test_split_all_train():
    ds = synth_generate(tiny_spec(num_dialogues=5))
    tr, va, te = split(ds, (1.0, 0.0, 0.0), seed=1)
    assert len(tr) == 5 and not va and not te


def test_split_sizes_exact():
    ds = synth_generate(tiny_spec(num_dialogues=10))
    tr, va, te = split(ds, (0.8, 0.1, 0.1), seed=2)
    assert (len(tr), len(va), len(te)) == (8, 1, 1)


def test_split_partitions_for_random_seeds():
    ds = synth_generate(tiny_spec(num_dialogues=13))
    ids = {d.dialogue_id for d in ds}
    for seed in range(5):
        tr, va, te = split(ds, (0.6, 0.2, 0.2), seed=seed)
        got = [d.dialogue_id for d in tr + va + te]
        assert len(got) == len(ids)
        assert set(got) == ids


def test_split_deterministic_and_validated():
    ds = synth_generate(tiny_spec(num_dialogues=9))
    a = split(ds, (0.5, 0.25, 0.25), seed=3)
    b = split(ds, (0.5, 0.25, 0.25), seed=3)
    assert [d.dialogue_id for d in a[0]] == [d.dialogue_id for d in b[0]]
    with pytest.raises(ContractError):
        split(ds, (0.5, 0.2, 0.2), seed=3)


def test_dialogue_invariants():
    with pytest.raises(ContractError):
        Dialogue(dialogue_id="d", utterances=[])
