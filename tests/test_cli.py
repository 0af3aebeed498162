"""End-to-end command-line behavior: artifacts, determinism, exit codes."""
import base64
import contextlib
import dataclasses
import io
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emofuse import cli, rng
from emofuse.cli import ALPHA_SETTINGS, main, run_ablation
from emofuse.config import RunConfig
from emofuse.data import SynthSpec, load_dataset
from emofuse.errors import ConfigError
from emofuse.model import encode_array

TINY = {"stage1_epochs": 1, "stage2_epochs": 1, "batch_size": 4, "seed": 2}


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A synthesized corpus plus one finished tiny training run."""
    root = tmp_path_factory.mktemp("cli")
    data_dir = root / "data"
    spec = write_json(root / "spec.json",
                      {"num_dialogues": 10,
                       "utterances_per_dialogue": [2, 3], "seed": 7})
    assert main(["synth", "--spec", spec, "--out", str(data_dir),
                 "--quiet"]) == 0
    cfg = write_json(root / "config.json", TINY)
    run_dir = root / "run"
    assert main(["train", "--data", str(data_dir / "dataset.jsonl"),
                 "--config", cfg, "--out", str(run_dir), "--quiet"]) == 0
    return {"root": root, "data": str(data_dir / "dataset.jsonl"),
            "config": cfg, "run": run_dir}


# ---------------------------------------------------------------------------
# exit codes for bad invocations

def test_no_subcommand_is_usage_error():
    assert main([]) == 2


def test_unknown_flag_is_usage_error():
    assert main(["synth", "--bogus"]) == 2


def test_unknown_sweep_is_usage_error(workdir):
    assert main(["ablate", "--which", "bogus", "--data", workdir["data"]]) == 2


def test_bad_split_is_usage_error(workdir, tmp_path):
    rc = main(["train", "--data", workdir["data"], "--config",
               workdir["config"], "--split", "0.5,0.5",
               "--out", str(tmp_path), "--quiet"])
    assert rc == 2


@pytest.mark.parametrize("argv, message", [
    (["train", "--split", "nan,0,0"], "--split fractions must be finite"),
    (["train", "--split", "inf,-inf,1"], "--split fractions must be finite"),
    (["train", "--split", "0.5,0.5,0.5"], "--split fractions must sum to 1"),
    (["train", "--split=-0.5,0.5,1.0"], "--split fractions must be finite and lie in [0, 1]"),
    (["eval", "--subset", "9"], "--subset class 9 outside [0, 4)"),
    (["eval", "--subset", "0,-1"], "--subset class -1 outside [0, 4)"),
    (["eval", "--subset", "1,1"], "--subset repeats a class, got '1,1'"),
    (["synth", "--seed", "-1"], "--seed must be a u64, got -1"),
    (["synth", "--seed", str(2 ** 64)], f"--seed must be a u64, got {2 ** 64}"),
    (["train", "--seed", "-1"], "--seed must be a u64, got -1"),
], ids=["split-nan", "split-inf", "split-sum", "split-negative", "subset-high",
        "subset-negative", "subset-repeated", "synth-seed-negative", "synth-seed-2**64",
        "train-seed-negative"])
def test_malformed_flag_is_usage_error(workdir, tmp_path, capsys, argv, message):
    where = {"train": ["--data", workdir["data"], "--config", workdir["config"]],
             "eval": ["--checkpoint", str(workdir["run"] / "checkpoint.json"),
                      "--data", workdir["data"]],
             "synth": []}[argv[0]]
    rc = main(argv + where + ["--out", str(tmp_path / "out"), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 2
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_synth_unknown_spec_key_is_usage_error(tmp_path):
    spec = write_json(tmp_path / "s.json", {"num_dialogs": 3})
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path)]) == 2


def test_run_ablation_rejects_unknown_sweep(workdir):
    with pytest.raises(ConfigError):
        run_ablation(RunConfig(**TINY), load_dataset(workdir["data"]), "depth")


# ---------------------------------------------------------------------------
# synth

def test_synth_dataset_loads(workdir):
    dialogues = load_dataset(workdir["data"])
    assert len(dialogues) == 10
    assert all(2 <= len(d.utterances) <= 3 for d in dialogues)


def test_synth_same_seed_same_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert main(["synth", "--seed", "11", "--out", str(d),
                     "--quiet"]) == 0
    assert (a / "dataset.jsonl").read_bytes() == (b / "dataset.jsonl").read_bytes()


def test_global_flags_accepted_after_subcommand(tmp_path, capsys):
    rc = main(["synth", "--out", str(tmp_path / "x"), "--quiet",
               "--seed", "1"])
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert (tmp_path / "x" / "dataset.jsonl").exists()


def test_global_flags_accepted_before_subcommand(tmp_path, capsys):
    rc = main(["--out", str(tmp_path / "y"), "--quiet", "--seed", "1", "synth"])
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert (tmp_path / "y" / "dataset.jsonl").exists()


# ---------------------------------------------------------------------------
# train / eval

def test_train_writes_artifacts(workdir):
    run = workdir["run"]
    for name in ("checkpoint.json", "train_log.jsonl", "metrics.json"):
        assert (run / name).exists(), name
    report = json.loads((run / "metrics.json").read_text())
    assert 0.0 <= report["accuracy"] <= 1.0
    lines = [json.loads(l)
             for l in (run / "train_log.jsonl").read_text().splitlines()]
    assert [r["stage"] for r in lines] == [1, 2]


def test_train_reruns_byte_identical(workdir, tmp_path):
    again = tmp_path / "again"
    rc = main(["train", "--data", workdir["data"], "--config",
               workdir["config"], "--out", str(again), "--quiet"])
    assert rc == 0
    for name in ("metrics.json", "checkpoint.json"):
        assert (again / name).read_bytes() == (workdir["run"] / name).read_bytes()


def test_training_in_block_mode_writes_the_same_bytes(workdir, tmp_path, monkeypatch):
    # every generator fills jump-ahead blocks after its first output
    fills = []
    real_fill = rng.Rng._fill
    monkeypatch.setattr(rng, "_SCALAR_PREFIX", 1)
    monkeypatch.setattr(rng.Rng, "_fill", lambda self: fills.append(1) or real_fill(self))
    assert main(["train", "--data", workdir["data"], "--config", workdir["config"],
                 "--out", str(tmp_path), "--quiet"]) == 0
    assert fills
    for name in ("checkpoint.json", "train_log.jsonl"):
        assert (tmp_path / name).read_bytes() == (workdir["run"] / name).read_bytes()


def test_eval_reruns_byte_identical(workdir, tmp_path):
    ck = str(workdir["run"] / "checkpoint.json")
    outs = []
    for sub in ("e1", "e2"):
        d = tmp_path / sub
        assert main(["eval", "--checkpoint", ck, "--data", workdir["data"],
                     "--out", str(d), "--quiet"]) == 0
        outs.append((d / "metrics.json").read_bytes())
    assert outs[0] == outs[1]


def test_eval_subset_flag(workdir, tmp_path):
    ck = str(workdir["run"] / "checkpoint.json")
    assert main(["eval", "--checkpoint", ck, "--data", workdir["data"],
                 "--subset", "0,1", "--out", str(tmp_path), "--quiet"]) == 0
    rep = json.loads((tmp_path / "metrics.json").read_text())
    assert rep["subset_classes"] == [0, 1]
    assert "subset_weighted_f1" in rep


def test_eval_subset_without_gold_support_reports_null(workdir, tmp_path):
    # no utterance of the data is labelled 2, so the subset has no weights
    lines = []
    for line in (workdir["root"] / "data" / "dataset.jsonl").read_text().splitlines():
        dialogue = json.loads(line)
        for utt in dialogue["utterances"]:
            utt["label"] = 0 if utt["label"] == 2 else utt["label"]
        lines.append(json.dumps(dialogue))
    data = tmp_path / "no-class-2.jsonl"
    data.write_text("\n".join(lines) + "\n")
    assert main(["eval", "--checkpoint", str(workdir["run"] / "checkpoint.json"),
                 "--data", str(data), "--subset", "2", "--out", str(tmp_path),
                 "--quiet"]) == 0
    text = (tmp_path / "metrics.json").read_text()
    assert '"subset_weighted_f1":null' in text
    assert json.loads(text)["subset_classes"] == [2]


def test_eval_on_a_dataset_without_dialogues_is_data_error(workdir, tmp_path, capsys):
    data = tmp_path / "empty.jsonl"
    data.write_text("\n")
    rc = main(["eval", "--checkpoint", str(workdir["run"] / "checkpoint.json"),
               "--data", str(data), "--out", str(tmp_path / "out"), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 3
    assert f"{data} holds no dialogues" in err and "Traceback" not in err


def test_eval_config_mismatch_is_usage_error(workdir, tmp_path):
    other = write_json(tmp_path / "other.json", dict(TINY, gamma=2.0))
    rc = main(["eval", "--checkpoint", str(workdir["run"] / "checkpoint.json"),
               "--data", workdir["data"], "--config", other,
               "--out", str(tmp_path)])
    assert rc == 2


def test_out_of_range_labels_are_data_error(workdir, tmp_path):
    spec = write_json(tmp_path / "s6.json",
                      {"num_classes": 6, "num_dialogues": 6, "seed": 3})
    assert main(["synth", "--spec", spec, "--out", str(tmp_path),
                 "--quiet"]) == 0
    rc = main(["train", "--data", str(tmp_path / "dataset.jsonl"),
               "--config", workdir["config"], "--out", str(tmp_path / "r"),
               "--quiet"])
    assert rc == 3


def test_out_of_range_label_in_last_dialogue_names_the_utterance(workdir, tmp_path,
                                                                   capsys):
    lines = (workdir["root"] / "data" / "dataset.jsonl").read_text().splitlines()
    last = json.loads(lines[-1])
    last["utterances"][-1]["label"] = 7
    lines[-1] = json.dumps(last)
    data = tmp_path / "bad.jsonl"
    data.write_text("\n".join(lines) + "\n")
    rc = main(["eval", "--checkpoint", str(workdir["run"] / "checkpoint.json"),
               "--data", str(data), "--out", str(tmp_path / "out"), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 3
    uid = last["utterances"][-1]["utterance_id"]
    assert f"utterance {uid}: label 7 outside configured 4 classes" in err


def test_resume_overflowing_checkpoint_names_cache(workdir, tmp_path, capsys):
    # finite parameters whose activations overflow fail in the first forward
    # pass of the resumed run, the negative cache, and name it
    blob = json.loads((workdir["run"] / "checkpoint.json").read_text())
    entry = blob["params"]["enc.text.3"]
    blob["params"]["enc.text.3"] = encode_array(np.full(entry["shape"], 1.7e308))
    blob["stage"], blob["epoch"] = 1, 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(blob))
    with np.errstate(over="ignore"):
        rc = main(["train", "--data", workdir["data"], "--resume", str(bad),
                   "--out", str(tmp_path / "r"), "--quiet"])
    assert rc == 4
    assert "negative cache" in capsys.readouterr().err


@pytest.mark.parametrize("record, message", [
    ({"dialogue_id": "d", "utterances": 5}, "line 1: utterances must be a list"),
    ({"dialogue_id": "d", "utterances": [5]},
     "line 1, record 1: utterance must be an object"),
], ids=["utterances-not-list", "utterance-not-object"])
def test_malformed_dataset_is_data_error(tmp_path, capsys, record, message):
    data = tmp_path / "bad.jsonl"
    data.write_text(json.dumps(record) + "\n")
    rc = main(["train", "--data", str(data), "--out", str(tmp_path / "r"),
               "--quiet"])
    err = capsys.readouterr().err
    assert rc == 3
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("stage1_epochs, code", [(1, 3), (0, 0)])
def test_stage1_on_one_training_utterance_is_data_error(tmp_path, capsys, stage1_epochs,
                                                         code):
    # stage 1 draws negatives from the other training utterances; stage 2 alone runs
    spec = write_json(tmp_path / "spec.json", {"num_dialogues": 1,
                                               "utterances_per_dialogue": [1, 1]})
    assert main(["synth", "--spec", spec, "--out", str(tmp_path / "d"), "--quiet"]) == 0
    cfg = write_json(tmp_path / "cfg.json", dict(TINY, stage1_epochs=stage1_epochs))
    out = tmp_path / "r"
    rc = main(["train", "--data", str(tmp_path / "d" / "dataset.jsonl"), "--config", cfg,
               "--split", "1,0,0", "--out", str(out), "--quiet"])
    err = capsys.readouterr().err
    assert rc == code
    if code:
        assert "data error: stage 1" in err and "at least 2; got 1" in err
        assert not (out / "train_log.jsonl").exists()
        assert not (out / "checkpoint.json").exists()


@pytest.mark.parametrize("line", ['{"x": 1}', "5"], ids=["no-stage", "bare-number"])
def test_malformed_log_line_on_resume_is_data_error(workdir, tmp_path, capsys, line):
    out = tmp_path / "r"
    out.mkdir()
    ck = out / "checkpoint.json"
    ck.write_bytes((workdir["run"] / "checkpoint.json").read_bytes())
    log = (workdir["run"] / "train_log.jsonl").read_text().splitlines(keepends=True)
    (out / "train_log.jsonl").write_text(log[0] + line + "\n" + "".join(log[1:]))
    rc = main(["train", "--data", workdir["data"], "--resume", str(ck),
               "--out", str(out), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 3
    assert "train_log.jsonl line 2: expected a log record" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("last", [False, True], ids=["earlier-line", "last-line"])
def test_only_a_cut_short_last_log_line_is_dropped_on_resume(workdir, tmp_path, capsys, last):
    out = tmp_path / "r"
    out.mkdir()
    ck = out / "checkpoint.json"
    ck.write_bytes((workdir["run"] / "checkpoint.json").read_bytes())
    full = (workdir["run"] / "train_log.jsonl").read_bytes()
    log = full.splitlines(keepends=True)
    cut = b'{"stage": 2, "ep'
    written = full + cut if last else log[0] + cut + b"\n" + b"".join(log[1:])
    (out / "train_log.jsonl").write_bytes(written)
    rc = main(["train", "--data", workdir["data"], "--resume", str(ck),
               "--out", str(out), "--quiet"])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if last:  # the finished run's records, whole
        assert rc == 0 and (out / "train_log.jsonl").read_bytes() == full
    else:
        assert rc == 3 and "train_log.jsonl line 2: not a JSON log record" in err
        assert (out / "train_log.jsonl").read_bytes() == written


@pytest.mark.parametrize("kind, problem", [
    ("missing", "No such file"), ("directory", "Is a directory"),
    ("not-utf8", "is not UTF-8 text"),
])
@pytest.mark.parametrize("flag", ["train --data", "train --val", "explain --input"])
def test_unreadable_dataset_is_data_error(workdir, tmp_path, capsys, flag, kind, problem):
    bad = tmp_path / "bad.jsonl"
    if kind == "directory":
        bad.mkdir()
    elif kind == "not-utf8":
        bad.write_bytes(b'{"dialogue_id": "\xff"}\n')
    argv = {"train --data": ["train", "--data", str(bad)],
            "train --val": ["train", "--data", workdir["data"], "--val", str(bad)],
            "explain --input": ["explain", "--input", str(bad),
                                "--checkpoint", str(workdir["run"] / "checkpoint.json")]}[flag]
    rc = main(argv + ["--out", str(tmp_path / "out"), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 3
    assert f"dataset {bad}" in err and problem in err and "Traceback" not in err


@pytest.mark.parametrize("which, code", [("config", 2), ("spec", 2), ("training log", 3)])
def test_non_utf8_input_file_is_named(workdir, tmp_path, capsys, which, code):
    out = tmp_path / "out"
    bad = tmp_path / "bad.json"
    if which == "config":
        argv = ["train", "--data", workdir["data"], "--config", str(bad)]
    elif which == "spec":
        argv = ["synth", "--spec", str(bad)]
    else:
        out.mkdir()
        bad = out / "train_log.jsonl"
        ck = out / "checkpoint.json"
        ck.write_bytes((workdir["run"] / "checkpoint.json").read_bytes())
        argv = ["train", "--data", workdir["data"], "--resume", str(ck)]
    bad.write_bytes(b'{"seed": "\xff"}\n')
    rc = main(argv + ["--out", str(out), "--quiet"])
    err = capsys.readouterr().err
    assert rc == code
    assert f"{which} {bad} is not UTF-8 text" in err and "Traceback" not in err


@pytest.mark.parametrize("under", [False, True], ids=["out-is-file", "out-under-file"])
@pytest.mark.parametrize("sub", ["synth", "train", "eval", "explain", "ablate"])
def test_unwritable_out_is_usage_error(workdir, tmp_path, capsys, sub, under):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "sub" if under else blocker
    ck = str(workdir["run"] / "checkpoint.json")
    uid = load_dataset(workdir["data"])[0].utterances[0].utterance_id
    argv = {"synth": ["synth"],
            "train": ["train", "--data", workdir["data"], "--config", workdir["config"]],
            "eval": ["eval", "--checkpoint", ck, "--data", workdir["data"]],
            "explain": ["explain", "--checkpoint", ck, "--input", workdir["data"],
                        "--utterance", uid, "--samples", "4"],
            "ablate": ["ablate", "--which", "alpha", "--data", workdir["data"],
                       "--config", workdir["config"]]}[sub]
    rc = main(argv + ["--out", str(out), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 2
    assert str(out) in err and "Traceback" not in err


@pytest.mark.parametrize("sub", ["eval", "explain", "synth"])
def test_unwritable_out_is_found_before_the_work(workdir, tmp_path, capsys, monkeypatch,
                                                 sub):
    def never(*args, **kwargs):
        raise AssertionError(f"{sub} did its work before checking --out")

    monkeypatch.setattr(cli, "evaluate", never)
    monkeypatch.setattr(cli, "explain_dialogue", never)
    monkeypatch.setattr(cli, "synth_generate", never)
    blocker = tmp_path / "file"
    blocker.write_text("")
    ck = str(workdir["run"] / "checkpoint.json")
    argv = {"synth": ["synth"],
            "eval": ["eval", "--checkpoint", ck, "--data", workdir["data"]],
            "explain": ["explain", "--checkpoint", ck, "--input", workdir["data"],
                        "--samples", "4"]}[sub]
    rc = main(argv + ["--out", str(blocker), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 2
    assert str(blocker) in err and "Traceback" not in err


@pytest.mark.parametrize("seed, code", [(99, 2), (TINY["seed"], 0)],
                         ids=["contradicting", "matching"])
def test_resume_seed_must_match_the_checkpoint(workdir, tmp_path, capsys, seed, code):
    out = tmp_path / "r"
    out.mkdir()
    ck = out / "checkpoint.json"
    ck.write_bytes((workdir["run"] / "checkpoint.json").read_bytes())
    rc = main(["train", "--data", workdir["data"], "--resume", str(ck),
               "--seed", str(seed), "--out", str(out), "--quiet"])
    err = capsys.readouterr().err
    assert rc == code
    if code:
        assert f"--seed 99 contradicts the checkpoint's seed {TINY['seed']}" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("spec, config, message", [
    ({"num_classes": "a"}, None, "num_classes must be an integer, got 'a'"),
    ({"text_len": 5}, None, "text_len must be a list of two integers"),
    ({"num_dialogues": 2.5}, None, "num_dialogues must be an integer, got 2.5"),
    (None, {"encoder_out": 2.5}, "encoder_out must be an integer, got 2.5"),
], ids=["string-classes", "scalar-range", "float-dialogues", "float-encoder-out"])
def test_mistyped_spec_or_config_is_usage_error(workdir, tmp_path, capsys, spec, config,
                                                message):
    if spec is not None:
        argv = ["synth", "--spec", write_json(tmp_path / "spec.json", spec)]
    else:
        argv = ["train", "--data", workdir["data"],
                "--config", write_json(tmp_path / "config.json", config)]
    rc = main(argv + ["--out", str(tmp_path / "out"), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 2
    assert message in err and "Traceback" not in err


def _with_param(blob, name, value):
    blob["params"][name] = value
    return blob


def _with_param_field(blob, name, **fields):
    return _with_param(blob, name, dict(blob["params"][name], **fields))


def _with_entry(blob, path, value):
    """The checkpoint with the entry at key ``path`` set to ``value``."""
    node = blob
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return blob


def _filled(blob, path, value):
    """The encoded array at ``path`` with one entry set to ``value``."""
    node = blob
    for key in path:
        node = node[key]
    a = np.frombuffer(base64.b64decode(node["data"]), dtype="<f8").copy()
    a[len(a) // 2] = value
    return _with_entry(blob, path, encode_array(a.reshape(node["shape"])))


def _with_adam_m(blob, name, value):
    blob["adam"]["m"][name] = value
    return blob


@pytest.mark.parametrize("edit, message", [
    (lambda b: {"format": b["format"]}, "missing key 'config'"),
    (lambda b: dict(b, stage="1"), "key 'stage' must be a JSON integer, got str"),
    (lambda b: dict(b, params=[]), "key 'params' must be a JSON object, got list"),
    (lambda b: dict(b, alphas={"bogus": 1}), "invalid alphas"),
    (lambda b: _with_param(b, "enc.text.0", "x"), "enc.text.0 is not a numeric array"),
    (lambda b: _with_param_field(b, "enc.text.0", data="@@@@"),
     "parameter enc.text.0 is not a numeric array: bad base64"),
    (lambda b: _with_param_field(b, "enc.text.0",
                                 data=b["params"]["enc.text.0"]["data"][:-4]),
     "parameter enc.text.0 is not a numeric array: 3069 bytes of data for "
     "shape [6, 64], expected 8 x 384"),
    (lambda b: _with_param_field(b, "enc.text.0", shape=[-1]),
     "parameter enc.text.0 is not a numeric array: bad shape [-1]"),
    (lambda b: dict(b, format="emofuse-checkpoint-v1"),
     "unknown format 'emofuse-checkpoint-v1'"),
    (lambda b: dict(b, format="emofuse-checkpoint-v2"),
     "unknown format 'emofuse-checkpoint-v2'"),
    (lambda b: dict(b, adam=5), "key 'adam' must be null or an object"),
    (lambda b: _with_adam_m(b, "enc.text.0", encode_array(np.zeros((1, 1)))),
     "adam.m entry enc.text.0 has shape (1, 1)"),
    (lambda b: dict(b, trainer_rng=[1, 2, 3, 4]),
     "key 'trainer_rng' must be null or five integers"),
    (lambda b: dict(b, trainer_rng="abc"),
     "key 'trainer_rng' must be null or five integers"),
    (lambda b: dict(b, stage=3), "key 'stage' must be 1 or 2, got 3"),
    (lambda b: dict(b, stage=0), "key 'stage' must be 1 or 2, got 0"),
    (lambda b: dict(b, epoch=-4), "key 'epoch' must not be negative, got -4"),
    (lambda b: dict(b, trainer_rng=[b["trainer_rng"][0], 0, 0, 0, 0]),
     "key 'trainer_rng' holds the all-zero generator state"),
    (lambda b: _filled(b, ("params", "enc.text.0"), np.nan),
     "parameter enc.text.0 holds non-finite values"),
    (lambda b: _filled(b, ("adam", "m", "ctx.0"), np.inf),
     "adam.m entry ctx.0 holds non-finite values"),
    (lambda b: _filled(b, ("adam", "v", "ctx.0"), np.inf),
     "adam.v entry ctx.0 holds non-finite values"),
    (lambda b: _filled(b, ("adam", "v", "man.text.0"), -1e-6),
     "adam.v entry man.text.0 holds negative values"),
    (lambda b: _with_entry(b, ("alphas", "epsilon"), float("inf")),
     "invalid alphas: alphas.epsilon must be a finite number, got inf"),
    (lambda b: _with_entry(b, ("alphas", "alpha_prime_1"), True),
     "invalid alphas: alphas.alpha_prime_1 must be a finite number, got True"),
    (lambda b: _with_entry(b, ("alphas", "momentum"), False),
     "invalid alphas: alphas.momentum must be a finite number, got False"),
    (lambda b: _with_entry(b, ("alphas", "epsilon"), 0.2),
     "invalid alphas: epsilon 0.2 and momentum 0.9, but the config says 0.1 and 0.9"),
    (lambda b: _with_entry(b, ("alphas", "momentum"), 0.5),
     "invalid alphas: epsilon 0.1 and momentum 0.5, but the config says 0.1 and 0.9"),
], ids=["missing-key", "string-stage", "list-params", "unknown-alpha-key",
        "text-param", "bad-base64", "short-data", "bad-shape", "v1-format",
        "v2-format", "adam-not-object", "adam-m-shape", "trainer-rng-four", "trainer-rng-string",
        "stage-3", "stage-0", "negative-epoch", "trainer-rng-all-zero", "nan-param",
        "inf-adam-m", "inf-adam-v", "negative-adam-v", "inf-epsilon", "bool-alpha",
        "bool-momentum", "other-epsilon", "other-momentum"])
def test_malformed_checkpoint_is_data_error(workdir, tmp_path, capsys, edit,
                                            message):
    blob = json.loads((workdir["run"] / "checkpoint.json").read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(edit(blob)))
    rc = main(["eval", "--checkpoint", str(bad), "--data", workdir["data"],
               "--out", str(tmp_path), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 3
    assert f"checkpoint {bad}: " in err and message in err and "Traceback" not in err


def _json_paths(node, prefix=()):
    """Every key path in a JSON document, the root first."""
    yield prefix
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        items = ()
    for key, value in items:
        yield from _json_paths(value, prefix + (key,))


def _parent_of(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) |
    st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_mutated_checkpoint_never_escapes(workdir, data):
    """One mutation of a real checkpoint: a clean exit code, never a crash."""
    doc = json.loads((workdir["run"] / "checkpoint.json").read_text())
    paths = list(_json_paths(doc))
    encoded = [p for p in paths if p and p[-1] == "data"]
    kind = data.draw(st.sampled_from(["delete", "replace", "flip", "truncate"]))
    if kind == "delete":
        path = data.draw(st.sampled_from(paths[1:]))
        del _parent_of(doc, path)[path[-1]]
    elif kind == "replace":
        path = data.draw(st.sampled_from(paths))
        value = data.draw(_JSON)
        if path:
            _parent_of(doc, path)[path[-1]] = value
        else:
            doc = value
    else:
        path = data.draw(st.sampled_from(encoded))
        text = _parent_of(doc, path)[path[-1]]
        i = data.draw(st.integers(0, len(text) - 1))
        if kind == "flip":
            char = data.draw(st.sampled_from("AQgw9/+=_-!\u00e9"))
            text = text[:i] + char + text[i + 1:]
        else:
            text = text[:i]
        _parent_of(doc, path)[path[-1]] = text
    fuzz = workdir["root"] / "fuzz"
    fuzz.mkdir(exist_ok=True)
    (fuzz / "ck.json").write_text(json.dumps(doc))
    rc = main(["eval", "--checkpoint", str(fuzz / "ck.json"),
               "--data", workdir["data"], "--out", str(fuzz / "out"), "--quiet"])
    assert rc in (0, 2, 3, 4)


_SPEC = {"num_classes": 3, "num_dialogues": 3, "utterances_per_dialogue": [1, 3],
         "text_len": [1, 3], "video_len": [1, 2], "audio_len": [1, 3],
         "separation": 4.0, "informativeness": [1.0, 1.0, 1.0], "seed": 3}
# small replacement values, so that no mutated spec synthesises a large
# corpus, led by one of each JSON type a field may wrongly get
_SMALL = st.sampled_from([None, True, 0, -1, 2.5, "a", [], [1, 2], [2.5, 3], {"a": 1}]) | \
    st.integers(-10, 10) | st.floats(-10.0, 10.0, allow_nan=False) | st.text(max_size=3) | \
    st.lists(st.integers(-10, 10) | st.floats(-10.0, 10.0, allow_nan=False), max_size=4)


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_mutated_config_and_spec_never_escape(workdir, data):
    """One deleted or replaced key of a spec (through synth) or a config
    (through eval against the tiny run): a clean exit code, never a crash."""
    fuzz = workdir["root"] / "fuzz-config"
    fuzz.mkdir(exist_ok=True)
    is_spec = data.draw(st.booleans())
    doc = dict(_SPEC if is_spec else TINY)
    key = data.draw(st.sampled_from(
        [f.name for f in dataclasses.fields(SynthSpec if is_spec else RunConfig)]))
    if key in doc and data.draw(st.booleans()):
        del doc[key]
    else:
        doc[key] = data.draw(_SMALL)
    path = write_json(fuzz / "doc.json", doc)
    if is_spec:
        runs = [["synth", "--spec", path]]
    else:
        # eval stops at the config hash check, so the config also builds a
        # pipeline through train, with no epochs unless those were mutated
        epochs = {k: 0 for k in ("stage1_epochs", "stage2_epochs") if k != key}
        runs = [["eval", "--checkpoint", str(workdir["run"] / "checkpoint.json"),
                 "--data", workdir["data"], "--config", path],
                ["train", "--data", workdir["data"],
                 "--config", write_json(fuzz / "train.json", dict(doc, **epochs))]]
    for argv in runs:
        assert main(argv + ["--out", str(fuzz / "out"), "--quiet"]) in (0, 2, 3, 4)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_mutated_dataset_never_escapes(workdir, tmp_path_factory, data):
    """One deleted or replaced value anywhere in a valid dataset.jsonl,
    through eval against the tiny run and through train: a clean exit
    code, never a crash."""
    with open(workdir["data"], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    at = data.draw(st.integers(0, len(lines) - 1))
    doc = json.loads(lines[at])
    # walk down from the record, stopping anywhere, and mutate that value
    parent, key = None, None
    node = doc
    while isinstance(node, (dict, list)) and node and data.draw(st.booleans()):
        parent = node
        key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                        else range(len(node))))
        node = parent[key]
    if parent is None:
        doc = data.draw(_SMALL)
    elif isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = data.draw(_SMALL)
    lines[at] = json.dumps(doc)
    fuzz = tmp_path_factory.mktemp("fuzz-data")
    (fuzz / "dataset.jsonl").write_text("\n".join(lines) + "\n")
    dataset = str(fuzz / "dataset.jsonl")
    config = write_json(fuzz / "config.json", dict(TINY, stage2_epochs=0))
    for argv in (["eval", "--checkpoint", str(workdir["run"] / "checkpoint.json"),
                  "--data", dataset],
                 ["train", "--data", dataset, "--config", config]):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(argv + ["--out", str(fuzz / argv[0]), "--quiet"])
        assert rc in (0, 2, 3), err.getvalue()
        assert "Traceback" not in err.getvalue()


# ---------------------------------------------------------------------------
# explain / ablate

def test_explain_single_utterance(workdir, tmp_path):
    uid = load_dataset(workdir["data"])[0].utterances[0].utterance_id
    ck = str(workdir["run"] / "checkpoint.json")
    assert main(["explain", "--checkpoint", ck, "--input", workdir["data"],
                 "--utterance", uid, "--samples", "24",
                 "--out", str(tmp_path), "--quiet"]) == 0
    names = sorted(os.listdir(tmp_path / "explanations"))
    assert "index.json" in names
    assert any(n.endswith(".svg") for n in names)
    assert any(n.endswith(".json") and n != "index.json" for n in names)


@pytest.mark.parametrize("samples", [0, 3])
def test_explain_too_few_samples_is_usage_error(workdir, tmp_path, capsys, samples):
    # below 2, or below the 3 mode groups + 1, no surrogate can be fitted
    ck = str(workdir["run"] / "checkpoint.json")
    rc = main(["explain", "--checkpoint", ck, "--input", workdir["data"],
               "--samples", str(samples), "--out", str(tmp_path), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"--samples must be at least 4 (mode groups + 1), got {samples}" in err


def test_explain_missing_utterance_is_data_error(workdir, tmp_path):
    ck = str(workdir["run"] / "checkpoint.json")
    rc = main(["explain", "--checkpoint", ck, "--input", workdir["data"],
               "--utterance", "nope", "--out", str(tmp_path)])
    assert rc == 3


def test_explain_checks_data_against_checkpoint(workdir, tmp_path, capsys):
    # a corpus one text column wider than the checkpoint: explain names the
    # utterance and exits 3, as eval does
    spec = write_json(tmp_path / "spec.json", {"num_dialogues": 2, "text_dim": 7,
                                               "utterances_per_dialogue": [2, 2], "seed": 7})
    assert main(["synth", "--spec", spec, "--out", str(tmp_path / "wide"), "--quiet"]) == 0
    data = str(tmp_path / "wide" / "dataset.jsonl")
    ck = str(workdir["run"] / "checkpoint.json")
    for argv in (["eval", "--data", data], ["explain", "--input", data, "--samples", "8"]):
        rc = main(argv + ["--checkpoint", ck, "--out", str(tmp_path / "out"), "--quiet"])
        err = capsys.readouterr().err
        assert rc == 3, err
        assert "text width 7 does not match configured width 6" in err


def test_explain_rejects_ids_without_files_of_their_own_before_the_work(
        workdir, tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("explain ran the model before checking the file names")

    monkeypatch.setattr(cli, "explain_dialogue", never)
    data = tmp_path / "renamed.jsonl"
    text = open(workdir["data"], encoding="utf-8").read()
    assert '"d0000_u01"' in text
    data.write_text(text.replace('"d0000_u01"', '"d0000/u00"'), encoding="utf-8")
    rc = main(["explain", "--checkpoint", str(workdir["run"] / "checkpoint.json"),
               "--input", str(data), "--utterance", "all", "--samples", "8",
               "--out", str(tmp_path / "ex"), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 3, err
    assert "'d0000_u00', 'd0000/u00' cannot each name" in err
    assert not (tmp_path / "ex" / "explanations").exists()


def test_explain_all_fuses_each_dialogue_once_and_matches_single_runs(
        workdir, tmp_path, monkeypatch):
    from emofuse import model
    fuses = []
    real_fuse = model.fuse_utterances
    monkeypatch.setattr(model, "fuse_utterances",
                        lambda p, utts, *a: fuses.append(len(utts)) or real_fuse(p, utts, *a))
    dialogues = load_dataset(workdir["data"])
    ck = str(workdir["run"] / "checkpoint.json")
    argv = ["explain", "--checkpoint", ck, "--input", workdir["data"], "--samples", "8",
            "--quiet"]
    assert main(argv + ["--out", str(tmp_path / "all")]) == 0
    assert fuses == [len(d.utterances) for d in dialogues]
    index = json.loads((tmp_path / "all" / "explanations" / "index.json").read_text())
    ids = [u.utterance_id for d in dialogues for u in d.utterances]
    assert [e["utterance_id"] for e in index] == ids
    for uid, entry in zip(ids, index):
        one = tmp_path / uid
        assert main(argv + ["--utterance", uid, "--out", str(one)]) == 0
        for name in (entry["json"], entry["svg"]):
            assert (one / "explanations" / name).read_bytes() == \
                (tmp_path / "all" / "explanations" / name).read_bytes()


def test_ablate_alpha_writes_table(workdir, tmp_path):
    assert main(["ablate", "--which", "alpha", "--data", workdir["data"],
                 "--config", workdir["config"], "--out", str(tmp_path),
                 "--quiet"]) == 0
    rows = json.loads((tmp_path / "ablation_alpha.json").read_text())
    assert [r["setting"] for r in rows] == [n for n, _ in ALPHA_SETTINGS]
    assert all(0.0 <= r["weighted_f1"] <= 1.0 for r in rows)
