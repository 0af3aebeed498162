"""Optimizer correctness, two-stage training, resumability, and aborts."""
import json

import numpy as np
import pytest

from emofuse import tensor as T
from emofuse import train as train_mod
from emofuse.config import RunConfig
from emofuse.data import SynthSpec, all_utterances, split, synth_generate
from emofuse.encoders import MODES
from emofuse.errors import ConfigError, ContractError, NumericError
from emofuse.fusion import AlphaState
from emofuse.model import (chunks, evaluate, init_pipeline, load_checkpoint, named_parameters,
                           utterance_descriptors)
from emofuse.rng import Rng
from emofuse.train import (AdamState, adam_step, per_mode_accuracy,
                           run_training)

from oracles import adam_step_scalar, sample_indices_list_form


def small_corpus(seed=5, n=14):
    return synth_generate(SynthSpec(num_dialogues=n,
                                    utterances_per_dialogue=(2, 4), seed=seed))


def small_config(**kw):
    base = dict(stage1_epochs=2, stage2_epochs=2, batch_size=5, seed=1)
    base.update(kw)
    return RunConfig(**base)


# ---------------------------------------------------------------------------
# optimizer

def test_adam_matches_scalar_oracle():
    p = T.Tensor([[0.5]], requires_grad=True)
    state = AdamState()
    want, m, v = 0.5, 0.0, 0.0
    for t, g in enumerate([0.3, -0.7, 0.1, 0.9, -0.2], start=1):
        p.grad = np.array([[g]])
        adam_step({"w": p}, state, lr=0.01)
        want, m, v = adam_step_scalar(want, g, m, v, t, 0.01, 0.9, 0.999, 1e-8)
        assert p.values[0, 0] == pytest.approx(want, abs=1e-15)
    assert p.grad is None  # consumed


def test_adam_scale_and_skip():
    a = T.Tensor([[1.0]], requires_grad=True)
    b = T.Tensor([[1.0]], requires_grad=True)
    c = T.Tensor([[1.0]], requires_grad=True)
    a.grad = np.array([[1.0]])
    b.grad = np.array([[1.0]])
    state = AdamState()
    adam_step({"a": a, "b": b, "c": c}, state, lr=0.1, scale={"b": 0.1})
    step_a = 1.0 - a.values[0, 0]
    step_b = 1.0 - b.values[0, 0]
    assert step_b == pytest.approx(0.1 * step_a, rel=1e-12)
    assert c.values[0, 0] == 1.0  # no grad, untouched
    assert "c" not in state.steps


def test_adam_per_parameter_step_counts():
    # a parameter first touched later gets its own bias correction clock
    a = T.Tensor([[0.0]], requires_grad=True)
    b = T.Tensor([[0.0]], requires_grad=True)
    state = AdamState()
    a.grad = np.array([[1.0]])
    adam_step({"a": a, "b": b}, state, lr=0.1)
    a.grad = np.array([[1.0]])
    b.grad = np.array([[1.0]])
    adam_step({"a": a, "b": b}, state, lr=0.1)
    assert state.steps == {"a": 2, "b": 1}
    # b's first update must look like a's first update
    first_a, _, _ = adam_step_scalar(0.0, 1.0, 0.0, 0.0, 1, 0.1, 0.9, 0.999, 1e-8)
    assert b.values[0, 0] == pytest.approx(first_a, abs=1e-15)


def test_adam_state_round_trip():
    p = T.Tensor([[1.0, 2.0]], requires_grad=True)
    state = AdamState()
    p.grad = np.array([[0.5, -0.5]])
    adam_step({"p": p}, state, lr=0.01)
    clone = AdamState.from_dict(json.loads(json.dumps(state.to_dict())))
    assert clone.steps == state.steps
    assert np.array_equal(clone.m["p"], state.m["p"])
    assert np.array_equal(clone.v["p"], state.v["p"])


# ---------------------------------------------------------------------------
# training loop

def run_interrupted(monkeypatch, saves, *args, **kwargs):
    """``run_training`` killed right after its ``saves``-th checkpoint write."""
    real_save, done = train_mod.save_checkpoint, []

    def save_then_kill(*a, **k):
        real_save(*a, **k)
        done.append(1)
        if len(done) == saves:
            raise KeyboardInterrupt

    monkeypatch.setattr(train_mod, "save_checkpoint", save_then_kill)
    with pytest.raises(KeyboardInterrupt):
        run_training(*args, **kwargs)
    monkeypatch.setattr(train_mod, "save_checkpoint", real_save)


def test_training_deterministic():
    corpus = small_corpus()
    tr, va, _ = split(corpus, (0.7, 0.2, 0.1), 3)
    a = run_training(small_config(), tr, va)
    b = run_training(small_config(), tr, va)
    assert a.logs == b.logs
    pa, pb = named_parameters(a.pipeline), named_parameters(b.pipeline)
    for name in pa:
        assert np.array_equal(pa[name].values, pb[name].values), name


def test_zero_epochs_checkpoints_initial_weights(tmp_path):
    corpus = small_corpus()
    cfg = small_config(stage1_epochs=0, stage2_epochs=0)
    result = run_training(cfg, corpus, [], out_dir=str(tmp_path))
    assert result.logs == []
    loaded = load_checkpoint(tmp_path / "checkpoint.json")
    init = init_pipeline(cfg)
    for name, t in named_parameters(init).items():
        assert np.array_equal(t.values, named_parameters(loaded.pipeline)[name].values)
    assert loaded.stage == 2 and loaded.epoch == 0


def test_subset_absent_from_validation_reports_null():
    # stage 2 evaluates on the validation dialogues every epoch; none of
    # them holds a class-3 utterance, so the subset's weighted F1 is null
    corpus = small_corpus()
    val = [d for d in corpus if all(u.label != 3 for u in d.utterances)]
    assert val and any(u.label == 3 for u in all_utterances(corpus))
    cfg = small_config(stage1_epochs=0, stage2_epochs=1, subset_classes=[3])
    result = run_training(cfg, corpus, val)
    assert [rec["stage"] for rec in result.logs] == [2]
    report = evaluate(result.pipeline, val)
    assert report["subset_classes"] == [3] and report["subset_weighted_f1"] is None


def test_epoch_logs_written_as_json_lines(tmp_path):
    corpus = small_corpus()
    tr, va, _ = split(corpus, (0.7, 0.2, 0.1), 3)
    cfg = small_config()
    result = run_training(cfg, tr, va, out_dir=str(tmp_path))
    lines = (tmp_path / "train_log.jsonl").read_text().splitlines()
    assert len(lines) == cfg.stage1_epochs + cfg.stage2_epochs
    parsed = [json.loads(ln) for ln in lines]
    assert parsed == result.logs
    assert [p["stage"] for p in parsed] == [1, 1, 2, 2]
    assert all("l_ace" in p for p in parsed if p["stage"] == 1)
    assert all("val_accuracy" in p for p in parsed if p["stage"] == 2)


def test_resume_reproduces_uninterrupted_run(tmp_path, monkeypatch):
    corpus = small_corpus()
    tr, va, _ = split(corpus, (0.7, 0.2, 0.1), 3)
    cfg = small_config(stage1_epochs=2, stage2_epochs=1)

    full = run_training(cfg, tr, va, out_dir=str(tmp_path / "full"))

    part_dir = tmp_path / "part"
    run_interrupted(monkeypatch, 1, cfg, tr, va, out_dir=str(part_dir))
    ck = load_checkpoint(part_dir / "checkpoint.json")
    assert (ck.stage, ck.epoch) == (1, 1)
    resumed = run_training(cfg, tr, va, out_dir=str(part_dir), resume=ck)

    assert resumed.logs == full.logs[1:]
    pa, pb = named_parameters(full.pipeline), named_parameters(resumed.pipeline)
    for name in pa:
        assert np.array_equal(pa[name].values, pb[name].values), name
    assert full.pipeline.alphas == resumed.pipeline.alphas
    # the appended log file holds the complete history
    lines = (part_dir / "train_log.jsonl").read_text().splitlines()
    assert [json.loads(ln) for ln in lines] == full.logs


def test_resume_after_kill_between_log_and_checkpoint(tmp_path, monkeypatch):
    corpus = small_corpus()
    tr, va, _ = split(corpus, (0.7, 0.2, 0.1), 3)
    cfg = small_config(stage1_epochs=2, stage2_epochs=1)
    run_training(cfg, tr, va, out_dir=str(tmp_path / "full"))

    # the second save comes right after epoch 2's log line; fail it once
    part_dir = tmp_path / "part"
    real_save = train_mod.save_checkpoint
    saves = []

    def killed_on_second(*args, **kwargs):
        saves.append(1)
        if len(saves) == 2:
            raise KeyboardInterrupt
        real_save(*args, **kwargs)

    monkeypatch.setattr(train_mod, "save_checkpoint", killed_on_second)
    with pytest.raises(KeyboardInterrupt):
        run_training(cfg, tr, va, out_dir=str(part_dir))
    monkeypatch.setattr(train_mod, "save_checkpoint", real_save)
    assert len((part_dir / "train_log.jsonl").read_text().splitlines()) == 2

    ck = load_checkpoint(part_dir / "checkpoint.json")
    assert (ck.stage, ck.epoch) == (1, 1)
    run_training(cfg, tr, va, out_dir=str(part_dir), resume=ck)
    for name in ("train_log.jsonl", "checkpoint.json"):
        assert (part_dir / name).read_bytes() == \
            (tmp_path / "full" / name).read_bytes(), name


def test_resume_across_stage_boundary(tmp_path, monkeypatch):
    corpus = small_corpus()
    tr, va, _ = split(corpus, (0.7, 0.2, 0.1), 3)
    cfg = small_config(stage1_epochs=1, stage2_epochs=2)
    full = run_training(cfg, tr, va)
    run_interrupted(monkeypatch, 2, cfg, tr, va, out_dir=str(tmp_path))
    ck = load_checkpoint(tmp_path / "checkpoint.json")
    assert (ck.stage, ck.epoch) == (2, 1)
    resumed = run_training(cfg, tr, va, resume=ck)
    assert resumed.logs == full.logs[2:]
    pa, pb = named_parameters(full.pipeline), named_parameters(resumed.pipeline)
    for name in pa:
        assert np.array_equal(pa[name].values, pb[name].values), name


def test_resume_under_another_config_is_rejected_before_any_write(tmp_path):
    tr, va, _ = split(small_corpus(), (0.7, 0.2, 0.1), 3)
    cfg = small_config(stage1_epochs=1, stage2_epochs=1, lr=0.01)
    run_training(cfg, tr, va, out_dir=str(tmp_path))
    files = {name: (tmp_path / name).read_bytes()
             for name in ("train_log.jsonl", "checkpoint.json")}
    ck = load_checkpoint(tmp_path / "checkpoint.json")
    other = small_config(stage1_epochs=1, stage2_epochs=3, lr=0.5)
    with pytest.raises(ConfigError, match="different configuration"):
        run_training(other, tr, va, out_dir=str(tmp_path), resume=ck)
    for name, data in files.items():
        assert (tmp_path / name).read_bytes() == data, name


def test_stage1_loss_non_increasing_on_separable_data():
    corpus = synth_generate(SynthSpec(num_dialogues=10, separation=5.0,
                                      utterances_per_dialogue=(2, 3), seed=2))
    cfg = RunConfig(stage1_epochs=5, stage2_epochs=0, batch_size=10, seed=0)
    result = run_training(cfg, corpus, [])
    totals = [rec["total"] for rec in result.logs]
    assert len(totals) == 5
    for prev, cur in zip(totals, totals[1:]):
        assert cur <= prev + 1e-9


def test_learned_alphas_move_but_frozen_modes_do_not():
    corpus = small_corpus(seed=11)
    tr, va, _ = split(corpus, (0.6, 0.3, 0.1), 1)
    learned = run_training(small_config(alpha_mode="learned"), tr, va)
    stage2 = [rec for rec in learned.logs if rec["stage"] == 2]
    assert all("alpha_prime_1" in rec for rec in stage2)

    fixed = run_training(small_config(alpha_mode="fixed"), tr, va)
    assert fixed.pipeline.alphas == AlphaState(0.5, 0.5)

    random_run = run_training(small_config(alpha_mode="random"), tr, va)
    drawn = init_pipeline(small_config(alpha_mode="random")).alphas
    assert random_run.pipeline.alphas == drawn  # frozen at the initial draw


def _nan_scalar():
    # bypass the constructor's finite gate the same way an overflowing op does
    t = T.Tensor([[0.0]])
    t.values = np.array([[float("nan")]])
    return t


def test_numeric_abort_names_batch(monkeypatch):
    # a loss that degenerates to NaN must stop training and name the batch
    corpus = small_corpus()
    cfg = small_config(stage1_epochs=0, stage2_epochs=1, alpha_mode="fixed")
    monkeypatch.setattr(train_mod, "focal_mean", lambda *a, **k: _nan_scalar())
    with pytest.raises(NumericError, match=r"stage 2 batch 0 \(dialogues"):
        run_training(cfg, corpus, [])


def test_numeric_abort_stage1_loss(monkeypatch):
    corpus = small_corpus()
    cfg = small_config(stage1_epochs=1, stage2_epochs=0)
    monkeypatch.setattr(train_mod, "averaged_focal",
                        lambda *a, **k: _nan_scalar())
    with pytest.raises(NumericError, match=r"stage 1 batch 0 \(dialogues"):
        run_training(cfg, corpus, [])


def test_negative_cache_positions_are_the_list_form_draws():
    corpus = small_corpus(n=4)
    pipeline = init_pipeline(small_config())
    n = len(all_utterances(corpus))
    for k in (3, n - 1, 99):  # 99 caps at the rest of the pool
        rng, ref = Rng(42), Rng(42)
        cache, negatives = train_mod._negative_cache(pipeline, corpus, k, rng, 3)
        assert all(c.shape == (n, pipeline.config.descriptor_dim) for c in cache.values())
        assert negatives.shape == (n, min(k, n - 1))
        for i, row in enumerate(negatives.tolist()):
            assert i not in row and len(set(row)) == len(row)
            assert row == sample_indices_list_form(ref, n, min(k, n - 1), i)
            if k >= n - 1:
                assert sorted(row) == [j for j in range(n) if j != i]
        assert rng.get_state() == ref.get_state()


def test_numeric_abort_in_negative_cache(monkeypatch):
    # non-finite activations surface as ContractErrors mid-forward; the cache
    # build happens before any batch, so the abort names the cache instead
    corpus = small_corpus()
    cfg = small_config(stage1_epochs=1, stage2_epochs=0)

    def blow_up(pipeline, utt):
        raise ContractError("softmax_rows: input must be finite")

    monkeypatch.setattr(train_mod, "utterance_descriptors", blow_up)
    with pytest.raises(NumericError, match="negative cache"):
        run_training(cfg, corpus, [])


def test_numeric_abort_in_alpha_probe(monkeypatch):
    # the probe builds the stage-2 loss on each chunk of validation
    # dialogues; a NaN there must stop training and name the probe and
    # every dialogue of the chunk
    tr, va, _ = split(small_corpus(seed=11), (0.6, 0.3, 0.1), 1)
    cfg = small_config(stage1_epochs=0, stage2_epochs=1, alpha_mode="learned")
    real, calls = train_mod.focal_mean, []

    def nan_on_first_call(*a, **k):
        loss = real(*a, **k)
        calls.append(1)
        return T.scale(loss, float("nan")) if len(calls) == 1 else loss

    monkeypatch.setattr(train_mod, "focal_mean", nan_on_first_call)
    with pytest.raises(NumericError, match=r"alpha probe on validation dialogues \[") as err:
        run_training(cfg, tr, va)
    assert len(calls) == 1
    assert all(d.dialogue_id in str(err.value) for d in va[:cfg.batch_size])


def test_alpha_probe_tapes_no_encoder_or_man_parameter(monkeypatch):
    # the probe differentiates the loss at f_ca only, so the encoders and
    # MAN run off the tape and no parameter is left holding a gradient
    _, va, _ = split(small_corpus(seed=11), (0.6, 0.3, 0.1), 1)
    pipeline = init_pipeline(small_config(alpha_mode="learned"))
    params = named_parameters(pipeline)
    upstream = {id(t): name for name, t in params.items() if not name.startswith("ctx.")}
    real_backward, taped = T.backward, []

    def spy(loss, tape):
        taped.append({id(inp) for _, inputs, _ in tape.records for inp in inputs})
        real_backward(loss, tape)

    monkeypatch.setattr(T, "backward", spy)
    train_mod._update_alphas_from_val(pipeline, va, pipeline.config)
    assert len(taped) == len(list(chunks(va, pipeline.config.batch_size)))
    assert sorted(upstream[i] for inputs in taped for i in inputs if i in upstream) == []
    assert [name for name, t in params.items() if t.grad is not None] == []


def test_probe_leaf_gradients_equal_the_fully_taped_ones():
    _, va, _ = split(small_corpus(seed=11), (0.6, 0.3, 0.1), 1)
    cfg = small_config()
    pipeline = init_pipeline(cfg)
    mix = pipeline.alphas.mixing()
    d = va[0]

    def loss_and_grads(f, tape):
        # ``tape`` may already hold the pass that produced ``f``
        with T.recording(tape):
            loss, _ = train_mod._stage2_loss(pipeline, [d], f, mix, cfg)
        T.backward(loss, tape)
        T.zero_grad(named_parameters(pipeline).values())
        return loss.item(), {m: f[m].grad for m in MODES}

    tape = T.Tape()
    with T.recording(tape):
        taped = {m: c.f_ca for m, c in utterance_descriptors(pipeline, d.utterances).items()}
    leaves = {m: T.Tensor(c.f_ca.values, requires_grad=True)
              for m, c in utterance_descriptors(pipeline, d.utterances).items()}
    taped_loss, taped_grads = loss_and_grads(taped, tape)
    leaf_loss, leaf_grads = loss_and_grads(leaves, T.Tape())
    assert leaf_loss == taped_loss
    for m in MODES:
        assert np.array_equal(leaf_grads[m], taped_grads[m]), m


def test_alpha_probe_in_chunks_equals_each_dialogue_alone(monkeypatch):
    # 7 validation dialogues in chunks of 3: one descriptor pass and one tape
    # per chunk, and every estimate and base label as the dialogue alone gives
    va = synth_generate(SynthSpec(num_dialogues=7, utterances_per_dialogue=(2, 5), seed=12))
    cfg = small_config(batch_size=3, alpha_mode="learned")
    pipeline = init_pipeline(cfg)
    current = pipeline.alphas
    mix = current.mixing()
    want_estimates, want_labels = {}, {}
    for d in va:
        f = {m: T.Tensor(c.f_ca.values, requires_grad=True)
             for m, c in utterance_descriptors(pipeline, d.utterances).items()}
        tape = T.Tape()
        with T.recording(tape):
            loss, (preds,) = train_mod._stage2_loss(pipeline, [d], f, mix, cfg)
        T.backward(loss, tape)
        for i, utt in enumerate(d.utterances):
            want_estimates[utt.utterance_id] = current.estimate(
                {m: t.values[i] for m, t in f.items()}, {m: t.grad[i] for m, t in f.items()})
            want_labels[utt.utterance_id] = preds.labels[i]
    T.zero_grad(named_parameters(pipeline).values())

    real_select, real_descriptors, real_backward = (
        train_mod.select_informative_samples, train_mod.utterance_descriptors, T.backward)
    passes, tapes, got = [], [], {}

    def select_spy(ids, predict, estimate, state, budget):
        got.update({uid: (estimate(uid), predict(uid, state)) for uid in ids})
        return real_select(ids, predict, estimate, state, budget)

    def descriptors_spy(pl, utts):
        passes.append(len(utts))
        return real_descriptors(pl, utts)

    def backward_spy(loss, tape):
        tapes.append(len(tape.records))
        real_backward(loss, tape)

    monkeypatch.setattr(train_mod, "select_informative_samples", select_spy)
    monkeypatch.setattr(train_mod, "utterance_descriptors", descriptors_spy)
    monkeypatch.setattr(T, "backward", backward_spy)
    train_mod._update_alphas_from_val(pipeline, va, cfg)
    assert passes == [sum(len(d.utterances) for d in part)
                      for part in (va[:3], va[3:6], va[6:])]
    assert len(tapes) == 3
    assert list(got) == list(want_estimates)
    for uid, (estimate, label) in got.items():
        assert np.allclose(estimate, want_estimates[uid], rtol=0.0, atol=1e-12), uid
        assert label == want_labels[uid], uid


def test_per_mode_accuracy_bounds():
    corpus = small_corpus()
    pipeline = init_pipeline(small_config())
    acc = per_mode_accuracy(pipeline, corpus[:3])
    assert set(acc) == {"text", "video", "audio"}
    assert all(0.0 <= v <= 1.0 for v in acc.values())
    assert per_mode_accuracy(pipeline, []) == {"text": 0.0, "video": 0.0,
                                               "audio": 0.0}
