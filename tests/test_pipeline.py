"""Run configuration, pipeline assembly, and checkpoint round-trips."""
import itertools
import json

import numpy as np
import pytest

from emofuse import model
from emofuse import tensor as T
from emofuse.config import RunConfig, load_config
from emofuse.context import row_query
from emofuse.data import SynthSpec, synth_generate
from emofuse.encoders import MODES
from emofuse.errors import ConfigError, DataError
from emofuse.explain import (PerturbationConfig, explain_instance, fit_surrogate, masked_rows,
                             mode_groups, perturb_and_score)
from emofuse.fusion import AlphaState
from emofuse.rng import Rng
from emofuse.losses import ace_loss, averaged_focal, combined_loss
from emofuse.metrics import confusion, metrics_report
from emofuse.model import (classify_dialogues, encode_array, evaluate, explain_dialogue,
                           explain_utterance,
                           fuse_dialogue, fuse_utterances, init_pipeline,
                           load_checkpoint,
                           named_parameters, pairwise_coefficients,
                           require_same_config,
                           save_checkpoint, stage1_parameters,
                           utterance_descriptors)

from oracles import rerun_predict_fn

SPEC = SynthSpec(num_dialogues=6, utterances_per_dialogue=(2, 3), seed=9)


def dialogue_labels(pipeline, dialogue):
    """The labels of one dialogue fused and classified on its own."""
    fused, _ = fuse_utterances(pipeline, dialogue.utterances)
    return classify_dialogues(pipeline, [dialogue], fused)[0].labels


@pytest.fixture(scope="module")
def corpus():
    return synth_generate(SPEC)


@pytest.fixture(scope="module")
def pipeline():
    return init_pipeline(RunConfig(seed=4))


def test_config_defaults_validate():
    cfg = RunConfig()
    assert cfg.encoder_config().text_in == cfg.text_dim
    assert cfg.man_config().num_classes == cfg.num_classes
    assert cfg.context_config().input_dim == 3 * cfg.descriptor_dim


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        RunConfig(alpha_mode="sometimes")
    with pytest.raises(ConfigError):
        RunConfig(lr=0.0)
    with pytest.raises(ConfigError):
        RunConfig(num_classes=1)
    with pytest.raises(ConfigError):
        RunConfig(subset_classes=[7])
    with pytest.raises(ConfigError):
        RunConfig(eval_mode="speaker")
    with pytest.raises(ConfigError):
        RunConfig(batch_size=0)


def test_config_rejects_repeated_subset_class():
    # a repeat would count its class twice in the subset's weighted F1
    with pytest.raises(ConfigError, match="subset_classes repeats a class"):
        RunConfig(subset_classes=[1, 2, 1])


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown configuration keys"):
        RunConfig.from_dict({"learning_rate": 0.1})


def test_config_file_round_trip(tmp_path):
    cfg = RunConfig(gamma=0.75, subset_classes=[0, 2], seed=11)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
    again = load_config(path)
    assert again == cfg
    assert again.hash() == cfg.hash()


def test_config_hash_tracks_content():
    assert RunConfig().hash() != RunConfig(gamma=0.5).hash()
    assert RunConfig(seed=1).hash() != RunConfig(seed=2).hash()


def test_init_pipeline_deterministic():
    a = init_pipeline(RunConfig(seed=3))
    b = init_pipeline(RunConfig(seed=3))
    for name, t in named_parameters(a).items():
        assert np.array_equal(t.values, named_parameters(b)[name].values)
    c = init_pipeline(RunConfig(seed=4))
    assert any(not np.array_equal(t.values, named_parameters(c)[name].values)
               for name, t in named_parameters(a).items())


def test_parameter_registry_partition(pipeline):
    names = set(named_parameters(pipeline))
    s1 = set(stage1_parameters(pipeline))
    ctx = names - s1
    assert all(n.startswith(("enc.", "man.")) for n in s1)
    assert all(n.startswith("ctx.") for n in ctx)
    assert len(names) == len(s1) + len(ctx)


def test_utterance_descriptor_shapes(pipeline, corpus):
    utt = corpus[0].utterances[0]
    descs = utterance_descriptors(pipeline, utt)
    assert set(descs) == {"text", "video", "audio"}
    for d in descs.values():
        assert d.f_ca.shape == (1, pipeline.config.descriptor_dim)
        assert d.probs.shape == (1, pipeline.config.num_classes)


def test_fused_width_and_prediction_count(pipeline, corpus):
    d = corpus[1]
    fused, descs = fuse_dialogue(pipeline, d)
    assert len(d.utterances) == len(descs)
    assert fused.shape == (len(d.utterances), 3 * pipeline.config.descriptor_dim)
    assert all(dd[m].f_ca.shape == (1, pipeline.config.descriptor_dim)
               for dd in descs for m in MODES)
    preds = classify_dialogues(pipeline, [d], fused)[0]
    assert [p.utterance_id for p in preds] == \
        [u.utterance_id for u in d.utterances]


def test_fixed_mode_pairwise_is_exactly_half():
    pl = init_pipeline(RunConfig(alpha_mode="fixed"))
    pw = pairwise_coefficients(pl)
    assert len(pw) == 6
    assert all(v == 0.5 for v in pw.values())


def test_random_mode_draw_is_seeded():
    a = init_pipeline(RunConfig(alpha_mode="random", seed=8)).alphas
    b = init_pipeline(RunConfig(alpha_mode="random", seed=8)).alphas
    c = init_pipeline(RunConfig(alpha_mode="random", seed=9)).alphas
    assert (a.alpha_prime_1, a.alpha_prime_2) == (b.alpha_prime_1, b.alpha_prime_2)
    assert (a.alpha_prime_1, a.alpha_prime_2) != (c.alpha_prime_1, c.alpha_prime_2)
    assert a.alpha_prime_1 != 0.5  # actually drawn, not the learned default


def test_evaluate_report_structure(pipeline, corpus):
    report = evaluate(pipeline, corpus)
    assert set(report) >= {"accuracy", "weighted_f1", "per_class_f1", "confusion"}
    total = sum(len(d.utterances) for d in corpus)
    assert report["total"] == total


def test_evaluate_in_chunks_equals_each_dialogue_alone(monkeypatch):
    # 7 dialogues in chunks of 3: two full chunks and a ragged one, each one
    # descriptor pass whose fused rows are the dialogues' own to roundoff
    dialogues = synth_generate(SynthSpec(num_dialogues=7, utterances_per_dialogue=(2, 5),
                                         seed=12))
    pl = init_pipeline(RunConfig(seed=4, batch_size=3))
    alone = [fuse_utterances(pl, d.utterances)[0].values for d in dialogues]
    golds = [u.label for d in dialogues for u in d.utterances]
    preds = [label for d in dialogues for label in dialogue_labels(pl, d)]
    real_fuse, real_descriptors, fused, passes = (model.fuse_utterances,
                                                  model.utterance_descriptors, [], [])

    def fuse_spy(*a, **k):
        out = real_fuse(*a, **k)
        fused.append(out[0].values)
        return out

    def descriptors_spy(*a, **k):
        passes.append(len(a[1]))
        return real_descriptors(*a, **k)

    monkeypatch.setattr(model, "fuse_utterances", fuse_spy)
    monkeypatch.setattr(model, "utterance_descriptors", descriptors_spy)
    report = evaluate(pl, dialogues)
    assert passes == [sum(len(d.utterances) for d in part)
                      for part in (dialogues[:3], dialogues[3:6], dialogues[6:])]
    assert np.abs(np.concatenate(fused) - np.concatenate(alone)).max() <= 1e-12
    assert report == metrics_report(confusion(golds, preds, pl.config.num_classes),
                                    subset=pl.config.subset_classes)


def test_inference_ignores_tape(pipeline, corpus):
    # evaluation and explanation inside a recording context give what they
    # give outside it and leave no record on the caller's tape
    pcfg = PerturbationConfig(num_samples=12, seed=3)
    base = (evaluate(pipeline, corpus[:3]), explain_utterance(pipeline, corpus[0], 1, pcfg))
    tape = T.Tape()
    with T.recording(tape):
        again = (evaluate(pipeline, corpus[:3]),
                 explain_utterance(pipeline, corpus[0], 1, pcfg))
    assert again == base
    assert len(tape) == 0


def test_checkpoint_round_trip(tmp_path, corpus):
    pl = init_pipeline(RunConfig(seed=6))
    pl.alphas = AlphaState(0.3, 0.8)
    path = tmp_path / "ck.json"
    save_checkpoint(path, pl, stage=2, epoch=3,
                    adam={"steps": {}, "m": {}, "v": {}}, trainer_rng=[1, 2, 3, 4, 5])
    loaded = load_checkpoint(path)
    assert loaded.stage == 2 and loaded.epoch == 3
    assert loaded.trainer_rng == [1, 2, 3, 4, 5]
    assert loaded.pipeline.alphas == AlphaState(0.3, 0.8)
    for name, t in named_parameters(pl).items():
        assert np.array_equal(t.values, named_parameters(loaded.pipeline)[name].values)
    # behaviour identical, not just storage
    want = dialogue_labels(pl, corpus[0])
    got = dialogue_labels(loaded.pipeline, corpus[0])
    assert want == got


def test_checkpoint_bytes_equal_json_dump(tmp_path):
    # the one-shot encoder writes what the streaming json.dump writes
    pl = init_pipeline(RunConfig(seed=6))
    path = tmp_path / "ck.json"
    save_checkpoint(path, pl, stage=1, epoch=2, adam={"steps": {}, "m": {}, "v": {}},
                    trainer_rng=[1, 2, 3, 4, 2 ** 64 - 1])
    with open(tmp_path / "ref.json", "w", encoding="utf-8") as fh:
        json.dump(json.loads(path.read_text(encoding="utf-8")), fh, sort_keys=True,
                  separators=(",", ":"))
        fh.write("\n")
    assert path.read_bytes() == (tmp_path / "ref.json").read_bytes()


def test_checkpoint_rejects_corruption(tmp_path):
    pl = init_pipeline(RunConfig(seed=1))
    path = tmp_path / "ck.json"
    save_checkpoint(path, pl, 1, 0)
    doc = json.loads(path.read_text())

    bad = dict(doc)
    bad["config_hash"] = "0" * 16
    (tmp_path / "hash.json").write_text(json.dumps(bad))
    with pytest.raises(DataError, match="hash mismatch"):
        load_checkpoint(tmp_path / "hash.json")

    bad = json.loads(path.read_text())
    first = sorted(bad["params"])[0]
    bad["params"][first] = encode_array(np.zeros((1, 1)))
    (tmp_path / "shape.json").write_text(json.dumps(bad))
    with pytest.raises(DataError, match="shape"):
        load_checkpoint(tmp_path / "shape.json")

    bad = json.loads(path.read_text())
    del bad["params"][sorted(bad["params"])[0]]
    (tmp_path / "missing.json").write_text(json.dumps(bad))
    with pytest.raises(DataError, match="parameter set mismatch"):
        load_checkpoint(tmp_path / "missing.json")

    (tmp_path / "trunc.json").write_text(path.read_text()[:50])
    with pytest.raises(DataError, match="not valid JSON"):
        load_checkpoint(tmp_path / "trunc.json")

    (tmp_path / "binary.json").write_bytes(b'{"format": "\xff"}')
    with pytest.raises(DataError, match="not UTF-8 text"):
        load_checkpoint(tmp_path / "binary.json")


def test_require_same_config():
    a, b = RunConfig(seed=1), RunConfig(seed=2)
    require_same_config(a, RunConfig(seed=1))
    with pytest.raises(ConfigError, match="different configuration"):
        require_same_config(a, b)


def test_explain_utterance_masks_full_descriptor(pipeline, corpus):
    exp = explain_utterance(pipeline, corpus[2], 0,
                            PerturbationConfig(num_samples=24, seed=3))
    assert exp.group_names == ["text", "video", "audio"]
    assert len(exp.weights) == 3
    assert exp.utterance_id == corpus[2].utterances[0].utterance_id
    with pytest.raises(DataError, match="no utterance index"):
        explain_utterance(pipeline, corpus[2], 99,
                          PerturbationConfig(num_samples=24, seed=3))


@pytest.mark.parametrize("eval_mode", ["own", "dialogue"])
def test_explanation_queries_match_full_rerun(eval_mode):
    config = RunConfig(seed=4, eval_mode=eval_mode)
    pipe = init_pipeline(config)
    [dialogue] = synth_generate(SynthSpec(num_dialogues=1, utterances_per_dialogue=(40, 40),
                                          num_speakers=3, seed=11))
    speakers = [u.speaker_id for u in dialogue.utterances]
    assert len(speakers) == 40 and len(set(speakers)) == 3
    fused, _ = fuse_utterances(pipe, dialogue.utterances)
    labels = classify_dialogues(pipe, [dialogue], fused)[0].labels
    groups = mode_groups(MODES, config.descriptor_dim)
    pcfg = PerturbationConfig(num_samples=12, seed=3)
    every_mask = np.array(list(itertools.product((1.0, 0.0), repeat=len(groups))))
    for index in range(40):
        x = fused.values[index]
        probs = row_query(fused, speakers, index, pipe.context, eval_mode)
        # the unmasked row's own probabilities give classify_dialogues' label
        assert int(np.argmax(probs(x)[0])) == labels[index]
        query = lambda row: probs(row)[0, labels[index]]  # noqa: E731
        rerun = rerun_predict_fn(pipe, dialogue, fused, index, labels[index])
        # every mode mask scored at once equals one-row queries and re-runs
        table = masked_rows(x, groups, every_mask)
        together = probs(table)
        for row, got in zip(table, together):
            assert np.max(np.abs(probs(row)[0] - got)) <= 1e-14
            assert abs(rerun(row) - got[labels[index]]) <= 1e-14
        masks, want, weights = perturb_and_score(x, rerun, groups, pcfg)
        _, got, _ = perturb_and_score(x, query, groups, pcfg)
        assert np.max(np.abs(got - want)) <= 1e-12
        ref = fit_surrogate(masks, want, weights, pcfg, [g[0] for g in groups],
                            dialogue.utterances[index].utterance_id, labels[index])
        exp = explain_utterance(pipe, dialogue, index, pcfg)
        assert exp.predicted_label == ref.predicted_label == labels[index]
        assert np.max(np.abs(np.subtract(exp.weights, ref.weights))) <= 1e-12
        assert abs(exp.intercept - ref.intercept) <= 1e-12
        assert abs(exp.r2 - ref.r2) <= 1e-12


def test_explanation_scores_every_mode_mask_in_one_call(monkeypatch, pipeline, corpus):
    # 200 samples, yet one batched query per explained utterance; the
    # weights equal those of querying row by row
    batches = []
    real_row_query = model.row_query

    def counted(*args):
        probs = real_row_query(*args)

        def batch(x):
            batches.append(np.shape(x))
            return probs(x)

        return batch

    monkeypatch.setattr(model, "row_query", counted)
    dialogue = corpus[0]
    n, width = len(dialogue.utterances), pipeline.config.descriptor_dim
    pcfg = PerturbationConfig(num_samples=200, seed=5)
    exps = explain_dialogue(pipeline, dialogue, [0, n - 1], pcfg)
    assert batches == [(2 ** len(MODES), len(MODES) * width)] * 2
    monkeypatch.undo()
    fused, _ = fuse_utterances(pipeline, dialogue.utterances)
    speakers = [u.speaker_id for u in dialogue.utterances]
    groups = mode_groups(MODES, width)
    for index, exp in zip([0, n - 1], exps):
        probs = row_query(fused, speakers, index, pipeline.context, pipeline.config.eval_mode)
        label = int(np.argmax(probs(fused.values[index])[0]))
        ref = explain_instance(fused.values[index], lambda x: probs(x)[0, label], groups, pcfg,
                               dialogue.utterances[index].utterance_id, label)
        assert exp.predicted_label == ref.predicted_label
        assert np.max(np.abs(np.subtract(exp.weights, ref.weights))) <= 1e-12
        assert abs(exp.intercept - ref.intercept) <= 1e-12
        assert abs(exp.r2 - ref.r2) <= 1e-12


def test_explanations_reproducible(pipeline, corpus):
    cfg = PerturbationConfig(num_samples=30, seed=12)
    a = explain_utterance(pipeline, corpus[0], 1, cfg)
    b = explain_utterance(pipeline, corpus[0], 1, cfg)
    assert a == b


def test_tape_records_per_training_utterance(corpus, pipeline):
    # A count, not a time: the fused LSTM, attention and cosine ops keep one
    # default-config utterance plus its stage-1 losses at 227 tape records,
    # down from 972 when they were spelled out as per-step ops.
    cfg = pipeline.config
    utts = [u for d in corpus for u in d.utterances]
    negatives = []
    for other in utts[1:1 + cfg.negatives_per_anchor]:
        descs = utterance_descriptors(pipeline, other)
        negatives.append({m: T.Tensor(descs[m].f_ca.values) for m in MODES})
    utt = utts[0]
    tape = T.Tape()
    with T.recording(tape):
        descs = utterance_descriptors(pipeline, utt)
        l_ace = ace_loss({utt.utterance_id: {m: descs[m].f_ca for m in MODES}},
                         {utt.utterance_id: negatives}, len(utts), cfg.tau,
                         cfg.nce_form)
        l_fl = averaged_focal({m: [(descs[m].probs, utt.label)] for m in MODES},
                              cfg.gamma, cfg.focal_form)
        combined_loss(l_ace, l_fl)
    assert len(tape) <= 227


def test_batch_equals_its_members_as_batches_of_one(corpus, pipeline):
    # padding never leaks into a real row: descriptors, fused rows and both
    # losses of a ragged batch match each utterance run alone
    cfg = pipeline.config
    utts = [u for d in corpus for u in d.utterances][:7]
    batch = utterance_descriptors(pipeline, utts)
    singles = [utterance_descriptors(pipeline, u) for u in utts]
    for m in MODES:
        for field in ("f_ca", "probs"):
            want = np.vstack([getattr(s[m], field).values for s in singles])
            assert np.allclose(getattr(batch[m], field).values, want, atol=1e-12, rtol=0)
    pairwise = pairwise_coefficients(pipeline)
    fused, _ = fuse_utterances(pipeline, utts, pairwise)
    for i, u in enumerate(utts):
        alone, _ = fuse_utterances(pipeline, [u], pairwise)
        assert np.allclose(fused.values[i], alone.values[0], atol=1e-12, rtol=0)
    negs = {m: Rng(3).uniform_array((len(utts), 2, cfg.descriptor_dim), -1.0, 1.0)
            for m in MODES}
    l_ace = ace_loss({m: batch[m].f_ca for m in MODES}, negs, 20, cfg.tau)
    per_utt = {u.utterance_id: {m: s[m].f_ca for m in MODES}
               for u, s in zip(utts, singles)}
    per_utt_negs = {u.utterance_id: [{m: T.Tensor(negs[m][i, j:j + 1]) for m in MODES}
                                     for j in range(2)] for i, u in enumerate(utts)}
    assert abs(l_ace.item() - ace_loss(per_utt, per_utt_negs, 20, cfg.tau).item()) <= 1e-12
    labels = [u.label for u in utts]
    l_fl = averaged_focal({m: [(batch[m].probs, labels)] for m in MODES}, cfg.gamma)
    per_one = averaged_focal({m: [(s[m].probs, u.label) for u, s in zip(utts, singles)]
                              for m in MODES}, cfg.gamma)
    assert abs(l_fl.item() - per_one.item()) <= 1e-12


def test_stage1_tape_per_micro_batch_is_bounded():
    # one default-config micro-batch of 8 dialogues: the forward and both
    # losses hold a fixed record count, at most 40 per utterance
    cfg = RunConfig(seed=4)
    pipeline = init_pipeline(cfg)
    dialogues = synth_generate(SynthSpec(num_dialogues=cfg.batch_size, seed=5))
    utts = [u for d in dialogues for u in d.utterances]
    negs = {m: np.ones((len(utts), cfg.negatives_per_anchor, cfg.descriptor_dim))
            for m in MODES}
    tape = T.Tape()
    with T.recording(tape):
        descs = utterance_descriptors(pipeline, utts)
        l_ace = ace_loss({m: descs[m].f_ca for m in MODES}, negs, len(utts), cfg.tau,
                         cfg.nce_form)
        l_fl = averaged_focal({m: [(descs[m].probs, [u.label for u in utts])]
                               for m in MODES}, cfg.gamma, cfg.focal_form)
        combined_loss(l_ace, l_fl)
    assert len(tape) <= 40 * len(utts)
