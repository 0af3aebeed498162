"""Workload inputs and the closed-loop session every workload runs.

A session is what one user does with emofuse: synthesise a corpus and
load it (set-up), train two stages into a checkpoint, load that
checkpoint, evaluate and explain. The workloads differ in shape, which
moves the cost between layers; README.md gives the reason for each.

Inputs depend only on the workload and ``--seed``. Dialogue lengths are
fixed by position in each corpus (the seed picks which generated
dialogue fills a position), so every seed does the same amount of
training, evaluation and explanation work and timings vary by machine
noise, not by corpus size.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field, replace

from emofuse import data, model, train
from emofuse.config import RunConfig
from emofuse.errors import EmofuseError
from emofuse.explain import PerturbationConfig
from emofuse.rng import Rng

SPLIT = (0.8, 0.1, 0.1)
EXPLAIN_SAMPLES = 8  # perturbation queries per explanation
STAGE_EPOCHS = (1, 1)
EPOCHS = sum(STAGE_EPOCHS)
# run_training writes the first two; the benchmark writes the others
OUTPUT_FILES = ("checkpoint.json", "train_log.jsonl", "metrics.json",
                "explanations.jsonl")


def _cycle(lo, hi, count):
    """Dialogue lengths lo, lo+1, ..., hi, lo, ... for ``count`` positions."""
    return tuple(lo + i % (hi - lo + 1) for i in range(count))


@dataclass(frozen=True)
class Workload:
    """Shape of one workload.

    ``train_lengths`` is the corpus split 0.8/0.1/0.1 and trained on;
    ``eval_lengths`` a separate corpus that is evaluated and explained
    (empty: the training corpus itself). With ``train_in_setup`` the
    checkpoint is trained once per set-up and the timed loop only reads.
    """
    name: str
    train_lengths: tuple
    eval_lengths: tuple = ()
    train_in_setup: bool = False
    explanations: int = 100
    setups: int = 5
    min_passes: int = 2


WORKLOADS = {
    "train-small": Workload(
        name="train-small", train_lengths=_cycle(2, 8, 30)),
    "infer-explain": Workload(
        name="infer-explain", train_lengths=_cycle(10, 16, 6),
        eval_lengths=_cycle(10, 16, 20), train_in_setup=True),
}


def tiny(wl: Workload) -> Workload:
    """The same workload at smoke-test size: a few dialogues, one pass."""
    return replace(wl, train_lengths=wl.train_lengths[:6],
                   eval_lengths=wl.eval_lengths[:3], explanations=4,
                   setups=1, min_passes=1)


# ---------------------------------------------------------------------------
# inputs

def make_corpora(wl: Workload, seed: int):
    """Synthesize one pool and fill each corpus position with a dialogue of
    that position's length. Returns (training corpus, eval corpus)."""
    lengths = wl.train_lengths + wl.eval_lengths
    lo, hi = min(lengths), max(lengths)
    # about 4x the demand per length, and never fewer than 8 per length
    spec = data.SynthSpec(num_dialogues=4 * len(lengths) + 8 * (hi - lo + 1),
                          utterances_per_dialogue=(lo, hi), seed=seed)
    buckets = {}
    for d in data.synth_generate(spec):
        buckets.setdefault(len(d.utterances), []).append(d)
    rng = Rng(seed)
    for dialogues in buckets.values():
        rng.shuffle(dialogues)

    def fill(ls):
        out = []
        for n in ls:
            if not buckets.get(n):
                raise RuntimeError(f"{wl.name}: synthetic pool ran out of "
                                   f"{n}-utterance dialogues (seed {seed})")
            out.append(buckets[n].pop())
        return out

    return fill(wl.train_lengths), fill(wl.eval_lengths)


def explain_targets(dialogues, count):
    """(dialogue, utterance index) pairs, round-robin over dialogues."""
    n = len(dialogues)
    return [(dialogues[k % n], (k // n) % len(dialogues[k % n].utterances))
            for k in range(count)]


# ---------------------------------------------------------------------------
# bookkeeping

@dataclass
class Tally:
    """Operations attempted and failed, with a reason per failure."""
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def fail(self, count: int, what: str) -> None:
        self.failed += count
        self.problems.append(what)


@dataclass
class TrainSample:
    wall_s: float
    stage1_s: float
    stage2_s: float
    utt_epochs: int
    stage1_loss: float


@dataclass
class Pass:
    """Timings of one pass: evaluation per dialogue, explanation per target."""
    wall_s: float
    eval_s: list
    explain_s: list
    test_weighted_f1: float
    digest: str


def _digest(out_dir) -> str:
    h = hashlib.sha256()
    for name in OUTPUT_FILES:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


# ---------------------------------------------------------------------------
# session

class Session:
    """One workload run: set-up once, then repeated timed passes.

    Every file the program writes goes under ``work_dir``.
    """

    def __init__(self, wl: Workload, seed: int, work_dir: str, tally: Tally):
        self.wl = wl
        self.seed = seed
        self.tally = tally
        self.dir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=work_dir)
        self.trainings = []
        self.setup_s = self._setup()

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def _setup(self) -> float:
        t0 = time.perf_counter()
        train_dlgs, eval_dlgs = make_corpora(self.wl, self.seed)
        self.corpus = self._roundtrip("corpus.jsonl", train_dlgs)
        self.eval_corpus = (self._roundtrip("eval.jsonl", eval_dlgs)
                            if eval_dlgs else self.corpus)
        self.served = self.served_digest = None
        if self.wl.train_in_setup:
            served_dir = os.path.join(self.dir, "served")
            self.served = self._train(served_dir)
            self.served_digest = _digest(served_dir)
        return time.perf_counter() - t0

    def _roundtrip(self, name, dialogues):
        """Write a JSONL corpus and read it back, as the CLI consumes it."""
        path = os.path.join(self.dir, name)
        data.save_dataset(dialogues, path)
        return data.load_dataset(path)

    def _train(self, out_dir):
        """Both training stages into ``out_dir``; returns the loaded
        checkpoint's pipeline and held-out split, or None on failure."""
        config = RunConfig(stage1_epochs=STAGE_EPOCHS[0], stage2_epochs=STAGE_EPOCHS[1])
        tr, va, te = data.split(self.corpus, SPLIT, config.seed)
        marks = []
        t0 = time.perf_counter()
        try:
            result = train.run_training(
                config, tr, va, out_dir=out_dir,
                emit=lambda rec: marks.append(time.perf_counter()))
        except EmofuseError as e:
            self.tally.attempted += EPOCHS
            self.tally.fail(EPOCHS - len(marks), f"training failed: {e}")
            return None
        wall = time.perf_counter() - t0
        self.tally.attempted += EPOCHS
        logs = result.logs
        losses = [v for rec in logs for k, v in rec.items()
                  if k in ("l_ace", "l_fl", "total", "focal")]
        ok = self.tally.check(len(logs) == EPOCHS and len(losses) == 4
                              and all(map(_finite, losses)),
                              f"training losses missing or non-finite: {logs}")
        try:
            pipeline = model.load_checkpoint(os.path.join(out_dir, "checkpoint.json")).pipeline
        except EmofuseError as e:
            self.tally.fail(1, f"checkpoint does not load: {e}")
            return None
        if ok:
            self.trainings.append(TrainSample(
                wall_s=wall, stage1_s=marks[0] - t0, stage2_s=marks[1] - marks[0],
                utt_epochs=EPOCHS * sum(len(d.utterances) for d in tr), stage1_loss=logs[0]["total"]))
        return pipeline, te

    def run_pass(self) -> Pass:
        """One timed pass; None when an operation failed."""
        t0 = time.perf_counter()
        out_dir = tempfile.mkdtemp(prefix="pass-", dir=self.dir)
        try:
            if self.wl.train_in_setup:
                if self.served is None:
                    return None
                pipeline, held_out = self.served[0], self.eval_corpus
            else:
                served = self._train(out_dir)
                if served is None:
                    return None
                pipeline, held_out = served
            return self._read_path(pipeline, held_out, out_dir, t0)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def _read_path(self, pipeline, held_out, out_dir, t0):
        tally = self.tally
        corpus = self.eval_corpus
        targets = explain_targets(corpus, self.wl.explanations)
        pcfg = PerturbationConfig(num_samples=EXPLAIN_SAMPLES, seed=self.seed)
        eval_s, latencies = [], []
        with open(os.path.join(out_dir, "explanations.jsonl"), "w", encoding="utf-8") as fh:
            for k, (d, i) in enumerate(targets):
                # One dialogue per evaluate call, so each gets its own timing;
                # the calls are spread among the explanations so that both
                # sample the whole pass.
                for j in range(k * len(corpus) // len(targets),
                               (k + 1) * len(corpus) // len(targets)):
                    tally.attempted += 1
                    t = time.perf_counter()
                    try:
                        model.evaluate(pipeline, [corpus[j]])
                    except EmofuseError as e:
                        tally.fail(1, f"evaluating {corpus[j].dialogue_id} failed: {e}")
                        return None
                    eval_s.append(time.perf_counter() - t)
                tally.attempted += 1
                t = time.perf_counter()
                try:
                    exp = model.explain_utterance(pipeline, d, i, pcfg)
                except EmofuseError as e:
                    tally.fail(1, f"explaining {d.utterances[i].utterance_id} failed: {e}")
                    return None
                latencies.append(time.perf_counter() - t)
                rec = exp.to_dict()
                tally.check(all(map(_finite, rec["weights"] + [rec["intercept"], rec["r2"]])),
                            f"explanation of {rec['utterance_id']} is not finite")
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        tally.attempted += 1
        try:
            report = model.evaluate(pipeline, held_out)
        except EmofuseError as e:
            tally.fail(1, f"evaluating the held-out split failed: {e}")
            return None
        f1 = report.get("weighted_f1")
        tally.check(_finite(f1) and 0.0 <= f1 <= 1.0,
                    f"held-out weighted F1 missing or outside [0, 1]: {f1!r}")
        with open(os.path.join(out_dir, "metrics.json"), "w", encoding="utf-8") as fh:
            json.dump(report, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        return Pass(wall_s=time.perf_counter() - t0, eval_s=eval_s, explain_s=latencies,
                    test_weighted_f1=f1, digest=_digest(out_dir))


# ---------------------------------------------------------------------------
# metrics
#
# A shared machine's speed can drift by 15-20% over tens of seconds,
# whatever runs on it. Evaluating or explaining in a dialogue of a given
# length is the same work wherever it happens in a run, so each such
# operation's figure is the fastest of its kind in the run: the fastest
# evaluate call on a dialogue of that length, and the fastest explanation
# in a dialogue of that length. Many samples spread over the run, so a
# short fast phase is enough to find them. Training has a few samples
# per run; its figure is the fastest training. Percentiles are then
# taken across the explanation targets.

def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least q% of
    the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def _best_by_length(per_pass, lengths):
    """For each position, the fastest time any pass took on any position
    of the same dialogue length."""
    best = {}
    for times in per_pass:
        for t, n in zip(times, lengths):
            best[n] = min(t, best.get(n, t))
    return [best[n] for n in lengths]


def end_to_end(wl: Workload, setup_times, trainings, passes, eval_corpus,
               peak_rss_mb) -> dict:
    """Per-run figures from the fastest repeat of each kind of operation."""
    eval_lengths = [len(d.utterances) for d in eval_corpus]
    target_lengths = [len(d.utterances)
                      for d, _ in explain_targets(eval_corpus, wl.explanations)]
    best_eval = _best_by_length([p.eval_s for p in passes], eval_lengths)
    best_explain = _best_by_length([p.explain_s for p in passes], target_lengths)
    return {
        "setup_s": statistics.median(setup_times),
        "train_utt_per_s": max(t.utt_epochs / t.wall_s for t in trainings),
        "stage1_epoch_s": min(t.stage1_s for t in trainings),
        "stage2_epoch_s": min(t.stage2_s for t in trainings),
        "eval_utt_per_s": sum(eval_lengths) / sum(best_eval),
        "explain_queries_per_s": EXPLAIN_SAMPLES * len(best_explain) / sum(best_explain),
        "explain_s_p50": percentile(best_explain, 50),
        "explain_s_p90": percentile(best_explain, 90),
        "peak_rss_mb": peak_rss_mb,
    }
