"""Outside-in layer tracing for emofuse.

The tracer replaces public functions of the ``emofuse`` modules with
timing wrappers, in every module that holds a reference to them (a
``from .encoders import bilstm_forward`` binds the function in the
importing module too), and restores them afterwards. Nothing under
``src/`` knows about it. Each wrapped call is a span: its self time is
its wall time minus that of the spans it called, and its records are
the tape records the active tape gained during the call, children
included. Spans live in memory until the run ends.
"""
from __future__ import annotations

import importlib
import inspect
import os
import pkgutil
import sys
import time
from collections import Counter, defaultdict

import emofuse
from emofuse import encoders, tensor

# (defining module, function). The two private train helpers are the only
# functions that bound the negative-cache and alpha-probe phases.
SPANS = (
    ("tensor", "backward"),
    ("encoders", "bilstm_forward"),
    ("encoders", "self_attention_stack"),
    ("man", "man_forward"),
    ("fusion", "adaptive_fuse"),
    ("fusion", "select_informative_samples"),
    ("losses", "ace_loss"),
    ("losses", "averaged_focal"),
    ("losses", "focal_loss"),
    ("context", "classify_dialogue"),
    ("train", "run_training"),
    ("train", "adam_step"),
    ("train", "_negative_cache"),
    ("train", "_update_alphas_from_val"),
    ("model", "utterance_descriptors"),
    ("model", "save_checkpoint"),
    ("model", "load_checkpoint"),
    ("model", "evaluate"),
    ("model", "explain_utterance"),
    ("explain", "perturb_and_score"),
    ("explain", "fit_surrogate"),
    ("data", "synth_generate"),
    ("data", "load_dataset"),
)

# Calls through another module's binding that are counted under their own
# name but are not spans, so their time stays in the caller's self time:
# the context classifier's BiLSTM runs belong to classify_dialogue.
COUNT_ONLY = {("encoders", "bilstm_forward", "context"): "context.bilstm_forward"}


def _span_name(defining, func):
    return f"{defining}.{func.lstrip('_')}"


class CoverageError(RuntimeError):
    """The wrappers missed calls, or counts contradict the workload."""


class _Stat:
    __slots__ = ("calls", "s", "self_s", "records")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.records = 0


def _tape_len():
    tape = tensor._TAPE
    return len(tape.records) if tape is not None else 0


class Tracer:
    def __init__(self):
        self.stats = defaultdict(_Stat)
        self.counts = Counter()
        self._stack = []  # [span name, child seconds]
        self._restore = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        key = name.replace(".", "_")
        before = getattr(self, "_before_" + key, None)
        after = getattr(self, "_after_" + key, None)
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            if before or after:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if before:
                    before(bound.arguments)
                args, kwargs = bound.args, bound.kwargs
            frame = [name, 0.0]
            rec0 = _tape_len()
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += dt
                st = self.stats[name]
                st.calls += 1
                st.s += dt
                st.self_s += dt - frame[1]
                st.records += _tape_len() - rec0
            if after:
                after(bound.arguments, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_only(self, name, fn):
        def wrapper(*args, **kwargs):
            rec0 = _tape_len()
            result = fn(*args, **kwargs)
            st = self.stats[name]
            st.calls += 1
            st.records += _tape_len() - rec0
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks: count work from a span's arguments and result -------------
    # Hooks run outside the span's timing; they may replace a callback
    # argument with a counting one that returns the same value.

    def _before_tensor_backward(self, a):
        self.counts["tape_records"] += len(a["tape"].records)

    def _before_train_adam_step(self, a):
        self.counts["adam_elements"] += sum(
            p.values.size for p in a["params"].values() if p.grad is not None)

    def _before_model_utterance_descriptors(self, a):
        root = self._stack[0][0] if self._stack else "-"
        self.counts["descriptors_under:" + root] += 1

    def _before_context_classify_dialogue(self, a):
        self.counts["expected_context_bilstm"] += (
            1 + len(set(a["speaker_ids"])) if a["eval_mode"] == "own" else 1)

    def _before_fusion_select_informative_samples(self, a):
        predict, probed = a["predict"], set()

        def counted(sid, state):
            self.counts["predict_calls"] += 1
            if sid not in probed:
                probed.add(sid)
                self.counts["informative_probed"] += 1
            return predict(sid, state)

        a["predict"] = counted

    def _after_fusion_select_informative_samples(self, a, chosen):
        self.counts["informative_chosen"] += len(chosen)

    def _before_explain_perturb_and_score(self, a):
        predict_fn = a["predict_fn"]

        def counted(x):
            self.counts["queries"] += 1
            return predict_fn(x)

        a["predict_fn"] = counted

    def _after_model_save_checkpoint(self, a, result):
        self.counts["checkpoint_bytes"] += os.path.getsize(a["path"])

    # -- install / restore ------------------------------------------------

    def install(self):
        """Wrap every binding of every traced function, in every module."""
        for info in pkgutil.iter_modules(emofuse.__path__):
            importlib.import_module(f"emofuse.{info.name}")
        modules = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
                   if name.startswith("emofuse.")}
        try:
            for defining, func in SPANS:
                fn = getattr(modules[defining], func)
                span = self._span(_span_name(defining, func), fn)
                for holder, mod in modules.items():
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            alias = COUNT_ONLY.get((defining, func, holder))
                            self._restore.append((mod, attr, fn))
                            setattr(mod, attr,
                                    self._count_only(alias, fn) if alias else span)
        except AttributeError as e:
            self.restore()
            raise CoverageError(f"cannot trace: {e}") from None

    def restore(self):
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- results ----------------------------------------------------------

    def calls(self, name) -> int:
        return self.stats[name].calls

    def check_coverage(self, explanations: int, samples: int, trainings: int,
                       epochs: int) -> None:
        """Fail when call counts disagree with what the workload implies."""
        desc = self.calls("model.utterance_descriptors")
        streams = sum(len(s) for s in encoders.MODE_STREAMS.values())
        expected = {
            "encoders.bilstm_forward": streams * desc,
            "encoders.self_attention_stack": len(encoders.MODES) * desc,
            "man.man_forward": desc,
            "context.bilstm_forward": self.counts["expected_context_bilstm"],
            "model.explain_utterance": explanations,
            "train.run_training": trainings,
            "model.save_checkpoint": trainings * (epochs + 1),
        }
        problems = [f"{name}: {self.calls(name)} calls, expected {want}"
                    for name, want in expected.items() if self.calls(name) != want]
        if self.counts["queries"] != explanations * samples:
            problems.append(f"explain.queries: {self.counts['queries']}, expected "
                            f"{explanations} explanations x {samples} samples")
        if self.counts["predict_calls"] != 2 * self.counts["informative_probed"]:
            problems.append(f"fusion.select_informative_samples: "
                            f"{self.counts['predict_calls']} predict calls for "
                            f"{self.counts['informative_probed']} probed samples")
        silent = sorted(name for name in (_span_name(d, f) for d, f in SPANS)
                        if self.calls(name) == 0)
        if silent:
            problems.append(f"never called: {silent}")
        if problems:
            raise CoverageError("trace coverage check failed: " + "; ".join(problems))

    def per_layer(self, train_utt_epochs: int, epochs: int, explanations: int) -> dict:
        """Per-layer figures named as in BENCHMARK.json."""
        st = self.stats
        c = self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "tensor.records": c["tape_records"],
            "tensor.records_per_utt": ratio(c["tape_records"], train_utt_epochs),
            "tensor.backward.calls": st["tensor.backward"].calls,
            "tensor.backward.self_s": st["tensor.backward"].self_s,
            **{f"{name}.{field}": getattr(st[name], field)
               for name in ("encoders.bilstm_forward", "encoders.self_attention_stack",
                            "man.man_forward", "context.classify_dialogue")
               for field in ("calls", "self_s", "records")},
            "context.bilstm_forward.calls": st["context.bilstm_forward"].calls,
            "fusion.adaptive_fuse.calls": st["fusion.adaptive_fuse"].calls,
            "fusion.adaptive_fuse.self_s": st["fusion.adaptive_fuse"].self_s,
            "fusion.select_informative_samples.self_s":
                st["fusion.select_informative_samples"].self_s,
            "fusion.select_informative_samples.predict_calls": c["predict_calls"],
            "fusion.informative_share": ratio(c["informative_chosen"],
                                              c["informative_probed"]),
            "losses.ace_loss.self_s": st["losses.ace_loss"].self_s,
            "losses.ace_loss.records": st["losses.ace_loss"].records,
            "losses.averaged_focal.self_s": st["losses.averaged_focal"].self_s,
            "losses.averaged_focal.records": st["losses.averaged_focal"].records,
            "losses.focal_loss.calls": st["losses.focal_loss"].calls,
            "train.adam_step.calls": st["train.adam_step"].calls,
            "train.adam_step.s": st["train.adam_step"].s,
            "train.adam_step.elements": c["adam_elements"],
            "train.negative_cache.s": st["train.negative_cache"].s,
            "train.alpha_probe.s": st["train.update_alphas_from_val"].s,
            "model.utterance_descriptors.calls": st["model.utterance_descriptors"].calls,
            "model.descriptors_per_train_utt_epoch": ratio(
                c["descriptors_under:train.run_training"], train_utt_epochs),
            "model.descriptors_per_explained_utt": ratio(
                c["descriptors_under:model.explain_utterance"], explanations),
            "model.save_checkpoint.calls": st["model.save_checkpoint"].calls,
            "model.save_checkpoint.s": st["model.save_checkpoint"].s,
            "model.save_checkpoint.bytes": c["checkpoint_bytes"],
            "model.saves_per_epoch": ratio(st["model.save_checkpoint"].calls, epochs),
            "model.load_checkpoint.s": st["model.load_checkpoint"].s,
            "explain.perturb_and_score.self_s": st["explain.perturb_and_score"].self_s,
            "explain.queries": c["queries"],
            "explain.fit_surrogate.s": st["explain.fit_surrogate"].s,
            "data.synth_generate.s": st["data.synth_generate"].s,
            "data.load_dataset.s": st["data.load_dataset"].s,
        }
