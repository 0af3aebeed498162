"""Command-line entry point.

Subcommands: synth (generate a dataset), train (two-stage fit), eval
(metrics report from a checkpoint), explain (local surrogate reports),
ablate (coefficient-regime, focal-exponent, and depth sweeps). Global
flags --config/--seed/--out/--quiet work before or after the
subcommand. Exit codes: 0 ok, 2 usage, 3 data error, 4 numeric failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from .config import RunConfig, load_config
from .data import (STREAM_MODE, SynthSpec, load_dataset, load_synth_spec,
                   save_dataset, split, synth_generate)
from .encoders import MODES
from .errors import (ConfigError, ContractError, DataError, NumericError,
                     ShapeError)
from .explain import PerturbationConfig, render_report, report_stems
from .model import (evaluate, explain_dialogue, load_checkpoint,
                    require_same_config)
from .train import run_training

GAMMA_SWEEP = (0.5, 0.75, 1.0, 1.25)
LAYER_SWEEP = (1, 3, 4, 5)
ALPHA_SETTINGS = (("random-shared", "random"),
                  ("fixed-equal", "fixed"),
                  ("learned", "learned"))


def _say(args, msg: str) -> None:
    if not args.quiet:
        print(msg)


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _resolve_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        d = cfg.to_dict()
        d["seed"] = args.seed
        cfg = RunConfig.from_dict(d)
    return cfg


def _parse_split(text: str):
    try:
        parts = tuple(float(p) for p in text.split(","))
    except ValueError:
        raise ConfigError(f"--split must be three comma-separated fractions, "
                          f"got {text!r}") from None
    if len(parts) != 3:
        raise ConfigError("--split needs exactly three fractions")
    if not all(math.isfinite(p) and 0.0 <= p <= 1.0 for p in parts):
        raise ConfigError(f"--split fractions must be finite and lie in [0, 1], "
                          f"got {text!r}")
    if abs(sum(parts) - 1.0) > 1e-9:
        raise ConfigError(f"--split fractions must sum to 1, got {text!r}")
    return parts


def _parse_subset(text: str, num_classes: int):
    try:
        classes = [int(p) for p in text.split(",")]
    except ValueError:
        raise ConfigError(f"--subset must be comma-separated class indices, "
                          f"got {text!r}") from None
    for c in classes:
        if not 0 <= c < num_classes:
            raise ConfigError(f"--subset class {c} outside [0, {num_classes})")
    if len(set(classes)) != len(classes):
        raise ConfigError(f"--subset repeats a class, got {text!r}")
    return classes


def check_data_matches(config: RunConfig, dialogues) -> None:
    """Reject data whose feature widths or labels contradict the config."""
    utts = [u for d in dialogues for u in d.utterances]
    # widths are corpus-wide invariants of a loaded dataset, one utterance suffices
    for stream, mat in (utts[0].features.items() if utts else ()):
        want = getattr(config, f"{STREAM_MODE[stream]}_dim")
        if mat.shape[1] != want:
            raise DataError(
                f"utterance {utts[0].utterance_id}: {stream} width {mat.shape[1]} "
                f"does not match configured width {want}")
    for utt in utts:
        if utt.label >= config.num_classes:
            raise DataError(
                f"utterance {utt.utterance_id}: label {utt.label} outside "
                f"configured {config.num_classes} classes")


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth(args) -> int:
    spec = load_synth_spec(args.spec) if args.spec else SynthSpec()
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    dialogues = synth_generate(spec)
    path = os.path.join(args.out, "dataset.jsonl")
    save_dataset(dialogues, path)
    n_utts = sum(len(d.utterances) for d in dialogues)
    _say(args, f"wrote {len(dialogues)} dialogues ({n_utts} utterances) to {path}")
    return 0


def cmd_train(args) -> int:
    resume = load_checkpoint(args.resume) if args.resume else None
    if resume is not None:
        if args.config:
            require_same_config(resume.pipeline.config, load_config(args.config))
        config = resume.pipeline.config
        if args.seed is not None and args.seed != config.seed:
            raise ConfigError(f"--seed {args.seed} contradicts the checkpoint's seed "
                              f"{config.seed}")
    else:
        config = _resolve_config(args)
    dialogues = load_dataset(args.data)
    if args.val:
        train_d, val_d = dialogues, load_dataset(args.val)
    else:
        train_d, val_d, _ = split(dialogues, _parse_split(args.split), config.seed)
    if not train_d:
        raise DataError("training split is empty")
    check_data_matches(config, train_d)
    if val_d:
        check_data_matches(config, val_d)
    os.makedirs(args.out, exist_ok=True)
    emit = None if args.quiet else (lambda rec: print(json.dumps(rec, sort_keys=True)))
    result = run_training(config, train_d, val_d, out_dir=args.out,
                          resume=resume, emit=emit)
    report = evaluate(result.pipeline, val_d if val_d else train_d)
    _write_json(os.path.join(args.out, "metrics.json"), report)
    _say(args, f"checkpoint: {result.checkpoint_path}")
    _say(args, f"validation accuracy {report['accuracy']:.4f}, "
               f"weighted F1 {report['weighted_f1']:.4f}")
    return 0


def cmd_eval(args) -> int:
    ck = load_checkpoint(args.checkpoint)
    if args.config:
        require_same_config(ck.pipeline.config, load_config(args.config))
    dialogues = load_dataset(args.data)
    if not dialogues:
        raise DataError(f"{args.data} holds no dialogues to evaluate")
    check_data_matches(ck.pipeline.config, dialogues)
    subset = _parse_subset(args.subset, ck.pipeline.config.num_classes) \
        if args.subset else None
    os.makedirs(args.out, exist_ok=True)
    report = evaluate(ck.pipeline, dialogues, subset=subset)
    _write_json(os.path.join(args.out, "metrics.json"), report)
    _say(args, json.dumps(report, sort_keys=True))
    return 0


def cmd_explain(args) -> int:
    ck = load_checkpoint(args.checkpoint)
    dialogues = load_dataset(args.input)
    check_data_matches(ck.pipeline.config, dialogues)
    seed = args.seed if args.seed is not None else ck.pipeline.config.seed
    # a surrogate fit needs the unmasked sample plus one per mode group
    if args.samples < len(MODES) + 1:
        raise ConfigError(f"--samples must be at least {len(MODES) + 1} "
                          f"(mode groups + 1), got {args.samples}")
    pcfg = PerturbationConfig(num_samples=args.samples, seed=seed)
    targets = [(d, [i for i, u in enumerate(d.utterances)
                    if args.utterance in ("all", u.utterance_id)]) for d in dialogues]
    if args.utterance != "all" and not any(indices for _, indices in targets):
        raise DataError(f"utterance {args.utterance!r} not found in {args.input}")
    report_stems([d.utterances[i].utterance_id for d, indices in targets for i in indices])
    report_dir = os.path.join(args.out, "explanations")
    os.makedirs(report_dir, exist_ok=True)
    explanations = [exp for d, indices in targets if indices
                    for exp in explain_dialogue(ck.pipeline, d, indices, pcfg)]
    written = render_report(explanations, report_dir)
    _say(args, f"wrote {len(explanations)} explanations "
               f"({len(written)} files) to {report_dir}")
    return 0


def run_ablation(config: RunConfig, dialogues, which: str, emit=None) -> list:
    """Train and score one pipeline per sweep setting; returns table rows."""
    if which == "alpha":
        settings = [(name, {"alpha_mode": mode}) for name, mode in ALPHA_SETTINGS]
    elif which == "gamma":
        settings = [(f"gamma={g}", {"gamma": g}) for g in GAMMA_SWEEP]
    elif which == "layers":
        settings = [(f"layers={n}", {"man_layers": n}) for n in LAYER_SWEEP]
    else:
        raise ConfigError(f"unknown sweep {which!r}; expected alpha, gamma, "
                          f"or layers")
    train_d, val_d, test_d = split(dialogues, (0.8, 0.1, 0.1), config.seed)
    if not test_d:
        test_d = val_d if val_d else train_d
    rows = []
    for name, overrides in settings:
        d = config.to_dict()
        d.update(overrides)
        cfg = RunConfig.from_dict(d)
        result = run_training(cfg, train_d, val_d)
        report = evaluate(result.pipeline, test_d)
        row = {"setting": name, "accuracy": report["accuracy"],
               "weighted_f1": report["weighted_f1"]}
        rows.append(row)
        if emit:
            emit(row)
    return rows


def cmd_ablate(args) -> int:
    config = _resolve_config(args)
    dialogues = load_dataset(args.data)
    check_data_matches(config, dialogues)
    os.makedirs(args.out, exist_ok=True)
    emit = None if args.quiet else (lambda row: print(json.dumps(row, sort_keys=True)))
    rows = run_ablation(config, dialogues, args.which, emit=emit)
    _write_json(os.path.join(args.out, f"ablation_{args.which}.json"), rows)
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="flat JSON run configuration")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="override the configured seed")
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="output directory (default .)")
    common.add_argument("--quiet", action="store_true",
                        default=argparse.SUPPRESS,
                        help="suppress informational output")

    parser = argparse.ArgumentParser(
        prog="emofuse",
        description="Multimodal conversation emotion pipeline.")
    parser.add_argument("--config", default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=".")
    parser.add_argument("--quiet", action="store_true", default=False)
    sub = parser.add_subparsers(dest="command", metavar="subcommand")

    p = sub.add_parser("synth", parents=[common],
                       help="generate a synthetic dialogue corpus")
    p.add_argument("--spec", default=None, help="JSON generator spec")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", parents=[common], help="two-stage training")
    p.add_argument("--data", required=True, help="training JSONL")
    p.add_argument("--val", default=None, help="validation JSONL")
    p.add_argument("--split", default="0.8,0.1,0.1",
                   help="train/val/test fractions when --val is absent")
    p.add_argument("--resume", default=None, help="checkpoint to continue")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[common], help="score a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--subset", default=None,
                   help="comma-separated class indices for subset reporting")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("explain", parents=[common],
                       help="surrogate explanations for predictions")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help="JSONL with utterances")
    p.add_argument("--utterance", default="all", help="utterance id or 'all'")
    p.add_argument("--samples", type=int, default=200)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("ablate", parents=[common], help="sweep protocols")
    p.add_argument("--which", required=True, choices=("alpha", "gamma", "layers"))
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 2
    try:
        if args.seed is not None and not 0 <= args.seed < 2 ** 64:
            raise ConfigError(f"--seed must be a u64, got {args.seed}")
        return args.func(args)
    except ConfigError as e:
        print(f"emofuse: configuration error: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"emofuse: data error: {e}", file=sys.stderr)
        return 3
    except NumericError as e:
        print(f"emofuse: numeric failure: {e}", file=sys.stderr)
        return 4
    except (ContractError, ShapeError) as e:
        print(f"emofuse: internal numeric contract violated: {e}", file=sys.stderr)
        return 4
    except OSError as e:  # every input file is read through config.read_text
        print(f"emofuse: cannot write output: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
