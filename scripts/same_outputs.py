"""Check that the working tree writes the same output bytes as a parent commit.

    python3 scripts/same_outputs.py [--parent HEAD]

The parent ref is checked out with ``git worktree add --detach`` into a
temporary directory. Both trees then run the same CLI commands, each in
its own output directory:

- ``synth --seed 3``;
- ``synth --spec`` with a non-default spec: per-mode signal scales
  (informativeness) of 1, 0.5 and 0.25 and other per-mode widths and
  lengths, so a stream given the wrong mode changes the corpus bytes;
- ``train --seed 3`` for 2 + 2 epochs, then ``eval``, ``eval --subset
  0,1`` and ``explain --utterance d0000_u00 --samples 40`` on its
  checkpoint, and a ``train --resume`` of that finished checkpoint into
  a new directory, which loads it, trains no epoch and saves it again;
- ``train --seed 5 --split 0.5,0.4,0.1`` for 1 + 2 epochs with batch
  size 3 and 2 cross-modal heads. Its alphas are learned on a
  validation split, so the alpha probe and the informative-sample
  selection run;
- ``train --seed 7`` for 1 + 2 epochs with fixed alphas and the
  ``dialogue`` context mode, so stage 2 runs without the probe and the
  context classifier fills its speaker slot with zeros;
- ``synth`` of 120 dialogues, then ``train --seed 9`` on it for 2 + 1
  epochs. Its trainer generator draws about 2,000 outputs per stage-1
  epoch for the shuffle and the negatives of some 480 training
  utterances, so it passes the generator's scalar prefix of 2,048
  outputs in epoch 2 and serves the rest from jump-ahead blocks; the
  checkpoint's ``trainer_rng`` is taken in the middle of a block.

Every output file is compared byte for byte and reported on one line.
A differing file that parses as JSON or JSONL with the same structure on
both sides (the same keys, lengths and strings) also gets the largest
absolute difference between its paired numbers, so roundoff reads as
such. A checkpoint's encoded arrays (``{"shape", "data"}`` objects) are
decoded and compared element by element when their shapes match. The
exit status is 1 if any file differs or exists on one side only. The
worktree is removed at the end. Standard library only.
"""
from __future__ import annotations

import argparse
import base64
import json
import os
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# (output directory, config, flags, dataset directory)
RUNS = (
    ("run1", {"stage1_epochs": 2, "stage2_epochs": 2}, ["--seed", "3"], "data"),
    ("run2", {"stage1_epochs": 1, "stage2_epochs": 2, "batch_size": 3, "man_heads": 2},
     ["--seed", "5", "--split", "0.5,0.4,0.1"], "data"),
    ("run3", {"stage1_epochs": 1, "stage2_epochs": 2, "alpha_mode": "fixed",
              "eval_mode": "dialogue"}, ["--seed", "7"], "data"),
    ("run4", {"stage1_epochs": 2, "stage2_epochs": 1}, ["--seed", "9"], "data-block"),
)
# synth specs by output directory
SPECS = {
    "data-spec": {"num_dialogues": 12, "informativeness": [1.0, 0.5, 0.25], "text_dim": 3,
                  "video_dim": 4, "audio_dim": 2, "text_len": [2, 4], "video_len": [1, 3],
                  "audio_len": [4, 7], "seed": 4},
    "data-block": {"num_dialogues": 120, "seed": 8},
}


def cli(tree: Path, *args) -> None:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-m", "emofuse.cli", "--quiet", *args],
                          cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"emofuse {' '.join(args)} failed in {tree} "
                         f"(exit {proc.returncode}): {proc.stderr[-500:]}")


def produce(tree: Path, out: Path, configs: Path) -> None:
    """Run every command with the code of ``tree``, writing under ``out``."""
    data = out / "data" / "dataset.jsonl"
    cli(tree, "synth", "--seed", "3", "--out", str(out / "data"))
    for name in SPECS:
        cli(tree, "synth", "--spec", str(configs / f"{name}.json"), "--out", str(out / name))
    for name, _, flags, dataset in RUNS:
        cli(tree, "train", *flags, "--config", str(configs / f"{name}.json"),
            "--data", str(out / dataset / "dataset.jsonl"), "--out", str(out / name))
    checkpoint = str(out / "run1" / "checkpoint.json")
    cli(tree, "eval", "--checkpoint", checkpoint, "--data", str(data),
        "--out", str(out / "eval"))
    cli(tree, "eval", "--checkpoint", checkpoint, "--data", str(data), "--subset", "0,1",
        "--out", str(out / "eval-subset"))
    cli(tree, "train", "--resume", checkpoint, "--data", str(data),
        "--out", str(out / "resume"))
    cli(tree, "explain", "--checkpoint", checkpoint, "--input", str(data),
        "--utterance", "d0000_u00", "--samples", "40", "--out", str(out / "explain"))


def files(top: Path) -> set:
    return {p.relative_to(top) for p in top.rglob("*") if p.is_file()}


def parse_json(path: Path):
    """The file as one JSON value, or as JSONL (the list of its lines'
    values); None if it is neither."""
    try:
        text = path.read_text(encoding="utf-8")
        try:
            return json.loads(text)
        except ValueError:
            return [json.loads(line) for line in text.splitlines() if line.strip()]
    except ValueError:  # also not UTF-8
        return None


def encoded_floats(value):
    """The float64 values of an encoded array (an object of exactly
    ``shape`` and base64 little-endian ``data``), or None if it is not one."""
    if not isinstance(value, dict) or set(value) != {"shape", "data"}:
        return None
    try:
        raw = base64.b64decode(value["data"], validate=True)
        return struct.unpack(f"<{len(raw) // 8}d", raw)
    except (TypeError, ValueError, struct.error):
        return None


def max_abs_diff(a, b):
    """Largest |a - b| over the paired numbers of two JSON values, the
    elements of encoded arrays of one shape among them; None when they
    differ in anything else."""
    arrays = encoded_floats(a), encoded_floats(b)
    if None not in arrays:
        if a["shape"] != b["shape"] or len(arrays[0]) != len(arrays[1]):
            return None
        return max((abs(x - y) for x, y in zip(*arrays)), default=0.0)
    numbers = (int, float)
    if isinstance(a, numbers) and isinstance(b, numbers) and \
            not isinstance(a, bool) and not isinstance(b, bool):
        return abs(a - b)
    if type(a) is not type(b):
        return None
    if isinstance(a, dict):
        if a.keys() != b.keys():
            return None
        pairs = [(a[k], b[k]) for k in a]
    elif isinstance(a, list):
        if len(a) != len(b):
            return None
        pairs = zip(a, b)
    else:
        return 0.0 if a == b else None
    worst = 0.0
    for x, y in pairs:
        d = max_abs_diff(x, y)
        if d is None:
            return None
        worst = max(worst, d)
    return worst


def compare(parent: Path, change: Path) -> int:
    """Print one line per output file; the number that differ."""
    bad = 0
    for rel in sorted(files(parent) | files(change)):
        a, b = parent / rel, change / rel
        note = ""
        if not (a.exists() and b.exists()):
            verdict = "only in " + ("parent" if a.exists() else "change")
        elif a.read_bytes() == b.read_bytes():
            verdict = "identical"
        else:
            verdict = "DIFFERS"
            docs = parse_json(a), parse_json(b)
            d = None if None in docs else max_abs_diff(*docs)
            if d is not None:
                note = f"  (same structure, max |diff| {d:.3g})"
        bad += verdict != "identical"
        print(f"{verdict:>14}  {rel}{note}")
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default="HEAD", help="git ref to compare against")
    args = parser.parse_args(argv)

    tmp = Path(tempfile.mkdtemp(prefix="same-outputs-"))
    parent = tmp / "parent"
    subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", str(parent),
                    args.parent], check=True, capture_output=True)
    configs = tmp / "configs"
    try:
        configs.mkdir()
        for name, config, *_ in RUNS:
            (configs / f"{name}.json").write_text(json.dumps(config))
        for name, spec in SPECS.items():
            (configs / f"{name}.json").write_text(json.dumps(spec))
        produce(parent, tmp / "out-parent", configs)
        produce(ROOT, tmp / "out-change", configs)
        bad = compare(tmp / "out-parent", tmp / "out-change")
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(parent)],
                       capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{bad} file(s) differ from {args.parent}" if bad
          else f"every output file is identical to {args.parent}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
