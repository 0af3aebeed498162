"""scripts/bench_pairs.py: how paired benchmark runs are summarized."""
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

DECLARED = [{"name": "epoch_s", "better": "lower", "bound": 0.25},
            {"name": "setup_s", "better": "lower", "bound": 0.25},
            {"name": "utt_per_s", "better": "higher", "bound": 0.25}]


def pairs_of(**columns):
    """Pairs of (parent, change) metric dicts from name -> [(parent, change), ...]."""
    n = len(next(iter(columns.values())))
    return [({k: v[i][0] for k, v in columns.items()},
             {k: v[i][1] for k, v in columns.items()}) for i in range(n)]


def test_summarize_counts_wins_and_compares_the_gap_with_the_parent_iqr(capsys):
    pairs = pairs_of(epoch_s=[(1.00, 0.90), (1.02, 0.91), (0.98, 0.99), (1.01, 0.92)],
                     setup_s=[(1.0, 1.0), (1.0, 1.0), (1.0, 1.0), (1.0, 1.0)],
                     utt_per_s=[(100.0, 110.0), (101.0, 111.0), (99.0, 98.0), (100.0, 109.0)])
    rows = {r["metric"]: r for r in bench_pairs.summarize(pairs, DECLARED)}
    assert rows["epoch_s"]["won"] == 3 and rows["epoch_s"]["pairs"] == 4
    assert rows["epoch_s"]["gap_above_iqr"]
    assert rows["utt_per_s"]["won"] == 3 and rows["utt_per_s"]["gap_above_iqr"]
    assert rows["utt_per_s"]["ratio"] == pytest.approx(109.5 / 100.0)
    assert rows["setup_s"]["won"] == 0 and not rows["setup_s"]["gap_above_iqr"]
    assert all(r["resolved"] for r in rows.values())
    assert "resolved" in capsys.readouterr().out.splitlines()[0]


def test_summarize_marks_a_parent_spread_wider_than_the_bound_unresolved(capsys):
    # parent quartiles 0.125 and 0.175 around a median of 0.15: an IQR of
    # 0.05 is more than 0.25 x 0.15, so a 25% change cannot be told apart
    pairs = pairs_of(setup_s=[(0.10, 0.10), (0.125, 0.12), (0.15, 0.15), (0.175, 0.17),
                              (0.20, 0.20)],
                     epoch_s=[(1.0, 0.5), (1.0, 0.5), (1.0, 0.5), (1.0, 0.5), (1.0, 0.5)])
    rows = {r["metric"]: r for r in bench_pairs.summarize(pairs, DECLARED)}
    assert set(rows) == {"epoch_s", "setup_s"}  # utt_per_s is in no run
    assert rows["setup_s"]["parent"] == pytest.approx((0.125, 0.15, 0.175))
    assert not rows["setup_s"]["resolved"]
    assert rows["epoch_s"]["resolved"]
    out = capsys.readouterr().out.splitlines()
    setup_line = next(line for line in out if line.startswith("setup_s"))
    assert setup_line.split()[-1] == "no"
    assert next(line for line in out if line.startswith("epoch_s")).split()[-1] == "yes"
