"""Metric correctness on hand-tallied fixtures and permutation properties."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emofuse.errors import ContractError
from emofuse.metrics import (ConfusionMatrix, accuracy, confusion,
                             metrics_report, per_class_f1, weighted_f1)
from emofuse.rng import Rng

from oracles import weighted_f1 as weighted_f1_oracle


def test_perfect_predictions_diagonal():
    cm = confusion([0, 1, 2, 1], [0, 1, 2, 1], 3)
    assert np.array_equal(cm.counts, np.diag([1, 2, 1]))
    assert weighted_f1(cm) == 1.0
    assert accuracy(cm) == 1.0


def test_empty_input_zero_matrix():
    cm = confusion([], [], 2)
    assert cm.counts.sum() == 0
    with pytest.raises(ContractError):
        accuracy(cm)
    with pytest.raises(ContractError):
        weighted_f1(cm)


def test_hand_tally_fixture():
    cm = confusion([0, 0, 1], [0, 1, 1], 2)
    assert cm.counts.tolist() == [[1, 1], [0, 1]]
    assert weighted_f1(cm) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert accuracy(cm) == pytest.approx(2.0 / 3.0, abs=1e-12)
    f1s = per_class_f1(cm)
    assert f1s[0] == pytest.approx(2.0 / 3.0)
    assert f1s[1] == pytest.approx(2.0 / 3.0)


def test_all_wrong_two_class():
    cm = confusion([0, 1], [1, 0], 2)
    assert accuracy(cm) == 0.0
    assert weighted_f1(cm) == 0.0


def test_label_out_of_range():
    with pytest.raises(ContractError):
        confusion([0, 3], [0, 1], 3)


def test_matches_tally_oracle_on_random_labelings():
    rng = Rng(5)
    for _ in range(20):
        n, c = 30, 4
        golds = [rng.randint(c) for _ in range(n)]
        preds = [rng.randint(c) for _ in range(n)]
        cm = confusion(golds, preds, c)
        assert weighted_f1(cm) == pytest.approx(weighted_f1_oracle(golds, preds, c),
                                                abs=1e-12)


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=40),
       st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=40, deadline=None)
def test_permutation_invariance(golds, seed):
    rng = Rng(seed)
    preds = [rng.randint(4) for _ in golds]
    perm = list(range(4))
    rng.shuffle(perm)
    base = weighted_f1(confusion(golds, preds, 4))
    mapped = weighted_f1(confusion([perm[g] for g in golds],
                                   [perm[p] for p in preds], 4))
    assert mapped == pytest.approx(base, abs=1e-12)


def test_weighted_f1_bounds_and_diagonal_iff_one():
    rng = Rng(6)
    for _ in range(30):
        golds = [rng.randint(3) for _ in range(12)]
        preds = [rng.randint(3) for _ in range(12)]
        v = weighted_f1(confusion(golds, preds, 3))
        assert 0.0 <= v <= 1.0
        if v == 1.0:
            cm = confusion(golds, preds, 3)
            off_diag = cm.counts.sum() - np.trace(cm.counts)
            assert off_diag == 0


def test_subset_reporting():
    golds = [0, 0, 1, 2, 3, 3]
    preds = [0, 1, 1, 0, 3, 3]
    cm = confusion(golds, preds, 4)
    full = weighted_f1(cm)
    sub = weighted_f1(cm, class_subset=[0, 1, 2])
    f1s = per_class_f1(cm)
    supports = [2, 1, 1]
    want = sum(s * f1s[c] for c, s in zip([0, 1, 2], supports)) / 4
    assert sub == pytest.approx(want, abs=1e-12)
    assert sub != full


def test_subset_zero_support_rejected():
    cm = confusion([0, 0], [0, 0], 3)
    with pytest.raises(ContractError):
        weighted_f1(cm, class_subset=[2])
    with pytest.raises(ContractError):
        weighted_f1(cm, class_subset=[])


def test_report_structure():
    cm = confusion([0, 1, 1], [0, 1, 0], 3)
    rep = metrics_report(cm, subset=[0, 1])
    assert rep["class_names"] == ["0", "1", "2"]
    assert rep["total"] == 3
    assert "subset_weighted_f1" in rep
    assert len(rep["per_class_f1"]) == 3
