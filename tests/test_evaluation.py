from __future__ import annotations

from dataclasses import asdict

import numpy as np
import pytest

from vaxclust import evaluation as ev
from vaxclust.errors import (
    EmptyMatrix,
    KFoldsOutOfRange,
    LabelOutOfRange,
    LengthMismatch,
    TooFewRows,
)
from vaxclust.gbdt import OrderedTsEncoder, TrainConfig
from vaxclust.hcluster import ClusterAssignment


def test_stratified_folds_perfectly_balanced():
    labels = np.array([0] * 5 + [1] * 5)
    folds = ev.stratified_folds(labels, 5, seed=1)
    for fold in range(5):
        members = labels[folds == fold]
        assert sorted(members.tolist()) == [0, 1]


def test_stratified_folds_deterministic():
    labels = np.arange(40) % 3
    a = ev.stratified_folds(labels, 5, seed=7)
    b = ev.stratified_folds(labels, 5, seed=7)
    assert np.array_equal(a, b)
    c = ev.stratified_folds(labels, 5, seed=8)
    assert not np.array_equal(a, c)


def test_stratified_folds_rejects_bad_k():
    with pytest.raises(KFoldsOutOfRange):
        ev.stratified_folds(np.array([0, 1, 0, 1]), 1, seed=0)
    with pytest.raises(TooFewRows):
        ev.stratified_folds(np.array([0, 1]), 3, seed=0)


def test_fold_partition_laws_battery():
    labels = np.array([0] * 23 + [1] * 11 + [2] * 6)
    n = len(labels)
    for seed in range(100):
        folds = ev.stratified_folds(labels, 5, seed=seed)
        assert folds.shape == (n,)
        assert set(folds.tolist()) == set(range(5))
        for c in range(3):
            class_n = (labels == c).sum()
            for fold in range(5):
                in_fold = ((labels == c) & (folds == fold)).sum()
                assert abs(in_fold - class_n / 5) < 1.0


def test_confusion_matrix_diagonal_when_perfect():
    truth = np.array([0, 1, 2, 1, 0])
    m = ev.confusion_matrix(truth, truth, 3)
    assert np.array_equal(m, np.diag([2, 2, 1]))


def test_confusion_matrix_hand_case():
    m = ev.confusion_matrix([0, 0, 1, 1], [0, 1, 1, 1], 2)
    assert m.tolist() == [[1, 1], [0, 2]]


def test_confusion_matrix_column_sums_count_predictions(rng):
    truth = rng.integers(0, 4, size=100)
    pred = rng.integers(0, 4, size=100)
    m = ev.confusion_matrix(truth, pred, 4)
    assert m.sum(axis=0).tolist() == [int((pred == c).sum()) for c in range(4)]


def test_confusion_matrix_rejects_bad_input():
    with pytest.raises(LengthMismatch):
        ev.confusion_matrix([0, 1], [0], 2)
    with pytest.raises(LabelOutOfRange):
        ev.confusion_matrix([0, 2], [0, 1], 2)


def test_macro_metrics_hand_case():
    row = ev.macro_metrics(np.array([[1, 1], [0, 2]]))
    assert row.accuracy == pytest.approx(0.75)
    assert row.macro_precision == pytest.approx(5.0 / 6.0, abs=1e-12)
    assert row.macro_recall == pytest.approx(0.75)
    assert row.macro_f1 == pytest.approx((2.0 / 3.0 + 0.8) / 2.0, abs=1e-12)


def test_macro_metrics_perfect():
    row = ev.macro_metrics(np.diag([3, 4, 5]))
    assert row.accuracy == row.macro_precision == row.macro_recall == row.macro_f1 == 1.0


def test_macro_metrics_zero_denominators_counted():
    # class 1 never predicted and never true
    row = ev.macro_metrics(np.array([[4, 0], [0, 0]]))
    assert row.zero_division_count == 2
    assert row.macro_precision == 0.5
    with pytest.raises(EmptyMatrix):
        ev.macro_metrics(np.zeros((2, 2)))


def _oracle_metrics(confusion):
    """Independent re-derivation: expand the confusion to label pairs and
    count per class from scratch."""
    truth, pred = [], []
    k = confusion.shape[0]
    for i in range(k):
        for j in range(k):
            truth.extend([i] * int(confusion[i, j]))
            pred.extend([j] * int(confusion[i, j]))
    truth, pred = np.array(truth), np.array(pred)
    accuracy = float((truth == pred).mean())
    precisions, recalls, f1s = [], [], []
    for c in range(k):
        tp = int(((truth == c) & (pred == c)).sum())
        fp = int(((truth != c) & (pred == c)).sum())
        fn = int(((truth == c) & (pred != c)).sum())
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        precisions.append(p)
        recalls.append(r)
        f1s.append(f)
    return accuracy, np.mean(precisions), np.mean(recalls), np.mean(f1s)


def test_macro_metrics_against_oracle_battery(rng):
    for _ in range(300):
        k = int(rng.integers(2, 6))
        confusion = rng.integers(0, 9, size=(k, k))
        if confusion.sum() == 0:
            continue
        row = ev.macro_metrics(confusion)
        acc, p, r, f = _oracle_metrics(confusion)
        assert abs(row.accuracy - acc) < 1e-12
        assert abs(row.macro_precision - p) < 1e-12
        assert abs(row.macro_recall - r) < 1e-12
        assert abs(row.macro_f1 - f) < 1e-12


def _labelled_dataset(rng, n=60, threshold_feature="english_proficiency"):
    """YearDataset whose cluster label is a deterministic threshold on one
    GDSC feature; impossible to misclassify given enough trees."""
    from vaxclust.dataset import GDSC_NUMERIC_COLUMNS, YearDataset

    gdsc, rurality, rates, labels = [], [], [], []
    for i in range(n):
        value = float(rng.uniform(0, 40))
        label = int(value > 20)
        values = {
            "imd_avg_score": float(rng.uniform(5, 40)),
            "imd_prop_deprived": float(rng.uniform(0, 30)),
            "long_term_unemployed": float(rng.uniform(0, 10)),
            "routine_occupations": float(rng.uniform(5, 20)),
            "no_qualifications": float(rng.uniform(10, 30)),
            "english_proficiency": float(rng.uniform(0, 40)),
            "ethnic_minority": float(rng.uniform(0, 60)),
            "born_outside_uk": float(rng.uniform(0, 40)),
        }
        values[threshold_feature] = value
        gdsc.append([values[c] for c in GDSC_NUMERIC_COLUMNS])
        rurality.append(int(rng.integers(1, 7)))
        rates.append([float(60 + 30 * label + rng.uniform(-1, 1)) for _ in range(14)])
        labels.append(label)
    dataset = YearDataset(
        year=2021,
        ids=tuple(f"E{i:03d}" for i in range(n)),
        names=tuple(f"D{i}" for i in range(n)),
        rates=np.array(rates),
        gdsc=np.array(gdsc),
        rurality=np.array(rurality, dtype=np.int64),
    )
    return dataset, np.array(labels)


def test_cross_validate_separable_dataset_is_perfect(rng):
    dataset, labels = _labelled_dataset(rng)
    assignment = ClusterAssignment(k=2, labels=labels, ordered_names=("L", "H"))
    result = ev.cross_validate(dataset, assignment, TrainConfig(n_trees=60, depth=3, seed=1),
                               k_folds=5, seed=1)
    assert result.bundle.mean.accuracy == 1.0
    assert len(result.models) == 5
    assert all((labels[idx] >= 0).all() for idx in result.test_indices)


def test_cross_validate_permuted_labels_near_chance(rng):
    accuracies = []
    for seed in range(6):
        dataset, labels = _labelled_dataset(np.random.default_rng(seed), n=60)
        permuted = np.random.default_rng(100 + seed).permutation(labels)
        if len(set(permuted.tolist())) < 2:
            continue
        assignment = ClusterAssignment(k=2, labels=permuted, ordered_names=("L", "H"))
        result = ev.cross_validate(dataset, assignment, TrainConfig(n_trees=25, depth=3, seed=seed),
                                   k_folds=5, seed=seed)
        accuracies.append(result.bundle.mean.accuracy)
    assert 0.35 <= float(np.mean(accuracies)) <= 0.65


def test_cross_validate_no_ts_leakage(rng):
    dataset, labels = _labelled_dataset(rng, n=50)
    assignment = ClusterAssignment(k=2, labels=labels, ordered_names=("L", "H"))
    config = TrainConfig(n_trees=5, depth=2, seed=3)
    result = ev.cross_validate(dataset, assignment, config, k_folds=5, seed=3)
    rurality = dataset.rurality.reshape(-1, 1)
    for fold, model in enumerate(result.models):
        train_rows = np.setdiff1d(np.arange(len(labels)), result.test_indices[fold])
        fold_config = TrainConfig(**{**asdict(config), "seed": config.seed ^ fold})
        rebuilt, _ = OrderedTsEncoder.fit(
            rurality[train_rows], labels[train_rows], 2, fold_config, feature_names=["rurality"]
        )
        assert asdict(rebuilt) == asdict(model.ts_encoder)


def test_metrics_mean_is_fold_order_invariant():
    rows = [
        ev.macro_metrics(np.array([[3, 1], [0, 4]])),
        ev.macro_metrics(np.array([[2, 2], [1, 3]])),
        ev.macro_metrics(np.array([[4, 0], [2, 2]])),
    ]
    forward = ev._mean_rows(rows)
    backward = ev._mean_rows(list(reversed(rows)))
    assert forward == backward


def test_adjusted_rand_index():
    assert ev.adjusted_rand_index([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0
    assert ev.adjusted_rand_index([0, 0, 1, 1], [0, 1, 0, 1]) < 0.2
    near_zero = ev.adjusted_rand_index(
        np.arange(1000) % 2, np.random.default_rng(5).integers(0, 2, 1000)
    )
    assert abs(near_zero) < 0.1


@pytest.mark.parametrize("labels", [[], [0], [3]])
def test_adjusted_rand_index_below_two_rows_is_one(labels):
    # fewer than two rows hold no pair to disagree on; 0/0 before
    assert ev.adjusted_rand_index(labels, list(reversed(labels))) == 1.0
