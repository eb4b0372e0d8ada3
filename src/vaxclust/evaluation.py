"""Stratified cross-validation and classification metrics.

Folds are stratified by class: within each class, rows are shuffled by the
seed and dealt round-robin, so per-fold class counts differ from perfect
proportion by less than one. Metrics follow the usual confusion-matrix
definitions with macro (unweighted class-mean) aggregation; weighted
variants are computed alongside since reports quote both. Zero-denominator
precision/recall are defined as 0 and counted, not silently dropped.

Final cross-validation numbers are the plain mean of per-fold metric rows
(not pooled-confusion metrics); fold order never affects the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .dataset import GDSC_NUMERIC_COLUMNS, YearDataset
from .errors import (
    EmptyMatrix,
    KFoldsOutOfRange,
    LabelOutOfRange,
    LengthMismatch,
    TooFewRows,
)
from .gbdt import TrainConfig, TreeEnsemble, check_fitted, fit_cells, predict_class, prepare_folds
from .gbdt import fit  # noqa: F401  perfbench/spans.py wraps evaluation.fit by name
from .hcluster import ClusterAssignment
from .rng import Rng


@dataclass(frozen=True)
class MetricRow:
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    zero_division_count: int = 0


@dataclass(frozen=True)
class MetricsBundle:
    mean: MetricRow
    per_fold: tuple[MetricRow, ...]
    pooled_confusion: np.ndarray
    warnings: tuple[str, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class CvResult:
    bundle: MetricsBundle
    models: tuple[TreeEnsemble, ...]
    test_indices: tuple[np.ndarray, ...]


def stratified_folds(labels, k_folds: int, seed: int) -> np.ndarray:
    """Each row's fold index, 0..k_folds-1."""
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.shape[0]
    if k_folds < 2:
        raise KFoldsOutOfRange("k_folds must be >= 2")
    if n < k_folds:
        raise TooFewRows(f"{n} rows cannot fill {k_folds} folds")
    folds = np.empty(n, dtype=np.int64)
    rng = Rng(seed)
    for c in np.unique(labels):
        members = np.flatnonzero(labels == c).tolist()
        rng.shuffle(members)
        folds[members] = np.arange(len(members)) % k_folds
    return folds


def confusion_matrix(truth, predicted, k: int) -> np.ndarray:
    truth = np.asarray(truth, dtype=np.int64)
    predicted = np.asarray(predicted, dtype=np.int64)
    if truth.shape != predicted.shape:
        raise LengthMismatch("truth and predicted differ in length")
    if truth.size and (truth.min() < 0 or truth.max() >= k or predicted.min() < 0 or predicted.max() >= k):
        raise LabelOutOfRange(f"labels outside 0..{k - 1}")
    matrix = np.zeros((k, k), dtype=np.int64)
    np.add.at(matrix, (truth, predicted), 1)
    return matrix


def macro_metrics(confusion: np.ndarray, restrict_to_present: bool = False) -> MetricRow:
    """Metric row from one confusion matrix.

    Per class: P = TP/(TP+FP), R = TP/(TP+FN), F1 = 2PR/(P+R), each 0 when its
    denominator is 0. Macro values are unweighted class means; weighted values
    use true-class support. ``restrict_to_present`` drops classes with zero
    support from the macro mean (used for folds that miss a class).
    """
    confusion = np.asarray(confusion, dtype=np.float64)
    total = confusion.sum()
    if confusion.size == 0 or total == 0:
        raise EmptyMatrix("confusion matrix has no observations")
    tp = np.diag(confusion)
    support = confusion.sum(axis=1)
    predicted = confusion.sum(axis=0)
    was_predicted, present = predicted > 0, support > 0
    precision = np.divide(tp, predicted, out=np.zeros(len(tp)), where=was_predicted)
    recall = np.divide(tp, support, out=np.zeros(len(tp)), where=present)
    both = precision + recall
    f1 = np.divide(2 * precision * recall, both, out=np.zeros(len(tp)), where=both > 0)
    included = present if restrict_to_present else np.ones(len(tp), dtype=bool)
    weights = support[included] / support[included].sum()
    return MetricRow(
        accuracy=float(tp.sum() / total),
        macro_precision=float(precision[included].mean()),
        macro_recall=float(recall[included].mean()),
        macro_f1=float(f1[included].mean()),
        weighted_precision=float((precision[included] * weights).sum()),
        weighted_recall=float((recall[included] * weights).sum()),
        weighted_f1=float((f1[included] * weights).sum()),
        zero_division_count=int(np.count_nonzero(~was_predicted) + np.count_nonzero(~present)),
    )


def _mean_rows(rows: list[MetricRow]) -> MetricRow:
    """Field-wise mean of the rows; the integer counts are summed instead."""
    # fsum: correctly-rounded sums make the mean exactly fold-order-invariant
    values = {}
    for f in fields(MetricRow):
        column = [getattr(r, f.name) for r in rows]
        values[f.name] = sum(column) if f.type == "int" else math.fsum(column) / len(rows)
    return MetricRow(**values)


def dataset_design(dataset: YearDataset) -> tuple[np.ndarray, np.ndarray, list[str], list[str]]:
    """Numeric matrix, rurality column, and their names, classifier-ready."""
    return dataset.gdsc, dataset.rurality.reshape(-1, 1), list(GDSC_NUMERIC_COLUMNS), ["rurality"]


def prepare_cv(
    dataset: YearDataset,
    assignment: ClusterAssignment,
    config: TrainConfig,
    k_folds: int = 5,
    seed: int = 0,
) -> tuple[np.ndarray, list]:
    """Each row's fold and the fold models of :func:`cross_validate` before
    any tree grows, for :func:`gbdt.fit_cells` to boost alone or with other
    cells'. Raises what :func:`cross_validate` raises before its fit."""
    labels = np.asarray(assignment.labels, dtype=np.int64)
    numeric, categorical, numeric_names, cat_names = dataset_design(dataset)
    folds = stratified_folds(labels, k_folds, seed)
    return folds, prepare_folds(
        numeric, categorical, labels, folds, config,
        numeric_names=numeric_names, categorical_names=cat_names,
    )


def cross_validate(
    dataset: YearDataset,
    assignment: ClusterAssignment,
    config: TrainConfig,
    k_folds: int = 5,
    seed: int = 0,
    fitted: tuple[np.ndarray, list[TreeEnsemble]] | None = None,
) -> CvResult:
    """Stratified k-fold CV of the GDSC -> cluster classifier.

    Each fold's model is fit on the remaining folds only (the target-statistic
    encoder included, so held-out rows never leak their labels), then scored
    on the held-out rows. The folds and fold models come from
    :func:`prepare_cv` with the same arguments and :func:`gbdt.fit_cells`:
    ``fitted`` holds the folds it drew and the models it boosted with other
    cells', and without them this cell's are drawn and boosted alone,
    through the same loop and to the same bits. A fold whose test
    rows miss a class is a warning; its metrics cover the classes present.
    A fold whose training rows miss a class (a cluster too small to leave
    members in every training split) raises :class:`DegenerateLabels`
    before any model is fit. A fold model whose boosting diverged raises
    :class:`NonFiniteModel` before any prediction. Running out of memory
    while boosting is the ``MemoryError`` of :func:`gbdt.fit_cells`.
    """
    if fitted is None:
        folds, untrained = prepare_cv(dataset, assignment, config, k_folds, seed)
        fitted = folds, fit_cells([untrained])[0]
    folds, models = fitted
    for model in models:
        check_fitted(model)
    labels = np.asarray(assignment.labels, dtype=np.int64)
    numeric, categorical, _, _ = dataset_design(dataset)

    k = assignment.k
    rows: list[MetricRow] = []
    test_indices: list[np.ndarray] = []
    warnings: list[str] = []
    pooled = np.zeros((k, k), dtype=np.int64)
    for fold, model in enumerate(models):
        test = np.flatnonzero(folds == fold)
        predicted = predict_class(model, numeric[test], categorical[test])
        confusion = confusion_matrix(labels[test], predicted, k)
        missing = [c for c in range(k) if not np.any(labels[test] == c)]
        if missing:
            warnings.append(f"fold {fold} test set missing class(es) {missing}")
        rows.append(macro_metrics(confusion, restrict_to_present=bool(missing)))
        pooled += confusion
        test_indices.append(test)

    bundle = MetricsBundle(
        mean=_mean_rows(rows),
        per_fold=tuple(rows),
        pooled_confusion=pooled,
        warnings=tuple(warnings),
    )
    return CvResult(bundle=bundle, models=tuple(models), test_indices=tuple(test_indices))


def adjusted_rand_index(labels_a, labels_b) -> float:
    """Chance-corrected agreement between two partitions of the same rows.

    Two partitions of fewer than two rows agree trivially: 1.0, as in
    scikit-learn.
    """
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape:
        raise LengthMismatch("partitions differ in length")
    n = a.shape[0]
    if n < 2:
        return 1.0
    _, a_idx = np.unique(a, return_inverse=True)
    _, b_idx = np.unique(b, return_inverse=True)
    table = np.zeros((a_idx.max() + 1, b_idx.max() + 1), dtype=np.int64)
    np.add.at(table, (a_idx, b_idx), 1)

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_cells = comb2(table).sum()
    sum_a = comb2(table.sum(axis=1)).sum()
    sum_b = comb2(table.sum(axis=0)).sum()
    expected = sum_a * sum_b / comb2(n)
    max_index = (sum_a + sum_b) / 2.0
    if max_index == expected:
        return 1.0 if sum_cells == expected else 0.0
    return float((sum_cells - expected) / (max_index - expected))
