"""Gradient-boosted oblivious decision trees over GDSC features.

Oblivious (symmetric) trees apply one (feature, threshold) split per level,
so a leaf is addressed by the bit pattern of its level decisions (bit l set
iff feature > threshold at level l). Leaf values are Newton steps
``-sum(g) / (sum(h) + l2)`` on the logistic / softmax objective; multiclass
rounds grow one scalar tree per class from the round-start probabilities.

Categorical features enter through ordered target statistics: the encoding
of a row uses only target values of rows preceding it in a seeded
permutation, smoothed toward the global prior, which removes the target
leakage a plain mean encoding would introduce. Inference uses the frozen
full-training statistics.

Split candidates are 32-bucket per-feature quantile borders, computed once
per fit together with every row's bucket in every column. Each tree level
scores every (feature, threshold) candidate from one gradient and one
hessian histogram over (occupied leaf, feature, bucket), as in LightGBM's
histogram method (Ke et al. 2017). The histogram has one row per leaf that
holds training rows rather than one for each of the 2^level leaves, so deep
trees stay small. Ties break to the lowest feature index, then the lowest
threshold, so training is bit-reproducible for a given (data, config, seed).

The models of several training sets boost together: :func:`fit_folds`
trains every cross-validation fold's model in one loop over their
concatenated rows, and each round grows the trees of every (class, fold) in
one grower call, whose histograms carry (tree, occupied leaf) keys. A level
scores its trees in runs of whole trees whose work arrays stay under
``_HISTOGRAM_BUDGET`` cells, so memory does not grow with the number of
trees. Each tree's arithmetic is the one it would do alone, so every model
is bit for bit the one :func:`fit` gives on its fold's rows; :func:`fit` is
the same loop over one training set.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import (
    DataError,
    DegenerateLabels,
    FeatureArityMismatch,
    NonFiniteFeature,
    TooFewRows,
)
from .rng import Rng, derive_seed
from .schema import check_fields, is_int

N_QUANTILE_BUCKETS = 32
_MIN_SPLIT_GAIN = 1e-12

LOSSES = ("auto", "binary_logistic", "multiclass_softmax")


@dataclass(frozen=True)
class TrainConfig:
    n_trees: int = 500
    depth: int = 6
    learning_rate: float = 0.1
    l2_leaf_reg: float = 3.0
    ts_prior_weight: float = 1.0
    n_permutations: int = 1
    seed: int = 0
    loss: str = "auto"

    def validate(self) -> None:
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if not 1 <= self.depth <= 16:
            raise ValueError("depth must be in 1..16")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if self.l2_leaf_reg < 0.0:
            raise ValueError("l2_leaf_reg must be >= 0")
        if self.ts_prior_weight <= 0.0:
            raise ValueError("ts_prior_weight must be > 0")
        if self.n_permutations < 1:
            raise ValueError("n_permutations must be >= 1")
        if self.loss not in LOSSES:
            raise ValueError(f"loss must be one of {LOSSES}")


def encode_ordered_ts(categories, targets, permutation, prior_weight: float, prior) -> np.ndarray:
    """Ordered target-statistic encoding of one categorical column.

    The row at permutation position j is encoded from the targets of
    same-category rows at positions strictly before j:

        (prefix_sum + prior_weight * prior) / (prefix_count + prior_weight)

    so the first occurrence of any category encodes to the prior exactly.
    ``targets`` is one component per row, or (n, K) with ``prior`` (K,) for
    K components at once. The prefix sums and counts are one ``cumsum``
    along the positions of a zero-padded (component, category, position)
    table: a category's running total adds its own targets in permutation
    order, and the +0.0 of other categories' positions changes none of them.
    The table holds (K + 1) * categories * n floats.
    """
    permutation = np.asarray(permutation)
    n = permutation.size
    seen, codes = np.unique(np.asarray(categories).astype(np.int64)[permutation], return_inverse=True)
    targets = np.asarray(targets, dtype=np.float64)
    components = targets.reshape(n, -1)[permutation].T  # (K, position)
    positions = np.arange(n)
    table = np.zeros((components.shape[0] + 1, seen.size, n + 1))
    table[:-1, codes, positions + 1] = components
    table[-1, codes, positions + 1] = 1.0  # the counts, as a last component
    running = np.cumsum(table, axis=2)[:, codes, positions]  # totals before each position
    prefix_sum, prefix_count = running[:-1].T, running[-1][:, None]
    out = np.empty((n, components.shape[0]), dtype=np.float64)
    out[permutation] = (prefix_sum + prior_weight * np.asarray(prior)) / (prefix_count + prior_weight)
    return out.reshape(targets.shape)


@dataclass(frozen=True)
class OrderedTsEncoder:
    """Frozen per-category statistics for inference plus ordered training views.

    One encoded column per (categorical feature, target component); binary
    targets have a single component (the positive class), multiclass targets
    one component per class.
    """

    feature_names: tuple[str, ...]
    n_components: int
    prior_weight: float
    priors: tuple[tuple[float, ...], ...]  # per feature, per component
    stats: tuple[dict[int, tuple[int, tuple[float, ...]]], ...]  # per feature: {category: (count, sums)}
    component_names: tuple[str, ...]

    @property
    def column_names(self) -> list[str]:
        names = []
        for fname in self.feature_names:
            for comp in self.component_names:
                names.append(fname if comp == "" else f"{fname}|{comp}")
        return names

    @classmethod
    def fit(
        cls,
        categories: np.ndarray,
        labels: np.ndarray,
        n_classes: int,
        config: TrainConfig,
        feature_names=None,
    ):
        """Freeze full-training statistics and return (encoder, training_columns)."""
        n, d_cat = categories.shape
        if n_classes == 2:
            components = (labels == 1)[:, None]
            component_names = ("",)
        else:
            components = labels[:, None] == np.arange(n_classes)
            component_names = tuple(f"class{c}" for c in range(n_classes))
        components = components.astype(np.float64)  # (row, component) indicators
        prior = components.mean(axis=0)  # global, same per feature; indicator sums are exact
        priors = (tuple(prior.tolist()),) * d_cat

        permutations = [
            Rng(derive_seed(config.seed, 0xC47, p)).permutation(n)
            for p in range(config.n_permutations)
        ]

        stats = []
        width = components.shape[1]
        train_cols = np.empty((n, d_cat * width), dtype=np.float64)
        for f in range(d_cat):
            seen, codes = np.unique(categories[:, f], return_inverse=True)
            counts = np.bincount(codes, minlength=seen.size).tolist()
            sums = np.stack([np.bincount(codes, weights=t, minlength=seen.size) for t in components.T], axis=1)
            stats.append({
                int(c): (count, tuple(row)) for c, count, row in zip(seen.tolist(), counts, sums.tolist())
            })
            encoded = np.zeros((n, width), dtype=np.float64)
            for perm in permutations:
                encoded += encode_ordered_ts(categories[:, f], components, perm, config.ts_prior_weight, prior)
            train_cols[:, f * width : (f + 1) * width] = encoded / len(permutations)

        if feature_names is None:
            feature_names = [f"cat{f}" for f in range(d_cat)]
        encoder = cls(
            feature_names=tuple(feature_names),
            n_components=width,
            prior_weight=float(config.ts_prior_weight),
            priors=priors,
            stats=tuple(stats),
            component_names=component_names,
        )
        return encoder, train_cols

    def encode(self, categories: np.ndarray) -> np.ndarray:
        """Full-statistics encoding for inference; unseen categories get the prior."""
        categories = np.asarray(categories)
        if categories.ndim != 2 or categories.shape[1] != len(self.feature_names):
            raise FeatureArityMismatch(
                f"expected {len(self.feature_names)} categorical columns, got shape {categories.shape}"
            )
        a = self.prior_weight
        width = self.n_components
        out = np.empty((categories.shape[0], len(self.feature_names) * width), dtype=np.float64)
        for f, feature_stats in enumerate(self.stats):
            seen, row_category = np.unique(categories[:, f].astype(np.int64), return_inverse=True)
            table = np.empty((seen.size, width), dtype=np.float64)
            for i, c in enumerate(seen.tolist()):
                count, sums = feature_stats.get(c, (0, (0.0,) * width))
                for comp_idx, prior in enumerate(self.priors[f]):
                    table[i, comp_idx] = (sums[comp_idx] + a * prior) / (count + a)
            out[:, f * width : (f + 1) * width] = table[row_category]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "OrderedTsEncoder":
        return cls(
            feature_names=tuple(data["feature_names"]),
            n_components=data["n_components"],
            prior_weight=float(data["prior_weight"]),
            priors=tuple(tuple(float(x) for x in p) for p in data["priors"]),
            stats=tuple(
                {int(c): (v[0], tuple(float(x) for x in v[1])) for c, v in fs.items()}
                for fs in data["stats"]
            ),
            component_names=tuple(data["component_names"]),
        )


@dataclass(frozen=True)
class ObliviousTree:
    splits: tuple[tuple[int, float], ...]
    leaf_values: np.ndarray  # (2**len(splits),)
    leaf_cover: np.ndarray  # training rows per leaf, same shape
    class_index: int = 0

    @property
    def n_levels(self) -> int:
        return len(self.splits)

    def leaf_indices(self, X: np.ndarray) -> np.ndarray:
        idx = np.zeros(X.shape[0], dtype=np.int64)
        for level, (feature, threshold) in enumerate(self.splits):
            idx |= (X[:, feature] > threshold).astype(np.int64) << level
        return idx

    def evaluate(self, X: np.ndarray) -> np.ndarray:
        return self.leaf_values[self.leaf_indices(X)]


@dataclass(frozen=True)
class TreeEnsemble:
    n_classes: int
    n_outputs: int  # 1 for binary (positive-class log-odds), k for multiclass
    base_score: np.ndarray  # (n_outputs,)
    learning_rate: float
    trees: tuple[ObliviousTree, ...]
    feature_names: tuple[str, ...]  # design-matrix columns
    feature_source: tuple[str, ...]  # source feature per column (TS columns collapse)
    n_numeric: int
    ts_encoder: OrderedTsEncoder | None
    config: TrainConfig
    training_loss: tuple[float, ...] = field(default_factory=tuple)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    def encode_features(self, numeric: np.ndarray, categorical: np.ndarray | None = None) -> np.ndarray:
        numeric = np.atleast_2d(np.asarray(numeric, dtype=np.float64))
        if numeric.shape[1] != self.n_numeric:
            raise FeatureArityMismatch(
                f"expected {self.n_numeric} numeric features, got {numeric.shape[1]}"
            )
        if self.ts_encoder is None:
            if categorical is not None and np.size(categorical):
                raise FeatureArityMismatch("model was trained without categorical features")
            return numeric
        if categorical is None:
            raise FeatureArityMismatch("model requires categorical features")
        categorical = np.atleast_2d(np.asarray(categorical))
        return np.hstack([numeric, self.ts_encoder.encode(categorical)])


def margin_from_design(model: TreeEnsemble, design: np.ndarray) -> np.ndarray:
    """(n, n_outputs) additive margins over an already-encoded design matrix."""
    design = np.atleast_2d(np.asarray(design, dtype=np.float64))
    if design.shape[1] != model.n_features:
        raise FeatureArityMismatch(
            f"expected {model.n_features} design columns, got {design.shape[1]}"
        )
    margins = np.tile(model.base_score, (design.shape[0], 1))
    for tree in model.trees:
        margins[:, tree.class_index] += model.learning_rate * tree.evaluate(design)
    return margins


def predict_margin(model: TreeEnsemble, numeric, categorical=None) -> np.ndarray:
    return margin_from_design(model, model.encode_features(numeric, categorical))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _softmax(margins: np.ndarray) -> np.ndarray:
    shifted = margins - margins.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=1, keepdims=True)


def proba_from_margin(model: TreeEnsemble, margins: np.ndarray) -> np.ndarray:
    if model.n_outputs == 1:
        p = _sigmoid(margins[:, 0])
        return np.column_stack([1.0 - p, p])
    return _softmax(margins)


def predict_proba(model: TreeEnsemble, numeric, categorical=None) -> np.ndarray:
    return proba_from_margin(model, predict_margin(model, numeric, categorical))


def predict_class(model: TreeEnsemble, numeric, categorical=None) -> np.ndarray:
    return np.argmax(predict_proba(model, numeric, categorical), axis=1)


_QUANTILES = np.arange(1, N_QUANTILE_BUCKETS) / N_QUANTILE_BUCKETS


def _split_table(design: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row slots and per-column thresholds shared by every tree of a fit.

    ``thresholds[j, m]`` is the m-th quantile candidate of column j, padded
    with +inf to ``N_QUANTILE_BUCKETS`` slots (a column has at most 31
    candidates, none when constant). ``slots[i, j]`` is ``j *
    N_QUANTILE_BUCKETS`` plus the bucket of row i in column j, the number of
    candidates below its value, so the row falls left of ``thresholds[j, m]``
    exactly when its bucket is <= m. Slots take the smallest unsigned type
    that holds them.
    """
    n_rows, n_cols = design.shape
    thresholds = np.full((n_cols, N_QUANTILE_BUCKETS), np.inf)
    slots = np.empty((n_rows, n_cols), dtype=np.min_scalar_type(n_cols * N_QUANTILE_BUCKETS - 1))
    borders = np.quantile(design, _QUANTILES, axis=0, method="linear")  # (quantile, column)
    for j in range(n_cols):
        candidates = np.unique(borders[:, j])
        thresholds[j, : candidates.size] = candidates
        slots[:, j] = j * N_QUANTILE_BUCKETS + np.searchsorted(candidates, design[:, j], side="left")
    return slots, thresholds


def _newton_score(squares: np.ndarray, denominators: np.ndarray) -> np.ndarray:
    """``squares / denominators``, 0 where a denominator is <= 0, written
    over ``squares`` (``denominators`` is overwritten too).

    A denominator <= 0 becomes +inf, and a finite square over +inf is +0.0:
    the result of the masked divide, from one plain one.
    """
    denominators[denominators <= 0] = np.inf
    squares /= denominators
    return squares


# Upper bound on the cells of one grower run: its (leaf, column, bucket)
# histogram, its (row, column) keys and its dense leaf table. A level scores
# its live trees in runs of whole trees under it, so batching the trees of
# every fold and class does not grow the work arrays with their number:
# unbounded, one 30-tree depth-6 round of a k=6 cell peaked at 12.8 MB. On
# 150-district cells, 2^14 fitted 40 rounds about 7% faster but held 0.5 MB
# more peak RSS; 2^12 and 2^16 were slower than both.
_HISTOGRAM_BUDGET = 1 << 13


def _best_splits(slots, g, h, g_rows, h_rows, tree_leaf, n_leaves, padded, lone, l2):
    """Each tree's best flat (column, bucket) slot at one level, and whether
    it gains more than the minimum.

    The rows belong to ``padded.shape[0]`` trees in order, ``tree_leaf`` is
    a row's tree times ``n_leaves`` plus its leaf, and ``g_rows`` and
    ``h_rows`` repeat ``g`` and ``h`` in the (row, column) order of
    ``slots``. One g and one h ``bincount`` over (tree, occupied leaf,
    column, bucket) make the histograms, and a ``cumsum`` along the bucket
    axis gives the left sums of every candidate at once. Only leaves that
    hold rows get histogram rows, as an empty leaf adds nothing to a gain; a
    row's histogram row is its (tree, leaf)'s rank among the occupied ones.
    A tree's gains sum its own leaves in leaf order, as when it grows alone:
    a reshape when every tree has as many occupied leaves, else a
    zero-padded (tree, leaf, column, bucket) table, since scores are >= +0.0
    and adding +0.0 changes none. ``lone`` marks each tree's one-candidate
    columns, or is None when there are none. Ties go to the lowest column,
    then the lowest threshold.
    """
    n_trees, width = padded.shape
    n_cols = slots.shape[1]
    cells = n_trees * n_leaves
    g_leaf = np.bincount(tree_leaf, weights=g, minlength=cells)
    h_leaf = np.bincount(tree_leaf, weights=h, minlength=cells)
    base = _newton_score(g_leaf * g_leaf, h_leaf + l2).reshape(n_trees, n_leaves).sum(axis=1)

    filled = np.bincount(tree_leaf, minlength=cells) > 0
    occupied = np.flatnonzero(filled)
    ranks = np.cumsum(filled)
    row_leaf = (ranks - 1)[tree_leaf]
    keys = (row_leaf[:, None] * width + slots).ravel()
    size = occupied.size * width
    shape = (occupied.size, n_cols, N_QUANTILE_BUCKETS)
    gl = np.cumsum(np.bincount(keys, weights=g_rows, minlength=size).reshape(shape), axis=2)
    hl = np.cumsum(np.bincount(keys, weights=h_rows, minlength=size).reshape(shape), axis=2)
    gr = g_leaf[occupied, None, None] - gl
    hr = h_leaf[occupied, None, None] - hl
    hl += l2
    hr += l2
    gl *= gl
    gr *= gr
    score = _newton_score(gl, hl)
    score += _newton_score(gr, hr)

    ends = ranks[n_leaves - 1 :: n_leaves].tolist()  # occupied leaves up to each tree's last
    most = ends[0]
    if ends == list(range(most, most * n_trees + 1, most)):
        table = score.reshape(n_trees, most, n_cols, N_QUANTILE_BUCKETS)
    else:
        firsts = np.array([0, *ends[:-1]])
        tree = occupied // n_leaves
        table = np.zeros((n_trees, int(np.diff(ends, prepend=0).max()), n_cols, N_QUANTILE_BUCKETS))
        table[tree, np.arange(occupied.size) - firsts[tree]] = score
    gains = table.sum(axis=1).reshape(n_trees, width) - base[:, None]

    # Gains are those of scoring each column on its own (2^level, candidates)
    # table. numpy sums such a table leaf by leaf, as the occupied rows here
    # do, but a one-column table pairwise, which rounds differently; so a
    # column with one candidate has its gain summed pairwise over all leaves.
    if lone is not None:
        columns = np.flatnonzero(lone.any(axis=0))
        dense = np.zeros((n_trees, columns.size, n_leaves))
        dense[occupied // n_leaves, :, occupied % n_leaves] = score[:, columns, 0]
        tree, at = np.nonzero(lone[:, columns])
        gains[tree, columns[at] * N_QUANTILE_BUCKETS] = dense.sum(axis=2)[tree, at] - base[tree]
    gains[padded] = -np.inf
    best = np.argmax(gains, axis=1).tolist()
    return best, [bool(gains[t, slot] > _MIN_SPLIT_GAIN) for t, slot in enumerate(best)]


@dataclass(frozen=True)
class _Layout:
    """The trees of a boosting round and their split tables, the same every
    round: tree b owns ``sizes[b]`` consecutive rows of ``slots`` and row b of
    ``thresholds`` (from :func:`_split_table`, flattened to (column, bucket)
    slots). ``padded`` marks slots with no candidate, ``lone`` the columns
    with one, ``has_lone`` the trees with such a column."""

    slots: np.ndarray
    thresholds: np.ndarray
    sizes: list[int]
    padded: np.ndarray
    lone: np.ndarray
    has_lone: list[bool]
    tree_of_row: np.ndarray

    @classmethod
    def of(cls, slots: np.ndarray, thresholds: np.ndarray, sizes: list[int]) -> "_Layout":
        n_trees, n_cols, _ = thresholds.shape
        padded = np.isinf(thresholds)
        lone = padded.sum(axis=2) == N_QUANTILE_BUCKETS - 1
        return cls(
            slots=slots,
            thresholds=thresholds.reshape(n_trees, n_cols * N_QUANTILE_BUCKETS),
            sizes=sizes,
            padded=padded.reshape(n_trees, n_cols * N_QUANTILE_BUCKETS),
            lone=lone,
            has_lone=lone.any(axis=1).tolist(),
            tree_of_row=np.repeat(np.arange(n_trees), sizes),
        )


def _grow_trees(layout: _Layout, grad, hess, depth, l2):
    """Symmetric trees grown together, each by greedy level-wise splits that
    maximize its total Newton gain, bit for bit as if it grew alone.

    Tree b owns ``layout.sizes[b]`` consecutive rows of ``grad`` and
    ``hess``. Each level scores the trees still growing in runs of whole
    trees whose work arrays stay under ``_HISTOGRAM_BUDGET`` cells
    (:func:`_best_splits`); a tree whose best split gains no more than the
    minimum stops and drops out of later levels. Newton scores are plain
    divides (:func:`_newton_score`). Returns each tree's (splits, leaf
    values, leaf covers) and each row's leaf value.
    """
    slots, thresholds, sizes = layout.slots, layout.thresholds, layout.sizes
    padded, lone, has_lone, tree_of_row = layout.padded, layout.lone, layout.has_lone, layout.tree_of_row
    n_trees, width = thresholds.shape
    n_cols = slots.shape[1]
    splits: list[list[tuple[int, float]]] = [[] for _ in range(n_trees)]
    leaf_idx = np.zeros(grad.size, dtype=np.int64)

    # The live (still growing) trees and their rows: ``rows`` picks them out
    # of ``slots`` once a tree has stopped, and the other row arrays and
    # per-tree tables are cut down to them.
    live, live_sizes, rows = list(range(n_trees)), sizes, None
    g, h, leaf, row_tree = grad, hess, leaf_idx, tree_of_row
    whole = None  # g and h repeated per column, while one run holds every live row
    starts = [0, *itertools.accumulate(live_sizes)]
    for level in range(depth):
        n_leaves = 1 << level
        rows_most = max(live_sizes)
        cost = max(min(rows_most, n_leaves) * width, rows_most * n_cols, n_leaves)
        step = max(1, _HISTOGRAM_BUDGET // cost)  # trees per run
        best: list[int] = []
        ok: list[bool] = []
        for a in range(0, len(live), step):
            b = min(a + step, len(live))
            r0, r1 = starts[a], starts[b]
            if b - a < len(live):
                weights = np.repeat(g[r0:r1], n_cols), np.repeat(h[r0:r1], n_cols)
            elif whole is None:
                weights = whole = np.repeat(g, n_cols), np.repeat(h, n_cols)
            else:
                weights = whole
            run = _best_splits(
                slots[r0:r1] if rows is None else slots[rows[r0:r1]], g[r0:r1], h[r0:r1], *weights,
                leaf[r0:r1] if b - a == 1 else ((row_tree[r0:r1] - a) << level) | leaf[r0:r1],
                n_leaves, padded[a:b], lone[a:b] if any(has_lone[a:b]) else None, l2,
            )
            best += run[0]
            ok += run[1]
        for i, slot in enumerate(best):
            if ok[i]:
                j = slot // N_QUANTILE_BUCKETS
                splits[live[i]].append((j, float(thresholds[live[i], slot])))
                r0, r1 = starts[i], starts[i + 1]
                column = slots[r0:r1, j] if rows is None else slots[rows[r0:r1], j]
                leaf[r0:r1] |= (column > slot).astype(np.int64) << level
        if not all(ok):
            live = [t for t, grows in zip(live, ok) if grows]
            if not live:
                break
            keep = np.repeat(ok, live_sizes)
            if rows is None:
                rows = np.arange(grad.size)
            leaf_idx[rows[~keep]] = leaf[~keep]
            rows, g, h, leaf = rows[keep], g[keep], h[keep], leaf[keep]
            padded, lone = padded[ok], lone[ok]
            has_lone = [flag for flag, grows in zip(has_lone, ok) if grows]
            live_sizes = [size for size, grows in zip(live_sizes, ok) if grows]
            row_tree = np.repeat(np.arange(len(live)), live_sizes)
            starts = [0, *itertools.accumulate(live_sizes)]
            whole = None
    if rows is not None:
        leaf_idx[rows] = leaf

    offsets = np.array([0, *itertools.accumulate(1 << len(tree_splits) for tree_splits in splits)])
    key = offsets[tree_of_row] + leaf_idx
    g_leaf = np.bincount(key, weights=grad, minlength=offsets[-1])
    h_leaf = np.bincount(key, weights=hess, minlength=offsets[-1])
    cover = np.bincount(key, minlength=offsets[-1])
    denom = h_leaf + l2
    values = np.where(denom > 0, -np.divide(g_leaf, denom, out=np.zeros_like(denom), where=denom > 0), 0.0)
    # each tree owns its tables: views into the round's raised the peak RSS
    # of a 500-round k=6 cross-validation by about 4 MB
    grown = [
        (splits[b], values[offsets[b] : offsets[b + 1]].copy(), cover[offsets[b] : offsets[b + 1]].copy())
        for b in range(n_trees)
    ]
    return grown, values[key]


def _prepare(numeric, categorical, labels, config, numeric_names, categorical_names):
    """The checked inputs of one model: (the model with no trees yet, its
    design matrix, its labels)."""
    config.validate()
    numeric = np.asarray(numeric, dtype=np.float64)
    if numeric.ndim != 2:
        raise ValueError("numeric features must be 2-D")
    if not np.all(np.isfinite(numeric)):
        raise NonFiniteFeature("numeric features contain non-finite values")
    labels = np.asarray(labels, dtype=np.int64)
    n = numeric.shape[0]
    classes = np.unique(labels)
    if classes.size < 2:
        raise DegenerateLabels("training labels contain a single class")
    n_classes = int(classes.max()) + 1
    if not np.array_equal(classes, np.arange(n_classes)):
        missing = sorted(set(range(n_classes)) - set(classes.tolist()))
        raise DegenerateLabels(f"training labels lack class(es) {missing} of 0..{n_classes - 1}")
    if n < 2 * n_classes:
        raise TooFewRows(f"need at least {2 * n_classes} rows for {n_classes} classes")

    loss = config.loss
    if loss == "auto":
        loss = "binary_logistic" if n_classes == 2 else "multiclass_softmax"
    if loss == "binary_logistic" and n_classes != 2:
        raise ValueError("binary_logistic requires exactly 2 classes")

    numeric_names = list(numeric_names or [f"f{j}" for j in range(numeric.shape[1])])
    if len(numeric_names) != numeric.shape[1]:
        raise ValueError("numeric_names length mismatch")

    encoder = None
    design = numeric
    feature_names = list(numeric_names)
    feature_source = list(numeric_names)
    if categorical is not None and np.size(categorical):
        categorical = np.asarray(categorical)
        if categorical.ndim != 2 or categorical.shape[0] != n:
            raise ValueError("categorical features must be (n, d_cat)")
        cat_names = list(categorical_names or [f"cat{j}" for j in range(categorical.shape[1])])
        if len(cat_names) != categorical.shape[1]:
            raise ValueError("categorical_names length mismatch")
        encoder, ts_cols = OrderedTsEncoder.fit(
            categorical, labels, n_classes, config, feature_names=cat_names
        )
        design = np.hstack([numeric, ts_cols])
        feature_names += encoder.column_names
        feature_source += [fname for fname in cat_names for _ in encoder.component_names]

    n_outputs = 1 if loss == "binary_logistic" else n_classes
    counts = np.bincount(labels, minlength=n_classes).astype(np.float64)
    base = np.array([np.log(counts[1] / counts[0])]) if n_outputs == 1 else np.log(counts / n)
    model = TreeEnsemble(
        n_classes=n_classes,
        n_outputs=n_outputs,
        base_score=base,
        learning_rate=config.learning_rate,
        trees=(),
        feature_names=tuple(feature_names),
        feature_source=tuple(feature_source),
        n_numeric=numeric.shape[1],
        ts_encoder=encoder,
        config=replace(config, loss=loss),
    )
    return model, design, labels


def _boost(untrained) -> list[TreeEnsemble]:
    """The trained models of (model, design, labels) triples from
    :func:`_prepare` that share every setting but the seed.

    One loop boosts them all over their concatenated rows: a round grows the
    tree of every (class, model) in one :func:`_grow_trees` call, from the
    round-start probabilities. Sigmoid and softmax are row-wise, and each
    model's loss is the mean over its own rows, so every model is the one it
    would be alone.
    """
    first = untrained[0][0]
    config, n_outputs, n_models = first.config, first.n_outputs, len(untrained)
    sizes = [y.size for _, _, y in untrained]
    bounds = [0, *itertools.accumulate(sizes)]
    tables = [_split_table(design) for _, design, _ in untrained]
    # round tree b is class b // n_models of model b % n_models, on that model's rows
    layout = _Layout.of(
        np.concatenate([s for s, _ in tables] * n_outputs),
        np.stack([t for _, t in tables] * n_outputs),
        sizes * n_outputs,
    )

    labels = np.concatenate([y for _, _, y in untrained])
    n = labels.size
    if n_outputs == 1:
        targets = (labels == 1)[:, None].astype(np.float64)
        probabilities = _sigmoid
    else:
        targets = np.eye(first.n_classes)[labels]
        probabilities = _softmax
    margins = np.concatenate([np.tile(model.base_score, (y.size, 1)) for model, _, y in untrained])
    p = probabilities(margins)
    trees: list[list[ObliviousTree]] = [[] for _ in range(n_models)]
    losses: list[list[float]] = [[] for _ in range(n_models)]
    lr = config.learning_rate

    for _ in range(config.n_trees):
        grad = (p - targets).T.ravel()
        hess = (p * (1.0 - p)).T.ravel()
        grown, row_values = _grow_trees(layout, grad, hess, config.depth, config.l2_leaf_reg)
        for b, (splits, values, cover) in enumerate(grown):
            c, f = divmod(b, n_models)
            trees[f].append(ObliviousTree(splits=tuple(splits), leaf_values=values, leaf_cover=cover, class_index=c))
        margins += lr * row_values.reshape(n_outputs, n).T
        p = probabilities(margins)
        if n_outputs == 1:
            y = targets[:, 0]
            q = np.clip(p[:, 0], 1e-15, 1.0 - 1e-15)
            terms = y * np.log(q) + (1.0 - y) * np.log(1.0 - q)
        else:
            terms = np.log(np.clip(p[np.arange(n), labels], 1e-15, None))
        for f in range(n_models):
            losses[f].append(float(-np.mean(terms[bounds[f] : bounds[f + 1]])))

    return [
        replace(model, trees=tuple(model_trees), training_loss=tuple(model_losses))
        for (model, _, _), model_trees, model_losses in zip(untrained, trees, losses)
    ]


def fit(
    numeric: np.ndarray,
    categorical: np.ndarray | None,
    labels: np.ndarray,
    config: TrainConfig,
    numeric_names=None,
    categorical_names=None,
) -> TreeEnsemble:
    """Train the boosted oblivious-tree classifier.

    ``numeric`` is (n, d_num) float; ``categorical`` (n, d_cat) integer ids or
    None. Labels must be 0..k-1 with every class present. Deterministic for a
    given (data, config, seed).
    """
    return _boost([_prepare(numeric, categorical, labels, config, numeric_names, categorical_names)])[0]


def fit_folds(
    numeric: np.ndarray,
    categorical: np.ndarray | None,
    labels: np.ndarray,
    folds: np.ndarray,
    config: TrainConfig,
    numeric_names=None,
    categorical_names=None,
) -> list[TreeEnsemble]:
    """One model per fold, all boosted together: model f is :func:`fit` on
    the rows whose fold is not f, with seed ``config.seed ^ f``.

    Every fold's training rows must hold every class of ``labels``, else
    :class:`DegenerateLabels` is raised before any tree grows.
    """
    numeric = np.asarray(numeric, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    folds = np.asarray(folds)
    n_classes = int(labels.max(initial=-1)) + 1
    trains = [folds != fold for fold in range(int(folds.max(initial=-1)) + 1)]
    for fold, train in enumerate(trains):
        missing = sorted(set(range(n_classes)) - set(labels[train].tolist()))
        if missing:
            raise DegenerateLabels(
                f"fold {fold} training split lacks class(es) {missing} of 0..{n_classes - 1}"
            )
    return _boost([
        _prepare(
            numeric[train],
            None if categorical is None else np.asarray(categorical)[train],
            labels[train],
            replace(config, seed=config.seed ^ fold),
            numeric_names,
            categorical_names,
        )
        for fold, train in enumerate(trains)
    ])


_DOCUMENT_FORMAT = {"format_version": 1, "model_type": "oblivious_gbdt"}


def to_json(model: TreeEnsemble) -> str:
    """Self-describing JSON document of the dataclass fields, ``ts_encoder``
    under ``encoder``; floats round-trip exactly via repr."""
    doc = {**_DOCUMENT_FORMAT, **asdict(model)}
    encoder = doc["encoder"] = doc.pop("ts_encoder")
    if encoder is not None:  # string category keys sort as text: "10" < "9"
        encoder["stats"] = [{str(c): entry for c, entry in fs.items()} for fs in encoder["stats"]]
    return json.dumps(doc, sort_keys=True, indent=2, default=lambda a: a.tolist())


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise DataError(f"model document: {message}")


def from_json(text: str | bytes) -> TreeEnsemble:
    """The model a :func:`to_json` document describes.

    Keys and JSON types are those of the dataclass fields (the document's
    ``encoder`` holds ``ts_encoder``), and the shapes must agree: one base
    score per output, one leaf value and cover per leaf of each tree, split
    columns and class indices in range. Anything else is a DataError.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise DataError(f"model file is not JSON: {exc}") from exc
    _require(
        isinstance(doc, dict) and all(doc.get(k) == v for k, v in _DOCUMENT_FORMAT.items()),
        f"not a {_DOCUMENT_FORMAT} document",
    )
    record = {("ts_encoder" if k == "encoder" else k): v for k, v in doc.items() if k not in _DOCUMENT_FORMAT}
    check_fields(TreeEnsemble, record, DataError, "model", nested={"trees", "ts_encoder", "config"})
    check_fields(TrainConfig, record["config"], DataError, "model config")
    try:
        config = TrainConfig(**record["config"])
        config.validate()
    except ValueError as exc:
        raise DataError(f"model document: config: {exc}") from exc
    encoder = record["ts_encoder"]
    n_encoded = 0
    if encoder is not None:
        check_fields(OrderedTsEncoder, encoder, DataError, "model encoder")
        width = encoder["n_components"]
        n_cat = len(encoder["feature_names"])
        _require(
            len(encoder["component_names"]) == width
            and len(encoder["priors"]) == len(encoder["stats"]) == n_cat
            and all(len(p) == width for p in encoder["priors"])
            and all(len(v[1]) == width for fs in encoder["stats"] for v in fs.values()),
            "encoder priors and stats must hold one value per feature and component",
        )
        n_encoded = n_cat * width

    n_classes, n_outputs = record["n_classes"], record["n_outputs"]
    n_features = len(record["feature_names"])
    _require(
        n_classes >= 2 and (n_outputs == n_classes or (n_outputs == 1 and n_classes == 2)),
        f"{n_outputs} output(s) cannot score {n_classes} classes",
    )
    _require(len(record["base_score"]) == n_outputs, "base_score must hold one value per output")
    _require(len(record["feature_source"]) == n_features, "feature_source must name every feature")
    _require(
        record["n_numeric"] >= 0 and record["n_numeric"] + n_encoded == n_features,
        "n_numeric plus the encoded columns must equal the feature count",
    )
    _require(isinstance(record["trees"], list), "trees must be a list")
    for i, spec in enumerate(record["trees"]):
        check_fields(ObliviousTree, spec, DataError, f"model tree {i}")
        n_leaves = 2 ** len(spec["splits"])
        _require(0 <= spec["class_index"] < n_outputs, f"tree {i} class_index out of range")
        _require(all(0 <= f < n_features for f, _ in spec["splits"]), f"tree {i} split column out of range")
        _require(
            len(spec["leaf_values"]) == len(spec["leaf_cover"]) == n_leaves,
            f"tree {i} must hold {n_leaves} leaf values and covers",
        )
        _require(
            all(is_int(c) and 0 <= c < 2**63 for c in spec["leaf_cover"]),
            f"tree {i} leaf_cover must hold row counts",
        )

    trees = tuple(
        ObliviousTree(
            splits=tuple((f, float(t)) for f, t in spec["splits"]),
            leaf_values=np.array(spec["leaf_values"], dtype=np.float64),
            leaf_cover=np.array(spec["leaf_cover"], dtype=np.int64),
            class_index=spec["class_index"],
        )
        for spec in record["trees"]
    )
    return TreeEnsemble(
        n_classes=n_classes,
        n_outputs=n_outputs,
        base_score=np.array(record["base_score"], dtype=np.float64),
        learning_rate=record["learning_rate"],
        trees=trees,
        feature_names=tuple(record["feature_names"]),
        feature_source=tuple(record["feature_source"]),
        n_numeric=record["n_numeric"],
        ts_encoder=OrderedTsEncoder.from_dict(encoder) if encoder is not None else None,
        config=config,
        training_loss=tuple(record["training_loss"]),
    )
