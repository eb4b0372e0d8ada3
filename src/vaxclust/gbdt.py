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
per fit from one sort of the design, together with every row's bucket in
every column. Each tree level
scores every (feature, threshold) candidate from one gradient and one
hessian histogram over (occupied leaf, feature, bucket), as in LightGBM's
histogram method (Ke et al. 2017). The histogram has one row per leaf that
holds training rows rather than one for each of the 2^level leaves, so deep
trees stay small. Ties break to the lowest feature index, then the lowest
threshold, so training is bit-reproducible for a given (data, config, seed).

The models of several training sets boost together in one loop,
:func:`_boost`, over their concatenated rows: each round grows the trees of
every (class, model) in one grower call, whose histograms carry (tree,
occupied leaf) keys. A cell is one (year, k) cut's cross-validation, whose
fold models :func:`prepare_folds` prepares; :func:`fit_cells` boosts the
fold models of one cell, or of several cells that share a config and a
class count, such as every study year's cell of one k, in one loop; a run
boosts its cells in the batches of :func:`cell_batches`, whose leaf slots
stay under ``_BATCH_BUDGET``. Every tree's rows stay in place for the
whole round. Each level does its bookkeeping once for every tree of the
round: (tree, leaf) keys, leaf sums, scores before the split, occupied-leaf
ranks, one ``argmax`` over a shared gains table and one move of every row
to its new leaf. Only the dense histograms are scored in runs, blocks of
consecutive growing trees whose work arrays stay under ``_WORK_BUDGET``
cells, which bounds prediction's and SHAP's work arrays too; a tree that
stopped is in no run.
Each tree's arithmetic is the one it would do alone, so every model is bit
for bit the one :func:`fit` gives on its own rows, whichever cells and folds
it boosted with; :func:`fit` is the same loop over one training set.

A model keeps its trees as one :class:`Forest` of arrays: split columns
and thresholds per (tree, level), level counts and output indices per tree,
and all trees' leaf values and covers back to back, so a deep model holds
only the leaves its trees have. The grower writes each round's splits into
(round, tree, level) arrays and each model gathers its round's leaf tables
in one step; no per-tree object is built. Prediction finds every tree's
leaf with one gather per level, then sums each output's trees with one
``cumsum`` in model order, the additions of a tree-at-a-time loop.
:class:`ObliviousTree` is the per-tree record of the model document and of
the read-only ``TreeEnsemble.trees`` view.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .errors import (
    DataError,
    DegenerateLabels,
    FeatureArityMismatch,
    NonFiniteFeature,
    NonFiniteModel,
    TooFewRows,
)
from .rng import Rng, derive_seed
from .schema import check_fields, is_int, read_object

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
        if not 1 <= self.n_trees <= 10_000:  # 20x the default; the grower's tables scale with it
            raise ValueError("n_trees must be in 1..10000")
        if not 1 <= self.depth <= 16:
            raise ValueError("depth must be in 1..16")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if self.l2_leaf_reg < 0.0:
            raise ValueError("l2_leaf_reg must be >= 0")
        if self.ts_prior_weight <= 0.0:
            raise ValueError("ts_prior_weight must be > 0")
        if not 1 <= self.n_permutations <= 100:  # each fold model first draws this many shuffles
            raise ValueError("n_permutations must be in 1..100")
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
            entries = [feature_stats.get(c, (0, (0.0,) * width)) for c in seen.tolist()]
            count = np.array([entry[0] for entry in entries], dtype=np.int64)[:, None]
            sums = np.array([entry[1] for entry in entries], dtype=np.float64).reshape(seen.size, width)
            table = (sums + a * np.array(self.priors[f])) / (count + a)
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
    """One tree of a model, as the model document and per-tree readers see it."""

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
class Forest:
    """The trees of one model as read-only arrays, in model order.

    Tree t splits on column ``split_column[t, l]`` at ``split_threshold[t,
    l]`` for each of its ``n_levels[t]`` levels; past them the column is 0
    and the threshold +inf, which no value exceeds, so :meth:`leaves`, the
    one leaf lookup of prediction and SHAP, finds the leaves of any set of
    trees with one gather per level. The tree adds to output
    ``class_index[t]``, and its 2^n_levels[t] leaves are ``leaf_values`` and
    ``leaf_cover`` from ``leaf_offset[t]`` on: a deep model pays only for the
    leaves its trees have.
    """

    split_column: np.ndarray  # (tree, level) int64
    split_threshold: np.ndarray  # (tree, level) float64
    n_levels: np.ndarray  # (tree,) int64
    class_index: np.ndarray  # (tree,) int64
    leaf_values: np.ndarray  # (leaf,) float64
    leaf_cover: np.ndarray  # (leaf,) int64, training rows per leaf

    def __post_init__(self):
        for array in (self.split_column, self.split_threshold, self.n_levels, self.class_index,
                      self.leaf_values, self.leaf_cover):
            array.flags.writeable = False

    def __len__(self) -> int:
        return self.n_levels.size

    @property
    def leaf_offset(self) -> np.ndarray:
        """(tree + 1,) the first leaf of each tree, then the leaf count."""
        return np.concatenate([[0], np.cumsum(1 << self.n_levels)])

    def leaves(self, rows: np.ndarray, trees=slice(None)) -> np.ndarray:
        """(row, tree) leaf index of each design row in ``trees`` (a slice or
        an index array): bit l is set where the row went right at level l."""
        columns, thresholds = self.split_column[trees], self.split_threshold[trees]
        leaf = np.zeros((rows.shape[0], columns.shape[0]), dtype=np.int64)
        for level in range(int(self.n_levels[trees].max(initial=0))):
            leaf |= (rows[:, columns[:, level]] > thresholds[:, level]).astype(np.int64) << level
        return leaf

    @classmethod
    def of(cls, trees) -> "Forest":
        """The forest of :class:`ObliviousTree` records, in their order."""
        trees = tuple(trees)
        n_levels = np.array([tree.n_levels for tree in trees], dtype=np.int64)
        real = np.arange(n_levels.max(initial=0)) < n_levels[:, None]
        columns = np.zeros(real.shape, dtype=np.int64)
        thresholds = np.full(real.shape, np.inf)
        columns[real] = [f for tree in trees for f, _ in tree.splits]
        thresholds[real] = [x for tree in trees for _, x in tree.splits]
        values = [np.asarray(tree.leaf_values, dtype=np.float64) for tree in trees]
        cover = [np.asarray(tree.leaf_cover, dtype=np.int64) for tree in trees]
        return cls(
            split_column=columns,
            split_threshold=thresholds,
            n_levels=n_levels,
            class_index=np.array([tree.class_index for tree in trees], dtype=np.int64),
            leaf_values=np.concatenate([np.zeros(0), *values]),
            leaf_cover=np.concatenate([np.zeros(0, dtype=np.int64), *cover]),
        )


@dataclass(frozen=True)
class TreeEnsemble:
    n_classes: int
    n_outputs: int  # 1 for binary (positive-class log-odds), k for multiclass
    base_score: np.ndarray  # (n_outputs,)
    learning_rate: float
    forest: Forest
    feature_names: tuple[str, ...]  # design-matrix columns
    feature_source: tuple[str, ...]  # source feature per column (TS columns collapse)
    n_numeric: int
    ts_encoder: OrderedTsEncoder | None
    config: TrainConfig
    training_loss: tuple[float, ...] = field(default_factory=tuple)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    @property
    def trees(self) -> tuple[ObliviousTree, ...]:
        """The forest tree by tree, views of its arrays built on each read,
        for per-tree readers outside training, prediction and SHAP."""
        forest = self.forest
        offset = forest.leaf_offset.tolist()
        return tuple(
            ObliviousTree(
                splits=tuple(zip(columns[:levels], thresholds[:levels])),
                leaf_values=forest.leaf_values[offset[t] : offset[t + 1]],
                leaf_cover=forest.leaf_cover[offset[t] : offset[t + 1]],
                class_index=c,
            )
            for t, (columns, thresholds, levels, c) in enumerate(zip(
                forest.split_column.tolist(), forest.split_threshold.tolist(),
                forest.n_levels.tolist(), forest.class_index.tolist(),
            ))
        )

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


# Upper bound on the cells of one work array: prediction's (row, tree)
# values, a grower run's histograms, score tables, (row, column) keys and
# (tree, leaf) tables, and SHAP's (node, term, player) factors, (row, player)
# scatter entries and (tree, leaf, level) covers. Work goes in chunks under
# it, so batching trees, folds and rows does not grow these arrays: with
# unbounded grower runs, one 30-tree depth-6 round of a k=6 cell peaked at
# 12.8 MB. Swept over the grower with each level's bookkeeping done once
# (fit_cells over one call's cells, 40 alternations, median time over the
# grower that repeated it per run): 2^13, 2^14 and 2^15 took 0.81, 0.78 and
# 0.85 of it on paper-year, 0.85, 0.83 and 0.83 on small-areas, and 0.81,
# 0.81 and 0.94 on a 40-round paper-year. Larger SHAP chunks were no faster
# on the benchmark workloads and held more memory.
_WORK_BUDGET = 1 << 14


def _blocks(sizes, cap):
    """(begin, end) of consecutive items, in order, whose ``sizes`` sum to at
    most ``cap``: each block as long as fits and never empty, so an item
    larger than ``cap`` is a block of its own."""
    ends = np.cumsum(sizes)
    begin = 0
    while begin < ends.size:
        end = max(begin + 1, int(np.searchsorted(ends, ends[begin] - sizes[begin] + cap, "right")))
        yield begin, end
        begin = end


def margin_from_design(model: TreeEnsemble, design: np.ndarray) -> np.ndarray:
    """(n, n_outputs) additive margins over an already-encoded design matrix.

    Rows go in chunks of at most ``_WORK_BUDGET`` (row, tree) cells. A
    chunk reads every tree's shrunk leaf value through :meth:`Forest.leaves`;
    each output's margin is then the last of a ``cumsum`` over its base score
    and its trees' values in model order: the numbers and the order of adding
    one tree at a time.
    """
    design = np.atleast_2d(np.asarray(design, dtype=np.float64))
    if design.shape[1] != model.n_features:
        raise FeatureArityMismatch(
            f"expected {model.n_features} design columns, got {design.shape[1]}"
        )
    forest = model.forest
    offset = forest.leaf_offset[:-1]
    n_rows = design.shape[0]
    margins = np.empty((n_rows, model.n_outputs))
    step = max(1, _WORK_BUDGET // max(1, len(forest)))
    for begin in range(0, n_rows, step):
        rows = design[begin : begin + step]
        values = model.learning_rate * forest.leaf_values[offset + forest.leaves(rows)]
        for c, base in enumerate(model.base_score.tolist()):
            table = np.column_stack([np.full(rows.shape[0], base), values[:, forest.class_index == c]])
            margins[begin : begin + step, c] = np.cumsum(table, axis=1)[:, -1]
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


def _quantile_borders(design: np.ndarray) -> np.ndarray:
    """(quantile, column) ``np.quantile(design, _QUANTILES, axis=0,
    method="linear")`` from one sort: numpy's position (n - 1) q, its floor
    row a and the next row b, and its two-sided interpolation, a + (b - a) g
    below g = 0.5 and b - (b - a) (1 - g) from there. The bits are numpy's,
    but for the sign of a zero border in a column that holds both -0.0 and
    +0.0, which numpy's own partition leaves to chance.
    """
    n_rows = design.shape[0]
    ordered = np.sort(design, axis=0)
    position = (n_rows - 1) * _QUANTILES
    below = np.floor(position).astype(np.intp)
    gamma = (position - below)[:, None]
    a, b = ordered[below], ordered[np.minimum(below + 1, n_rows - 1)]
    step = b - a
    return np.where(gamma >= 0.5, b - step * (1 - gamma), a + step * gamma)


def _split_table(design: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row slots and per-column thresholds shared by every tree of a fit.

    ``thresholds[j, m]`` is the m-th quantile candidate of column j, padded
    with +inf to ``N_QUANTILE_BUCKETS`` slots (a column has at most 31
    candidates, none when constant). ``slots[i, j]`` is ``j *
    N_QUANTILE_BUCKETS`` plus the bucket of row i in column j, the number of
    candidates below its value (the +inf pads count for none), so the row
    falls left of ``thresholds[j, m]`` exactly when its bucket is <= m. Slots
    take the smallest unsigned type that holds them.
    """
    n_cols = design.shape[1]
    # each column's distinct borders in order, as np.unique keeps them
    borders = np.sort(_quantile_borders(design), axis=0).T
    distinct = np.ones(borders.shape, dtype=bool)
    distinct[:, 1:] = borders[:, 1:] != borders[:, :-1]
    thresholds = np.full((n_cols, N_QUANTILE_BUCKETS), np.inf)
    column, _ = np.nonzero(distinct)
    thresholds[column, np.cumsum(distinct, axis=1)[distinct] - 1] = borders[distinct]
    slots = (design[:, :, None] > thresholds).sum(axis=2) + np.arange(n_cols) * N_QUANTILE_BUCKETS
    return slots.astype(np.min_scalar_type(n_cols * N_QUANTILE_BUCKETS - 1)), thresholds


def _newton_score(squares: np.ndarray, denominators: np.ndarray) -> np.ndarray:
    """``squares / denominators``, 0 where a denominator is <= 0, written
    over ``squares`` (``denominators`` is overwritten too).

    A denominator <= 0 becomes +inf, and a finite square over +inf is +0.0:
    the result of the masked divide, from one plain one.
    """
    denominators[denominators <= 0] = np.inf
    squares /= denominators
    return squares


def _run_gains(slots, g_rows, h_rows, rank, g_occ, h_occ, base, leaf, bounds, n_leaves, lone, l2, out):
    """Write the gain of every flat (column, bucket) slot of one run's trees
    at one level to ``out``, their rows of the level's gains table.

    The run's rows belong to ``out.shape[0]`` consecutive trees, ``rank`` is
    a row's rank among the run's occupied (tree, leaf) pairs, and ``g_rows``
    and ``h_rows`` repeat the rows' g and h in the (row, column) order of
    ``slots``. Per occupied pair, ``leaf`` is its tree's index in the run
    times ``n_leaves`` plus its leaf, and ``g_occ`` and ``h_occ`` its g and h
    sums: tree i's are those from ``bounds[i] - bounds[0]`` up to
    ``bounds[i + 1] - bounds[0]``. ``base`` is each tree's score before the
    split. One g and one h ``bincount`` over (occupied pair, column, bucket)
    make the histograms, and a ``cumsum`` along the bucket axis gives the
    left sums of every candidate at once; an empty leaf adds nothing to a
    gain. A tree's gains sum its own leaves in leaf order, as when it grows
    alone: a reshape when every tree has as many occupied leaves, else a
    zero-padded (tree, leaf, column, bucket) table, since scores are >= +0.0
    and adding +0.0 changes none. ``lone`` marks each tree's one-candidate
    columns, or is None when there are none.
    """
    n_trees, width = out.shape
    n_cols = slots.shape[1]
    keys = (rank[:, None] * width + slots).ravel()
    shape = (leaf.size, n_cols, N_QUANTILE_BUCKETS)
    gl = np.bincount(keys, weights=g_rows, minlength=leaf.size * width).reshape(shape).cumsum(axis=2)
    hl = np.bincount(keys, weights=h_rows, minlength=leaf.size * width).reshape(shape).cumsum(axis=2)
    gr = g_occ[:, None, None] - gl
    hr = h_occ[:, None, None] - hl
    hl += l2
    hr += l2
    gl *= gl
    gr *= gr
    score = _newton_score(gl, hl)
    score += _newton_score(gr, hr)

    first, most = bounds[0], bounds[1] - bounds[0]
    if bounds == list(range(first, bounds[-1] + 1, most)):
        table = score.reshape(n_trees, most, n_cols, N_QUANTILE_BUCKETS)
    else:
        tree = leaf // n_leaves
        table = np.zeros((n_trees, max(e - f for f, e in zip(bounds, bounds[1:])), n_cols, N_QUANTILE_BUCKETS))
        table[tree, np.arange(first, bounds[-1]) - np.array(bounds)[tree]] = score
    np.subtract(table.sum(axis=1).reshape(n_trees, width), base[:, None], out=out)

    # Gains are those of scoring each column on its own (2^level, candidates)
    # table. numpy sums such a table leaf by leaf, as the occupied rows here
    # do, but a one-column table pairwise, which rounds differently; so a
    # column with one candidate has its gain summed pairwise over all leaves.
    if lone is not None:
        columns = np.flatnonzero(lone.any(axis=0))
        dense = np.zeros((n_trees, columns.size, n_leaves))
        dense[leaf // n_leaves, :, leaf % n_leaves] = score[:, columns, 0]
        tree, at = np.nonzero(lone[:, columns])
        out[tree, columns[at] * N_QUANTILE_BUCKETS] = dense.sum(axis=2)[tree, at] - base[tree]


def _grow_trees(slots, thresholds, sizes, grad, hess, depth, l2, split_slot):
    """Symmetric trees grown together, each by greedy level-wise splits that
    maximize its total Newton gain, bit for bit as if it grew alone.

    Tree b owns ``sizes[b]`` consecutive rows of ``slots``, ``grad`` and
    ``hess``, and row b of ``thresholds``: its split table from
    :func:`_split_table`, flattened to (column, bucket) slots, whose +inf
    slots hold no candidate. A tree's rows stay in place for the whole call.
    Each level is one pass over every tree: it keys each row by its (tree,
    leaf), sums g and h per key, takes each tree's score before the split
    and ranks the occupied keys; then the trees still growing fill their
    rows of one (tree, slot) gains table in runs, blocks of consecutive
    growing trees whose work arrays stay under ``_WORK_BUDGET`` cells
    (:func:`_run_gains`); and one ``argmax`` picks every tree's split, lowest
    column then lowest threshold on ties, and one pass moves every row to
    its new leaf. A tree whose best split gains no more than the minimum
    stops: later levels leave its rows in place and score it in no run.
    Newton scores are plain divides (:func:`_newton_score`).
    Writes the flat (column, bucket) slot of tree b's split at each level
    to ``split_slot[b, level]``, which keeps -1 past its last split, and
    returns the trees' leaf values and leaf covers, tree after tree as in a
    :class:`Forest`, and each row's leaf value.
    """
    n_trees, width = thresholds.shape
    n_cols = slots.shape[1]
    padded = np.isinf(thresholds)  # slots with no candidate
    lone = padded.reshape(n_trees, n_cols, N_QUANTILE_BUCKETS).sum(axis=2) == N_QUANTILE_BUCKETS - 1
    has_lone = lone.any(axis=1).tolist()  # trees with a one-candidate column
    padded = np.flatnonzero(padded)  # as flat indices into a level's gains
    tree_of_row = np.repeat(np.arange(n_trees), sizes)
    leaf_idx = np.zeros(grad.size, dtype=np.int64)
    g_rows, h_rows = np.repeat(grad, n_cols), np.repeat(hess, n_cols)
    starts = [0, *itertools.accumulate(sizes)]
    rows_most = max(sizes)
    growing = np.ones(n_trees, dtype=bool)
    trees = np.arange(n_trees)
    row_cells = np.arange(grad.size) * n_cols  # each row's first cell of ``slots``
    for level in range(depth):
        n_leaves = 1 << level
        key = (tree_of_row << level) | leaf_idx
        g_leaf = np.bincount(key, weights=grad, minlength=n_trees << level)
        h_leaf = np.bincount(key, weights=hess, minlength=n_trees << level)
        base = _newton_score(g_leaf * g_leaf, h_leaf + l2).reshape(n_trees, n_leaves).sum(axis=1)
        filled = np.bincount(key, minlength=n_trees << level) > 0
        ranks = filled.cumsum()
        occupied = filled.nonzero()[0]
        rank = ranks[key]  # one more than each row's rank among the occupied pairs
        g_occ, h_occ = g_leaf[occupied], h_leaf[occupied]
        firsts = [0, *ranks[n_leaves - 1 :: n_leaves].tolist()]  # occupied pairs before each tree

        cost = max(min(rows_most, n_leaves) * width, rows_most * n_cols, n_leaves)
        step = max(1, _WORK_BUDGET // cost)  # trees per run
        runs: list[list[int]] = []
        for t in growing.nonzero()[0].tolist():
            if runs and runs[-1][1] == t and t - runs[-1][0] < step:
                runs[-1][1] = t + 1
            else:
                runs.append([t, t + 1])
        gains = np.empty((n_trees, width))  # no run writes a stopped tree's row
        for a, b in runs:
            r0, r1, o0, o1 = starts[a], starts[b], firsts[a], firsts[b]
            _run_gains(
                slots[r0:r1], g_rows[r0 * n_cols : r1 * n_cols], h_rows[r0 * n_cols : r1 * n_cols],
                rank[r0:r1] - (o0 + 1), g_occ[o0:o1], h_occ[o0:o1], base[a:b], occupied[o0:o1] - (a << level),
                firsts[a : b + 1], n_leaves, lone[a:b] if any(has_lone[a:b]) else None, l2, gains[a:b],
            )
        gains.put(padded, -np.inf)
        best = gains.argmax(axis=1)
        growing &= gains[trees, best] > _MIN_SPLIT_GAIN
        split_slot[growing, level] = best[growing]
        # a stopped tree's rows stay put: no slot of a column exceeds its last
        limit = np.where(growing, best, best | (N_QUANTILE_BUCKETS - 1))[tree_of_row]
        leaf_idx |= (slots.take(row_cells + limit // N_QUANTILE_BUCKETS) > limit) << level
        if not growing.any():
            break

    offsets = np.concatenate([[0], np.cumsum(1 << np.count_nonzero(split_slot >= 0, axis=1))])
    key = offsets[tree_of_row] + leaf_idx
    g_leaf = np.bincount(key, weights=grad, minlength=offsets[-1])
    h_leaf = np.bincount(key, weights=hess, minlength=offsets[-1])
    cover = np.bincount(key, minlength=offsets[-1])
    denom = h_leaf + l2
    values = np.where(denom > 0, -np.divide(g_leaf, denom, out=np.zeros_like(denom), where=denom > 0), 0.0)
    return values, cover, values[key]


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
        forest=Forest.of(()),
        feature_names=tuple(feature_names),
        feature_source=tuple(feature_source),
        n_numeric=numeric.shape[1],
        ts_encoder=encoder,
        config=replace(config, loss=loss),
    )
    return model, design, labels


# a model that diverges (its leaf values and margins overflow) trains on
# quietly; check_fitted refuses it before any prediction or SHAP
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _boost(untrained) -> list[TreeEnsemble]:
    """The trained models of (model, design, labels) triples from
    :func:`_prepare` that share every setting but the seed.

    One loop boosts them all over their concatenated rows: a round grows the
    tree of every (class, model) in one :func:`_grow_trees` call, from the
    round-start probabilities. Sigmoid and softmax are row-wise, and each
    model's loss is the mean over its own rows, so every model is the one it
    would be alone. The grower writes every round's split slots into one
    (round, tree, level) array, each model takes its leaf tables from the
    round in one gather, and the split columns and thresholds of every
    :class:`Forest` come from the slots in one pass after the last round.
    """
    first = untrained[0][0]
    config, n_outputs, n_models = first.config, first.n_outputs, len(untrained)
    sizes = [y.size for _, _, y in untrained]
    bounds = [0, *itertools.accumulate(sizes)]
    tables = [_split_table(design) for _, design, _ in untrained]
    # round tree b is class b // n_models of model b % n_models, on that model's rows
    slots = np.concatenate([s for s, _ in tables] * n_outputs)
    thresholds = np.stack([t.ravel() for _, t in tables] * n_outputs)
    n_trees = n_outputs * n_models
    split_slot = np.full((config.n_trees, n_trees, config.depth), -1, dtype=np.int64)

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
    leaves: list[list[tuple[np.ndarray, np.ndarray]]] = [[] for _ in range(n_models)]
    losses: list[list[float]] = [[] for _ in range(n_models)]
    lr = config.learning_rate

    for r in range(config.n_trees):
        grad = (p - targets).T.ravel()
        hess = (p * (1.0 - p)).T.ravel()
        values, cover, row_values = _grow_trees(
            slots, thresholds, sizes * n_outputs, grad, hess, config.depth, config.l2_leaf_reg, split_slot[r]
        )
        # each model owns its leaf tables: views into the round's would keep
        # every model's leaves alive until the last model is built
        counts = 1 << np.count_nonzero(split_slot[r] >= 0, axis=1)
        starts = np.cumsum(counts) - counts
        for f in range(n_models):
            mine = counts[f::n_models]
            at = np.repeat(starts[f::n_models] - (np.cumsum(mine) - mine), mine) + np.arange(mine.sum())
            leaves[f].append((values[at], cover[at]))
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

    split = split_slot >= 0
    n_levels = split.sum(axis=2)
    split_column = np.where(split, split_slot // N_QUANTILE_BUCKETS, 0)
    split_threshold = np.where(split, thresholds[np.arange(n_trees)[:, None], split_slot], np.inf)
    models = []
    for f, (model, _, _) in enumerate(untrained):
        levels = n_levels[:, f::n_models].ravel()  # round by round, class by class
        width = int(levels.max())
        model_values, model_cover = zip(*leaves[f])
        leaves[f] = []
        forest = Forest(
            split_column=split_column[:, f::n_models, :width].reshape(levels.size, width),
            split_threshold=split_threshold[:, f::n_models, :width].reshape(levels.size, width),
            n_levels=levels,
            class_index=np.tile(np.arange(n_outputs), config.n_trees),
            leaf_values=np.concatenate(model_values),
            leaf_cover=np.concatenate(model_cover),
        )
        models.append(replace(model, forest=forest, training_loss=tuple(losses[f])))
    return models


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
    model = _boost([_prepare(numeric, categorical, labels, config, numeric_names, categorical_names)])[0]
    return check_fitted(model)


def check_fitted(model: TreeEnsemble) -> TreeEnsemble:
    """``model``, unless its boosting diverged: :class:`NonFiniteModel` when
    a training loss is not finite or the model breaks the bound that
    :func:`from_json` holds a loaded model to (:func:`_magnitude_problem`)."""
    problem = _magnitude_problem(model.forest, model.base_score, model.learning_rate, model.n_outputs)
    if not np.all(np.isfinite(model.training_loss)):
        problem = "a training loss is not finite"
    if problem:
        raise NonFiniteModel(f"boosting diverged: {problem}")
    return model


def prepare_folds(
    numeric: np.ndarray,
    categorical: np.ndarray | None,
    labels: np.ndarray,
    folds: np.ndarray,
    config: TrainConfig,
    numeric_names=None,
    categorical_names=None,
) -> list:
    """One cell's fold models before any tree grows, for :func:`fit_cells`:
    model f trains on the rows whose fold is not f, with seed ``config.seed
    ^ f``.

    Every fold's training rows must hold every class of ``labels``, else
    :class:`DegenerateLabels` is raised.
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
    return [
        _prepare(
            numeric[train],
            None if categorical is None else np.asarray(categorical)[train],
            labels[train],
            replace(config, seed=config.seed ^ fold),
            numeric_names,
            categorical_names,
        )
        for fold, train in enumerate(trains)
    ]


# Upper bound on the leaf slots (models x rounds x outputs x 2^depth) of the
# cells that one :func:`fit_cells` call of a run boosts together
# (:func:`cell_batches`). A cell's trees live until it is analysed, so a
# batch holds every one of its cells' models at once: unbounded, a run of
# three 500-round k=6 cells of 150 districts (960,000 slots each) peaked at
# 160.6 MB RSS against 97-99 MB one cell at a time. A cell of 5 folds, 20
# rounds, one output and depth 6 has 6,400.
_BATCH_BUDGET = 1 << 18


def _leaf_slots(cell) -> int:
    model = cell[0][0]
    return len(cell) * model.config.n_trees * model.n_outputs << model.config.depth


def cell_batches(cells):
    """(begin, end) of each batch of consecutive ``cells`` (lists of
    :func:`prepare_folds` models) for :func:`fit_cells`: as many cells as
    their leaf slots keep within ``_BATCH_BUDGET``, and a cell over it alone."""
    return _blocks([_leaf_slots(cell) for cell in cells], _BATCH_BUDGET)


def fit_cells(cells) -> list[list[TreeEnsemble]]:
    """Each cell's trained fold models, in order, from one or more cells of
    :func:`prepare_folds` models that share every setting but the seed (one
    config, one class count), boosted together in one :func:`_boost` loop.
    Every model is bit for bit the one :func:`fit` gives on its rows.
    """
    models = iter(_boost([model for cell in cells for model in cell]))
    return [list(itertools.islice(models, len(cell))) for cell in cells]


_DOCUMENT_FORMAT = {"format_version": 1, "model_type": "oblivious_gbdt"}


def to_json(model: TreeEnsemble) -> str:
    """Self-describing JSON document of the dataclass fields, ``ts_encoder``
    under ``encoder`` and the forest as ``trees``, one :class:`ObliviousTree`
    record each; floats round-trip exactly via repr."""
    doc = {**_DOCUMENT_FORMAT, **{f.name: getattr(model, f.name) for f in fields(model) if f.name != "forest"}}
    doc["trees"] = [asdict(tree) for tree in model.trees]
    doc["config"] = asdict(model.config)
    encoder = doc.pop("ts_encoder")
    doc["encoder"] = None if encoder is None else {  # string category keys sort as text: "10" < "9"
        **asdict(encoder), "stats": [{str(c): entry for c, entry in fs.items()} for fs in encoder.stats]
    }
    return json.dumps(doc, sort_keys=True, indent=2, default=lambda a: a.tolist())


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise DataError(f"model document: {message}")


# Largest margin, and largest cover-weighted leaf sum of a tree, that a model
# file may imply: prediction and SHAP add and scale such numbers, and 1e300
# leaves them room below the largest double (1.8e308).
_MAX_MAGNITUDE = 1e300
# Largest training-row count of a tree's leaf covers: exact as a double, and
# its integer sums cannot wrap.
_MAX_COVER = 1 << 53


def _magnitude_problem(forest: Forest, base: np.ndarray, learning_rate: float, n_outputs: int) -> str:
    """The first bound the model breaks, or "" when every sum that
    prediction and SHAP take over it stays finite: per output, |base| plus
    each of its trees' largest |learning_rate x leaf value| is at most
    ``_MAX_MAGNITUDE``, and per tree the covers sum below ``_MAX_COVER`` and
    the largest shrunk leaf times that sum is at most ``_MAX_MAGNITUDE``."""
    firsts = forest.leaf_offset[:-1]
    largest = np.maximum.reduceat(np.abs(learning_rate * forest.leaf_values), firsts)
    covered = np.add.reduceat(forest.leaf_cover.astype(np.float64), firsts)
    with np.errstate(over="ignore"):  # a sum past the largest double is inf, and fails
        reach = np.abs(base) + np.bincount(forest.class_index, weights=largest, minlength=n_outputs)
        weighted = largest * covered
    if not np.all(covered < _MAX_COVER):
        return f"a tree's leaf_cover must sum below {_MAX_COVER}"
    if not np.all(reach <= _MAX_MAGNITUDE):
        return f"base_score and shrunk leaf values must keep every margin within {_MAX_MAGNITUDE:g}"
    if not np.all(weighted <= _MAX_MAGNITUDE):
        return f"shrunk leaf values and covers must keep every cover-weighted leaf sum within {_MAX_MAGNITUDE:g}"
    return ""


def from_json(text: str | bytes) -> TreeEnsemble:
    """The model a :func:`to_json` document describes.

    Keys and JSON types are those of the dataclass fields (the document's
    ``encoder`` holds ``ts_encoder``), and the shapes must agree: one base
    score per output, one leaf value and cover per leaf of each tree, split
    columns and class indices in range, at least one training row covered
    by each tree, the config's learning rate at the top level and its
    target-statistic prior weight in the encoder, whose counts count rows; the
    magnitudes must keep every margin and SHAP sum finite
    (:func:`_magnitude_problem`). Anything else is a DataError.
    """
    doc = read_object(text, DataError, "model")
    _require(all(doc.get(k) == v for k, v in _DOCUMENT_FORMAT.items()), f"not a {_DOCUMENT_FORMAT} document")
    names = {"encoder": "ts_encoder", "trees": "forest"}
    record = {names.get(k, k): v for k, v in doc.items() if k not in _DOCUMENT_FORMAT}
    check_fields(TreeEnsemble, record, DataError, "model", nested={"forest", "ts_encoder", "config"})
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
        # a category encodes as (sum + w prior) / (count + w): w > 0 and
        # count >= 0 keep the divisor positive
        _require(encoder["prior_weight"] == config.ts_prior_weight, "encoder prior_weight must be the config's")
        _require(
            all(0 <= v[0] < 2**63 for fs in encoder["stats"] for v in fs.values()),
            "encoder stats must hold row counts",
        )
        n_encoded = n_cat * width

    n_classes, n_outputs = record["n_classes"], record["n_outputs"]
    n_features = len(record["feature_names"])
    _require(
        n_classes >= 2 and (n_outputs == n_classes or (n_outputs == 1 and n_classes == 2)),
        f"{n_outputs} output(s) cannot score {n_classes} classes",
    )
    _require(len(record["base_score"]) == n_outputs, "base_score must hold one value per output")
    _require(record["learning_rate"] == config.learning_rate, "learning_rate must be the config's")
    _require(len(record["feature_source"]) == n_features, "feature_source must name every feature")
    _require(
        record["n_numeric"] >= 0 and record["n_numeric"] + n_encoded == n_features,
        "n_numeric plus the encoded columns must equal the feature count",
    )
    _require(isinstance(record["forest"], list), "trees must be a list")
    for i, spec in enumerate(record["forest"]):
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
        _require(any(spec["leaf_cover"]), f"tree {i} leaf_cover must count some training rows")

    forest = Forest.of(
        ObliviousTree(
            splits=tuple((f, float(t)) for f, t in spec["splits"]),
            leaf_values=spec["leaf_values"],
            leaf_cover=spec["leaf_cover"],
            class_index=spec["class_index"],
        )
        for spec in record["forest"]
    )
    base = np.array(record["base_score"], dtype=np.float64)
    problem = _magnitude_problem(forest, base, config.learning_rate, n_outputs)
    _require(not problem, problem)
    return TreeEnsemble(
        n_classes=n_classes,
        n_outputs=n_outputs,
        base_score=base,
        learning_rate=record["learning_rate"],
        forest=forest,
        feature_names=tuple(record["feature_names"]),
        feature_source=tuple(record["feature_source"]),
        n_numeric=record["n_numeric"],
        ts_encoder=OrderedTsEncoder.from_dict(encoder) if encoder is not None else None,
        config=config,
        training_loss=tuple(record["training_loss"]),
    )
