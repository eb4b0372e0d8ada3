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
"""

from __future__ import annotations

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


def encode_ordered_ts(categories, targets, permutation, prior_weight: float, prior: float) -> np.ndarray:
    """Ordered target-statistic encoding of one categorical column.

    The row at permutation position j is encoded from the targets of
    same-category rows at positions strictly before j:

        (prefix_sum + prior_weight * prior) / (prefix_count + prior_weight)

    so the first occurrence of any category encodes to the prior exactly.
    Each category's prefix sums are one ``cumsum`` in permutation order, the
    same additions as a running total.
    """
    permutation = np.asarray(permutation)
    categories = np.asarray(categories).astype(np.int64)[permutation]
    targets = np.asarray(targets, dtype=np.float64)[permutation]
    out = np.empty(len(categories), dtype=np.float64)
    for c in np.unique(categories):
        at = categories == c
        prefix_sum = np.concatenate(([0.0], np.cumsum(targets[at])[:-1]))
        prefix_count = np.arange(prefix_sum.size)
        out[permutation[at]] = (prefix_sum + prior_weight * prior) / (prefix_count + prior_weight)
    return out


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
            components = [(labels == 1).astype(np.float64)]
            component_names = ("",)
        else:
            components = [(labels == c).astype(np.float64) for c in range(n_classes)]
            component_names = tuple(f"class{c}" for c in range(n_classes))
        priors = (tuple(float(t.mean()) for t in components),) * d_cat  # global, same per feature

        permutations = [
            Rng(derive_seed(config.seed, 0xC47, p)).permutation(n)
            for p in range(config.n_permutations)
        ]

        stats = []
        train_cols = np.empty((n, d_cat * len(components)), dtype=np.float64)
        col = 0
        for f in range(d_cat):
            feature_stats: dict[int, tuple[int, tuple[float, ...]]] = {}
            for c in np.unique(categories[:, f]):
                mask = categories[:, f] == c
                feature_stats[int(c)] = (
                    int(mask.sum()),
                    tuple(float(t[mask].sum()) for t in components),
                )
            stats.append(feature_stats)
            for comp_idx, t in enumerate(components):
                prior = priors[f][comp_idx]
                encoded = np.zeros(n, dtype=np.float64)
                for perm in permutations:
                    encoded += encode_ordered_ts(
                        categories[:, f], t, perm, config.ts_prior_weight, prior
                    )
                train_cols[:, col] = encoded / len(permutations)
                col += 1

        if feature_names is None:
            feature_names = [f"cat{f}" for f in range(d_cat)]
        encoder = cls(
            feature_names=tuple(feature_names),
            n_components=len(components),
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
    exactly when its bucket is <= m.
    """
    n_rows, n_cols = design.shape
    thresholds = np.full((n_cols, N_QUANTILE_BUCKETS), np.inf)
    slots = np.empty((n_rows, n_cols), dtype=np.int64)
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


def _grow_oblivious_tree(slots, thresholds, grad, hess, depth, l2):
    """One symmetric tree; greedy level-wise split maximizing total Newton gain.

    ``slots`` and ``thresholds`` come from :func:`_split_table`. Each level
    builds the g and the h histogram over (occupied leaf, column, bucket)
    with one ``bincount`` each; a ``cumsum`` along the bucket axis gives the
    left sums of every candidate at once, and one flattened ``argmax`` over
    the (column, slot) gains picks the split, ties going to the lowest
    column, then the lowest threshold. Only leaves that hold rows get
    histogram rows, as an empty leaf adds nothing to a gain, so a deep tree
    on few rows builds no 2^level table; a row's histogram row is its leaf's
    rank among the occupied leaves, from a ``bincount`` and a ``cumsum``.
    Newton scores are plain divides (:func:`_newton_score`). Returns splits
    and per-leaf (value, cover) tables; stops early when no split gains more
    than the minimum threshold.
    """
    n, n_cols = slots.shape
    width = thresholds.size
    padded = np.isinf(thresholds)
    # Gains are those of scoring each column on its own (2^level, candidates)
    # table. numpy sums such a table leaf by leaf, as the occupied rows here
    # do, but a one-column table pairwise, which rounds differently; so a
    # column with one candidate has its gain summed pairwise over all leaves.
    lone = np.flatnonzero(padded.sum(axis=1) == N_QUANTILE_BUCKETS - 1)
    g_rows = np.repeat(grad, n_cols)  # weights in the (row, column) order of slots
    h_rows = np.repeat(hess, n_cols)
    leaf_idx = np.zeros(n, dtype=np.int64)
    splits: list[tuple[int, float]] = []

    for level in range(depth):
        n_leaves = 1 << level
        g_leaf = np.bincount(leaf_idx, weights=grad, minlength=n_leaves)
        h_leaf = np.bincount(leaf_idx, weights=hess, minlength=n_leaves)
        base = np.sum(_newton_score(g_leaf * g_leaf, h_leaf + l2))

        leaf_rows = np.bincount(leaf_idx, minlength=n_leaves)
        occupied = np.flatnonzero(leaf_rows)
        row_leaf = (np.cumsum(leaf_rows > 0) - 1)[leaf_idx]  # each row's rank among occupied leaves
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
        gains = score.sum(axis=0) - base  # (column, slot)
        if lone.size:
            dense = np.zeros((lone.size, n_leaves))
            dense[:, occupied] = score[:, lone, 0].T
            gains[lone, 0] = dense.sum(axis=1) - base
        gains[padded] = -np.inf
        best = int(np.argmax(gains))
        if not gains.flat[best] > _MIN_SPLIT_GAIN:
            break
        j = best // N_QUANTILE_BUCKETS
        splits.append((j, float(thresholds.flat[best])))
        leaf_idx |= (slots[:, j] > best).astype(np.int64) << level

    n_leaves = 1 << len(splits)
    g_leaf = np.bincount(leaf_idx, weights=grad, minlength=n_leaves)
    h_leaf = np.bincount(leaf_idx, weights=hess, minlength=n_leaves)
    cover = np.bincount(leaf_idx, minlength=n_leaves)
    denom = h_leaf + l2
    values = np.where(denom > 0, -np.divide(g_leaf, denom, out=np.zeros_like(denom), where=denom > 0), 0.0)
    return splits, values, cover, leaf_idx


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

    slots, thresholds = _split_table(design)

    n_outputs = 1 if loss == "binary_logistic" else n_classes
    counts = np.bincount(labels, minlength=n_classes).astype(np.float64)
    if n_outputs == 1:
        base = np.array([np.log(counts[1] / counts[0])])
        targets = (labels == 1)[:, None].astype(np.float64)
        probabilities = _sigmoid
    else:
        base = np.log(counts / n)
        targets = np.eye(n_classes)[labels]
        probabilities = _softmax

    margins = np.tile(base, (n, 1))
    p = probabilities(margins)
    trees: list[ObliviousTree] = []
    losses: list[float] = []
    lr = config.learning_rate

    for _ in range(config.n_trees):
        for c in range(n_outputs):
            grad = p[:, c] - targets[:, c]
            hess = p[:, c] * (1.0 - p[:, c])
            splits, values, cover, leaf_idx = _grow_oblivious_tree(
                slots, thresholds, grad, hess, config.depth, config.l2_leaf_reg
            )
            trees.append(
                ObliviousTree(splits=tuple(splits), leaf_values=values, leaf_cover=cover, class_index=c)
            )
            margins[:, c] += lr * values[leaf_idx]
        p = probabilities(margins)
        if n_outputs == 1:
            y = targets[:, 0]
            q = np.clip(p[:, 0], 1e-15, 1.0 - 1e-15)
            losses.append(float(-np.mean(y * np.log(q) + (1.0 - y) * np.log(1.0 - q))))
        else:
            losses.append(float(-np.mean(np.log(np.clip(p[np.arange(n), labels], 1e-15, None)))))

    return TreeEnsemble(
        n_classes=n_classes,
        n_outputs=n_outputs,
        base_score=base,
        learning_rate=lr,
        trees=tuple(trees),
        feature_names=tuple(feature_names),
        feature_source=tuple(feature_source),
        n_numeric=numeric.shape[1],
        ts_encoder=encoder,
        config=replace(config, loss=loss),
        training_loss=tuple(losses),
    )


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
