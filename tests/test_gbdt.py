from __future__ import annotations

import itertools
import json
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_oblivious_model
from vaxclust import gbdt, shapley
from vaxclust.errors import DataError, DegenerateLabels, FeatureArityMismatch, NonFiniteFeature
from vaxclust.evaluation import stratified_folds
from vaxclust.gbdt import Forest, ObliviousTree, TrainConfig, TreeEnsemble, encode_ordered_ts
from vaxclust.rng import Rng, derive_seed


def test_encode_ordered_ts_prefix_formula():
    out = encode_ordered_ts([0, 0, 0], [1.0, 0.0, 1.0], [0, 1, 2], 1.0, 0.5)
    assert out.tolist() == [0.5, 0.75, 0.5]


def test_encode_ordered_ts_first_row_gets_prior():
    out = encode_ordered_ts([3, 3, 3], [1.0, 1.0, 0.0], [2, 0, 1], 2.0, 0.25)
    assert out[2] == 0.25  # first position in the permutation


def test_encode_ordered_ts_respects_permutation_positions():
    # permutation [1, 0]: row 1 encodes first (prior), row 0 sees row 1's target
    out = encode_ordered_ts([0, 0], [0.0, 1.0], [1, 0], 1.0, 0.5)
    assert out[1] == 0.5
    assert out[0] == (1.0 + 0.5) / 2.0


def test_encoder_unseen_category_encodes_to_prior():
    labels = np.array([0, 1, 0, 1])
    cats = np.array([[1], [1], [2], [2]])
    encoder, _ = gbdt.OrderedTsEncoder.fit(cats, labels, 2, TrainConfig(seed=0))
    encoded = encoder.encode(np.array([[9]]))
    assert encoded[0, 0] == pytest.approx(0.5)  # prior = mean target


def test_ordered_ts_leakage_guard():
    # changing a later target must not move earlier encodings
    cats = [0, 0, 0, 0]
    perm = [0, 1, 2, 3]
    base = encode_ordered_ts(cats, [1.0, 0.0, 1.0, 0.0], perm, 1.0, 0.5)
    bumped = encode_ordered_ts(cats, [1.0, 0.0, 1.0, 1.0], perm, 1.0, 0.5)
    assert base[:3].tolist() == bumped[:3].tolist()


def test_fit_rejects_degenerate_labels(rng):
    X = rng.normal(size=(20, 3))
    with pytest.raises(DegenerateLabels):
        gbdt.fit(X, None, np.zeros(20, dtype=int), TrainConfig(n_trees=2))


def test_fit_rejects_nonfinite(rng):
    X = rng.normal(size=(20, 3))
    X[4, 1] = np.inf
    with pytest.raises(NonFiniteFeature):
        gbdt.fit(X, None, np.arange(20) % 2, TrainConfig(n_trees=2))


def _separable_data(rng, n=200):
    # class boundary exactly between order statistics 99 and 100, so a
    # 32-bucket quantile border is guaranteed to land inside the gap
    low = rng.uniform(0.0, 0.45, size=n // 2)
    high = rng.uniform(0.55, 1.0, size=n // 2)
    x0 = np.concatenate([low, high])
    x1 = rng.uniform(size=n)
    X = np.column_stack([x0, x1])
    y = (x0 > 0.5).astype(int)
    order = rng.permutation(n)
    return X[order], y[order]


def test_training_accuracy_reaches_one_on_separable_data(rng):
    X, y = _separable_data(rng)
    model = gbdt.fit(X, None, y, TrainConfig(n_trees=50, depth=3, seed=1))
    assert (gbdt.predict_class(model, X) == y).mean() == 1.0


def test_training_logloss_non_increasing(rng):
    for trial in range(5):
        X = rng.normal(size=(60, 4))
        y = (X[:, 0] + 0.3 * rng.normal(size=60) > 0).astype(int)
        model = gbdt.fit(X, None, y, TrainConfig(n_trees=40, depth=4, seed=trial))
        losses = model.training_loss
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))


def test_training_logloss_non_increasing_multiclass(rng):
    X = rng.normal(size=(90, 4))
    y = (X[:, 0] > 0).astype(int) + (X[:, 1] > 0.3).astype(int)
    model = gbdt.fit(X, None, y, TrainConfig(n_trees=30, depth=3, seed=2))
    losses = model.training_loss
    assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))


def _manual_tree(splits, values, cover, class_index=0):
    return ObliviousTree(
        splits=tuple(splits),
        leaf_values=np.asarray(values, dtype=np.float64),
        leaf_cover=np.asarray(cover, dtype=np.int64),
        class_index=class_index,
    )


def _manual_ensemble(trees, base, lr=0.5, n_features=2, n_classes=2):
    n_outputs = 1 if n_classes == 2 else n_classes
    return TreeEnsemble(
        n_classes=n_classes,
        n_outputs=n_outputs,
        base_score=np.asarray(base, dtype=np.float64),
        learning_rate=lr,
        forest=Forest.of(trees),
        feature_names=tuple(f"f{j}" for j in range(n_features)),
        feature_source=tuple(f"f{j}" for j in range(n_features)),
        n_numeric=n_features,
        ts_encoder=None,
        config=TrainConfig(),
    )


def test_predict_margin_empty_ensemble_is_base():
    model = _manual_ensemble([], base=[0.7])
    assert gbdt.predict_margin(model, np.array([[1.0, 2.0]]))[0, 0] == 0.7


@pytest.mark.parametrize("n_classes", [2, 3])
def test_fit_without_any_split_predicts_base_margins(n_classes):
    # constant features leave every tree a single leaf: a forest of 0 levels
    X = np.ones((20, 3))
    model = gbdt.fit(X, None, np.arange(20) % n_classes, TrainConfig(n_trees=3))
    assert model.forest.split_column.shape == (3 * model.n_outputs, 0)
    assert not model.forest.n_levels.any()
    margins = gbdt.predict_margin(model, X)
    assert np.allclose(margins, model.base_score, rtol=0, atol=1e-12)
    text = gbdt.to_json(model)
    assert gbdt.to_json(gbdt.from_json(text)) == text
    assert np.array_equal(gbdt.predict_margin(gbdt.from_json(text), X), margins)
    assert not shapley.TreeShapExplainer(model).explain(X).any()


def test_predict_margin_single_tree_hand_evaluation():
    tree = _manual_tree([(0, 0.5)], values=[-2.0, 3.0], cover=[4, 6])
    model = _manual_ensemble([tree], base=[0.1], lr=0.5)
    # x0 = 0.2 <= 0.5 -> leaf 0; margin = 0.1 + 0.5 * (-2.0)
    assert gbdt.predict_margin(model, np.array([[0.2, 9.9]]))[0, 0] == pytest.approx(-0.9)
    # boundary goes left: bit set only when strictly greater
    assert gbdt.predict_margin(model, np.array([[0.5, 0.0]]))[0, 0] == pytest.approx(-0.9)
    assert gbdt.predict_margin(model, np.array([[0.6, 0.0]]))[0, 0] == pytest.approx(0.1 + 0.5 * 3.0)


def test_margin_equals_sum_of_tree_evaluations(rng):
    X = rng.normal(size=(50, 5))
    y = (X[:, 1] > 0).astype(int)
    model = gbdt.fit(X, None, y, TrainConfig(n_trees=25, depth=3, seed=3))
    margins = gbdt.predict_margin(model, X)[:, 0]
    manual = np.full(50, model.base_score[0])
    for tree in model.trees:
        manual += model.learning_rate * tree.leaf_values[tree.leaf_indices(X)]
    assert np.abs(margins - manual).max() < 1e-12


def _per_tree_margin(model, design):
    """The per-tree loop ``margin_from_design`` replaced, kept as the reference."""
    margins = np.tile(model.base_score, (design.shape[0], 1))
    for tree in model.trees:
        margins[:, tree.class_index] += model.learning_rate * tree.leaf_values[tree.leaf_indices(design)]
    return margins


def test_margin_matches_per_tree_loop_bit_for_bit(rng, monkeypatch):
    # random models of any tree count, their trees also in shuffled class
    # order, and trained k=2/3/6 models; then chunks of one row
    cases = []
    for trial in range(30):
        k = (2, 3, 6)[trial % 3]
        model = random_oblivious_model(rng, n_features=4, n_classes=k, max_trees=20, max_depth=7)
        trees = model.trees
        shuffled = replace(model, forest=Forest.of(trees[i] for i in rng.permutation(len(trees))))
        cases += [(model, rng.normal(size=(25, 4))), (shuffled, rng.normal(size=(25, 4)))]
    X = rng.normal(size=(60, 4))
    for k in (2, 3, 6):
        cases.append((gbdt.fit(X, None, np.arange(60) % k, TrainConfig(n_trees=7, depth=4, seed=k)), X))
    assert len({len(m.forest) % m.n_outputs for m, _ in cases}) > 1
    for model, design in cases:
        assert gbdt.margin_from_design(model, design).tobytes() == _per_tree_margin(model, design).tobytes()
    monkeypatch.setattr(gbdt, "_WORK_BUDGET", 1)
    for model, design in cases[::7]:
        assert gbdt.margin_from_design(model, design).tobytes() == _per_tree_margin(model, design).tobytes()


def test_forest_leaves_match_each_trees_leaf_indices(rng):
    # zero-level trees among them; all trees, a slice and an index array
    zero_level = 0
    for trial in range(20):
        model = random_oblivious_model(rng, n_features=4, n_classes=(2, 3, 6)[trial % 3], max_trees=15, max_depth=6)
        trees = model.trees
        zero_level += sum(t.n_levels == 0 for t in trees)
        design = rng.normal(size=(int(rng.integers(1, 20)), 4))
        split = [t.splits[0][1] for t in trees if t.splits]
        design[0] = split[0] if split else 0.0  # every column on a threshold, which goes left
        every = np.column_stack([t.leaf_indices(design) for t in trees])
        leaves = model.forest.leaves(design)
        assert leaves.dtype == np.int64 and np.array_equal(leaves, every)
        subset = np.sort(rng.choice(len(trees), size=int(rng.integers(0, len(trees) + 1)), replace=False))
        assert np.array_equal(model.forest.leaves(design, subset), every[:, subset])
        assert np.array_equal(model.forest.leaves(design, slice(1, None)), every[:, 1:])
    assert zero_level


def test_forest_round_trips_its_trees_read_only(rng):
    model = random_oblivious_model(rng, n_features=3, n_classes=3, max_trees=12, max_depth=5)
    forest = model.forest
    again = Forest.of(model.trees)
    for name in ("split_column", "split_threshold", "n_levels", "class_index", "leaf_values", "leaf_cover"):
        assert np.array_equal(getattr(again, name), getattr(forest, name)), name
        assert not getattr(forest, name).flags.writeable, name
    assert forest.leaf_offset[-1] == forest.leaf_values.size == sum(1 << t.n_levels for t in model.trees)
    with pytest.raises(ValueError):
        model.trees[0].leaf_values[0] = 1.0


def test_predict_proba_zero_margin_is_half():
    model = _manual_ensemble([], base=[0.0])
    proba = gbdt.predict_proba(model, np.array([[0.0, 0.0]]))
    assert proba[0, 1] == 0.5


def test_predict_proba_equal_margins_uniform():
    model = _manual_ensemble([], base=[0.3, 0.3, 0.3], n_classes=3)
    proba = gbdt.predict_proba(model, np.array([[0.0, 0.0]]))
    assert np.abs(proba - 1.0 / 3.0).max() < 1e-12


def test_softmax_shift_invariance(rng):
    model = _manual_ensemble([], base=[0.0, 0.0, 0.0], n_classes=3)
    margins = rng.normal(size=(20, 3))
    shifted = margins + 13.7
    p = gbdt.proba_from_margin(model, margins)
    q = gbdt.proba_from_margin(model, shifted)
    assert np.abs(p - q).max() < 1e-12


def test_probability_simplex(rng):
    X = rng.normal(size=(60, 4))
    y = (X[:, 0] > 0).astype(int) + (X[:, 1] > 0).astype(int)
    model = gbdt.fit(X, None, y, TrainConfig(n_trees=10, depth=3, seed=4))
    proba = gbdt.predict_proba(model, X)
    assert np.abs(proba.sum(axis=1) - 1.0).max() < 1e-12
    assert proba.min() >= 0.0 and proba.max() <= 1.0


def test_determinism_identical_json(rng):
    X = rng.normal(size=(40, 3))
    cats = rng.integers(1, 7, size=(40, 1))
    y = (X[:, 0] > 0).astype(int)
    cfg = TrainConfig(n_trees=12, depth=3, seed=99)
    a = gbdt.fit(X, cats, y, cfg)
    b = gbdt.fit(X.copy(), cats.copy(), y.copy(), cfg)
    assert gbdt.to_json(a) == gbdt.to_json(b)


def test_json_round_trip_preserves_predictions(rng):
    X = rng.normal(size=(50, 3))
    cats = rng.integers(1, 7, size=(50, 2))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    model = gbdt.fit(X, cats, y, TrainConfig(n_trees=15, depth=4, seed=5),
                     categorical_names=["r1", "r2"])
    restored = gbdt.from_json(gbdt.to_json(model))
    assert np.array_equal(
        gbdt.predict_margin(model, X, cats), gbdt.predict_margin(restored, X, cats)
    )
    assert restored.feature_names == model.feature_names


def test_oblivious_level_permutation_reaches_same_leaf(rng):
    X = rng.normal(size=(30, 4))
    y = (X[:, 2] > 0).astype(int)
    model = gbdt.fit(X, None, y, TrainConfig(n_trees=8, depth=4, seed=6))
    for tree in model.trees:
        levels = len(tree.splits)
        if levels < 2:
            continue
        perm = rng.permutation(levels)
        permuted = ObliviousTree(
            splits=tuple(tree.splits[p] for p in perm),
            leaf_values=tree.leaf_values[_remap_leaves(perm, levels)],
            leaf_cover=tree.leaf_cover[_remap_leaves(perm, levels)],
            class_index=tree.class_index,
        )
        leaves = tree.leaf_values[tree.leaf_indices(X)]
        assert np.array_equal(leaves, permuted.leaf_values[permuted.leaf_indices(X)])


def _remap_leaves(perm, levels):
    """Leaf table reindexed so permuted levels address the same cells."""
    new_to_old = np.empty(1 << levels, dtype=np.int64)
    for leaf in range(1 << levels):
        old = 0
        for new_level, old_level in enumerate(perm):
            if (leaf >> new_level) & 1:
                old |= 1 << old_level
        new_to_old[leaf] = old
    # permuted tree's leaf i must hold the old tree's value for the same region
    out = np.empty(1 << levels, dtype=np.int64)
    for leaf in range(1 << levels):
        out[leaf] = new_to_old[leaf]
    return out


def test_feature_scale_covariance_power_of_two(rng):
    X, y = _separable_data(rng, n=120)
    cfg = TrainConfig(n_trees=15, depth=3, seed=7)
    base = gbdt.fit(X, None, y, cfg)
    scaled_X = X.copy()
    scaled_X[:, 0] *= 4.0  # exact in binary floating point
    scaled = gbdt.fit(scaled_X, None, y, cfg)
    assert np.array_equal(
        gbdt.predict_margin(base, X), gbdt.predict_margin(scaled, scaled_X)
    )


def test_feature_scale_covariance_general(rng):
    X, y = _separable_data(rng, n=120)
    cfg = TrainConfig(n_trees=15, depth=3, seed=8)
    base = gbdt.fit(X, None, y, cfg)
    scaled_X = X.copy()
    scaled_X[:, 1] *= 3.0
    scaled = gbdt.fit(scaled_X, None, y, cfg)
    assert np.allclose(
        gbdt.predict_margin(base, X), gbdt.predict_margin(scaled, scaled_X), atol=1e-8
    )


def test_arity_mismatch(rng):
    X = rng.normal(size=(30, 3))
    y = (X[:, 0] > 0).astype(int)
    model = gbdt.fit(X, None, y, TrainConfig(n_trees=2, depth=2, seed=0))
    with pytest.raises(FeatureArityMismatch):
        gbdt.predict_margin(model, X[:, :2])
    with pytest.raises(FeatureArityMismatch):
        gbdt.predict_margin(model, X, np.ones((30, 1), dtype=int))


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(n_trees=0).validate()
    with pytest.raises(ValueError):
        TrainConfig(depth=17).validate()
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0).validate()
    with pytest.raises(ValueError):
        TrainConfig(loss="hinge").validate()


def _oracle_encode_ordered_ts(categories, targets, permutation, prior_weight, prior):
    """Row-by-row running totals, the reference for the vectorised encoding."""
    out = np.empty(len(categories), dtype=np.float64)
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for row in permutation:
        c = int(categories[row])
        s = sums.get(c, 0.0)
        n = counts.get(c, 0)
        out[row] = (s + prior_weight * prior) / (n + prior_weight)
        sums[c] = s + targets[row]
        counts[c] = n + 1
    return out


def _oracle_encode(encoder, categories):
    """Row-by-row lookup of the frozen statistics, the reference for ``encode``."""
    out = np.empty((categories.shape[0], len(encoder.feature_names) * encoder.n_components))
    col = 0
    for f, feature_stats in enumerate(encoder.stats):
        for comp_idx in range(encoder.n_components):
            prior = encoder.priors[f][comp_idx]
            a = encoder.prior_weight
            for i in range(categories.shape[0]):
                count, sums = feature_stats.get(int(categories[i, f]), (0, None))
                s = sums[comp_idx] if sums is not None else 0.0
                out[i, col] = (s + a * prior) / (count + a)
            col += 1
    return out


def test_encoders_match_row_loop_oracle():
    for trial in range(40):
        rng = np.random.default_rng(500 + trial)
        n = int(rng.integers(1, 60))
        cats = rng.integers(-2, 6, size=n)
        targets = rng.uniform(size=n) if trial % 2 else rng.integers(0, 2, size=n).astype(float)
        perm = rng.permutation(n)
        weight, prior = float(rng.uniform(0.1, 3.0)), float(rng.uniform())
        got = encode_ordered_ts(cats, targets, perm, weight, prior)
        want = _oracle_encode_ordered_ts(cats, targets, perm, weight, prior)
        assert got.tobytes() == want.tobytes()

        k = int(rng.choice([2, 3, 6]))
        labels = np.concatenate([np.arange(k), rng.integers(0, k, size=n)])
        train = rng.integers(1, 7, size=(labels.size, int(rng.integers(1, 3))))
        cfg = TrainConfig(seed=trial, n_permutations=int(rng.integers(1, 3)))
        encoder, _ = gbdt.OrderedTsEncoder.fit(train, labels, k, cfg)
        queries = rng.integers(0, 9, size=(n, train.shape[1]))  # 0, 7 and 8 unseen
        assert encoder.encode(queries).tobytes() == _oracle_encode(encoder, queries).tobytes()


def _oracle_encoder_fit(categories, labels, n_classes, config):
    """The per-(component, category) loops ``OrderedTsEncoder.fit`` replaced,
    kept as the reference: (priors, stats, training columns)."""
    n, d_cat = categories.shape
    if n_classes == 2:
        components = [(labels == 1).astype(np.float64)]
    else:
        components = [(labels == c).astype(np.float64) for c in range(n_classes)]
    priors = (tuple(float(t.mean()) for t in components),) * d_cat
    permutations = [
        Rng(derive_seed(config.seed, 0xC47, p)).permutation(n) for p in range(config.n_permutations)
    ]
    stats = []
    train_cols = np.empty((n, d_cat * len(components)))
    col = 0
    for f in range(d_cat):
        feature_stats = {}
        for c in np.unique(categories[:, f]):
            mask = categories[:, f] == c
            feature_stats[int(c)] = (int(mask.sum()), tuple(float(t[mask].sum()) for t in components))
        stats.append(feature_stats)
        for comp_idx, t in enumerate(components):
            encoded = np.zeros(n)
            for perm in permutations:
                encoded += _oracle_encode_ordered_ts(
                    categories[:, f], t, perm, config.ts_prior_weight, priors[f][comp_idx]
                )
            train_cols[:, col] = encoded / len(permutations)
            col += 1
    return priors, tuple(stats), train_cols


@pytest.mark.parametrize("k", [2, 3, 6])
def test_encoder_fit_matches_category_loop_oracle(k):
    rng = np.random.default_rng(k)
    for trial in range(12):
        n = int(rng.integers(k, 80))
        labels = rng.permutation(np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)]))
        cats = rng.integers(1, 7, size=(n, int(rng.integers(1, 3))))
        cats[rng.integers(0, n), 0] = 99  # a singleton category
        cfg = TrainConfig(
            seed=trial, n_permutations=1 + trial % 3, ts_prior_weight=(0.5, 1.0, 3.0)[trial // 3 % 3]
        )
        encoder, columns = gbdt.OrderedTsEncoder.fit(cats, labels, k, cfg)
        priors, stats, want = _oracle_encoder_fit(cats, labels, k, cfg)
        assert encoder.n_components == (1 if k == 2 else k)
        assert encoder.priors == priors
        assert encoder.stats == stats
        assert columns.tobytes() == want.tobytes()


def _oracle_grow(slots, thresholds, grad, hess, depth, l2):
    """The per-column grower the per-level histogram replaced, kept as the reference:
    one histogram, cumsum and argmax per column, per level, over all 2^level leaves."""
    candidates = [row[np.isfinite(row)] for row in thresholds]
    buckets = [slots[:, j] - j * gbdt.N_QUANTILE_BUCKETS for j in range(slots.shape[1])]
    n = grad.shape[0]
    leaf_idx = np.zeros(n, dtype=np.int64)
    splits = []
    for level in range(depth):
        n_leaves = 1 << level
        g_leaf = np.bincount(leaf_idx, weights=grad, minlength=n_leaves)
        h_leaf = np.bincount(leaf_idx, weights=hess, minlength=n_leaves)
        denom = h_leaf + l2
        base = np.sum(np.divide(g_leaf * g_leaf, denom, out=np.zeros_like(denom), where=denom > 0))
        best_gain = gbdt._MIN_SPLIT_GAIN
        best = None
        for j, cand in enumerate(candidates):
            if cand.size == 0:
                continue
            n_buckets = cand.size + 1
            flat = leaf_idx * n_buckets + buckets[j]
            shape = (n_leaves, n_buckets)
            hist_g = np.bincount(flat, weights=grad, minlength=n_leaves * n_buckets).reshape(shape)
            hist_h = np.bincount(flat, weights=hess, minlength=n_leaves * n_buckets).reshape(shape)
            gl = np.cumsum(hist_g, axis=1)[:, :-1]
            hl = np.cumsum(hist_h, axis=1)[:, :-1]
            gr = g_leaf[:, None] - gl
            hr = h_leaf[:, None] - hl
            dl = hl + l2
            dr = hr + l2
            score = np.divide(gl * gl, dl, out=np.zeros_like(dl), where=dl > 0) + np.divide(
                gr * gr, dr, out=np.zeros_like(dr), where=dr > 0
            )
            gains = score.sum(axis=0) - base
            m = int(np.argmax(gains))
            if gains[m] > best_gain:
                best_gain = float(gains[m])
                best = (j, m)
        if best is None:
            break
        j, m = best
        splits.append((j, float(candidates[j][m])))
        leaf_idx |= (buckets[j] > m).astype(np.int64) << level
    n_leaves = 1 << len(splits)
    g_leaf = np.bincount(leaf_idx, weights=grad, minlength=n_leaves)
    h_leaf = np.bincount(leaf_idx, weights=hess, minlength=n_leaves)
    cover = np.bincount(leaf_idx, minlength=n_leaves)
    denom = h_leaf + l2
    values = np.where(denom > 0, -np.divide(g_leaf, denom, out=np.zeros_like(denom), where=denom > 0), 0.0)
    return splits, values, cover, leaf_idx


def _grower_battery():
    """Seeded fits over the grower's edge cases: every combination of k
    2/3/6, l2 0/3 and with/without categorical columns, and every depth 1..12.

    Each design holds a normal column, a constant one (no candidates), a
    tied one, and a column with one candidate next to a many-candidate
    column that splits the rows the same way: n = 32m + 1 puts the top
    quantile border on a row, so both isolate the same m rows.
    """
    for i in range(36):
        rng = np.random.default_rng(900 + i)
        k = (2, 3, 6)[i % 3]
        l2 = (0.0, 3.0)[(i // 3) % 2]
        n = (33, 65, 97)[(i // 6) % 3]
        top = rng.choice(n, size=(n - 1) // 32, replace=False)
        lone = np.zeros(n)
        lone[top] = 1.0
        many = rng.permutation(n).astype(float)
        many[top] = n + np.arange(top.size)
        X = np.column_stack([
            rng.normal(size=n), np.full(n, 1.5), rng.integers(0, 4, size=n) * 0.5, lone, many,
        ])[:, rng.permutation(5)]
        y = rng.permutation(np.arange(n) % k)
        cats = rng.integers(1, 7, size=(n, 1 + i % 2)) if (i // 18) % 2 else None
        cfg = TrainConfig(n_trees=3, depth=1 + i % 12, learning_rate=0.5, l2_leaf_reg=l2, seed=i)
        yield X, cats, y, cfg


def test_split_table_matches_searchsorted(rng):
    X = np.column_stack([rng.normal(size=70), np.full(70, 2.0), rng.integers(0, 3, size=70)])
    slots, thresholds = gbdt._split_table(X)
    qs = np.arange(1, gbdt.N_QUANTILE_BUCKETS) / gbdt.N_QUANTILE_BUCKETS
    for j in range(X.shape[1]):
        cand = np.unique(np.quantile(X[:, j], qs, method="linear"))  # one column at a time
        assert thresholds[j, : cand.size].tolist() == cand.tolist()
        assert np.isinf(thresholds[j, cand.size :]).all()
        buckets = slots[:, j] - j * gbdt.N_QUANTILE_BUCKETS
        assert buckets.tolist() == np.searchsorted(cand, X[:, j], side="left").tolist()


def _split_slots_by_loop(design, thresholds):
    """The per-column ``searchsorted`` loop that ``_split_table`` replaced,
    kept as its oracle."""
    n_rows, n_cols = design.shape
    slots = np.empty((n_rows, n_cols), dtype=np.min_scalar_type(n_cols * gbdt.N_QUANTILE_BUCKETS - 1))
    for j, candidates in enumerate(thresholds):
        slots[:, j] = j * gbdt.N_QUANTILE_BUCKETS + np.searchsorted(candidates, design[:, j], side="left")
    return slots


# few distinct values, so quantile borders fall on data values; both zeros
_TIED_VALUES = st.sampled_from([-0.0, 0.0, 1.0, -2.5, 3.0, 1e-300])


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n_rows=st.integers(1, 40), n_cols=st.integers(1, 10))
def test_split_table_slots_match_the_searchsorted_loop(data, n_rows, n_cols):
    # 8 columns and fewer take uint8 slots, 9 and more uint16
    values = st.one_of(_TIED_VALUES, st.floats(-1e6, 1e6, allow_nan=False))
    design = np.array(data.draw(st.lists(
        st.lists(values, min_size=n_cols, max_size=n_cols), min_size=n_rows, max_size=n_rows,
    )), dtype=np.float64).reshape(n_rows, n_cols)
    constant = data.draw(st.integers(-1, n_cols - 1))
    if constant >= 0:
        design[:, constant] = data.draw(_TIED_VALUES)
    slots, thresholds = gbdt._split_table(design)
    want = _split_slots_by_loop(design, thresholds)
    assert slots.dtype == want.dtype and slots.tobytes() == want.tobytes()


def _encode_by_loop(encoder, categories):
    """The category x component loop that ``OrderedTsEncoder.encode``
    replaced, kept as its oracle."""
    a, width = encoder.prior_weight, encoder.n_components
    out = np.empty((categories.shape[0], len(encoder.feature_names) * width))
    for f, feature_stats in enumerate(encoder.stats):
        seen, row_category = np.unique(categories[:, f].astype(np.int64), return_inverse=True)
        table = np.empty((seen.size, width))
        for i, c in enumerate(seen.tolist()):
            count, sums = feature_stats.get(c, (0, (0.0,) * width))
            for comp_idx, prior in enumerate(encoder.priors[f]):
                table[i, comp_idx] = (sums[comp_idx] + a * prior) / (count + a)
        out[:, f * width : (f + 1) * width] = table[row_category]
    return out


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n_features=st.integers(1, 3), width=st.integers(1, 4), n_rows=st.integers(0, 30))
def test_encode_matches_the_category_loop(data, n_features, width, n_rows):
    # categories 0..9 of which some are unseen, seen ones with count 0 among
    # them, sums of either sign and zero, and no rows at all
    floats = st.floats(-1e3, 1e3, allow_nan=False)
    entry = st.tuples(st.integers(0, 2**62), st.tuples(*[floats] * width))
    stats = tuple(
        data.draw(st.dictionaries(st.integers(0, 9), entry, max_size=6)) for _ in range(n_features)
    )
    encoder = gbdt.OrderedTsEncoder(
        feature_names=tuple(f"cat{f}" for f in range(n_features)),
        n_components=width,
        prior_weight=data.draw(st.floats(1e-3, 1e3)),
        priors=tuple(data.draw(st.tuples(*[st.floats(0.0, 1.0)] * width)) for _ in range(n_features)),
        stats=stats,
        component_names=("",) if width == 1 else tuple(f"class{c}" for c in range(width)),
    )
    categories = np.array(
        data.draw(st.lists(st.integers(0, 9), min_size=n_rows * n_features, max_size=n_rows * n_features)),
        dtype=np.int64,
    ).reshape(n_rows, n_features)
    got = encoder.encode(categories)
    assert got.shape == (n_rows, n_features * width)
    assert got.tobytes() == _encode_by_loop(encoder, categories).tobytes()


def test_quantile_borders_match_numpy_bit_for_bit():
    # normal, tied, constant, evenly spaced and wide columns at every n from 4 to 400
    rng = np.random.default_rng(32)
    for n in range(4, 401):
        X = np.column_stack([
            rng.normal(size=n), rng.integers(0, 5, size=n) * 0.25, np.full(n, 1.5),
            rng.permutation(n) * 1e-3, rng.exponential(size=n) * 1e4,
        ])
        want = np.quantile(X, gbdt._QUANTILES, axis=0, method="linear")
        assert gbdt._quantile_borders(X).tobytes() == want.tobytes(), n


def _per_tree_grow(slots, thresholds, grad, hess, depth, l2):
    """The grower before trees grew in batches, kept as the reference: one
    tree per call, one histogram pass per level over its occupied leaves."""
    n, n_cols = slots.shape
    width = thresholds.size
    padded = np.isinf(thresholds)
    lone = np.flatnonzero(padded.sum(axis=1) == gbdt.N_QUANTILE_BUCKETS - 1)
    g_rows = np.repeat(grad, n_cols)
    h_rows = np.repeat(hess, n_cols)
    leaf_idx = np.zeros(n, dtype=np.int64)
    splits = []
    for level in range(depth):
        n_leaves = 1 << level
        g_leaf = np.bincount(leaf_idx, weights=grad, minlength=n_leaves)
        h_leaf = np.bincount(leaf_idx, weights=hess, minlength=n_leaves)
        base = np.sum(gbdt._newton_score(g_leaf * g_leaf, h_leaf + l2))
        leaf_rows = np.bincount(leaf_idx, minlength=n_leaves)
        occupied = np.flatnonzero(leaf_rows)
        row_leaf = (np.cumsum(leaf_rows > 0) - 1)[leaf_idx]
        keys = (row_leaf[:, None] * width + slots).ravel()
        size = occupied.size * width
        shape = (occupied.size, n_cols, gbdt.N_QUANTILE_BUCKETS)
        gl = np.cumsum(np.bincount(keys, weights=g_rows, minlength=size).reshape(shape), axis=2)
        hl = np.cumsum(np.bincount(keys, weights=h_rows, minlength=size).reshape(shape), axis=2)
        gr = g_leaf[occupied, None, None] - gl
        hr = h_leaf[occupied, None, None] - hl
        hl += l2
        hr += l2
        gl *= gl
        gr *= gr
        score = gbdt._newton_score(gl, hl)
        score += gbdt._newton_score(gr, hr)
        gains = score.sum(axis=0) - base
        if lone.size:
            dense = np.zeros((lone.size, n_leaves))
            dense[:, occupied] = score[:, lone, 0].T
            gains[lone, 0] = dense.sum(axis=1) - base
        gains[padded] = -np.inf
        best = int(np.argmax(gains))
        if not gains.flat[best] > gbdt._MIN_SPLIT_GAIN:
            break
        j = best // gbdt.N_QUANTILE_BUCKETS
        splits.append((j, float(thresholds.flat[best])))
        leaf_idx |= (slots[:, j] > best).astype(np.int64) << level
    n_leaves = 1 << len(splits)
    g_leaf = np.bincount(leaf_idx, weights=grad, minlength=n_leaves)
    h_leaf = np.bincount(leaf_idx, weights=hess, minlength=n_leaves)
    cover = np.bincount(leaf_idx, minlength=n_leaves)
    denom = h_leaf + l2
    values = np.where(denom > 0, -np.divide(g_leaf, denom, out=np.zeros_like(denom), where=denom > 0), 0.0)
    return splits, values, cover, leaf_idx


def _oracle_fit(X, cats, y, cfg, grow=_per_tree_grow):
    """``fit`` as it was before models boosted together: one model, one
    ``grow`` call per (round, class)."""
    model, design, labels = gbdt._prepare(X, cats, y, cfg, None, None)
    slots, thresholds = gbdt._split_table(design)
    n = labels.size
    if model.n_outputs == 1:
        targets = (labels == 1)[:, None].astype(np.float64)
        probabilities = gbdt._sigmoid
    else:
        targets = np.eye(model.n_classes)[labels]
        probabilities = gbdt._softmax
    margins = np.tile(model.base_score, (n, 1))
    p = probabilities(margins)
    trees, losses = [], []
    for _ in range(cfg.n_trees):
        for c in range(model.n_outputs):
            grad = p[:, c] - targets[:, c]
            hess = p[:, c] * (1.0 - p[:, c])
            splits, values, cover, leaf_idx = grow(slots, thresholds, grad, hess, cfg.depth, cfg.l2_leaf_reg)
            trees.append(ObliviousTree(tuple(splits), values, cover, c))
            margins[:, c] += model.learning_rate * values[leaf_idx]
        p = probabilities(margins)
        if model.n_outputs == 1:
            q = np.clip(p[:, 0], 1e-15, 1.0 - 1e-15)
            losses.append(float(-np.mean(targets[:, 0] * np.log(q) + (1.0 - targets[:, 0]) * np.log(1.0 - q))))
        else:
            losses.append(float(-np.mean(np.log(np.clip(p[np.arange(n), labels], 1e-15, None)))))
    return replace(model, forest=Forest.of(trees), training_loss=tuple(losses))


def test_grower_matches_per_column_oracle():
    for X, cats, y, cfg in _grower_battery():
        text = gbdt.to_json(gbdt.fit(X, cats, y, cfg))
        assert gbdt.to_json(_oracle_fit(X, cats, y, cfg, grow=_oracle_grow)) == text, cfg
        assert gbdt.to_json(gbdt.from_json(text)) == text


def _fold_battery():
    """(X, cats, y, folds, cfg): the grower battery in 5 stratified folds
    (its one-candidate columns included); deep fits, softmax at k 2 among
    them, whose folds see different signal; and fits on a constant, a
    binary and a sparse 0/1 column at k 2/3/6."""
    for i, (X, cats, y, cfg) in enumerate(_grower_battery()):
        yield X, cats, y, stratified_folds(y, 5, seed=i), cfg
    for i in range(6):
        rng = np.random.default_rng(700 + i)
        n = int(rng.integers(60, 130))
        X = rng.normal(size=(n, 4))
        y = rng.permutation(np.arange(n) % 2)
        cats = rng.integers(1, 7, size=(n, 1)) if i % 2 else None
        loss = "multiclass_softmax" if i < 3 else "auto"
        # column 0 separates the classes outside fold 0 only, so the folds'
        # models see different signal and their trees stop at different levels
        folds = stratified_folds(y, 3 + i % 3, seed=i)
        X[folds != 0, 0] = np.where(y[folds != 0] == 1, 2.0, -2.0)
        cfg = TrainConfig(n_trees=4, depth=6 + i, l2_leaf_reg=(0.0, 3.0)[i % 2], learning_rate=1.0, seed=i, loss=loss)
        yield X, cats, y, folds, cfg
    for i in range(6):
        rng = np.random.default_rng(800 + i)
        n_folds = 5
        n = 32 * 4 + 1 + n_folds * int(rng.integers(5, 9))
        k = (2, 3, 6)[i % 3]
        lone = np.zeros(n)
        lone[rng.choice(n, size=6, replace=False)] = 1.0
        X = np.column_stack([rng.normal(size=n), np.full(n, -1.0), rng.integers(0, 2, size=n), lone])
        y = rng.permutation(np.arange(n) % k)
        cfg = TrainConfig(n_trees=3, depth=4 + i % 3, l2_leaf_reg=(0.0, 3.0)[i % 2], learning_rate=0.5, seed=i)
        yield X, None, y, stratified_folds(y, n_folds, seed=i), cfg


def _fit_folds(X, cats, y, folds, cfg):
    """One cell's fold models, boosted together by ``fit_cells``."""
    return gbdt.fit_cells([gbdt.prepare_folds(X, cats, y, folds, cfg)])[0]


def _fold_args(X, cats, y, folds, cfg):
    """Per fold, the ``fit`` arguments of the model ``_fit_folds`` trains for it."""
    for f in range(int(folds.max()) + 1):
        train = folds != f
        yield X[train], None if cats is None else cats[train], y[train], replace(cfg, seed=cfg.seed ^ f)


def _fold_fits(battery):
    """Per fit: ``_fit_folds``'s models, ``fit``'s on each fold and the oracle's, as model files."""
    for X, cats, y, folds, cfg in battery:
        batched = [gbdt.to_json(m) for m in _fit_folds(X, cats, y, folds, cfg)]
        single, oracle = [], []
        for args in _fold_args(X, cats, y, folds, cfg):
            single.append(gbdt.to_json(gbdt.fit(*args)))
            oracle.append(gbdt.to_json(_oracle_fit(*args)))
        yield cfg, batched, single, oracle


def test_fit_folds_match_per_tree_oracle_bit_for_bit(monkeypatch):
    seen = {"uneven": False, "lone": False, "stopped": False}
    run_gains = gbdt._run_gains

    def spy(*args):
        bounds, _, lone, _, out = args[-5:]
        counts = np.diff(bounds)
        seen["uneven"] |= bool(counts.min() != counts.max())
        seen["lone"] |= lone is not None and out.shape[0] > 1
        return run_gains(*args)

    monkeypatch.setattr(gbdt, "_run_gains", spy)
    for cfg, batched, single, oracle in _fold_fits(_fold_battery()):
        assert batched == oracle, cfg
        assert single == oracle, cfg
        levels = [[len(t["splits"]) for t in json.loads(text)["trees"]] for text in batched]
        seen["stopped"] |= any(len(set(round_levels)) > 1 for round_levels in zip(*levels))
    assert all(seen.values()), seen

    # runs of one tree each: the same models
    monkeypatch.setattr(gbdt, "_WORK_BUDGET", 1)
    for cfg, batched, _, oracle in _fold_fits(itertools.islice(_fold_battery(), 0, None, 6)):
        assert batched == oracle, cfg


def test_stopped_trees_cost_nothing_and_split_runs(monkeypatch):
    # A round's grower scores a tree's rows at each level it reaches: every
    # level it split at, plus the one where it stopped, if any; summed,
    # its rows times min(n_levels + 1, depth). A run holds only consecutive
    # growing trees, so a stopped tree between growing ones splits a level
    # into more runs, whatever the budget.
    rounds = []  # per grower call, its _run_gains calls' (n_leaves, rows)
    run_gains, grow_trees = gbdt._run_gains, gbdt._grow_trees

    def spy(*args):
        rounds[-1].append((args[-4], args[0].shape[0]))
        return run_gains(*args)

    def grow_spy(*args):
        rounds.append([])
        return grow_trees(*args)

    monkeypatch.setattr(gbdt, "_run_gains", spy)
    monkeypatch.setattr(gbdt, "_grow_trees", grow_spy)
    budgets = (1, gbdt._WORK_BUDGET, 1 << 20)
    split_runs = False
    for X, cats, y, folds, cfg in _fold_battery():
        fold_args = list(_fold_args(X, cats, y, folds, cfg))
        oracle = [gbdt.to_json(_oracle_fit(*args)) for args in fold_args]
        for budget in budgets:
            monkeypatch.setattr(gbdt, "_WORK_BUDGET", budget)
            rounds.clear()
            models = _fit_folds(X, cats, y, folds, cfg)
            assert [gbdt.to_json(m) for m in models] == oracle, (budget, cfg)
            n_outputs = models[0].n_outputs
            tree_rows = [args[2].size for args in fold_args] * n_outputs
            for r, calls in enumerate(rounds):
                # round tree b is class b // len(models) of model b % len(models)
                n_levels = [m.trees[r * n_outputs + c].n_levels for c in range(n_outputs) for m in models]
                for level in range(cfg.depth):
                    scored = [n >= level for n in n_levels]
                    runs = [rows for n_leaves, rows in calls if n_leaves == 1 << level]
                    assert sum(runs) == sum(itertools.compress(tree_rows, scored)), (budget, cfg, r, level)
                    blocks = sum(grows for grows, _ in itertools.groupby(scored))
                    assert len(runs) >= blocks, (budget, cfg, r, level)
                    split_runs |= budget == 1 << 20 and blocks > 1
    assert split_runs


def test_runs_stay_within_the_histogram_budget(monkeypatch):
    # A run's work arrays are its (occupied leaf, column, bucket) histograms
    # and score tables, its (row, column) keys and its (tree, leaf) tables;
    # only a tree whose own arrays pass the budget runs past it, alone.
    runs = []  # per _run_gains call: (trees, cells)
    run_gains = gbdt._run_gains

    def spy(*args):
        slots, leaf, bounds, n_leaves, out = args[0], args[7], args[8], args[9], args[-1]
        n_trees, width = out.shape
        most = int(np.diff(bounds).max())
        runs.append((n_trees, max(leaf.size * width, slots.size, n_trees * most * width, n_trees * n_leaves)))
        return run_gains(*args)

    monkeypatch.setattr(gbdt, "_run_gains", spy)
    seen = {"shared": False, "alone": False}
    for budget in (1 << 10, gbdt._WORK_BUDGET):
        monkeypatch.setattr(gbdt, "_WORK_BUDGET", budget)
        runs.clear()
        for X, cats, y, folds, cfg in itertools.islice(_fold_battery(), 0, None, 2):
            _fit_folds(X, cats, y, folds, cfg)
        assert all(cells <= budget for n_trees, cells in runs if n_trees > 1), budget
        seen["shared"] |= any(n_trees > 1 for n_trees, _ in runs)
        seen["alone"] |= any(cells > budget for _, cells in runs)
    assert all(seen.values()), seen


def _greedy_blocks(sizes, cap):
    """The block rule by brute force: a block takes items while their sum
    stays within ``cap``, and always its first item."""
    blocks, begin = [], 0
    while begin < len(sizes):
        end = begin + 1
        while end < len(sizes) and sum(sizes[begin : end + 1]) <= cap:
            end += 1
        blocks.append((begin, end))
        begin = end
    return blocks


def test_blocks_match_the_greedy_rule_and_batch_cells_as_before(rng, monkeypatch):
    # zero sizes, items larger than the cap, a cap of 0 and no items at all
    cases = [([], 5), ([3], 0), ([0, 0, 0], 0), ([0, 0, 4, 0], 0), ([7, 0, 0, 2], 5)]
    for _ in range(300):
        cases.append((rng.integers(0, 9, size=int(rng.integers(0, 12))), int(rng.integers(0, 12))))
    seen = {"zero": False, "over": False}
    for sizes, cap in cases:
        sizes = [int(size) for size in sizes]
        for given in (sizes, np.array(sizes, dtype=np.int64)):
            blocks = list(gbdt._blocks(given, cap))
            assert blocks == _greedy_blocks(sizes, cap), (sizes, cap)
        assert [i for begin, end in blocks for i in range(begin, end)] == list(range(len(sizes)))
        for begin, end in blocks:
            assert begin < end
            assert end - begin == 1 or sum(sizes[begin:end]) <= cap, (sizes, cap)
            assert end == len(sizes) or sum(sizes[begin : end + 1]) > cap, (sizes, cap)  # maximal
            seen["zero"] |= 0 in sizes[begin:end] and end - begin > 1
            seen["over"] |= sizes[begin] > cap
    assert all(seen.values()), seen

    # cell_batches batches cells for fit_cells by their leaf slots under the same rule
    batches = []

    def boost(untrained):
        batches.append(len(untrained))
        return list(untrained)

    untrained = gbdt._prepare(np.arange(8.0)[:, None], None, np.arange(8) % 2, TrainConfig(n_trees=5, depth=3),
                              None, None)
    monkeypatch.setattr(gbdt, "_boost", boost)
    monkeypatch.setattr(gbdt, "_BATCH_BUDGET", 480)
    cells = [[untrained] * folds for folds in (4, 12, 2, 2, 1, 20, 4)]
    fitted = [models for begin, end in gbdt.cell_batches(cells) for models in gbdt.fit_cells(cells[begin:end])]
    assert [len(models) for models in fitted] == [4, 12, 2, 2, 1, 20, 4]
    slots = [gbdt._leaf_slots(cell) for cell in cells]
    assert slots == [160, 480, 80, 80, 40, 800, 160]
    assert batches == [sum(len(cell) for cell in cells[a:b]) for a, b in _greedy_blocks(slots, 480)]
    assert batches == [4, 12, 5, 20, 4]


def test_fit_folds_rejects_fold_missing_a_class():
    X = np.random.default_rng(4).normal(size=(10, 2))
    y = np.array([0, 1, 0, 1, 0, 1, 0, 1, 2, 2])
    folds = np.array([0, 0, 1, 1, 0, 0, 1, 1, 1, 1])  # fold 1 holds every class-2 row
    with pytest.raises(DegenerateLabels, match=r"fold 1 training split lacks class\(es\) \[2\]"):
        _fit_folds(X, None, y, folds, TrainConfig(n_trees=2, depth=2))


def test_fit_folds_memory_stays_small():
    # a k=6 cell of 5 folds grows 30 trees a round; unbounded, their
    # depth-6 histograms peaked at ~15 MB
    rng = np.random.default_rng(6)
    X = rng.normal(size=(150, 8))
    cats = rng.integers(1, 7, size=(150, 1))
    y = rng.permutation(np.arange(150) % 6)
    folds = stratified_folds(y, 5, seed=6)
    tracemalloc.start()
    try:
        models = _fit_folds(X, cats, y, folds, TrainConfig(n_trees=3, depth=6, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert models[0].n_features == 14
    assert max(tree.n_levels for model in models for tree in model.trees) == 6
    assert peak < 4e6


def _legacy_document(model):
    """The model document as ``to_json`` built it field by field before it
    took the fields from the dataclasses; the reference for its bytes."""
    encoder = model.ts_encoder
    return {
        "format_version": 1,
        "model_type": "oblivious_gbdt",
        "config": asdict(model.config),
        "n_classes": model.n_classes,
        "n_outputs": model.n_outputs,
        "base_score": [float(x) for x in model.base_score],
        "learning_rate": model.learning_rate,
        "feature_names": list(model.feature_names),
        "feature_source": list(model.feature_source),
        "n_numeric": model.n_numeric,
        "encoder": None if encoder is None else {
            "feature_names": list(encoder.feature_names),
            "n_components": encoder.n_components,
            "prior_weight": encoder.prior_weight,
            "priors": [list(p) for p in encoder.priors],
            "component_names": list(encoder.component_names),
            "stats": [
                {str(c): [count, list(sums)] for c, (count, sums) in fs.items()}
                for fs in encoder.stats
            ],
        },
        "training_loss": list(model.training_loss),
        "trees": [
            {
                "class_index": t.class_index,
                "splits": [[f, thr] for f, thr in t.splits],
                "leaf_values": [float(v) for v in t.leaf_values],
                "leaf_cover": [int(c) for c in t.leaf_cover],
            }
            for t in model.trees
        ],
    }


def _document_battery():
    """The grower battery, then a softmax fit at k 2, a fit at learning rate
    1 and l2 0, and categorical codes -3..14, whose keys sort as text."""
    yield from _grower_battery()
    rng = np.random.default_rng(41)
    X = rng.normal(size=(48, 3))
    y = rng.permutation(np.arange(48) % 2)
    yield X, None, y, TrainConfig(n_trees=4, depth=3, loss="multiclass_softmax", seed=1)
    yield X, rng.integers(1, 7, size=(48, 1)), y, TrainConfig(
        n_trees=4, depth=3, learning_rate=1, l2_leaf_reg=0, seed=2
    )
    yield X, rng.integers(-3, 15, size=(48, 2)), np.arange(48) % 3, TrainConfig(n_trees=3, depth=2, seed=3)


def test_to_json_matches_legacy_document():
    for X, cats, y, cfg in _document_battery():
        model = gbdt.fit(X, cats, y, cfg)
        assert gbdt.to_json(model) == json.dumps(_legacy_document(model), sort_keys=True, indent=2), cfg
    assert {-3, 9, 10} <= model.ts_encoder.stats[0].keys()  # numeric and text order differ


def test_fit_memory_stays_small_at_depth_16():
    # histograms over all 2^level leaves need ~100 MB here one column at a
    # time and ~1 GB for all columns at once; rows occupy at most 150 leaves
    rng = np.random.default_rng(16)
    X = rng.normal(size=(150, 13))
    y = np.arange(150) % 2
    tracemalloc.start()
    try:
        model = gbdt.fit(X, None, y, TrainConfig(n_trees=2, depth=16, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.trees[0].n_levels == 16
    assert peak < 16e6


def _model_document():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 3))
    cats = rng.integers(1, 5, size=(40, 1))
    y = np.arange(40) % 3
    model = gbdt.fit(X, cats, y, TrainConfig(n_trees=2, depth=2, seed=3))
    return json.loads(gbdt.to_json(model))


def _corrupted(edit):
    doc = _model_document()
    edit(doc)
    return json.dumps(doc)


def _set(path, value):
    def edit(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value
    return edit


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("{not json", id="not-json"),
        pytest.param(b"\xff\xfe\x00\x81", id="not-utf8"),
        pytest.param("[1, 2]", id="not-an-object"),
        pytest.param('{"model_type": "oblivious_gbdt"}', id="model-type-only"),
        pytest.param(_corrupted(_set(["format_version"], 2)), id="format-version"),
        pytest.param(_corrupted(lambda d: d.pop("trees")), id="missing-key"),
        pytest.param(_corrupted(_set(["surplus"], 1)), id="unknown-key"),
        pytest.param(_corrupted(_set(["n_classes"], "3")), id="quoted-int"),
        pytest.param(_corrupted(_set(["trees"], {})), id="trees-not-list"),
        pytest.param(_corrupted(_set(["trees", 0, "leaf_values"], "0.5")), id="leaf-values-type"),
        pytest.param(_corrupted(_set(["trees", 0, "splits"], [[0.5, 1.0]])), id="split-column-type"),
        pytest.param(_corrupted(_set(["config", "depth"], 2.5)), id="config-type"),
        pytest.param(_corrupted(_set(["config", "depth"], 0)), id="config-value"),
        pytest.param(_corrupted(lambda d: d["config"].pop("seed")), id="config-missing-key"),
        # "²" passes str.isdigit but not int()
        pytest.param(_corrupted(_set(["encoder", "stats"], [{"²": [1, [0.5] * 3]}])), id="encoder-stats-key"),
        pytest.param(_corrupted(lambda d: d["encoder"]["priors"].pop()), id="encoder-priors"),
        # the divisor count + prior_weight of a category's encoding would be 0
        pytest.param(_corrupted(lambda d: next(iter(d["encoder"]["stats"][0].values())).__setitem__(0, -1)),
                     id="encoder-count-negative"),
        pytest.param(_corrupted(_set(["encoder", "prior_weight"], 0.0)), id="encoder-prior-weight"),
        pytest.param(_corrupted(lambda d: next(iter(d["encoder"]["stats"][0].values())).__setitem__(0, 10**400)),
                     id="encoder-count-beyond-a-double"),
        pytest.param(_corrupted(lambda d: d["trees"][0]["leaf_values"].append(0.0)), id="leaf-values-len"),
        pytest.param(_corrupted(lambda d: d["trees"][0]["leaf_cover"].pop()), id="leaf-cover-len"),
        pytest.param(_corrupted(_set(["trees", 0, "leaf_cover", 0], -1)), id="leaf-cover-negative"),
        pytest.param(_corrupted(_set(["trees", 0, "leaf_cover", 0], 2**63)), id="leaf-cover-int64"),
        pytest.param(_corrupted(lambda d: d["trees"][0].update(leaf_cover=[0] * len(d["trees"][0]["leaf_cover"]))), id="leaf-cover-empty"),
        pytest.param(_corrupted(_set(["learning_rate"], -5.0)), id="learning-rate-vs-config"),
        pytest.param(_corrupted(_set(["config", "n_permutations"], 10**9)), id="n-permutations-range"),
        pytest.param(_corrupted(_set(["trees", 0, "splits", 0, 0], 6)), id="split-column-range"),
        pytest.param(_corrupted(_set(["trees", 0, "class_index"], 3)), id="class-index-range"),
        pytest.param(_corrupted(_set(["n_outputs"], 1)), id="outputs-vs-classes"),
        pytest.param(_corrupted(lambda d: d["base_score"].pop()), id="base-score-len"),
        pytest.param(_corrupted(lambda d: d["feature_source"].pop()), id="feature-source-len"),
        pytest.param(_corrupted(_set(["n_numeric"], 2)), id="n-numeric"),
    ],
)
def test_from_json_rejects_corrupt_documents(text):
    with pytest.raises(DataError):
        gbdt.from_json(text)


def test_from_json_accepts_its_own_document():
    text = json.dumps(_model_document(), sort_keys=True, indent=2)
    assert gbdt.to_json(gbdt.from_json(text)) == text
    assert gbdt.to_json(gbdt.from_json(text.encode())) == text


def test_from_json_round_trips_integer_learning_rate():
    rng = np.random.default_rng(30)
    X = rng.normal(size=(30, 2))
    y = (X[:, 0] > 0).astype(int)
    model = gbdt.fit(X, None, y, TrainConfig(n_trees=2, depth=2, learning_rate=1))
    text = gbdt.to_json(model)
    assert '"learning_rate": 1,' in text
    restored = gbdt.from_json(text)
    assert gbdt.to_json(restored) == text
    assert np.array_equal(gbdt.predict_margin(restored, X, None), gbdt.predict_margin(model, X, None))
