from __future__ import annotations

import numpy as np
import pytest

from conftest import random_oblivious_model
from vaxclust import gbdt, shapley
from vaxclust.errors import EmptySample, MissingCover, TooManyFeatures
from vaxclust.gbdt import ObliviousTree, TrainConfig, TreeEnsemble


def _ensemble(trees, base, lr=1.0, n_features=3, n_classes=2):
    n_outputs = 1 if n_classes == 2 else n_classes
    return TreeEnsemble(
        n_classes=n_classes,
        n_outputs=n_outputs,
        base_score=np.asarray(base, dtype=np.float64),
        learning_rate=lr,
        trees=tuple(trees),
        feature_names=tuple(f"f{j}" for j in range(n_features)),
        feature_source=tuple(f"f{j}" for j in range(n_features)),
        n_numeric=n_features,
        ts_encoder=None,
        config=TrainConfig(),
    )


def _tree(splits, values, cover, class_index=0):
    return ObliviousTree(
        splits=tuple(splits),
        leaf_values=np.asarray(values, dtype=np.float64),
        leaf_cover=np.asarray(cover, dtype=np.int64),
        class_index=class_index,
    )


def test_constant_model_attributes_nothing():
    model = _ensemble([_tree([], [2.5], [10])], base=[0.4])
    attribution = shapley.TreeShapExplainer(model).attribute(np.zeros(3))
    assert np.all(attribution.phi == 0.0)
    assert attribution.base[0] == pytest.approx(0.4 + 2.5)


def test_depth_one_tree_two_player_formula():
    n_left, n_right = 4, 6
    v_left, v_right = -2.0, 3.0
    tree = _tree([(0, 0.5)], [v_left, v_right], [n_left, n_right])
    model = _ensemble([tree], base=[0.0], lr=1.0)
    expectation = (n_left * v_left + n_right * v_right) / (n_left + n_right)

    attribution = shapley.TreeShapExplainer(model).attribute(np.array([0.2, 0.0, 0.0]))  # goes left
    assert attribution.phi[0, 0] == pytest.approx(v_left - expectation, abs=1e-12)
    assert np.all(attribution.phi[0, 1:] == 0.0)
    assert attribution.base[0] == pytest.approx(expectation, abs=1e-12)

    attribution = shapley.TreeShapExplainer(model).attribute(np.array([0.9, 0.0, 0.0]))  # goes right
    assert attribution.phi[0, 0] == pytest.approx(v_right - expectation, abs=1e-12)


def test_three_random_trees_match_brute_force(rng):
    model = random_oblivious_model(rng, n_features=4, n_classes=2, max_trees=3)
    for _ in range(5):
        x = rng.normal(size=4)
        fast = shapley.TreeShapExplainer(model).attribute(x)
        slow = shapley.brute_force_shapley(model, x)
        assert np.abs(fast.phi - slow.phi).max() < 1e-9
        assert np.abs(fast.base - slow.base).max() < 1e-9


def test_additivity_across_trees(rng):
    t1 = _tree([(0, 0.0)], [1.0, -1.0], [3, 7])
    t2 = _tree([(1, 0.5), (0, -0.3)], [0.5, 1.5, -0.5, 2.0], [2, 3, 4, 1])
    lr = 0.7
    both = _ensemble([t1, t2], base=[0.2], lr=lr)
    only1 = _ensemble([t1], base=[0.2], lr=lr)
    only2 = _ensemble([t2], base=[0.0], lr=lr)
    x = np.array([0.1, 0.6, -2.0])
    combined, part1, part2 = (shapley.TreeShapExplainer(m).attribute(x) for m in (both, only1, only2))
    split_sum = part1.phi + part2.phi
    assert np.abs(combined.phi - split_sum).max() < 1e-12


def test_null_player_exact_zero(rng):
    for _ in range(10):
        model = random_oblivious_model(rng, n_features=5, n_classes=2, max_trees=4)
        used = {f for tree in model.trees for f, _ in tree.splits}
        unused = [j for j in range(5) if j not in used]
        if not unused:
            continue
        x = rng.normal(size=5)
        fast = shapley.TreeShapExplainer(model).attribute(x)
        slow = shapley.brute_force_shapley(model, x)
        for j in unused:
            assert np.all(fast.phi[:, j] == 0.0)
            assert np.all(slow.phi[:, j] == 0.0)


def test_symmetric_duplicate_features_equal_phi():
    # two bit-identical feature columns used interchangeably in a tree pair
    t1 = _tree([(0, 0.5), (1, -0.5)], [1.0, 2.0, 3.0, 4.0], [2, 3, 4, 1])
    t2 = _tree([(1, 0.5), (0, -0.5)], [1.0, 2.0, 3.0, 4.0], [2, 3, 4, 1])
    model = _ensemble([t1, t2], base=[0.0], n_features=2)
    for x0 in (-1.0, 0.0, 1.0):
        x = np.array([x0, x0])  # identical coordinates
        attribution = shapley.brute_force_shapley(model, x)
        assert attribution.phi[0, 0] == pytest.approx(attribution.phi[0, 1], abs=1e-12)
        fast = shapley.TreeShapExplainer(model).attribute(x)
        assert fast.phi[0, 0] == pytest.approx(fast.phi[0, 1], abs=1e-12)


def test_single_feature_brute_force_is_total_deviation(rng):
    model = random_oblivious_model(rng, n_features=1, n_classes=2, max_trees=3)
    x = rng.normal(size=1)
    attribution = shapley.brute_force_shapley(model, x)
    margin = gbdt.predict_margin(model, x.reshape(1, -1))[0, 0]
    assert attribution.phi[0, 0] == pytest.approx(margin - attribution.base[0], abs=1e-12)


def test_local_accuracy_trained_models(rng):
    X = rng.normal(size=(80, 6))
    y = (X[:, 0] - X[:, 4] > 0).astype(int)
    model = gbdt.fit(X, None, y, TrainConfig(n_trees=30, depth=4, seed=11))
    explainer = shapley.TreeShapExplainer(model)
    margins = gbdt.predict_margin(model, X)
    for i in range(20):
        attribution = explainer.attribute(X[i])
        reconstructed = attribution.phi.sum(axis=1) + attribution.base
        assert np.abs(reconstructed - margins[i]).max() < 1e-6


def test_local_accuracy_multiclass(rng):
    X = rng.normal(size=(90, 5))
    y = (X[:, 0] > 0).astype(int) + (X[:, 1] > 0.4).astype(int)
    model = gbdt.fit(X, None, y, TrainConfig(n_trees=12, depth=3, seed=12))
    explainer = shapley.TreeShapExplainer(model)
    margins = gbdt.predict_margin(model, X)
    for i in range(15):
        attribution = explainer.attribute(X[i])
        assert np.abs(attribution.phi.sum(axis=1) + attribution.base - margins[i]).max() < 1e-6


def test_oracle_equivalence_battery(rng):
    # depth (min, max) per trial: shallow ensembles, then the paper's depth 5-6,
    # then one 12-level tree; the deeper ones repeat columns and leave leaves
    # without training rows (whose values still count on the row's own path)
    depths = [(0, 4)] * 10 + [(5, 6)] * 8 + [(12, 12)]
    repeated = empty = 0
    for trial, (min_depth, max_depth) in enumerate(depths):
        n_classes = int(rng.choice([2, 3]))
        d = int(rng.integers(2, 7))
        max_trees = 1 if max_depth > 6 else 5
        model = random_oblivious_model(rng, n_features=d, n_classes=n_classes, max_trees=max_trees,
                                       max_depth=max_depth, min_depth=min_depth)
        if min_depth:
            repeated += sum(len({f for f, _ in t.splits}) < t.n_levels for t in model.trees)
            empty += sum(int(np.sum(t.leaf_cover == 0)) for t in model.trees)
        x = rng.normal(size=d)
        fast = shapley.TreeShapExplainer(model).attribute(x)
        slow = shapley.brute_force_shapley(model, x)
        assert np.abs(fast.phi - slow.phi).max() < 1e-9, f"trial {trial}"
        assert np.abs(fast.base - slow.base).max() < 1e-9, f"trial {trial}"
    assert repeated and empty


def test_batch_phi_equals_attribute_bit_for_bit(rng, monkeypatch):
    X = rng.normal(size=(40, 5))
    y = (X[:, 0] > 0).astype(int) + (X[:, 3] > 0.5).astype(int)
    models = [
        random_oblivious_model(rng, n_features=5, n_classes=3, max_trees=8, max_depth=6),
        gbdt.fit(X, None, y, TrainConfig(n_trees=6, depth=6, seed=15)),
    ]
    rows = np.vstack([X[:20], X[:3]])  # repeated rows share decision patterns
    for model in models:
        batch = shapley.TreeShapExplainer(model).explain(rows)
        explainer = shapley.TreeShapExplainer(model)
        for i, row in enumerate(rows):
            assert np.array_equal(batch[i], explainer.attribute(row).phi), i
        with monkeypatch.context() as patch:
            patch.setattr(shapley, "_TERM_BUDGET", 1)  # one pattern per chunk
            assert np.array_equal(shapley.TreeShapExplainer(model).explain(rows), batch)


def test_global_importance_constant_model():
    model = _ensemble([_tree([], [1.0], [5])], base=[0.0])
    importance = shapley.global_importance(model, np.zeros((4, 3)))
    assert np.all(importance.values == 0.0)


def test_global_importance_sample_order_invariant(rng):
    X = rng.normal(size=(40, 4))
    y = (X[:, 2] > 0).astype(int)
    model = gbdt.fit(X, None, y, TrainConfig(n_trees=10, depth=3, seed=13))
    a = shapley.global_importance(model, X)
    b = shapley.global_importance(model, X[rng.permutation(40)])
    assert np.abs(a.values - b.values).max() < 1e-12


def test_global_importance_merges_ts_columns(rng):
    X = rng.normal(size=(60, 2))
    cats = rng.integers(1, 7, size=(60, 1))
    y = (X[:, 0] > 0).astype(int) + (cats[:, 0] > 3).astype(int)
    model = gbdt.fit(X, cats, y, TrainConfig(n_trees=8, depth=3, seed=14),
                     numeric_names=["a", "b"], categorical_names=["rurality"])
    design = model.encode_features(X, cats)
    importance = shapley.global_importance(model, design)
    assert importance.feature_names == ("a", "b", "rurality")


def test_fold_average():
    g1 = shapley.GlobalImportance(("a", "b"), np.array([1.0, 3.0]))
    g2 = shapley.GlobalImportance(("a", "b"), np.array([3.0, 1.0]))
    avg = shapley.fold_average([g1, g2])
    assert avg.values.tolist() == [2.0, 2.0]
    with pytest.raises(EmptySample):
        shapley.fold_average([])


def test_ranking_sorted_desc():
    g = shapley.GlobalImportance(("a", "b", "c"), np.array([0.2, 0.9, 0.5]))
    assert [name for name, _ in g.ranking()] == ["b", "c", "a"]


def test_too_many_features():
    model = _ensemble([_tree([], [0.0], [1])], base=[0.0], n_features=3)
    with pytest.raises(TooManyFeatures):
        shapley.brute_force_shapley(model, np.zeros(3), feature_subset_limit=2)


def test_missing_cover_rejected():
    bad = ObliviousTree(splits=((0, 0.0),), leaf_values=np.array([1.0, 2.0]),
                        leaf_cover=np.array([0, 0]), class_index=0)
    model = _ensemble([bad], base=[0.0])
    with pytest.raises(MissingCover):
        shapley.TreeShapExplainer(model).attribute(np.zeros(3))


def test_empty_sample_rejected():
    model = _ensemble([_tree([], [1.0], [5])], base=[0.0])
    with pytest.raises(EmptySample):
        shapley.global_importance(model, np.zeros((0, 3)))


def test_dominance_on_two_cluster_synthetic():
    from vaxclust import synth
    from vaxclust.evaluation import dataset_design

    spec = synth.default_spec(year=2021, k=2, n_per_cluster=(40, 40), seed=21)
    dataset, truth = synth.generate(spec)
    numeric, categorical, numeric_names, cat_names = dataset_design(dataset)
    model = gbdt.fit(numeric, categorical, truth, TrainConfig(n_trees=60, depth=4, seed=21),
                     numeric_names=numeric_names, categorical_names=cat_names)
    design = model.encode_features(numeric, categorical)
    importance = shapley.global_importance(model, design)
    by_name = dict(zip(importance.feature_names, importance.values))
    signal = {"english_proficiency", "ethnic_minority", "born_outside_uk", "rurality"}
    weakest_signal = min(by_name[f] for f in signal)
    strongest_noise = max(v for f, v in by_name.items() if f not in signal)
    assert weakest_signal > strongest_noise
