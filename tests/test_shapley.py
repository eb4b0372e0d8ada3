from __future__ import annotations

import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_oblivious_model
from vaxclust import gbdt, shapley
from vaxclust.errors import EmptySample, FeatureArityMismatch, MissingCover, TooManyFeatures
from vaxclust.gbdt import Forest, ObliviousTree, TrainConfig, TreeEnsemble


class _OracleTerms:
    """One tree's leaves in the closed form of its Shapley values: the
    per-tree explainer the one-table :class:`shapley.TreeShapExplainer`
    replaced, kept as the reference for its bits.

    The players are the tree's distinct design columns (``columns``);
    ``level_masks[s]`` holds, as leaf-index bits, the levels split on
    columns[s]. Only leaves with a nonzero value carry terms. Per kept leaf:
    its index, its value with shrinkage folded in, ``zero[:, s]`` — the
    product of the cover fractions of its path at the levels of player s
    (0 below an empty node) — and ``empty_masks``, the levels of the players
    whose fraction is 0, on which a row must agree with the leaf for the leaf
    to count at all.
    """

    def __init__(self, tree, learning_rate):
        if tree.leaf_cover is None or np.sum(tree.leaf_cover) <= 0:
            raise MissingCover("tree has no populated leaf_cover")
        cover = np.asarray(tree.leaf_cover, dtype=np.float64)
        values = learning_rate * np.asarray(tree.leaf_values, dtype=np.float64)
        self.class_index = tree.class_index
        self.expected = float(values @ cover) / float(cover.sum())  # v(empty coalition)

        features = [f for f, _ in tree.splits]
        columns = list(dict.fromkeys(features))
        player = [columns.index(f) for f in features]
        first = [features.index(c) for c in columns]  # each player's first level
        masks = [0] * len(columns)
        for level, p in enumerate(player):
            masks[p] |= 1 << level
        self.columns = np.array(columns, dtype=np.int64)
        self.level_masks = np.array(masks, dtype=np.int64)

        # node covers depth by depth; the depth-m node whose level decisions
        # are the m low bits of i sits at node_cover[2^m - 1 + i]
        covers = [cover]
        for level in range(tree.n_levels - 1, -1, -1):
            covers.insert(0, covers[0][: 1 << level] + covers[0][1 << level :])
        node_cover = np.concatenate(covers)
        prefix = np.array([(1 << m) - 1 for m in range(tree.n_levels + 1)], dtype=np.int64)

        self.leaves = np.flatnonzero(values)
        self.values = values[self.leaves]
        path = node_cover[prefix + (self.leaves[:, None] & prefix)]  # (leaf, depth) covers
        fraction = np.divide(
            path[:, 1:], path[:, :-1], out=np.zeros((self.leaves.size, tree.n_levels)), where=path[:, :-1] > 0
        )
        # each player's z: the product of its levels' fractions, in level order
        self.zero = fraction[:, first]
        for level, p in enumerate(player):
            if level != first[p]:
                self.zero[:, p] *= fraction[:, level]
        self.empty_masks = (self.zero == 0.0) @ self.level_masks

    def phi(self, patterns):
        """(len(patterns), len(columns)) attributions for decision patterns
        (bit l set: went right at level l), one pattern at a time."""
        u = self.columns.size
        nodes, weights = shapley._gauss_legendre(u)
        out = np.zeros((patterns.size, u))
        for i, pattern in enumerate(patterns):
            disagree = pattern ^ self.leaves
            leaf = np.flatnonzero((disagree & self.empty_masks) == 0)
            one = ((disagree[leaf][:, None] & self.level_masks) == 0).astype(np.float64)
            zero = self.zero[leaf]
            # (quadrature node, term, player) factors z (1 - t) + o t; a
            # player's integrand is the product of the other players' factors
            factors = zero * (1.0 - nodes)[:, None, None] + one * nodes[:, None, None]
            before = np.ones_like(factors)
            after = np.ones_like(factors)
            np.cumprod(factors[:, :, :-1], axis=2, out=before[:, :, 1:])
            np.cumprod(factors[:, :, :0:-1], axis=2, out=after[:, :, -2::-1])
            others = before * after
            integral = weights[0] * others[0]
            for w, product in zip(weights[1:], others[1:]):
                integral += w * product
            terms = (one - zero) * integral * self.values[leaf][:, None]
            out[i] = np.bincount(np.tile(np.arange(u), leaf.size), weights=terms.ravel(), minlength=u)
        return out


def _oracle_explain(model, design):
    """(phi, base) of the per-tree explainer: each tree's distinct patterns
    attributed on their own, added onto the rows tree after tree."""
    terms = [_OracleTerms(t, model.learning_rate) for t in model.trees]
    base = np.array(model.base_score, dtype=np.float64)
    for tree_terms in terms:
        base[tree_terms.class_index] += tree_terms.expected
    design = np.atleast_2d(np.asarray(design, dtype=np.float64))
    phi = np.zeros((design.shape[0], model.n_outputs, model.n_features))
    for tree, tree_terms in zip(model.trees, terms):
        if tree_terms.columns.size == 0:
            continue
        patterns, inverse = np.unique(tree.leaf_indices(design), return_inverse=True)
        phi[:, tree_terms.class_index, tree_terms.columns] += tree_terms.phi(patterns)[inverse]
    return phi, base


def _ensemble(trees, base, lr=1.0, n_features=3, n_classes=2):
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


def _fold_models():
    """Depth-6 models trained on the folds of synthetic years, each with its
    held-out design, as the pipeline explains them."""
    from vaxclust import synth
    from vaxclust.evaluation import dataset_design, stratified_folds

    for k in (2, 3, 6):
        spec = synth.default_spec(year=2021, k=k, n_per_cluster=(75 // k,) * k, seed=30 + k)
        dataset, truth = synth.generate(spec)
        numeric, categorical, numeric_names, cat_names = dataset_design(dataset)
        folds = stratified_folds(truth, 3, k)
        for fold in range(3):
            train = folds != fold
            model = gbdt.fit(numeric[train], categorical[train], truth[train],
                             TrainConfig(n_trees=6, depth=6, seed=fold),
                             numeric_names=numeric_names, categorical_names=cat_names)
            yield model, model.encode_features(numeric[~train], categorical[~train])


def _assert_oracle_bits(model, design):
    explainer = shapley.TreeShapExplainer(model)
    phi, base = _oracle_explain(model, design)
    assert explainer.explain(design).tobytes() == phi.tobytes()
    assert explainer.base.tobytes() == base.tobytes()
    for row, row_phi in zip(design[:3], phi):
        assert explainer.attribute(row).phi.tobytes() == row_phi.tobytes()


def test_explain_matches_per_tree_oracle_bit_for_bit(rng):
    # random ensembles of depth 0-12 (zero-level trees, repeated columns and
    # leaves without training rows among them), k 2/3/6, batches and single
    # rows (the path of a one-row attribute call)
    seen = {"zero_level": 0, "repeated": 0, "empty_leaf": 0}
    for trial in range(60):
        n_classes = (2, 3, 6)[trial % 3]
        d = int(rng.integers(1, 8))
        max_depth = int(rng.integers(0, 13))
        model = random_oblivious_model(rng, n_features=d, n_classes=n_classes,
                                       max_trees=3 if max_depth > 8 else 12, max_depth=max_depth)
        seen["zero_level"] += sum(t.n_levels == 0 for t in model.trees)
        seen["repeated"] += sum(len({f for f, _ in t.splits}) < t.n_levels for t in model.trees)
        seen["empty_leaf"] += sum(int(np.sum(t.leaf_cover == 0)) for t in model.trees)
        _assert_oracle_bits(model, rng.normal(size=(int(rng.integers(1, 30)), d)))
    assert all(seen.values()), seen
    deepest = 0
    for model, design in _fold_models():
        deepest = max(deepest, *(t.n_levels for t in model.trees))
        _assert_oracle_bits(model, design)
    assert deepest == 6


def _others_by_loops(factors):
    """The product of the other players' factors as two hand-written loops,
    kept as the reference: a running product from the first player up and
    one from the last player down, multiplied together."""
    v = factors.shape[0]
    others = np.empty_like(factors)
    after = np.empty_like(factors)
    others[0] = after[-1] = 1.0
    for s in range(1, v):
        np.multiply(others[s - 1], factors[s - 1], out=others[s])
    for s in range(v - 2, -1, -1):
        np.multiply(after[s + 1], factors[s + 1], out=after[s])
    others *= after
    return others


@settings(max_examples=200, deadline=None)
@given(
    players=st.integers(1, 16),
    nodes=st.integers(1, 8),
    terms=st.one_of(st.just(1), st.integers(1, 40)),
    seed=st.integers(0, 2**32 - 1),
)
def test_others_match_the_product_loops_and_cumprods_bit_for_bit(players, nodes, terms, seed):
    # factors in [0, 1] as z (1 - t) + o t gives them, with exact zeros, the
    # padding player's exact ones and tiny values among them
    rng = np.random.default_rng(seed)
    factors = rng.random((players, nodes, terms))
    pick = rng.random(factors.shape)
    factors[pick < 0.1] = 0.0
    factors[pick > 0.9] = 1.0
    factors[(pick > 0.4) & (pick < 0.5)] **= 60
    got = shapley._others(factors).tobytes()
    assert got == _others_by_loops(factors).tobytes()
    cumprods = np.ones_like(factors)
    np.cumprod(factors[:-1], axis=0, out=cumprods[1:])
    cumprods[:-1] *= np.cumprod(factors[:0:-1], axis=0)[::-1]
    assert got == cumprods.tobytes()


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
            # one (tree, pattern) pair per term chunk, one tree per block
            patch.setattr(gbdt, "_WORK_BUDGET", 1)
            assert np.array_equal(shapley.TreeShapExplainer(model).explain(rows), batch)


def test_node_count_group_pads_bit_for_bit(rng):
    # three and four players take two quadrature nodes each, so these trees
    # share one node-count width, and its chunks pad the three-player trees
    three = [(0, 0.1), (1, -0.2), (2, 0.3)]
    four = [(3, 0.2), (0, 0.0), (1, 0.5), (2, -0.5)]
    trees = [
        _tree(splits, rng.normal(size=1 << len(splits)), rng.integers(1, 9, size=1 << len(splits)), c)
        for splits, c in ((three, 0), (four, 1), (three[::-1], 2), (four[::-1], 0))
    ]
    model = _ensemble(trees, base=[0.1, -0.2, 0.3], lr=0.3, n_features=4, n_classes=3)
    explainer = shapley.TreeShapExplainer(model)
    assert explainer._widths.tolist() == [4, 4, 4, 4]
    assert explainer._players.tolist() == [3, 3, 4, 4]
    _assert_oracle_bits(model, rng.normal(size=(25, 4)))


def _large_fold_model(rng, n_trees, depth, n_features, n_classes, n_train):
    """A random model shaped like a trained fold model: every tree at full
    depth, covers from ``n_train`` training rows."""
    X = rng.normal(size=(n_train, n_features))
    columns = rng.integers(0, n_features, size=(n_trees, depth))
    thresholds = rng.normal(size=(n_trees, depth)) * 0.5
    leaf = ((X[:, columns] > thresholds) << np.arange(depth)).sum(axis=2) + (np.arange(n_trees) << depth)
    forest = Forest(
        split_column=columns,
        split_threshold=thresholds,
        n_levels=np.full(n_trees, depth),
        class_index=np.arange(n_trees) % n_classes,
        leaf_values=rng.normal(size=n_trees << depth),
        leaf_cover=np.bincount(leaf.ravel(), minlength=n_trees << depth),
    )
    return replace(_ensemble([], base=np.zeros(n_classes), lr=0.1, n_features=n_features, n_classes=n_classes),
                   forest=forest)


def test_explain_memory_stays_small_on_a_large_model(rng):
    # 2,500 depth-6 trees of a k=6 model explaining 30 rows: one np.unique
    # over all (row, tree) patterns and every pair's phi at once peaked at 5.8 MB
    model = _large_fold_model(rng, n_trees=2500, depth=6, n_features=14, n_classes=6, n_train=120)
    explainer = shapley.TreeShapExplainer(model)
    rows = rng.normal(size=(30, 14))
    tracemalloc.start()
    try:
        phi = explainer.explain(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6
    margins = gbdt.margin_from_design(model, rows)
    assert np.abs(phi.sum(axis=2) + explainer.base - margins).max() < 1e-9


def test_explain_many_rows_in_one_pass(rng, monkeypatch):
    # 3,000 rows of a depth-12 k=6 model go in one pass: most trees are a
    # block of their own, and the work arrays stay within a bound sized from
    # phi, not from rows x trees
    X = rng.normal(size=(150, 8))
    y = np.digitize(X[:, 0] + 0.5 * X[:, 1], [-1.0, -0.4, 0.0, 0.4, 1.0])
    model = gbdt.fit(X, rng.integers(1, 7, size=(150, 1)), y, TrainConfig(n_trees=5, depth=12, seed=3))
    assert model.n_outputs == 6 and int(model.forest.n_levels.max()) == 12
    design = model.encode_features(rng.normal(size=(3000, 8)), rng.integers(1, 7, size=(3000, 1)))
    explainer = shapley.TreeShapExplainer(model)
    tracemalloc.start()
    try:
        phi = explainer.explain(design)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * phi.nbytes + (2 << 20), peak
    # every tree in one block: the same bits
    monkeypatch.setattr(gbdt, "_WORK_BUDGET", len(design) * int(explainer._players.sum()))
    assert explainer.explain(design).tobytes() == phi.tobytes()


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


def _importance_by_loop(feature_source, phi):
    """The per-column loop that ``importance_of`` replaced, kept as its
    oracle: (source names, values)."""
    per_column = np.abs(phi).sum(axis=0).mean(axis=0) / phi.shape[0]
    source_names: list[str] = []
    source_of: dict[str, int] = {}
    for name in feature_source:
        if name not in source_of:
            source_of[name] = len(source_names)
            source_names.append(name)
    values = np.zeros(len(source_names))
    for col, name in enumerate(feature_source):
        values[source_of[name]] += per_column[col]
    return tuple(source_names), values


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    sources=st.lists(st.sampled_from(["a", "b", "rurality", "d"]), min_size=1, max_size=9),
    n_rows=st.integers(1, 5),
    n_outputs=st.integers(1, 3),
)
def test_importance_of_matches_the_column_loop(data, sources, n_rows, n_outputs):
    # one source's columns need not be adjacent; zeros of both signs
    values = st.one_of(st.sampled_from([-0.0, 0.0]), st.floats(-1e6, 1e6, allow_nan=False))
    size = n_rows * n_outputs * len(sources)
    phi = np.array(data.draw(st.lists(values, min_size=size, max_size=size))).reshape(n_rows, n_outputs, -1)
    got = shapley.importance_of(SimpleNamespace(feature_source=tuple(sources)), phi)
    names, want = _importance_by_loop(sources, phi)
    assert got.feature_names == names
    assert got.values.tobytes() == want.tobytes()


def test_fold_average():
    g1 = shapley.GlobalImportance(("a", "b"), np.array([1.0, 3.0]))
    g2 = shapley.GlobalImportance(("a", "b"), np.array([3.0, 1.0]))
    avg = shapley.fold_average([g1, g2])
    assert avg.values.tolist() == [2.0, 2.0]
    with pytest.raises(EmptySample):
        shapley.fold_average([])
    with pytest.raises(FeatureArityMismatch):
        shapley.fold_average([g1, shapley.GlobalImportance(("b", "a"), np.array([3.0, 1.0]))])


def test_ranking_sorted_desc():
    g = shapley.GlobalImportance(("a", "b", "c"), np.array([0.2, 0.9, 0.5]))
    assert [name for name, _ in g.ranking()] == ["b", "c", "a"]


def test_too_many_features():
    # raised before any of the 2^21 subsets is enumerated
    model = _ensemble([_tree([], [0.0], [1])], base=[0.0], n_features=21)
    with pytest.raises(TooManyFeatures):
        shapley.brute_force_shapley(model, np.zeros(21))


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
