"""Exact Shapley attribution for the boosted oblivious-tree ensembles.

Two independent routes to the same quantity:

* :class:`TreeShapExplainer` — path-dependent
  TreeSHAP in closed form, one sum over leaves per tree. Conditional
  expectations for features outside a coalition follow the training-cover
  proportions stored on each tree, so no background dataset is needed. For
  one tree and one row, the value of a coalition S of the tree's u split
  columns is

      v(S) = sum_leaf value * prod_{j in S} o_j * prod_{j not in S} z_j,

  where o_j is 1 if the leaf agrees with the row at every level split on j
  (else 0), and z_j is the product of the leaf path's cover fractions at
  those levels (0 below a node without training rows). The Shapley weight
  |S|! (u - |S| - 1)! / u! is the integral over [0, 1] of
  t^|S| (1 - t)^(u - |S| - 1), so

      phi_j = sum_leaf value * (o_j - z_j) * int_0^1 prod_{i != j} (z_i (1 - t) + o_i t) dt.

  The integrand is a polynomial of degree < u, which Gauss-Legendre
  quadrature with ceil(u / 2) nodes integrates exactly (the quadrature form
  of Linear TreeSHAP, Bifet et al. 2022). A leaf's term vanishes unless its
  value is nonzero and the row agrees with it at the levels of every player
  whose z is 0, so only populated leaves and the row's own path below an
  empty node are summed: the cost per decision pattern is
  O(leaves * u * ceil(u / 2)) at any depth, with no 2^u or 2^depth factor.
* :func:`brute_force_shapley` — the definition, verbatim: for every feature,
  the factorially-weighted average of marginal contributions over all
  feature subsets, with the same cover-based conditional expectation found by
  descending the tree. Only viable for small feature counts; it shares no
  code with the fast path and exists to cross-check it.

Both operate in margin space, per output column (one column for binary
models, one per class for multiclass). Attributions are additive across
trees and satisfy local accuracy: sum(phi) + base == margin.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySample, FeatureArityMismatch, MissingCover, TooManyFeatures
from .gbdt import ObliviousTree, TreeEnsemble


@dataclass(frozen=True)
class Attribution:
    phi: np.ndarray  # (n_outputs, n_features), margin space
    base: np.ndarray  # (n_outputs,) cover-weighted expected margin


@dataclass(frozen=True)
class GlobalImportance:
    """Mean |phi| per source feature over a sample (and over output columns).

    Encoded columns derived from one categorical feature are collapsed back
    onto it by summing their |phi| before averaging, so a categorical
    predictor appears once in rankings.
    """

    feature_names: tuple[str, ...]
    values: np.ndarray  # (n_source_features,)

    def ranking(self) -> list[tuple[str, float]]:
        order = sorted(range(len(self.values)), key=lambda j: (-self.values[j], j))
        return [(self.feature_names[j], float(self.values[j])) for j in order]


# upper bound on the (quadrature node, pattern-leaf term, player) factors held at once
_TERM_BUDGET = 1 << 16


@functools.lru_cache(maxsize=None)
def _gauss_legendre(u: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, 1] exact for polynomials of degree < u."""
    nodes, weights = np.polynomial.legendre.leggauss(max(1, (u + 1) // 2))
    return (nodes + 1.0) / 2.0, weights / 2.0


class _LeafTerms:
    """One tree's leaves in the closed form of its Shapley values.

    The players are the tree's distinct design columns (``columns``);
    ``level_masks[s]`` holds, as leaf-index bits, the levels split on
    columns[s]. Only leaves with a nonzero value carry terms. Per kept leaf:
    its index, its value with shrinkage folded in, ``zero[:, s]`` — the
    product of the cover fractions of its path at the levels of player s
    (0 below an empty node) — and ``empty_masks``, the levels of the players
    whose fraction is 0, on which a row must agree with the leaf for the leaf
    to count at all.
    """

    __slots__ = ("class_index", "columns", "level_masks", "leaves", "values", "zero", "empty_masks", "expected")

    def __init__(self, tree: ObliviousTree, learning_rate: float):
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

    def phi(self, patterns: np.ndarray) -> np.ndarray:
        """(len(patterns), len(columns)) attributions for decision patterns.

        A pattern holds a row's per-level decisions (bit l set: went right at
        level l). Every pattern is computed from its own (pattern, leaf) terms
        in a fixed order, so a row's result does not depend on the batch.
        """
        u = self.columns.size
        nodes, weights = _gauss_legendre(u)
        out = np.zeros(patterns.size * u)
        step = max(1, _TERM_BUDGET // max(1, self.leaves.size * u * nodes.size))
        for start in range(0, patterns.size, step):
            chunk = patterns[start : start + step]
            disagree = chunk[:, None] ^ self.leaves[None, :]
            row, leaf = np.nonzero((disagree & self.empty_masks) == 0)
            one = ((disagree[row, leaf][:, None] & self.level_masks) == 0).astype(np.float64)
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
            slots = (row[:, None] * u + np.arange(u)).ravel()
            out[start * u : (start + chunk.size) * u] = np.bincount(
                slots, weights=terms.ravel(), minlength=chunk.size * u
            )
        return out.reshape(patterns.size, u)


class TreeShapExplainer:
    """Per-tree leaf terms built once; attributions for any batch of rows.

    A row enters a tree only through its per-level decisions, read with
    :meth:`ObliviousTree.leaf_indices`; each distinct decision pattern is
    attributed once and gathered back onto its rows.
    """

    def __init__(self, model: TreeEnsemble):
        self.model = model
        self.n_features = model.n_features
        self.terms = [_LeafTerms(t, model.learning_rate) for t in model.trees]
        base = np.array(model.base_score, dtype=np.float64)
        for terms in self.terms:
            base[terms.class_index] += terms.expected
        self.base = base

    def explain(self, design) -> np.ndarray:
        """(n_rows, n_outputs, n_features) margin-space phi for an encoded design."""
        design = np.atleast_2d(np.asarray(design, dtype=np.float64))
        if design.shape[1] != self.n_features:
            raise FeatureArityMismatch(f"expected {self.n_features} features, got {design.shape[1]}")
        phi = np.zeros((design.shape[0], self.model.n_outputs, self.n_features))
        for tree, terms in zip(self.model.trees, self.terms):
            if terms.columns.size == 0:
                continue
            patterns, inverse = np.unique(tree.leaf_indices(design), return_inverse=True)
            phi[:, terms.class_index, terms.columns] += terms.phi(patterns)[inverse]
        return phi

    def attribute(self, x) -> Attribution:
        x = np.asarray(x, dtype=np.float64).ravel()
        if x.shape[0] != self.n_features:
            raise FeatureArityMismatch(f"expected {self.n_features} features, got {x.shape[0]}")
        return Attribution(phi=self.explain(x[None, :])[0], base=self.base.copy())


class _TreeArrays:
    """Binary-tree form of one oblivious tree for the oracle, shrinkage folded in.

    Heap layout: node i has children 2i+1 / 2i+2; right child means
    feature > threshold. Internal values are cover-weighted child means so
    values[0] is the tree's expected output over the training distribution.
    """

    __slots__ = ("feature", "threshold", "left", "right", "values", "cover", "class_index")

    def __init__(self, tree: ObliviousTree, learning_rate: float):
        levels = tree.n_levels
        if tree.leaf_cover is None or int(np.sum(tree.leaf_cover)) <= 0:
            raise MissingCover("tree has no populated leaf_cover")
        n_nodes = (1 << (levels + 1)) - 1
        n_internal = (1 << levels) - 1
        self.class_index = tree.class_index
        self.feature = np.full(n_nodes, -1, dtype=np.int64)
        self.threshold = np.zeros(n_nodes)
        self.left = np.full(n_nodes, -1, dtype=np.int64)
        self.right = np.full(n_nodes, -1, dtype=np.int64)
        self.values = np.zeros(n_nodes)
        self.cover = np.zeros(n_nodes)

        for node in range(n_internal):
            level = (node + 1).bit_length() - 1
            f, t = tree.splits[level]
            self.feature[node] = f
            self.threshold[node] = t
            self.left[node] = 2 * node + 1
            self.right[node] = 2 * node + 2

        # leaf heap position encodes level decisions MSB-first; the oblivious
        # leaf index uses bit l for level l
        for leaf in range(1 << levels):
            pos = 0
            for level in range(levels):
                bit = (leaf >> level) & 1
                pos = 2 * pos + 1 + bit
            self.values[pos] = learning_rate * float(tree.leaf_values[leaf])
            self.cover[pos] = float(tree.leaf_cover[leaf])

        for node in range(n_internal - 1, -1, -1):
            l, r = self.left[node], self.right[node]
            w = self.cover[l] + self.cover[r]
            self.cover[node] = w
            if w > 0:
                self.values[node] = (
                    self.cover[l] * self.values[l] + self.cover[r] * self.values[r]
                ) / w

    def is_leaf(self, node: int) -> bool:
        return self.left[node] < 0


def _conditional_expectation(arr: _TreeArrays, x: np.ndarray, subset_mask: int, node: int) -> float:
    """Descend following x on coalition features, cover proportions elsewhere."""
    if arr.is_leaf(node):
        return float(arr.values[node])
    f = int(arr.feature[node])
    if (subset_mask >> f) & 1:
        child = arr.right[node] if x[f] > arr.threshold[node] else arr.left[node]
        return _conditional_expectation(arr, x, subset_mask, child)
    w = arr.cover[node]
    if w <= 0:
        return 0.0
    l, r = arr.left[node], arr.right[node]
    return (
        arr.cover[l] * _conditional_expectation(arr, x, subset_mask, l)
        + arr.cover[r] * _conditional_expectation(arr, x, subset_mask, r)
    ) / w


def brute_force_shapley(model: TreeEnsemble, x, feature_subset_limit: int = 20) -> Attribution:
    """Subset-enumeration Shapley values; oracle for :class:`TreeShapExplainer`.

    phi_j = sum over S not containing j of
            |S|! (d - |S| - 1)! / d! * (v(S + j) - v(S))
    with v(S) the cover-weighted conditional expectation of the margin.
    """
    d = model.n_features
    if d > min(feature_subset_limit, 20):
        raise TooManyFeatures(f"{d} features exceeds enumeration limit")
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.shape[0] != d:
        raise FeatureArityMismatch(f"expected {d} features, got {x.shape[0]}")
    arrays = [_TreeArrays(t, model.learning_rate) for t in model.trees]

    # v(S) per output, for every subset bitmask
    n_outputs = model.n_outputs
    v = np.tile(np.asarray(model.base_score, dtype=np.float64), (1 << d, 1))
    for arr in arrays:
        for mask in range(1 << d):
            v[mask, arr.class_index] += _conditional_expectation(arr, x, mask, 0)

    fact = [math.factorial(i) for i in range(d + 1)]
    weight = [fact[s] * fact[d - s - 1] / fact[d] for s in range(d)]

    phi = np.zeros((n_outputs, d))
    for j in range(d):
        bit = 1 << j
        for mask in range(1 << d):
            if mask & bit:
                continue
            s = bin(mask).count("1")
            phi[:, j] += weight[s] * (v[mask | bit] - v[mask])
    return Attribution(phi=phi, base=v[0].copy())


def global_importance(model: TreeEnsemble, design: np.ndarray) -> GlobalImportance:
    """Mean |phi| over sample rows and output columns, per source feature."""
    design = np.atleast_2d(np.asarray(design, dtype=np.float64))
    if design.shape[0] == 0:
        raise EmptySample("global importance needs at least one row")
    totals = np.abs(TreeShapExplainer(model).explain(design)).sum(axis=0)
    per_column = totals.mean(axis=0) / design.shape[0]

    source_names: list[str] = []
    source_of: dict[str, int] = {}
    for name in model.feature_source:
        if name not in source_of:
            source_of[name] = len(source_names)
            source_names.append(name)
    values = np.zeros(len(source_names))
    for col, name in enumerate(model.feature_source):
        values[source_of[name]] += per_column[col]
    return GlobalImportance(feature_names=tuple(source_names), values=values)


def fold_average(importances: list[GlobalImportance]) -> GlobalImportance:
    """Arithmetic mean of per-fold importance vectors (matching features)."""
    if not importances:
        raise EmptySample("no fold importances to average")
    names = importances[0].feature_names
    for imp in importances[1:]:
        if imp.feature_names != names:
            raise FeatureArityMismatch("fold importances disagree on feature names")
    values = np.mean([imp.values for imp in importances], axis=0)
    return GlobalImportance(feature_names=names, values=values)
