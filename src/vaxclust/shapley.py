"""Exact Shapley attribution for the boosted oblivious-tree ensembles.

Two independent routes to the same quantity:

* :class:`TreeShapExplainer` — path-dependent TreeSHAP in closed form, one
  sum over leaves per tree. Conditional expectations for features outside a
  coalition follow the training-cover proportions stored on each tree, so no
  background dataset is needed. For one tree and one row, the value of a
  coalition S of the tree's u split columns (its players) is

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
  whose z is 0, so only valued leaves and the row's own path below an empty
  node are summed: the cost per decision pattern is
  O(leaves * u * ceil(u / 2)) at any depth, with no 2^u or 2^depth factor.

  The explainer pays per model, not per tree. It builds one leaf-term table
  for all trees at once, and ``explain`` reads every tree's decision
  patterns in one pass, attributes each distinct (tree, pattern) pair once
  and scatters the results onto the rows with one ``bincount``, as
  GPUTreeShap batches all paths of an ensemble (Mitchell et al. 2022). The
  terms are grouped by player count u rather than padded to the largest:
  a padding player's factor (1 - t) + t is not exactly 1.0 in floating
  point, and a larger u would change the node count, so padding would move
  the bits of phi. Grouped, every term is computed with its own tree's u
  and nodes, and every sum adds the same numbers in the same order as a
  tree-at-a-time loop: a pair's terms in leaf order, a row's trees in
  model order. The result does not depend on the batch or its chunking.
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


# Upper bound on the elements of one work array: the (node, term, player)
# factors, the (row, player) scatter entries, the (tree, leaf, level) covers.
# Larger chunks were no faster on the benchmark workloads and held more memory.
_TERM_BUDGET = 1 << 14

# brute_force_shapley enumerates 2^d feature subsets
_MAX_BRUTE_FORCE_FEATURES = 20


@functools.lru_cache(maxsize=None)
def _gauss_legendre(u: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, 1] exact for polynomials of degree < u."""
    nodes, weights = np.polynomial.legendre.leggauss(max(1, (u + 1) // 2))
    return (nodes + 1.0) / 2.0, weights / 2.0


@dataclass(frozen=True)
class _TermGroup:
    """The leaf terms of every tree with ``u`` players, in rank order.

    The group's trees are those of ranks ``first_rank`` onward; the i-th
    owns terms ``start[i]`` to ``start[i] + count[i]``, in leaf order, and
    ``masks[i, s]`` holds the levels split on its player s as leaf-index
    bits. Per term: its leaf index, its value with shrinkage folded in,
    ``zero[:, s]`` (the product of the cover fractions of its path at the
    levels of player s, 0 below an empty node) and ``empty``, the levels of
    the players whose z is 0, on which a row must agree with the leaf for
    the term to count.
    """

    u: int
    first_rank: int
    start: np.ndarray
    count: np.ndarray
    masks: np.ndarray  # (trees, u)
    leaf: np.ndarray
    value: np.ndarray
    zero: np.ndarray  # (terms, u)
    empty: np.ndarray

    def phi(self, ranks, patterns, out) -> None:
        """Write the flat (pair, player) attributions of (tree rank, decision
        pattern) pairs of this group into ``out``.

        A pattern holds a row's per-level decisions (bit l set: went right at
        level l). Each (pair, player) slot sums its own terms in leaf order,
        so a result depends neither on the batch nor on the chunking.
        """
        u = self.u
        nodes, weights = _gauss_legendre(u)
        step = max(1, _TERM_BUDGET // max(1, int(self.count.max()) * u * nodes.size))
        for begin in range(0, ranks.size, step):
            tree = ranks[begin : begin + step] - self.first_rank
            counts = self.count[tree]
            ends = np.cumsum(counts)
            pair = np.repeat(np.arange(tree.size), counts)
            term = np.arange(ends[-1]) + np.repeat(self.start[tree] - (ends - counts), counts)
            disagree = patterns[begin : begin + step][pair] ^ self.leaf[term]
            hit = np.flatnonzero((disagree & self.empty[term]) == 0)
            pair, term, disagree = pair[hit], term[hit], disagree[hit]
            one = ((disagree[:, None] & self.masks[tree[pair]]) == 0).astype(np.float64)
            zero = self.zero[term]
            # (quadrature node, term, player) factors z (1 - t) + o t; a
            # player's integrand is the product of the other players' factors
            factors = zero * (1.0 - nodes)[:, None, None]
            factors += one * nodes[:, None, None]
            others = np.ones_like(factors)  # the product of the factors before, then after
            after = np.ones_like(factors)
            np.cumprod(factors[:, :, :-1], axis=2, out=others[:, :, 1:])
            np.cumprod(factors[:, :, :0:-1], axis=2, out=after[:, :, -2::-1])
            others *= after
            integral = weights[0] * others[0]
            for w, product in zip(weights[1:], others[1:]):
                integral += w * product
            terms = (one - zero) * integral * self.value[term][:, None]
            slots = (pair[:, None] * u + np.arange(u)).ravel()
            out[begin * u : (begin + tree.size) * u] = np.bincount(
                slots, weights=terms.ravel(), minlength=tree.size * u
            )


def _runs(trees: np.ndarray, levels: int) -> list[np.ndarray]:
    """``trees``, all with ``levels`` levels, in runs whose (tree, leaf,
    depth) tables hold at most ``_TERM_BUDGET`` elements (one tree at least)."""
    step = max(1, _TERM_BUDGET // ((1 << levels) * (levels + 1)))
    return [trees[begin : begin + step] for begin in range(0, trees.size, step)]


def _leaf_tables(model: TreeEnsemble, trees: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(tree, leaf) tables of leaf values, shrinkage folded in, and covers for
    trees of one level count."""
    values = model.learning_rate * np.array([model.trees[i].leaf_values for i in trees], dtype=np.float64)
    return values, np.array([model.trees[i].leaf_cover for i in trees], dtype=np.float64)


def _valued_leaves(values, cover, player, masks):
    """(leaf, value, zero, empty) of each leaf with a nonzero value, in (tree,
    leaf) order, for trees with the same level count.

    ``values`` and ``cover`` are (tree, leaf) tables, ``player`` the player
    of each level and ``masks`` the levels of each player as leaf-index bits.
    """
    n_trees, n_leaves = values.shape
    levels = n_leaves.bit_length() - 1
    # node covers depth by depth; the depth-m node whose level decisions are
    # the m low bits of i sits at node_cover[:, 2^m - 1 + i]
    covers = [cover]
    for level in range(levels - 1, -1, -1):
        covers.insert(0, covers[0][:, : 1 << level] + covers[0][:, 1 << level :])
    node_cover = np.concatenate(covers, axis=1)
    prefix = (1 << np.arange(levels + 1)) - 1
    path = node_cover[:, prefix + (np.arange(n_leaves)[:, None] & prefix)]  # (tree, leaf, depth) covers
    parent = path[:, :, :-1]
    fraction = np.divide(path[:, :, 1:], parent, out=np.zeros(parent.shape), where=parent > 0)
    # each player's z: 1.0 times the fractions of its levels, in level order
    zero = np.ones((n_trees, n_leaves, masks.shape[1]))
    for level in range(levels):
        zero[np.arange(n_trees), :, player[:, level]] *= fraction[:, :, level]
    empty = np.where(zero == 0.0, masks[:, None, :], 0).sum(axis=2)
    tree, leaf = np.nonzero(values)
    return leaf, values[tree, leaf], zero[tree, leaf], empty[tree, leaf]


class TreeShapExplainer:
    """One leaf-term table for the whole model; attributions for any batch of rows.

    A row enters a tree only through its per-level decisions. :meth:`explain`
    reads them for every tree at once, attributes each distinct (tree,
    pattern) pair once and scatters the results back onto the rows.
    """

    def __init__(self, model: TreeEnsemble):
        self.model = model
        self.n_features = model.n_features
        trees = model.trees
        if any(t.leaf_cover is None for t in trees):
            raise MissingCover("tree has no populated leaf_cover")
        n_trees = len(trees)
        n_levels = np.array([t.n_levels for t in trees], dtype=np.int64)
        depth = int(n_levels.max(initial=1))  # one padded level at least, for argmax
        classes = np.array([t.class_index for t in trees], dtype=np.int64)

        # (tree, level) split columns, -1 and threshold +inf on unused levels
        real = np.arange(depth) < n_levels[:, None]
        columns = np.full((n_trees, depth), -1, dtype=np.int64)
        thresholds = np.full((n_trees, depth), np.inf)
        columns[real] = [f for t in trees for f, _ in t.splits]
        thresholds[real] = [x for t in trees for _, x in t.splits]
        # players: a tree's distinct columns, numbered by first appearance
        first = (columns[:, :, None] == columns[:, None, :]).argmax(axis=2)
        leads = (first == np.arange(depth)) & real
        player = np.take_along_axis(np.cumsum(leads, axis=1) - 1, first, axis=1)
        n_players = leads.sum(axis=1)
        masks = np.zeros((n_trees, depth), dtype=np.int64)  # levels of each player as leaf-index bits
        for level in range(depth):
            masks[np.arange(n_trees), player[:, level]] += real[:, level] << level

        # each tree's expected value and count of valued leaves
        expected = np.empty(n_trees)
        valued = np.empty(n_trees, dtype=np.int64)
        for levels in np.unique(n_levels).tolist():
            members = np.flatnonzero(n_levels == levels)
            for at in _runs(members, levels):
                values, cover = _leaf_tables(model, at)
                if np.any(cover.sum(axis=1) <= 0):
                    raise MissingCover("tree has no populated leaf_cover")
                expected[at] = [float(v @ c) / float(c.sum()) for v, c in zip(values, cover)]
                valued[at] = np.count_nonzero(values, axis=1)
        self.base = np.bincount(
            np.concatenate([np.arange(model.n_outputs), classes]),
            weights=np.concatenate([np.asarray(model.base_score, dtype=np.float64), expected]),
            minlength=model.n_outputs,
        )

        # trees with players, ranked by (player count, level count, tree)
        order = np.lexsort((n_levels, n_players))
        order = order[n_players[order] > 0]
        self._groups = []
        for u in np.unique(n_players[order]).tolist():
            ranks = np.flatnonzero(n_players[order] == u)
            counts = valued[order[ranks]]
            group = _TermGroup(
                u=u,
                first_rank=int(ranks[0]),
                start=np.cumsum(counts) - counts,
                count=counts,
                masks=masks[order[ranks], :u],
                leaf=np.empty(counts.sum(), dtype=np.int64),
                value=np.empty(counts.sum()),
                zero=np.empty((counts.sum(), u)),
                empty=np.empty(counts.sum(), dtype=np.int64),
            )
            filled = 0
            for levels in np.unique(n_levels[order[ranks]]).tolist():
                block = order[ranks[n_levels[order[ranks]] == levels]]
                for at in _runs(block, levels):
                    terms = _valued_leaves(*_leaf_tables(model, at), player[at], masks[at, :u])
                    end = filled + terms[0].size
                    for column, part in zip((group.leaf, group.value, group.zero, group.empty), terms):
                        column[filled:end] = part
                    filled = end
            self._groups.append(group)

        self._depth = depth
        self._columns = np.maximum(columns[order], 0).T.copy()  # (level, rank); unused levels read column 0
        self._thresholds = thresholds[order].T.copy()
        self._rank_keys = np.arange(order.size) << depth
        self._rank_players = n_players[order]
        # the scatter table: every player of every tree, in tree order
        rank_of = np.zeros(n_trees, dtype=np.int64)
        rank_of[order] = np.arange(order.size)
        tree_of, level_of = np.nonzero(leads)
        self._player_rank = rank_of[tree_of]
        self._player_index = np.cumsum(leads, axis=1)[leads] - 1
        self._player_slot = classes[tree_of] * self.n_features + columns[tree_of, level_of]

    def explain(self, design) -> np.ndarray:
        """(n_rows, n_outputs, n_features) margin-space phi for an encoded design."""
        design = np.atleast_2d(np.asarray(design, dtype=np.float64))
        if design.shape[1] != self.n_features:
            raise FeatureArityMismatch(f"expected {self.n_features} features, got {design.shape[1]}")
        n_rows = design.shape[0]
        width = self.model.n_outputs * self.n_features
        phi = np.zeros((n_rows, width))
        if n_rows and self._groups:
            patterns = np.broadcast_to(self._rank_keys, (n_rows, self._rank_keys.size)).copy()
            for level, (column, threshold) in enumerate(zip(self._columns, self._thresholds)):
                patterns |= (design[:, column] > threshold).astype(np.int64) << level
            pairs, inverse = np.unique(patterns.ravel(), return_inverse=True)
            inverse = inverse.reshape(patterns.shape)
            ranks = pairs >> self._depth
            low = pairs & ((1 << self._depth) - 1)
            players = self._rank_players[ranks]
            offset = np.cumsum(players) - players  # each pair's first (pair, player) slot
            pair_phi = np.empty(offset[-1] + players[-1])
            bounds = np.searchsorted(ranks, [g.first_rank for g in self._groups[1:]]).tolist()
            for group, a, b in zip(self._groups, [0, *bounds], [*bounds, ranks.size]):
                out = pair_phi[offset[a] : offset[a] + (b - a) * group.u]
                group.phi(ranks[a:b], low[a:b], out)
            # scatter onto (row, output, column), trees in order within a slot
            step = max(1, _TERM_BUDGET // self._player_rank.size)
            for begin in range(0, n_rows, step):
                at = offset[inverse[begin : begin + step, self._player_rank]] + self._player_index
                slots = (np.arange(at.shape[0])[:, None] * width + self._player_slot).ravel()
                phi[begin : begin + step] = np.bincount(
                    slots, weights=pair_phi[at.ravel()], minlength=at.shape[0] * width
                ).reshape(-1, width)
        return phi.reshape(n_rows, self.model.n_outputs, self.n_features)

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


def brute_force_shapley(model: TreeEnsemble, x) -> Attribution:
    """Subset-enumeration Shapley values; oracle for :class:`TreeShapExplainer`.

    phi_j = sum over S not containing j of
            |S|! (d - |S| - 1)! / d! * (v(S + j) - v(S))
    with v(S) the cover-weighted conditional expectation of the margin.
    """
    d = model.n_features
    if d > _MAX_BRUTE_FORCE_FEATURES:
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
    return importance_of(model, TreeShapExplainer(model).explain(design))


def importance_of(model: TreeEnsemble, phi: np.ndarray) -> GlobalImportance:
    """:func:`global_importance` from the (row, output, column) phi that
    :meth:`TreeShapExplainer.explain` gave for the sample rows."""
    if phi.shape[0] == 0:
        raise EmptySample("global importance needs at least one row")
    totals = np.abs(phi).sum(axis=0)
    per_column = totals.mean(axis=0) / phi.shape[0]

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
