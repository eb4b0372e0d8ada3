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
  of Linear TreeSHAP, Bifet et al. 2022). Only leaves with a nonzero value
  are summed: the cost per decision pattern is O(leaves * u * ceil(u / 2))
  at any depth, with no 2^u or 2^depth factor. Where the row disagrees with
  a leaf at a player whose z is 0, that player's factor is exactly +0.0, so
  every term of the leaf is ±0.0, and adding ±0.0 to a sum begun at +0.0
  changes no bit. A fitted model has no such term: a leaf without training
  rows gets the value ±0.0, so every z on a valued leaf's path is > 0.

  The explainer pays per model, not per tree. It reads the model's
  :class:`~vaxclust.gbdt.Forest` arrays and builds one term table for all
  trees in a few passes over the flat leaf arrays, the trees ranked by
  player count. ``explain`` reads the decision patterns of a block of trees
  for all rows at once through :meth:`~vaxclust.gbdt.Forest.leaves`,
  attributes each distinct (tree, pattern) pair once and adds the results
  onto the rows, as GPUTreeShap batches all paths of an ensemble (Mitchell
  et al. 2022). The pairs are attributed in chunks of one quadrature node
  count ceil(u / 2), so a chunk may hold trees with 2m - 1 and 2m players.
  Where it mixes the two, the smaller trees get a last padding player whose
  factor is set to exactly 1.0; (1 - t) + t would not be exactly 1.0 in
  floating point. Multiplying by exactly 1.0 changes no product, and as the
  last factor it changes no product's order, so padded terms keep their
  bits. Every sum adds the same numbers in the same order as a
  tree-at-a-time loop: a pair's terms in leaf order, a row's trees in model
  order. The result does not depend on the batch, the blocks or the
  chunking.
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

from . import gbdt
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
        return [(self.feature_names[j], float(self.values[j])) for j in rank_order(self.values)]


def rank_order(values) -> list[int]:
    """Indices by descending value, ties by index: every importance table's rank order."""
    return sorted(range(len(values)), key=lambda j: (-values[j], j))


# brute_force_shapley enumerates 2^d feature subsets
_MAX_BRUTE_FORCE_FEATURES = 20


@functools.lru_cache(maxsize=None)
def _gauss_legendre(u: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, 1] exact for polynomials of degree < u."""
    nodes, weights = np.polynomial.legendre.leggauss(max(1, (u + 1) // 2))
    return (nodes + 1.0) / 2.0, weights / 2.0


def _leaf_terms(forest, values, trees, n_terms, player, width):
    """(leaf, value, zero) of the ``n_terms`` leaves with a nonzero value of
    ``trees``, in (tree, leaf) order, built in passes over the
    :func:`gbdt._blocks` of at most ``gbdt._WORK_BUDGET`` (leaf, player)
    cells, or one tree's: per term its leaf index, its value (``values`` are
    the forest's leaf values with shrinkage folded in) and its z per player,
    ``width`` rows of them, 1.0 past a tree's players.

    ``player`` is the player of each (tree, level). The cover of a leaf's
    depth-m node sums the integer covers of the leaves that share its m low
    bits, which is exact in any order.
    """
    offset = forest.leaf_offset
    counts = 1 << forest.n_levels[trees]
    terms = (np.empty(n_terms, np.int64), np.empty(n_terms), np.empty((width, n_terms)))
    filled = 0
    # width is 0 only for a model without players, which has no trees here
    for begin, end in gbdt._blocks(counts, gbdt._WORK_BUDGET // max(1, width)):
        block, sizes = trees[begin:end], counts[begin:end]
        firsts = np.cumsum(sizes) - sizes
        local = np.repeat(np.arange(block.size), sizes)  # each leaf's tree in the block
        leaf = np.arange(firsts[-1] + sizes[-1]) - firsts[local]
        at = offset[block][local] + leaf
        cover = forest.leaf_cover[at].astype(np.float64)
        keep = np.flatnonzero(values[at] != 0.0)
        tree, node_key = local[keep], firsts[local]
        levels = forest.n_levels[block][tree]
        players = player[block][tree]
        # each player's z: 1.0 times the cover fractions of its levels, in level order
        zero = np.ones((width, keep.size))
        node = np.bincount(local, weights=cover)[tree]  # the root's cover
        for level in range(int(levels.max(initial=0))):
            key = node_key + (leaf & ((2 << level) - 1))
            child = np.bincount(key, weights=cover, minlength=leaf.size)[key[keep]]
            fraction = np.divide(child, node, out=np.zeros(keep.size), where=node > 0)
            zero[players[:, level], np.arange(keep.size)] *= np.where(level < levels, fraction, 1.0)
            node = child
        for column, part in zip(terms, (leaf[keep], values[at[keep]], zero)):
            column[..., filled : filled + keep.size] = part
        filled += keep.size
    return terms


def _others(factors: np.ndarray) -> np.ndarray:
    """Per player (axis 0), the product of the other players' factors: the cumprod of those before
    it times the cumprod, from the last down, of those after it, in one loop over the players, which
    beats ``np.cumprod``'s one short lane per (node, term) on many-tree models, with the same bits."""
    others, after = np.ones_like(factors), np.ones_like(factors)
    for s in range(1, factors.shape[0]):
        np.multiply(others[s - 1], factors[s - 1], out=others[s])
        np.multiply(after[-s], factors[-s], out=after[-s - 1])
    others *= after
    return others


class TreeShapExplainer:
    """One leaf-term table for the whole model; attributions for any batch
    of rows.

    A row enters a tree only through its per-level decisions. :meth:`explain`
    reads them for a block of trees at a time, attributes each distinct
    (tree, pattern) pair once and adds the results onto the rows.
    """

    def __init__(self, model: TreeEnsemble):
        self.model = model
        self.n_features = model.n_features
        forest = model.forest
        n_trees = len(forest)
        n_levels, classes = forest.n_levels, forest.class_index
        depth = max(1, forest.split_column.shape[1])  # one padded level at least, for argmax

        # (tree, level) split columns, -1 on unused levels
        real = np.arange(depth) < n_levels[:, None]
        columns = np.full((n_trees, depth), -1, dtype=np.int64)
        columns[real] = forest.split_column[real[:, : forest.split_column.shape[1]]]
        # players: a tree's distinct columns, numbered by first appearance
        first = (columns[:, :, None] == columns[:, None, :]).argmax(axis=2)
        leads = (first == np.arange(depth)) & real
        player = np.take_along_axis(np.cumsum(leads, axis=1) - 1, first, axis=1)
        n_players = leads.sum(axis=1)
        widths = (n_players + 1) // 2 * 2  # trees with ceil(u / 2) quadrature nodes share a width
        width = int(widths.max(initial=0))
        masks = np.zeros((max(depth, width), n_trees), dtype=np.int64)  # levels of each player as leaf-index bits
        np.add.at(masks, (player, np.arange(n_trees)[:, None]), real << np.arange(depth))

        # each tree's expected value, from its own dot product as numpy sums it
        values = model.learning_rate * forest.leaf_values
        firsts = forest.leaf_offset[:-1]
        covered = np.add.reduceat(forest.leaf_cover, firsts)  # integer sums, exact in any order
        if np.any(covered <= 0):
            raise MissingCover("tree has no populated leaf_cover")
        bounds = forest.leaf_offset.tolist()
        expected = [
            float(values[a:b] @ forest.leaf_cover[a:b].astype(np.float64)) / float(total)
            for a, b, total in zip(bounds, bounds[1:], covered.tolist())
        ]
        self.base = np.bincount(
            np.concatenate([np.arange(model.n_outputs), classes]),
            weights=np.concatenate([np.asarray(model.base_score, dtype=np.float64), expected]),
            minlength=model.n_outputs,
        )

        # trees with players, ranked by (player count, tree), and the term
        # table of their valued leaves in rank order, leaf order within a
        # tree: per term its leaf index, its value with shrinkage folded in
        # and z per player (1.0 for a padding player)
        ranked = np.flatnonzero(n_players > 0)  # in model order
        order = ranked[np.argsort(n_players[ranked], kind="stable")]
        valued = np.add.reduceat(values != 0.0, firsts, dtype=np.int64)[order]
        self._leaf, self._value, self._zero = _leaf_terms(forest, values, order, int(valued.sum()), player, width)
        # per rank: player count, width, first term, term count and the
        # levels of each player as leaf-index bits (0 for a padding player)
        self._players = n_players[order]
        self._widths = widths[order]
        self._starts = np.cumsum(valued) - valued
        self._counts = valued
        self._masks = masks[:width, order]

        self._depth = depth
        self._width = width
        # per tree with players, in model order: its index in the forest,
        # its rank and the end of its players in the scatter table
        rank_of = np.zeros(n_trees, dtype=np.int64)
        rank_of[order] = np.arange(order.size)
        self._ranked = ranked
        self._rank = rank_of[ranked]
        self._player_ends = np.cumsum(n_players[ranked])
        # the scatter table: every player of every tree, in tree order
        tree_of, level_of = np.nonzero(leads)
        self._player_tree = (np.cumsum(n_players > 0) - 1)[tree_of]  # its tree's place among ``ranked``
        self._player_index = np.cumsum(leads, axis=1)[leads] - 1
        self._player_slot = classes[tree_of] * self.n_features + columns[tree_of, level_of]

    def _phi(self, ranks, patterns, out) -> None:
        """Write the (pair, player) attributions of (tree rank, decision
        pattern) pairs, sorted by rank, into the rows of ``out``; a tree
        with fewer players than its chunk's width leaves the slots past
        them without meaning.

        A pattern holds a row's per-level decisions (bit l set: went right at
        level l). Each (pair, player) slot sums its own terms in leaf order,
        so a result depends neither on the batch nor on the chunking. The
        pairs go in chunks of one node-count width, 2m for the trees with
        2m - 1 or 2m players, all of which take m quadrature nodes: ranks run
        in player-count order, so each width is one run, which
        :func:`gbdt._blocks` cuts at ``gbdt._WORK_BUDGET`` (node, term,
        player) cells. A chunk with trees of both player counts pads the
        smaller ones: the padding player's factor is exactly 1.0, and it
        comes last, so every product of the other factors has the bits it
        has without it.
        """
        widths = self._widths[ranks]
        sizes = self._counts[ranks]
        _, runs, run_sizes = np.unique(widths, return_index=True, return_counts=True)
        for run, run_size in zip(runs.tolist(), run_sizes.tolist()):
            u = int(widths[run])
            nodes, weights = _gauss_legendre(u)
            cap = gbdt._WORK_BUDGET // (u * nodes.size)  # terms per chunk
            for first, last in gbdt._blocks(sizes[run : run + run_size], cap):
                begin, end = run + first, run + last
                tree, counts = ranks[begin:end], sizes[begin:end]
                ends = np.cumsum(counts)
                pair = np.repeat(np.arange(tree.size), counts)
                term = np.arange(ends[-1]) + np.repeat(self._starts[tree] - (ends - counts), counts)
                disagree = patterns[begin:end][pair] ^ self._leaf[term]
                players = self._players[tree]
                v = int(players.max())  # the chunk's width: u - 1 if no tree has more players
                # (player, term) agreements o and cover products z, and the
                # (player, quadrature node, term) factors z (1 - t) + o t
                one = ((disagree & self._masks[:v, tree[pair]]) == 0).astype(np.float64)
                zero = self._zero[:v, term]
                factors = zero[:, None, :] * (1.0 - nodes)[:, None]
                factors += one[:, None, :] * nodes[:, None]
                short = players < v
                if short.any():
                    factors[-1][:, short[pair]] = 1.0
                others = _others(factors)  # a player's integrand at each node
                integral = weights[0] * others[:, 0]
                for k in range(1, nodes.size):
                    integral += weights[k] * others[:, k]
                terms = (one - zero) * integral * self._value[term]
                slots = (pair * v + np.arange(v)[:, None]).ravel()
                out[begin:end, :v] = np.bincount(slots, weights=terms.ravel(), minlength=tree.size * v).reshape(-1, v)

    def explain(self, design) -> np.ndarray:
        """(n_rows, n_outputs, n_features) margin-space phi for an encoded design.

        Every row goes in one pass, and the trees in :func:`gbdt._blocks`,
        in model order, whose (row, tree player) scatter entries stay within
        ``gbdt._WORK_BUDGET`` or are one tree's, no more than phi's cells: a
        tree has at most ``n_features`` players. A block reads its trees'
        decision patterns for every row through
        :meth:`~vaxclust.gbdt.Forest.leaves`, attributes each distinct
        (tree, pattern) pair once in one :meth:`_phi` call over the one term
        table (the pairs come out of ``np.unique`` sorted by rank, so its
        node-count chunks need no routing) and adds the results onto the
        rows with ``np.add.at``, which adds in order: a slot sums its trees
        in model order, across blocks as within one.
        """
        design = np.atleast_2d(np.asarray(design, dtype=np.float64))
        if design.shape[1] != self.n_features:
            raise FeatureArityMismatch(f"expected {self.n_features} features, got {design.shape[1]}")
        n_rows = design.shape[0]
        width = self.model.n_outputs * self.n_features
        phi = np.zeros((n_rows, width))
        ends, players = self._player_ends, self._players[self._rank]
        row_slot = np.arange(n_rows)[:, None] * width  # each row's first slot of phi
        for first, last in gbdt._blocks(players, gbdt._WORK_BUDGET // max(1, n_rows)):
            trees = slice(first, last)
            patterns = self.model.forest.leaves(design, self._ranked[trees]) | (self._rank[trees] << self._depth)
            pairs, inverse = np.unique(patterns.ravel(), return_inverse=True)
            pair_phi = np.empty((pairs.size, self._width))
            self._phi(pairs >> self._depth, pairs & ((1 << self._depth) - 1), pair_phi)
            entries = slice(ends[first] - players[first], ends[last - 1])
            at = inverse.reshape(patterns.shape)[:, self._player_tree[entries] - first]
            slots = row_slot + self._player_slot[entries]
            np.add.at(phi.reshape(-1), slots.ravel(), pair_phi[at, self._player_index[entries]].ravel())
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

    # sources in order of first appearance; each one's columns add in column order from +0.0
    source_of = {name: i for i, name in enumerate(dict.fromkeys(model.feature_source))}
    source = np.array([source_of[name] for name in model.feature_source], dtype=np.intp)
    values = np.bincount(source, weights=per_column, minlength=len(source_of))
    return GlobalImportance(feature_names=tuple(source_of), values=values)


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
