"""Agglomerative clustering of districts by vaccination profile.

Ward linkage is the default: merge heights are Ward merge costs, i.e. the
increase in total within-cluster sum of squares caused by a merge,

    cost(A, B) = |A|*|B| / (|A|+|B|) * ||mean(A) - mean(B)||^2

maintained through the Lance-Williams recurrence. Average and complete
linkage are available for comparison; only Ward heights carry the
sum-of-squares meaning.

All tie-breaking is by smallest (left_node, right_node) pair so reruns are
bit-identical. Leaf nodes are 0..n-1; internal nodes n..2n-2 in merge order.

Each merge is the greedy one of a full scan of the cost matrix, found
without it: the agglomeration keeps every active row's minimum cost (the
nearest-neighbour list of Anderberg, the "generic" algorithm of Muellner
2011, arXiv:1109.2378), and the merge height is the least of them. Ties are
decided only in the rows whose minimum equals the height: the left node is
the smallest node among them, the right node its smallest partner at that
height. After the Lance-Williams update the merged row's minimum is that of
its new costs, and another row's is the lesser of its old minimum and its
new cost to the merged cluster, unless the old minimum sat in either merged
column: only those rows are scanned again. On typical data a merge is O(n)
numpy work; NN-chain, which reorders the merges, is not used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import StandardizedMatrix, YearDataset, csv_text
from .errors import DataError, KOutOfRange, NonFiniteInput, TooFewRows

LINKAGES = ("ward", "average", "complete")

# Most rows a distance matrix may have, so that a year too large to cluster
# is a DataError on every host rather than a MemoryError wherever memory runs
# out: Ward holds two (n, n) float64 arrays, 1.6 GB at 10,000 districts
# (5,000 took 2.8 s at 469 MB peak RSS). England has about 150 districts.
MAX_DISTRICTS = 10_000

# Cluster display names, ascending mean coverage (index 0 = lowest coverage).
CLUSTER_NAME_VOCAB: dict[int, tuple[str, ...]] = {
    2: ("L", "H"),
    3: ("L", "M", "H"),
    6: ("Ls", "VL", "L", "M", "H", "Hst"),
}


@dataclass(frozen=True)
class Merge:
    left: int
    right: int
    height: float
    size: int


@dataclass(frozen=True)
class Dendrogram:
    n_leaves: int
    merges: tuple[Merge, ...]


@dataclass(frozen=True)
class ClusterAssignment:
    k: int
    labels: np.ndarray  # per-district cluster index, 0..k-1, ascending coverage
    ordered_names: tuple[str, ...]

    def name_of(self, label: int) -> str:
        return self.ordered_names[label]


def pairwise_distances(X) -> np.ndarray:
    """(n, n) Euclidean distances between rows, exactly symmetric, zero diagonal."""
    if isinstance(X, StandardizedMatrix):
        X = X.values
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise TooFewRows("pairwise_distances requires at least 2 rows")
    if X.shape[0] > MAX_DISTRICTS:
        raise DataError(f"a year holds at most {MAX_DISTRICTS} districts to cluster, got {X.shape[0]}")
    if not np.all(np.isfinite(X)):
        raise NonFiniteInput("distance input contains non-finite values")
    # one (n, n) array, worked in place: at most two are alive at once
    sq = np.sum(X * X, axis=1)
    dist = np.add.outer(sq, sq)
    gram = X @ X.T
    gram *= 2.0
    dist -= gram
    del gram
    np.maximum(dist, 0.0, out=dist)
    np.sqrt(dist, out=dist)
    dist[np.tri(X.shape[0], dtype=bool)] = 0.0  # keep the upper triangle, then mirror it
    dist += dist.T
    return dist


def agglomerate(dist: np.ndarray, linkage: str = "ward") -> Dendrogram:
    """Greedy agglomeration over a precomputed distance matrix.

    Ward merge heights are the Lance-Williams merge costs; average/complete
    heights are the corresponding cluster distances.
    """
    if linkage not in LINKAGES:
        raise ValueError(f"unknown linkage {linkage!r}; expected one of {LINKAGES}")
    n = dist.shape[0]
    if not np.all(np.isfinite(dist)):
        raise NonFiniteInput("distance matrix contains non-finite values")

    # symmetric cost matrix indexed by slot; slot s hosts cluster node_of[s],
    # inactive slots and the diagonal are +inf; row_min[s] is the minimum of row s
    if linkage == "ward":  # unit sizes, 1 * 1 / (1 + 1): (0.5 * dist) * dist, one array
        cost = np.multiply(dist, 0.5)
        cost *= dist
    else:
        cost = dist.copy()
    np.fill_diagonal(cost, np.inf)
    row_min = cost.min(axis=1)
    node_of = np.arange(n)
    weight = np.ones(n)
    active = np.ones(n, dtype=bool)
    merges: list[Merge] = []

    for step in range(n - 1):
        height = float(row_min.min())
        # smallest (left_node, right_node) pair at the height wins; exact
        # float ties only. Every row whose minimum is the height holds such
        # a pair, so the left node is the smallest node of those rows and the
        # right node its smallest partner at the height.
        rows = np.flatnonzero(row_min == height)
        if rows.size == 2:  # no tie: the two rows are the pair
            a, b = rows.tolist()
        else:
            s = int(rows[np.argmin(node_of[rows])])
            partners = np.flatnonzero(cost[s] == height)
            t = int(partners[np.argmin(node_of[partners])])
            a, b = min(s, t), max(s, t)
        wi, wj = weight[a], weight[b]
        merged = wi + wj
        ni, nj = sorted((int(node_of[a]), int(node_of[b])))
        merges.append(Merge(left=ni, right=nj, height=height, size=int(round(merged))))

        # merged cluster reuses slot a; Lance-Williams update against the rest
        active[a] = active[b] = False
        others = np.flatnonzero(active)
        active[a] = True
        wc = weight[others]
        d_ic = cost[a, others]
        d_jc = cost[b, others]
        if linkage == "ward":
            new = ((wi + wc) * d_ic + (wj + wc) * d_jc - wc * height) / (merged + wc)
        elif linkage == "average":
            new = (wi * d_ic + wj * d_jc) / merged
        else:  # complete
            new = np.maximum(d_ic, d_jc)
        # a row keeps its minimum unless it sat in column a or b: then rescan it
        others_min = row_min[others]
        stale = (d_ic == others_min) | (d_jc == others_min)
        cost[a, others] = new
        cost[others, a] = new
        cost[b, :] = np.inf
        cost[:, b] = np.inf
        others_min = np.minimum(others_min, new)
        if stale.any():
            others_min[stale] = cost[others[stale]].min(axis=1)
        row_min[others] = others_min
        row_min[a] = new.min(initial=np.inf)
        row_min[b] = np.inf
        weight[a] = merged
        node_of[a] = n + step

    return Dendrogram(n_leaves=n, merges=tuple(merges))


def cut_at_k(dendro: Dendrogram, k: int) -> np.ndarray:
    """Undo the last k-1 merges; raw labels numbered by smallest member leaf.

    Each kept merge makes node n+step the parent of its two children. A
    parent's id exceeds its children's, so one pass from the highest node
    down replaces every parent pointer by the node's root.
    """
    n = dendro.n_leaves
    if not 1 <= k <= n:
        raise KOutOfRange(f"k={k} not in 1..{n}")
    root = list(range(2 * n - k))
    for step, m in enumerate(dendro.merges[: n - k]):
        root[m.left] = root[m.right] = n + step
    for node in reversed(range(len(root))):
        root[node] = root[root[node]]
    first: dict[int, int] = {}
    return np.array([first.setdefault(root[leaf], len(first)) for leaf in range(n)], dtype=np.int64)


def suggest_k(dendro: Dendrogram, k_min: int = 2, k_max: int = 10) -> int:
    """Smallest k whose cut crosses the largest relative jump in merge height.

    The score for k is the ratio between the first merge a k-cut undoes and
    the last merge it keeps; ties (and the degenerate all-equal case) resolve
    toward smaller k. Advisory only: it never overrides configured k values.
    """
    n = dendro.n_leaves
    if not 1 <= k_min < k_max or k_max > n - 1:
        raise KOutOfRange(f"need 1 <= k_min < k_max <= {n - 1}, got [{k_min}, {k_max}]")
    heights = [m.height for m in dendro.merges]

    def score(k: int) -> float:
        if k == 1:
            return 1.0
        above = heights[n - k]  # first merge undone by the k-cut
        below = heights[n - k - 1]  # last merge kept
        if below > 0.0:
            return above / below
        return float("inf") if above > 0.0 else 1.0

    best_k = k_min
    best = score(k_min)
    for k in range(k_min + 1, k_max + 1):
        s = score(k)
        if s > best:
            best, best_k = s, k
    return best_k


def label_by_coverage(raw_labels: np.ndarray, dataset: YearDataset, k: int) -> ClusterAssignment:
    """Renumber raw clusters by ascending mean raw coverage and attach names.

    Coverage of a cluster is the mean of all 14 raw rates over its districts.
    Equal means tie-break by smallest contained district id. k outside
    {2, 3, 6} falls back to generic names C1..Ck.
    """
    raw_labels = np.asarray(raw_labels)
    rates, ids = dataset.rates, dataset.ids
    clusters = sorted(set(int(c) for c in raw_labels))
    if len(clusters) != k:
        raise KOutOfRange(f"raw labels contain {len(clusters)} clusters, expected {k}")
    keyed = []
    for c in clusters:
        mask = raw_labels == c
        coverage = float(rates[mask].mean())
        smallest_id = min(i for i, m in zip(ids, mask) if m)
        keyed.append((coverage, smallest_id, c))
    keyed.sort()
    rank_of = {c: rank for rank, (_, _, c) in enumerate(keyed)}
    labels = np.array([rank_of[int(c)] for c in raw_labels], dtype=np.int64)
    names = CLUSTER_NAME_VOCAB.get(k, tuple(f"C{i + 1}" for i in range(k)))
    return ClusterAssignment(k=k, labels=labels, ordered_names=names)


def cluster_mean_table(assignment: ClusterAssignment, dataset: YearDataset) -> np.ndarray:
    """(k, 14) arithmetic means of raw rates, rows in ascending coverage order.

    Column sums use math.fsum (correctly rounded), so a cluster of 2^m
    identical profiles reproduces that profile bit-exactly.
    """
    rates = dataset.rates
    table = np.empty((assignment.k, rates.shape[1]))
    for c in range(assignment.k):
        members = rates[assignment.labels == c]
        table[c] = [math.fsum(members[:, j]) / members.shape[0] for j in range(rates.shape[1])]
    return table


def dendrogram_table(dendro: Dendrogram) -> str:
    """Standard 4-column linkage text table (left, right, height, size)."""
    rows = [(m.left, m.right, m.height, m.size) for m in dendro.merges]
    return csv_text(("left", "right", "height", "size"), rows)
