from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest

from vaxclust import hcluster as hc
from vaxclust import pipeline, synth
from vaxclust.dataset import VACCINE_COLUMNS, standardize
from vaxclust.dataset import YearDataset
from vaxclust.errors import KOutOfRange, NonFiniteInput
from vaxclust.fixtures import table2_means


def exhaustive_ward(X):
    """Greedy Ward from explicit cluster contents; heights recomputed from
    raw coordinates at every step. Independent of the Lance-Williams path."""
    X = np.asarray(X, dtype=np.float64)
    n = len(X)
    clusters = {i: [i] for i in range(n)}
    heights = []
    next_node = n
    node_of = {i: i for i in range(n)}

    def ward_cost(a, b):
        ma, mb = X[clusters[a]].mean(axis=0), X[clusters[b]].mean(axis=0)
        na, nb = len(clusters[a]), len(clusters[b])
        return na * nb / (na + nb) * float(((ma - mb) ** 2).sum())

    while len(clusters) > 1:
        keys = sorted(clusters)
        best = None
        for i, a in enumerate(keys):
            for b in keys[i + 1 :]:
                cost = ward_cost(a, b)
                pair = tuple(sorted((node_of[a], node_of[b])))
                key = (cost, pair)
                if best is None or key < best[0]:
                    best = (key, a, b)
        (cost, _), a, b = best
        heights.append(cost)
        clusters[a] = clusters[a] + clusters[b]
        del clusters[b]
        node_of[a] = next_node
        next_node += 1
    return heights


def full_scan_agglomerate(dist, linkage="ward"):
    """The agglomeration that scans the whole cost matrix at every merge and
    breaks ties with a Python ``min`` over every tied slot pair, kept as the
    reference for the row-minimum search: same Lance-Williams arithmetic."""
    n = dist.shape[0]
    cost = 0.5 * dist * dist if linkage == "ward" else dist.copy()
    np.fill_diagonal(cost, np.inf)
    node_of = np.arange(n)
    weight = np.ones(n)
    merges = []
    for step in range(n - 1):
        height = float(cost.min())
        ties = np.argwhere(cost == height)
        a, b = min(
            (slot_pair for slot_pair in ties if slot_pair[0] < slot_pair[1]),
            key=lambda p: (min(node_of[p[0]], node_of[p[1]]), max(node_of[p[0]], node_of[p[1]])),
        )
        wi, wj = weight[a], weight[b]
        merged = wi + wj
        ni, nj = sorted((int(node_of[a]), int(node_of[b])))
        merges.append(hc.Merge(left=ni, right=nj, height=height, size=int(round(merged))))
        others = np.isfinite(cost[a]) | np.isfinite(cost[b])
        others[a] = others[b] = False
        wc = weight[others]
        d_ic = cost[a, others]
        d_jc = cost[b, others]
        if linkage == "ward":
            new = ((wi + wc) * d_ic + (wj + wc) * d_jc - wc * height) / (merged + wc)
        elif linkage == "average":
            new = (wi * d_ic + wj * d_jc) / merged
        else:
            new = np.maximum(d_ic, d_jc)
        cost[a, others] = new
        cost[others, a] = new
        cost[b, :] = np.inf
        cost[:, b] = np.inf
        weight[a] = merged
        node_of[a] = n + step
    return hc.Dendrogram(n_leaves=n, merges=tuple(merges))


def oracle_inputs():
    """(name, points) cases from n = 2 to 200, most of them tie-heavy: small
    integer grids, rows repeated in blocks and all-identical points (up to
    n = 64, as the oracle's tie rule is cubic there)."""
    rng = np.random.default_rng(12)
    for n in (2, 3, 4, 5, 7, 10, 16, 31, 64, 127, 200):
        yield f"normal-{n}", rng.normal(size=(n, 3))
        yield f"grid-{n}", rng.integers(0, 3, size=(n, 2)).astype(np.float64)
        base = rng.integers(-2, 3, size=(max(1, n // 4), 4)).astype(np.float64)
        yield f"duplicated-{n}", rng.permutation(np.repeat(base, 4, axis=0)[:n]) if n >= 4 else np.ones((n, 4))
        if n <= 64:
            yield f"identical-{n}", np.full((n, 14), 71.5)
    yield "1d-lattice-50", np.arange(50, dtype=np.float64).reshape(-1, 1) % 7


def quick_dataset(rates_matrix, ids=None):
    n = len(rates_matrix)
    return YearDataset(
        year=2021,
        ids=tuple(ids or [f"E{i:03d}" for i in range(n)]),
        names=tuple(f"D{i}" for i in range(n)),
        rates=np.array(rates_matrix, dtype=np.float64),
        gdsc=np.tile([20.0, 10.0, 5.0, 12.0, 20.0, 8.0, 15.0, 12.0], (n, 1)),
        rurality=np.ones(n, dtype=np.int64),
    )


def test_distance_345_triangle():
    d = hc.pairwise_distances(np.array([[0.0, 0.0], [3.0, 4.0]]))
    assert d[0, 1] == pytest.approx(5.0, abs=1e-12)


def test_distance_identical_rows_zero():
    d = hc.pairwise_distances(np.array([[1.0, 2.0], [1.0, 2.0]]))
    assert d[0, 1] == 0.0


def test_distance_matches_double_loop_oracle(rng):
    X = rng.normal(size=(5, 14))
    d = hc.pairwise_distances(X)
    assert d.shape == (5, 5)
    assert np.array_equal(d, d.T) and np.all(np.diag(d) == 0.0)
    for i in range(5):
        for j in range(i + 1, 5):
            naive = np.sqrt(((X[i] - X[j]) ** 2).sum())
            assert abs(d[i, j] - naive) < 1e-12


def test_distance_rejects_nonfinite():
    with pytest.raises(NonFiniteInput):
        hc.pairwise_distances(np.array([[0.0], [np.nan]]))


def test_ward_heights_on_1d_points():
    dendro = hc.agglomerate(hc.pairwise_distances(np.array([[0.0], [1.0], [10.0]])))
    assert dendro.merges[0].left == 0 and dendro.merges[0].right == 1
    assert dendro.merges[0].height == pytest.approx(0.5, abs=1e-12)
    assert dendro.merges[1].height == pytest.approx(180.5 / 3.0, abs=1e-12)
    assert dendro.merges[1].height > dendro.merges[0].height


def test_identical_points_all_heights_zero():
    X = np.ones((6, 3))
    dendro = hc.agglomerate(hc.pairwise_distances(X))
    assert all(m.height == 0.0 for m in dendro.merges)
    assert all(m.size == int(m.size) for m in dendro.merges)


def test_heights_non_decreasing_battery(rng):
    for _ in range(30):
        X = rng.normal(size=(rng.integers(3, 20), rng.integers(1, 6)))
        dendro = hc.agglomerate(hc.pairwise_distances(X))
        heights = [m.height for m in dendro.merges]
        assert all(b >= a - 1e-12 for a, b in zip(heights, heights[1:]))


def test_ward_matches_exhaustive_oracle(rng):
    for _ in range(40):
        n = int(rng.integers(3, 9))
        X = rng.normal(size=(n, int(rng.integers(1, 5))))
        dendro = hc.agglomerate(hc.pairwise_distances(X))
        expected = exhaustive_ward(X)
        got = [m.height for m in dendro.merges]
        assert np.abs(np.array(got) - np.array(expected)).max() < 1e-9


def test_cut_extremes():
    X = np.arange(10, dtype=float).reshape(-1, 1)
    dendro = hc.agglomerate(hc.pairwise_distances(X))
    singletons = hc.cut_at_k(dendro, 10)
    assert sorted(set(singletons.tolist())) == list(range(10))
    assert len(set(hc.cut_at_k(dendro, 1).tolist())) == 1
    with pytest.raises(KOutOfRange):
        hc.cut_at_k(dendro, 11)
    with pytest.raises(KOutOfRange):
        hc.cut_at_k(dendro, 0)


def test_cut_recovers_table2_groups():
    names, means = table2_means(2021, 2)
    rates = np.vstack([np.tile(means[0], (10, 1)), np.tile(means[1], (10, 1))])
    dendro = hc.agglomerate(hc.pairwise_distances(rates))
    labels = hc.cut_at_k(dendro, 2)
    assert len(set(labels[:10].tolist())) == 1
    assert len(set(labels[10:].tolist())) == 1
    assert labels[0] != labels[10]


def test_cuts_are_nested(rng):
    X = rng.normal(size=(12, 3))
    dendro = hc.agglomerate(hc.pairwise_distances(X))
    for k in range(2, 12):
        coarse = hc.cut_at_k(dendro, k - 1)
        fine = hc.cut_at_k(dendro, k)
        # every fine cluster sits inside exactly one coarse cluster
        for c in set(fine.tolist()):
            parents = set(coarse[fine == c].tolist())
            assert len(parents) == 1


def test_cut_produces_k_nonempty_clusters(rng):
    X = rng.normal(size=(9, 2))
    dendro = hc.agglomerate(hc.pairwise_distances(X))
    for k in range(1, 10):
        labels = hc.cut_at_k(dendro, k)
        assert len(set(labels.tolist())) == k


def test_permutation_equivariance(rng):
    X = rng.normal(size=(8, 4))
    perm = rng.permutation(8)
    base = hc.cut_at_k(hc.agglomerate(hc.pairwise_distances(X)), 3)
    permuted = hc.cut_at_k(hc.agglomerate(hc.pairwise_distances(X[perm])), 3)
    # same partition: pairs together in one labeling are together in the other
    for i in range(8):
        for j in range(8):
            assert (base[perm[i]] == base[perm[j]]) == (permuted[i] == permuted[j])


def _gap_oracle(dendro, k_min, k_max):
    heights = [m.height for m in dendro.merges]
    n = dendro.n_leaves

    def score(k):
        if k == 1:
            return 1.0
        above, below = heights[n - k], heights[n - k - 1]
        if below > 0:
            return above / below
        return float("inf") if above > 0 else 1.0

    best = max(range(k_min, k_max + 1), key=lambda k: (score(k), -k))
    return best


def test_suggest_k_two_separated_blobs(rng):
    names, means = table2_means(2021, 2)
    rates = np.vstack(
        [means[0] + rng.normal(scale=1.0, size=(12, 14)), means[1] + rng.normal(scale=1.0, size=(12, 14))]
    )
    dendro = hc.agglomerate(hc.pairwise_distances(rates))
    assert hc.suggest_k(dendro, 2, 10) == 2
    assert hc.suggest_k(dendro, 2, 10) == _gap_oracle(dendro, 2, 10)


def test_suggest_k_three_blobs(rng):
    points = np.concatenate(
        [rng.normal(0, 0.01, 7), rng.normal(100, 0.01, 7), rng.normal(200, 0.01, 7)]
    ).reshape(-1, 1)
    dendro = hc.agglomerate(hc.pairwise_distances(points))
    assert hc.suggest_k(dendro, 2, 10) == 3
    assert hc.suggest_k(dendro, 2, 10) == _gap_oracle(dendro, 2, 10)


def test_suggest_k_identical_points_tie_breaks_low():
    dendro = hc.agglomerate(hc.pairwise_distances(np.ones((8, 2))))
    assert hc.suggest_k(dendro, 2, 6) == 2
    with pytest.raises(KOutOfRange):
        hc.suggest_k(dendro, 5, 5)
    with pytest.raises(KOutOfRange):
        hc.suggest_k(dendro, 2, 8)


def test_label_by_coverage_orders_and_names():
    low = [60.0] * 14
    high = [90.0] * 14
    dataset = quick_dataset([high, low, high, low])
    raw = np.array([0, 1, 0, 1])
    assignment = hc.label_by_coverage(raw, dataset, 2)
    assert assignment.ordered_names == ("L", "H")
    assert assignment.labels.tolist() == [1, 0, 1, 0]


def test_label_by_coverage_k6_vocabulary():
    rates = [[50.0 + 5 * c] * 14 for c in range(6)]
    dataset = quick_dataset(rates)
    assignment = hc.label_by_coverage(np.arange(6), dataset, 6)
    assert assignment.ordered_names == ("Ls", "VL", "L", "M", "H", "Hst")


def test_label_by_coverage_generic_names_for_other_k():
    rates = [[50.0] * 14, [60.0] * 14, [70.0] * 14, [80.0] * 14]
    assignment = hc.label_by_coverage(np.arange(4), quick_dataset(rates), 4)
    assert assignment.ordered_names == ("C1", "C2", "C3", "C4")


def test_label_by_coverage_invariant_to_raw_permutation():
    rates = [[60.0] * 14, [70.0] * 14, [90.0] * 14, [60.0] * 14]
    dataset = quick_dataset(rates)
    a = hc.label_by_coverage(np.array([0, 1, 2, 0]), dataset, 3)
    b = hc.label_by_coverage(np.array([2, 0, 1, 2]), dataset, 3)
    assert a.labels.tolist() == b.labels.tolist()


def test_label_by_coverage_tie_break_by_smallest_id():
    rates = [[70.0] * 14, [70.0] * 14]
    # equal means: the cluster holding the smallest district id ranks first
    assignment = hc.label_by_coverage(np.array([1, 0]), quick_dataset(rates, ids=["E001", "E002"]), 2)
    assert assignment.labels.tolist() == [0, 1]


def test_cluster_mean_table_basics():
    dataset = quick_dataset([[60.0] * 14, [80.0] * 14, [55.0] * 14])
    assignment = hc.label_by_coverage(np.array([0, 0, 1]), dataset, 2)
    table = hc.cluster_mean_table(assignment, dataset)
    assert table[0, 0] == 55.0  # singleton cluster equals its profile
    assert table[1, 0] == 70.0  # mean of 60 and 80


def test_cluster_mean_table_reproduces_fixture_rows():
    names, means = table2_means(2021, 2)
    rates = np.vstack([np.tile(means[0], (16, 1)), np.tile(means[1], (16, 1))])
    dataset = quick_dataset(rates)
    dendro = hc.agglomerate(hc.pairwise_distances(rates))
    assignment = hc.label_by_coverage(hc.cut_at_k(dendro, 2), dataset, 2)
    table = hc.cluster_mean_table(assignment, dataset)
    assert np.array_equal(table, means)
    assert assignment.ordered_names == names


def test_dendrogram_table_format():
    dendro = hc.agglomerate(hc.pairwise_distances(np.array([[0.0], [1.0], [10.0]])))
    text = hc.dendrogram_table(dendro)
    lines = text.strip().splitlines()
    assert lines[0] == "left,right,height,size"
    assert len(lines) == 3
    assert lines[1].startswith("0,1,0.5,2")


@pytest.mark.parametrize("linkage", hc.LINKAGES)
def test_agglomerate_matches_full_scan_oracle(linkage):
    for name, X in oracle_inputs():
        dist = hc.pairwise_distances(X)
        assert hc.agglomerate(dist, linkage) == full_scan_agglomerate(dist, linkage), name


@pytest.mark.parametrize("linkage", hc.LINKAGES)
def test_agglomerate_matches_full_scan_oracle_random(rng, linkage):
    for _ in range(40):
        n = int(rng.integers(2, 40))
        X = rng.integers(0, 4, size=(n, int(rng.integers(1, 4)))) * rng.choice([0.5, 1.0, 3.0])
        dist = hc.pairwise_distances(X)
        assert hc.agglomerate(dist, linkage) == full_scan_agglomerate(dist, linkage)


def test_identical_districts_agglomerate_quickly():
    # every pair ties at every merge: a full scan with a Python tie rule took
    # 6.6-9.6 s on 2 shared cores
    dist = hc.pairwise_distances(np.full((300, 14), 80.0))
    start = time.perf_counter()
    dendro = hc.agglomerate(dist)
    elapsed = time.perf_counter() - start
    assert [m.height for m in dendro.merges] == [0.0] * 299
    assert elapsed < 2.0


def _distances_by_formula(X):
    """The distance formula before it worked in one array, kept as the
    oracle: four (n, n) arrays at its peak."""
    sq = np.sum(X * X, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.maximum(d2, 0.0, out=d2)
    upper = np.triu(np.sqrt(d2), 1)
    return upper + upper.T


def test_cluster_year_holds_two_distance_arrays():
    # 4.13 (n, n) float arrays at the peak before, 126 MB traced at 2,000 districts
    spec = synth.default_spec(year=2021, k=2, n_per_cluster=(500, 500), seed=7)
    dataset, _ = synth.generate(spec)
    config = pipeline.RunConfig(years=(2021,), input_dir=".", out_dir=".")
    tracemalloc.start()
    try:
        dendro, _ = pipeline.cluster_year(dataset, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = len(dataset)
    assert peak <= 2.2 * n * n * 8, peak / (n * n * 8)
    X = standardize(dataset.rates, VACCINE_COLUMNS).values
    dist = _distances_by_formula(X)
    assert hc.pairwise_distances(X).tobytes() == dist.tobytes()
    assert dendro == hc.agglomerate(dist)
