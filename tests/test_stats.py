from __future__ import annotations

import math
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from test_hcluster import quick_dataset
from vaxclust import gbdt, stats
from vaxclust.errors import EmptyGroup, EmptySample
from vaxclust.fixtures import load_rurality_fixture, load_wtable_assignment
from vaxclust.hcluster import ClusterAssignment


def oracle_exact_p(a, b):
    """Independent enumeration: U counted from pairwise comparisons, not rank
    sums; p over all C(n, n_a) group assignments of the pooled values."""
    pooled = list(a) + list(b)
    n, n_a = len(pooled), len(a)

    def u_of(group_a):
        group_b = [pooled[i] for i in range(n) if i not in set(group_a)]
        u = 0.0
        for x in (pooled[i] for i in group_a):
            for y in group_b:
                if x > y:
                    u += 1.0
                elif x == y:
                    u += 0.5
        return u

    u_obs = u_of(tuple(range(n_a)))
    le = ge = total = 0
    for chosen in combinations(range(n), n_a):
        u = u_of(chosen)
        total += 1
        le += u <= u_obs
        ge += u >= u_obs
    return u_obs, min(1.0, 2.0 * min(le / total, ge / total))


def test_mann_whitney_textbook_case():
    result = stats.mann_whitney_u([1, 2, 3], [4, 5, 6])
    assert result.u_statistic == 0.0
    assert result.p_two_sided == pytest.approx(0.1)
    assert result.method == "exact"
    assert not result.significant_at_0_05


def test_mann_whitney_identical_samples():
    a = [3.0, 1.0, 4.0, 1.0]
    result = stats.mann_whitney_u(a, list(a))
    assert result.u_statistic == len(a) ** 2 / 2.0
    assert result.p_two_sided >= 0.99


def test_u_statistics_sum_to_product(rng):
    for _ in range(30):
        n_a, n_b = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        a = rng.integers(0, 6, n_a).astype(float)  # ties likely
        b = rng.integers(0, 6, n_b).astype(float)
        u_a = stats.mann_whitney_u(a, b).u_statistic
        u_b = stats.mann_whitney_u(b, a).u_statistic
        assert u_a + u_b == n_a * n_b


def test_exact_p_matches_oracle_with_and_without_ties(rng):
    for _ in range(25):
        n_a, n_b = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        a = rng.integers(0, 8, n_a).astype(float)
        b = rng.integers(0, 8, n_b).astype(float)
        u_oracle, p_oracle = oracle_exact_p(a.tolist(), b.tolist())
        result = stats.mann_whitney_u(a, b)
        assert result.u_statistic == u_oracle
        assert result.p_two_sided == p_oracle


def test_doubled_midranks_match_scipy_rankdata(rng):
    for _ in range(30):
        pooled = rng.integers(0, 5, int(rng.integers(1, 30))).astype(float)
        doubled, tie_counts = stats._doubled_midranks(pooled)
        assert (doubled / 2.0).tolist() == scipy.stats.rankdata(pooled, method="average").tolist()
        assert sorted(tie_counts.tolist()) == sorted(Counter(pooled.tolist()).values())


tie_heavy_sample = st.lists(st.integers(0, 4).map(float), min_size=1, max_size=7)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(a=tie_heavy_sample, b=tie_heavy_sample)
def test_exact_p_matches_oracle_property(a, b):
    u_oracle, p_oracle = oracle_exact_p(a, b)
    result = stats.mann_whitney_u(a, b)
    assert result.method == "exact"
    assert result.u_statistic == u_oracle
    assert result.p_two_sided == p_oracle


@pytest.mark.parametrize("n_a, n_b", [(10, 10), (7, 13), (1, 19)])
def test_exact_p_at_the_limit_matches_scipy(n_a, n_b):
    assert n_a + n_b == stats.EXACT_ENUMERATION_LIMIT
    rng = np.random.default_rng(n_a)
    for shift in (0.0, 0.5, 1.5):
        values = rng.normal(size=n_a + n_b)
        assert len(set(values.tolist())) == n_a + n_b  # tie-free
        a, b = values[:n_a], values[n_a:] + shift
        result = stats.mann_whitney_u(a, b)
        reference = scipy.stats.mannwhitneyu(a, b, alternative="two-sided", method="exact")
        assert result.method == "exact"
        assert result.u_statistic == reference.statistic
        assert result.p_two_sided == pytest.approx(reference.pvalue, rel=1e-12, abs=0.0)


def test_exact_normal_switch_at_pooled_limit(rng):
    limit = stats.EXACT_ENUMERATION_LIMIT
    assert limit == 20
    for n_a in (1, 7, 10):
        assert stats.mann_whitney_u(rng.normal(size=n_a), rng.normal(size=limit - n_a)).method == "exact"
        assert stats.mann_whitney_u(rng.normal(size=n_a), rng.normal(size=limit + 1 - n_a)).method == "normal"


def test_rank_invariance_under_monotone_transform(rng):
    a = rng.normal(size=8).tolist()
    b = rng.normal(size=9).tolist()
    before = stats.mann_whitney_u(a, b)
    transform = lambda x: math.exp(3 * x) + 7
    after = stats.mann_whitney_u([transform(x) for x in a], [transform(x) for x in b])
    assert before.u_statistic == after.u_statistic
    assert before.p_two_sided == after.p_two_sided


def test_exact_vs_normal_agreement(rng):
    # The 0.03 agreement band requires both samples to carry a few points:
    # at 1-vs-n splits the normal approximation is off by ~0.11 no matter the
    # convention (scipy's asymptotic path shows the same gap), so the battery
    # samples min(n_a, n_b) >= 3 with 9 <= n <= 20 — the regime where the
    # bound provably holds for every possible U.
    worst = 0.0
    for _ in range(60):
        total = int(rng.integers(9, 21))
        n_a = int(rng.integers(3, total - 2))
        values = rng.normal(size=total)  # continuous: no ties
        while len(set(values.tolist())) < total:
            values = rng.normal(size=total)
        a, b = values[:n_a], values[n_a:]
        exact = stats.mann_whitney_u(a, b)
        assert exact.method == "exact"
        z = exact.z
        p_normal = min(1.0, math.erfc(abs(z) / math.sqrt(2.0)))
        worst = max(worst, abs(p_normal - exact.p_two_sided))
    assert worst < 0.03


def test_normal_path_used_above_cutoff(rng):
    a = rng.normal(size=15)
    b = rng.normal(size=15)
    result = stats.mann_whitney_u(a, b)
    assert result.method == "normal"
    assert 0.0 <= result.p_two_sided <= 1.0


def test_mann_whitney_rejects_empty():
    with pytest.raises(EmptySample):
        stats.mann_whitney_u([], [1.0])


def test_welch_t_basics():
    same = stats.welch_t([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert same.p_two_sided == pytest.approx(1.0)
    apart = stats.welch_t([0.0, 0.1, 0.2, 0.1], [5.0, 5.1, 4.9, 5.2])
    assert apart.p_two_sided < 1e-6
    with pytest.raises(EmptySample):
        stats.welch_t([1.0], [1.0, 2.0])


@pytest.mark.parametrize(
    "a, b, t, p",
    [([3.0, 3.0], [3.0, 3.0, 3.0], 0.0, 1.0), ([2.0, 2.0, 2.0], [1.0, 1.0], math.inf, 0.0)],
    ids=["equal-constants", "different-constants"],
)
def test_welch_t_constant_samples(a, b, t, p):
    result = stats.welch_t(a, b, "x")
    assert (result.t_statistic, result.dof, result.p_two_sided) == (t, len(a) + len(b) - 2, p)


def test_welch_t_constant_samples_keep_the_sign_of_t():
    # the non-constant branch gives (mean a - mean b) / se, negative here
    assert stats.welch_t([1, 1, 1], [2, 2]).t_statistic == -math.inf
    assert stats.welch_t([1.0, 1.0, 1.1], [2.0, 2.0]).t_statistic < 0


def test_quartiles_odd_sample():
    assert stats.quartiles([1, 2, 3, 4, 5]) == (2.0, 3.0, 4.0)


def test_quartiles_even_sample():
    q1, med, q3 = stats.quartiles([1, 2, 3, 4])
    assert (q1, med, q3) == (1.75, 2.5, 3.25)


def test_box_stats_single_value():
    box = stats.box_stats([7.0], [0])[0]
    assert box.minimum == box.q1 == box.median == box.q3 == box.maximum == 7.0
    assert box.outliers == ()


def test_box_stats_outlier_rule_exact(rng):
    for _ in range(20):
        values = rng.normal(size=int(rng.integers(4, 40)))
        box = stats.box_stats(values, np.zeros(len(values), dtype=int))[0]
        q1, _, q3 = stats.quartiles(values)
        iqr = q3 - q1
        expected = sorted(
            float(v) for v in values if v < q1 - 1.5 * iqr or v > q3 + 1.5 * iqr
        )
        assert list(box.outliers) == expected
        assert box.whisker_low >= q1 - 1.5 * iqr
        assert box.whisker_high <= q3 + 1.5 * iqr


def test_box_stats_group_permutation_invariant(rng):
    values = rng.normal(size=30)
    groups = rng.integers(0, 2, size=30)
    base = stats.box_stats(values, groups)
    perm = rng.permutation(30)
    shuffled = stats.box_stats(values[perm], groups[perm])
    assert base == shuffled


def _oracle_box_stats(values, grouping):
    """One cluster at a time from ``quartiles`` and boolean masks, the
    reference for the single-sort ``box_stats``."""
    values = np.asarray(values, dtype=np.float64)
    grouping = np.asarray(grouping)
    out = {}
    for cluster in sorted(set(int(g) for g in grouping)):
        sample = values[grouping == cluster]
        q1, median, q3 = stats.quartiles(sample)
        iqr = q3 - q1
        low_bound = q1 - 1.5 * iqr
        high_bound = q3 + 1.5 * iqr
        inside = sample[(sample >= low_bound) & (sample <= high_bound)]
        outliers = tuple(sorted(float(x) for x in sample[(sample < low_bound) | (sample > high_bound)]))
        out[cluster] = stats.BoxStats(
            minimum=float(sample.min()),
            q1=q1,
            median=median,
            q3=q3,
            maximum=float(sample.max()),
            whisker_low=float(inside.min()),
            whisker_high=float(inside.max()),
            outliers=outliers,
        )
    return out


@pytest.mark.parametrize("k", [2, 3, 6])
def test_box_stats_match_per_cluster_oracle(k):
    rng = np.random.default_rng(k)
    for size in range(1, 41):
        groups = rng.permutation(np.arange(k * size) % k)  # every cluster holds `size` values
        for values in (
            rng.normal(scale=10.0, size=k * size),  # negative values
            rng.integers(-3, 4, size=k * size).astype(np.float64),  # ties
            np.where(rng.uniform(size=k * size) < 0.1, 1e3, rng.uniform(60.0, 90.0, size=k * size)),  # outliers
        ):
            got = stats.box_stats(values, groups)
            assert repr(got) == repr(_oracle_box_stats(values, groups))  # float bits, not just ==
            assert list(got) == list(range(k))
        uneven = rng.integers(0, k, size=size)
        values = rng.normal(size=size)
        assert stats.box_stats(values, uneven) == _oracle_box_stats(values, uneven)


def test_box_stats_cluster_ids_need_not_be_contiguous():
    values = np.array([5.0, -1.0, 3.0, 3.0, 8.0, 2.5])
    groups = np.array([7, 2, 7, 2, 7, 2])
    got = stats.box_stats(values, groups)
    assert list(got) == [2, 7]
    assert got == _oracle_box_stats(values, groups)


def test_box_stats_rejects_empty():
    with pytest.raises(EmptyGroup):
        stats.box_stats([], [])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), sizes=st.lists(st.integers(1, 40), min_size=1, max_size=6))
def test_linear_quantiles_match_numpy_bit_for_bit(data, sizes):
    # segments of 1 to 40 values with ties, at the split-border and the
    # quartile levels; a segment's zeros all take one sign, since one that
    # holds both -0.0 and +0.0 may give a zero quantile of either sign
    value = st.one_of(st.integers(-3, 3).map(float), st.floats(-1e6, 1e6, allow_nan=False))
    segments = []
    for size in sizes:
        segment = np.sort(np.array(data.draw(st.lists(value, min_size=size, max_size=size))))
        segment[segment == 0.0] = data.draw(st.sampled_from([0.0, -0.0]))
        segments.append(segment)
    sizes = np.array(sizes)
    for levels in (gbdt._QUANTILES, np.array([0.25, 0.5, 0.75])):
        got = stats.linear_quantiles(np.concatenate(segments), np.cumsum(sizes) - sizes, sizes, levels)
        assert got.shape == (len(segments), levels.size)
        for row, segment in zip(got, segments):
            assert row.tobytes() == np.quantile(segment, levels, method="linear").tobytes()


def test_crosstab_single_category():
    table = stats.crosstab_from_pairs([1, 1, 1], [0, 1, 0], 2)
    assert table[0].tolist() == [2, 1]
    assert table[1:].sum() == 0


def test_crosstab_hand_case():
    # two rurality-1 low, one rurality-3 high, one rurality-6 high
    table = stats.crosstab_from_pairs([1, 1, 3, 6], [0, 0, 1, 1], 2)
    assert table.tolist() == [[2, 0], [0, 0], [0, 1], [0, 0], [0, 0], [0, 1]]


def _crosstab_by_loop(rurality_values, cluster_labels, k):
    """The per-pair loop that ``crosstab_from_pairs`` replaced, kept as its oracle."""
    table = np.zeros((6, k), dtype=np.int64)
    for rurality, cluster in zip(rurality_values, cluster_labels):
        table[int(rurality) - 1, int(cluster)] += 1
    return table


@settings(max_examples=150, deadline=None)
@given(data=st.data(), k=st.integers(1, 6), n=st.integers(0, 50), as_float=st.booleans())
def test_crosstab_matches_the_pair_loop(data, k, n, as_float):
    rurality = data.draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    clusters = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    if as_float:  # a dataset's rurality column, as the pipeline passes it
        rurality = np.array(rurality, dtype=np.float64)
    got = stats.crosstab_from_pairs(rurality, clusters, k)
    assert got.dtype == np.int64 and got.tolist() == _crosstab_by_loop(rurality, clusters, k).tolist()


def test_rurality_cross_tab_from_dataset():
    dataset = quick_dataset([[60.0] * 14, [90.0] * 14])
    assignment = ClusterAssignment(k=2, labels=np.array([0, 1]), ordered_names=("L", "H"))
    table = stats.rurality_cross_tab(assignment, dataset)
    assert table.shape == (6, 2)
    assert table.sum() == 2


def test_wtable_fixture_low_cluster_rural_counts():
    rurality = load_rurality_fixture()
    expected = {2021: 2, 2022: 2, 2023: 3}
    for year, count in expected.items():
        rows = load_wtable_assignment(year)
        table = stats.crosstab_from_pairs(
            [rurality[r["district_id"]] for r in rows],
            [r["cluster_index"] for r in rows],
            2,
        )
        assert int(table[1:, 0].sum()) == count
        assert table.sum() == 150
