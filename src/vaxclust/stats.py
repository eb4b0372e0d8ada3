"""Rank-based two-sample tests and box-plot summaries across clusters.

The primary test is the two-sided Mann-Whitney U from midrank sums: exact
when the pooled sample is small (<= 20), otherwise the tie-corrected normal
approximation with continuity correction. Doubled midranks are integers, so
the exact null distribution over all C(n_a + n_b, n_a) group assignments is
counted without tolerance by a subset-sum DP over them (the shift algorithm
of Streitberg & Roehmel 1986): the number of j-subsets of the pooled sample
per doubled rank sum, built one observation at a time. Welch's t is computed
alongside for transparency; it is never the significance criterion.

Quartile convention (fixed, because tools disagree): ``numpy.quantile(...,
method="linear")``, in :func:`linear_quantiles`, which gbdt's split borders
share. Whiskers reach the most extreme points within 1.5*IQR of the
quartiles; points beyond are outliers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import stdtr

from .dataset import RURALITY_CATEGORIES, YearDataset
from .errors import EmptyGroup, EmptySample
from .hcluster import ClusterAssignment

# combined sample size up to which p is exact: a counting DP over doubled rank
# sums (at most C(20, 10) arrangements); above it, the normal approximation
EXACT_ENUMERATION_LIMIT = 20


@dataclass(frozen=True)
class TestResult:
    feature_name: str
    u_statistic: float
    z: float
    p_two_sided: float
    n_low: int
    n_high: int
    significant_at_0_05: bool
    method: str  # "exact" | "normal"


@dataclass(frozen=True)
class WelchResult:
    feature_name: str
    t_statistic: float
    dof: float
    p_two_sided: float


@dataclass(frozen=True)
class BoxStats:
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    whisker_low: float
    whisker_high: float
    outliers: tuple[float, ...]


def _doubled_midranks(pooled: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Twice the midrank of every value (an integer) and the tie-group sizes.

    A tie group holding sorted positions i..j (0-based) has midrank
    (i + j) / 2 + 1, so its doubled midrank is i + j + 2 = 2 * end - size + 1,
    with end = j + 1 the cumulative count up to and including the group.
    """
    _, inverse, counts = np.unique(pooled, return_inverse=True, return_counts=True)
    doubled = 2 * np.cumsum(counts) - counts + 1
    return doubled[inverse], counts


def _normal_z(u: float, n_a: int, n_b: int, tie_counts: np.ndarray) -> float:
    n = n_a + n_b
    mean = n_a * n_b / 2.0
    tie_term = float(((tie_counts**3 - tie_counts)).sum()) / (n * (n - 1)) if n > 1 else 0.0
    var = n_a * n_b / 12.0 * ((n + 1) - tie_term)
    if var <= 0:
        return 0.0
    diff = u - mean
    if diff > 0:
        diff -= 0.5
    elif diff < 0:
        diff += 0.5
    return diff / math.sqrt(var)


def _exact_two_sided_p(doubled: np.ndarray, n_a: int, observed_sum: int) -> float:
    """Two-sided exact p over all C(n, n_a) group assignments of the midranks.

    ``counts[j, s]`` counts the j-subsets of the observations seen so far
    whose doubled midranks sum to s; adding an observation of doubled rank r
    adds the (j-1)-subsets at s - r to row j. Row n_a then holds the null
    distribution of the doubled rank sum of group a, in exact integers (at
    most C(20, 10) per cell at the pooled-size limit); U <= U_observed
    exactly when that sum <= ``observed_sum``.
    """
    width = int(doubled.sum()) + 1
    counts = np.zeros((n_a + 1, width), dtype=np.int64)
    counts[0, 0] = 1
    for r in doubled.tolist():
        counts[1:, r:] = counts[1:, r:] + counts[:-1, : width - r]
    null = counts[n_a]
    total = int(null.sum())
    le = int(null[: observed_sum + 1].sum())
    ge = int(null[observed_sum:].sum())
    return min(1.0, 2.0 * min(le / total, ge / total))


def mann_whitney_u(sample_a, sample_b, feature_name: str = "") -> TestResult:
    """Two-sided Mann-Whitney U comparing two value samples.

    ``u_statistic`` is U for ``sample_a``; U_a + U_b = n_a * n_b always holds.
    """
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise EmptySample("both samples must be non-empty")
    doubled, tie_counts = _doubled_midranks(np.concatenate([a, b]))
    doubled_sum = int(doubled[: a.size].sum())
    u = (doubled_sum - a.size * (a.size + 1)) / 2.0
    z = _normal_z(u, a.size, b.size, tie_counts)
    if a.size + b.size <= EXACT_ENUMERATION_LIMIT:
        p = _exact_two_sided_p(doubled, a.size, doubled_sum)
        method = "exact"
    else:
        p = min(1.0, math.erfc(abs(z) / math.sqrt(2.0)))
        method = "normal"
    return TestResult(
        feature_name=feature_name,
        u_statistic=u,
        z=z,
        p_two_sided=p,
        n_low=int(a.size),
        n_high=int(b.size),
        significant_at_0_05=bool(p < 0.05),
        method=method,
    )


def welch_t(sample_a, sample_b, feature_name: str = "") -> WelchResult:
    """Welch's unequal-variance t-test, reported alongside the rank test."""
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise EmptySample("welch_t needs at least 2 values per sample")
    va = a.var(ddof=1) / a.size
    vb = b.var(ddof=1) / b.size
    if va + vb == 0:  # two constant samples: t is 0 or infinite, with the sign of the mean difference
        difference = float(a.mean()) - float(b.mean())
        t = math.copysign(math.inf, difference) if difference else 0.0
        return WelchResult(feature_name, t, float(a.size + b.size - 2), 0.0 if difference else 1.0)
    t = (a.mean() - b.mean()) / math.sqrt(va + vb)
    dof = (va + vb) ** 2 / (va**2 / (a.size - 1) + vb**2 / (b.size - 1))
    p = 2.0 * float(stdtr(dof, -abs(t)))
    return WelchResult(feature_name, float(t), float(dof), min(1.0, p))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) by linear interpolation at p*(n-1)."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise EmptyGroup("cannot take quartiles of an empty sample")
    q1, q2, q3 = np.quantile(v, [0.25, 0.5, 0.75], method="linear")
    return float(q1), float(q2), float(q3)


def linear_quantiles(ordered, starts, sizes, levels) -> np.ndarray:
    """(segment, level) ``numpy.quantile(segment, levels, method="linear")`` of the sorted,
    non-empty segments ``ordered[start : start + size]``, in numpy's arithmetic: virtual index
    v = (n - 1) p, order statistics a at floor(v) and b after it, t = v - floor(v) (v + 1 once
    v reaches n - 1, where numpy reads a and b at index -1), and a + (b - a) t below t = 0.5,
    b - (b - a) (1 - t) from there. The bits are numpy's, but for the sign of a zero quantile
    of a segment holding -0.0 and +0.0, whose order numpy leaves to chance."""
    virtual = (sizes[:, None] - 1) * levels
    below = np.floor(virtual)
    t = virtual - np.where(virtual < sizes[:, None] - 1, below, -1)
    at = starts[:, None] + below.astype(np.intp)
    lower = ordered[at]
    upper = ordered[np.minimum(at + 1, (starts + sizes - 1)[:, None])]
    step = upper - lower
    return np.where(t >= 0.5, upper - step * (1 - t), lower + step * t)


def box_stats(values, grouping) -> dict[int, BoxStats]:
    """Five-number summary plus 1.5*IQR whiskers and outliers, per cluster.

    One stable sort by (cluster, value) lays every cluster's sample out in
    order. Quartiles are its slices' :func:`linear_quantiles`; extremes, whiskers
    and outliers are read off the slice's ends and the bounds' sorted positions.
    """
    values = np.asarray(values, dtype=np.float64)
    grouping = np.asarray(grouping)
    if values.size == 0:
        raise EmptyGroup("no values to summarize")
    order = np.lexsort((values, grouping))
    ordered = values[order]
    clusters, starts, sizes = np.unique(grouping[order], return_index=True, return_counts=True)
    q = linear_quantiles(ordered, starts, sizes, np.array([0.25, 0.5, 0.75]))
    iqr = q[:, 2] - q[:, 0]
    low_bound = q[:, 0] - 1.5 * iqr
    high_bound = q[:, 2] + 1.5 * iqr
    out: dict[int, BoxStats] = {}
    for c, (start, size) in enumerate(zip(starts.tolist(), sizes.tolist())):
        sample = ordered[start : start + size]
        first = int(np.searchsorted(sample, low_bound[c], side="left"))
        end = int(np.searchsorted(sample, high_bound[c], side="right"))
        out[int(clusters[c])] = BoxStats(
            minimum=float(sample[0]),
            q1=float(q[c, 0]),
            median=float(q[c, 1]),
            q3=float(q[c, 2]),
            maximum=float(sample[-1]),
            whisker_low=float(sample[first]),
            whisker_high=float(sample[end - 1]),
            outliers=tuple(sample[:first].tolist() + sample[end:].tolist()),
        )
    return out


def crosstab_from_pairs(rurality_values, cluster_labels, k: int) -> np.ndarray:
    """(6, k) contingency counts; row r is rurality category r+1."""
    table = np.zeros((len(RURALITY_CATEGORIES), k), dtype=np.int64)
    rows = np.asarray(rurality_values).astype(np.int64) - 1
    np.add.at(table, (rows, np.asarray(cluster_labels).astype(np.int64)), 1)
    return table


def rurality_cross_tab(assignment: ClusterAssignment, dataset: YearDataset) -> np.ndarray:
    return crosstab_from_pairs(dataset.rurality, assignment.labels, assignment.k)
