"""Deterministic synthetic district generator.

The raw district-level source tables are not redistributable, so desk-scale
ground truth comes from here: vaccination profiles are Gaussian noise around
the embedded per-cluster mean rates (:mod:`vaxclust.fixtures`), and GDSC
features carry a controllable signal in the direction of the published
findings — the lowest-coverage cluster is urban (rurality concentrated at
category 1) with higher shares of residents whose first language is not
English, who were born outside the UK, or who belong to ethnic minorities.
The five socioeconomic features are cluster-independent noise.

Generation is single-threaded and driven entirely by :class:`vaxclust.rng.Rng`,
so a (seed, spec) pair reproduces the same bytes anywhere. Draw order per
district: 14 rates, 8 numeric GDSC features (GDSC column order), rurality.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .dataset import (
    GDSC_COLUMNS,  # noqa: F401  re-exported for callers of synth
    GDSC_NUMERIC_COLUMNS,
    VACCINE_COLUMNS,
    YearDataset,
    csv_text,
    table_paths,
    write_text,
)
from .errors import SpecInvalid
from .fixtures import TABLE2, table2_means
from .rng import Rng

# Numeric features that separate clusters, besides rurality; the rest are noise.
SIGNAL_PERCENT_FEATURES = ("english_proficiency", "ethnic_minority", "born_outside_uk")

GDSC_BASE_MEANS = {
    "imd_avg_score": 22.0,
    "imd_prop_deprived": 10.0,
    "long_term_unemployed": 5.0,
    "routine_occupations": 12.0,
    "no_qualifications": 20.0,
    "english_proficiency": 10.0,
    "ethnic_minority": 18.0,
    "born_outside_uk": 15.0,
}

RURALITY_LOW_PROFILE = (0.92, 0.04, 0.02, 0.01, 0.005, 0.005)  # urban-heavy
RURALITY_HIGH_PROFILE = (0.30, 0.14, 0.14, 0.14, 0.14, 0.14)

GDSC_NOISE_SD = 5.0
# half-distance between adjacent-extreme cluster means on the three percent
# signal features; puts the k=2 means 2 noise-sds apart
SIGNAL_SHIFT = 5.0


@dataclass(frozen=True)
class SynthSpec:
    year: int
    k: int
    cluster_means: tuple[tuple[float, ...], ...]  # (k, 14), ascending coverage
    n_per_cluster: tuple[int, ...]
    vacc_noise_sd: float = 2.0
    zero_signal: bool = False
    seed: int = 0

    def validate(self) -> None:
        if self.k < 2 or len(self.cluster_means) != self.k or len(self.n_per_cluster) != self.k:
            raise SpecInvalid("cluster_means and n_per_cluster must both have k >= 2 entries")
        for means in self.cluster_means:
            if len(means) != len(VACCINE_COLUMNS):
                raise SpecInvalid("each cluster mean vector needs 14 rates")
            if any(not 0.0 <= m <= 100.0 for m in means):
                raise SpecInvalid("cluster mean rates must lie in [0, 100]")
        if any(n < 2 for n in self.n_per_cluster):
            raise SpecInvalid("each cluster needs at least 2 districts")
        # Generation is pure Python and linear (5,000 districts take about
        # 1 s), but Ward then holds two (n, n) float arrays: clustering
        # 5,000 districts took 2.8 s at 469 MB peak RSS.
        if sum(self.n_per_cluster) > 5_000:
            raise SpecInvalid(f"a synthetic year holds at most 5000 districts, got {sum(self.n_per_cluster)}")
        if not (self.vacc_noise_sd >= 0 and math.isfinite(self.vacc_noise_sd)):
            raise SpecInvalid(f"the noise standard deviation must be finite and >= 0, got {self.vacc_noise_sd}")


def default_spec(
    year: int = 2021,
    k: int = 2,
    n_per_cluster: tuple[int, ...] | None = None,
    seed: int = 0,
    zero_signal: bool = False,
    vacc_noise_sd: float = 2.0,
) -> SynthSpec:
    """Spec seeded from the embedded published cluster means; SpecInvalid for a
    (year, k) pair the embedded table lacks."""
    if (year, k) not in TABLE2:
        raise SpecInvalid(
            f"no embedded cluster means for year {year}, k={k}; embedded (year, k): {sorted(TABLE2)}"
        )
    _, means = table2_means(year, k)
    if n_per_cluster is None:
        n_per_cluster = tuple([75] * k) if k == 2 else tuple([150 // k] * k)
    return SynthSpec(
        year=year,
        k=k,
        cluster_means=tuple(tuple(float(x) for x in row) for row in means),
        n_per_cluster=tuple(n_per_cluster),
        vacc_noise_sd=vacc_noise_sd,
        zero_signal=zero_signal,
        seed=seed,
    )


def _clip(value: float, lo: float = 0.0, hi: float = 100.0) -> float:
    return min(hi, max(lo, value))


def _signal_multiplier(rank: int, k: int) -> float:
    """+1 for the lowest-coverage cluster, -1 for the highest, linear between."""
    return 1.0 - 2.0 * rank / (k - 1)


def _rurality_profile(rank: int, k: int, zero_signal: bool) -> tuple[float, ...]:
    if zero_signal:
        return RURALITY_HIGH_PROFILE
    w = rank / (k - 1)
    return tuple(
        (1.0 - w) * lo + w * hi for lo, hi in zip(RURALITY_LOW_PROFILE, RURALITY_HIGH_PROFILE)
    )


def generate(spec: SynthSpec) -> tuple[YearDataset, np.ndarray]:
    """Dataset plus true cluster labels (ascending-coverage cluster indices)."""
    spec.validate()
    rng = Rng(spec.seed)
    rates, gdsc, rurality, truth = [], [], [], []
    for cluster, (means, n) in enumerate(zip(spec.cluster_means, spec.n_per_cluster)):
        mult = 0.0 if spec.zero_signal else _signal_multiplier(cluster, spec.k)
        profile = _rurality_profile(cluster, spec.k, spec.zero_signal)
        for _ in range(n):
            rates.append([
                _clip(m + rng.normal(sd=spec.vacc_noise_sd)) if spec.vacc_noise_sd > 0 else m
                for m in means
            ])
            values = []
            for name in GDSC_NUMERIC_COLUMNS:
                shift = SIGNAL_SHIFT * mult if name in SIGNAL_PERCENT_FEATURES else 0.0
                raw = GDSC_BASE_MEANS[name] + shift + rng.normal(sd=GDSC_NOISE_SD)
                values.append(_clip(raw) if name != "imd_avg_score" else max(0.0, raw))
            gdsc.append(values)
            rurality.append(rng.categorical(profile) + 1)
            truth.append(cluster)
    # generation order is id order, so the sorted-dataset invariant holds
    dataset = YearDataset(
        year=spec.year,
        ids=tuple(f"S{i:04d}" for i in range(len(truth))),
        names=tuple(f"Synth District {i:04d}" for i in range(len(truth))),
        rates=np.array(rates, dtype=np.float64),
        gdsc=np.array(gdsc, dtype=np.float64),
        rurality=np.array(rurality, dtype=np.int64),
    )
    return dataset, np.array(truth, dtype=np.int64)


def write_dataset_files(dataset: YearDataset, truth: np.ndarray, out_dir) -> dict[str, str]:
    """Write vaccination/gdsc tables in the ingestion format, plus truth labels,
    each through :func:`vaxclust.dataset.csv_text` and
    :func:`vaxclust.dataset.write_text`."""
    vaccination, gdsc = table_paths(out_dir, dataset.year)
    paths = {"vaccination": vaccination, "gdsc": gdsc, "truth": os.path.join(out_dir, "truth_labels.csv")}
    # shortest positional decimal that round-trips; the ingestion grammar
    # rejects scientific notation
    fmt = lambda x: np.format_float_positional(x, unique=True, trim="0")
    tables = {
        "vaccination": csv_text(
            ["district_id", "district_name", *VACCINE_COLUMNS],
            ([i, name, *map(fmt, rates)] for i, name, rates in zip(dataset.ids, dataset.names, dataset.rates)),
        ),
        "gdsc": csv_text(
            ["district_id", *GDSC_NUMERIC_COLUMNS, "rurality"],
            ([i, *map(fmt, gdsc), int(r)] for i, gdsc, r in zip(dataset.ids, dataset.gdsc, dataset.rurality)),
        ),
        "truth": csv_text(
            ["district_id", "cluster_index"],
            ([i, int(label)] for i, label in zip(dataset.ids, truth)),
        ),
    }
    for name, text in tables.items():
        write_text(paths[name], text)
    return paths
