from __future__ import annotations

import numpy as np
import pytest

from conftest import assert_same_dataset
from vaxclust import synth
from vaxclust.dataset import load_year
from vaxclust.errors import SpecInvalid
from vaxclust.evaluation import adjusted_rand_index
from vaxclust.fixtures import table2_means
from vaxclust.hcluster import agglomerate, cut_at_k, pairwise_distances
from vaxclust.dataset import standardize, VACCINE_COLUMNS
from vaxclust.rng import Rng


def test_rng_reference_values():
    # frozen stream (standard splitmix64 vector) so ports can self-check
    r = Rng(42)
    assert [r.u64() for _ in range(3)] == [
        13679457532755275413,
        2949826092126892291,
        5139283748462763858,
    ]
    assert Rng(42).uniform() == (13679457532755275413 >> 11) * 2.0**-53


def test_zero_noise_reproduces_means_exactly():
    spec = synth.default_spec(n_per_cluster=(4, 4), vacc_noise_sd=0.0)
    dataset, truth = synth.generate(spec)
    _, means = table2_means(2021, 2)
    for rates, label in zip(dataset.rates, truth):
        assert list(rates) == list(means[label])


def test_same_seed_byte_identical_files(tmp_path):
    spec = synth.default_spec(n_per_cluster=(10, 10), seed=77)
    for sub in ("a", "b"):
        dataset, truth = synth.generate(spec)
        synth.write_dataset_files(dataset, truth, tmp_path / sub)
    for name in ("vaccination_2021.csv", "gdsc_2021.csv", "truth_labels.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b


def test_generated_files_round_trip_through_ingestion(tmp_path):
    spec = synth.default_spec(n_per_cluster=(8, 8), seed=5)
    dataset, truth = synth.generate(spec)
    paths = synth.write_dataset_files(dataset, truth, tmp_path)
    loaded = load_year(paths["vaccination"], paths["gdsc"], 2021)
    assert_same_dataset(loaded, dataset)


def test_domains_always_respected():
    spec = synth.default_spec(n_per_cluster=(50, 50), seed=123, vacc_noise_sd=30.0)
    dataset, _ = synth.generate(spec)
    assert dataset.rates.min() >= 0.0 and dataset.rates.max() <= 100.0
    assert set(dataset.rurality.tolist()) <= set(range(1, 7))
    assert dataset.gdsc.min() >= 0.0


def test_law_of_large_numbers_cluster_means():
    spec = synth.default_spec(n_per_cluster=(500, 500), seed=9)
    dataset, truth = synth.generate(spec)
    _, means = table2_means(2021, 2)
    for cluster in (0, 1):
        sample_mean = dataset.rates[truth == cluster].mean(axis=0)
        bound = 3.0 * spec.vacc_noise_sd / np.sqrt(500)
        assert np.abs(sample_mean - means[cluster]).max() < bound + 0.07  # clip bias margin


def test_default_spec_clusters_are_recoverable():
    spec = synth.default_spec(n_per_cluster=(75, 75), seed=1)
    dataset, truth = synth.generate(spec)
    sm = standardize(dataset.rates, VACCINE_COLUMNS)
    labels = cut_at_k(agglomerate(pairwise_distances(sm)), 2)
    assert adjusted_rand_index(labels, truth) >= 0.95


def test_zero_signal_removes_gdsc_separation():
    spec = synth.default_spec(n_per_cluster=(200, 200), seed=4, zero_signal=True)
    dataset, truth = synth.generate(spec)
    gdsc = dataset.gdsc
    names = [c for c in synth.GDSC_COLUMNS if c != "rurality"]
    for j, name in enumerate(names):
        gap = abs(gdsc[truth == 0, j].mean() - gdsc[truth == 1, j].mean())
        assert gap < 2.0, name
    rurality = dataset.rurality
    share_low = (rurality[truth == 0] == 1).mean()
    share_high = (rurality[truth == 1] == 1).mean()
    assert abs(share_low - share_high) < 0.15


def test_spec_validation():
    spec = synth.default_spec()
    with pytest.raises(SpecInvalid):
        synth.SynthSpec(
            year=2021, k=2, cluster_means=spec.cluster_means,
            n_per_cluster=(1, 75),
        ).validate()
    with pytest.raises(SpecInvalid):
        synth.SynthSpec(
            year=2021, k=2, cluster_means=(spec.cluster_means[0],),
            n_per_cluster=(5, 5),
        ).validate()
    with pytest.raises(SpecInvalid):
        bad = tuple(tuple(110.0 for _ in range(14)) for _ in range(2))
        synth.SynthSpec(year=2021, k=2, cluster_means=bad, n_per_cluster=(5, 5)).validate()


def test_spec_validation_bounds_the_district_count():
    # an unbounded count kept the pure-Python generator running past 10 s
    # before it wrote anything; this only validates, so it cannot hang
    spec = synth.default_spec()
    huge = synth.SynthSpec(year=2021, k=2, cluster_means=spec.cluster_means, n_per_cluster=(10**8, 10**8))
    with pytest.raises(SpecInvalid, match="at most 5000 districts, got 200000000"):
        huge.validate()
    with pytest.raises(SpecInvalid, match="at most 5000 districts"):
        synth.SynthSpec(year=2021, k=2, cluster_means=spec.cluster_means, n_per_cluster=(2500, 2501)).validate()
    synth.SynthSpec(year=2021, k=2, cluster_means=spec.cluster_means, n_per_cluster=(2500, 2500)).validate()
