from __future__ import annotations

import csv
import errno
import glob
import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tree_digest
from test_hcluster import quick_dataset
import vaxclust
from vaxclust import evaluation, gbdt, hcluster, synth
from vaxclust import pipeline as pl
from vaxclust.cli import main
from vaxclust.dataset import GDSC_NUMERIC_COLUMNS, VACCINE_COLUMNS, YearDataset, csv_text, table_paths
from vaxclust.errors import ConfigError, GeometryKeyMismatch
from vaxclust.fixtures import STUDY_YEARS, load_wtable_assignment, table2_means
from vaxclust.gbdt import TrainConfig
from vaxclust.hcluster import ClusterAssignment


def small_inputs(tmp_path, years=(2021,), n=24, seed=3):
    indir = tmp_path / "in"
    for year in years:
        spec = synth.default_spec(year=year, k=2, n_per_cluster=(n // 2, n // 2), seed=seed + year)
        dataset, truth = synth.generate(spec)
        synth.write_dataset_files(dataset, truth, indir)
    return str(indir)


def small_config(tmp_path, years=(2021,), out="out", **extra):
    mapping = {
        "years": list(years),
        "input_dir": small_inputs(tmp_path, years),
        "out_dir": str(tmp_path / out),
        "k_values": [2],
        "n_trees": 12,
        "depth": 3,
        "k_folds": 4,
        "seed": 11,
    }
    mapping.update(extra)
    return pl.config_from_mapping(mapping)


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"years": [2021], "input_dir": "x", "out_dir": "y", "bogus": 1}))
    with pytest.raises(ConfigError):
        pl.load_config(path)


def test_config_requires_core_keys(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"years": [2021]}))
    with pytest.raises(ConfigError):
        pl.load_config(path)
    path.write_text("not json")
    with pytest.raises(ConfigError):
        pl.load_config(path)


def test_config_overrides_win(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"years": [2021], "input_dir": "x", "out_dir": "y", "seed": 1}))
    config = pl.load_config(path, {"seed": 99, "out_dir": "z"})
    assert config.seed == 99
    assert config.out_dir == "z"
    assert config.train.seed == 99


def test_config_and_geometry_may_start_with_byte_order_mark(tmp_path):
    doc = {"years": [2021], "input_dir": "x", "out_dir": "y", "seed": 1}
    path = tmp_path / "config.json"
    path.write_bytes(b"\xef\xbb\xbf" + json.dumps(doc).encode())
    assert pl.load_config(path) == pl.config_from_mapping(doc)
    geometry = {"type": "FeatureCollection", "features": []}
    path.write_bytes(b"\xef\xbb\xbf" + json.dumps(geometry).encode())
    assert pl._read_geometry(str(path)) == geometry


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        pl.config_from_mapping({"years": [], "input_dir": "a", "out_dir": "b"})
    with pytest.raises(ConfigError):
        pl.config_from_mapping(
            {"years": [2021], "input_dir": "a", "out_dir": "b", "linkage": "single"}
        )
    with pytest.raises(ConfigError):
        pl.config_from_mapping(
            {"years": [2021], "input_dir": "a", "out_dir": "b", "n_trees": 0}
        )
    # past the cap, boosting would first allocate a (round, tree, level) table
    # of 218 TiB and end in a MemoryError traceback
    with pytest.raises(ConfigError, match=r"n_trees must be in 1\.\.10000"):
        pl.config_from_mapping(
            {"years": [2021], "input_dir": "a", "out_dir": "b", "n_trees": 10**12}
        )
    assert pl.config_from_mapping({"years": [2021], "input_dir": "a", "out_dir": "b", "n_trees": 10_000})
    # past the cap, every fold model would first draw 10^9 pure-Python
    # shuffles for its target statistics, and `run` would hang
    with pytest.raises(ConfigError, match=r"n_permutations must be in 1\.\.100"):
        pl.config_from_mapping(
            {"years": [2021], "input_dir": "a", "out_dir": "b", "n_permutations": 10**9}
        )
    assert pl.config_from_mapping({"years": [2021], "input_dir": "a", "out_dir": "b", "n_permutations": 100})
    with pytest.raises(ConfigError):
        pl.config_from_mapping(
            {"years": [2021], "input_dir": "a", "out_dir": "b", "k_values": [2, 3], "loss": "binary_logistic"}
        )
    pl.config_from_mapping({"years": [2021], "input_dir": "a", "out_dir": "b", "k_values": [2],
                            "loss": "binary_logistic"})


MINIMAL = {"years": [2021], "input_dir": "a", "out_dir": "b"}
ACCEPTED_KEYS = (
    {f.name for f in fields(pl.RunConfig)} - {"train"}
    | {f.name for f in fields(TrainConfig)}
    | {"threads"}
)


@pytest.mark.parametrize("key, value", [
    ("n_trees", "5"),
    ("depth", 2.5),
    ("learning_rate", "0.1"),
    pytest.param("l2_leaf_reg", 10**400, id="l2_leaf_reg-10**400"),
    ("scale_rates", "false"),
    ("allow_partial", "no"),
    ("k_folds", 2.9),
    ("seed", "7"),
    ("n_permutations", True),
    ("input_dir", ["a"]),
    ("deepth", 2),
])
def test_config_rejects_wrong_json_types_and_unknown_keys(key, value):
    with pytest.raises(ConfigError, match=key):
        pl.config_from_mapping({**MINIMAL, key: value})


@pytest.mark.parametrize("key, value", [("years", [2021, 2021]), ("k_values", [2, 3, 2])])
def test_config_rejects_repeated_list_entries(key, value):
    with pytest.raises(ConfigError, match=f"{key} has repeated entries"):
        pl.config_from_mapping({**MINIMAL, key: value})


def test_config_keeps_accepted_values_as_given():
    config = pl.config_from_mapping({**MINIMAL, "learning_rate": 1, "l2_leaf_reg": 2, "k_values": [3, 2]})
    assert config.k_values == (3, 2)
    echo = config.echo()
    assert echo["learning_rate"] == 1 and isinstance(echo["learning_rate"], int)
    assert echo["l2_leaf_reg"] == 2 and isinstance(echo["l2_leaf_reg"], int)
    assert echo["k_values"] == [3, 2]


json_scalar = (
    st.none()
    | st.booleans()
    | st.integers(-2, 12)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(["ward", "average", "complete", "auto", "binary_logistic", "multiclass_softmax"])
    | st.text(max_size=3)
)
json_value = json_scalar | st.lists(json_scalar, max_size=3) | st.lists(st.integers(2, 4), max_size=3)
# a key with a random JSON value or with its default, so that some draws stay valid
default_echo = pl.config_from_mapping(MINIMAL).echo()
config_change = st.sampled_from(sorted(ACCEPTED_KEYS - {"geometry_path"})).flatmap(
    lambda key: st.tuples(st.just(key), json_value | st.just(default_echo.get(key)))
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(changes=st.lists(config_change, max_size=4).map(dict))
def test_config_from_mapping_checks_or_round_trips_property(changes):
    try:
        config = pl.config_from_mapping({**MINIMAL, **changes})
    except ConfigError:
        return
    echo = json.loads(json.dumps(config.echo()))
    assert set(echo) == ACCEPTED_KEYS - {"threads"}
    assert pl.config_from_mapping(echo) == config


def test_run_pipeline_happy_path(tmp_path):
    config = small_config(tmp_path, k_values=[2, 3])
    result = pl.run_pipeline(config)
    assert result.exit_code == 0
    assert sorted(result.reports) == [(2021, 2), (2021, 3)]
    out = config.out_dir
    for tag in ("2021_k2", "2021_k3"):
        for stem in ("clusters", "cluster_means", "shap_importance", "tests", "boxstats", "crosstab", "report"):
            assert os.path.exists(os.path.join(out, f"{stem}_{tag}.csv")) or os.path.exists(
                os.path.join(out, f"{stem}_{tag}.json")
            ), (stem, tag)
    assert os.path.exists(os.path.join(out, "dendrogram_2021.csv"))
    assert os.path.exists(os.path.join(out, "metrics.csv"))
    assert os.path.exists(os.path.join(out, "metrics_full.json"))
    assert os.path.exists(os.path.join(out, "run_summary.json"))
    assert "dropped_districts" not in _summary(config)  # both tables name every district


def test_emitted_ids_subset_of_dataset(tmp_path):
    config = small_config(tmp_path)
    result = pl.run_pipeline(config)
    report = result.reports[(2021, 2)]
    with open(os.path.join(config.out_dir, "clusters_2021_k2.csv")) as f:
        emitted = {line.split(",")[0] for line in f.read().splitlines()[1:]}
    assert emitted == set(report.district_ids)


def test_report_round_trips(tmp_path):
    config = small_config(tmp_path)
    result = pl.run_pipeline(config)
    report = result.reports[(2021, 2)]
    assert pl.RunReport.from_json(report.to_json()) == report
    # to_json reads the fields in place; asdict's deep copy gives the same bytes
    assert report.to_json() == json.dumps(asdict(report), sort_keys=True, indent=2)


def test_every_json_file_is_canonical(tmp_path):
    # every JSON file of a run and a model file: keys sorted, two-space
    # indent, one trailing newline; imd_avg_score constant within each
    # cluster makes the Welch t of two constant samples, -Infinity
    config = small_config(tmp_path, k_values=[2])
    dataset = pl.load_dataset(config, 2021)
    assignment = pl.assign_clusters(dataset, pl.cluster_year(dataset, config)[0], 2)
    score = {d: "20" if label else "10" for d, label in zip(dataset.ids, assignment.labels.tolist())}
    gdsc = table_paths(config.input_dir, 2021)[1]
    with open(gdsc, newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    with open(gdsc, "w", newline="", encoding="utf-8") as f:
        f.write(csv_text(list(rows[0]), ([*{**row, "imd_avg_score": score[row["district_id"]]}.values()] for row in rows)))
    assert pl.run_pipeline(config).exit_code == 0
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config.echo()))
    model_path = tmp_path / "model.json"
    assert main(["train", "--config", str(config_path), "--year", "2021", "--k", "2",
                 "--model-out", str(model_path)]) == 0
    paths = sorted(glob.glob(os.path.join(config.out_dir, "*.json"))) + [str(model_path)]
    assert [os.path.basename(p) for p in paths] == [
        "choropleth_2021_k2.json", "metrics_full.json", "report_2021_k2.json", "run_summary.json", "model.json"
    ]
    for path in paths:
        with open(path, encoding="utf-8", newline="") as f:
            text = f.read()
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n", path
    report = json.loads((tmp_path / "out" / "report_2021_k2.json").read_text())
    assert [w["t_statistic"] for w in report["welch"] if w["feature_name"] == "imd_avg_score"] == [-float("inf")]


def test_partial_join_records_dropped_districts(tmp_path):
    config = small_config(tmp_path, allow_partial=True)
    path = os.path.join(config.input_dir, "gdsc_2021.csv")
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines(keepends=True)
    dropped = lines[3].split(",")[0]
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(lines[:3] + lines[4:])
    result = pl.run_pipeline(config)
    assert result.exit_code == 0
    assert _summary(config)["dropped_districts"] == {"2021": {"vaccination_only": [dropped], "gdsc_only": []}}
    report = result.reports[(2021, 2)]
    assert dropped not in report.district_ids
    assert [note for note in report.notes if dropped in note] == [
        f"partial join dropped districts found in one table only: vaccination only ['{dropped}'], gdsc only []"
    ]


def test_report_echoes_every_default(tmp_path):
    config = small_config(tmp_path)
    result = pl.run_pipeline(config)
    echo = result.reports[(2021, 2)].config_echo
    for key in ("linkage", "scale_rates", "k_folds", "n_trees", "depth", "learning_rate",
                "l2_leaf_reg", "ts_prior_weight", "n_permutations", "loss", "seed"):
        assert key in echo, key


def test_cell_isolation_k_out_of_range(tmp_path):
    config = small_config(tmp_path, k_values=[2, 99])
    result = pl.run_pipeline(config)
    assert result.exit_code == 3
    assert (2021, 2) in result.reports
    assert (2021, 99) in result.errors
    assert result.errors[(2021, 99)]["error"] == "KOutOfRange"
    # healthy cell artifacts still written
    assert os.path.exists(os.path.join(config.out_dir, "report_2021_k2.json"))
    table = open(os.path.join(config.out_dir, "metrics.csv")).read()
    assert "—" in table and table.rstrip().endswith("see run_summary.json")


@pytest.mark.parametrize("n_districts, error", [(3, "TooFewRows"), (2, "KOutOfRange")])
def test_tiny_year_is_a_recorded_cell_failure(tmp_path, n_districts, error):
    config = small_config(tmp_path)
    for table in ("vaccination", "gdsc"):
        path = os.path.join(config.input_dir, f"{table}_2021.csv")
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()[: n_districts + 1]
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
    result = pl.run_pipeline(config)
    assert result.exit_code == 3
    assert result.errors[(2021, 2)]["error"] == error
    with open(os.path.join(config.out_dir, "run_summary.json"), encoding="utf-8") as f:
        summary = json.load(f)
    assert [cell["error"] for cell in summary["cells_failed"]] == [error]


def _summary(config) -> dict:
    with open(os.path.join(config.out_dir, "run_summary.json"), encoding="utf-8") as f:
        return json.load(f)


def _set_first_district_rates(config, rate: str) -> None:
    path = os.path.join(config.input_dir, "vaccination_2021.csv")
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    rows[0].update({column: rate for column in VACCINE_COLUMNS})  # a lone outlier district
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def test_singleton_cluster_is_a_recorded_cell_failure(tmp_path):
    config = small_config(tmp_path, k_values=[2, 6])
    _set_first_district_rates(config, "1.0")
    result = pl.run_pipeline(config)
    assert result.exit_code == 3
    assert result.errors[(2021, 6)]["error"] == "DegenerateLabels"
    assert [cell["k"] for cell in _summary(config)["cells_failed"]] == [2, 6]


def _report_alone(config, year: int, k: int) -> pl.RunReport:
    """The (year, k) cell's report with its fold models fitted on their own."""
    dataset = pl.load_dataset(config, year)
    dendro, suggested = pl.cluster_year(dataset, config)
    return pl.analyze_cell(dataset, pl.assign_clusters(dataset, dendro, k), suggested, config)


def test_singleton_top_cluster_fails_in_cross_validation(tmp_path):
    # The lone district is the highest-coverage class (k-1), so the fold that
    # holds it out has no training row of that class. The 2022 cell of the
    # same k is fitted without it, to the bits it gets alone.
    config = small_config(tmp_path, years=(2021, 2022), k_values=[3], n_trees=5)
    _set_first_district_rates(config, "100.0")
    result = pl.run_pipeline(config)
    assert result.exit_code == 3
    failure = result.errors[(2021, 3)]
    assert (failure["stage"], failure["error"]) == ("analysis", "DegenerateLabels")
    assert "training split lacks class(es) [2]" in failure["message"]
    assert _summary(config)["cells_failed"] == [failure]
    assert list(result.reports) == [(2022, 3)]
    # to_json holds every field, and a NaN equals itself there
    assert result.reports[(2022, 3)].to_json() == _report_alone(config, 2022, 3).to_json()


def test_batched_cells_equal_cells_fitted_alone(tmp_path, monkeypatch):
    config = small_config(tmp_path, years=(2021, 2022, 2023), k_values=[2, 3], n_trees=5)
    boosted = []
    boost = gbdt._boost

    def counted(untrained):
        boosted.append(len(untrained))
        return boost(untrained)

    monkeypatch.setattr(gbdt, "_boost", counted)
    result = pl.run_pipeline(config)
    assert result.exit_code == 0
    assert boosted == [12, 12]  # each k: 3 years x 4 fold models in one loop
    assert list(result.reports) == [(year, k) for year in (2021, 2022, 2023) for k in (2, 3)]
    batched = tree_digest(config.out_dir)
    for (year, k), report in result.reports.items():
        boosted.clear()
        assert _report_alone(config, year, k).to_json() == report.to_json()
        assert boosted == [4]

    # a k=2 cell has 4 x 5 x 1 x 2^3 = 160 leaf slots and a k=3 cell 480: at a
    # bound of 480 the k=2 cells still boost together, each k=3 cell alone
    monkeypatch.setattr(gbdt, "_BATCH_BUDGET", 480)
    boosted.clear()
    shutil.rmtree(config.out_dir)
    assert pl.run_pipeline(config).exit_code == 0
    assert boosted == [12, 4, 4, 4]
    assert tree_digest(config.out_dir) == batched


def test_a_batch_out_of_memory_fails_its_cells_and_the_next_batch_boosts(tmp_path, monkeypatch):
    # batches as in the test above at a bound of 480: the k=2 cells of all
    # three years, then each k=3 cell alone; the first and third run out of memory
    config = small_config(tmp_path, years=(2021, 2022, 2023), k_values=[2, 3], n_trees=5)
    monkeypatch.setattr(gbdt, "_BATCH_BUDGET", 480)
    boosted = []
    boost = gbdt._boost

    def starved(untrained):
        boosted.append(len(untrained))
        if len(boosted) in (1, 3):
            raise MemoryError("Unable to allocate 1.00 TiB")
        return boost(untrained)

    monkeypatch.setattr(gbdt, "_boost", starved)
    result = pl.run_pipeline(config)
    assert result.exit_code == 3
    assert boosted == [12, 4, 4, 4]
    assert {cell: (e["stage"], e["error"], e["message"]) for cell, e in result.errors.items()} == {
        cell: ("fit", "MemoryError", "Unable to allocate 1.00 TiB")
        for cell in [(2021, 2), (2022, 2), (2023, 2), (2022, 3)]
    }
    assert _summary(config)["cells_failed"] == list(result.errors.values())
    assert list(result.reports) == [(2021, 3), (2023, 3)]
    assert result.reports[(2023, 3)].to_json() == _report_alone(config, 2023, 3).to_json()


# the command line after the first argument, in a child that may map that
# many bytes past what it holds once the package is imported
_LIMITED_RUN = """
import resource, sys
from vaxclust.cli import main
with open("/proc/self/status") as f:
    mapped = next(int(line.split()[1]) for line in f if line.startswith("VmSize:")) * 1024
limit = mapped + int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.exit(main(sys.argv[2:]))
"""


def _out_of_memory(indir, *args):
    """``vaxclust *args`` past a 5,000-district year written to ``indir``,
    with 300 MB to map: the year needs two (n, n) float arrays, 400 MB, to
    cluster (it needed four)."""
    spec = synth.default_spec(year=2021, k=2, n_per_cluster=(2500, 2500), seed=7)
    synth.write_dataset_files(*synth.generate(spec), str(indir))
    src = os.path.dirname(os.path.dirname(vaxclust.__file__))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    return subprocess.run(
        [sys.executable, "-c", _LIMITED_RUN, str(300 << 20), *args],
        capture_output=True, text=True, env=env, timeout=300, check=False,
    )


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_out_of_memory_is_a_recorded_year_failure(tmp_path):
    # Before MemoryError was recorded, the run ended in a traceback (exit 1)
    # and wrote no run_summary.json.
    indir, out = tmp_path / "in", tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {"years": [2021], "input_dir": str(indir), "out_dir": str(out), "k_values": [2], "n_trees": 3}
    ))
    proc = _out_of_memory(indir, "run", "--config", str(config))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    with open(out / "run_summary.json", encoding="utf-8") as f:
        [failure] = json.load(f)["cells_failed"]
    assert (failure["year"], failure["k"], failure["stage"], failure["error"]) == (2021, 2, "ingestion", "MemoryError")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_stage_command_out_of_memory_exits_3(tmp_path):
    # the MemoryError left cli.main: a traceback and exit 1
    indir = tmp_path / "in"
    proc = _out_of_memory(indir, "cluster", "--input-dir", str(indir), "--year", "2021", "--out", str(tmp_path / "out"))
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: out of memory: ")
    assert "Traceback" not in proc.stderr


def test_year_past_district_bound_is_data_error(tmp_path, capsys):
    # one district past the bound fails before any (n, n) array, on every host
    indir, out = tmp_path / "in", tmp_path / "out"
    indir.mkdir()
    ids = [f"E{i:08d}" for i in range(hcluster.MAX_DISTRICTS + 1)]
    vaccination, gdsc = table_paths(indir, 2021)
    pl.write_text(vaccination, csv_text(
        ["district_id", "district_name", *VACCINE_COLUMNS], ([d, d, *[i % 101] * 14] for i, d in enumerate(ids))
    ))
    pl.write_text(gdsc, csv_text(
        ["district_id", *GDSC_NUMERIC_COLUMNS, "rurality"], ([d, *[i % 101] * 8, i % 6 + 1] for i, d in enumerate(ids))
    ))
    for stage in (["cluster"], ["train", "--k", "2", "--model-out", str(out / "model.json")]):
        assert main([stage[0], "--input-dir", str(indir), "--year", "2021", *stage[1:], "--out", str(out)]) == 2
        assert capsys.readouterr().err == "data error: a year holds at most 10000 districts to cluster, got 10001\n"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"years": [2021], "input_dir": str(indir), "out_dir": str(out), "k_values": [2]}))
    for command in (["run"], ["stats", "--year", "2021", "--k", "2"]):  # stats is run on one cell
        assert main([*command, "--config", str(config)]) == 2
        [failure] = _summary(pl.load_config(config))["cells_failed"]
        assert (failure["stage"], failure["error"]) == ("ingestion", "DataError")


def test_each_cell_draws_its_folds_once(tmp_path, monkeypatch):
    config = small_config(tmp_path, years=(2021, 2022), k_values=[2, 3], n_trees=3)
    seeds = []
    draw = evaluation.stratified_folds

    def counted(labels, k_folds, seed):
        seeds.append(seed)
        return draw(labels, k_folds, seed)

    monkeypatch.setattr(evaluation, "stratified_folds", counted)
    result = pl.run_pipeline(config)
    assert result.exit_code == 0
    assert len(seeds) == len(set(seeds)) == len(result.reports) == 4  # one draw per cell
    dataset = pl.load_dataset(config, 2021)
    dendro, _ = pl.cluster_year(dataset, config)
    seeds.clear()
    assignment = pl.assign_clusters(dataset, dendro, 2)
    cv = evaluation.cross_validate(dataset, assignment, config.train, k_folds=config.k_folds, seed=5)
    assert seeds == [5]
    assert len(cv.models) == config.k_folds


def test_geometry_mismatch_is_a_recorded_write_failure(tmp_path):
    geometry = tmp_path / "geometry.json"
    geometry.write_text(json.dumps({"type": "FeatureCollection", "features": []}))
    config = small_config(tmp_path, geometry_path=str(geometry))
    result = pl.run_pipeline(config)
    assert result.exit_code == 3
    failure = result.errors[(2021, 2)]
    assert (failure["stage"], failure["error"]) == ("write", "GeometryKeyMismatch")
    assert _summary(config)["cells_failed"] == [failure]
    assert not [name for name in os.listdir(config.out_dir) if "_2021_k2." in name]
    with open(os.path.join(config.out_dir, "metrics.csv"), encoding="utf-8") as f:
        assert "—" in f.read()


@pytest.mark.parametrize("content", [None, "{not json", "[1, 2]", '{"features": [5]}'])
def test_bad_geometry_path_is_config_error(tmp_path, content):
    path = tmp_path / "geometry.json"
    if content is not None:
        path.write_text(content)
    with pytest.raises(ConfigError):
        small_config(tmp_path, geometry_path=str(path))


def test_missing_input_file_is_data_error(tmp_path):
    config = pl.config_from_mapping({
        "years": [2021], "input_dir": str(tmp_path / "nowhere"),
        "out_dir": str(tmp_path / "out"),
    })
    result = pl.run_pipeline(config)
    assert result.exit_code == 2
    assert not result.reports


def test_a_year_without_tables_fails_at_ingestion_and_the_other_years_run(tmp_path):
    config = small_config(tmp_path, years=(2021, 2022), k_values=[2, 3], n_trees=5)
    for path in table_paths(config.input_dir, 2022):
        os.remove(path)
    result = pl.run_pipeline(config)
    assert result.exit_code == 2
    assert {cell: (e["stage"], e["error"]) for cell, e in result.errors.items()} == {
        (2022, 2): ("ingestion", "DataError"),
        (2022, 3): ("ingestion", "DataError"),
    }
    assert list(result.reports) == [(2021, 2), (2021, 3)]
    summary = _summary(config)
    assert summary["cells_ok"] == ["2021_k2", "2021_k3"]
    assert summary["cells_failed"] == list(result.errors.values())
    for name in ("report_2021_k2.json", "report_2021_k3.json", "metrics.csv", "dendrogram_2021.csv"):
        assert os.path.isfile(os.path.join(config.out_dir, name)), name


_CELL_FILES = ("clusters_{}.csv", "cluster_means_{}.csv", "shap_importance_{}.csv", "tests_{}.csv",
               "boxstats_{}.csv", "crosstab_{}.csv", "choropleth_{}.json", "report_{}.json")


def test_a_directory_in_the_way_fails_only_its_cell_at_write(tmp_path):
    # The IsADirectoryError left run_pipeline, and the run ended as a data
    # error (exit 2) with no metrics.csv and no run_summary.json, though the
    # k=2 cell's files were all written.
    config = small_config(tmp_path, k_values=[2, 3], n_trees=5)
    os.makedirs(os.path.join(config.out_dir, "report_2021_k3.json"))
    result = pl.run_pipeline(config)
    assert result.exit_code == 3
    failure = result.errors[(2021, 3)]
    assert (failure["stage"], failure["error"]) == ("write", "WriteError")
    summary = _summary(config)
    assert summary["cells_ok"] == ["2021_k2"]
    assert summary["cells_failed"] == [failure]
    names = set(os.listdir(config.out_dir))
    assert {name.format("2021_k2") for name in _CELL_FILES} | {"metrics.csv", "metrics_full.json"} <= names
    assert not [name for name in names if name.startswith(".")]  # no temporary file is left


def test_a_full_disk_fails_its_cell_and_leaves_no_partial_file(tmp_path, monkeypatch):
    # The disk fills halfway through report_2021_k3.json. The truncated
    # report stayed behind for `report` to read, and the OSError ended the
    # run as a data error (exit 2) with no run_summary.json.
    config = small_config(tmp_path, k_values=[2, 3], n_trees=5)
    real_open = open

    def full_disk(path, mode="r", *args, **kwargs):
        f = real_open(path, mode, *args, **kwargs)
        if "report_2021_k3.json" in os.fspath(path):
            write = f.write

            def write_half(text):
                write(text[: len(text) // 2])
                f.flush()
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            f.write = write_half
        return f

    monkeypatch.setattr("builtins.open", full_disk)
    result = pl.run_pipeline(config)
    monkeypatch.undo()
    assert result.exit_code == 3
    failure = result.errors[(2021, 3)]
    assert (failure["stage"], failure["error"]) == ("write", "WriteError")
    assert os.strerror(errno.ENOSPC) in failure["message"]
    assert _summary(config)["cells_ok"] == ["2021_k2"]
    names = set(os.listdir(config.out_dir))
    assert "report_2021_k3.json" not in names
    assert "report_2021_k2.json" in names
    assert not [name for name in names if name.startswith(".")]


def test_determinism_across_runs_and_threads(tmp_path):
    indir = small_inputs(tmp_path, n=20)
    digests = []
    out = tmp_path / "out"
    for threads in (1, 1, 4):
        if out.exists():
            shutil.rmtree(out)
        config = pl.config_from_mapping({
            "years": [2021], "input_dir": indir, "out_dir": str(out),
            "k_values": [2, 3], "n_trees": 8, "depth": 3, "k_folds": 4,
            "seed": 2, "threads": threads,
        })
        assert pl.run_pipeline(config).exit_code == 0
        digests.append(tree_digest(out))
    assert digests[0] == digests[1] == digests[2]


NAMES = ("Kingston upon Hull, City of", 'The "Quoted" District', "Ynys Môn")


@st.composite
def tiny_year(draw, year):
    """2-12 districts of a synthetic year, the first named with a comma, a
    quote and an accent; rates optionally on tied levels, one column constant."""
    spec = synth.default_spec(year=year, n_per_cluster=(6, 6), seed=draw(st.integers(0, 99)))
    dataset, truth = synth.generate(spec)
    keep = sorted(draw(st.sets(st.integers(0, 11), min_size=2, max_size=12)))
    step = draw(st.sampled_from([None, 5.0, 20.0]))
    constant = draw(st.booleans())
    rates = dataset.rates[keep] if step is None else step * np.round(dataset.rates[keep] / step)
    if constant:
        rates[:, 0] = 80.0
    names = tuple(NAMES[j] if j < len(NAMES) else dataset.names[i] for j, i in enumerate(keep))
    subset = YearDataset(
        year=year,
        ids=tuple(dataset.ids[i] for i in keep),
        names=names,
        rates=rates,
        gdsc=dataset.gdsc[keep],
        rurality=dataset.rurality[keep],
    )
    return subset, truth[keep]


def _truncate(path: str, fraction: float) -> None:
    with open(path, "r+b") as f:
        f.truncate(int(os.path.getsize(path) * fraction))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    years=st.lists(st.sampled_from(STUDY_YEARS), min_size=1, max_size=2, unique=True).flatmap(
        lambda years: st.tuples(*(tiny_year(year) for year in years))
    ),
    k_values=st.lists(st.sampled_from([2, 3, 4, 6]), min_size=1, max_size=2, unique=True),
    n_trees=st.integers(1, 4),
    depth=st.integers(1, 3),
    k_folds=st.integers(2, 5),
    linkage=st.sampled_from(["ward", "average"]),
    fraction=st.floats(0.0, 1.0),
)
def test_whole_run_ends_in_an_exit_code_property(years, k_values, n_trees, depth, k_folds, linkage, fraction):
    with tempfile.TemporaryDirectory() as tmp:
        indir, out = os.path.join(tmp, "in"), os.path.join(tmp, "out")
        for dataset, truth in years:
            synth.write_dataset_files(dataset, truth, indir)
        config = os.path.join(tmp, "config.json")
        with open(config, "w", encoding="utf-8") as f:
            json.dump({
                "years": [dataset.year for dataset, _ in years], "input_dir": indir, "out_dir": out,
                "k_values": k_values, "n_trees": n_trees, "depth": depth, "k_folds": k_folds,
                "linkage": linkage, "seed": 5,
            }, f)

        result = pl.run_pipeline(pl.load_config(config))
        assert result.exit_code in (0, 2, 3)
        with open(os.path.join(out, "run_summary.json"), encoding="utf-8") as f:
            summary = json.load(f)
        cells = summary["cells_ok"] + [f"{c['year']}_k{c['k']}" for c in summary["cells_failed"]]
        assert sorted(cells) == sorted(f"{dataset.year}_k{k}" for dataset, _ in years for k in k_values)

        # the stage subcommands on the files written above, then on truncated copies
        cut_in, cut_out = os.path.join(tmp, "cut_in"), os.path.join(tmp, "cut_out")
        shutil.copytree(indir, cut_in)
        shutil.copytree(out, cut_out)
        for path in glob.glob(os.path.join(cut_in, "*.csv")) + glob.glob(os.path.join(cut_out, "report_*.json")):
            _truncate(path, fraction)
        year, k = str(years[0][0].year), str(k_values[0])
        model, cut_model = os.path.join(tmp, "model.json"), os.path.join(tmp, "cut_model.json")
        stage = ["--config", config, "--year", year]
        codes = [main(["train", *stage, "--k", k, "--model-out", model])]
        if os.path.exists(model):
            shutil.copy(model, cut_model)
            _truncate(cut_model, fraction)
        for input_dir, model_path, runs in ((indir, model, out), (cut_in, cut_model, cut_out)):
            codes += [
                main(["train", *stage, "--input-dir", input_dir, "--k", k, "--model-out", os.path.join(tmp, "m.json")]),
                main(["explain", *stage, "--input-dir", input_dir, "--model", model_path,
                      "--out", os.path.join(tmp, "explain"), "--per-row"]),
                main(["report", "--runs", runs, "--out", os.path.join(tmp, "metrics.csv")]),
            ]
        assert all(code in (0, 1, 2, 3) for code in codes), codes


def _assignment_for(dataset, labels, names=("L", "H")):
    return ClusterAssignment(k=len(names), labels=np.asarray(labels), ordered_names=tuple(names))


def test_choropleth_without_geometry_is_property_array():
    dataset = quick_dataset([[60.0] * 14, [90.0] * 14])
    doc = pl.emit_choropleth(_assignment_for(dataset, [0, 1]), dataset)
    assert isinstance(doc, list) and len(doc) == 2
    assert doc[0]["district_id"] == "E000"
    assert doc[0]["cluster_name"] == "L"
    assert doc[0]["mean_overall_coverage"] == 60.0


def test_choropleth_missing_geometry_names_district():
    dataset = quick_dataset([[60.0] * 14, [90.0] * 14])
    geometry = {
        "type": "FeatureCollection",
        "features": [
            {"type": "Feature", "geometry": {"type": "Point", "coordinates": [0, 0]},
             "properties": {"district_id": "E000"}},
        ],
    }
    with pytest.raises(GeometryKeyMismatch) as err:
        pl.emit_choropleth(_assignment_for(dataset, [0, 1]), dataset, geometry)
    assert err.value.missing_ids == ["E001"]


def test_choropleth_with_full_geometry():
    dataset = quick_dataset([[60.0] * 14, [90.0] * 14])
    geometry = {
        "type": "FeatureCollection",
        "features": [
            {"type": "Feature", "geometry": {"type": "Point", "coordinates": [i, 0]},
             "properties": {"district_id": f"E{i:03d}"}}
            for i in range(2)
        ],
    }
    doc = pl.emit_choropleth(_assignment_for(dataset, [0, 1]), dataset, geometry)
    assert doc["type"] == "FeatureCollection"
    assert [f["properties"]["cluster_index"] for f in doc["features"]] == [0, 1]


def test_choropleth_wtable_2023_transitions():
    rows = load_wtable_assignment(2023)
    _, means = table2_means(2023, 2)
    rates = [list(means[r["cluster_index"]]) for r in rows]
    dataset = quick_dataset(rates, ids=[r["district_id"] for r in rows])
    assignment = _assignment_for(dataset, [r["cluster_index"] for r in rows])
    by_id = {p["district_id"]: p for p in pl.emit_choropleth(assignment, dataset)}
    # the large urban districts moved to the high cluster in 2023-24
    assert by_id["E08000025"]["cluster_name"] == "H"  # Birmingham
    assert by_id["E08000003"]["cluster_name"] == "H"  # Manchester
    assert by_id["E08000012"]["cluster_name"] == "H"  # Liverpool
    # while these two shifted from high to low coverage
    assert by_id["E10000003"]["cluster_name"] == "L"  # Cambridgeshire
    assert by_id["E10000006"]["cluster_name"] == "L"  # Cumbria


class _StubReport:
    def __init__(self, accuracy):
        self.metrics = {"mean": {
            "accuracy": accuracy, "macro_precision": accuracy - 0.01,
            "macro_recall": accuracy - 0.02, "macro_f1": accuracy - 0.03,
        }}


def test_emit_table3_formatting():
    reports = {(2021, 2): _StubReport(0.921)}
    table = pl.emit_table3(reports, [2021], [2, 3, 6])
    lines = table.splitlines()
    assert lines[0] == "year,metric,2 cluster,3 cluster,6 cluster"
    assert lines[1].startswith("2021-2022,Accuracy,92.1,")
    assert lines[1].endswith("—,—")
    assert lines[-1].startswith("#")


def test_emit_table3_complete_grid_has_no_footnote():
    reports = {(2021, k): _StubReport(0.5) for k in (2, 3, 6)}
    table = pl.emit_table3(reports, [2021], [2, 3, 6])
    assert "#" not in table
    assert "50.0" in table
