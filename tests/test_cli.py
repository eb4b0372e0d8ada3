from __future__ import annotations

import csv
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vaxclust
from vaxclust import pipeline, shapley
from vaxclust.cli import main
from vaxclust.dataset import csv_text, load_year, table_paths
from vaxclust.evaluation import dataset_design
from vaxclust.gbdt import TrainConfig, fit, from_json as model_from_json, to_json as model_to_json


def _write_config(tmp_path, indir, out, **extra):
    mapping = {
        "years": [2021],
        "input_dir": str(indir),
        "out_dir": str(out),
        "k_values": [2],
        "n_trees": 10,
        "depth": 3,
        "k_folds": 4,
        "seed": 3,
    }
    mapping.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(mapping))
    return str(path)


@pytest.fixture
def synth_inputs(tmp_path):
    indir = tmp_path / "in"
    code = main(["synth", "--year", "2021", "--k", "2", "--n-per-cluster", "12", "12",
                 "--seed", "8", "--out", str(indir)])
    assert code == 0
    return indir


def test_synth_writes_tables(synth_inputs):
    assert (synth_inputs / "vaccination_2021.csv").exists()
    assert (synth_inputs / "gdsc_2021.csv").exists()
    assert (synth_inputs / "truth_labels.csv").exists()


def test_run_subcommand(tmp_path, synth_inputs, capsys):
    out = tmp_path / "out"
    config = _write_config(tmp_path, synth_inputs, out)
    assert main(["run", "--config", config]) == 0
    assert (out / "metrics.csv").exists()
    assert "1 cell(s) ok" in capsys.readouterr().out


def test_run_and_train_with_single_leaf_trees(tmp_path, synth_inputs):
    # so large an L2 penalty makes every split gain too small: no tree splits
    out = tmp_path / "out"
    config = _write_config(tmp_path, synth_inputs, out, l2_leaf_reg=1e20)
    assert main(["run", "--config", config]) == 0
    assert json.loads((out / "run_summary.json").read_text())["cells_failed"] == []
    model_path = tmp_path / "model.json"
    assert main(["train", "--config", config, "--year", "2021", "--k", "2", "--model-out", str(model_path)]) == 0
    assert not model_from_json(model_path.read_text()).forest.n_levels.any()


def test_run_without_config_is_config_error(capsys):
    assert main(["run"]) == 1
    assert "config error" in capsys.readouterr().err


def test_run_bad_config_key(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"years": [2021], "input_dir": "x", "out_dir": "y", "oops": 1}))
    assert main(["run", "--config", str(path)]) == 1


def _cli_process(*args):
    """``python -m vaxclust.cli ARGS`` in a fresh interpreter, output captured."""
    src = os.path.dirname(os.path.dirname(vaxclust.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "vaxclust.cli", *args], capture_output=True, text=True, env=env, check=False,
    )


@pytest.mark.parametrize("key, value", [("n_trees", "5"), ("depth", 2.5), ("learning_rate", "0.1")])
def test_run_wrong_config_type_is_config_error(tmp_path, synth_inputs, key, value):
    config = _write_config(tmp_path, synth_inputs, tmp_path / "out", **{key: value})
    proc = _cli_process("run", "--config", config)
    assert proc.returncode == 1
    assert f"config error: config key '{key}'" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_run_missing_inputs_is_data_error(tmp_path):
    out = tmp_path / "out"
    config = _write_config(tmp_path, tmp_path / "missing", out)
    assert main(["run", "--config", config]) == 2


def _append_to_first_record(path, suffix: bytes):
    """Append ``suffix`` to the first field of the table's first data record."""
    head, first, rest = path.read_bytes().split(b"\n", 2)
    path.write_bytes(b"\n".join([head, first.replace(b",", suffix + b",", 1), rest]))


@pytest.mark.parametrize(
    "suffix", [b"\xff", b"x" * 200_000], ids=["undecodable-byte", "oversized-field"]
)
def test_unreadable_input_table_is_recorded_data_error(tmp_path, synth_inputs, suffix):
    _append_to_first_record(synth_inputs / "gdsc_2021.csv", suffix)
    out = tmp_path / "out"
    proc = _cli_process("run", "--config", _write_config(tmp_path, synth_inputs, out))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    summary = json.loads((out / "run_summary.json").read_text())
    (failure,) = summary["cells_failed"]
    assert (failure["stage"], failure["error"]) == ("ingestion", "DataError")
    assert "gdsc_2021.csv" in failure["message"]
    for stage in (["cluster", "--k-values", "2"], ["stats", "--k", "2"]):
        assert main([stage[0], "--input-dir", str(synth_inputs), "--year", "2021",
                     *stage[1:], "--out", str(tmp_path / "stage")]) == 2


# deeper than the JSON decoder's recursion limit: a RecursionError, not a ValueError
_DEEPLY_NESTED = b"[" * 100_000


def test_undecodable_config_is_config_error(tmp_path):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"years": [2021], "input_dir": "in\xff", "out_dir": "out"}')
    proc = _cli_process("run", "--config", str(path))
    assert proc.returncode == 1
    assert proc.stderr.startswith("config error: config file is not valid JSON")
    assert "Traceback" not in proc.stderr
    path.write_bytes(_DEEPLY_NESTED)
    proc = _cli_process("run", "--config", str(path))
    assert proc.returncode == 1
    assert proc.stderr.startswith("config error: config file is not valid JSON: maximum recursion depth")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("flags", [["--k", "4"], ["--year", "2024"]], ids=["k4", "year2024"])
def test_synth_without_embedded_means_is_spec_error(tmp_path, flags):
    proc = _cli_process("synth", *flags, "--out", str(tmp_path))
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: no embedded cluster means") and "(2021, 2)" in proc.stderr
    assert not list(tmp_path.iterdir())


def test_run_missing_geometry_is_config_error(tmp_path, synth_inputs, capsys):
    out = tmp_path / "out"
    config = _write_config(tmp_path, synth_inputs, out, geometry_path=str(tmp_path / "absent.geojson"))
    assert main(["run", "--config", config]) == 1
    assert "geometry" in capsys.readouterr().err
    assert not out.exists()
    geometry = tmp_path / "deep.geojson"
    geometry.write_bytes(_DEEPLY_NESTED)
    config = _write_config(tmp_path, synth_inputs, out, geometry_path=str(geometry))
    assert main(["run", "--config", config]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: geometry file is not valid JSON: maximum recursion depth")
    assert "Traceback" not in err
    assert not out.exists()


def test_cluster_csv_quotes_names(tmp_path, synth_inputs):
    path = synth_inputs / "vaccination_2021.csv"
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    names = {rows[1][0]: "Kingston upon Hull, City of", rows[2][0]: 'The "Quoted" District'}
    for row in rows[1:3]:
        row[1] = names[row[0]]
    with open(path, "w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerows(rows)
    out = tmp_path / "clusters"
    assert main(["cluster", "--input-dir", str(synth_inputs), "--year", "2021",
                 "--k-values", "2", "--out", str(out)]) == 0
    with open(out / "clusters_2021_k2.csv", newline="", encoding="utf-8") as f:
        written = list(csv.reader(f))
    assert all(len(row) == 4 for row in written)
    assert {row[0]: row[1] for row in written[1:] if row[0] in names} == names

    run_out = tmp_path / "run"
    assert main(["run", "--config", _write_config(tmp_path, synth_inputs, run_out)]) == 0
    for path in sorted(run_out.glob("*.csv")):
        with open(path, newline="", encoding="utf-8") as f:
            header, *records = list(csv.reader(f))
        assert records and all(len(record) == len(header) for record in records), path.name
    assert (run_out / "clusters_2021_k2.csv").read_bytes() == (out / "clusters_2021_k2.csv").read_bytes()


def test_cluster_three_district_year(tmp_path, synth_inputs):
    for table in ("vaccination", "gdsc"):
        path = synth_inputs / f"{table}_2021.csv"
        path.write_text("\n".join(path.read_text().splitlines()[:4]) + "\n")
    out = tmp_path / "clusters"
    assert main(["cluster", "--input-dir", str(synth_inputs), "--year", "2021",
                 "--k-values", "2", "--out", str(out)]) == 0
    assert len((out / "clusters_2021_k2.csv").read_text().splitlines()) == 4


def test_cluster_subcommand(tmp_path, synth_inputs):
    out = tmp_path / "out"
    code = main(["cluster", "--input-dir", str(synth_inputs), "--year", "2021",
                 "--k-values", "2", "3", "--out", str(out)])
    assert code == 0
    assert (out / "clusters_2021_k2.csv").exists()
    assert (out / "clusters_2021_k3.csv").exists()
    assert (out / "dendrogram_2021.csv").exists()

    run_out = tmp_path / "run"
    config = _write_config(tmp_path, synth_inputs, run_out, linkage="average", scale_rates=False)
    assert main(["cluster", "--config", config, "--year", "2021", "--out", str(out)]) == 0
    assert main(["run", "--config", config]) == 0
    for name in ("clusters_2021_k2.csv", "dendrogram_2021.csv"):
        assert (out / name).read_bytes() == (run_out / name).read_bytes(), name


@pytest.mark.parametrize("noise_sd", ["nan", "inf"])
def test_synth_non_finite_noise_sd_is_spec_error(tmp_path, capsys, noise_sd):
    assert main(["synth", "--noise-sd", noise_sd, "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == (
        f"error: the noise standard deviation must be finite and >= 0, got {noise_sd}\n"
    )
    assert not list(tmp_path.iterdir())


def test_run_score_beyond_a_double_is_ingestion_error(tmp_path, synth_inputs):
    path = synth_inputs / "gdsc_2021.csv"
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    assert rows[4]["district_id"] == "S0004"
    rows[4]["imd_avg_score"] = "9" * 400
    path.write_text(csv_text(list(rows[0]), (row.values() for row in rows)), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", _write_config(tmp_path, synth_inputs, out, k_values=[2, 3])]) == 2
    summary = json.loads((out / "run_summary.json").read_text())
    message = "value inf out of range for column 'imd_avg_score' (district S0004)"
    assert summary["cells_failed"] == [
        {"year": 2021, "k": k, "stage": "ingestion", "error": "OutOfRange", "message": message} for k in (2, 3)
    ]


def test_train_explain_round_trip(tmp_path, synth_inputs):
    model_path = tmp_path / "model.json"
    code = main(["train", "--input-dir", str(synth_inputs), "--year", "2021",
                 "--k", "2", "--model-out", str(model_path), "--seed", "4"])
    assert code == 0
    assert model_path.exists()
    out = tmp_path / "explain"
    code = main(["explain", "--input-dir", str(synth_inputs), "--year", "2021",
                 "--model", str(model_path), "--out", str(out), "--per-row"])
    assert code == 0
    assert (out / "shap_importance_2021.csv").exists()
    assert (out / "shap_rows_2021.csv").exists()

    config = _write_config(tmp_path, synth_inputs, tmp_path / "unused", n_trees=3, depth=2)
    assert main(["train", "--config", config, "--input-dir", str(synth_inputs), "--year", "2021",
                 "--k", "2", "--model-out", str(model_path)]) == 0
    model = model_from_json(model_path.read_text())
    assert (model.config.n_trees, model.config.depth, len(model.trees)) == (3, 2, 3)


def test_explain_per_row_runs_shap_once(tmp_path, synth_inputs, monkeypatch):
    model_path = tmp_path / "model.json"
    assert main(["train", "--input-dir", str(synth_inputs), "--year", "2021",
                 "--k", "3", "--model-out", str(model_path), "--seed", "4"]) == 0
    calls = []
    explain = shapley.TreeShapExplainer.explain

    def counted(self, design):
        calls.append(len(design))
        return explain(self, design)

    monkeypatch.setattr(shapley.TreeShapExplainer, "explain", counted)
    out = tmp_path / "explain"
    assert main(["explain", "--input-dir", str(synth_inputs), "--year", "2021",
                 "--model", str(model_path), "--out", str(out), "--per-row"]) == 0
    assert calls == [24]

    # the two files as the ranking and the rows each computed them on their own
    model = model_from_json(model_path.read_bytes())
    dataset = load_year(str(synth_inputs / "vaccination_2021.csv"), str(synth_inputs / "gdsc_2021.csv"), 2021)
    numeric, categorical, _, _ = dataset_design(dataset)
    design = model.encode_features(numeric, categorical)
    ranking = shapley.global_importance(model, design).ranking()
    phi = explain(shapley.TreeShapExplainer(model), design)
    ranked = ((name, value, rank) for rank, (name, value) in enumerate(ranking, start=1))
    assert (out / "shap_importance_2021.csv").read_text(encoding="utf-8") == csv_text(
        ("feature_name", "mean_abs_shap", "rank"), ranked
    )
    rows = (
        (district_id, output, name, float(phi[i, output, j]))
        for i, district_id in enumerate(dataset.ids)
        for output in range(phi.shape[1])
        for j, name in enumerate(model.feature_names)
    )
    assert (out / "shap_rows_2021.csv").read_text(encoding="utf-8") == csv_text(
        ("district_id", "output", "feature_name", "phi"), rows
    )

    # without --per-row: the same one pass, and the same ranking file
    calls.clear()
    ranking_only = tmp_path / "ranking"
    assert main(["explain", "--input-dir", str(synth_inputs), "--year", "2021",
                 "--model", str(model_path), "--out", str(ranking_only)]) == 0
    assert calls == [24]
    assert (ranking_only / "shap_importance_2021.csv").read_bytes() == (out / "shap_importance_2021.csv").read_bytes()
    assert not (ranking_only / "shap_rows_2021.csv").exists()


@pytest.mark.parametrize("categorical", [True, False], ids=["seven-numeric", "no-encoder"])
def test_explain_model_of_another_feature_layout_is_data_error(tmp_path, synth_inputs, capsys, categorical):
    # a valid model document whose features are not the year's: seven
    # numeric features and the encoded rurality, or the numeric ones alone
    dataset = load_year(str(synth_inputs / "vaccination_2021.csv"), str(synth_inputs / "gdsc_2021.csv"), 2021)
    numeric, rurality, _, _ = dataset_design(dataset)
    labels = np.arange(numeric.shape[0]) % 2
    if categorical:
        model = fit(numeric[:, 1:], rurality, labels, TrainConfig(n_trees=3, depth=2))
        counts = "takes 7 numeric and 1 categorical feature(s), year 2021 has 8 and 1"
    else:
        model = fit(numeric, None, labels, TrainConfig(n_trees=3, depth=2))
        counts = "takes 8 numeric and 0 categorical feature(s), year 2021 has 8 and 1"
    model_path = tmp_path / "model.json"
    model_path.write_text(model_to_json(model))
    assert model_from_json(model_path.read_text()).n_numeric == (7 if categorical else 8)  # from_json accepts it
    out = tmp_path / "explain"
    code = main(["explain", "--input-dir", str(synth_inputs), "--year", "2021",
                 "--model", str(model_path), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: model") and counts in err, err
    assert not out.exists()


def _swap_first_numeric(doc):
    for key in ("feature_names", "feature_source"):
        doc[key][:2] = doc[key][1::-1]


def _rename_encoded(doc):
    doc["encoder"]["feature_names"] = ["urban"]


@pytest.mark.parametrize("corrupt", [_swap_first_numeric, _rename_encoded], ids=["swapped", "renamed"])
def test_explain_model_of_another_column_order_is_data_error(tmp_path, synth_inputs, capsys, corrupt):
    # the year's feature counts under other names or in another order: before
    # the names were compared, explain exited 0 and ranked under the model's names
    model_path = tmp_path / "model.json"
    assert main(["train", "--input-dir", str(synth_inputs), "--year", "2021",
                 "--k", "2", "--model-out", str(model_path)]) == 0
    doc = json.loads(model_path.read_text())
    corrupt(doc)
    model_path.write_text(json.dumps(doc))
    model = model_from_json(model_path.read_text())  # from_json accepts it
    capsys.readouterr()
    out = tmp_path / "explain"
    code = main(["explain", "--input-dir", str(synth_inputs), "--year", "2021",
                 "--model", str(model_path), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    _, _, numeric_names, cat_names = dataset_design(load_year(*table_paths(str(synth_inputs), 2021), 2021))
    model_layout = f"{list(model.feature_names[:8])} and {list(model.ts_encoder.feature_names)}"
    assert err.startswith("data error: model") and "takes 8 numeric and 1 categorical feature(s)" in err, err
    assert model_layout in err and f"{numeric_names} and {cat_names}" in err, err
    assert not out.exists()


# A valid training config whose k=6 models diverge on the synth seed 7 year:
# with no L2 penalty a saturated softmax drives the hessians to 0 and the
# leaf values past any bound, within 5 rounds for the fold models and 50 for
# the model of the whole year. The k=2 models stay finite.
_DIVERGING = {"l2_leaf_reg": 0.0, "learning_rate": 1.0, "depth": 2, "n_trees": 50, "k_folds": 5, "seed": 7}


def test_diverging_boosting_fails_only_its_cell(tmp_path, capsys):
    # pytest turns RuntimeWarnings into errors, as -W error::RuntimeWarning
    # does: before the check this run ended in a traceback at the grower's
    # divide, and a plain run wrote Infinity and nan into the k=6 artifacts
    indir, out = tmp_path / "in", tmp_path / "out"
    assert main(["synth", "--seed", "7", "--out", str(indir)]) == 0
    config = _write_config(tmp_path, indir, out, k_values=[2, 6], **_DIVERGING)
    assert main(["run", "--config", config]) == 3
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["cells_ok"] == ["2021_k2"]
    [failure] = summary["cells_failed"]
    assert (failure["year"], failure["k"], failure["error"]) == (2021, 6, "NonFiniteModel")
    assert failure["message"].startswith("boosting diverged")
    for path in out.iterdir():
        assert not re.search(r"\b(inf|nan|Infinity|NaN)\b", path.read_text(encoding="utf-8")), path.name

    model_path = tmp_path / "model.json"
    capsys.readouterr()
    assert main(["train", "--config", config, "--year", "2021", "--k", "6", "--model-out", str(model_path)]) == 3
    assert capsys.readouterr().err.startswith("error: boosting diverged")
    assert not model_path.exists()


@pytest.mark.parametrize("command", ["cluster", "train", "explain", "stats"])
def test_stage_commands_report_dropped_districts(tmp_path, synth_inputs, capsys, command):
    model_path = tmp_path / "model.json"
    assert main(["train", "--input-dir", str(synth_inputs), "--year", "2021",
                 "--k", "2", "--model-out", str(model_path)]) == 0
    path = synth_inputs / "gdsc_2021.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    dropped = lines[3].split(",")[0]
    path.write_text("".join(lines[:3] + lines[4:]), encoding="utf-8")
    capsys.readouterr()
    extra = {
        "cluster": [],
        "train": ["--k", "2", "--model-out", str(tmp_path / "partial.json")],
        "explain": ["--model", str(model_path)],
        "stats": ["--k", "2"],
    }[command]
    code = main([command, "--input-dir", str(synth_inputs), "--year", "2021", "--allow-partial",
                 "--out", str(tmp_path / "out"), *extra])
    assert code == 0
    assert capsys.readouterr().err == (
        f"year 2021: partial join dropped 1 district(s) found in the vaccination table only: {dropped}\n"
    )


@pytest.mark.parametrize("per_row", [[], ["--per-row"]], ids=["ranking", "per-row"])
def test_explain_empty_year_is_error(tmp_path, synth_inputs, capsys, per_row):
    model_path = tmp_path / "model.json"
    assert main(["train", "--input-dir", str(synth_inputs), "--year", "2021",
                 "--k", "2", "--model-out", str(model_path)]) == 0
    path = synth_inputs / "gdsc_2021.csv"
    head, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text(head + "".join("X" + row for row in rows), encoding="utf-8")  # no id in common
    capsys.readouterr()
    out = tmp_path / "explain"
    code = main(["explain", "--input-dir", str(synth_inputs), "--year", "2021", "--allow-partial",
                 "--model", str(model_path), "--out", str(out), *per_row])
    assert code == 3
    assert capsys.readouterr().err.endswith("error: global importance needs at least one row\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "corrupt, code",
    [
        (lambda text: b'{"model_type": "oblivious_gbdt"}', 2),
        (lambda text: b"not json", 2),
        (lambda text: b"\x89PNG\r\n\x1a\n", 2),
        (lambda text: _DEEPLY_NESTED, 2),
        (lambda text: b"[" + text + b"]", 2),
        (lambda text: b"\xef\xbb\xbf" + text, 0),  # a leading byte-order mark is skipped
    ],
    ids=["missing-keys", "not-json", "binary", "deep-nesting", "array", "byte-order-mark"],
)
def test_explain_corrupt_model_is_data_error(tmp_path, synth_inputs, capsys, corrupt, code):
    model_path = tmp_path / "model.json"
    assert main(["train", "--config", _write_config(tmp_path, synth_inputs, tmp_path / "out"),
                 "--year", "2021", "--k", "2", "--model-out", str(model_path)]) == 0
    model_path.write_bytes(corrupt(model_path.read_bytes()))
    capsys.readouterr()
    assert main(["explain", "--input-dir", str(synth_inputs), "--year", "2021",
                 "--model", str(model_path), "--out", str(tmp_path / "explain")]) == code
    err = capsys.readouterr().err
    assert (err.startswith("data error: model") if code else not err) and "Traceback" not in err


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda doc: doc["trees"][0].update(leaf_cover=[0] * len(doc["trees"][0]["leaf_cover"])),
        lambda doc: doc.update(learning_rate=-5.0),
    ],
    ids=["leaf-cover-empty", "learning-rate-vs-config"],
)
def test_explain_inconsistent_model_is_data_error(tmp_path, synth_inputs, capsys, corrupt):
    model_path = tmp_path / "model.json"
    assert main(["train", "--input-dir", str(synth_inputs), "--year", "2021",
                 "--k", "2", "--model-out", str(model_path)]) == 0
    doc = json.loads(model_path.read_text())
    corrupt(doc)
    model_path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["explain", "--input-dir", str(synth_inputs), "--year", "2021",
                 "--model", str(model_path), "--out", str(tmp_path / "explain")])
    assert code == 2
    assert capsys.readouterr().err.startswith("data error: model")


def _largest_cover_leaf(doc, tree=0):
    covers = doc["trees"][tree]["leaf_cover"]
    return doc["trees"][tree], covers.index(max(covers))


def _huge_leaves(doc):
    for t in (0, 3):
        tree, leaf = _largest_cover_leaf(doc, t)
        tree["leaf_values"][leaf] = 1e308


def _heavy_leaf(doc):  # 0.1 * 1e299 * 2**50 passes the largest double
    tree, leaf = _largest_cover_leaf(doc)
    tree["leaf_values"][leaf], tree["leaf_cover"][leaf] = 1e299, 2**50


def _wrapping_covers(doc):  # five covers of 2**62 + 1 sum past 2**63
    tree = doc["trees"][0]
    tree["leaf_cover"] = [2**62 + 1] * 5 + [1] * (len(tree["leaf_cover"]) - 5)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_huge_leaves, "keep every margin within 1e+300"),
        (_heavy_leaf, "keep every cover-weighted leaf sum within 1e+300"),
        (_wrapping_covers, "leaf_cover must sum below 9007199254740992"),
    ],
    ids=["leaf-values-1e308", "cover-weighted-leaf", "covers-past-int64"],
)
def test_explain_model_past_the_magnitude_bound_is_data_error(tmp_path, synth_inputs, capsys, corrupt, message):
    # before the bound: an overflow RuntimeWarning in SHAP, or (covers) a
    # wrapped int64 cover total and exit 0
    config = _write_config(tmp_path, synth_inputs, tmp_path / "explain", n_trees=5, depth=6, seed=7)
    model_path = tmp_path / "model.json"
    assert main(["train", "--config", config, "--year", "2021", "--k", "3", "--model-out", str(model_path)]) == 0
    doc = json.loads(model_path.read_text())
    corrupt(doc)
    model_path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["explain", "--config", config, "--year", "2021", "--model", str(model_path), "--per-row"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: model document") and message in err


def _json_paths(value, prefix=()):
    """Every path below the root of a JSON document, containers included."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield (*prefix, key)
        yield from _json_paths(child, (*prefix, key))


_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.sampled_from([0, 1, -1, 2**53, 2**62, 2**63 - 1, 2**63, -(2**63), 1e300, 1e308, -1e308, 5e-324, -0.0]),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.integers(-3, 3), max_size=4),
    st.lists(st.floats(-1e308, 1e308), max_size=4),
    st.just({}),
)
_DROP = object()  # a change that deletes the key or list item at its path


def _check_mutated_models(tmp_path, synth_inputs, k, n_trees, max_examples, *flags):
    """A valid model file trained with ``k`` and ``n_trees``, changed at 1 to
    3 places, ends ``explain`` in exit 0-3, with no exception and no
    RuntimeWarning (an error under pytest's filter)."""
    config = _write_config(tmp_path, synth_inputs, tmp_path / "explain", n_trees=n_trees, seed=7)
    model_path = tmp_path / "model.json"
    assert main(["train", "--config", config, "--year", "2021", "--k", k, "--model-out", str(model_path)]) == 0
    valid = model_path.read_text()
    paths = sorted(_json_paths(json.loads(valid)), key=repr)
    mutated_path = tmp_path / "mutated.json"

    @settings(derandomize=True, max_examples=max_examples, deadline=None)
    @given(changes=_changes(paths))
    def check(changes):
        mutated_path.write_text(_mutated(valid, changes))
        code = main(["explain", "--config", config, "--year", "2021", "--model", str(mutated_path), *flags])
        assert code in (0, 1, 2, 3)

    check()


def test_mutated_model_files_end_explain_in_an_exit_code(tmp_path, synth_inputs):
    _check_mutated_models(tmp_path, synth_inputs, "3", 4, 150, "--per-row")


def test_mutated_binary_model_files_end_explain_in_an_exit_code(tmp_path, synth_inputs):
    # k=2 boosts one binary_logistic output where k=3 boosts three softmax outputs
    _check_mutated_models(tmp_path, synth_inputs, "2", 2, 100)


def _changes(paths):
    """1 to 3 (path, new value or ``_DROP``) pairs."""
    return st.lists(st.tuples(st.sampled_from(paths), _JSON_VALUES | st.just(_DROP)), min_size=1, max_size=3)


def _mutated(text, changes) -> str:
    """The JSON document ``text`` with each change's value at its path, or its
    key dropped, where that path is still there after the changes before it."""
    doc = json.loads(text)
    for path, value in changes:
        parent = doc
        for key in path[:-1]:
            parent = parent[key] if isinstance(parent, (dict, list)) and _holds(parent, key) else None
        if isinstance(parent, (dict, list)) and _holds(parent, path[-1]):
            if value is _DROP:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
    return json.dumps(doc)


def _holds(container, key) -> bool:
    if isinstance(container, dict):
        return key in container
    return isinstance(key, int) and 0 <= key < len(container)


def test_mutated_report_files_end_report_in_an_exit_code(tmp_path, synth_inputs):
    """A valid report file changed at 1 to 3 places ends ``report`` in exit
    0-3, with no exception and no RuntimeWarning."""
    out = tmp_path / "out"
    assert main(["run", "--config", _write_config(tmp_path, synth_inputs, out, n_trees=4, seed=7)]) == 0
    valid = (out / "report_2021_k2.json").read_text()
    paths = sorted(_json_paths(json.loads(valid)), key=repr)
    runs = tmp_path / "runs"
    runs.mkdir()

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(changes=_changes(paths))
    def check(changes):
        (runs / "report_2021_k2.json").write_text(_mutated(valid, changes))
        assert main(["report", "--runs", str(runs), "--out", str(tmp_path / "metrics.csv")]) in (0, 1, 2, 3)

    check()


def _geometry_text(indir) -> str:
    """A GeoJSON point for each district of the 2021 tables in ``indir``."""
    ids = load_year(*table_paths(indir, 2021), 2021).ids
    return json.dumps({"type": "FeatureCollection", "features": [
        {"type": "Feature", "properties": {"district_id": district_id},
         "geometry": {"type": "Point", "coordinates": [float(i), -float(i)]}}
        for i, district_id in enumerate(ids)
    ]})


def test_geometry_is_parsed_once_per_command(tmp_path, synth_inputs, monkeypatch):
    # validation and use share one parse, where run parsed the file three
    # times and stats twice
    geometry = tmp_path / "geometry.json"
    geometry.write_text(_geometry_text(synth_inputs))
    config = _write_config(tmp_path, synth_inputs, tmp_path / "out", n_trees=2, depth=2, geometry_path=str(geometry))
    read = pipeline._read_geometry
    parses = []
    monkeypatch.setattr(pipeline, "_read_geometry", lambda path: parses.append(path) or read(path))
    for command in (["run"], ["stats", "--year", "2021", "--k", "2"]):
        parses.clear()
        assert main([*command, "--config", config]) == 0
        assert parses == [str(geometry)], command
    assert (tmp_path / "out" / "choropleth_2021_k2.geojson").exists()


def test_mutated_geometry_files_end_run_in_an_exit_code(tmp_path, synth_inputs):
    """A valid geometry file changed at 1 to 3 places ends ``run`` in exit
    0-3, with no exception and no RuntimeWarning, and ``run_summary.json``
    written whenever the run got past its config."""
    valid = _geometry_text(synth_inputs)
    paths = sorted(_json_paths(json.loads(valid)), key=repr)
    geometry = tmp_path / "geometry.json"
    out = tmp_path / "out"
    config = _write_config(tmp_path, synth_inputs, out, n_trees=2, depth=2, geometry_path=str(geometry))

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(changes=_changes(paths))
    def check(changes):
        geometry.write_text(_mutated(valid, changes))
        (out / "run_summary.json").unlink(missing_ok=True)
        code = main(["run", "--config", config])
        assert code in (0, 1, 2, 3)
        assert code == 1 or (out / "run_summary.json").exists()

    check()


_TABLE_EDITS = st.tuples(
    st.sampled_from(["vaccination_2021.csv", "gdsc_2021.csv"]),
    st.sampled_from(["splice", "delete", "duplicate", "truncate", "insert"]),
    st.integers(0, 2**16),  # where, modulo the table's length + 1
    st.integers(0, 2**16),  # where a splice puts its bytes, likewise
    st.integers(1, 200),  # how many bytes a splice, delete or duplicate takes
    st.sampled_from([b"\xef\xbb\xbf", b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x00"]),  # what insert adds
)


def _edited(data: bytes, operation, at, to, length, insert) -> bytes:
    at %= len(data) + 1
    taken = data[at : at + length]
    if operation == "truncate":
        return data[:at]
    if operation == "insert":
        return data[:at] + insert + data[at:]
    if operation == "duplicate":
        return data[: at + length] + taken + data[at + length :]
    data = data[:at] + data[at + length :]
    if operation == "splice":
        to %= len(data) + 1
        data = data[:to] + taken + data[to:]
    return data


def test_mutated_input_tables_end_run_in_an_exit_code(tmp_path, synth_inputs):
    """The two input tables with 1 to 3 byte edits (spliced, deleted,
    duplicated or truncated bytes, invalid UTF-8, a BOM) end a 2-tree ``run``
    in exit 0-3, with no exception and no RuntimeWarning, and
    ``run_summary.json`` written."""
    valid = {name: (synth_inputs / name).read_bytes() for name in ("vaccination_2021.csv", "gdsc_2021.csv")}
    indir, out = tmp_path / "mutated", tmp_path / "out"
    indir.mkdir()
    config = _write_config(tmp_path, indir, out, n_trees=2, depth=2)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(edits=st.lists(_TABLE_EDITS, min_size=1, max_size=3))
    def check(edits):
        tables = dict(valid)
        for name, *edit in edits:
            tables[name] = _edited(tables[name], *edit)
        for name, data in tables.items():
            (indir / name).write_bytes(data)
        (out / "run_summary.json").unlink(missing_ok=True)
        assert main(["run", "--config", config]) in (0, 1, 2, 3)
        assert (out / "run_summary.json").exists()

    check()


def test_stats_subcommand(tmp_path, synth_inputs):
    out = tmp_path / "stats"
    code = main(["stats", "--input-dir", str(synth_inputs), "--year", "2021",
                 "--k", "2", "--out", str(out), "--seed", "2"])
    assert code == 0
    assert (out / "tests_2021_k2.csv").exists()
    assert (out / "boxstats_2021_k2.csv").exists()
    assert (out / "crosstab_2021_k2.csv").exists()


_CELL_FILES = ("clusters_{}.csv", "cluster_means_{}.csv", "shap_importance_{}.csv", "tests_{}.csv",
               "boxstats_{}.csv", "crosstab_{}.csv", "choropleth_{}.json")


def test_stats_is_run_on_one_cell(tmp_path, synth_inputs):
    # run boosts the two years' k=3 cells together, stats its one cell alone
    assert main(["synth", "--year", "2022", "--k", "2", "--n-per-cluster", "12", "12", "--seed", "9",
                 "--out", str(synth_inputs)]) == 0
    run_out, alone = tmp_path / "run", tmp_path / "alone"
    config = _write_config(tmp_path, synth_inputs, run_out, years=[2021, 2022], k_values=[2, 3])
    assert main(["run", "--config", config]) == 0
    assert main(["stats", "--config", config, "--year", "2022", "--k", "3", "--out", str(alone)]) == 0
    cell = [name.format("2022_k3") for name in _CELL_FILES]
    run_files = ["dendrogram_2022.csv", "report_2022_k3.json", "metrics.csv", "metrics_full.json", "run_summary.json"]
    assert sorted(path.name for path in alone.iterdir()) == sorted(cell + run_files)
    for name in [*cell, "dendrogram_2022.csv"]:
        assert (alone / name).read_bytes() == (run_out / name).read_bytes(), name


def test_stats_failed_write_is_a_recorded_cell_failure(tmp_path, synth_inputs, capsys):
    # stats let the IsADirectoryError reach cli.main, which called it a data
    # error (exit 2), and wrote no run_summary.json
    out = tmp_path / "stats"
    (out / "report_2021_k2.json").mkdir(parents=True)
    code = main(["stats", "--input-dir", str(synth_inputs), "--year", "2021", "--k", "2", "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err.startswith("year 2021, k=2: write failed: WriteError: cannot write ")
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["cells_ok"] == []
    assert [(f["year"], f["k"], f["stage"], f["error"]) for f in summary["cells_failed"]] == [
        (2021, 2, "write", "WriteError")
    ]
    for name in [name.format("2021_k2") for name in _CELL_FILES] + ["dendrogram_2021.csv", "metrics.csv"]:
        assert (out / name).is_file(), name


@pytest.mark.parametrize("command", ["cluster", "train"])
def test_stage_command_failed_write_exits_3(tmp_path, synth_inputs, capsys, command):
    # a directory in the way of the output: cli.main called the OSError a
    # data error (exit 2), though the input tables are fine
    out = tmp_path / "out"
    (out / "clusters_2021_k2.csv").mkdir(parents=True)
    extra = {"cluster": ["--k-values", "2"], "train": ["--k", "2", "--model-out", str(out)]}[command]
    code = main([command, "--input-dir", str(synth_inputs), "--year", "2021", "--out", str(out), *extra])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: cannot write ")


@pytest.mark.parametrize("command", ["run", "stats"])
def test_a_failed_dendrogram_write_fails_the_years_cells_at_write(tmp_path, synth_inputs, command):
    # the year stage called every failure ingestion, so the IsADirectoryError
    # of the dendrogram write made the run a data error (exit 2)
    out = tmp_path / "out"
    (out / "dendrogram_2021.csv").mkdir(parents=True)
    config = _write_config(tmp_path, synth_inputs, out, k_values=[2, 3])
    extra = {"run": [], "stats": ["--year", "2021", "--k", "2"]}[command]
    assert main([command, "--config", config, *extra]) == 3
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["cells_ok"] == []
    ks = {"run": [2, 3], "stats": [2]}[command]
    assert [(f["k"], f["stage"], f["error"]) for f in summary["cells_failed"]] == [
        (k, "write", "WriteError") for k in ks
    ]
    assert (out / "metrics.csv").is_file()


@pytest.mark.parametrize("name", ["metrics.csv", "metrics_full.json", "run_summary.json"])
def test_a_failed_run_level_write_exits_3(tmp_path, synth_inputs, name):
    # cli.main called the IsADirectoryError a data error (exit 2)
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    proc = _cli_process("run", "--config", _write_config(tmp_path, synth_inputs, out))
    assert proc.returncode == 3
    assert proc.stderr.startswith(f"error: cannot write {out / name}: ")
    assert "Traceback" not in proc.stderr


def test_synth_failed_write_exits_3(tmp_path, capsys):
    # cli.main called the IsADirectoryError a data error (exit 2)
    out = tmp_path / "syn"
    (out / "vaccination_2021.csv").mkdir(parents=True)
    assert main(["synth", "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error: cannot write ")


@pytest.mark.parametrize("command", ["cluster", "explain"])
def test_an_output_directory_that_is_a_file_exits_3(tmp_path, synth_inputs, capsys, command):
    # os.makedirs raised FileExistsError, which cli.main called a data error (exit 2)
    model_path = tmp_path / "model.json"
    assert main(["train", "--input-dir", str(synth_inputs), "--year", "2021",
                 "--k", "2", "--model-out", str(model_path)]) == 0
    out = tmp_path / "taken"
    out.write_text("")
    extra = {"cluster": ["--k-values", "2"], "explain": ["--model", str(model_path)]}[command]
    capsys.readouterr()
    code = main([command, "--input-dir", str(synth_inputs), "--year", "2021", "--out", str(out), *extra])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: cannot write ")


def test_a_run_whose_output_directory_cannot_be_made_reads_no_year(tmp_path, synth_inputs, capsys, monkeypatch):
    # the run loaded and clustered every year, recorded its cells as failed
    # writes, then stopped at metrics.csv and printed none of those failures
    out = tmp_path / "taken"
    out.write_text("")
    loads = []
    monkeypatch.setattr(pipeline, "load_year", lambda *args, **kwargs: loads.append(args) or load_year(*args, **kwargs))
    config = _write_config(tmp_path, synth_inputs, out, k_values=[2, 3])
    capsys.readouterr()
    assert main(["run", "--config", config]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
    assert "metrics.csv" not in err
    assert loads == []


def test_train_makes_the_model_directory(tmp_path, synth_inputs):
    # the only output whose directory was not made: exit 3, cannot write
    model_path = tmp_path / "new" / "m.json"
    assert main(["train", "--input-dir", str(synth_inputs), "--year", "2021",
                 "--k", "2", "--model-out", str(model_path)]) == 0
    assert model_from_json(model_path.read_text()).n_classes == 2

def test_report_subcommand(tmp_path, synth_inputs):
    out = tmp_path / "out"
    config = _write_config(tmp_path, synth_inputs, out)
    assert main(["run", "--config", config]) == 0
    (out / "metrics.csv").unlink()
    assert main(["report", "--runs", str(out)]) == 0
    text = (out / "metrics.csv").read_text()
    assert text.startswith("year,metric,2 cluster")


@pytest.mark.parametrize(
    "corrupt, code",
    [
        (lambda text: b"{not json", 2),
        (lambda text: b'{"year": "\xc3\x28"}', 2),
        (lambda text: b'{"year": 2021}', 2),
        (lambda text: json.dumps({**json.loads(text), "metrics": {}}).encode(), 2),
        (lambda text: _DEEPLY_NESTED, 2),
        (lambda text: f"[{text}]".encode(), 2),
        (lambda text: b"\xef\xbb\xbf" + text.encode(), 0),  # a leading byte-order mark is skipped
    ],
    ids=["not-json", "not-utf8", "year-only", "metrics-empty", "deep-nesting", "array", "byte-order-mark"],
)
def test_report_corrupt_file_is_data_error(tmp_path, synth_inputs, capsys, corrupt, code):
    out = tmp_path / "out"
    assert main(["run", "--config", _write_config(tmp_path, synth_inputs, out)]) == 0
    report = out / "report_2021_k2.json"
    report.write_bytes(corrupt(report.read_text()))
    metrics = (out / "metrics.csv").read_bytes()
    capsys.readouterr()
    assert main(["report", "--runs", str(out)]) == code
    err = capsys.readouterr().err
    assert (err.startswith("data error: report") if code else not err) and "Traceback" not in err
    assert (out / "metrics.csv").read_bytes() == metrics
