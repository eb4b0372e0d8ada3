from __future__ import annotations

import csv
import json
import os
import subprocess
import sys

import pytest

import vaxclust
from vaxclust import shapley
from vaxclust.cli import main
from vaxclust.dataset import csv_text, load_year
from vaxclust.evaluation import dataset_design
from vaxclust.gbdt import from_json as model_from_json


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


def test_undecodable_config_is_config_error(tmp_path):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"years": [2021], "input_dir": "in\xff", "out_dir": "out"}')
    proc = _cli_process("run", "--config", str(path))
    assert proc.returncode == 1
    assert proc.stderr.startswith("config error: config file is not valid JSON")
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


@pytest.mark.parametrize(
    "content", [b'{"model_type": "oblivious_gbdt"}', b"not json", b"\x89PNG\r\n\x1a\n"],
    ids=["missing-keys", "not-json", "binary"],
)
def test_explain_corrupt_model_is_data_error(tmp_path, synth_inputs, capsys, content):
    model_path = tmp_path / "model.json"
    model_path.write_bytes(content)
    code = main(["explain", "--input-dir", str(synth_inputs), "--year", "2021",
                 "--model", str(model_path), "--out", str(tmp_path / "explain")])
    assert code == 2
    assert capsys.readouterr().err.startswith("data error: model")


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


def test_stats_subcommand(tmp_path, synth_inputs):
    out = tmp_path / "stats"
    code = main(["stats", "--input-dir", str(synth_inputs), "--year", "2021",
                 "--k", "2", "--out", str(out), "--seed", "2"])
    assert code == 0
    assert (out / "tests_2021_k2.csv").exists()
    assert (out / "boxstats_2021_k2.csv").exists()
    assert (out / "crosstab_2021_k2.csv").exists()


def test_report_subcommand(tmp_path, synth_inputs):
    out = tmp_path / "out"
    config = _write_config(tmp_path, synth_inputs, out)
    assert main(["run", "--config", config]) == 0
    (out / "metrics.csv").unlink()
    assert main(["report", "--runs", str(out)]) == 0
    text = (out / "metrics.csv").read_text()
    assert text.startswith("year,metric,2 cluster")


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda text: b"{not json",
        lambda text: b'{"year": "\xc3\x28"}',
        lambda text: b'{"year": 2021}',
        lambda text: json.dumps({**json.loads(text), "metrics": {}}).encode(),
    ],
    ids=["not-json", "not-utf8", "year-only", "metrics-empty"],
)
def test_report_corrupt_file_is_data_error(tmp_path, synth_inputs, capsys, corrupt):
    out = tmp_path / "out"
    assert main(["run", "--config", _write_config(tmp_path, synth_inputs, out)]) == 0
    report = out / "report_2021_k2.json"
    report.write_bytes(corrupt(report.read_text()))
    capsys.readouterr()
    assert main(["report", "--runs", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: report") and "Traceback" not in err
