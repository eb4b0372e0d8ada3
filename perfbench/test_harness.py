"""Smoke-size self-test of the benchmark harness.

Run from the repository root: ``python3 -m pytest perfbench/test_harness.py -q``.
It runs a two-year, 6+6-district workload through the real measuring loop,
checks that the metric and workload names match ``BENCHMARK.json``, and that
the correctness gate rejects a corrupted artifact, a wrong reference value
and a run that raises.
"""

from __future__ import annotations

import json
import math
import os
import re
import threading
import time

import pytest

import gate
import run
import spans
from workloads import OUT_DIR, WORKLOADS, Workload, write_inputs

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMOKE = Workload(
    name="smoke",
    years=((2021, (6, 6)), (2022, (6, 6))),
    k_values=(2,),
    n_trees=2,
    threads=2,
)
SMOKE_SEED = 3  # not the reference seed: the smoke workload has no committed reference


@pytest.fixture()
def smoke(tmp_path, monkeypatch):
    """A loaded smoke config, with the working directory set to its inputs."""
    monkeypatch.syspath_prepend(str(run.SRC))
    from vaxclust.pipeline import load_config

    config = load_config(write_inputs(SMOKE, SMOKE_SEED, str(tmp_path)))
    monkeypatch.chdir(tmp_path)
    return config


def _names(section):
    return {m["name"] for m in BENCHMARK[section]}


def test_benchmark_file_follows_the_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCHMARK["workloads"])
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)


def test_metric_names_and_units_match_benchmark_json(smoke):
    measured = run.measure(SMOKE, smoke, seconds=0, trace=True)
    assert measured["problems"] == []
    assert measured["attempted"] == 3 * len(SMOKE.cells) and measured["failed"] == 0

    e2e = run.end_to_end(measured, [0.5])
    layer = run.per_layer(measured)
    assert set(e2e) == _names("end_to_end")
    assert set(layer) == _names("per_layer")
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    assert all(units[name] == unit for name, (_, unit) in {**e2e, **layer}.items())

    assert layer["pipeline.cells"][0] == len(SMOKE.cells)
    assert layer["stats.mwu_exact_tests"][0] == 9 * len(SMOKE.cells)
    assert layer["hcluster.merges"][0] == 2 * 11
    assert layer["shapley.rows_explained"][0] == 24
    assert layer["gbdt.trees"][0] == 2 * 5 * len(SMOKE.cells)
    # untraced, traced, untraced: one pair for the overhead, leaving out the first call
    assert len(measured["plain"]) == 2 and len(measured["traced"]) == 1
    assert layer["trace.overhead_s"][0] == measured["traced"][0] - measured["plain"][1]
    # every call sits between two calibration slices; run_s leaves out the first call
    assert len(measured["cal"]) == len(measured["plain"]) + len(measured["traced"]) + 1
    assert e2e["run_s"][0] == measured["scaled"][1] != measured["plain"][1]


def test_setup_samples_load_a_compiled_copy_of_the_sources(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 2)
    samples = run.setup_samples(WORKLOADS["small-areas"], SMOKE_SEED, "test-setup")
    assert len(samples) == 2 and all(0 < t < 60 for t in samples)
    assert not run.WORK_ROOT.exists() or not any(run.WORK_ROOT.glob("test-setup-*"))


def test_gate_rejects_a_corrupted_artifact(smoke, monkeypatch):
    import vaxclust.pipeline

    real = vaxclust.pipeline.run_pipeline
    calls = []

    def corrupting(config):
        result = real(config)
        calls.append(1)
        if len(calls) == 2:
            with open(os.path.join(OUT_DIR, "clusters_2021_k2.csv"), "a", encoding="utf-8") as f:
                f.write("S9999,Extra,0,L\n")
        return result

    monkeypatch.setattr(vaxclust.pipeline, "run_pipeline", corrupting)
    measured = run.measure(SMOKE, smoke, seconds=0, trace=True)
    assert len(calls) == 3
    assert any("different artifact digests" in p for p in measured["problems"])


def test_gate_rejects_a_wrong_reference_value(smoke, monkeypatch):
    from vaxclust.pipeline import run_pipeline

    result = run_pipeline(smoke)
    values = gate.reference_values(result.reports, OUT_DIR)
    assert gate.compare_reference(values, values) == []
    assert "choropleth_2021_k2.json" in values["2021_k2"]["exact"]

    welch = result.reports[(2021, 2)].welch[0]
    welch["t_statistic"] = math.nextafter(welch["t_statistic"], math.inf)
    importance = result.reports[(2022, 2)].importance["values"]
    importance[importance.index(max(importance))] *= 1 + 1e-6
    problems = gate.compare_reference(gate.reference_values(result.reports, OUT_DIR), values)
    assert problems == [
        "2021_k2: welch differs from the reference",
        f"2022_k2: importance differs from the reference beyond rel {gate.IMPORTANCE_REL_TOL}",
    ]

    nudged = json.loads(json.dumps(values))
    nudged["2022_k2"]["importance"][0] = [v * (1 + 1e-12) for v in nudged["2022_k2"]["importance"][0]]
    assert gate.compare_reference(values, nudged) == []

    tampered = json.loads(json.dumps(values))
    tampered["2021_k2"]["exact"]["cluster_labels"] = "0" * 64
    monkeypatch.setattr(run, "load_reference", lambda workload, seed: tampered)
    measured = run.measure(SMOKE, smoke, seconds=0, trace=False)
    assert measured["problems"] == ["2021_k2: cluster_labels differs from the reference"]
    assert measured["values"] == values


def test_a_raising_run_counts_every_cell_as_failed(smoke, monkeypatch):
    import vaxclust.pipeline

    def broken(config):
        raise ValueError("labels must be contiguous")

    monkeypatch.setattr(vaxclust.pipeline, "run_pipeline", broken)
    measured = run.measure(SMOKE, smoke, seconds=0, trace=False)
    assert measured["failed"] == measured["attempted"] == len(SMOKE.cells)
    assert run.end_to_end(measured, [0.5])["cells_ok_frac"][0] == 0.0
    assert any("ValueError" in p for p in measured["problems"])


def test_recorder_self_time_and_threads():
    recorder = spans.Recorder()

    def leaf():
        time.sleep(0.02)

    def cell():
        recorder.call("child", "b", None, leaf, ())

    def root():
        workers = [threading.Thread(target=recorder.call, args=("cell", "a", f"c{i}", cell, ())) for i in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=10)
        assert not any(w.is_alive() for w in workers)

    recorder.call("root", "a", "run", root, ())
    recorder.finish()
    assert len(recorder.spans) == 9
    by_name = {s.name: s for s in recorder.spans}
    assert by_name["root"].parent is None
    cells = [s for s in recorder.spans if s.name == "cell"]
    assert all(s.parent is by_name["root"] for s in cells)
    assert sorted(s.request for s in recorder.spans if s.name == "child") == ["c0", "c1", "c2", "c3"]
    # overlapping children are counted once, so no self time goes negative
    assert all(s.self_s >= -1e-9 for s in recorder.spans)
    assert by_name["root"].self_s < by_name["root"].duration
