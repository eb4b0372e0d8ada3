"""End-to-end orchestration: cluster -> classify -> attribute -> report.

For each study year the vaccination rates are (optionally) z-scored and
agglomerated once; each configured cluster count k then gets its own cell:
cut, coverage-ordered labeling, cluster-mean table, stratified
cross-validation of the GDSC classifier, per-fold held-out Shapley
importances, rank tests between the lowest- and highest-coverage clusters,
box-plot summaries, and the rurality cross-tabulation.

The chain from dataset to cluster assignment is written once:
:func:`cluster_year` (scale, agglomerate, suggest k) and
:func:`assign_clusters` (cut, coverage labels). ``run_pipeline`` and the
single-stage CLI subcommands share both.

Cells run k by k in one thread. For each k, every year's cell is cut, its
folds drawn and its fold models prepared (:func:`evaluation.prepare_cv`); then
the years' fold models boost together, one :func:`gbdt.fit_cells` call per
batch of :func:`gbdt.cell_batches`, whose leaf slots stay under a bound, and
each cell is analysed and written with its own models, which are bit for bit
those it would get alone. Each stage of ``run_pipeline`` (ingestion,
analysis, fit, write) catches one set of exceptions, ``_FAILURES``: a
package error, an ``OSError`` or running out of memory is recorded for its
year or cell while the remaining cells still run. Every stochastic step
seeds from (seed, year, k, fold), so a rerun with the same config and seed
produces a byte-identical artifact tree.
"""

from __future__ import annotations

import functools
import os
import sys
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np
import scipy

from . import __version__
from .dataset import (
    VACCINE_COLUMNS,
    YearDataset,
    csv_text,
    load_year,
    make_directory,
    standardize,
    table_paths,
    write_text,
)
from .errors import ConfigError, DataError, GeometryKeyMismatch, KOutOfRange, VaxclustError
from .evaluation import MetricRow, cross_validate, dataset_design, prepare_cv
from .gbdt import TrainConfig, TreeEnsemble, cell_batches, fit_cells
from .hcluster import (
    LINKAGES,
    ClusterAssignment,
    Dendrogram,
    agglomerate,
    cluster_mean_table,
    cut_at_k,
    dendrogram_table,
    label_by_coverage,
    pairwise_distances,
    suggest_k,
)
from .rng import derive_seed
from .schema import JSON_TYPES, check_fields, field_values, json_text, read_object
from .shapley import fold_average, global_importance, rank_order
from .stats import BoxStats, box_stats, mann_whitney_u, rurality_cross_tab, welch_t

METRIC_DISPLAY = (
    ("Accuracy", "accuracy"),
    ("Precision", "macro_precision"),
    ("Recall", "macro_recall"),
    ("F1 score", "macro_f1"),
)

_IGNORED_KEYS = {"threads"}  # accepted and ignored: every cell runs in the one calling thread


@dataclass(frozen=True)
class RunConfig:
    years: tuple[int, ...]
    input_dir: str
    out_dir: str
    k_values: tuple[int, ...] = (2, 3, 6)
    linkage: str = "ward"
    scale_rates: bool = True
    k_folds: int = 5
    seed: int = 0
    geometry_path: str | None = None
    allow_partial: bool = False
    train: TrainConfig = field(default_factory=TrainConfig)

    def validate(self) -> None:
        if not self.years:
            raise ConfigError("years must be non-empty")
        if not self.k_values or any(k < 2 for k in self.k_values):
            raise ConfigError("k_values must be >= 2")
        for name in ("years", "k_values"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ConfigError(f"{name} has repeated entries: {list(values)}")
        if self.linkage not in LINKAGES:
            raise ConfigError(f"linkage must be one of {LINKAGES}")
        if self.k_folds < 2:
            raise ConfigError("k_folds must be >= 2")
        self.geometry  # a bad geometry file is a config error; the parse is kept for use
        try:
            self.train.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.train.loss == "binary_logistic" and any(k > 2 for k in self.k_values):
            raise ConfigError("loss binary_logistic needs every k in k_values to be 2")

    def echo(self) -> dict:
        """Every result-affecting setting, defaults included — provenance."""
        doc = field_values(self)
        doc.update(field_values(doc.pop("train")))
        return {key: list(value) if isinstance(value, tuple) else value for key, value in doc.items()}

    @functools.cached_property
    def geometry(self) -> dict | None:
        """Parsed GeoJSON at ``geometry_path``, or None when unset; parsed once, by :meth:`validate`."""
        return _read_geometry(self.geometry_path) if self.geometry_path else None


def _read_json_object(path, what: str) -> dict:
    """The JSON object in the file at ``path``, or a ConfigError (:func:`read_object`)."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file: {exc}") from exc
    return read_object(data, ConfigError, what)


def _read_geometry(path: str) -> dict:
    """Parsed GeoJSON object at ``path``; ConfigError if unreadable or malformed."""
    geometry = _read_json_object(path, "geometry")
    features = geometry.get("features", [])
    if not isinstance(features, list) or not all(
        isinstance(f, dict) and isinstance(f.get("properties", {}), dict) for f in features
    ):
        raise ConfigError("geometry features must be a list of objects with object properties")
    return geometry


def load_config(path, overrides: dict | None = None) -> RunConfig:
    """Flat JSON config file checked by :func:`config_from_mapping`; CLI overrides win."""
    return config_from_mapping({**_read_json_object(path, "config"), **(overrides or {})})


def config_from_mapping(raw: dict) -> RunConfig:
    """The run config from a flat mapping of JSON values.

    The keys are the ``RunConfig`` fields (``train`` aside), the
    ``TrainConfig`` fields and the ignored ``threads``; ``seed`` seeds both.
    Each value must have its field's JSON type and is stored as given, lists
    as tuples; unknown keys, missing required keys and wrong types are
    ConfigErrors.
    """
    run_fields = {f.name: f for f in fields(RunConfig) if f.name != "train"}
    train_fields = {f.name: f for f in fields(TrainConfig) if f.name != "seed"}
    schema = {**run_fields, **train_fields}
    unknown = set(raw) - set(schema) - _IGNORED_KEYS
    if unknown:
        raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
    required = {name for name, f in run_fields.items() if f.default is MISSING and f.default_factory is MISSING}
    missing = required - set(raw)
    if missing:
        raise ConfigError(f"missing required config key(s): {sorted(missing)}")
    values = {}
    for name, value in raw.items():
        if name in schema:
            if not JSON_TYPES[schema[name].type](value):
                raise ConfigError(f"config key {name!r} must be {schema[name].type}, got {value!r}")
            values[name] = tuple(value) if isinstance(value, list) else value
    config = RunConfig(**{k: v for k, v in values.items() if k in run_fields})
    train = TrainConfig(seed=config.seed, **{k: v for k, v in values.items() if k in train_fields})
    config = replace(config, train=train)
    config.validate()
    return config


@dataclass
class RunReport:
    year: int
    k: int
    suggested_k: int
    district_ids: list[str]
    district_names: list[str]
    cluster_labels: list[int]
    cluster_names: list[str]
    cluster_mean_table: list[list[float]]
    metrics: dict
    importance: dict
    tests: list[dict]
    welch: list[dict]
    box_stats: dict
    crosstab: list[list[int]]
    config_echo: dict
    versions: dict
    seed: int
    notes: list[str]

    def to_json(self) -> str:
        return json_text(field_values(self))

    @classmethod
    def from_json(cls, text: str | bytes) -> "RunReport":
        """The report a :meth:`to_json` document describes: its keys and JSON
        types those of the fields, its metrics with a ``mean`` row of every
        :class:`MetricRow` field. Anything else is a DataError."""
        doc = read_object(text, DataError, "report")
        check_fields(cls, doc, DataError, "report")
        check_fields(MetricRow, doc["metrics"].get("mean"), DataError, "report metrics mean")
        return cls(**doc)


def _versions() -> dict:
    return {
        "vaxclust": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }


def load_dataset(config: RunConfig, year: int) -> YearDataset:
    """One year's joined input tables from ``config.input_dir``."""
    return load_year(*table_paths(config.input_dir, year), year, allow_partial=config.allow_partial)


def cluster_year(dataset: YearDataset, config: RunConfig) -> tuple[Dendrogram, int]:
    """The year's dendrogram over its rates (z-scored unless ``scale_rates`` is
    off) and the advisory k in 2..min(10, n - 1).

    Up to 3 districts leave at most one candidate k, which ``suggest_k`` (a
    search over k_min < k_max) does not take.
    """
    matrix = standardize(dataset.rates, VACCINE_COLUMNS).values if config.scale_rates else dataset.rates
    dendro = agglomerate(pairwise_distances(matrix), linkage=config.linkage)
    k_max = min(10, dendro.n_leaves - 1)
    return dendro, suggest_k(dendro, 2, k_max) if k_max > 2 else k_max


def assign_clusters(dataset: YearDataset, dendro: Dendrogram, k: int) -> ClusterAssignment:
    """Cut ``dendro`` into k clusters, numbered and named by ascending coverage."""
    if k > len(dataset) - 1:
        raise KOutOfRange(f"k={k} needs at most n-1={len(dataset) - 1} clusters")
    return label_by_coverage(cut_at_k(dendro, k), dataset, k)


def _cell_training(config: RunConfig, year: int, k: int) -> tuple[TrainConfig, int]:
    """A cell's training config and its CV seed, both from (seed, year, k)."""
    cell_seed = derive_seed(config.seed, year, k)
    return replace(config.train, seed=cell_seed), cell_seed


def analyze_cell(
    dataset: YearDataset,
    assignment: ClusterAssignment,
    suggested: int,
    config: RunConfig,
    fitted: tuple[np.ndarray, list[TreeEnsemble]] | None = None,
) -> RunReport:
    """Everything downstream of the cut for one (year, k) cell.

    ``fitted`` holds the cell's folds and fold models when
    :func:`run_pipeline` fitted them with other cells'; without it, the
    cell is fitted alone, to the same bits.
    """
    year, k = dataset.year, assignment.k
    means = cluster_mean_table(assignment, dataset)

    train_config, cell_seed = _cell_training(config, year, k)
    cv = cross_validate(dataset, assignment, train_config, k_folds=config.k_folds, seed=cell_seed, fitted=fitted)

    numeric, categorical, numeric_names, cat_names = dataset_design(dataset)
    fold_importances = []
    for model, test_idx in zip(cv.models, cv.test_indices):
        design = model.encode_features(numeric[test_idx], categorical[test_idx])
        fold_importances.append(global_importance(model, design))
    combined = fold_average(fold_importances)

    low = assignment.labels == 0
    high = assignment.labels == k - 1
    gdsc_matrix = np.column_stack([numeric, categorical.astype(np.float64)])
    gdsc_names = [*numeric_names, *cat_names]
    tests = []
    welch_rows = []
    boxes: dict[str, dict] = {}
    for j, name in enumerate(gdsc_names):
        column = gdsc_matrix[:, j]
        tests.append(field_values(mann_whitney_u(column[low], column[high], feature_name=name)))
        welch_rows.append(field_values(welch_t(column[low], column[high], feature_name=name)))
        boxes[name] = {
            str(cluster): {**field_values(b), "outliers": list(b.outliers)}
            for cluster, b in box_stats(column, assignment.labels).items()
        }

    crosstab = rurality_cross_tab(assignment, dataset)
    notes = [
        "no class weighting applied",
        "shap computed on each fold's held-out rows, then fold-averaged",
        "rank tests compare the lowest- vs highest-coverage clusters",
    ]
    if dataset.vaccination_only or dataset.gdsc_only:
        notes.append(
            f"partial join dropped districts found in one table only: vaccination only "
            f"{list(dataset.vaccination_only)}, gdsc only {list(dataset.gdsc_only)}"
        )
    notes += cv.bundle.warnings

    return RunReport(
        year=year,
        k=k,
        suggested_k=suggested,
        district_ids=list(dataset.ids),
        district_names=list(dataset.names),
        cluster_labels=[int(c) for c in assignment.labels],
        cluster_names=list(assignment.ordered_names),
        cluster_mean_table=[[float(v) for v in row] for row in means],
        metrics={
            "mean": field_values(cv.bundle.mean),
            "per_fold": [field_values(r) for r in cv.bundle.per_fold],
            "pooled_confusion": [[int(v) for v in row] for row in cv.bundle.pooled_confusion],
            "warnings": list(cv.bundle.warnings),
        },
        importance={
            "feature_names": list(combined.feature_names),
            "values": [float(v) for v in combined.values],
            "per_fold": [[float(v) for v in imp.values] for imp in fold_importances],
        },
        tests=tests,
        welch=welch_rows,
        box_stats=boxes,
        crosstab=[[int(v) for v in row] for row in crosstab],
        config_echo=config.echo(),
        versions=_versions(),
        seed=cell_seed,
        notes=notes,
    )


def emit_choropleth(assignment: ClusterAssignment, dataset: YearDataset, geometry: dict | None = None):
    """Geo feature collection (with geometry) or flat property array (without).

    ``geometry`` is a parsed GeoJSON FeatureCollection whose features carry
    the district id in properties.district_id (or the feature ``id``).
    """
    # each row summed on its own, as one row's mean() sums it: C order keeps
    # numpy's pairwise sum along the row
    means = np.ascontiguousarray(dataset.rates).mean(axis=1).tolist()
    properties = [
        {
            "district_id": district_id,
            "district_name": name,
            "cluster_index": int(label),
            "cluster_name": assignment.name_of(int(label)),
            "mean_overall_coverage": mean,
        }
        for district_id, name, label, mean in zip(dataset.ids, dataset.names, assignment.labels, means)
    ]
    if geometry is None:
        return properties
    geometries = {}
    for feature in geometry.get("features", []):
        key = feature.get("properties", {}).get("district_id", feature.get("id"))
        if key is not None:
            geometries[str(key)] = feature.get("geometry")
    missing = [p["district_id"] for p in properties if p["district_id"] not in geometries]
    if missing:
        raise GeometryKeyMismatch(missing)
    return {
        "type": "FeatureCollection",
        "features": [
            {"type": "Feature", "geometry": geometries[p["district_id"]], "properties": p}
            for p in properties
        ],
    }


def emit_table3(reports: dict, years, k_values) -> str:
    """Metrics table, one row per (year, metric), one column per k, percent
    with one decimal; failed cells show an em dash with a trailing footnote."""
    header = ["year", "metric"] + [f"{k} cluster" for k in k_values]
    rows = []
    any_missing = False
    for year in years:
        for display, attr in METRIC_DISPLAY:
            cells = []
            for k in k_values:
                report = reports.get((year, k))
                if report is None:
                    cells.append("—")
                    any_missing = True
                else:
                    cells.append(f"{100.0 * report.metrics['mean'][attr]:.1f}")
            rows.append([f"{year}-{year + 1}", display] + cells)
    if any_missing:
        rows.append(["# — = cell failed or was skipped; see run_summary.json"])
    return csv_text(header, rows)


def cluster_table(dataset: YearDataset, assignment: ClusterAssignment) -> str:
    """``clusters_Y_kK.csv``: each district with its cluster index and name."""
    rows = [
        (district_id, name, int(label), assignment.name_of(int(label)))
        for district_id, name, label in zip(dataset.ids, dataset.names, assignment.labels)
    ]
    return csv_text(("district_id", "district_name", "cluster_index", "cluster_name"), rows)


def write_cell_artifacts(report: RunReport, assignment, dataset, config: RunConfig) -> None:
    """One cell's CSV tables, choropleth and report under ``config.out_dir``.

    The choropleth is built first: a ``config.geometry`` lacking a district
    raises GeometryKeyMismatch before any of the cell's files is written.
    """
    choropleth = emit_choropleth(assignment, dataset, config.geometry)
    tag = f"{report.year}_k{report.k}"
    names = report.cluster_names

    def write(name: str, text: str) -> None:
        write_text(os.path.join(config.out_dir, name), text)

    write(f"clusters_{tag}.csv", cluster_table(dataset, assignment))
    write(f"cluster_means_{tag}.csv", csv_text(
        ["cluster_name", *VACCINE_COLUMNS],
        ([names[c]] + [f"{v:.1f}" for v in row] for c, row in enumerate(report.cluster_mean_table)),
    ))

    importance = report.importance
    rank_of = {j: r + 1 for r, j in enumerate(rank_order(importance["values"]))}
    write(f"shap_importance_{tag}.csv", csv_text(
        ["feature_name", "mean_abs_shap", "rank"] + [f"fold_{i}" for i in range(len(importance["per_fold"]))],
        (
            [name, importance["values"][j], rank_of[j]] + [fold[j] for fold in importance["per_fold"]]
            for j, name in enumerate(importance["feature_names"])
        ),
    ))

    write(f"tests_{tag}.csv", csv_text(
        ["feature", "u", "z", "p", "significant", "method", "welch_t", "welch_dof", "welch_p"],
        (
            [
                t["feature_name"],
                t["u_statistic"],
                t["z"],
                t["p_two_sided"],
                str(t["significant_at_0_05"]).lower(),
                t["method"],
                w["t_statistic"],
                w["dof"],
                w["p_two_sided"],
            ]
            for t, w in zip(report.tests, report.welch)
        ),
    ))

    box_fields = [f.name for f in fields(BoxStats) if f.name != "outliers"]
    write(f"boxstats_{tag}.csv", csv_text(
        ["feature", "cluster_index", "cluster_name", "min", "q1", "median", "q3", "max",
         "whisker_low", "whisker_high", "outlier_count"],
        (
            [feature, cluster, names[int(cluster)]] + [b[f] for f in box_fields] + [len(b["outliers"])]
            for feature, clusters in report.box_stats.items()
            for cluster, b in sorted(clusters.items(), key=lambda kv: int(kv[0]))
        ),
    ))

    write(f"crosstab_{tag}.csv", csv_text(
        ["rurality", *names],
        ([r + 1, *row] for r, row in enumerate(report.crosstab)),
    ))
    suffix = "geojson" if config.geometry is not None else "json"
    write(f"choropleth_{tag}.{suffix}", json_text(choropleth) + "\n")
    write(f"report_{tag}.json", report.to_json() + "\n")


# what fails a year or a cell, at every stage of run_pipeline (OSError: a safety net)
_FAILURES = (VaxclustError, OSError, MemoryError)


def _failure(year: int, k: int, stage: str, exc: Exception) -> dict:
    # named by its first public class: numpy runs out of memory with a private subclass
    error = next(cls.__name__ for cls in type(exc).__mro__ if not cls.__name__.startswith("_"))
    return {"year": year, "k": k, "stage": stage, "error": error, "message": str(exc)}


@dataclass
class PipelineResult:
    reports: dict
    errors: dict
    exit_code: int
    dropped: dict


def run_pipeline(config: RunConfig) -> PipelineResult:
    config.validate()
    make_directory(config.out_dir)  # fail before reading any year, not after clustering them all

    clustered: dict[int, tuple[YearDataset, Dendrogram, int]] = {}
    errors: dict = {}
    dropped: dict[str, dict] = {}
    for year in config.years:
        stage = "ingestion"
        try:
            dataset = load_dataset(config, year)
            if dataset.vaccination_only or dataset.gdsc_only:
                dropped[str(year)] = {
                    "vaccination_only": list(dataset.vaccination_only),
                    "gdsc_only": list(dataset.gdsc_only),
                }
            dendro, suggested = cluster_year(dataset, config)
            stage = "write"
            write_text(os.path.join(config.out_dir, f"dendrogram_{year}.csv"), dendrogram_table(dendro))
        except _FAILURES as exc:
            errors.update({(year, k): _failure(year, k, stage, exc) for k in config.k_values})
        else:
            clustered[year] = (dataset, dendro, suggested)
    data_error = any(failure["stage"] == "ingestion" for failure in errors.values())

    results: dict = {}
    for k in sorted(config.k_values):
        cells, untrained = [], []
        for year in sorted(clustered):
            dataset, dendro, suggested = clustered[year]
            train_config, cell_seed = _cell_training(config, year, k)
            try:
                assignment = assign_clusters(dataset, dendro, k)
                folds, models = prepare_cv(dataset, assignment, train_config, k_folds=config.k_folds, seed=cell_seed)
            except _FAILURES as exc:
                errors[(year, k)] = _failure(year, k, "analysis", exc)
            else:
                cells.append((dataset, assignment, suggested, folds))
                untrained.append(models)
        for begin, end in cell_batches(untrained):
            batch = cells[begin:end]
            try:
                boosted = fit_cells(untrained[begin:end])
            except _FAILURES as exc:
                errors.update({(dataset.year, k): _failure(dataset.year, k, "fit", exc) for dataset, *_ in batch})
                continue
            for dataset, assignment, suggested, folds in batch:
                # each cell's models go straight into the call and leave the
                # list, so none is held once its cell is done
                stage = "analysis"
                try:
                    report = analyze_cell(dataset, assignment, suggested, config, fitted=(folds, boosted.pop(0)))
                    stage = "write"
                    write_cell_artifacts(report, assignment, dataset, config)
                except _FAILURES as exc:
                    errors[(dataset.year, k)] = _failure(dataset.year, k, stage, exc)
                else:
                    results[(dataset.year, k)] = report
    results = dict(sorted(results.items()))
    errors = dict(sorted(errors.items()))

    write_text(
        os.path.join(config.out_dir, "metrics.csv"),
        emit_table3(results, config.years, config.k_values),
    )
    full = {
        f"{year}_k{k}": results[(year, k)].metrics
        for (year, k) in sorted(results)
    }
    write_text(os.path.join(config.out_dir, "metrics_full.json"), json_text(full) + "\n")

    summary = {
        "config": config.echo(),
        "versions": _versions(),
        "suggested_k": {str(year): suggested for year, (_, _, suggested) in clustered.items()},
        "cells_ok": [f"{y}_k{k}" for (y, k) in sorted(results)],
        "cells_failed": [errors[c] for c in sorted(errors)],
    }
    if dropped:  # only then, so a run on matching tables keeps its bytes
        summary["dropped_districts"] = dropped
    write_text(os.path.join(config.out_dir, "run_summary.json"), json_text(summary) + "\n")

    if data_error:
        exit_code = 2
    elif errors:
        exit_code = 3
    else:
        exit_code = 0
    return PipelineResult(reports=results, errors=errors, exit_code=exit_code, dropped=dropped)
