"""Command-line interface.

Subcommands mirror the pipeline stages: ``run`` drives the whole analysis
from a config file; ``cluster``, ``train``, ``explain``, and ``stats`` run a
single stage; ``synth`` writes synthetic input tables; ``report``
re-assembles the metrics table from per-cell report files.

Exit codes: 0 success, 1 config error, 2 data error, 3 one or more
(year, k) cells failed.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .dataset import load_year, standardize, VACCINE_COLUMNS
from .errors import ConfigError, DataError, VaxclustError
from .evaluation import dataset_design
from .gbdt import TrainConfig, fit, from_json as model_from_json, to_json as model_to_json
from .hcluster import agglomerate, cut_at_k, dendrogram_table, label_by_coverage, pairwise_distances
from .pipeline import (
    RunReport,
    _csv_line,
    _suggested_k,
    analyze_cell,
    config_from_mapping,
    emit_table3,
    load_config,
    run_pipeline,
    write_cell_artifacts,
)
from .shapley import TreeShapExplainer, global_importance
from .synth import default_spec, generate, write_dataset_files


def _add_global_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a flat JSON run-config file")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", help="override the output directory")
    parser.add_argument("--allow-partial", action="store_true", default=None,
                        help="drop unmatched districts instead of failing the join")
    parser.add_argument("--threads", type=int, help="worker threads for (year, k) cells")


def _overrides(args) -> dict:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.allow_partial:
        overrides["allow_partial"] = True
    if args.threads is not None:
        overrides["threads"] = args.threads
    return overrides


def _config_for(args, require_config: bool = True):
    if args.config:
        return load_config(args.config, _overrides(args))
    if require_config:
        raise ConfigError("--config is required for this subcommand")
    return None


def _single_year_config(args):
    k_values = getattr(args, "k_values", None)
    if k_values is None:
        k_values = [args.k] if hasattr(args, "k") else [2, 3, 6]
    mapping = {
        "years": [args.year],
        "input_dir": args.input_dir,
        "out_dir": args.out or ".",
        "k_values": k_values,
        "seed": args.seed or 0,
    }
    if args.allow_partial:
        mapping["allow_partial"] = True
    return config_from_mapping(mapping)


def cmd_run(args) -> int:
    config = _config_for(args)
    result = run_pipeline(config)
    ok = len(result.reports)
    failed = len(result.errors)
    print(f"pipeline finished: {ok} cell(s) ok, {failed} failed; artifacts in {config.out_dir}")
    return result.exit_code


def _load_single_year(config, year):
    return load_year(
        config.vaccination_path(year), config.gdsc_path(year), year,
        allow_partial=config.allow_partial,
    )


def cmd_cluster(args) -> int:
    config = _single_year_config(args)
    dataset = _load_single_year(config, args.year)
    rates = dataset.vaccination_matrix()
    matrix = standardize(rates, VACCINE_COLUMNS).values if config.scale_rates else rates
    dendro = agglomerate(pairwise_distances(matrix), linkage=config.linkage)
    suggested = _suggested_k(dendro)
    os.makedirs(config.out_dir, exist_ok=True)
    with open(os.path.join(config.out_dir, f"dendrogram_{args.year}.csv"), "w", encoding="utf-8") as f:
        f.write(dendrogram_table(dendro))
    for k in config.k_values:
        assignment = label_by_coverage(cut_at_k(dendro, k), dataset, k)
        lines = ["district_id,district_name,cluster_index,cluster_name"]
        for i, (district, _, _) in enumerate(dataset.rows):
            label = int(assignment.labels[i])
            lines.append(_csv_line([district.id, district.name, label, assignment.name_of(label)]))
        path = os.path.join(config.out_dir, f"clusters_{args.year}_k{k}.csv")
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
    print(f"clustered year {args.year} at k={list(config.k_values)}; suggested k = {suggested}")
    return 0


def cmd_train(args) -> int:
    config = _single_year_config(args)
    dataset = _load_single_year(config, args.year)
    rates = dataset.vaccination_matrix()
    matrix = standardize(rates, VACCINE_COLUMNS).values if config.scale_rates else rates
    dendro = agglomerate(pairwise_distances(matrix), linkage=config.linkage)
    assignment = label_by_coverage(cut_at_k(dendro, args.k), dataset, args.k)
    numeric, categorical, numeric_names, cat_names = dataset_design(dataset)
    model = fit(
        numeric, categorical, np.asarray(assignment.labels),
        TrainConfig(seed=config.seed),
        numeric_names=numeric_names, categorical_names=cat_names,
    )
    with open(args.model_out, "w", encoding="utf-8") as f:
        f.write(model_to_json(model) + "\n")
    print(f"trained k={args.k} model on year {args.year}; wrote {args.model_out}")
    return 0


def cmd_explain(args) -> int:
    config = _single_year_config(args)
    dataset = _load_single_year(config, args.year)
    with open(args.model, encoding="utf-8") as f:
        model = model_from_json(f.read())
    numeric, categorical, _, _ = dataset_design(dataset)
    design = model.encode_features(numeric, categorical)
    importance = global_importance(model, design)
    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, f"shap_importance_{args.year}.csv")
    with open(path, "w", encoding="utf-8") as f:
        f.write("feature_name,mean_abs_shap,rank\n")
        for rank, (name, value) in enumerate(importance.ranking(), start=1):
            f.write(f"{name},{value!r},{rank}\n")
    if args.per_row:
        phi = TreeShapExplainer(model).explain(design)
        rows_path = os.path.join(config.out_dir, f"shap_rows_{args.year}.csv")
        with open(rows_path, "w", encoding="utf-8") as f:
            f.write("district_id,output,feature_name,phi\n")
            for i, (district, _, _) in enumerate(dataset.rows):
                for output in range(phi.shape[1]):
                    for j, fname in enumerate(model.feature_names):
                        f.write(f"{district.id},{output},{fname},{phi[i, output, j]!r}\n")
    print(f"wrote {path}")
    return 0


def cmd_stats(args) -> int:
    config = _single_year_config(args)
    dataset = _load_single_year(config, args.year)
    rates = dataset.vaccination_matrix()
    matrix = standardize(rates, VACCINE_COLUMNS).values if config.scale_rates else rates
    dendro = agglomerate(pairwise_distances(matrix), linkage=config.linkage)
    assignment = label_by_coverage(cut_at_k(dendro, args.k), dataset, args.k)
    report = analyze_cell(dataset, assignment, _suggested_k(dendro), config)
    os.makedirs(config.out_dir, exist_ok=True)
    write_cell_artifacts(report, assignment, dataset, config)
    print(f"wrote stats artifacts for year {args.year}, k={args.k} to {config.out_dir}")
    return 0


def cmd_synth(args) -> int:
    spec = default_spec(
        year=args.year,
        k=args.k,
        n_per_cluster=tuple(args.n_per_cluster) if args.n_per_cluster else None,
        seed=args.seed or 0,
        zero_signal=args.zero_signal,
        vacc_noise_sd=args.noise_sd,
    )
    dataset, truth = generate(spec)
    paths = write_dataset_files(dataset, truth, args.out or ".")
    print(f"wrote synthetic year {args.year} (k={args.k}) to {paths['vaccination']}, {paths['gdsc']}")
    return 0


def cmd_report(args) -> int:
    reports = {}
    years = set()
    ks = set()
    for name in sorted(os.listdir(args.runs)):
        if name.startswith("report_") and name.endswith(".json"):
            with open(os.path.join(args.runs, name), encoding="utf-8") as f:
                report = RunReport.from_json(f.read())
            reports[(report.year, report.k)] = report
            years.add(report.year)
            ks.add(report.k)
    if not reports:
        raise DataError(f"no report_*.json files under {args.runs}")
    table = emit_table3(reports, sorted(years), sorted(ks))
    out_path = args.out or os.path.join(args.runs, "metrics.csv")
    if os.path.isdir(out_path):
        out_path = os.path.join(out_path, "metrics.csv")
    with open(out_path, "w", encoding="utf-8") as f:
        f.write(table)
    print(f"wrote {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vaxclust", description=__doc__)
    parser.add_argument("--version", action="version", version=f"vaxclust {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="full pipeline from a config file")
    _add_global_flags(p)
    p.set_defaults(func=cmd_run)

    for name, func, needs_k in (
        ("cluster", cmd_cluster, False),
        ("train", cmd_train, True),
        ("explain", cmd_explain, False),
        ("stats", cmd_stats, True),
    ):
        p = sub.add_parser(name, help=f"{name} stage for one year")
        _add_global_flags(p)
        p.add_argument("--input-dir", required=True)
        p.add_argument("--year", type=int, required=True)
        if needs_k:
            p.add_argument("--k", type=int, required=True)
        if name == "cluster":
            p.add_argument("--k-values", type=int, nargs="+", default=[2, 3, 6])
        if name == "train":
            p.add_argument("--model-out", required=True)
        if name == "explain":
            p.add_argument("--model", required=True)
            p.add_argument("--per-row", action="store_true")
        p.set_defaults(func=func)

    p = sub.add_parser("synth", help="write synthetic input tables")
    _add_global_flags(p)
    p.add_argument("--year", type=int, default=2021)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--n-per-cluster", type=int, nargs="+")
    p.add_argument("--noise-sd", type=float, default=2.0)
    p.add_argument("--zero-signal", action="store_true")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("report", help="assemble metrics.csv from report files")
    _add_global_flags(p)
    p.add_argument("--runs", required=True, help="directory containing report_*.json")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except VaxclustError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
