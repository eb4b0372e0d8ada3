"""Command-line interface.

Subcommands mirror the pipeline stages: ``run`` drives the whole analysis
from a config file, and ``stats`` is ``run`` on one (year, k) cell;
``cluster``, ``train`` and ``explain`` run a single stage for one year,
through the same stage functions as ``run``; ``synth`` writes synthetic
input tables; ``report`` re-assembles the metrics table from per-cell report
files. ``run`` and the stage subcommands read ``--config`` when given, with
their flags as overrides.

Exit codes: 0 success, 1 config error, 2 data error (an input could not be
read or used), 3 one or more (year, k) cells failed, or a command failed, ran
out of memory or could not write an output or its directory (a WriteError).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .dataset import csv_text, write_text
from .errors import ConfigError, DataError, VaxclustError
from .evaluation import dataset_design
from .gbdt import fit, from_json as model_from_json, to_json as model_to_json
from .hcluster import dendrogram_table
from .pipeline import (
    RunReport,
    assign_clusters,
    cluster_table,
    cluster_year,
    config_from_mapping,
    emit_table3,
    load_config,
    load_dataset,
    run_pipeline,
)
from .shapley import TreeShapExplainer, importance_of
from .synth import default_spec, generate, write_dataset_files


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a flat JSON run-config file")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", help="override the output directory")
    parser.add_argument("--allow-partial", action="store_true", default=None,
                        help="drop unmatched districts instead of failing the join")


def _config(args):
    """The run config: the ``--config`` file with the given flags on top.

    Without ``--config`` the flags alone make the config, and the output
    directory defaults to the working directory.
    """
    k = getattr(args, "k", None)
    year = getattr(args, "year", None)
    flags = {
        "input_dir": getattr(args, "input_dir", None),
        "years": None if year is None else [year],
        "k_values": getattr(args, "k_values", None) if k is None else [k],
        "seed": args.seed,
        "out_dir": args.out,
        "allow_partial": args.allow_partial,
    }
    overrides = {key: value for key, value in flags.items() if value is not None}
    if args.config:
        return load_config(args.config, overrides)
    return config_from_mapping({"out_dir": ".", **overrides})


def _say_dropped(year, vaccination_only, gdsc_only) -> None:
    """The districts a partial join dropped, to stderr."""
    for side, dropped in (("vaccination", vaccination_only), ("gdsc", gdsc_only)):
        if dropped:
            print(f"year {year}: partial join dropped {len(dropped)} district(s) found in the "
                  f"{side} table only: {', '.join(dropped)}", file=sys.stderr)


def cmd_run(args) -> int:
    """``run``, and ``stats`` on its one cell: dropped districts and failed cells go to stderr."""
    config = _config(args)
    result = run_pipeline(config)
    for year, dropped in result.dropped.items():
        _say_dropped(year, **dropped)
    for failure in result.errors.values():
        print("year {year}, k={k}: {stage} failed: {error}: {message}".format(**failure), file=sys.stderr)
    ok = len(result.reports)
    failed = len(result.errors)
    print(f"pipeline finished: {ok} cell(s) ok, {failed} failed; artifacts in {config.out_dir}")
    return result.exit_code


def _load(config, year):
    """The year's dataset; the districts a partial join dropped go to stderr."""
    dataset = load_dataset(config, year)
    _say_dropped(year, dataset.vaccination_only, dataset.gdsc_only)
    return dataset


def cmd_cluster(args) -> int:
    config = _config(args)
    dataset = _load(config, args.year)
    dendro, suggested = cluster_year(dataset, config)
    write_text(os.path.join(config.out_dir, f"dendrogram_{args.year}.csv"), dendrogram_table(dendro))
    for k in config.k_values:
        assignment = assign_clusters(dataset, dendro, k)
        path = os.path.join(config.out_dir, f"clusters_{args.year}_k{k}.csv")
        write_text(path, cluster_table(dataset, assignment))
    print(f"clustered year {args.year} at k={list(config.k_values)}; suggested k = {suggested}")
    return 0


def cmd_train(args) -> int:
    config = _config(args)
    dataset = _load(config, args.year)
    dendro, _ = cluster_year(dataset, config)
    assignment = assign_clusters(dataset, dendro, args.k)
    numeric, categorical, numeric_names, cat_names = dataset_design(dataset)
    model = fit(
        numeric, categorical, assignment.labels, config.train,
        numeric_names=numeric_names, categorical_names=cat_names,
    )
    write_text(args.model_out, model_to_json(model) + "\n")
    print(f"trained k={args.k} model on year {args.year}; wrote {args.model_out}")
    return 0


def cmd_explain(args) -> int:
    config = _config(args)
    dataset = _load(config, args.year)
    with open(args.model, "rb") as f:
        model = model_from_json(f.read())
    numeric, categorical, numeric_names, cat_names = dataset_design(dataset)
    model_numeric = list(model.feature_names[: model.n_numeric])
    model_cat = [] if model.ts_encoder is None else list(model.ts_encoder.feature_names)
    if (model_numeric, model_cat) != (numeric_names, cat_names):
        raise DataError(
            f"model {args.model} takes {len(model_numeric)} numeric and {len(model_cat)} categorical "
            f"feature(s), year {args.year} has {len(numeric_names)} and {len(cat_names)}: "
            f"the model's are {model_numeric} and {model_cat}, the year's {numeric_names} and {cat_names}"
        )
    phi = TreeShapExplainer(model).explain(model.encode_features(numeric, categorical))
    importance = importance_of(model, phi)  # one SHAP pass serves the ranking and the rows
    path = os.path.join(config.out_dir, f"shap_importance_{args.year}.csv")
    ranked = ((name, value, rank) for rank, (name, value) in enumerate(importance.ranking(), start=1))
    write_text(path, csv_text(("feature_name", "mean_abs_shap", "rank"), ranked))
    if args.per_row:
        rows = (
            (district_id, output, fname, float(phi[i, output, j]))
            for i, district_id in enumerate(dataset.ids)
            for output in range(phi.shape[1])
            for j, fname in enumerate(model.feature_names)
        )
        rows_path = os.path.join(config.out_dir, f"shap_rows_{args.year}.csv")
        write_text(rows_path, csv_text(("district_id", "output", "feature_name", "phi"), rows))
    print(f"wrote {path}")
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
            with open(os.path.join(args.runs, name), "rb") as f:
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
    write_text(out_path, table)
    print(f"wrote {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vaxclust", description=__doc__)
    parser.add_argument("--version", action="version", version=f"vaxclust {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="full pipeline from a config file")
    _add_config_flags(p)
    p.set_defaults(func=cmd_run)

    for name, func, needs_k in (
        ("cluster", cmd_cluster, False),
        ("train", cmd_train, True),
        ("explain", cmd_explain, False),
        ("stats", cmd_run, True),
    ):
        p = sub.add_parser(name, help=f"{name} stage for one year")
        _add_config_flags(p)
        p.add_argument("--input-dir", help="override the input directory")
        p.add_argument("--year", type=int, required=True)
        if needs_k:
            p.add_argument("--k", type=int, required=True)
        if name == "cluster":
            p.add_argument("--k-values", type=int, nargs="+", help="override the config k_values")
        if name == "train":
            p.add_argument("--model-out", required=True)
        if name == "explain":
            p.add_argument("--model", required=True)
            p.add_argument("--per-row", action="store_true")
        p.set_defaults(func=func)

    p = sub.add_parser("synth", help="write synthetic input tables")
    p.add_argument("--seed", type=int, help="generator seed (default 0)")
    p.add_argument("--out", help="output directory (default: working directory)")
    p.add_argument("--year", type=int, default=2021)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--n-per-cluster", type=int, nargs="+")
    p.add_argument("--noise-sd", type=float, default=2.0)
    p.add_argument("--zero-signal", action="store_true")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("report", help="assemble metrics.csv from report files")
    p.add_argument("--runs", required=True, help="directory containing report_*.json")
    p.add_argument("--out", help="output file or directory (default: RUNS/metrics.csv)")
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
    except (DataError, OSError) as exc:  # an input: every write raises WriteError, so OSError is a read
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except VaxclustError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # run records its own; a stage command ends as a failed stage
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
