"""vaxclust benchmark: runs ``run_pipeline`` in-process on generated inputs.

Run from the repository root::

    python3 perfbench/run.py --workload paper-year --seed 7 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 50 [--record FILE]

One process measures one workload. It generates the workload's CSVs and
config from ``--seed`` in a private directory under ``.bench_work/``, then
calls ``run_pipeline`` repeatedly (same working directory, same relative
``out_dir``) for about ``--seconds`` seconds and reports medians.

Timings are taken at the reference host speed: every timed call (and every
set-up) sits between two calibration slices (``calibrate.py``), and its wall
time is multiplied by ``calibrate.REFERENCE_S`` over the geometric mean of the
two slices. That cancels the shared host's swings in speed, which slow the
calibration kernels and the program alike. A single-threaded workload is
pinned to one CPU, so that its calls and their calibration share a core.

``--trace 0`` prints the end-to-end metrics: ``run_s`` (median scaled seconds
of one call, leaving out the first, warm-up call), ``peak_rss_mb`` (peak
resident memory of this process), ``setup_s`` (median scaled seconds of
several set-ups, each importing vaxclust from one compiled copy of the sources
in a fresh process, generating the inputs and loading the config) and
``cells_ok_frac`` (share of attempted (year, k) cells that succeeded; a call
that raises fails all of its cells). ``--trace 1`` alternates untraced and
traced calls and prints the per-layer metrics of the traced ones (see
``spans.py``), plus ``trace.overhead_s``, the median over consecutive
(traced, untraced) pairs of their difference, leaving out the first call,
``wall.run_s``, the unscaled median wall seconds of the untraced calls, and
``host.cal_ms``, the median calibration slice.

Every call goes through the correctness gate in ``gate.py``. Standard output
holds a ``digest <sha256>`` line for the artifact tree, and its last line is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 0 only when the gate passed. ``--workload all``
runs every workload in its own process, traced and untraced, fails unless the
two processes of a workload wrote the same artifact tree, prints one line per
metric and, with ``--record``, writes them with the machine description to a
baseline file.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave the checkout as found

import argparse
import compileall
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time
from pathlib import Path

import gate
import spans
from workloads import OUT_DIR, WORKLOADS, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
REFERENCE_PATH = HERE / "reference.json"  # {"seed", "workloads": {name: measure(...)["values"]}}
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170

# one thread per BLAS call keeps the process at the workload's own thread count
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def setup(workload, seed: int, work_dir: Path):
    """Import vaxclust, write the inputs and load the config; return (seconds, config)."""
    start = time.perf_counter()
    from vaxclust.pipeline import load_config

    work_dir.mkdir(parents=True)
    config = load_config(write_inputs(workload, seed, str(work_dir)))
    return time.perf_counter() - start, config


@contextlib.contextmanager
def scratch_dir(name: str):
    """A path under ``.bench_work/`` for this process; removed, with the parent if empty, on exit."""
    path = WORK_ROOT / f"{name}-{os.getpid()}"
    try:
        yield path
    finally:
        os.chdir(ROOT)
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()


def setup_samples(workload, seed: int, tag: str) -> list[float]:
    """Scaled set-up seconds of fresh interpreters, each importing the same compiled copy of the sources.

    The copy is compiled once here, so every probe loads the same bytecode
    whatever ``__pycache__`` the checkout itself holds.
    """
    import calibrate

    times = []
    with scratch_dir(f"{tag}-src") as src:
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        compileall.compile_dir(src, quiet=1)
        calibrate.slice_s(calibrate.WARM_UP_S)
        before = calibrate.slice_s()
        for i in range(SETUP_SAMPLES):
            with scratch_dir(f"{tag}-probe{i}") as work_dir:
                proc = subprocess.run(
                    [sys.executable, __file__, "--workload", workload.name, "--seed", str(seed),
                     "--setup-probe", str(src), str(work_dir)],
                    capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
                )
            after = calibrate.slice_s()
            times.append(calibrate.scaled(float(proc.stdout.split()[-1]), before, after))
            before = after
    return times


def load_reference(workload, seed: int):
    if seed != gate.REFERENCE_SEED:
        return None
    with open(REFERENCE_PATH, encoding="utf-8") as f:
        return json.load(f)["workloads"][workload.name]


def measure(workload, config, seconds: float, trace: bool) -> dict:
    """Call run_pipeline for about ``seconds``; gate every call; return timings and samples.

    ``plain`` and ``traced`` hold wall seconds; ``scaled`` holds those of
    ``plain`` at the reference host speed and ``cal`` every calibration slice.
    ``values`` in the result holds the reference values of the first call
    that succeeded, the form ``reference.json`` stores them in.
    """
    import calibrate
    from vaxclust.pipeline import run_pipeline

    reference = load_reference(workload, config.seed)
    plain, scaled, traced, layer_samples, problems = [], [], [], [], []
    calibrate.slice_s(calibrate.WARM_UP_S)
    cal = [calibrate.slice_s()]
    digests = set()
    values = None
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        recorder = spans.Recorder() if trace and len(traced) < len(plain) else None
        shutil.rmtree(OUT_DIR, ignore_errors=True)
        gc.collect()
        result = error = None
        with spans.instrument(recorder) if recorder else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                if recorder:
                    result = recorder.call("run_pipeline", "pipeline", "run", run_pipeline, (config,))
                else:
                    result = run_pipeline(config)
            except Exception as exc:  # a run that raises fails all of its cells; keep measuring
                error = exc
            run_s = time.perf_counter() - t0
        cal.append(calibrate.slice_s())
        if recorder:
            traced.append(run_s)
        else:
            plain.append(run_s)
            scaled.append(calibrate.scaled(run_s, cal[-2], cal[-1]))

        attempted += len(workload.cells)
        if error is not None:
            failed += len(workload.cells)
            problems.append(f"run_pipeline raised {type(error).__name__}: {error}")
        else:
            missing = gate.failed_cells(OUT_DIR, workload.cells)
            failed += len(missing)
            if result.exit_code != 0 or missing:
                problems.append(f"exit code {result.exit_code}, failed cells {missing}")
            digests.add(gate.tree_digest(OUT_DIR))
            if values is None:
                values = gate.reference_values(result.reports, OUT_DIR)
                if reference is not None:  # equal digests carry the check to the later calls
                    problems += gate.compare_reference(values, reference)
            if recorder:
                residual = gate.shap_residual(recorder.captured["global_importance"])
                if residual > gate.LOCAL_ACCURACY_TOL:
                    problems.append(f"SHAP local accuracy residual {residual:.3g}")
                layer_samples.append(spans.layer_metrics(recorder, run_s, OUT_DIR))
        del result, recorder

        # start another call while it would end within half a call of the budget;
        # a traced run needs one (traced, untraced) pair after the first call
        typical = statistics.median(plain)
        if time.perf_counter() - start + typical / 2 > seconds and (len(plain) >= 2 or not trace):
            break
    if len(digests) > 1:
        problems.append(f"{len(digests)} different artifact digests across {len(plain) + len(traced)} calls")
    return {
        "plain": plain,
        "scaled": scaled,
        "cal": cal,
        "traced": traced,
        "layer_samples": layer_samples,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digest": sorted(digests),
        "values": values,
    }


def _after_warm_up(samples: list[float]) -> list[float]:
    return samples[1:] or samples


def end_to_end(measured: dict, setup_s: list[float]) -> dict:
    return {
        "run_s": (statistics.median(_after_warm_up(measured["scaled"])), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_s), "s"),
        "cells_ok_frac": (1.0 - measured["failed"] / measured["attempted"], "ratio"),
    }


def per_layer(measured: dict) -> dict:
    samples = measured["layer_samples"]
    metrics = {}
    for name, (_, unit) in (samples[0].items() if samples else ()):
        metrics[name] = (statistics.median(s[name][0] for s in samples), unit)
    # calls alternate untraced, traced, untraced, ...: pair each traced call with the next one
    pairs = list(zip(measured["traced"], measured["plain"][1:]))
    if pairs:
        metrics["trace.overhead_s"] = (statistics.median(t - p for t, p in pairs), "s")
    metrics["wall.run_s"] = (statistics.median(_after_warm_up(measured["plain"])), "s")
    metrics["host.cal_ms"] = (statistics.median(measured["cal"]) * 1000.0, "ms")
    metrics["cells_failed_frac"] = (measured["failed"] / measured["attempted"], "ratio")
    return metrics


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-s{args.seed}"
    with scratch_dir(tag) as work_dir:
        _, config = setup(workload, args.seed, work_dir)
        import vaxclust

        if Path(vaxclust.__file__).resolve().parent != SRC / "vaxclust":
            print(f"imported vaxclust from {vaxclust.__file__}, not {SRC}", file=sys.stderr)
            return 2
        if workload.threads == 1:
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        samples = [] if args.trace else setup_samples(workload, args.seed, tag)
        os.chdir(work_dir)
        measured = measure(workload, config, args.seconds, bool(args.trace))

    metrics = per_layer(measured) if args.trace else end_to_end(measured, samples)
    for problem in measured["problems"]:
        print(f"gate: {problem}", file=sys.stderr)
    print(
        f"{workload.name} seed={args.seed} wall={[round(t, 3) for t in measured['plain']]} "
        f"scaled={[round(t, 3) for t in measured['scaled']]} cal_ms={[round(t * 1e3, 2) for t in measured['cal']]} "
        f"traced={[round(t, 3) for t in measured['traced']]} setup_s={[round(t, 3) for t in samples]} "
        f"digest={','.join(d[:16] for d in measured['digest'])}",
        file=sys.stderr,
    )
    correct = not measured["problems"]
    print("digest", *measured["digest"])
    print(json.dumps({
        "correct": correct,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def machine() -> dict:
    import numpy
    import scipy

    model = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as f:
        model = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), model)
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced; one line per metric."""
    record = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    ok = True
    for name in WORKLOADS:
        record["workloads"][name] = {}
        digests = set()
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {"correct": False, "failed": -1, "metrics": {}}
            digests.update(word for line in lines if line.startswith("digest ") for word in line.split()[1:])
            ok = ok and proc.returncode == 0 and result["correct"] and result["failed"] == 0
            record["workloads"][name]["per_layer" if trace else "end_to_end"] = result["metrics"]
            for metric, m in result["metrics"].items():
                print(f"{name:15s} {metric:30s} {m['value']:>14.6g} {m['unit']}")
            print(f"{name:15s} {'correct' if result['correct'] else 'INCORRECT'} "
                  f"(trace {trace}, exit {proc.returncode}, failed cells {result['failed']})")
        if len(digests) != 1:
            ok = False
            print(f"{name:15s} INCORRECT (the two processes wrote different artifact trees: {sorted(digests)})")
    if args.record:
        record["machine"] = machine()
        with open(args.record, "w", encoding="utf-8") as f:
            json.dump(record, f, indent=2, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=gate.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="FILE", help="with --workload all: write the results here")
    parser.add_argument("--setup-probe", nargs=2, metavar=("SRC", "DIR"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "vaxclust" / "__init__.py").is_file():
        print(f"no vaxclust sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        if args.workload == "all":
            parser.error("--setup-probe needs one workload")
        src, work_dir = args.setup_probe
        sys.path.insert(0, src)
        print(setup(WORKLOADS[args.workload], args.seed, Path(work_dir))[0])
        return 0
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
