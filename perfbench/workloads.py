"""Benchmark workloads: generated inputs plus the run config the program sees.

Each workload is a set of synthetic years written with the package's own
generator (``synth.default_spec`` / ``generate`` / ``write_dataset_files``)
and a flat JSON config loaded through ``pipeline.load_config``. The workload
seed drives both the district draw and the config ``seed``; nothing else
about a workload depends on it. Paths in the config are relative, because
``RunConfig.echo()`` copies them into every report: artifact trees from
repeated runs in the same working directory then compare byte for byte.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

INPUT_DIR = "data"
OUT_DIR = "out"
CONFIG_FILE = "config.json"


@dataclass(frozen=True)
class Workload:
    name: str
    years: tuple[tuple[int, tuple[int, int]], ...]  # (year, (n_low, n_high))
    k_values: tuple[int, ...]
    n_trees: int
    threads: int

    @property
    def cells(self) -> list[tuple[int, int]]:
        return [(year, k) for year, _ in self.years for k in self.k_values]

    def config(self, seed: int) -> dict:
        return {
            "years": [year for year, _ in self.years],
            "input_dir": INPUT_DIR,
            "out_dir": OUT_DIR,
            "k_values": list(self.k_values),
            "seed": seed,
            "threads": self.threads,
            "n_trees": self.n_trees,
        }


# Each call is kept to about two seconds: the host's speed is calibrated just
# before and just after every call (see calibrate.py), which tracks it only
# while a call is short against the host's swings. A third workload, one year
# of 800 to 1,200 districts where the dense Ward search dominates, was dropped:
# its numpy-bound calls sped up far less than the calibration kernels when the
# host ran fast, so its scaled timings did not hold still.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper-year",
            years=((2021, (75, 75)),),
            k_values=(2, 3, 6),
            n_trees=3,
            threads=1,
        ),
        # 8+8 rather than 10+10 districts: C(16,8) keeps every test exact at a
        # fourteenth of the C(20,10) cost, so one call takes about two seconds.
        # One thread rather than two: with two, a call's time hung on the state
        # of the second CPU, which the calibration on the first cannot see.
        Workload(
            name="small-areas",
            years=((2021, (8, 8)), (2022, (8, 8)), (2023, (8, 8))),
            k_values=(2,),
            n_trees=20,
            threads=1,
        ),
    )
}


def write_inputs(workload: Workload, seed: int, work_dir: str) -> str:
    """Generate the workload's CSVs and config under ``work_dir``; return the config path."""
    from vaxclust import synth

    data_dir = os.path.join(work_dir, INPUT_DIR)
    for year, n_per_cluster in workload.years:
        spec = synth.default_spec(year=year, k=2, n_per_cluster=n_per_cluster, seed=seed)
        dataset, truth = synth.generate(spec)
        synth.write_dataset_files(dataset, truth, data_dir)
    config_path = os.path.join(work_dir, CONFIG_FILE)
    with open(config_path, "w", encoding="utf-8") as f:
        json.dump(workload.config(seed), f, indent=2, sort_keys=True)
    return config_path
