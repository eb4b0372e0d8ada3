from __future__ import annotations

import hashlib
import io
import os
from dataclasses import fields

import numpy as np
import pytest

from vaxclust.dataset import GDSC_COLUMNS, VACCINE_COLUMNS, YearDataset
from vaxclust.gbdt import Forest, ObliviousTree, TrainConfig, TreeEnsemble


def vacc_csv(rows, header=None):
    """rows: list of (district_id, district_name, rates...)."""
    header = header or ["district_id", "district_name", *VACCINE_COLUMNS]
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(v) for v in row))
    return io.StringIO("\n".join(lines) + "\n")


def gdsc_csv(rows, header=None):
    header = header or ["district_id", *GDSC_COLUMNS]
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(v) for v in row))
    return io.StringIO("\n".join(lines) + "\n")


def gdsc_row(district_id, rurality=1, **overrides):
    values = {
        "imd_avg_score": 20.0,
        "imd_prop_deprived": 10.0,
        "long_term_unemployed": 5.0,
        "routine_occupations": 12.0,
        "no_qualifications": 20.0,
        "english_proficiency": 8.0,
        "ethnic_minority": 15.0,
        "born_outside_uk": 12.0,
    }
    values.update(overrides)
    cells = [district_id]
    for c in GDSC_COLUMNS:
        cells.append(rurality if c == "rurality" else values[c])
    return cells


def assert_same_dataset(a: YearDataset, b: YearDataset) -> None:
    """Field-by-field equality of two datasets, array dtypes included (``==``
    on a dataclass holding arrays raises)."""
    for f in fields(YearDataset):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), f.name
        else:
            assert x == y, f.name


def random_oblivious_model(rng, n_features, n_classes, max_trees=12, max_depth=4, n_train=60, min_depth=0):
    """Random ensemble with realistic covers (zero-cover leaves included)."""
    n_outputs = 1 if n_classes == 2 else n_classes
    X_train = rng.normal(size=(n_train, n_features))
    total = int(rng.integers(1, max_trees + 1))
    trees = []
    for t in range(total):
        levels = int(rng.integers(min_depth, max_depth + 1))
        splits = tuple(
            (int(rng.integers(0, n_features)), float(rng.normal()))
            for _ in range(levels)
        )
        leaf_idx = np.zeros(n_train, dtype=np.int64)
        for level, (f, thr) in enumerate(splits):
            leaf_idx |= (X_train[:, f] > thr).astype(np.int64) << level
        cover = np.bincount(leaf_idx, minlength=1 << levels)
        values = rng.normal(size=1 << levels)
        trees.append(
            ObliviousTree(
                splits=splits,
                leaf_values=values,
                leaf_cover=cover,
                class_index=t % n_outputs,
            )
        )
    return TreeEnsemble(
        n_classes=n_classes,
        n_outputs=n_outputs,
        base_score=rng.normal(size=n_outputs),
        learning_rate=float(rng.uniform(0.05, 1.0)),
        forest=Forest.of(trees),
        feature_names=tuple(f"f{j}" for j in range(n_features)),
        feature_source=tuple(f"f{j}" for j in range(n_features)),
        n_numeric=n_features,
        ts_encoder=None,
        config=TrainConfig(),
    )


def tree_digest(root) -> str:
    h = hashlib.sha256()
    for dirpath, _, filenames in sorted(os.walk(root)):
        for name in sorted(filenames):
            h.update(name.encode())
            with open(os.path.join(dirpath, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
