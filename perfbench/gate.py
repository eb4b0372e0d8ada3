"""Correctness gate for benchmark runs.

A call passes when ``run_pipeline`` returns exit code 0 with every expected
(year, k) cell listed in ``run_summary.json`` under ``cells_ok``. Across the
calls of one process every artifact tree must have the same digest. At
:data:`REFERENCE_SEED` every cell must also match the committed reference
(``reference.json``, the ``values`` that ``run.measure`` returns for each
workload at that seed): every report field but the SHAP importances and the
library versions exactly, as well as the choropleth file, and the SHAP
importances to a relative 1e-9 (the last few ulps may move when the SHAP
routine is rewritten). Values are compared, not whole artifact trees, because
reports embed the python/numpy/scipy versions.
"""

from __future__ import annotations

import dataclasses
import glob
import hashlib
import json
import math
import os

REFERENCE_SEED = 7
IMPORTANCE_REL_TOL = 1e-9
LOCAL_ACCURACY_TOL = 1e-9
LOCAL_ACCURACY_ROWS = 4


def tree_digest(out_dir: str) -> str:
    """sha256 over the relative path and bytes of every file under ``out_dir``."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(out_dir):
        dirnames.sort()
        for filename in sorted(filenames):
            path = os.path.join(dirpath, filename)
            digest.update(os.path.relpath(path, out_dir).encode("utf-8") + b"\0")
            with open(path, "rb") as f:
                digest.update(f.read())
            digest.update(b"\0")
    return digest.hexdigest()


def failed_cells(out_dir: str, cells) -> list[str]:
    """Expected cells missing from ``cells_ok`` (all of them if there is no summary)."""
    expected = [f"{year}_k{k}" for year, k in cells]
    try:
        with open(os.path.join(out_dir, "run_summary.json"), encoding="utf-8") as f:
            ok = set(json.load(f)["cells_ok"])
    except (OSError, ValueError, KeyError):
        return expected
    return [cell for cell in expected if cell not in ok]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def reference_values(reports: dict, out_dir: str) -> dict:
    """The gated values of every cell, keyed like ``2021_k2``.

    Exact values are kept as one digest per report field (canonical JSON),
    which keeps the reference small for large cells; importances are
    kept as numbers, because they are compared with a tolerance.
    """
    values = {}
    for (year, k), report in sorted(reports.items()):
        tag = f"{year}_k{k}"
        fields = dataclasses.asdict(report)
        importance = fields.pop("importance")
        fields["importance.feature_names"] = importance["feature_names"]
        del fields["versions"]
        exact = {
            key: _sha256(json.dumps(value, sort_keys=True).encode("utf-8")) for key, value in fields.items()
        }
        for path in sorted(glob.glob(os.path.join(out_dir, f"choropleth_{tag}.*"))):
            with open(path, "rb") as f:
                exact[os.path.basename(path)] = _sha256(f.read())
        values[tag] = {
            "exact": exact,
            "importance": [importance["values"], *importance["per_fold"]],
        }
    # a JSON round trip turns tuples into lists, so live and stored values compare alike
    return json.loads(json.dumps(values))


def _close(a, b) -> bool:
    """Equal nesting of lists whose numbers agree to :data:`IMPORTANCE_REL_TOL`."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    return math.isclose(a, b, rel_tol=IMPORTANCE_REL_TOL, abs_tol=0.0)


def compare_reference(values: dict, reference: dict) -> list[str]:
    """Differences between live values and the reference, one line each."""
    problems = []
    if sorted(values) != sorted(reference):
        return [f"cells {sorted(values)} != reference cells {sorted(reference)}"]
    for cell, ref in sorted(reference.items()):
        live = values[cell]
        for key in sorted(set(live["exact"]) | set(ref["exact"])):
            if live["exact"].get(key) != ref["exact"].get(key):
                problems.append(f"{cell}: {key} differs from the reference")
        if not _close(live["importance"], ref["importance"]):
            problems.append(f"{cell}: importance differs from the reference beyond rel {IMPORTANCE_REL_TOL}")
    return problems


def shap_residual(captured_importance) -> float:
    """max |sum(phi) + base - margin| over the first rows of every explained design."""
    import numpy as np
    from vaxclust.gbdt import margin_from_design
    from vaxclust.shapley import TreeShapExplainer

    worst = 0.0
    for _, (model, design), _ in captured_importance:
        rows = np.atleast_2d(np.asarray(design, dtype=np.float64))[:LOCAL_ACCURACY_ROWS]
        explainer = TreeShapExplainer(model)
        margins = margin_from_design(model, rows)
        for row, margin in zip(rows, margins):
            attribution = explainer.attribute(row)
            residual = np.abs(attribution.phi.sum(axis=1) + attribution.base - margin).max()
            worst = max(worst, float(residual))
    return worst
