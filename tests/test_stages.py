"""The package's stage list is its import order.

Each stage module imports only the stages listed before it, plus the shared
leaf modules, so importing a stage loads nothing of the stages after it:
the classifier and its explainer load without the rank tests or scipy.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import vaxclust

PACKAGE = Path(vaxclust.__file__).parent
STAGES = ("dataset", "hcluster", "gbdt", "shapley", "evaluation", "stats", "synth", "pipeline", "cli")
SHARED = ("errors", "rng", "schema", "fixtures")  # import no vaxclust module; any module may import them
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _imported_modules(name: str) -> set[str]:
    """The vaxclust modules that module ``name`` imports, anywhere in its body."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["vaxclust", node.module])) if node.level else node.module
            targets = [f"{base}.{alias.name}" for alias in node.names] + [base]
        else:
            continue
        parts = [target.split(".") for target in targets]
        found |= {p[1] for p in parts if p[0] == "vaxclust" and len(p) > 1 and p[1] in MODULES}
    return found


def test_every_module_is_a_stage_or_shared():
    assert MODULES == {"__init__", *STAGES, *SHARED}


def test_stages_import_only_earlier_stages():
    allowed = set(SHARED)
    wrong = []
    for name in SHARED + ("__init__",):
        wrong += [f"{name} -> {m}" for m in sorted(_imported_modules(name))]
    for name in STAGES:
        wrong += [f"{name} -> {m}" for m in sorted(_imported_modules(name) - allowed)]
        allowed.add(name)
    assert wrong == []


def test_package_docstring_lists_the_stages_in_import_order():
    listed = re.findall(r"^\d+\. ``(\w+)``", vaxclust.__doc__, re.MULTILINE)
    assert listed == list(STAGES)


def test_classifier_and_explainer_import_without_stats_or_scipy():
    code = (
        "import sys, vaxclust.evaluation, vaxclust.shapley\n"
        "print(sorted(m for m in sys.modules if m == 'vaxclust.stats' or m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
