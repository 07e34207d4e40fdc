"""The package's layers: only `learners` knows the learner families, and
the top-level exports are the public names `harboost` imports.

Boosting, evaluation, model files, reports and the CLI reach a family
through the `learners` package (its family table, fit and payload
dispatch), never by importing a family module, so adding or changing a
family touches `learners/` alone.
"""

import ast
import types
from pathlib import Path

import harboost

PACKAGE = Path(harboost.__file__).parent
FAMILY_MODULES = {p.stem for p in (PACKAGE / "learners").glob("*.py")
                  if p.stem != "__init__"}


def imported_modules(tree):
    """Dotted names, relative to the package, of every module a harboost
    module imports: `learners.knn` for `from .learners import knn` and
    for `import harboost.learners.knn`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.removeprefix("harboost.")
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 0:
                if base != "harboost" and not base.startswith("harboost."):
                    continue
                base = base.removeprefix("harboost").lstrip(".")
            yield base
            for alias in node.names:
                yield f"{base}.{alias.name}".lstrip(".")


def test_family_modules_are_known():
    assert {"knn", "trees", "bayes", "discriminant", "regression",
            "constant"} <= FAMILY_MODULES


def test_no_module_outside_learners_imports_a_family():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name in imported_modules(ast.parse(path.read_text())):
            parts = name.split(".")
            if parts[0] == "learners" and len(parts) > 1 \
                    and parts[1] in FAMILY_MODULES:
                offenders.append(f"{path.name}: {name}")
    assert offenders == []


def test_only_trees_write_their_own_payload_code():
    # every other family's payload is its fields, through
    # numerics.FieldPayload; trees nest their nodes
    offenders = []
    for name in sorted(FAMILY_MODULES - {"trees"}):
        tree = ast.parse((PACKAGE / "learners" / f"{name}.py").read_text())
        offenders += [
            f"{name}.py: {node.name}" for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and (node.name == "to_payload"
                 or node.name.endswith("from_payload"))
        ]
    assert offenders == []


def test_exports_are_public_names_and_resolve():
    assert harboost.__all__
    for name in harboost.__all__:
        assert not name.startswith("_")
        assert not isinstance(getattr(harboost, name), types.ModuleType)
