"""The package's layers: only `learners` knows the learner families, and
the top-level exports are the public names `harboost` imports.

Boosting, evaluation, model files, reports and the CLI reach a family
through the `learners` package (its family table, fit and payload
dispatch), never by importing a family module, so adding or changing a
family touches `learners/` alone. Nor does one family module import
another.
"""

import ast
import types
from pathlib import Path

import harboost
from harboost.learners import Family

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


def test_no_family_module_imports_another_family():
    # what families share (class statistics, linear algebra, payloads)
    # lives in numerics, so no family reaches into another's internals
    offenders = []
    for name in sorted(FAMILY_MODULES):
        tree = ast.parse((PACKAGE / "learners" / f"{name}.py").read_text())
        for imported in imported_modules(tree):
            other = imported.removeprefix("learners.").split(".")[0]
            if other in FAMILY_MODULES - {name}:
                offenders.append(f"{name}.py: {imported}")
    assert offenders == []


def test_no_module_outside_learners_names_a_family():
    # what sets a family apart lives in its FAMILIES row and LearnerSpec,
    # so no other layer branches on Family.KNN and the like
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        offenders += [
            f"{path.name}:{node.lineno}: Family.{node.attr}"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
            and node.attr in Family.__members__
            and "Family" in (getattr(node.value, "id", None),
                             getattr(node.value, "attr", None))
        ]
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


def test_one_parser_reads_every_number_from_text():
    # dataset._table's loadtxt is the only number parser for input files;
    # float()/int() read 1_0 and non-ASCII digits that loadtxt rejects
    callers = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            if any(isinstance(node, ast.Attribute) and node.attr == "loadtxt"
                   for node in ast.walk(top)):
                callers.add(f"{path.name}: {getattr(top, 'name', top.lineno)}")
    assert callers == {"dataset.py: _table"}
    dataset = ast.parse((PACKAGE / "dataset.py").read_text())
    assert "_floats" not in {getattr(node, "name", getattr(node, "id", None))
                             for node in ast.walk(dataset)}


def test_one_writer_writes_every_json_document():
    # jsontext.canonical_json is the only writer of indented JSON: reports
    # reach it through to_json, model files directly
    indented, writers = [], set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name in ("dumps", "dump") and any(
                        kw.arg == "indent" for kw in node.keywords):
                    indented.append(f"{path.name}:{node.lineno}")
                if name == "canonical_json":
                    writers.add(f"{path.name}: {getattr(top, 'name', top.lineno)}")
    assert indented == []
    assert writers == {"reports.py: to_json", "modelfile.py: save_model"}


def test_one_formatter_writes_float_text_as_repr():
    # floattext.repr_rows writes the shortest round-trip text of floats
    # (the digest, feature CSVs, report numbers, model matrices); a
    # per-value repr runs only in its fallback, for rows off its array path
    callers = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            if any(isinstance(node, ast.Name) and node.id == "repr"
                   for node in ast.walk(top)):
                callers.add(f"{path.name}: {getattr(top, 'name', top.lineno)}")
    assert callers == {"floattext.py: _repr_block"}


def test_no_module_keeps_state_in_a_global():
    # a value outlives a call only in an object its caller holds (a
    # Dataset's row text, class blocks); the one global statement sets
    # a process-pool worker's job, once per worker
    assigned = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Global):
                    where = f"{path.name}: {getattr(top, 'name', top.lineno)}"
                    assigned.update(f"{where}: {name}" for name in node.names)
    assert assigned == {"evaluation.py: _init_worker: _worker_job"}
