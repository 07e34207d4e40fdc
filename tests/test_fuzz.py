"""One-mutation fuzzing of every input the command line reads.

Each example drops one key, list item, line or cell, or replaces one
value, in a saved model file of some family, a labeled feature CSV or
the 561-column HAPT layout, then runs `predict`, `evaluate` or `ingest`
through cli.main. A malformed input must exit 2 or 3 with its reason,
never 4 (internal error); one that still runs must predict every row.
"""

import json
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from harboost import cli  # noqa: E402
from harboost.boosting import boost_fit  # noqa: E402
from harboost.dataset import save_csv  # noqa: E402
from harboost.learners import Family, LearnerSpec  # noqa: E402
from harboost.modelfile import save_model  # noqa: E402
from harboost.synthetic import (  # noqa: E402
    make_activity_dataset,
    write_hapt_layout,
)


def fuzz(examples):
    """Deterministic settings that write nothing under .hypothesis/."""
    return settings(derandomize=True, deadline=None, database=None,
                    max_examples=examples)


_DROP = object()
# json.dumps cannot write an int beyond 4300 digits, so it goes in as text
_HUGE = "<5000-digit integer>"
# a payload of another family, to stand in for a model or a part of one
_FOREST = {"family": "forest", "class_ids": [1, 2, 3, 4], "trees": []}
JSON_VALUES = [_DROP, None, "x", True, -1, 0, 1.5, math.nan, math.inf,
               -math.inf, [], {}, 10 ** 30, _HUGE, _FOREST]
# "\udce9" is written with surrogateescape: the lone byte 0xE9, not UTF-8
TEXT_VALUES = [_DROP, "", "null", "x", "true", "-1", "0", "1.5", "nan",
               "inf", "-inf", "[]", "{}", "1" + "0" * 30, "7" * 5000,
               "\udce9"]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """(directory, feature CSV, its row count, {family: model file text});
    the directory also holds the k-NN model as knn.json."""
    root = tmp_path_factory.mktemp("fuzz")
    ds = make_activity_dataset(40, 4, 3, seed=41, spread=0.4)
    save_csv(ds, root / "data.csv")
    models = {}
    for family in Family:
        spec = LearnerSpec(family, k=3, max_depth=3, trees=2)
        ens = boost_fit(spec, ds, rounds=2, seed=1)
        save_model(root / "m.json", ens, ds)
        models[family] = (root / "m.json").read_text()
    (root / "knn.json").write_text(models[Family.KNN])
    return root, root / "data.csv", ds.n_rows, models


@pytest.fixture(scope="module")
def hapt(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz_hapt")
    return write_hapt_layout(root, n_rows=24, seed=43, total_features=561)


def _mutated_json(draw, doc):
    """doc's JSON text after one drop or replacement, at a path drawn one
    level at a time so that shallow and deep keys are both reached."""
    parent, key = doc, draw(st.sampled_from(sorted(doc)))
    while (isinstance(parent[key], (dict, list)) and parent[key]
           and draw(st.booleans())):
        node = parent[key]
        parent, key = node, draw(st.sampled_from(
            sorted(node) if isinstance(node, dict) else range(len(node))))
    value = draw(st.sampled_from(JSON_VALUES))
    if value is _DROP:
        del parent[key]
    else:
        parent[key] = value
    return json.dumps(doc).replace(json.dumps(_HUGE), "7" * 5000)


def _mutated_lines(draw, text, sep, column=None):
    """text after one cell (the column-th, if given) is dropped or
    replaced, or one line dropped."""
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    cells = lines[i].split(sep)
    j = (draw(st.integers(0, len(cells) - 1)) if column is None
         else column % len(cells))
    value = draw(st.sampled_from(TEXT_VALUES))
    if value is _DROP:
        del cells[j]
    else:
        cells[j] = value
    lines[i] = sep.join(cells)
    if draw(st.integers(0, 9)) == 0:
        del lines[i]
    return "\n".join(lines) + "\n"


def _run(argv, out):
    out.unlink(missing_ok=True)
    code = cli.main([*argv, "--out", str(out)])
    assert code in (0, 2, 3), argv
    return code


@fuzz(120)
@given(data=st.data())
def test_mutated_model_file_never_exits_4(inputs, data):
    root, csv, n_rows, models = inputs
    family = data.draw(st.sampled_from(list(Family)))
    model = root / "mutated.json"
    model.write_text(_mutated_json(data.draw, json.loads(models[family])))
    out = root / "pred.csv"
    if _run(["predict", "--model", str(model), "--from-csv", str(csv)],
            out) == 0:
        assert len(out.read_text().splitlines()) == 1 + n_rows


@fuzz(60)
@given(data=st.data())
def test_mutated_feature_csv_never_exits_4(inputs, data):
    root, csv, _, _ = inputs
    # half the examples hit activity_id, one column of the CSV's 17
    column = data.draw(st.sampled_from([None, -2]))
    text = _mutated_lines(data.draw, csv.read_text(), ",", column)
    mutated = root / "mutated.csv"
    mutated.write_text(text, errors="surrogateescape")
    out = root / "pred.csv"
    if _run(["predict", "--model", str(root / "knn.json"),
             "--from-csv", str(mutated)], out) == 0:
        rows = sum(1 for line in text.splitlines()[1:] if line.strip())
        assert len(out.read_text().splitlines()) == 1 + rows
    _run(["evaluate", "--from-csv", str(mutated), "--learner", "naive-bayes",
          "--folds", "2", "--rounds", "1", "--format", "json"],
         root / "report.json")


@fuzz(40)
@given(data=st.data())
def test_mutated_hapt_layout_never_exits_4(hapt, data):
    name = data.draw(st.sampled_from(["features.txt", "activity_labels.txt",
                                      "Train/X_train.txt",
                                      "Train/y_train.txt"]))
    path = hapt / name
    original = path.read_text()
    path.write_text(_mutated_lines(data.draw, original, " "),
                    errors="surrogateescape")
    try:
        _run(["ingest", "--data-dir", str(hapt)], hapt.parent / "out.csv")
    finally:
        path.write_text(original)
