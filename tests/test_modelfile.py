import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest

from harboost.boosting import boost_fit, boost_predict_batch
from harboost.dataset import dataset_digest
from harboost.learners import Family, LearnerSpec
from harboost.modelfile import ModelFormatError, load_model, save_model
from harboost.synthetic import make_activity_dataset


SAVE_LOAD_CASES = [
    (Family.KNN, {"k": 4}),
    (Family.DECISION_TREE, {"max_depth": 4}),
    (Family.MULTIWAY_TREE, {"max_depth": 3}),
    (Family.RANDOM_FOREST, {"trees": 3, "max_depth": 3, "seed": 2}),
    (Family.NAIVE_BAYES, {}),
    (Family.KERNEL_NAIVE_BAYES, {}),
    (Family.LDA, {}),
    (Family.QDA, {}),
    (Family.LINEAR_REGRESSION_OVR, {}),
    (Family.DECISION_STUMP, {}),
    (Family.RANDOM_TREE, {"max_depth": 4, "subset_size": 2, "seed": 3}),
    (Family.VECTOR_LINEAR_REGRESSION, {"ridge": 0.01}),
]


def test_save_load_cases_cover_every_family():
    assert sorted(f.value for f, _ in SAVE_LOAD_CASES) \
        == sorted(f.value for f in Family)


@pytest.mark.parametrize("family,kwargs", SAVE_LOAD_CASES)
def test_save_load_predicts_bit_identically(tmp_path, family, kwargs):
    ds = make_activity_dataset(60, 4, 3, seed=31, spread=0.3)
    ens = boost_fit(LearnerSpec(family, **kwargs), ds, rounds=3, seed=9)
    path = tmp_path / "m.json"
    save_model(path, ens, ds)
    loaded = load_model(path)
    queries = np.random.default_rng(32).uniform(-1, 1, (500, 3))
    np.testing.assert_array_equal(
        boost_predict_batch(ens, queries),
        boost_predict_batch(loaded.ensemble, queries),
    )
    assert loaded.feature_names == ds.feature_names
    assert loaded.n_rows == ds.n_rows
    assert loaded.dataset_digest == dataset_digest(ds)
    assert loaded.ensemble.rounds_requested == 3
    assert loaded.ensemble.seed == 9
    assert loaded.ensemble.base_spec == LearnerSpec(family, **kwargs)


def test_knn_rows_stored_once(tmp_path):
    ds = make_activity_dataset(120, 6, 5, seed=33, spread=0.5)
    ens = boost_fit(LearnerSpec(Family.KNN, k=5), ds, rounds=4, seed=3)
    assert len(ens.rounds) >= 3
    path = tmp_path / "knn.json"
    save_model(path, ens, ds)
    doc = json.loads(path.read_text())
    assert doc["shared_knn_rows"] is not None
    for r in doc["rounds"]:
        assert r["model"]["rows"] == "shared"
    # reload re-shares one read-only array across rounds
    loaded = load_model(path)
    models = [r.model for r in loaded.ensemble.rounds]
    assert all(m.rows is models[0].rows for m in models)
    assert not models[0].rows.flags.writeable


def test_knn_rows_are_the_fit_rows_whatever_dataset_saves_them(tmp_path):
    # the stored rows are the ensemble's; the dataset given to save_model
    # names the features and gives the digest, and its text is not used
    ds1 = make_activity_dataset(120, 6, 5, seed=33, spread=0.5)
    ds2 = make_activity_dataset(90, 6, 5, seed=34, spread=0.5)
    ens = boost_fit(LearnerSpec(Family.KNN, k=5), ds1, rounds=4, seed=3)
    path = tmp_path / "knn.json"
    save_model(path, ens, ds2)
    doc = json.loads(path.read_text())
    assert doc["shared_knn_rows"] == ds1.features.tolist()
    assert doc["metadata"] == {"n_rows": 90,
                               "dataset_digest": dataset_digest(ds2)}
    assert "row_text" not in vars(ds2)


def test_resaved_knn_model_is_byte_identical(tmp_path):
    ds = make_activity_dataset(120, 6, 5, seed=33, spread=0.5)
    ens = boost_fit(LearnerSpec(Family.KNN, k=5), ds, rounds=4, seed=3)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_model(a, ens, ds)
    loaded = load_model(a).ensemble
    assert loaded.rounds[0].model.rows is not ds.features
    save_model(b, loaded, ds)
    assert a.read_bytes() == b.read_bytes()


def test_knn_rows_are_shared_by_identity_alone(tmp_path):
    # a round holding an equal copy of the shared rows writes its own
    ds = make_activity_dataset(60, 4, 3, seed=37, spread=0.5)
    ens = boost_fit(LearnerSpec(Family.KNN, k=3), ds, rounds=2, seed=0)
    assert len(ens.rounds) == 2
    last = ens.rounds[1]
    copy = dataclasses.replace(last.model, rows=last.model.rows.copy())
    ens = dataclasses.replace(
        ens, rounds=(ens.rounds[0], dataclasses.replace(last, model=copy)))
    path = tmp_path / "knn.json"
    save_model(path, ens, ds)
    doc = json.loads(path.read_text())
    assert doc["rounds"][0]["model"]["rows"] == "shared"
    assert doc["rounds"][1]["model"]["rows"] == doc["shared_knn_rows"]
    np.testing.assert_array_equal(
        boost_predict_batch(load_model(path).ensemble, ds.features),
        boost_predict_batch(ens, ds.features))


def test_version_mismatch_is_hard_error(tmp_path):
    ds = make_activity_dataset(30, 3, 2, seed=35)
    ens = boost_fit(LearnerSpec(Family.NAIVE_BAYES), ds, rounds=1, seed=0)
    path = tmp_path / "m.json"
    save_model(path, ens, ds)
    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="format_version"):
        load_model(path)


def test_not_a_model_file(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{\"hello\": 1}")
    with pytest.raises(ModelFormatError, match="not a harboost model"):
        load_model(path)
    path2 = tmp_path / "junk2.json"
    path2.write_text("not json at all")
    with pytest.raises(ModelFormatError, match="not valid JSON"):
        load_model(path2)
    # json.loads raised a plain ValueError, and UTF-8 decoding one too
    path3 = tmp_path / "junk3.json"
    path3.write_text('{"seed": ' + "1" * 5000 + "}")
    with pytest.raises(ModelFormatError, match="not valid JSON.*4300 digits"):
        load_model(path3)
    path4 = tmp_path / "junk4.json"
    path4.write_bytes(b'{"kind": "\xff"}')
    with pytest.raises(ModelFormatError, match="not valid JSON.*utf-8"):
        load_model(path4)
    with pytest.raises(FileNotFoundError):
        load_model(tmp_path / "absent.json")


def _naive_bayes_file(tmp_path):
    ds = make_activity_dataset(60, 4, 3, seed=37, spread=0.5)
    ens = boost_fit(LearnerSpec(Family.NAIVE_BAYES), ds, rounds=2, seed=0)
    path = tmp_path / "m.json"
    save_model(path, ens, ds)
    return path


@pytest.mark.parametrize(
    "key",
    ["base_spec", "num_classes", "class_ids", "rounds_requested", "seed",
     "rounds", "feature_names", "metadata"],
)
def test_missing_top_level_key_rejected(tmp_path, key):
    path = _naive_bayes_file(tmp_path)
    doc = json.loads(path.read_text())
    del doc[key]
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match=f"missing key.*{key}"):
        load_model(path)


@pytest.mark.parametrize("where,key", [("round", "alpha"), ("round", "model"),
                                       ("metadata", "n_rows")])
def test_missing_nested_key_rejected(tmp_path, where, key):
    path = _naive_bayes_file(tmp_path)
    doc = json.loads(path.read_text())
    del (doc["rounds"][0] if where == "round" else doc["metadata"])[key]
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match=f"missing key.*{key}"):
        load_model(path)


@pytest.mark.parametrize("class_ids", [[1, 2, 3], [1, 2, 3, 4, 5], []])
def test_class_ids_must_match_num_classes(tmp_path, class_ids):
    path = _naive_bayes_file(tmp_path)
    doc = json.loads(path.read_text())
    assert doc["num_classes"] == 4
    doc["class_ids"] = class_ids
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="class_ids"):
        load_model(path)


@pytest.mark.parametrize("class_ids", [[4, 3, 2, 1], [1, 2, 2, 3]])
def test_class_ids_must_increase(tmp_path, class_ids):
    # unsorted ids loaded, then predict raised IndexError (exit 4)
    path = _naive_bayes_file(tmp_path)
    doc = json.loads(path.read_text())
    doc["class_ids"] = class_ids
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="not strictly increasing"):
        load_model(path)


@pytest.mark.parametrize("old,new,in_rounds,message", [
    (4, 13, True, "class_ids [1, 2, 3, 13] are not activity ids 1..12"),
    (1, 0, True, "class_ids [0, 2, 3, 4] are not activity ids 1..12"),
    (1, 0, False, "round 1: model class_ids [1, 2, 3, 4] are not among"),
])
def test_class_ids_must_be_activity_ids(tmp_path, capsys, old, new,
                                        in_rounds, message):
    # relabelled in every round too, 13 loaded, then predict exited 4;
    # relabelled in class_ids alone, the round check still speaks first
    from harboost import cli

    path = _naive_bayes_file(tmp_path)
    doc = json.loads(path.read_text())
    for owner in [doc] + [r["model"] for r in doc["rounds"] if in_rounds]:
        owner["class_ids"] = [new if i == old else i
                              for i in owner["class_ids"]]
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match=re.escape(message)):
        load_model(path)
    csv = tmp_path / "x.csv"
    csv.write_text(",".join(doc["feature_names"]) + "\n"
                   + ",".join(["0.1"] * len(doc["feature_names"])) + "\n")
    assert cli.main(["predict", "--model", str(path),
                     "--from-csv", str(csv)]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_alpha_rejected(tmp_path, alpha):
    path = _naive_bayes_file(tmp_path)
    doc = json.loads(path.read_text())
    doc["rounds"][1]["alpha"] = alpha
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="round 2: non-finite alpha"):
        load_model(path)


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda doc: doc.update(rounds=5), "rounds is 5, not a JSON array"),
        (lambda doc: doc["rounds"].__setitem__(0, 3),
         "round 1: not a JSON object"),
        (lambda doc: doc["rounds"][1].update(model=[1, 2]),
         "round 2: model: not a JSON object"),
        (lambda doc: doc["rounds"][0].update(alpha="0.5"),
         "round 1: alpha is '0.5', not a JSON number"),
        (lambda doc: doc["rounds"][0].update(alpha=None),
         "round 1: alpha is None, not a JSON number"),
        (lambda doc: doc["rounds"][1].update(epsilon=[0.1]),
         r"round 2: epsilon is \[0.1\], not a JSON number"),
        (lambda doc: doc["base_spec"].update(k=2.5),
         "base_spec: k is 2.5, not a JSON integer"),
        (lambda doc: doc["base_spec"].update(k="12"),
         "base_spec: k is '12', not a JSON integer"),
        (lambda doc: doc["base_spec"].update(max_depth=True),
         "base_spec: max_depth is True, not a JSON integer"),
        (lambda doc: doc["base_spec"].update(family="boosted-oracle"),
         "base_spec: .*boosted-oracle"),
        (lambda doc: doc.update(num_classes="4"),
         "num_classes is '4', not a JSON integer"),
        (lambda doc: doc.update(class_ids=[1, 2, "3", 4]),
         "a class id is '3', not a JSON integer"),
        # each of these loaded, or failed with exit 4
        (lambda doc: doc["feature_names"].__setitem__(1, 7),
         "a feature name is 7, not a JSON string"),
        (lambda doc: doc["class_ids"].__setitem__(3, 10 ** 30),
         "class_ids beyond int64"),
        (lambda doc: doc["metadata"].update(dataset_digest=5),
         "metadata: dataset_digest is 5, not a JSON string"),
        (lambda doc: doc["rounds"][0].update(alpha=10 ** 400),
         "round 1: OverflowError: int too large to convert to float"),
    ],
    ids=["rounds-int", "round-int", "model-list", "alpha-str", "alpha-null",
         "epsilon-list", "k-float", "k-str", "depth-bool", "family",
         "num-classes-str", "class-id-str", "feature-name-int",
         "class-id-beyond-int64", "digest-int", "alpha-beyond-doubles"],
)
def test_wrong_value_types_rejected(tmp_path, edit, message):
    path = _naive_bayes_file(tmp_path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match=message):
        load_model(path)


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda spec: spec.update(k=0), "k must be >= 1"),
        (lambda spec: spec.update(trees=-4), "trees must be >= 1"),
        (lambda spec: spec.update(ridge=-1.0), "ridge must be >= 0"),
        (lambda spec: spec.update(min_leaf_weight=float("nan")),
         "min_leaf_weight must be finite"),
        (lambda spec: spec.update(subset_size=4),
         "subset_size exceeds the 3 features"),
        # float() of the integer raised OverflowError (exit 4)
        (lambda spec: spec.update(ridge=10 ** 400), "OverflowError|too large"),
    ],
    ids=["k-zero", "trees-negative", "ridge-negative", "min-leaf-weight-nan",
         "subset-above-features", "ridge-overflow"],
)
def test_base_spec_out_of_range_rejected(tmp_path, edit, message):
    # each of these loaded, and predict exited 0
    path = _naive_bayes_file(tmp_path)
    doc = json.loads(path.read_text())
    edit(doc["base_spec"])
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match=f"base_spec: .*({message})"):
        load_model(path)


def test_empty_rounds_rejected(tmp_path):
    # this loaded, then predict raised IndexError (exit 4)
    path = _naive_bayes_file(tmp_path)
    doc = json.loads(path.read_text())
    doc["rounds"] = []
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="rounds is empty"):
        load_model(path)


@pytest.mark.parametrize("family,base_family,message", [
    (Family.KNN, "lda", "round 1: a 'knn' model, but base_spec 'lda' fits "
                        "'lda' models"),
    (Family.DECISION_TREE, "decision-stump",
     "round 1: a 'tree' model, but base_spec 'decision-stump' fits 'stump'"),
    (Family.LINEAR_REGRESSION_OVR, "vector-linear-regression",
     "round 1: a 'linear-regression' model, but base_spec "
     "'vector-linear-regression'"),
    (Family.NAIVE_BAYES, None,
     "round 1: a 'constant' model, but base_spec 'naive-bayes' fits "
     "'naive-bayes' models"),
], ids=["knn-as-lda", "tree-as-stump", "linreg-as-vector",
        "constant-as-naive-bayes"])
def test_round_family_must_match_base_spec(tmp_path, family, base_family,
                                           message):
    # each of these loaded, and predict exited 0; a constant round once
    # loaded when its label was a class
    path = _family_file(tmp_path, family)
    doc = json.loads(path.read_text())
    if base_family is None:
        doc["rounds"][0]["model"] = {"family": "constant", "label": 5,
                                     "class_ids": [1, 2, 3, 4]}
    else:
        doc["base_spec"]["family"] = base_family
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match=message):
        load_model(path)


def _family_file(tmp_path, family, **kwargs):
    """A saved two-round model of 4 classes and 3 features."""
    ds = make_activity_dataset(60, 4, 3, seed=37, spread=0.5)
    ens = boost_fit(LearnerSpec(family, **kwargs), ds, rounds=2, seed=0)
    path = tmp_path / "m.json"
    save_model(path, ens, ds)
    return path


def _drop_last(rows):
    return [row[:-1] for row in rows]


# each of these loaded; predict then exited 2 on a broadcast error, or
# exited 0 with wrong labels (a linear-regression class column dropped)
@pytest.mark.parametrize(
    "family,edit,message",
    [
        (Family.NAIVE_BAYES, lambda m: m.update(means=_drop_last(m["means"])),
         r"means has shape \(4, 2\), expected \(4, 3\)"),
        (Family.NAIVE_BAYES, lambda m: m.update(variances=m["variances"][:3]),
         r"variances has shape \(3, 3\), expected \(4, 3\)"),
        (Family.NAIVE_BAYES, lambda m: m.update(priors=[0.5, 0.5, 0.0, 0.0]),
         "priors holds 0.0, expected finite values above 0"),
        (Family.KERNEL_NAIVE_BAYES,
         lambda m: m.update(bandwidths=_drop_last(m["bandwidths"])),
         r"bandwidths has shape \(4, 2\), expected \(4, 3\)"),
        (Family.KERNEL_NAIVE_BAYES,
         lambda m: m["bandwidths"][2].__setitem__(1, 0.0),
         "bandwidths holds 0.0, expected finite values above 0"),
        (Family.KERNEL_NAIVE_BAYES,
         lambda m: m["bandwidths"][0].__setitem__(0, -0.25),
         "bandwidths holds -0.25, expected finite values above 0"),
        (Family.KERNEL_NAIVE_BAYES,
         lambda m: m["bandwidths"][3].__setitem__(2, float("inf")),
         "bandwidths holds inf, expected finite values above 0"),
        (Family.KERNEL_NAIVE_BAYES,
         lambda m: m["sample_weights"][1].pop(),
         r"sample_weights\[1\] has shape \(\d+,\), expected \(\d+,\)"),
        (Family.KERNEL_NAIVE_BAYES,
         lambda m: m["samples"].__setitem__(0, _drop_last(m["samples"][0])),
         r"samples\[0\] has shape \(\d+, 2\), expected \(\d+, 3\)"),
        (Family.KERNEL_NAIVE_BAYES,
         lambda m: m["samples"].__setitem__(2, []),
         r"samples\[2\] has shape \(0,\), expected \(rows >= 1, 3\)"),
        (Family.KERNEL_NAIVE_BAYES, lambda m: m["samples"].pop(),
         "3 samples for 4 class_ids"),
        (Family.KERNEL_NAIVE_BAYES, lambda m: m["sample_weights"].pop(),
         "3 sample_weights for 4 class_ids"),
        (Family.KERNEL_NAIVE_BAYES,
         lambda m: m["sample_weights"][2].__setitem__(0, -0.5),
         r"sample_weights\[2\] holds -0.5, expected values >= 0"),
        (Family.LINEAR_REGRESSION_OVR,
         lambda m: m.update(coef=_drop_last(m["coef"])),
         r"coef has shape \(4, 3\), expected \(4, 4\)"),
        (Family.LINEAR_REGRESSION_OVR, lambda m: m.update(coef=m["coef"][:3]),
         r"coef has shape \(3, 4\), expected \(4, 4\)"),
        (Family.VECTOR_LINEAR_REGRESSION,
         lambda m: m["coef"][1].__setitem__(0, "1.5"), "coef is not numeric"),
        (Family.LDA, lambda m: m.update(coef=m["coef"][:2]),
         r"coef has shape \(2, 4\), expected \(3, 4\)"),
        (Family.LDA, lambda m: m.update(intercept=m["intercept"][:3]),
         r"intercept has shape \(3,\), expected \(4,\)"),
        (Family.QDA, lambda m: m["factors"].__setitem__(1, [[1.0]]),
         r"factors\[1\] has shape \(1, 1\), expected \(3, 3\)"),
        (Family.QDA, lambda m: m.update(log_dets=[0.0, float("nan"), 0, 0]),
         "log_dets holds nan, expected finite values"),
        (Family.QDA, lambda m: m["factors"][2][1].__setitem__(1, 0.0),
         r"factors\[2\] diagonal holds 0.0, expected finite values above 0"),
        (Family.KNN, lambda m: m.update(rows=_drop_last(m["rows"])),
         r"rows has shape \(60, 2\), expected \(60, 3\)"),
        (Family.KNN, lambda m: m.update(rows=m["rows"][:3], k=4,
                                        labels=m["labels"][:3],
                                        weights=m["weights"][:3]),
         "3 labels and k=4 for 3 stored rows"),
        (Family.KNN, lambda m: m["labels"].__setitem__(0, 12),
         "a row label is not among class_ids"),
        (Family.KNN, lambda m: m.update(weights=list(map(str, m["weights"]))),
         "weights is not numeric"),
        (Family.KNN, lambda m: m.update(labels=list(map(str, m["labels"]))),
         "a row label is not among class_ids"),
        (Family.KNN, lambda m: m["labels"].__setitem__(0, 1.5),
         "a row label is not among class_ids"),
        (Family.KNN, lambda m: m.update(
            rows=[list(map(str, row)) for row in m["rows"]]),
         "rows is not numeric"),
        (Family.NAIVE_BAYES, lambda m: m.update(class_ids=[1, 2, 3, 9]),
         r"model class_ids \[1, 2, 3, 9\] are not among the file's"),
    ],
    ids=["nb-means-column", "nb-variances-row", "nb-zero-prior",
         "knb-bandwidths-column", "knb-zero-bandwidth",
         "knb-negative-bandwidth", "knb-inf-bandwidth",
         "knb-sample-weights-short", "knb-samples-column",
         "knb-samples-empty", "knb-samples-class", "knb-weights-class",
         "knb-negative-sample-weight",
         "linreg-class-column", "linreg-feature-row", "vlinreg-str",
         "lda-coef-row", "lda-intercept", "qda-factor", "qda-nan-log-det",
         "qda-zero-pivot",
         "knn-rows-column", "knn-k-above-rows", "knn-label",
         "knn-weights-str", "knn-labels-str", "knn-label-fraction",
         "knn-rows-str", "foreign-class-ids"],
)
def test_malformed_array_payload_rejected(tmp_path, family, edit, message):
    path = _family_file(tmp_path, family, k=4)
    doc = json.loads(path.read_text())
    model = doc["rounds"][0]["model"]
    if family is Family.KNN:  # edit the rows where the file keeps them
        doc["rounds"] = doc["rounds"][:1]
        model["rows"] = doc["shared_knn_rows"]
        edit(model)
        doc["shared_knn_rows"], model["rows"] = model["rows"], "shared"
    else:
        edit(model)
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match=f"round 1: {message}"):
        load_model(path)


def test_seeds_beyond_int64_load(tmp_path):
    # seeds are taken modulo 2**64, and train writes the seed it was given
    ds = make_activity_dataset(40, 3, 2, seed=36)
    spec = LearnerSpec(Family.RANDOM_TREE, max_depth=2 ** 70, seed=2 ** 64 + 3)
    path = tmp_path / "m.json"
    save_model(path, boost_fit(spec, ds, rounds=2, seed=-(2 ** 65)), ds)
    loaded = load_model(path).ensemble
    assert (loaded.base_spec, loaded.seed) == (spec, -(2 ** 65))


def test_save_is_byte_deterministic(tmp_path):
    ds = make_activity_dataset(40, 3, 2, seed=36)
    spec = LearnerSpec(Family.RANDOM_FOREST, trees=3, max_depth=3, seed=1)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_model(a, boost_fit(spec, ds, rounds=2, seed=5), ds)
    save_model(b, boost_fit(spec, ds, rounds=2, seed=5), ds)
    assert a.read_bytes() == b.read_bytes()


def _stub_tree_file(tmp_path, root, family=Family.DECISION_TREE):
    """A saved one-round tree model whose root is replaced by `root`."""
    ds = make_activity_dataset(40, 3, 2, seed=37, spread=0.4)
    ens = boost_fit(LearnerSpec(family, max_depth=2, trees=2), ds, rounds=1,
                    seed=0)
    path = tmp_path / "m.json"
    save_model(path, ens, ds)
    doc = json.loads(path.read_text())
    model = doc["rounds"][0]["model"]
    for tree in model.get("trees", [model]):
        tree["root"] = root
    path.write_text(json.dumps(doc))
    return path


def _split(feature, thresholds, labels):
    return {"feature": feature, "thresholds": thresholds,
            "children": [{"leaf": c} for c in labels]}


@pytest.mark.parametrize(
    "root,message",
    [
        (_split(0, [0.0, 0.5], [1, 2]), "need 3 children, found 2"),
        (_split(0, [0.0], [1, 2, 3]), "need 2 children, found 3"),
        (_split(0, [0.5, 0.0], [1, 2, 3]), "strictly increasing"),
        (_split(0, [0.0, 0.0], [1, 2, 3]), "strictly increasing"),
        (_split(0, [float("nan")], [1, 2]), "not finite"),
        (_split(0, [float("inf")], [1, 2]), "not finite"),
        (_split(-1, [0.0], [1, 2]), "feature -1 is negative"),
        (_split(2, [0.0], [1, 2]), "tests feature 2, but the model has 2"),
        (_split(0, [0.0], [1, 7]), "leaf label 7 is not among class_ids"),
        ({"leaf": 9}, "leaf label 9 is not among class_ids"),
    ],
)
@pytest.mark.parametrize("family", [Family.DECISION_TREE, Family.RANDOM_FOREST])
def test_malformed_tree_payload_rejected(tmp_path, family, root, message):
    path = _stub_tree_file(tmp_path, root, family)
    with pytest.raises(ModelFormatError, match=f"round 1: .*{message}"):
        load_model(path)


def test_forest_split_beyond_features_names_the_largest(tmp_path):
    # the first tree's offending feature is not the one reported
    path = _stub_tree_file(tmp_path, {"leaf": 1}, Family.RANDOM_FOREST)
    doc = json.loads(path.read_text())
    first, second = doc["rounds"][0]["model"]["trees"]
    first["root"] = _split(5, [0.0], [1, 2])
    second["root"] = _split(9, [0.0], [1, 2])
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError,
                       match="round 1: a split tests feature 9, but the "
                             "model has 2 features"):
        load_model(path)


def test_forest_tree_classes_must_be_forest_classes(tmp_path):
    path = _stub_tree_file(tmp_path, {"leaf": 1}, Family.RANDOM_FOREST)
    doc = json.loads(path.read_text())
    tree = doc["rounds"][0]["model"]["trees"][0]
    tree["class_ids"] = [1, 5]
    tree["root"] = {"leaf": 5}
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="outside the forest's"):
        load_model(path)


@pytest.mark.parametrize("tree", [
    {"family": "forest", "class_ids": [1, 2], "trees": []},
    {"family": "multiway", "class_ids": [1, 2], "root": {"leaf": 1}},
], ids=["nested-forest", "multiway"])
def test_forest_trees_must_be_random_trees(tmp_path, tree):
    # a nested forest exited 4 on its missing split features; a multiway
    # tree loaded
    path = _stub_tree_file(tmp_path, {"leaf": 1}, Family.RANDOM_FOREST)
    doc = json.loads(path.read_text())
    doc["rounds"][0]["model"]["trees"][0] = tree
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError,
                       match="round 1: .*a forest tree is not a 'random'"):
        load_model(path)


def test_well_formed_stub_tree_loads(tmp_path):
    path = _stub_tree_file(tmp_path, _split(1, [-0.5, 0.5], [1, 2, 3]))
    model = load_model(path).ensemble.rounds[0].model
    queries = np.array([[0.0, -0.9], [0.0, 0.0], [0.0, 0.5], [0.0, 0.9]])
    assert model.predict_batch(queries).tolist() == [1, 2, 2, 3]


#: HAPT Train class proportions scaled to 600 rows, each class floored
#: at 5 rows.
HAPT_600 = (94, 82, 76, 99, 109, 109, 5, 5, 5, 5, 6, 5)

#: SHA-256 of the model file of a boosted fit of each class-conditional
#: family: any change to its statistics, even in the last bit of one
#: mean, changes the file.
GOLDEN_MODEL_FILES = {
    Family.NAIVE_BAYES:
        "5034cc7b7e05e5d0fef3a80787eb5adb74738abd4d75259894e4121567f4ae73",
    Family.KERNEL_NAIVE_BAYES:
        "d3cd7d54c22ca854b70ae25ff49256af8508f6213c41721aa74fb6900e3138ba",
    Family.LDA:
        "07de34abcf666dbf386f103a7104430e3735232de0777a5ab13fea0ec413b018",
    Family.QDA:
        "6c19acd7bb12759490e4cc32444bbf83f5c14992105920e5416d0d4e6590296f",
}


@pytest.mark.parametrize("family", list(GOLDEN_MODEL_FILES))
def test_class_conditional_model_files_are_pinned(tmp_path, family):
    ds = make_activity_dataset(600, seed=24, spread=0.5, class_counts=HAPT_600)
    ens = boost_fit(LearnerSpec(family), ds, rounds=5, seed=7)
    assert len(ens.rounds) == 5
    path = tmp_path / "m.json"
    save_model(path, ens, ds)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN_MODEL_FILES[family]
