import json

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
    save_model(path, ens, ds.feature_names, dataset_digest(ds), ds.n_rows)
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
    save_model(path, ens, ds.feature_names, dataset_digest(ds), ds.n_rows)
    doc = json.loads(path.read_text())
    assert doc["shared_knn_rows"] is not None
    for r in doc["rounds"]:
        assert r["model"]["rows"] == "shared"
    # reload re-shares one read-only array across rounds
    loaded = load_model(path)
    models = [r.model for r in loaded.ensemble.rounds]
    assert all(m.rows is models[0].rows for m in models)
    assert not models[0].rows.flags.writeable


def test_version_mismatch_is_hard_error(tmp_path):
    ds = make_activity_dataset(30, 3, 2, seed=35)
    ens = boost_fit(LearnerSpec(Family.NAIVE_BAYES), ds, rounds=1, seed=0)
    path = tmp_path / "m.json"
    save_model(path, ens, ds.feature_names, dataset_digest(ds), ds.n_rows)
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
    with pytest.raises(FileNotFoundError):
        load_model(tmp_path / "absent.json")


def _naive_bayes_file(tmp_path):
    ds = make_activity_dataset(60, 4, 3, seed=37, spread=0.5)
    ens = boost_fit(LearnerSpec(Family.NAIVE_BAYES), ds, rounds=2, seed=0)
    path = tmp_path / "m.json"
    save_model(path, ens, ds.feature_names, dataset_digest(ds), ds.n_rows)
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
    ],
    ids=["rounds-int", "round-int", "model-list", "alpha-str", "alpha-null",
         "epsilon-list", "k-float", "k-str", "depth-bool", "family",
         "num-classes-str", "class-id-str"],
)
def test_wrong_value_types_rejected(tmp_path, edit, message):
    path = _naive_bayes_file(tmp_path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match=message):
        load_model(path)


def _family_file(tmp_path, family, **kwargs):
    """A saved two-round model of 4 classes and 3 features."""
    ds = make_activity_dataset(60, 4, 3, seed=37, spread=0.5)
    ens = boost_fit(LearnerSpec(family, **kwargs), ds, rounds=2, seed=0)
    path = tmp_path / "m.json"
    save_model(path, ens, ds.feature_names, dataset_digest(ds), ds.n_rows)
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
        (Family.NAIVE_BAYES, lambda m: m.update(class_ids=[1, 2, 3, 9]),
         r"model class_ids \[1, 2, 3, 9\] are not among the file's"),
    ],
    ids=["nb-means-column", "nb-variances-row", "nb-zero-prior",
         "knb-bandwidths-column", "knb-zero-bandwidth",
         "knb-negative-bandwidth", "knb-inf-bandwidth",
         "knb-sample-weights-short", "knb-samples-column",
         "knb-samples-empty", "knb-samples-class", "knb-weights-class",
         "linreg-class-column", "linreg-feature-row", "vlinreg-str",
         "lda-coef-row", "lda-intercept", "qda-factor", "qda-nan-log-det",
         "qda-zero-pivot",
         "knn-rows-column", "knn-k-above-rows", "knn-label",
         "foreign-class-ids"],
)
def test_malformed_array_payload_rejected(tmp_path, family, edit, message):
    path = _family_file(tmp_path, family, k=4)
    doc = json.loads(path.read_text())
    if family is Family.KNN:  # edit the round's own copy of the rows
        doc["rounds"][0]["model"]["rows"] = doc.pop("shared_knn_rows")
        doc["shared_knn_rows"] = None
        doc["rounds"] = doc["rounds"][:1]
    edit(doc["rounds"][0]["model"])
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match=f"round 1: {message}"):
        load_model(path)


def test_constant_label_must_be_a_class(tmp_path):
    path = _naive_bayes_file(tmp_path)
    doc = json.loads(path.read_text())
    doc["rounds"][0]["model"] = {"family": "constant", "label": 5,
                                 "class_ids": [1, 2, 3, 4]}
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="label 5 is not among"):
        load_model(path)


def test_save_is_byte_deterministic(tmp_path):
    ds = make_activity_dataset(40, 3, 2, seed=36)
    spec = LearnerSpec(Family.RANDOM_FOREST, trees=3, max_depth=3, seed=1)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_model(a, boost_fit(spec, ds, rounds=2, seed=5), ds.feature_names,
               dataset_digest(ds), ds.n_rows)
    save_model(b, boost_fit(spec, ds, rounds=2, seed=5), ds.feature_names,
               dataset_digest(ds), ds.n_rows)
    assert a.read_bytes() == b.read_bytes()


def _stub_tree_file(tmp_path, root, family=Family.DECISION_TREE):
    """A saved one-round tree model whose root is replaced by `root`."""
    ds = make_activity_dataset(40, 3, 2, seed=37, spread=0.4)
    ens = boost_fit(LearnerSpec(family, max_depth=2, trees=2), ds, rounds=1,
                    seed=0)
    path = tmp_path / "m.json"
    save_model(path, ens, ds.feature_names, dataset_digest(ds), ds.n_rows)
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


def test_forest_tree_classes_must_be_forest_classes(tmp_path):
    path = _stub_tree_file(tmp_path, {"leaf": 1}, Family.RANDOM_FOREST)
    doc = json.loads(path.read_text())
    tree = doc["rounds"][0]["model"]["trees"][0]
    tree["class_ids"] = [1, 5]
    tree["root"] = {"leaf": 5}
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="outside the forest's"):
        load_model(path)


def test_well_formed_stub_tree_loads(tmp_path):
    path = _stub_tree_file(tmp_path, _split(1, [-0.5, 0.5], [1, 2, 3]))
    model = load_model(path).ensemble.rounds[0].model
    queries = np.array([[0.0, -0.9], [0.0, 0.0], [0.0, 0.5], [0.0, 0.9]])
    assert model.predict_batch(queries).tolist() == [1, 2, 2, 3]
