import json

import numpy as np
import pytest

from harboost.boosting import boost_fit, boost_predict_batch
from harboost.dataset import dataset_digest
from harboost.learners import Family, LearnerSpec
from harboost.modelfile import ModelFormatError, load_model, save_model
from harboost.synthetic import make_activity_dataset


@pytest.mark.parametrize(
    "family,kwargs",
    [
        (Family.KNN, {"k": 4}),
        (Family.DECISION_TREE, {"max_depth": 4}),
        (Family.MULTIWAY_TREE, {"max_depth": 3}),
        (Family.RANDOM_FOREST, {"trees": 3, "max_depth": 3, "seed": 2}),
        (Family.NAIVE_BAYES, {}),
        (Family.KERNEL_NAIVE_BAYES, {}),
        (Family.LDA, {}),
        (Family.QDA, {}),
        (Family.LINEAR_REGRESSION_OVR, {}),
    ],
)
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
