"""Invariants shared by every learner family."""

import json

import numpy as np
import pytest

from harboost.learners import ConstantLearner, Family, LearnerSpec
from harboost.synthetic import make_activity_dataset

ALL_FAMILIES = list(Family)

SMALL = dict(k=5, max_depth=4, trees=4, seed=17)


def small_spec(family):
    return LearnerSpec(family, **SMALL)


@pytest.fixture(scope="module")
def train():
    ds = make_activity_dataset(60, 4, 3, seed=100, spread=0.3)
    w = np.random.default_rng(101).uniform(0.05, 1.0, ds.n_rows)
    return ds, w


@pytest.fixture(scope="module")
def queries():
    return np.random.default_rng(102).uniform(-1, 1, size=(150, 3))


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_weight_scale_invariance(family, train, queries):
    ds, w = train
    spec = small_spec(family)
    base = spec.fit_weighted(ds, w).predict_batch(queries)
    for c in (0.25, 4.0, 1024.0):  # powers of two scale weights exactly
        scaled = spec.fit_weighted(ds, c * w).predict_batch(queries)
        np.testing.assert_array_equal(base, scaled)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_deterministic_serialized_models(family, train):
    ds, w = train
    spec = small_spec(family)
    a = json.dumps(spec.fit_weighted(ds, w).to_payload(), sort_keys=True)
    b = json.dumps(spec.fit_weighted(ds, w).to_payload(), sort_keys=True)
    assert a == b


NON_KNN_DETERMINISTIC = [
    f for f in ALL_FAMILIES
    if f not in (Family.KNN, Family.RANDOM_TREE, Family.RANDOM_FOREST)
]


@pytest.mark.parametrize("family", NON_KNN_DETERMINISTIC)
def test_permutation_covariance(family, train, queries):
    ds, w = train
    spec = small_spec(family)
    base = spec.fit_weighted(ds, w).predict_batch(queries)
    perm = np.random.default_rng(103).permutation(ds.n_rows)
    shuffled = ds.subset(perm)
    permuted = spec.fit_weighted(shuffled, w[perm]).predict_batch(queries)
    np.testing.assert_array_equal(base, permuted)


def test_knn_permutation_covariance_off_ties(train, queries):
    ds, w = train
    spec = small_spec(Family.KNN)
    base = spec.fit_weighted(ds, w).predict_batch(queries)
    perm = np.random.default_rng(104).permutation(ds.n_rows)
    permuted = spec.fit_weighted(ds.subset(perm), w[perm]).predict_batch(queries)
    # continuous features: no exact distance ties in this data
    np.testing.assert_array_equal(base, permuted)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_predictions_are_valid_labels(family, train, queries):
    ds, w = train
    pred = small_spec(family).fit_weighted(ds, w).predict_batch(queries)
    assert set(pred.tolist()) <= set(ds.labels.tolist())


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_empty_or_zero_weights_rejected(family, train):
    ds, _ = train
    spec = small_spec(family)
    with pytest.raises(ValueError):
        spec.fit_weighted(ds, np.zeros(ds.n_rows))
    with pytest.raises(ValueError):
        spec.fit_weighted(ds, np.ones(ds.n_rows - 1))


CLASS_CONDITIONAL = [Family.NAIVE_BAYES, Family.KERNEL_NAIVE_BAYES,
                     Family.LDA, Family.QDA]


@pytest.mark.parametrize("family", CLASS_CONDITIONAL)
def test_zero_mass_class_is_dropped(family, train, queries):
    # a class whose rows all carry weight 0 has no prior and no statistics,
    # so the model neither stores nor predicts it, even on its own rows
    ds, w = train
    w = np.where(ds.labels == 2, 0.0, w)
    m = small_spec(family).fit_weighted(ds, w)
    assert m.class_ids.tolist() == [1, 3, 4]
    assert m.priors.shape == (3,) and (m.priors > 0).all()
    assert np.isclose(m.priors.sum(), 1.0)
    both = np.concatenate([queries, ds.features[ds.labels == 2]])
    assert 2 not in m.predict_batch(both).tolist()


def test_spec_validation_collects_problems():
    spec = LearnerSpec(Family.KNN, k=0, bins=1, trees=0)
    with pytest.raises(ValueError) as err:
        spec.validate()
    msg = str(err.value)
    assert "k must be >= 1" in msg
    assert "bins must be >= 2" in msg
    assert "trees must be >= 1" in msg


def test_constant_learner_ignores_weights(train):
    ds, _ = train
    w = np.random.default_rng(105).uniform(0.01, 1.0, ds.n_rows)
    m = ConstantLearner().fit_weighted(ds, w)
    ids, counts = np.unique(ds.labels, return_counts=True)
    assert m.label == int(ids[counts.argmax()])
    assert (m.predict_batch(np.zeros((5, 3))) == m.label).all()
