"""Fitting and boosting several folds at once equals fitting each alone.

`learners.fit_group` grows the trees of all the datasets given to it
through one grower (one per class set), and `boosting.boost_fit_folds`
runs the folds' SAMME loops in lockstep through it. Both must give, to
the byte, the payloads, vote weights and errors that per-fold
`fit_weighted` and `boost_fit` give. The folds here differ in row count
(a forest's minimum leaf mass scales with it), one lacks a class, and
the tasks have 12 classes, so a class axis shared across class sets
would change the pairwise order of the float mass sums.
"""

import json

import numpy as np
import pytest

from harboost.boosting import EPSILON_CLAMP, boost_fit, boost_fit_folds
from harboost.dataset import Dataset
from harboost.learners import (
    ConstantLearner, Family, LearnerSpec, fit_group, trees,
)
from harboost.synthetic import make_activity_dataset

TREE_FAMILIES = [Family.DECISION_STUMP, Family.DECISION_TREE,
                 Family.MULTIWAY_TREE, Family.RANDOM_TREE, Family.RANDOM_FOREST]


def payload(model) -> str:
    return json.dumps(model.to_payload(), sort_keys=True)


def rounded(ds, decimals=2):
    """ds with features rounded, so values and split scores tie."""
    return Dataset(np.round(ds.features, decimals), ds.labels, ds.feature_names)


@pytest.fixture(scope="module")
def folds():
    """Four training sets of one 12-class task: three of 200 to 260 rows
    holding every class, and one without class 7."""
    ds = rounded(make_activity_dataset(360, 12, 15, seed=3, spread=0.5))
    out = [ds.subset(np.arange(0, n)) for n in (260, 230, 200)]
    out.append(ds.subset(np.flatnonzero(ds.labels != 7)[:240]))
    assert all(len(d.class_counts()) == 12 for d in out[:3])
    assert len(out[3].class_counts()) == 11
    return out


def boosting_weights(ds, seed):
    w = np.random.default_rng(seed).uniform(0.5, 3.0, ds.n_rows)
    return w / w.sum()


@pytest.fixture(params=[None, 500, 100],
                ids=["one-grower", "growers-of-500-rows", "growers-of-100-rows"])
def grow_rows(request, monkeypatch):
    """Grow with the default grower size, with growers so small that the
    trees grown together split over several, and with growers smaller
    than one tree's rows, which then grows alone."""
    if request.param is not None:
        monkeypatch.setattr(trees, "_GROW_ROWS", request.param)


@pytest.mark.parametrize("family", TREE_FAMILIES, ids=lambda f: f.value)
def test_fit_group_equals_fits_alone(folds, family, grow_rows):
    # a forest's nodes stop at a multiplicity of at most 0.012 * n: 3.12
    # for the first fold, 2.4 to 2.88 for the others
    spec = LearnerSpec(family, max_depth=8, min_leaf_weight=0.012, trees=3,
                       seed=1)
    weights = [boosting_weights(ds, i) for i, ds in enumerate(folds)]
    seeds = [11, 12, 13, 14]
    together = fit_group(spec, folds, weights, seeds)
    for ds, w, seed, model in zip(folds, weights, seeds, together):
        assert payload(model) == payload(spec.fit_weighted(ds, w, seed=seed))


def test_fold_lacking_a_class_grows_on_its_own_class_axis():
    """Features of three or so values and weights from {0.1, 0.3, 0.7}
    give candidate splits of equal score whose float masses round
    differently on an 11- and a 12-class axis (seed found by search):
    growing the fold without class 7 on the other fold's axis picks a
    different split."""
    raw = make_activity_dataset(360, 12, 15, seed=2, spread=0.5)
    ds = rounded(raw, 0)
    folds = [ds.subset(np.arange(0, 260)),
             ds.subset(np.flatnonzero(ds.labels != 7)[:240])]
    weights = []
    for i, fold in enumerate(folds):
        w = np.random.default_rng(20 + i).choice([0.1, 0.3, 0.7], fold.n_rows)
        weights.append(w / w.sum())
    spec = LearnerSpec(Family.DECISION_TREE, max_depth=10)
    together = fit_group(spec, folds, weights, [0, 0])
    for fold, w, model in zip(folds, weights, together):
        assert payload(model) == payload(spec.fit_weighted(fold, w))


def test_fit_group_loops_over_other_learners(folds):
    for spec in (LearnerSpec(Family.NAIVE_BAYES), ConstantLearner()):
        weights = [boosting_weights(ds, i) for i, ds in enumerate(folds)]
        together = fit_group(spec, folds, weights, [0] * len(folds))
        for ds, w, model in zip(folds, weights, together):
            assert payload(model) == payload(spec.fit_weighted(ds, w))


def assert_same_ensembles(got, want):
    assert len(got.rounds) == len(want.rounds)
    assert np.array_equal(got.class_ids, want.class_ids)
    assert (got.num_classes, got.seed, got.rounds_requested) == \
        (want.num_classes, want.seed, want.rounds_requested)
    for a, b in zip(got.rounds, want.rounds):
        assert payload(a.model) == payload(b.model)
        assert (a.alpha, a.epsilon, a.weight_sum, a.min_weight) == \
            (b.alpha, b.epsilon, b.weight_sum, b.min_weight)


@pytest.fixture(scope="module")
def boost_folds(folds):
    """The folds plus one with well-separated classes, on which trees
    reach zero training error in round 1 and stop while others go on."""
    easy = make_activity_dataset(120, 12, 15, seed=4, spread=0.05)
    return folds + [easy]


@pytest.mark.parametrize("family", TREE_FAMILIES, ids=lambda f: f.value)
def test_boost_fit_folds_equals_boost_fit(boost_folds, family):
    spec = LearnerSpec(family, max_depth=6, trees=2, seed=2)
    seeds = [21, 22, 23, 24, 25]
    together = boost_fit_folds(spec, boost_folds, 3, seeds)
    for ds, seed, ens in zip(boost_folds, seeds, together):
        assert_same_ensembles(ens, boost_fit(spec, ds, rounds=3, seed=seed))
    if family is Family.DECISION_TREE:
        kept = [len(e.rounds) for e in together]
        assert kept[-1] == 1 and together[-1].rounds[0].epsilon == EPSILON_CLAMP
        assert max(kept) == 3


def test_boost_fit_folds_duck_typed_spec(boost_folds):
    seeds = list(range(len(boost_folds)))
    together = boost_fit_folds(ConstantLearner(), boost_folds, 2, seeds)
    for ds, seed, ens in zip(boost_folds, seeds, together):
        assert_same_ensembles(ens, boost_fit(ConstantLearner(), ds, 2, seed))


def test_boost_fit_folds_validates_every_fold(folds):
    single = Dataset(np.zeros((4, 15)), np.full(4, 3), folds[0].feature_names)
    spec = LearnerSpec(Family.DECISION_TREE)
    with pytest.raises(ValueError, match="classes"):
        boost_fit_folds(spec, [folds[0], single], 2, [0, 1])
    with pytest.raises(ValueError, match="rounds"):
        boost_fit_folds(spec, folds, 0, [0] * len(folds))
