import hashlib

import numpy as np
import pytest

import oracles
from harboost.dataset import Dataset
from harboost.learners import Family, LearnerSpec, bayes, fit
from harboost.numerics import LIKELIHOOD_FLOOR
from harboost.synthetic import make_activity_dataset


def test_single_class_prior_is_one():
    ds = Dataset(np.random.default_rng(0).uniform(-1, 1, (8, 2)),
                 np.full(8, 4), ("a", "b"))
    m = fit(LearnerSpec(Family.NAIVE_BAYES), ds)
    assert m.priors.tolist() == [1.0]
    assert m.class_ids.tolist() == [4]


def test_symmetric_means_boundary_at_zero():
    feats = np.concatenate([
        np.full(50, -1.0) + 0.1 * np.sin(np.arange(50)),
        np.full(50, 1.0) + 0.1 * np.sin(np.arange(50)),
    ])[:, None] / 2.0
    labels = np.array([1] * 50 + [2] * 50)
    ds = Dataset(feats, labels, ("f",))
    m = fit(LearnerSpec(Family.NAIVE_BAYES), ds)
    assert int(m.predict_batch(np.array([[-0.01]]))[0]) == 1
    assert int(m.predict_batch(np.array([[0.01]]))[0]) == 2


def test_prior_dominates_identical_likelihoods():
    # same feature distribution in both classes, 9:1 prior
    vals = np.tile(np.linspace(-0.5, 0.5, 10), 10)[:, None]
    labels = np.array([1] * 90 + [2] * 10)
    ds = Dataset(vals, labels, ("f",))
    w = np.ones(100)
    m = LearnerSpec(Family.NAIVE_BAYES).fit_weighted(ds, w)
    queries = np.linspace(-0.4, 0.4, 7)[:, None]
    assert (m.predict_batch(queries) == 1).all()


def test_variance_floor_keeps_constant_feature_finite():
    feats = np.column_stack([np.full(10, 0.25), np.linspace(-0.5, 0.5, 10)])
    labels = np.array([1] * 5 + [2] * 5)
    ds = Dataset(feats, labels, ("a", "b"))
    m = fit(LearnerSpec(Family.NAIVE_BAYES), ds)
    pred = m.predict_batch(np.array([[0.25, -0.3], [0.25, 0.3]]))
    assert pred.tolist() == [1, 2]


@pytest.mark.parametrize("seed", [0, 1])
def test_gaussian_nb_matches_posterior_oracle(seed, rng_queries):
    ds = make_activity_dataset(30, 2, 2, seed=seed, spread=0.4)
    g = np.random.default_rng(seed + 40)
    w = g.uniform(0.05, 1.0, ds.n_rows)
    m = LearnerSpec(Family.NAIVE_BAYES).fit_weighted(ds, w)
    queries = rng_queries(120, 2, seed=seed + 90)
    got = m.predict_batch(queries).tolist()
    want = [
        oracles.gaussian_nb_predict(q, ds.features, ds.labels, w)
        for q in queries
    ]
    assert got == want


@pytest.mark.parametrize("seed", [2, 3])
def test_kernel_nb_matches_kde_oracle(seed, rng_queries):
    ds = make_activity_dataset(40, 3, 2, seed=seed, spread=0.35)
    g = np.random.default_rng(seed + 41)
    w = g.uniform(0.05, 1.0, ds.n_rows)
    m = LearnerSpec(Family.KERNEL_NAIVE_BAYES).fit_weighted(ds, w)
    queries = rng_queries(120, 2, seed=seed + 91)
    got = m.predict_batch(queries).tolist()
    want = [
        oracles.kernel_nb_predict(q, ds.features, ds.labels, w)
        for q in queries
    ]
    assert got == want


def test_kernel_nb_bandwidths_floored():
    feats = np.column_stack([np.full(12, -0.5), np.linspace(-0.9, 0.9, 12)])
    labels = np.array([1] * 6 + [2] * 6)
    ds = Dataset(feats, labels, ("a", "b"))
    m = fit(LearnerSpec(Family.KERNEL_NAIVE_BAYES), ds)
    assert (m.bandwidths >= 1e-3).all()
    assert np.isfinite(
        m.predict_batch(np.array([[-0.5, 0.0]])).astype(float)
    ).all()


# Kernel-NB scores are pinned to the bit: the blocked, in-place scoring
# must give what the plain per-class expression gave. Recorded with
# numpy 2.4 on x86-64; exp and log may round differently elsewhere.
GOLDEN_KERNEL_NB = {
    "predictions":
        "f102eb7742a334a47259fd8f258b6267a0f270256920a615829178d4b128645a",
    "log_scores":
        "1ae7e8c570ce8e4f81de010baa836c0d23c7ffc22d2f357c5a28c43f4ff18767",
}


def _kernel_nb_task():
    """A kernel-NB fit and 701 queries that stress the blocked scoring:
    a class with a single row, features on scales 1e-3 to 1e3, values
    rounded so zeros of both signs occur, and cubed weights."""
    g = np.random.default_rng(2024)
    labels = np.repeat([1, 2, 3, 4], [1, 140, 90, 60])
    scale = np.array([1.0, 1e-3, 1.0, 1e3, 1.0])

    def draw(lab):
        centers = 0.4 * np.column_stack([lab, -lab, lab % 2, lab, 2 - lab])
        return np.round(centers + g.normal(0, 1, (len(lab), 5)), 1) * scale

    ds = Dataset(draw(labels), labels, tuple("abcde"))
    w = g.uniform(0, 1, ds.n_rows) ** 3
    model = LearnerSpec(Family.KERNEL_NAIVE_BAYES).fit_weighted(ds, w)
    queries = np.concatenate([
        draw(g.integers(1, 5, 660)),
        ds.features[::8],  # queries on stored samples
        np.zeros((2, 5)),
        -np.zeros((2, 5)),
    ])
    return model, queries


def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def test_kernel_nb_golden_outputs():
    model, queries = _kernel_nb_task()
    assert [len(s) for s in model.samples] == [1, 140, 90, 60]
    block = bayes._BLOCK_CELLS // (140 * 5)
    assert len(queries) > max(block, 256)  # many blocks, old and new
    got = {
        "predictions": _digest(model.predict_batch(queries)),
        "log_scores": _digest(model.log_scores(queries)),
    }
    assert got == GOLDEN_KERNEL_NB


@pytest.mark.parametrize("rows", [1, 63, 64, 65, 257])
def test_kernel_nb_scores_do_not_depend_on_the_block(rows):
    model, queries = _kernel_nb_task()
    whole = model.log_scores(queries)
    parts = [model.log_scores(queries[i:i + rows])
             for i in range(0, len(queries), rows)]
    assert np.concatenate(parts).tobytes() == whole.tobytes()
    assert (np.concatenate([model.predict_batch(queries[i:i + rows])
                            for i in range(0, len(queries), rows)])
            == model.predict_batch(queries)).all()


def _plain_log_scores(m, X):
    """Kernel-NB scores by the plain per-class expression, all queries at
    once: the reference the blocked scoring must match to the bit."""
    scores = np.empty((X.shape[0], len(m.class_ids)))
    for c in range(len(m.class_ids)):
        h = m.bandwidths[c]
        z = (X[:, None, :] - m.samples[c][None, :, :]) / h
        dens = np.einsum(
            "qnd,n->qd", np.exp(-0.5 * z * z), m.sample_weights[c]
        ) / (h * np.sqrt(2.0 * np.pi))
        scores[:, c] = np.log(m.priors[c]) + np.log(
            np.maximum(dens, LIKELIHOOD_FLOOR)
        ).sum(axis=1)
    return scores


@pytest.mark.parametrize("seed", range(6))
def test_kernel_nb_scores_match_plain_expression(seed):
    g = np.random.default_rng(seed + 300)
    n, d = int(g.integers(1, 400)), int(g.choice([1, 2, 15]))
    scale = float(g.choice([1e-3, 1.0, 50.0]))
    ds = Dataset(np.round(g.normal(0, scale, (n, d)), 1),
                 g.integers(1, int(g.integers(1, 13)) + 1, n),
                 tuple(f"f{i}" for i in range(d)))
    m = LearnerSpec(Family.KERNEL_NAIVE_BAYES).fit_weighted(
        ds, g.uniform(0, 1, n) ** 3 + 1e-9
    )
    queries = g.normal(0, 2 * scale, (int(g.integers(1, 300)), d))
    want = _plain_log_scores(m, queries)
    assert m.log_scores(queries).tobytes() == want.tobytes()
