import dataclasses
import tracemalloc

import numpy as np
import pytest

import oracles
from harboost.boosting import boost_fit, boost_predict_batch
from harboost.dataset import Dataset
from harboost.evaluation import cross_validate
from harboost.learners import Family, LearnerSpec, fit, knn, predict
from harboost.learners.knn import neighbor_table, vote_scores
from harboost.synthetic import make_activity_dataset


def spec(k):
    return LearnerSpec(Family.KNN, k=k)


def test_fit_stores_data_verbatim(blobs4):
    w = np.random.default_rng(0).uniform(0.1, 1.0, blobs4.n_rows)
    m = spec(3).fit_weighted(blobs4, w)
    np.testing.assert_array_equal(m.rows, blobs4.features)
    np.testing.assert_array_equal(m.labels, blobs4.labels)
    np.testing.assert_array_equal(m.weights, w)
    assert m.k == 3


def test_one_nn_recalls_stored_row(blobs4):
    m = fit(spec(1), blobs4)
    pred = m.predict_batch(blobs4.features)
    np.testing.assert_array_equal(pred, blobs4.labels)


def test_k_equals_n_is_global_majority():
    feats = np.array([[0.0], [0.1], [0.2], [0.9], [1.0]])
    labels = np.array([2, 2, 2, 7, 7])
    ds = Dataset(feats, labels, ("f",))
    m = fit(spec(5), ds)
    assert predict(m, [0.95]) == 2  # majority outvotes proximity at k = N


def test_weighted_vote_beats_count_majority():
    # 3 nearby class-1 rows with tiny weights vs 2 class-4 rows with
    # dominant weights: summed vote weight decides
    feats = np.array([[0.0], [0.01], [0.02], [0.03], [0.04]])
    labels = np.array([1, 1, 1, 4, 4])
    w = np.array([0.05, 0.05, 0.05, 0.5, 0.5])
    ds = Dataset(feats, labels, ("f",))
    m = spec(5).fit_weighted(ds, w)
    assert int(m.predict_batch(np.array([[0.0]]))[0]) == 4


def test_equidistant_tie_prefers_lower_row_index():
    feats = np.array([[1.0, 0.0], [-1.0, 0.0], [2.0, 2.0]])
    labels = np.array([3, 8, 8])
    ds = Dataset(feats, labels, ("f1", "f2"))
    m = fit(spec(1), ds)
    # query at the origin is exactly equidistant from rows 0 and 1
    assert int(m.predict_batch(np.array([[0.0, 0.0]]))[0]) == 3
    table = neighbor_table(m.rows, np.array([[0.0, 0.0]]), 1)
    assert table.tolist() == [[0]]


def test_neighbor_table_boundary_tie_membership():
    rows = np.array([[0.0], [1.0], [-1.0], [2.0]])
    table = neighbor_table(rows, np.array([[0.0]]), 2)
    # distances: 0, 1, 1, 2 -> the tie at distance 1 resolves to row 1
    assert sorted(table[0].tolist()) == [0, 1]


def test_vote_tie_prefers_lower_class_id():
    feats = np.array([[0.0], [1.0]])
    labels = np.array([9, 2])
    ds = Dataset(feats, labels, ("f",))
    m = fit(spec(2), ds)
    # both neighbors vote with equal weight: class 2 wins the tie
    assert int(m.predict_batch(np.array([[0.5]]))[0]) == 2


def test_dimension_mismatch_raises(blobs4):
    m = fit(spec(1), blobs4)
    with pytest.raises(ValueError, match="shape"):
        m.predict_batch(np.zeros((2, blobs4.n_features + 1)))
    with pytest.raises(ValueError, match="single feature vector"):
        predict(m, np.zeros((2, blobs4.n_features)))


def test_k_larger_than_n_rejected(blobs4):
    with pytest.raises(ValueError, match="exceeds"):
        fit(spec(blobs4.n_rows + 1), blobs4)


@pytest.mark.parametrize("k", [1, 3, 12])
def test_matches_bruteforce_oracle(k, rng_queries):
    ds = make_activity_dataset(50, 5, 3, seed=k, spread=0.3)
    w = np.random.default_rng(k).uniform(0.05, 1.0, ds.n_rows)
    m = spec(k).fit_weighted(ds, w)
    queries = rng_queries(80, 3, seed=100 + k)
    got = m.predict_batch(queries)
    want = [
        oracles.knn_predict(q, ds.features, ds.labels, w, k) for q in queries
    ]
    assert got.tolist() == want


def _tie_data(n, seed):
    # 4 features at one decimal: exact distance ties at the k-th
    # neighbor are common, so the boundary fix-up runs
    return np.round(np.random.default_rng(seed).normal(size=(n, 4)), 1)


def _boundary_ties(rows, queries, k):
    d2 = ((queries[:, None, :] - rows[None, :, :]) ** 2).sum(axis=2)
    kth = np.sort(d2, axis=1)[:, k - 1]
    return int(((d2 <= kth[:, None]).sum(axis=1) > k).sum())


@pytest.mark.parametrize("n", [13, 1800, 2049])
@pytest.mark.parametrize("nq", [1, 2, 1023, 1024, 1025, 2049])
def test_neighbor_table_equals_blocked_oracle(n, nq):
    # element for element, within-row order included: the vote adds
    # weights in table order (1025 queries leave a 1-row product tail)
    rows, queries = _tie_data(n, seed=n), _tie_data(nq, seed=n + nq)
    for k in (1, 12, n):
        want = oracles.knn_neighbor_table(rows, queries, k)
        got = neighbor_table(rows, queries, k)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), (n, nq, k)


@pytest.mark.parametrize("n", [13, 1800])
def test_neighbor_table_on_stored_rows_equals_oracle(n):
    rows = _tie_data(n, seed=7 * n)
    for k in (1, 12):
        assert np.array_equal(neighbor_table(rows, rows, k),
                              oracles.knn_neighbor_table(rows, rows, k))


def test_oracle_pin_data_has_boundary_ties():
    rows, queries = _tie_data(1800, seed=1800), _tie_data(1025, seed=2825)
    assert _boundary_ties(rows, queries[:300], 1) > 0
    assert _boundary_ties(rows, queries[:300], 12) > 0


def test_vote_scores_equal_add_at_oracle_in_table_order():
    rng = np.random.default_rng(5)
    n, n_classes = 1800, 12
    rows, queries = _tie_data(n, seed=11), _tie_data(1025, seed=12)
    table = neighbor_table(rows, queries, 12)
    label_idx = rng.integers(0, n_classes, n)
    # weights over eight decades: the sum's bits depend on its order
    weights = 10.0 ** rng.uniform(-8.0, 0.0, n)
    want = oracles.knn_vote_scores(table, label_idx, weights, n_classes)
    got = vote_scores(table, label_idx, weights, n_classes)
    assert np.array_equal(got, want)
    reordered = oracles.knn_vote_scores(table[:, ::-1], label_idx, weights,
                                        n_classes)
    assert not np.array_equal(reordered, want)


def test_neighbor_table_peak_memory_below_two_blocks():
    # one (1024 x 1800) float64 product per block, turned into distances
    # in place: whole-block temporaries would push the peak past 2 blocks
    rng = np.random.default_rng(3)
    rows, queries = rng.normal(size=(1800, 15)), rng.normal(size=(1800, 15))
    block_bytes = 1024 * 1800 * 8
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        neighbor_table(rows, queries, 12)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peak < 2 * block_bytes, peak / block_bytes


def _counting_neighbor_table(monkeypatch):
    calls = []
    real = knn.neighbor_table

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(knn, "neighbor_table", counted)
    return calls


@pytest.mark.parametrize("folds", [2, 4])
def test_boosted_cv_builds_two_tables_per_fold(monkeypatch, folds):
    # one table of a fold's training rows serves every round's training
    # error, one table of its test rows every round's vote
    ds = make_activity_dataset(120, 4, 3, seed=21, spread=0.5)
    calls = _counting_neighbor_table(monkeypatch)
    cross_validate(spec(5), ds, folds=folds, rounds=4, seed=2)
    assert len(calls) == 2 * folds


def test_rounds_not_sharing_rows_vote_through_their_own_predictions(
        monkeypatch):
    ds = make_activity_dataset(120, 4, 3, seed=21, spread=0.5)
    shared = boost_fit(spec(5), ds, rounds=4, seed=3)
    assert len(shared.rounds) >= 3
    # every round after the first gets its own copy of the stored rows,
    # and the last is a model of another family
    rounds = list(shared.rounds)
    for i in range(1, len(rounds)):
        m = rounds[i].model
        rounds[i] = dataclasses.replace(
            rounds[i], model=dataclasses.replace(m, rows=m.rows.copy()))
    rounds[-1] = dataclasses.replace(
        rounds[-1], model=fit(LearnerSpec(Family.NAIVE_BAYES), ds))
    ens = dataclasses.replace(shared, rounds=tuple(rounds))
    X = make_activity_dataset(60, 4, 3, seed=22, spread=0.5).features

    votes = np.zeros((X.shape[0], ens.num_classes))
    for r in ens.rounds:
        pred = r.model.predict_batch(X)
        votes[np.arange(X.shape[0]),
              np.searchsorted(ens.class_ids, pred)] += r.alpha
    calls = _counting_neighbor_table(monkeypatch)
    got = boost_predict_batch(ens, X)
    np.testing.assert_array_equal(got, ens.class_ids[votes.argmax(axis=1)])
    # round 1's table, then one per k-NN round holding its own rows
    assert len(calls) == len(rounds) - 1
