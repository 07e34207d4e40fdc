import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracles
from harboost import cli
from harboost.boosting import boost_fit, boost_predict_batch
from harboost.dataset import Dataset, FoldAssignment, save_csv, stratified_folds
from harboost.evaluation import cross_validate
from harboost.learners import Family, LearnerSpec, fit, fold_scope, knn, predict
from harboost.learners.knn import (
    neighbor_table, table_for, vote_cells, vote_scores,
)
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


def _check_against_oracle(rows, queries, ks):
    # each row nearest first, as votes add their weights in table order;
    # in index order at k == n
    ranked = oracles.knn_neighbor_table(rows, queries, len(rows))
    for k in ks:
        want = np.sort(ranked, axis=1) if k == len(rows) else ranked[:, :k]
        got = neighbor_table(rows, queries, k)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), k


@pytest.mark.parametrize("n", [13, 1800, 2049])
@pytest.mark.parametrize("nq", [1, 2, 1023, 1024, 1025, 2049])
def test_neighbor_table_equals_blocked_oracle(n, nq):
    rows, queries = _tie_data(n, seed=n), _tie_data(nq, seed=n + nq)
    _check_against_oracle(rows, queries, (1, 12, n))


@pytest.mark.parametrize("n", [13, 1800])
def test_neighbor_table_on_stored_rows_equals_oracle(n):
    rows = _tie_data(n, seed=7 * n)
    _check_against_oracle(rows, rows, (1, 12))


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
    got = vote_scores(table, vote_cells(table, label_idx, n_classes),
                      weights, n_classes)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    reordered = oracles.knn_vote_scores(table[:, ::-1], label_idx, weights,
                                        n_classes)
    assert not np.array_equal(reordered, want)


def test_vote_scores_of_built_cells_equal_vote_scores():
    # one set of built cells votes every round's weights, bit for bit
    rng = np.random.default_rng(6)
    n, n_classes = 1800, 12
    rows, queries = _tie_data(n, seed=13), _tie_data(700, seed=14)
    table = neighbor_table(rows, queries, 12)
    label_idx = rng.integers(0, n_classes, n)
    cells = vote_cells(table, label_idx, n_classes)
    for _ in range(3):
        weights = 10.0 ** rng.uniform(-8.0, 0.0, n)
        want = oracles.knn_vote_scores(table, label_idx, weights, n_classes)
        got = vote_scores(table, cells, weights, n_classes)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_round_scorer_votes_through_one_set_of_cells(monkeypatch):
    # rounds over the same labels reuse round 1's vote cells; a model
    # whose class ids differ votes through its own, and every prediction
    # is the model's own predict_batch
    ds = make_activity_dataset(150, 4, 3, seed=23, spread=0.5)
    rng = np.random.default_rng(7)
    models = [spec(5).fit_weighted(ds, rng.uniform(0.01, 1.0, ds.n_rows))
              for _ in range(3)]
    models.append(dataclasses.replace(
        models[0], class_ids=np.append(models[0].class_ids, 12)))
    X = make_activity_dataset(40, 4, 3, seed=24, spread=0.5).features
    real, given_cells = knn.vote_scores, []

    def recorded(table, cells, weights, n_classes):
        given_cells.append(cells)
        return real(table, cells, weights, n_classes)

    monkeypatch.setattr(knn, "vote_scores", recorded)
    score = models[0].round_scorer(X)
    got = [score(m) for m in models]
    monkeypatch.undo()
    first, *rest, other = given_cells
    assert all(cells is first for cells in rest) and other is not first
    for m, pred in zip(models, got):
        assert np.array_equal(pred, m.predict_batch(X))


@pytest.mark.parametrize("k", [2, 7])
def test_stored_copies_rank_lowest_index_first(k):
    # 300 distinct rows, each stored 3 times at shuffled positions: a
    # query's row is its own copies, then the next nearest distinct rows'
    # copies, each lowest index first (a BLAS product once gave copies
    # distances a few bits apart: at this draw 2 rows at k = 2 and 6 at
    # k = 7 took other copies or another order)
    rng = np.random.default_rng(0)
    distinct = rng.normal(size=(300, 15))
    copy_of = rng.permutation(np.repeat(np.arange(300), 3))
    copies = np.argsort(copy_of, kind="stable").reshape(300, 3)
    nearest = oracles.knn_neighbor_table(distinct, distinct, 3)
    want = copies[nearest[copy_of]].reshape(900, 9)[:, :k]
    rows = distinct[copy_of]
    assert np.array_equal(neighbor_table(rows, rows, k), want)


@pytest.mark.parametrize("n", [203, 450])
def test_stored_rows_and_their_copy_give_one_table(n):
    # numpy multiplies a buffer by itself with syrk and by a copy with
    # gemm, whose products differ in their last bits; with every query in
    # one product, both sizes once gave other rows at k = 12
    rows = _tie_data(n, seed=n)
    for k in (1, 12):
        assert np.array_equal(neighbor_table(rows, rows, k),
                              neighbor_table(rows, rows.copy(), k)), k


@pytest.mark.parametrize("cells", [7, 2000])
def test_neighbor_table_does_not_depend_on_the_pass(monkeypatch, cells):
    # 1 and 9 queries a pass, against one pass of all 203 stored rows,
    # which numpy multiplies by themselves with syrk
    rows, queries = _tie_data(203, seed=5), _tie_data(300, seed=6)
    want = [neighbor_table(rows, q, k) for q in (rows, queries)
            for k in (1, 12)]
    monkeypatch.setattr(knn, "_PASS_CELLS", cells)
    got = [neighbor_table(rows, q, k) for q in (rows, queries)
           for k in (1, 12)]
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("scale, offset", [(1.0, 1e4), (1e160, 0.0)])
def test_neighbor_table_of_offset_rows_equals_oracle(scale, offset):
    # at 1e4 from the origin, q_sq - 2 q.r + r_sq cancels about 9 of its
    # 16 digits: the slack, not the estimates, must separate the rows; at
    # 1e160 the estimates overflow, and so do most distances, which then
    # tie at inf
    rows = _tie_data(300, seed=1) * scale + offset
    queries = _tie_data(90, seed=2) * scale + offset
    with np.errstate(over="ignore", invalid="ignore"):
        _check_against_oracle(rows, rows, (1, 12))
        _check_against_oracle(rows, queries, (1, 12))


@pytest.mark.parametrize("data", ["normal-1e-5", "normal-1", "normal-1e5",
                                  "integer-grid"])
def test_neighbor_table_equals_oracle_at_any_scale(data):
    # the estimates' product and the partition only choose candidates;
    # the table is the oracle's at every k, ties included
    rng = np.random.default_rng(len(data))
    if data == "integer-grid":
        rows = rng.integers(-2, 3, size=(150, 3)).astype(float)
        queries = rng.integers(-2, 3, size=(70, 3)).astype(float)
    else:
        scale = float(data.split("-", 1)[1])
        rows = rng.normal(size=(150, 7)) * scale
        queries = rng.normal(size=(70, 7)) * scale
    _check_against_oracle(rows, queries, (1, 5, 12, 149, 150))
    _check_against_oracle(rows, rows, (1, 5, 12, 149))


def test_neighbor_table_peak_memory_is_a_few_passes():
    # estimates are held one pass of _PASS_CELLS cells at a time, so the
    # peak does not grow with the queries; a whole (1800 x 1800) product
    # would take 25.9 MB
    rng = np.random.default_rng(3)
    rows, queries = rng.normal(size=(1800, 15)), rng.normal(size=(1800, 15))
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        table = neighbor_table(rows, queries, 12)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peak < 3 * knn._PASS_CELLS * 8 + table.nbytes, peak


def _counting_neighbor_table(monkeypatch):
    calls = []
    real = knn.neighbor_table

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(knn, "neighbor_table", counted)
    return calls


@pytest.mark.parametrize("folds", [2, 4])
def test_boosted_cv_builds_one_ranking_per_task(monkeypatch, folds):
    # one ranking of all rows serves every fold's training error and
    # vote in every round
    ds = make_activity_dataset(120, 4, 3, seed=21, spread=0.5)
    calls = _counting_neighbor_table(monkeypatch)
    cross_validate(spec(5), ds, folds=folds, rounds=4, seed=2)
    assert len(calls) == 1
    rows, queries, depth = calls[0]
    assert rows is ds.features and queries is ds.features
    assert depth == 2 * (5 + -(-5 // (folds - 1))) + 16


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


def _fold_tables(features, assignment, k):
    """(training features, test matrix, training table, test table) of
    every fold, the tables read inside the k-NN fold scope."""
    folds = range(assignment.k)
    train = [(features[assignment.train_rows(f)], assignment.train_rows(f))
             for f in folds]
    test = [(features[assignment.test_rows(f)], assignment.test_rows(f))
            for f in folds]
    with fold_scope(spec(k), features, assignment.k, train + test):
        return [(tr, te, table_for(tr, tr, k), table_for(tr, te, k))
                for (tr, _), (te, _) in zip(train, test)]


def _assert_direct(tables, k):
    for tr, te, train_table, test_table in tables:
        assert np.array_equal(train_table, neighbor_table(tr, tr, k))
        assert np.array_equal(test_table, neighbor_table(tr, te, k))


@pytest.mark.parametrize("ties", [True, False], ids=["ties", "no-ties"])
@pytest.mark.parametrize("folds", [2, 3, 10])
def test_fold_tables_equal_direct_tables(monkeypatch, folds, ties):
    # the ranking's products have 203 columns, a fold's training table's
    # fewer, and a BLAS may sum some columns in another order for another
    # shape (OpenBLAS's Haswell kernel does so for the last columns mod
    # 8): the tables of tied rows are read from the ranking all the same
    features = _tie_data(203, seed=folds) if ties else \
        np.random.default_rng(folds).normal(size=(203, 4))
    ds = Dataset(features, np.arange(203) % 3 + 1, ("a", "b", "c", "d"))
    assignment = stratified_folds(ds, folds, seed=1)
    n_train = min(assignment.train_rows(f).size for f in range(folds))
    for k in (1, 12, n_train - 1, n_train):
        calls = _counting_neighbor_table(monkeypatch)
        tables = _fold_tables(ds.features, assignment, k)
        if k <= 12:  # read from the ranking alone
            assert [args[0] for args in calls] == [ds.features]
        monkeypatch.undo()
        _assert_direct(tables, k)


def test_fold_tables_of_queries_short_of_neighbors(monkeypatch):
    # fold 0 is a far cluster of 40 rows: each of its queries ranks only
    # fold-0 rows first, so fold 0's test table is neighbor_table's own
    rng = np.random.default_rng(4)
    features = rng.normal(size=(100, 4))
    features[:40] += 100.0
    fold_of_row = np.concatenate([np.zeros(40), np.arange(60) % 9 + 1])
    assignment = FoldAssignment(fold_of_row, 10, 0)
    calls = _counting_neighbor_table(monkeypatch)
    tables = _fold_tables(features, assignment, 12)
    monkeypatch.undo()
    shapes = [(len(args[0]), len(args[1]), args[2]) for args in calls]
    assert shapes == [(100, 100, 44), (60, 40, 12)]  # 2 (12 + 2) + 16
    _assert_direct(tables, 12)


SUBPROCESS_MAIN = "import sys; from harboost.cli import main; " \
                  "sys.exit(main(sys.argv[1:]))"


def test_fold_scope_leaves_nothing_behind(monkeypatch, capsys, tmp_path):
    # after a k-NN CV, and one that raises inside the scope, a train and
    # predict on other data of the same shape give a fresh process's bytes
    ds = make_activity_dataset(120, 4, 3, seed=21, spread=0.5)
    cross_validate(spec(5), ds, folds=4, rounds=3, seed=2)
    real, calls = knn.vote_scores, []

    def failing(*args):
        calls.append(args)
        if len(calls) == 3:
            raise RuntimeError("mid-run")
        return real(*args)

    monkeypatch.setattr(knn, "vote_scores", failing)
    with pytest.raises(RuntimeError, match="mid-run"):
        cross_validate(spec(5), ds, folds=4, rounds=3, seed=2)
    monkeypatch.undo()
    assert knn._ranking.get() is None

    csv = tmp_path / "other.csv"
    save_csv(make_activity_dataset(120, 4, 3, seed=22, spread=0.5), csv)

    def train_predict(run, name):
        model = tmp_path / f"{name}.json"
        run(["train", "--from-csv", str(csv), "--learner", "knn", "--k", "5",
             "--rounds", "3", "--model-out", str(model)])
        out = run(["predict", "--model", str(model), "--from-csv", str(csv)])
        return model.read_bytes(), out

    def here(argv):
        assert cli.main(argv) == 0
        return capsys.readouterr().out.encode()

    def fresh(argv):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        return subprocess.run([sys.executable, "-c", SUBPROCESS_MAIN, *argv],
                              env=env, check=True, capture_output=True,
                              timeout=120).stdout

    assert train_predict(here, "here") == train_predict(fresh, "fresh")
