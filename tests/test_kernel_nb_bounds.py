"""Kernel NB's bounded argmax equals the argmax of log_scores, bit for bit.

predict_batch and round_scorer decide a query from binned density
bounds when the leader's lower bound clears every rival's upper bound,
and score exactly only the classes the bounds leave in doubt. Whatever
path a query takes, its prediction must be class_ids[log_scores(X)
.argmax(axis=1)], ties to the lowest index.
"""

import numpy as np
import pytest

import oracles
from harboost.boosting import boost_fit, boost_predict_batch
from harboost.dataset import Dataset
from harboost.learners import Family, LearnerSpec, bayes, predict
from harboost.modelfile import load_model, save_model
from harboost.numerics import LIKELIHOOD_FLOOR

KNB = LearnerSpec(Family.KERNEL_NAIVE_BAYES)


def _argmax(m, X):
    return m.class_ids[m.log_scores(X).argmax(axis=1)]


def _check(m, X):
    """predict_batch and round_scorer both equal the exact argmax."""
    want = _argmax(m, X)
    assert m.predict_batch(X).tobytes() == want.tobytes()
    assert m.round_scorer(X)(m).tobytes() == want.tobytes()
    return want


@pytest.fixture
def spy(monkeypatch):
    """Counts of the bounded path: calls, queries and the query rows
    that went to the exact path, each once per call, at the first class
    that scores it exactly."""
    seen = {"calls": 0, "queries": 0, "exact_rows": 0, "rows": None}
    argmax, exact = bayes._Grid.argmax, bayes._class_scores

    def counted_argmax(grid, m):
        seen["calls"] += 1
        seen["queries"] += len(grid.X)
        seen["rows"] = set()
        try:
            return argmax(grid, m)
        finally:
            seen["rows"] = None

    def counted_exact(m, c, X):
        rows = seen["rows"]
        if rows is not None:
            keys = [r.tobytes() for r in X]
            seen["exact_rows"] += sum(k not in rows for k in keys)
            rows.update(keys)
        return exact(m, c, X)

    monkeypatch.setattr(bayes._Grid, "argmax", counted_argmax)
    monkeypatch.setattr(bayes, "_class_scores", counted_exact)
    return seen


def _task(seed, n=300, d=4, classes=4, scale=1.0, power=1.0):
    g = np.random.default_rng(seed)
    labels = g.integers(1, classes + 1, n)
    centers = g.normal(0, 1.5, (classes + 1, d))
    X = (centers[labels] + g.normal(0, 1, (n, d))) * scale
    ds = Dataset(X, labels, tuple(f"f{i}" for i in range(d)))
    w = g.uniform(0, 1, n) ** power
    return ds, KNB.fit_weighted(ds, w), g


@pytest.mark.parametrize("seed", range(8))
def test_bounded_argmax_equals_log_scores(seed, spy):
    d = [1, 2, 5, 15][seed % 4]
    ds, m, g = _task(seed, n=120 + 97 * seed, d=d, classes=2 + seed,
                     scale=[1e-3, 1.0, 1e3][seed % 3],
                     power=[1.0, 6.0][seed % 2])
    X = np.concatenate([g.normal(0, 2, (400, d)) * np.abs(ds.features).max(),
                        ds.features[::3]])
    _check(m, X)
    assert spy["calls"] == 2 and spy["queries"] == 2 * len(X)


def test_bounds_hold_and_decide_most_queries(spy):
    ds, m, g = _task(11, n=600, d=15, classes=12)
    X = np.concatenate([ds.features, g.normal(0, 3, (300, 15))])
    grid = bayes._Grid.of(m.samples, X)
    upper, lower = grid.bounds(m)
    exact = m.log_scores(X)
    slack = grid.margin(m) / 4
    assert (lower <= exact + slack).all() and (exact <= upper + slack).all()
    assert (upper - lower).min() >= 0
    _check(m, X)
    # the bounds decide a share of the queries, not none of them
    assert spy["exact_rows"] < 0.5 * spy["queries"]


def test_oracle_agrees_on_small_cases(rng_queries):
    for seed in (2, 3):
        ds, m, _ = _task(seed + 50, n=60, d=2, classes=3)
        w = np.random.default_rng(seed).uniform(0.05, 1.0, ds.n_rows)
        m = KNB.fit_weighted(ds, w)
        queries = rng_queries(200, 2, seed=seed, low=-4.0, high=4.0)
        assert bayes._Grid.of(m.samples, queries) is not None
        got = _check(m, queries).tolist()
        assert got == [oracles.kernel_nb_predict(q, ds.features, ds.labels, w)
                       for q in queries]


def test_tie_grid_and_constant_features(spy):
    g = np.random.default_rng(5)
    labels = np.repeat([1, 2, 3], [50, 70, 60])
    # every sample equal: the grid's range comes from the queries
    ds = Dataset(np.full((180, 3), 0.25), labels, ("a", "b", "c"))
    m = KNB.fit_weighted(ds, g.uniform(0, 1, 180))
    X = g.normal(0.25, 0.01, (300, 3))
    _check(m, X)
    assert spy["calls"] == 2
    # queries equal to the samples too: zero range, the exact path
    spy["calls"] = 0
    _check(m, np.full((300, 3), 0.25))
    assert spy["calls"] == 0
    # one constant feature among varying ones
    feats = np.column_stack([g.normal(0, 1, 180), np.full(180, -0.5)])
    ds = Dataset(feats, labels, ("a", "b"))
    m = KNB.fit_weighted(ds, g.uniform(0, 1, 180))
    X = np.column_stack([g.normal(0, 1, 300), np.full(300, -0.5)])
    assert bayes._Grid.of(m.samples, X) is None
    _check(m, X)


def test_zero_and_one_row_predicts(spy):
    ds, m, g = _task(8, n=300, d=4, classes=4)
    # no finite row: the exact path
    assert len(_check(m, np.empty((0, 4)))) == 0
    assert spy["calls"] == 0
    # one row takes the grid, however few its kernel cells, and so
    # does learners.predict of one vector
    for x in (ds.features[5], g.normal(0, 2, 4)):
        want = _check(m, x[None, :])
        assert predict(m, x) == want[0]
    assert spy["calls"] == spy["queries"] == 6


def test_queries_outside_the_samples_and_on_cell_edges():
    ds, m, g = _task(7, n=240, d=3, classes=3)
    lo, hi = ds.features.min(axis=0), ds.features.max(axis=0)
    outside = np.concatenate([g.uniform(hi + 1, hi + 50, (150, 3)),
                              g.uniform(lo - 50, lo - 1, (150, 3))])
    _check(m, outside)
    # integer samples and queries on a grid of integer width: every
    # query and sample lies on a cell edge
    G = bayes._grid_cells(400, 240, 3)
    ints = g.integers(0, G + 1, (240, 3)).astype(np.float64)
    ints[0], ints[1] = 0.0, float(G)
    labels = np.repeat([1, 2, 3], 80)
    m = KNB.fit_weighted(Dataset(ints, labels, ("a", "b", "c")),
                         g.uniform(0, 1, 240))
    edges = g.integers(0, G + 1, (400, 3)).astype(np.float64)
    grid = bayes._Grid.of(m.samples, edges)
    assert grid.G == G and (grid.spans[1, :, 0] == 1 + bayes._CELL_SLACK).all()
    _check(m, edges)


def test_one_sample_classes_and_zero_weight_rows():
    g = np.random.default_rng(9)
    labels = np.repeat([1, 2, 3, 4], [1, 1, 150, 120])
    ds = Dataset(g.normal(0, 1, (272, 4)) + labels[:, None], labels,
                 tuple("abcd"))
    w = g.uniform(0, 1, 272)
    w[2:60] = 0.0
    m = KNB.fit_weighted(ds, w)
    assert [len(s) for s in m.samples] == [1, 1, 150, 120]
    X = np.concatenate([g.normal(2.5, 2, (400, 4)), ds.features[:2]])
    _check(m, X)


def test_densities_at_the_floor_tie_to_the_lowest_class():
    g = np.random.default_rng(4)
    labels = np.repeat([1, 2, 3], 100)
    feats = g.normal(0, 1e-3, (300, 2))
    ds = Dataset(feats, labels, ("a", "b"))
    m = KNB.fit_weighted(ds, np.ones(300))
    X = g.uniform(1e3, 2e3, (300, 2)) * g.choice([-1, 1], (300, 2))
    floored = np.log(m.priors) + 2 * np.log(LIKELIHOOD_FLOOR)
    assert (m.log_scores(X) == floored).all()  # every feature floored
    assert (_check(m, X) == 1).all()  # equal priors: the lowest class


def test_non_finite_queries_score_exactly(spy):
    ds, m, g = _task(3, n=300, d=3, classes=3)
    X = g.normal(0, 2, (400, 3))
    X[::7, 0] = np.nan
    X[1::9, 1] = np.inf
    X[2::11, 2] = -np.inf
    X[3] = np.nan
    _check(m, X)
    assert spy["calls"] == 0
    _check(m, np.full((300, 3), np.nan))


def test_a_coarse_grid_sends_every_query_to_the_exact_path(spy, monkeypatch):
    ds, m, g = _task(13, n=400, d=6, classes=6)
    monkeypatch.setattr(bayes, "_grid_cells", lambda q, n, c: 2)
    X = g.normal(0, 1, (300, 6))
    _check(m, X)
    assert spy["exact_rows"] == spy["queries"] == 2 * len(X)


def test_rounds_share_a_grid_and_a_reloaded_model_still_agrees(tmp_path,
                                                               spy):
    ds, _, g = _task(21, n=500, d=5, classes=5, power=3.0)
    ens = boost_fit(KNB, ds, rounds=4, seed=2)
    models = [r.model for r in ens.rounds]
    assert len(models) > 1
    assert all(bayes._same_arrays(m.samples, models[0].samples)
               for m in models)
    X = np.concatenate([g.normal(0, 3, (300, 5)), ds.features[::4]])
    score = models[0].round_scorer(X)
    for m in models:
        assert score(m).tobytes() == _argmax(m, X).tobytes()
    # a model over other samples predicts on its own
    other = KNB.fit_weighted(ds.subset(np.arange(0, 500, 2)),
                             np.ones(250))
    assert score(other).tobytes() == _argmax(other, X).tobytes()

    path = tmp_path / "knb.json"
    save_model(path, ens, ds)
    loaded = load_model(path).ensemble
    reloaded = [r.model for r in loaded.rounds]
    assert not bayes._same_arrays(reloaded[0].samples, reloaded[1].samples)
    for m in reloaded:
        _check(m, X)
    assert (boost_predict_batch(loaded, X)
            == boost_predict_batch(ens, X)).all()
