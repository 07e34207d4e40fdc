import json

import numpy as np
import pytest

import oracles
from harboost.dataset import Dataset
from harboost.learners import Family, LearnerSpec, fit
from harboost.learners.trees import bootstrap_counts
from harboost.rng import SplitMix64, derive_seed
from harboost.synthetic import make_activity_dataset


def uniform(ds):
    return np.full(ds.n_rows, 1.0 / ds.n_rows)


def as_oracle(model):
    """A tree model's root in the oracle's nested-tuple form."""
    return oracles.tree_from_payload(model.to_payload()["root"])


def leaf_masses(node, X, y, w):
    """Route training rows through the tree, summing weight per leaf."""
    out = []

    def walk(n, idx):
        if n[0] == "leaf":
            out.append(w[idx].sum())
            return
        _, feature, thresholds, children = n
        cut = np.searchsorted(np.asarray(thresholds), X[idx, feature],
                              side="left")
        for ci, child in enumerate(children):
            walk(child, idx[cut == ci])

    walk(node, np.arange(len(X)))
    return out


# ---------------------------------------------------------------------------
# Stump
# ---------------------------------------------------------------------------


def test_stump_separates_two_points():
    ds = Dataset(np.array([[0.0], [1.0]]), np.array([1, 2]), ("f",))
    m = fit(LearnerSpec(Family.DECISION_STUMP), ds)
    node = as_oracle(m)
    assert node[0] == "split"
    assert 0.0 < node[2][0] < 1.0
    assert m.predict_batch(ds.features).tolist() == [1, 2]


def test_stump_threshold_matches_bruteforce():
    g = np.random.default_rng(5)
    X = g.uniform(-1, 1, size=(30, 1))
    y = np.where(X[:, 0] > 0.21, 4, 2)
    ds = Dataset(X, y, ("f",))
    w = g.uniform(0.1, 1.0, 30)
    w = w / w.sum()
    m = LearnerSpec(Family.DECISION_STUMP).fit_weighted(ds, w)
    tree = oracles.grow_tree(
        X.tolist(), y.tolist(), (w / w.sum()).tolist(), 1, 1e-4
    )
    queries = g.uniform(-1, 1, size=(100, 1))
    got = m.predict_batch(queries).tolist()
    want = [oracles.tree_predict(tree, q) for q in queries]
    assert got == want


def test_stump_accuracy_bounded_by_two_largest_classes():
    ds = make_activity_dataset(90, 6, 2, seed=3, spread=0.4)
    w = np.random.default_rng(4).uniform(0.01, 1.0, ds.n_rows)
    w = w / w.sum()
    m = LearnerSpec(Family.DECISION_STUMP).fit_weighted(ds, w)
    pred = m.predict_batch(ds.features)
    weighted_acc = w[pred == ds.labels].sum()
    masses = sorted(
        (w[ds.labels == c].sum() for c in np.unique(ds.labels)), reverse=True
    )
    assert weighted_acc <= masses[0] + masses[1] + 1e-12


def test_pure_dataset_gives_single_leaf():
    ds = Dataset(np.random.default_rng(0).uniform(-1, 1, (10, 2)),
                 np.full(10, 6), ("a", "b"))
    m = fit(LearnerSpec(Family.DECISION_TREE), ds)
    node = as_oracle(m)
    assert node[0] == "leaf"
    assert node[1] == 6


def test_xor_stump_fails_depth2_succeeds():
    X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    y = np.array([1, 1, 2, 2])
    ds = Dataset(X, y, ("a", "b"))
    stump = fit(LearnerSpec(Family.DECISION_STUMP), ds)
    stump_acc = (stump.predict_batch(X) == y).mean()
    assert stump_acc <= 0.5 + 1e-12
    deep = fit(LearnerSpec(Family.DECISION_TREE, max_depth=2), ds)
    assert (deep.predict_batch(X) == y).all()


# ---------------------------------------------------------------------------
# Binary / multiway / random trees vs the naive oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_binary_tree_matches_oracle(seed, rng_queries):
    ds = make_activity_dataset(45, 4, 3, seed=seed, spread=0.35)
    g = np.random.default_rng(seed)
    w = g.uniform(0.05, 1.0, ds.n_rows)
    w = w / w.sum()
    m = LearnerSpec(Family.DECISION_TREE, max_depth=4).fit_weighted(ds, w)
    tree = oracles.grow_tree(
        ds.features.tolist(), ds.labels.tolist(), w.tolist(), 4, 1e-4
    )
    queries = rng_queries(100, 3, seed=seed + 50)
    got = m.predict_batch(queries).tolist()
    want = [oracles.tree_predict(tree, q) for q in queries]
    assert got == want


@pytest.mark.parametrize("seed", [3, 4])
def test_multiway_tree_matches_oracle(seed, rng_queries):
    ds = make_activity_dataset(40, 3, 2, seed=seed, spread=0.4)
    g = np.random.default_rng(seed)
    w = g.uniform(0.05, 1.0, ds.n_rows)
    w = w / w.sum()
    m = LearnerSpec(Family.MULTIWAY_TREE, max_depth=3, bins=4).fit_weighted(ds, w)
    tree = oracles.grow_tree(
        ds.features.tolist(), ds.labels.tolist(), w.tolist(), 3, 1e-4,
        mode="multiway", bins=4,
    )
    queries = rng_queries(100, 2, seed=seed + 60)
    got = m.predict_batch(queries).tolist()
    want = [oracles.tree_predict(tree, q) for q in queries]
    assert got == want


def test_multiway_produces_more_than_two_children():
    # three well-separated value clusters on one feature
    g = np.random.default_rng(8)
    x = np.concatenate([
        g.uniform(-0.9, -0.7, 20), g.uniform(-0.1, 0.1, 20),
        g.uniform(0.7, 0.9, 20),
    ])
    y = np.array([1] * 20 + [2] * 20 + [3] * 20)
    ds = Dataset(x[:, None], y, ("f",))
    m = fit(LearnerSpec(Family.MULTIWAY_TREE, max_depth=1, bins=4), ds)
    node = as_oracle(m)
    assert node[0] == "split"
    assert len(node[3]) >= 3
    # quantile-grid boundaries need not align exactly with cluster edges
    assert (m.predict_batch(ds.features) == y).mean() >= 0.9


@pytest.mark.parametrize("seed", [11, 12])
def test_random_tree_matches_oracle(seed, rng_queries):
    ds = make_activity_dataset(40, 4, 3, seed=seed, spread=0.3)
    w = uniform(ds)
    m = LearnerSpec(
        Family.RANDOM_TREE, max_depth=3, subset_size=2, seed=seed
    ).fit_weighted(ds, w)
    tree = oracles.grow_tree(
        ds.features.tolist(), ds.labels.tolist(), w.tolist(), 3, 1e-4,
        prng=SplitMix64(seed), subset_size=2,
    )
    queries = rng_queries(100, 3, seed=seed + 70)
    got = m.predict_batch(queries).tolist()
    want = [oracles.tree_predict(tree, q) for q in queries]
    assert got == want


@pytest.mark.parametrize("seed", [21])
def test_forest_matches_oracle(seed, rng_queries):
    ds = make_activity_dataset(40, 3, 3, seed=seed, spread=0.3)
    g = np.random.default_rng(seed)
    w = g.uniform(0.1, 1.0, ds.n_rows)
    w = w / w.sum()
    m = LearnerSpec(
        Family.RANDOM_FOREST, trees=5, max_depth=3, subset_size=2, seed=seed
    ).fit_weighted(ds, w)
    trees = oracles.forest_fit(
        ds.features.tolist(), ds.labels.tolist(), w.tolist(),
        5, 3, 1e-4, 2, seed,
    )
    queries = rng_queries(100, 3, seed=seed + 80)
    got = m.predict_batch(queries).tolist()
    want = [oracles.forest_predict(trees, q) for q in queries]
    assert got == want


def test_forest_bootstrap_counts_match_scalar_draws():
    g = np.random.default_rng(22)
    w = g.uniform(0.0, 1.0, 300)
    w[g.uniform(size=300) < 0.2] = 0.0
    cum = np.cumsum(w / w.sum())
    seed = derive_seed(21, 3)
    prng, ref = SplitMix64(seed), SplitMix64(seed)
    got = bootstrap_counts(prng, cum)
    assert got.tolist() == oracles.bootstrap_counts(ref, cum.tolist())
    assert got.sum() == 300
    # the feature subsets drawn next see the same stream
    assert prng.next_uint64() == ref.next_uint64()


# ---------------------------------------------------------------------------
# Structural invariants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "family,kwargs",
    [
        (Family.DECISION_STUMP, {}),
        (Family.DECISION_TREE, {"max_depth": 5}),
        (Family.MULTIWAY_TREE, {"max_depth": 3}),
        (Family.RANDOM_TREE, {"max_depth": 5, "seed": 5}),
    ],
)
def test_leaf_masses_partition_total(family, kwargs):
    ds = make_activity_dataset(70, 5, 3, seed=1, spread=0.3)
    w = np.random.default_rng(2).uniform(0.01, 1.0, ds.n_rows)
    w = w / w.sum()
    m = LearnerSpec(family, **kwargs).fit_weighted(ds, w)
    masses = leaf_masses(as_oracle(m), ds.features, ds.labels, w)
    assert sum(masses) == pytest.approx(1.0, abs=1e-9)


def test_max_depth_respected():
    ds = make_activity_dataset(100, 6, 3, seed=6, spread=0.5)
    m = fit(LearnerSpec(Family.DECISION_TREE, max_depth=2), ds)

    def depth(n):
        if n[0] == "leaf":
            return 0
        return 1 + max(depth(c) for c in n[3])

    assert depth(as_oracle(m)) <= 2


def test_forest_deterministic_serialization():
    ds = make_activity_dataset(50, 4, 3, seed=9, spread=0.3)
    spec = LearnerSpec(Family.RANDOM_FOREST, trees=4, max_depth=3, seed=123)
    a = fit(spec, ds).to_payload()
    b = fit(spec, ds).to_payload()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    c = fit(LearnerSpec(Family.RANDOM_FOREST, trees=4, max_depth=3, seed=124), ds)
    assert json.dumps(c.to_payload(), sort_keys=True) != json.dumps(
        a, sort_keys=True
    )
