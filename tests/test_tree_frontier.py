"""Frontier growth and flat-array routing against the brute-force oracles.

Trees grow a batch of nodes at a time, with each node's rows padded to
the batch's largest node; prediction routes rows through flat node
arrays. These tests compare whole tree structures with
`oracles.grow_tree` on data whose nodes differ widely in size, once as
batched by default and once with a batch bound so small that one depth
spans many batches; pin the order in which class masses are summed;
and compare routing with the oracle's per-row descent at and around
every threshold.
"""

import math

import numpy as np
import pytest

import oracles
from harboost.dataset import Dataset
from harboost.learners import Family, LearnerSpec, trees
from harboost.learners.trees import ForestModel, _class_sum, model_from_payload
from harboost.rng import SplitMix64


def as_oracle(model):
    """A tree model in the oracle's nested-tuple form."""
    return oracles.tree_from_payload(model.to_payload()["root"])


def uneven_task(seed):
    """A large mixed blob plus small distant clusters, with dyadic weights.

    The clusters split off as nodes of 3 rows while the blob keeps nodes
    of dozens, so one depth holds nodes of very different sizes. Every
    weight is a small multiple of 1/256, so all mass sums are exact and
    the oracle's plain-Python sums equal the library's to the bit.
    """
    g = np.random.default_rng(seed)
    blob = g.normal(0.0, 1.0, (84, 3))
    blob_y = g.integers(1, 4, 84)
    clusters = [g.normal(6.0 + 3.0 * c, 0.2, (3, 3)) for c in range(8)]
    cluster_y = np.repeat([4, 5] * 4, 3)
    X = np.round(np.vstack([blob, *clusters]), 1)
    y = np.concatenate([blob_y, cluster_y])
    w = g.integers(1, 4, y.size).astype(np.float64)
    w[0] += 256.0 - w.sum()
    ds = Dataset(X, y, ("a", "b", "c"))
    return ds, w / 256.0


@pytest.fixture(params=[False, True], ids=["default-batches", "tiny-batches"])
def tiny_batches(request, monkeypatch):
    """Run with the default batch bound, and with one of 8 padded rows.

    When tiny, the test must see some step split into several batches.
    """
    if not request.param:
        yield
        return
    monkeypatch.setattr(trees, "_STEP_ROWS", 8)
    batches = []
    chunks = trees._Grower._chunks

    def counting(self, nodes, m):
        out = list(chunks(self, nodes, m))
        batches.append(len(out))
        return iter(out)

    monkeypatch.setattr(trees._Grower, "_chunks", counting)
    yield
    assert max(batches) > 1


@pytest.mark.parametrize("seed", [0, 1])
def test_decision_tree_structure_matches_oracle(seed, tiny_batches):
    ds, w = uneven_task(seed)
    model = LearnerSpec(Family.DECISION_TREE, max_depth=8).fit_weighted(ds, w)
    want = oracles.grow_tree(ds.features.tolist(), ds.labels.tolist(),
                             w.tolist(), 8, 1e-4)
    assert as_oracle(model) == want


def test_multiway_tree_structure_matches_oracle(tiny_batches):
    ds, w = uneven_task(2)
    model = LearnerSpec(Family.MULTIWAY_TREE, max_depth=3,
                        bins=4).fit_weighted(ds, w)
    want = oracles.grow_tree(ds.features.tolist(), ds.labels.tolist(),
                             w.tolist(), 3, 1e-4, mode="multiway", bins=4)
    assert as_oracle(model) == want


@pytest.mark.parametrize("seed", [3, 4])
def test_random_tree_structure_matches_oracle(seed):
    # one node per step: the draws of feature subsets stay in preorder
    ds, w = uneven_task(seed)
    model = LearnerSpec(Family.RANDOM_TREE, max_depth=8, subset_size=2,
                        seed=seed).fit_weighted(ds, w)
    want = oracles.grow_tree(ds.features.tolist(), ds.labels.tolist(),
                             w.tolist(), 8, 1e-4, prng=SplitMix64(seed),
                             subset_size=2)
    assert as_oracle(model) == want


def test_forest_structure_matches_oracle(tiny_batches):
    ds, w = uneven_task(5)
    model = LearnerSpec(Family.RANDOM_FOREST, trees=6, max_depth=6,
                        subset_size=2, seed=5).fit_weighted(ds, w)
    want = oracles.forest_fit(ds.features.tolist(), ds.labels.tolist(),
                              w.tolist(), 6, 6, 1e-4, 2, 5)
    assert [as_oracle(t) for t in model.trees] == want


@pytest.mark.parametrize("K", [*range(1, 41), 130, 300])
def test_class_sum_adds_in_np_sum_order(K):
    # the classes-first scorers must reproduce np.sum over a trailing
    # class axis to the bit, or every Gini score could move
    g = np.random.default_rng(K)
    a = g.uniform(0.0, 1.0, (K, 7, 9)) * np.exp(g.uniform(-30, 30, (K, 7, 9)))
    a[g.uniform(size=a.shape) < 0.3] = 0.0
    trailing = np.ascontiguousarray(np.moveaxis(a, 0, -1))
    assert np.array_equal(_class_sum(a), trailing.sum(axis=-1))


# ---------------------------------------------------------------------------
# Flat routing
# ---------------------------------------------------------------------------


def _leaf(label):
    return {"leaf": label}


#: binary, 3-child and 4-child nodes, with cuts at 0.0 and at -0.0
ROOT = {
    "feature": 0, "thresholds": [-1.0, 0.0, 1.5],
    "children": [
        _leaf(1),
        {"feature": 1, "thresholds": [-0.0],
         "children": [_leaf(2), _leaf(3)]},
        {"feature": 2, "thresholds": [0.25, 0.5],
         "children": [
             _leaf(4),
             {"feature": 1, "thresholds": [0.0, 2.0],
              "children": [_leaf(5), _leaf(6), _leaf(1)]},
             _leaf(2),
         ]},
        _leaf(3),
    ],
}
CUTS = [-1.0, 0.0, -0.0, 1.5, 0.25, 0.5, 2.0]


def _queries():
    """Every cut, its float neighbours, both zeros, and far values."""
    values = set(CUTS)
    for c in CUTS:
        values.update([math.nextafter(c, -math.inf), math.nextafter(c, math.inf)])
    values.update([-0.0, 0.0, -7.0, 7.0])
    values = sorted(values)
    g = np.random.default_rng(12)
    grid = np.array(np.meshgrid(values, values, values)).reshape(3, -1).T
    extra = g.choice(values, size=(200, 3))
    return np.vstack([grid, extra])


def test_flat_routing_matches_oracle_descent():
    model = model_from_payload({"family": "multiway",
                                "class_ids": [1, 2, 3, 4, 5, 6],
                                "root": ROOT})
    tree = as_oracle(model)
    Q = _queries()
    assert model.predict_batch(Q).tolist() == [
        oracles.tree_predict(tree, q) for q in Q.tolist()
    ]
    # -0.0 and 0.0 take the same branch at both zero cuts
    both = np.array([[0.0, 0.0, 0.3], [-0.0, -0.0, 0.3]])
    assert model.predict_batch(both).tolist() == [2, 2]


def test_flat_routing_rejects_too_few_columns():
    # a flat index would otherwise read the next row's cells
    model = model_from_payload({"family": "multiway",
                                "class_ids": [1, 2, 3, 4, 5, 6],
                                "root": ROOT})
    with pytest.raises(IndexError, match="feature 2, but X has 2 columns"):
        model.predict_batch(np.zeros((4, 2)))


def test_forest_flat_routing_matches_oracle_vote():
    shifted = {"feature": 2, "thresholds": [0.0],
               "children": [_leaf(6), ROOT]}
    trees_ = [
        model_from_payload({"family": "multiway",
                            "class_ids": [1, 2, 3, 4, 5, 6], "root": ROOT}),
        model_from_payload({"family": "random", "class_ids": [2, 3],
                            "root": {"feature": 1, "thresholds": [0.0],
                                     "children": [_leaf(2), _leaf(3)]}}),
        model_from_payload({"family": "random",
                            "class_ids": [1, 2, 3, 4, 5, 6], "root": shifted}),
        model_from_payload({"family": "random", "class_ids": [4],
                            "root": _leaf(4)}),
    ]
    forest = ForestModel(tuple(trees_), np.array([1, 2, 3, 4, 5, 6]))
    Q = _queries()
    oracle_trees = [as_oracle(t) for t in trees_]
    assert forest.predict_batch(Q).tolist() == [
        oracles.forest_predict(oracle_trees, q) for q in Q.tolist()
    ]


def test_grown_multiway_routes_like_oracle_at_its_cuts():
    ds, w = uneven_task(6)
    model = LearnerSpec(Family.MULTIWAY_TREE, max_depth=3,
                        bins=4).fit_weighted(ds, w)
    tree = as_oracle(model)
    splits, stack = [], [tree]
    while stack:
        node = stack.pop()
        if node[0] == "split":
            splits.append(node[2])
            stack.extend(node[3])
    assert max(len(t) for t in splits) == 3  # a node with 4 children
    cuts = [c for t in splits for c in t]
    Q = np.array([[a, b, a] for a in cuts for b in cuts])
    assert model.predict_batch(Q).tolist() == [
        oracles.tree_predict(tree, q) for q in Q.tolist()
    ]
