"""Decision-tree family: stump, binary CART, multiway tree, random tree,
and bootstrap forest.

All trees are grown top-down by greedy weighted-Gini minimization.
Binary nodes test `feature <= threshold` with thresholds at midpoints of
sorted distinct values. Multiway nodes partition one feature's range into
up to `bins` intervals whose boundaries are chosen by exhaustive search
over subsets of a 16-point weighted-quantile candidate grid. Recursion
stops at max_depth, at nodes whose weight mass is at most
min_leaf_weight, and at pure nodes. Leaves predict the class with the
largest weight mass; all ties (split scores, leaf labels, votes) resolve
to the first candidate in scan order, which means the lower feature
index, lower threshold, or lower class id.

Growth keeps, per node, one row list per feature in ascending order of
that feature (presorted once, then split among the children as in
SLIQ), and searches all candidate features of a node in one batch. A
(features, rows, classes) class-mass prefix gives the Gini score of
every binary cut position of every feature; positions that are not
value boundaries are set to inf and one flat argmin picks the split.
Multiway nodes score each interval between two candidate cuts once and
sum those scores per combination, with combinations that use a missing
candidate set to inf. Row-major order makes the first minimum the
lowest feature (candidate features are visited in ascending order,
random subsets sorted), then the lowest threshold, or the fewest
intervals and the lexicographically first combination: the scan-order
tie rule above. Every score comes from the same operations on the same
operands as a feature-by-feature scan, so batching changes no tree.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from ..rng import SplitMix64, derive_seed

_QUANTILE_CANDIDATES = 16
_QUANTILE_LEVELS = (
    np.arange(1, _QUANTILE_CANDIDATES + 1) / (_QUANTILE_CANDIDATES + 1)
)


@dataclass(frozen=True)
class Leaf:
    label: int  # activity id


@dataclass(frozen=True)
class SplitNode:
    feature: int
    thresholds: tuple[float, ...]  # sorted; len 1 for binary splits
    children: tuple


@dataclass(frozen=True)
class TreeModel:
    root: object
    class_ids: np.ndarray
    kind: str  # "stump" | "tree" | "multiway" | "random"

    def predict_batch(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        out = np.empty(X.shape[0], dtype=np.int64)
        _route(self.root, X, np.arange(X.shape[0]), out)
        return out

    def to_payload(self) -> dict:
        return {
            "family": self.kind,
            "class_ids": self.class_ids.tolist(),
            "root": _node_payload(self.root),
        }


@dataclass(frozen=True)
class ForestModel:
    trees: tuple[TreeModel, ...]
    class_ids: np.ndarray

    def predict_batch(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        votes = np.zeros((X.shape[0], len(self.class_ids)), dtype=np.int64)
        for tree in self.trees:
            idx = np.searchsorted(self.class_ids, tree.predict_batch(X))
            votes[np.arange(X.shape[0]), idx] += 1
        return self.class_ids[votes.argmax(axis=1)]

    def to_payload(self) -> dict:
        return {
            "family": "forest",
            "class_ids": self.class_ids.tolist(),
            "trees": [t.to_payload() for t in self.trees],
        }


def _node_payload(node) -> dict:
    if isinstance(node, Leaf):
        return {"leaf": int(node.label)}
    return {
        "feature": int(node.feature),
        "thresholds": [float(t) for t in node.thresholds],
        "children": [_node_payload(c) for c in node.children],
    }


def _node_from_payload(p, labels: set[int]) -> object:
    """Rebuild a node, rejecting structures that cannot route every row."""
    if "leaf" in p:
        label = int(p["leaf"])
        if label not in labels:
            raise ValueError(f"leaf label {label} is not among class_ids")
        return Leaf(label)
    feature = int(p["feature"])
    if feature < 0:
        raise ValueError(f"split feature {feature} is negative")
    thresholds = tuple(float(t) for t in p["thresholds"])
    if not all(math.isfinite(t) for t in thresholds) or any(
        a >= b for a, b in zip(thresholds, thresholds[1:])
    ):
        raise ValueError(
            f"split thresholds {list(thresholds)} are not finite and "
            f"strictly increasing"
        )
    children = p["children"]
    if len(children) != len(thresholds) + 1:
        raise ValueError(
            f"{len(thresholds)} split thresholds need "
            f"{len(thresholds) + 1} children, found {len(children)}"
        )
    return SplitNode(
        feature, thresholds,
        tuple(_node_from_payload(c, labels) for c in children),
    )


def model_from_payload(p: dict):
    class_ids = np.array(p["class_ids"], dtype=np.int64)
    if p["family"] == "forest":
        forest = ForestModel(
            tuple(model_from_payload(t) for t in p["trees"]), class_ids
        )
        for tree in forest.trees:
            if not np.isin(tree.class_ids, class_ids).all():
                raise ValueError("a forest tree has class ids outside the forest's")
        return forest
    return TreeModel(
        _node_from_payload(p["root"], set(class_ids.tolist())),
        class_ids,
        p["family"],
    )


def max_feature(model) -> int:
    """Largest feature index any split of a tree or forest tests (-1: none)."""
    if isinstance(model, ForestModel):
        return max((max_feature(t) for t in model.trees), default=-1)
    top, stack = -1, [model.root]
    while stack:
        node = stack.pop()
        if isinstance(node, SplitNode):
            top = max(top, node.feature)
            stack.extend(node.children)
    return top


def _route(node, X, idx, out) -> None:
    if isinstance(node, Leaf):
        out[idx] = node.label
        return
    # child i covers (thresholds[i-1], thresholds[i]]; the last child
    # covers values above the final threshold
    cut = np.searchsorted(node.thresholds, X[idx, node.feature], side="left")
    for ci, child in enumerate(node.children):
        sub = idx[cut == ci]
        if sub.size:
            _route(child, X, sub, out)


# ---------------------------------------------------------------------------
# Growth
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowParams:
    max_depth: int
    min_leaf_weight: float
    multiway: bool = False
    bins: int = 4
    subset_size: int | None = None  # random per-node feature subset


@functools.cache
def _interval_ends(m: int, size: int) -> np.ndarray:
    """Every choice of `size` cuts among m candidates, as interval ends.

    Row r lists the interval end points of the r-th combination in
    lexicographic order: 0 (node start), the chosen candidates as 1..m,
    and m + 1 (node end). Read-only, because the cache shares it.
    """
    combos = np.array(list(itertools.combinations(range(1, m + 1), size)),
                      dtype=np.int64)
    ends = np.empty((combos.shape[0], size + 2), dtype=np.int64)
    ends[:, 0] = 0
    ends[:, 1:-1] = combos
    ends[:, -1] = m + 1
    ends.flags.writeable = False
    return ends


class _Grower:
    def __init__(self, X, y_idx, w, n_classes, params, prng=None):
        self.XT = np.ascontiguousarray(X.T)
        self.y = y_idx
        self.w = w
        self.K = n_classes
        self.p = params
        self.prng = prng
        self.onehot = np.zeros((X.shape[0], n_classes), dtype=np.float64)
        self.onehot[np.arange(X.shape[0]), y_idx] = w
        self.scratch = np.empty(X.shape[0], dtype=np.int64)

    def grow(self) -> object:
        # row f lists the rows in ascending order of feature f; every
        # node keeps this (d, n) layout for its own rows
        order = np.ascontiguousarray(np.argsort(self.XT, axis=1, kind="stable"))
        return self._node(order, depth=0)

    def _node(self, order, depth: int) -> object:
        rows = order[0]
        masses = np.bincount(self.y[rows], weights=self.w[rows], minlength=self.K)
        total = masses.sum()
        leaf = Leaf(int(masses.argmax()))
        if (
            depth >= self.p.max_depth
            or total <= self.p.min_leaf_weight
            or (masses > 0).sum() <= 1
        ):
            return leaf
        d = self.XT.shape[0]
        if self.p.subset_size is not None:
            feats = np.array(sorted(self.prng.sample_indices(d, self.p.subset_size)))
        else:
            feats = np.arange(d)
        sub = order[feats]
        vals = self.XT[feats[:, None], sub]
        # class-mass prefix per candidate feature; cumz[j, i] sums the
        # first i rows in feature j's order, so cumz[j, 0] is all zeros
        n = rows.size
        cumz = np.zeros((feats.size, n + 1, self.K), dtype=np.float64)
        np.cumsum(self.onehot[sub], axis=1, out=cumz[:, 1:])
        found = (
            self._best_multiway(vals, cumz, self.w[sub].cumsum(axis=1))
            if self.p.multiway
            else self._best_binary(vals, cumz)
        )
        if found is None:
            return leaf
        j, thresholds = found
        best_feat = int(feats[j])
        cut = np.searchsorted(thresholds, self.XT[best_feat, rows], side="left")
        self.scratch[rows] = cut
        # materialize every child's sorted index lists before recursing:
        # the recursion reuses the scratch array for its own routing.
        # Each feature's row holds the same members of a child, so the
        # row-major mask selection reshapes into per-feature lists that
        # keep their sorted order.
        lab = self.scratch[order]
        sizes = np.bincount(cut, minlength=len(thresholds) + 1)
        child_orders = [
            order[lab == ci].reshape(d, int(sizes[ci]))
            for ci in range(len(thresholds) + 1)
        ]
        children = [self._node(co, depth + 1) for co in child_orders]
        return SplitNode(best_feat, thresholds, tuple(children))

    @staticmethod
    def _gini_sum(masses: np.ndarray) -> np.ndarray:
        """Weighted Gini contribution (M^2 - sum_c m_c^2) / M per group.

        This form makes a pure group score exactly 0.0, so ties between
        perfect splits resolve by scan order rather than rounding noise.
        """
        s = masses.sum(axis=-1)
        sq = (masses * masses).sum(axis=-1)
        return np.where(s > 0, (s * s - sq) / np.where(s > 0, s, 1.0), 0.0)

    def _best_binary(self, vals, cumz):
        """Best single threshold over all candidate features at once.

        Returns (feature position in vals, (threshold,)), or None when
        every candidate feature is constant on the node.
        """
        left = cumz[:, 1:-1]
        right = cumz[:, -1:] - left
        score = self._gini_sum(left) + self._gini_sum(right)
        score[vals[:, 1:] == vals[:, :-1]] = np.inf
        j, i = divmod(int(score.argmin()), score.shape[1])
        if score[j, i] == np.inf:
            return None
        lo, hi = vals[j, i], vals[j, i + 1]
        t = (lo + hi) / 2.0
        if t >= hi:  # midpoint collapsed upward in float
            t = lo
        return int(j), (float(t),)

    def _best_multiway(self, vals, cumz, wcum):
        """Best interval partition over all candidate features at once.

        Returns (feature position in vals, thresholds), or None when no
        feature has a candidate cut.
        """
        m, n = vals.shape
        # per feature: the value at each weighted quantile, i.e. at
        # searchsorted(wcum, level * total, "left"), counted as the
        # number of prefix sums below the target (wcum never decreases)
        targets = _QUANTILE_LEVELS * wcum[:, -1:]
        pos = (wcum[:, :, None] < targets[:, None, :]).sum(axis=1)
        grid = np.take_along_axis(vals, np.minimum(pos, n - 1), axis=1)
        # the grid is already in order; sorting it anyway orders equal
        # values (-0.0 and 0.0) as np.unique does, which decides the sign
        # a zero threshold is stored with. Its distinct values are then
        # the first of each run; one below the largest value is a cut.
        grid.sort(axis=1)
        keep = (grid < vals[:, -1:]) & (wcum[:, -1:] > 0)
        keep[:, 1:] &= grid[:, 1:] != grid[:, :-1]
        n_cand = keep.sum(axis=1)
        top = int(n_cand.max())
        if top == 0:
            return None
        # feature j's candidates in ascending order in cand[j, :n_cand[j]]
        first = np.argsort(~keep, axis=1, kind="stable")[:, :top]
        cand = np.take_along_axis(grid, first, axis=1)
        # prefix row of each interval end: 0 (node start), just past the
        # last row at or below each candidate, n (node end)
        ends = np.empty((m, top + 2), dtype=np.int64)
        ends[:, 0] = 0
        ends[:, 1:-1] = (vals[:, :, None] <= cand[:, None, :]).sum(axis=1)
        ends[:, -1] = n
        points = np.take_along_axis(cumz, ends[:, :, None], axis=1)
        # gini[j, a, b]: score of feature j's interval between points a, b
        gini = self._gini_sum(points[:, None, :, :] - points[:, :, None, :])
        gini = gini.reshape(m, -1)
        scores, layouts = [], []
        for size in range(1, min(self.p.bins, top + 1)):
            cuts = _interval_ends(top, size)
            s = np.take(gini, cuts[:, :-1] * (top + 2) + cuts[:, 1:], axis=1)
            s = s.sum(axis=-1)
            # a combination that uses a padding candidate is no cut
            s[cuts[:, -2][None, :] > n_cand[:, None]] = np.inf
            scores.append(s)
            layouts.append(cuts)
        # row-major first minimum: lowest feature, then fewest intervals,
        # then the lexicographically first combination (scan order)
        scores = np.concatenate(scores, axis=1)
        j, b = divmod(int(scores.argmin()), scores.shape[1])
        if scores[j, b] == np.inf:
            return None
        for cuts in layouts:
            if b < cuts.shape[0]:
                return j, tuple(float(v) for v in cand[j, cuts[b, 1:-1] - 1])
            b -= cuts.shape[0]


def grow_tree(X, y_idx, w, n_classes, params: GrowParams, prng=None):
    return _Grower(
        np.asarray(X, dtype=np.float64),
        np.asarray(y_idx, dtype=np.int64),
        np.asarray(w, dtype=np.float64),
        n_classes,
        params,
        prng,
    ).grow()


# ---------------------------------------------------------------------------
# Family entry points
# ---------------------------------------------------------------------------


def _prep(ds, w):
    class_ids = np.unique(ds.labels)
    y_idx = np.searchsorted(class_ids, ds.labels)
    return class_ids, y_idx, np.asarray(w, dtype=np.float64)


def _to_label_tree(node, class_ids):
    """Map leaf class indices to activity ids."""
    if isinstance(node, Leaf):
        return Leaf(int(class_ids[node.label]))
    return SplitNode(
        node.feature, node.thresholds,
        tuple(_to_label_tree(c, class_ids) for c in node.children),
    )


def fit_tree(ds, w, max_depth, min_leaf_weight, kind="tree", bins=4,
             subset_size=None, seed=0) -> TreeModel:
    class_ids, y_idx, w = _prep(ds, w)
    prng = SplitMix64(seed) if subset_size is not None else None
    params = GrowParams(
        max_depth=max_depth,
        min_leaf_weight=min_leaf_weight,
        multiway=(kind == "multiway"),
        bins=bins,
        subset_size=subset_size,
    )
    root = grow_tree(ds.features, y_idx, w, len(class_ids), params, prng)
    return TreeModel(_to_label_tree(root, class_ids), class_ids, kind)


def bootstrap_counts(prng: SplitMix64, cum: np.ndarray) -> np.ndarray:
    """How often each row is picked in len(cum) draws with replacement.

    cum is the running sum of the row probabilities. Draw u picks the
    first row whose running sum exceeds u (the last row if rounding
    leaves none); the draws consume len(cum) floats of prng.
    """
    n = cum.size
    picks = np.searchsorted(cum, prng.next_floats(n), side="right")
    return np.bincount(np.minimum(picks, n - 1), minlength=n)


def fit_forest(ds, w, n_trees, max_depth, min_leaf_weight, subset_size,
               seed) -> ForestModel:
    """Seeded weighted bootstrap forest of random trees.

    Tree i draws N rows with replacement, with probability proportional
    to w, from a SplitMix64 stream seeded by derive_seed(seed, i); the
    same stream then drives that tree's per-node feature subsets. Each
    tree trains on its resample with integer multiplicity weights (an
    exact, scale-equivalent form of counts/N: all Gini mass arithmetic
    stays exact, so split ties resolve by scan order, not rounding).
    Trees vote unweighted; ties go to the lower class id.
    """
    class_ids, _, w = _prep(ds, w)
    n = ds.n_rows
    cum = np.cumsum(w / w.sum())
    trees = []
    for i in range(n_trees):
        prng = SplitMix64(derive_seed(seed, i))
        counts = bootstrap_counts(prng, cum)
        picked = np.flatnonzero(counts > 0)
        sub = ds.subset(picked)
        sub_w = counts[picked].astype(np.float64)
        sub_ids = np.unique(sub.labels)
        y_idx = np.searchsorted(sub_ids, sub.labels)
        params = GrowParams(
            max_depth=max_depth,
            min_leaf_weight=min_leaf_weight * n,
            subset_size=subset_size,
        )
        root = grow_tree(sub.features, y_idx, sub_w, len(sub_ids), params, prng)
        trees.append(TreeModel(_to_label_tree(root, sub_ids), sub_ids, "random"))
    return ForestModel(tuple(trees), class_ids)
