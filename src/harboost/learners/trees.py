"""Decision-tree family: stump, binary CART, multiway tree, random tree,
and bootstrap forest.

All trees are grown top-down by greedy weighted-Gini minimization.
Binary nodes test `feature <= threshold` with thresholds at midpoints of
sorted distinct values. Multiway nodes partition one feature's range into
up to `bins` intervals whose boundaries are chosen by exhaustive search
over subsets of a 16-point weighted-quantile candidate grid. Growth
stops at max_depth, at nodes whose weight mass is at most
min_leaf_weight, and at pure nodes. Leaves predict the class with the
largest weight mass; all ties (split scores, leaf labels, votes) resolve
to the first candidate in scan order, which means the lower feature
index, lower threshold, or lower class id.

Growth runs a frontier of pending nodes at a time over presorted
attribute lists (SLIQ, SPRINT): one (features, rows) array in which
every node owns a column range, each feature's row listing the node's
rows in ascending order of that feature. A step searches a batch of
nodes at once, one row per (node, candidate feature). Each node's rows
are padded to the batch's largest node with zero-weight rows that repeat
its last sorted value, so padding is never a value boundary and every
real prefix sum, Gini score and quantile comes from the same operands in
the same order as a search of that node alone. Class-mass prefixes,
stored classes first, give the Gini score of every binary cut position;
their sums over the classes follow np.sum's pairwise order (see
_class_sum), so they equal sums over a trailing class axis to the bit.
Positions that are not value boundaries are set to inf and one argmin
per node picks its split. Multiway nodes score each interval between
two candidate cuts once and sum those scores per combination, with
combinations that use a missing candidate set to inf. Row-major order
makes each node's first minimum the lowest feature (candidate features
are visited in ascending order, random subsets sorted), then the lowest
threshold, or the fewest intervals and the lexicographically first
combination: the scan-order tie rule above. Splitting permutes each
node's column range so that its children own consecutive sub-ranges,
each still in feature order.

One grower grows many trees, each on a row range of its own: the trees
of a forest, and the trees of every dataset fitted together, such as
the folds of a cross-validation boosting in lockstep (fit_trees,
fit_forests; a fit of one dataset is the case of one), up to about
_GROW_ROWS rows in all. Trees without
feature subsets search every pending node of a depth, across all their
trees, in one step. Random trees draw each node's feature subset from
their SplitMix64 stream in preorder (a node draws only if it is not
stopped before the search), so a step takes one node per tree: its next
node in preorder. A lone random tree therefore searches one node per
step, and grows faster the more trees grow beside it. Each tree has its
own stream and its own minimum leaf mass. Trees share a grower only
when their datasets have the same class set, so that every tree sums
its masses over the class axis it would have alone (see _class_groups).

A fitted tree is its node arrays (TreeModel), made straight from the
grower's nodes or parsed from a payload; prediction routes rows through
them without recursion, and a forest routes each of its trees in turn
and counts their votes.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from ..numerics import _frozen
from ..rng import SplitMix64, derive_seed

_QUANTILE_CANDIDATES = 16
_QUANTILE_LEVELS = (
    np.arange(1, _QUANTILE_CANDIDATES + 1) / (_QUANTILE_CANDIDATES + 1)
)

# Most padded rows (nodes x largest node) one batched search may hold;
# a larger node runs alone. A padded row costs candidate features x 8
# bytes in each (node x feature, rows) array of a step, and x classes
# more in a multiway search, so a step's arrays stay within a few MB
# below the root of the 7767-row task.
_STEP_ROWS = 4096
# Class masses of padding one batch may score: about the fixed cost of a
# batch, measured on 450-row folds of the 12-class task
_PAD_WORK = 6144
# About the most rows one grower holds for trees grown together (its
# features and attribute lists take 16 bytes x features a row): the 100
# trees of a 10-fold forest at the 7767-row task take seven growers
_GROW_ROWS = 1 << 16
# (row x candidate feature) cells whose class masses are scored at once,
# or (row x interval) cells in a multiway search
_TILE_CELLS = 4096


@dataclass(frozen=True)
class TreeModel:
    """A fitted tree as node arrays; node 0 is the root.

    Split node v tests feature[v]: a value moves to children[v, i], where
    i counts the thresholds[v] that are not >= the value (np.searchsorted's
    "left" position; thresholds are padded with +inf, and the padding of
    children repeats the last child). A leaf has feature -1, only +inf
    thresholds and itself as every child, and predicts leaf[v], a class
    id (0 at split nodes). depth moves take every row to its leaf.
    """

    feature: np.ndarray  # (nodes,)
    thresholds: np.ndarray  # (nodes, W)
    children: np.ndarray  # (nodes, W + 1)
    leaf: np.ndarray  # (nodes,)
    depth: int
    class_ids: np.ndarray
    kind: str  # "stump" | "tree" | "multiway" | "random"

    def _route(self, X) -> np.ndarray:
        """The leaf node of every row."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        n, d = X.shape
        top = int(self.feature.max())
        if top >= d:
            raise IndexError(f"a split tests feature {top}, but X has {d} "
                             f"columns")
        cells = X.ravel()
        base = np.arange(n) * d
        width = self.thresholds.shape[1]
        at = np.zeros(n, dtype=np.intp)
        for _ in range(self.depth):
            # a leaf's feature, -1, reads a cell it then ignores
            x = cells[base + self.feature[at]]
            # NaN is >= no threshold, so it goes last, as searchsorted has it
            below = width - (x[..., None] <= self.thresholds[at]).sum(axis=-1)
            at = self.children[at, below]
        return at

    def predict_batch(self, X) -> np.ndarray:
        return self.leaf[self._route(X)]

    def check(self, n_features: int) -> None:
        """Reject a split on a feature beyond n_features; the rest of a
        tree payload is checked as it is parsed."""
        top = int(self.feature.max())
        if top >= n_features:
            raise ValueError(f"a split tests feature {top}, but the model "
                             f"has {n_features} features")

    def to_payload(self) -> dict:
        feature, leaf = self.feature.tolist(), self.leaf.tolist()
        cuts = [[t for t in row if t != math.inf]
                for row in self.thresholds.tolist()]
        children = self.children.tolist()

        def node(v):
            if feature[v] < 0:
                return {"leaf": leaf[v]}
            return {"feature": feature[v], "thresholds": cuts[v],
                    "children": [node(c)
                                 for c in children[v][:len(cuts[v]) + 1]]}

        return {
            "family": self.kind,
            "class_ids": self.class_ids.tolist(),
            "root": node(0),
        }


@dataclass(frozen=True)
class ForestModel:
    trees: tuple[TreeModel, ...]
    class_ids: np.ndarray

    def predict_batch(self, X) -> np.ndarray:
        """One vote per tree; ties go to the lowest class id."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        rows = np.arange(X.shape[0])
        votes = np.zeros((X.shape[0], len(self.class_ids)), dtype=np.intp)
        for t in self.trees:
            votes[rows, np.searchsorted(self.class_ids,
                                        t.leaf[t._route(X)])] += 1
        return self.class_ids[votes.argmax(axis=1)]

    def check(self, n_features: int) -> None:
        if not self.trees:
            raise ValueError("a forest has no trees")
        # the tree that splits on the largest feature names it
        max(self.trees, key=lambda t: int(t.feature.max())).check(n_features)

    def to_payload(self) -> dict:
        return {
            "family": "forest",
            "class_ids": self.class_ids.tolist(),
            "trees": [t.to_payload() for t in self.trees],
        }


def model_from_payload(p: dict):
    """Rebuild a tree (its nodes numbered in preorder) or a forest, as
    read-only arrays, rejecting structures that cannot route every row."""
    class_ids = _frozen(np.array(p["class_ids"], dtype=np.int64))
    if p["family"] == "forest":
        if any(t["family"] != "random" for t in p["trees"]):
            raise ValueError("a forest tree is not a 'random' tree")
        forest = ForestModel(
            tuple(model_from_payload(t) for t in p["trees"]), class_ids
        )
        for tree in forest.trees:
            if not np.isin(tree.class_ids, class_ids).all():
                raise ValueError("a forest tree has class ids outside the forest's")
        return forest
    labels = set(class_ids.tolist())
    nodes = []  # (feature, thresholds, children, leaf, depth)

    def add(node, depth: int) -> int:
        v = len(nodes)
        if "leaf" in node:
            label = int(node["leaf"])
            if label not in labels:
                raise ValueError(f"leaf label {label} is not among class_ids")
            nodes.append((-1, (), [v], label, depth))
            return v
        feature = int(node["feature"])
        if feature < 0:
            raise ValueError(f"split feature {feature} is negative")
        thresholds = tuple(float(t) for t in node["thresholds"])
        if not all(math.isfinite(t) for t in thresholds) or any(
            a >= b for a, b in zip(thresholds, thresholds[1:])
        ):
            raise ValueError(
                f"split thresholds {list(thresholds)} are not finite and "
                f"strictly increasing"
            )
        children = node["children"]
        if len(children) != len(thresholds) + 1:
            raise ValueError(
                f"{len(thresholds)} split thresholds need "
                f"{len(thresholds) + 1} children, found {len(children)}"
            )
        ids = []
        nodes.append((feature, thresholds, ids, 0, depth))
        ids.extend(add(c, depth + 1) for c in children)
        return v

    add(p["root"], 0)
    feature, thresholds, children, leaf, depth = zip(*nodes)
    width = max(1, *map(len, thresholds))
    return TreeModel(*map(_frozen, (
        np.array(feature, dtype=np.int64),
        np.array([t + (math.inf,) * (width - len(t)) for t in thresholds]),
        np.array([c + c[-1:] * (width + 1 - len(c)) for c in children],
                 dtype=np.int64),
        np.array(leaf, dtype=np.int64))), max(depth), class_ids, p["family"],
    )


# ---------------------------------------------------------------------------
# Growth
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowParams:
    max_depth: int
    multiway: bool = False
    bins: int = 4
    subset_size: int | None = None  # random per-node feature subset


@functools.cache
def _cut_layouts(m: int, bins: int):
    """Every choice of 1..bins-1 cuts among m candidates, in scan order.

    The interval end points of a choice are 0 (node start), the chosen
    candidates as 1..m, and m + 1 (node end); intervals are numbered by
    their (start, end) pair in np.triu_indices(m + 2, 1) order. Returns
    those start and end points, one array per cut count whose row r
    lists the intervals of the r-th combination in lexicographic order,
    the last cut of each of those combinations, and, for all
    combinations in that order, the chosen candidates padded with 0 and
    their count. Read-only, because the cache shares them.
    """
    lo, hi = np.triu_indices(m + 2, 1)
    number = np.zeros((m + 2, m + 2), dtype=np.int64)
    number[lo, hi] = np.arange(lo.size)
    intervals, last, picks = [], [], []
    for size in range(1, min(bins, m + 1)):
        combos = np.array(list(itertools.combinations(range(1, m + 1), size)),
                          dtype=np.int64)
        points = np.empty((combos.shape[0], size + 2), dtype=np.int64)
        points[:, 0] = 0
        points[:, 1:-1] = combos
        points[:, -1] = m + 1
        intervals.append(number[points[:, :-1], points[:, 1:]])
        last.append(combos[:, -1])
        padded = np.zeros((combos.shape[0], bins - 1), dtype=np.int64)
        padded[:, :size] = combos
        picks.append(padded)
    picks = np.concatenate(picks)
    counts = (picks > 0).sum(axis=1)
    for a in (lo, hi, *intervals, *last, picks, counts):
        a.flags.writeable = False
    return (lo, hi), list(zip(intervals, last)), picks, counts


def _class_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the first (class) axis in the order np.sum takes.

    np.sum adds the K elements of an axis pairwise: fewer than eight in
    turn; otherwise eight running sums over blocks of eight, combined as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the rest in
    turn; beyond 128 elements, each half alone. Keeping that order keeps
    every mass sum equal to the bit to a sum over a trailing class axis,
    while adding whole arrays of the classes-first layout at a time.
    """
    K = a.shape[0]
    if K < 8:
        return np.add.reduce(a, axis=0)
    if K <= 128:
        r = a[:8]
        for i in range(8, K - K % 8, 8):
            r = r + a[i:i + 8]
        r = r[0::2] + r[1::2]
        out = r[0::2] + r[1::2]
        out = out[0] + out[1]
        for c in range(K - K % 8, K):
            out += a[c]
        return out
    half = K // 2 - K // 2 % 8
    return _class_sum(a[:half]) + _class_sum(a[half:])


def _gini_sum(masses: np.ndarray) -> np.ndarray:
    """Weighted Gini contribution (M^2 - sum_c m_c^2) / M per group.

    masses holds the class masses classes first. This form makes a pure
    group score exactly 0.0, so ties between perfect splits resolve by
    scan order rather than rounding noise. Groups without mass score
    0.0. Overwrites masses.
    """
    s = _class_sum(masses)
    g = s * s
    masses *= masses
    g -= _class_sum(masses)
    return np.divide(g, s, out=np.zeros_like(g), where=s > 0)


class _Grower:
    """Grows trees over the rows of X, a frontier of nodes at a time.

    Each tree owns a range of rows. self.A holds the attribute lists:
    a node owns the columns start..start+size of every row of A, and
    A[f] lists its rows in ascending order of feature f.
    """

    def __init__(self, XT, y_idx, w, n_classes, params: GrowParams):
        """XT holds the features of the rows as (features, rows)."""
        n = XT.shape[1]
        self.n = n
        self.XT = np.ascontiguousarray(XT, dtype=np.float64)
        # row n (class 0) weighs nothing: padded positions read it
        self.y = np.append(y_idx, 0)
        self.K = n_classes
        self.p = params
        self.w = np.append(w, 0.0)
        self.A = np.empty_like(self.XT, dtype=np.int64)
        self.scratch = np.empty(n, dtype=np.int64)
        # per node, in creation order (children after their parent)
        self.start, self.size, self.depth, self.tree = [], [], [], []
        self.min_leaf = None  # per tree: nodes at or below this mass stop
        self.label = []  # class index with the largest mass
        # per batch of split nodes: their ids, features, thresholds and
        # child ids, both padded as in TreeModel
        self.splits = []

    def grow(self, bounds, min_leaf, prngs=None) -> None:
        """Grow one tree on each (lo, hi) row range; tree t's root is
        node t.

        bounds must cover the rows in order. A node of tree t stops at a
        weight mass of at most min_leaf[t]. With prngs, tree t draws its
        nodes' feature subsets from prngs[t].
        """
        self.min_leaf = np.asarray(min_leaf, dtype=np.float64)
        for lo, hi in bounds:
            self.A[:, lo:hi] = lo + np.argsort(self.XT[:, lo:hi], axis=1,
                                               kind="stable")
        sizes = [hi - lo for lo, hi in bounds]
        _, todo = self._admit(
            self.A[0], np.repeat(np.arange(len(bounds)), sizes),
            [lo for lo, _ in bounds], sizes, [0] * len(bounds),
            list(range(len(bounds))),
        )
        d = self.XT.shape[0]
        if prngs is None:
            feats = np.arange(d)
            while todo:
                level, todo = todo, []
                for chunk in self._chunks(level, d):
                    todo += self._step(chunk, np.tile(feats, (len(chunk), 1)))
            return
        stacks = [[] for _ in bounds]
        for v in reversed(todo):
            stacks[self.tree[v]].append(v)
        while batch := [s.pop() for s in stacks if s]:
            m = self.p.subset_size
            feats = {v: sorted(prngs[self.tree[v]].sample_indices(d, m))
                     for v in batch}
            for chunk in self._chunks(batch, m):
                todo = self._step(chunk, np.array([feats[v] for v in chunk]))
                for v in reversed(todo):
                    stacks[self.tree[v]].append(v)

    def _chunks(self, nodes, m):
        """Split a step's nodes into batches that waste little padding.

        Nodes go largest first and a batch pads every node to its first
        node's size. A batch closes before its padding would cost more
        than _PAD_WORK, or its padded rows would pass _STEP_ROWS. A
        padded (row x candidate feature) cell costs one mass per class.
        """
        nodes = sorted(nodes, key=self.size.__getitem__, reverse=True)
        cell = m * self.K
        chunk, waste = [], 0
        for v in nodes:
            if chunk:
                top = self.size[chunk[0]]
                waste += (top - self.size[v]) * cell
                if waste > _PAD_WORK or (len(chunk) + 1) * top > _STEP_ROWS:
                    yield chunk
                    chunk, waste = [], 0
            chunk.append(v)
        yield chunk

    def _admit(self, rows, owner, starts, sizes, depths, trees):
        """Record new nodes; return their ids and those still to search.

        rows lists the new nodes' rows, each node's in feature-0 order,
        and owner[i] is the new node (0, 1, ...) that rows[i] belongs to,
        so one bincount sums every node's class masses in the order a
        bincount of that node alone would. starts, sizes, depths and
        trees are lists with one entry per new node.
        """
        count, K = len(starts), self.K
        masses = np.bincount(
            owner * K + self.y[rows], weights=self.w[rows], minlength=count * K,
        ).reshape(count, K)
        grows = (
            (masses.sum(axis=1) > self.min_leaf[trees])
            & ((masses > 0).sum(axis=1) > 1)
        ).tolist()
        first = len(self.label)
        self.label += masses.argmax(axis=1).tolist()
        self.start += starts
        self.size += sizes
        self.depth += depths
        self.tree += trees
        ids = range(first, first + count)
        return ids, [v for v, g, d in zip(ids, grows, depths)
                     if g and d < self.p.max_depth]

    def _step(self, nodes, feats) -> list[int]:
        """Search and split a batch of nodes; return children to search.

        feats[i] lists node i's candidate features in ascending order.
        """
        N, m = feats.shape
        B = N * m
        size_list = [self.size[v] for v in nodes]
        n = max(size_list)
        sizes = np.array(size_list, dtype=np.int64)
        pos = np.arange(n)
        real = pos < sizes[:, None]
        # padding repeats each node's last row in every value order, and
        # reads its weight from the zero row
        col = np.minimum(pos, sizes[:, None] - 1)
        col += np.array([self.start[v] for v in nodes])[:, None]
        sub = self.A[feats[:, :, None], col[:, None, :]].reshape(B, n)
        vals = self.XT[feats.reshape(B, 1), sub]
        wsub = sub
        if min(size_list) < n:
            wsub = np.where(real.repeat(m, axis=0), sub, self.n)
        if self.p.multiway:
            found = self._best_multiway(vals, wsub,
                                        self.w[wsub].cumsum(axis=1), N)
        else:
            found = self._best_binary(vals, self._mass_scores(wsub), N)
        split, win, thresholds, ends, n_thr = found
        if not split.all():
            idx = np.flatnonzero(split)
            if idx.size == 0:
                return []
            nodes = [nodes[i] for i in idx.tolist()]
            win, thresholds, ends = win[idx], thresholds[idx], ends[idx]
            n_thr, col, real = n_thr[idx], col[idx], real[idx]
        # label the rows of each split node with their child, numbered
        # across the batch: in the winning row's order, child i holds the
        # positions from ends[i - 1] up to ends[i] (padding repeats the
        # last row, with the same label); then sort every attribute list
        # of the split nodes' columns by child. A stable sort keeps each
        # child's rows in feature order, inside its parent's columns; it
        # runs as a radix sort when the child numbers fit 16 bits.
        n_children = n_thr + 1
        first_child = n_children.cumsum() - n_children
        label = (ends[:, None, :] <= pos[:, None]).sum(axis=2)
        label += first_child[:, None]
        self.scratch[sub[win]] = label
        cols = col[real]
        block = self.A[:, cols]
        keys = self.scratch[block]
        if n_children.sum() <= 1 << 16:
            keys = keys.astype(np.uint16)
        perm = keys.argsort(axis=1, kind="stable")
        block = block[np.arange(block.shape[0])[:, None], perm]
        self.A[:, cols] = block
        owner = self.scratch[block[0]]
        fanout = n_children.tolist()
        child_sizes = np.bincount(owner, minlength=sum(fanout))
        child_cols = cols[child_sizes.cumsum() - child_sizes]
        parents = [v for v, k in zip(nodes, fanout) for _ in range(k)]
        ids, todo = self._admit(
            block[0], owner, child_cols.tolist(), child_sizes.tolist(),
            [self.depth[v] + 1 for v in parents],
            [self.tree[v] for v in parents],
        )
        kids = np.minimum(np.arange(thresholds.shape[1] + 1), n_thr[:, None])
        self.splits.append((nodes, feats.ravel()[win], thresholds,
                            ids.start + first_child[:, None] + kids))
        return todo

    def _mass_scores(self, sub):
        """Gini score of every binary cut of every row of a batch.

        score[r, i] scores the cut after the first i + 1 rows of row r
        of sub, from its class masses. Rows are scored a tile at a time,
        which keeps the (classes, rows, positions) arrays in cache.
        """
        B, n = sub.shape
        score = np.empty((B, n - 1), dtype=np.float64)
        tile = max(1, _TILE_CELLS // n)
        pos = np.arange(n)
        for r in range(0, B, tile):
            rows = sub[r:r + tile]
            # masses[c, 0, r, i]: class c's mass in the first i + 1 rows
            # of row r (left of cut i); masses[c, 1, r, i]: in the others.
            # Each row's weight is put at its class, the other classes
            # holding 0.0, and summed up in place.
            masses = np.empty((self.K, 2) + rows.shape, dtype=np.float64)
            left = masses[:, 0]
            left.fill(0.0)
            left[self.y[rows], np.arange(rows.shape[0])[:, None], pos] = \
                self.w[rows]
            np.cumsum(left, axis=-1, out=left)
            np.subtract(masses[:, 0, :, -1:], masses[:, 0], out=masses[:, 1])
            gini = _gini_sum(masses)
            np.add(gini[0, :, :-1], gini[1, :, :-1], out=score[r:r + tile])
        return score

    @staticmethod
    def _best_binary(vals, score, N):
        """Best single threshold of each of N nodes over its features.

        vals and score (from _mass_scores) hold each node's m candidate
        features as m consecutive rows. Returns per node: whether it
        splits, its winning row, its threshold and the number of rows at
        or below it in that row (both as 1-column arrays), and its
        threshold count.
        """
        B, n = vals.shape
        score[vals[:, 1:] == vals[:, :-1]] = np.inf
        score = score.reshape(N, -1)
        best = score.argmin(axis=1)
        j, i = np.divmod(best, n - 1)
        win = np.arange(0, B, B // N) + j
        lo, hi = vals[win, i], vals[win, i + 1]
        t = (lo + hi) / 2.0
        t = np.where(t >= hi, lo, t)  # midpoint collapsed upward in float
        return (np.isfinite(score.min(axis=1)), win, t[:, None],
                i[:, None] + 1, np.ones(N, dtype=np.int64))

    def _best_multiway(self, vals, sub, wcum, N):
        """Best interval partition of each of N nodes over its features.

        sub holds the rows of vals (padding as the zero-weight row n).
        Returns as _best_binary, with thresholds padded with +inf.
        """
        B, n = vals.shape
        bins = self.p.bins
        # per row: the value at each weighted quantile, i.e. at
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
            return (np.zeros(N, dtype=bool),) + (None,) * 4
        # row r's candidates in ascending order in cand[r, :n_cand[r]]
        first = np.argsort(~keep, axis=1, kind="stable")[:, :top]
        cand = np.take_along_axis(grid, first, axis=1)
        # prefix row of each interval end: 0 (node start), just past the
        # last row at or below each candidate, n (node end)
        ends = np.empty((B, top + 2), dtype=np.int64)
        ends[:, 0] = 0
        ends[:, 1:-1] = (vals[:, :, None] <= cand[:, None, :]).sum(axis=1)
        ends[:, -1] = n
        # points[c, r, p]: class c's mass in the first ends[r, p] rows of
        # row r, from one class's running sums at a time
        points = np.empty((self.K, B, top + 2))
        cum = np.zeros((B, n + 1))
        y, w = self.y[sub], self.w[sub]
        for c in range(self.K):
            np.cumsum(np.where(y == c, w, 0.0), axis=1, out=cum[:, 1:])
            points[c] = np.take_along_axis(cum, ends, axis=1)
        (lo, hi), layouts, picks, counts = _cut_layouts(top, bins)
        # scores[r, k]: score of row r's k-th combination, a tile of rows
        # at a time, so that the class masses of their intervals stay
        # within _TILE_CELLS (row x interval) cells
        scores = np.empty((B, picks.shape[0]))
        tile = max(1, _TILE_CELLS // lo.size)
        for r in range(0, B, tile):
            rows = slice(r, r + tile)
            # gini[r, p]: score of row r's p-th interval, between points
            # lo[p] and hi[p]
            gini = _gini_sum(points[:, rows, hi] - points[:, rows, lo])
            k = 0
            for intervals, last in layouts:
                s = scores[rows, k:k + last.size]
                np.sum(gini[:, intervals], axis=-1, out=s)
                # a combination that uses a padding candidate is no cut
                s[last[None, :] > n_cand[rows, None]] = np.inf
                k += last.size
        # row-major first minimum per node: lowest feature, then fewest
        # intervals, then the lexicographically first combination
        scores = scores.reshape(N, -1)
        best = scores.argmin(axis=1)
        j, combo = np.divmod(best, picks.shape[0])
        win = np.arange(0, B, B // N) + j
        chosen = picks[combo]
        used = chosen > 0
        thresholds = np.where(used, cand[win[:, None], chosen - 1], np.inf)
        # rows at or below each threshold; n (none) for unused slots
        return (np.isfinite(scores.min(axis=1)), win, thresholds,
                np.where(used, ends[win[:, None], chosen], n), counts[combo])

    def trees(self, class_ids) -> list[tuple]:
        """The node arrays of every grown tree (see TreeModel), leaves as
        activity ids. A tree keeps its nodes in creation order, so its
        root, node t of tree t, comes first."""
        n = len(self.label)
        # every batch pads to one width: 1, or bins - 1 for multiway
        width = self.splits[0][2].shape[1] if self.splits else 1
        feature = np.full(n, -1, dtype=np.int64)
        thresholds = np.full((n, width), np.inf)
        children = np.repeat(np.arange(n)[:, None], width + 1, axis=1)
        for nodes, f, t, kids in self.splits:
            feature[nodes], thresholds[nodes], children[nodes] = f, t, kids
        tree = np.array(self.tree)
        order = np.argsort(tree, kind="stable")
        pos = np.empty(n, dtype=np.int64)
        pos[order] = np.arange(n)
        children = pos[children] - pos[tree][:, None]  # ids within a tree
        leaf = np.where(feature < 0, class_ids[self.label], 0)
        depth = np.array(self.depth)
        return [
            (feature[rows], thresholds[rows], children[rows], leaf[rows],
             int(depth[rows].max()))
            for rows in np.split(order, pos[1:self.min_leaf.size])
        ]


# ---------------------------------------------------------------------------
# Family entry points
# ---------------------------------------------------------------------------


def _class_groups(datasets) -> list[tuple[np.ndarray, list[int]]]:
    """Indices of the datasets grouped by class set, with its class ids.

    Trees grow together only on a shared class axis. A class missing
    from one dataset's labels would add zero masses to its float weight
    sums, which changes _class_sum's pairwise grouping and so the last
    bit of its Gini scores; datasets with different class sets therefore
    grow apart.
    """
    groups = {}
    for i, ds in enumerate(datasets):
        ids = np.unique(ds.labels)
        groups.setdefault(ids.tobytes(), (ids, []))[1].append(i)
    return list(groups.values())


def _grow_together(class_ids, blocks, params, prngs=None):
    """Grow one tree per (dataset, rows, weights, min_leaf_weight) block,
    each on the dataset's rows (an index array or a slice) as a row range
    of its own; return each tree's node arrays (see _Grower.trees), in
    block order. The blocks share a grower in as few contiguous runs as
    keep each near _GROW_ROWS rows, which bounds a grower's arrays."""
    total = sum(ds.labels[rows].size for ds, rows, _, _ in blocks)
    runs = min(len(blocks), -(-total // _GROW_ROWS))
    trees = []
    for run in np.array_split(np.arange(len(blocks)), runs):
        part = [blocks[i] for i in run]
        labels = [ds.labels[rows] for ds, rows, _, _ in part]
        sizes = np.array([y.size for y in labels])
        ends = sizes.cumsum()
        grower = _Grower(
            np.concatenate([ds.features[rows].T for ds, rows, _, _ in part],
                           axis=1),
            np.searchsorted(class_ids, np.concatenate(labels)),
            np.concatenate([w for _, _, w, _ in part]),
            len(class_ids), params,
        )
        grower.grow(
            list(zip((ends - sizes).tolist(), ends.tolist())),
            [m for _, _, _, m in part],
            None if prngs is None else [prngs[i] for i in run],
        )
        trees += grower.trees(class_ids)
    return trees


def fit_trees(datasets, weights, seeds, max_depth, min_leaf_weight,
              kind="tree", bins=4, subset_size=None) -> list[TreeModel]:
    """One tree per (dataset, weights, seed), each as it grows alone.

    Datasets with the same class set grow through one grower, one row
    range each. With subset_size, tree i draws its feature subsets from
    SplitMix64(seeds[i]).
    """
    params = GrowParams(max_depth=max_depth, multiway=(kind == "multiway"),
                        bins=bins, subset_size=subset_size)
    out = [None] * len(datasets)
    for class_ids, members in _class_groups(datasets):
        prngs = None
        if subset_size is not None:
            prngs = [SplitMix64(seeds[i]) for i in members]
        grown = _grow_together(class_ids, [
            (datasets[i], slice(None), np.asarray(weights[i], dtype=np.float64),
             min_leaf_weight)
            for i in members
        ], params, prngs)
        for i, nodes in zip(members, grown):
            out[i] = TreeModel(*nodes, class_ids, kind)
    return out


def bootstrap_counts(prng: SplitMix64, cum: np.ndarray) -> np.ndarray:
    """How often each row is picked in len(cum) draws with replacement.

    cum is the running sum of the row probabilities. Draw u picks the
    first row whose running sum exceeds u (the last row if rounding
    leaves none); the draws consume len(cum) floats of prng.
    """
    n = cum.size
    picks = np.searchsorted(cum, prng.next_floats(n), side="right")
    return np.bincount(np.minimum(picks, n - 1), minlength=n)


def fit_forests(datasets, weights, seeds, n_trees, max_depth,
                min_leaf_weight, subset_size) -> list[ForestModel]:
    """One seeded weighted bootstrap forest of random trees per
    (dataset, weights, seed).

    Tree i draws N rows with replacement, with probability proportional
    to w, from a SplitMix64 stream seeded by derive_seed(seed, i); the
    same stream then drives that tree's per-node feature subsets. Each
    tree trains on its resample with integer multiplicity weights (an
    exact, scale-equivalent form of counts/N: all Gini mass arithmetic
    stays exact, so split ties resolve by scan order, not rounding), and
    its nodes stop at a mass of at most min_leaf_weight * N. Trees vote
    unweighted; ties go to the lower class id.

    The trees of every forest whose dataset has the same class set grow
    together through one grower, one row range per (forest, tree), on
    that class axis. A tree's resample may lack some classes, which then
    add zero masses to its sums; that leaves every sum and Gini score
    bit-identical only because the masses are integer counts, which
    floats add exactly in any order.
    """
    params = GrowParams(max_depth=max_depth, subset_size=subset_size)
    out = [None] * len(datasets)
    for class_ids, members in _class_groups(datasets):
        blocks, prngs, picked = [], [], []
        for i in members:
            ds, w = datasets[i], np.asarray(weights[i], dtype=np.float64)
            cum = np.cumsum(w / w.sum())
            for t in range(n_trees):
                prng = SplitMix64(derive_seed(seeds[i], t))
                counts = bootstrap_counts(prng, cum)
                rows = np.flatnonzero(counts > 0)
                blocks.append((ds, rows, counts[rows].astype(np.float64),
                               min_leaf_weight * ds.n_rows))
                prngs.append(prng)
                picked.append(np.unique(ds.labels[rows]))
        grown = _grow_together(class_ids, blocks, params, prngs)
        for j, i in enumerate(members):
            trees = range(j * n_trees, (j + 1) * n_trees)
            out[i] = ForestModel(
                tuple(TreeModel(*grown[t], picked[t], "random")
                      for t in trees),
                class_ids,
            )
    return out
