"""k-nearest-neighbor classifier with weighted neighbor voting.

Distances are plain Euclidean over the numeric features. The k nearest
stored rows vote with their stored training weights; distance ties are
broken toward the lower stored-row index and vote ties toward the lower
class id. When a query equals a stored row (e.g. evaluating training
rows), that row participates in its own neighbor set.

A neighbor table lists each query's neighbors nearest first, in
(squared distance, stored-row index) order, and votes add in that order.
Within fold_scope, a cross-validation's tables are read from one ranking
of all its rows: a fold's training rows are all rows but the fold's, so
a query's neighbors among them are its ranking row without the fold's
rows. A BLAS may sum a product in another order for another shape, so a
table row is read so only where no such order could change it.
"""

from __future__ import annotations

import contextlib
import functools
from contextvars import ContextVar
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..numerics import FieldPayload, _frozen, check_array, check_rows

_BLOCK = 1024
# distance cells a table pass partitions at once: 1 MB of float64, so the
# partition and the tie count read a pass from cache
_PASS_CELLS = 1 << 17


@dataclass(frozen=True)
class KnnModel(FieldPayload):
    family: ClassVar[str] = "knn"
    rows: np.ndarray       # (n, d) stored training rows
    labels: np.ndarray     # (n,) activity ids
    weights: np.ndarray    # (n,) vote weights, stored as passed to fit
    k: int
    class_ids: np.ndarray  # ascending distinct ids present at fit time

    def label_indices(self) -> np.ndarray:
        """Stored labels as compact indices into class_ids."""
        return np.searchsorted(self.class_ids, self.labels)

    def predict_batch(self, X) -> np.ndarray:
        return self.round_scorer(X)(self)

    def round_scorer(self, X):
        """score(m) -> m's predictions for X. Neighbor sets do not depend
        on vote weights, so every k-NN model over these same stored rows
        and k votes through one neighbor table of X; any other model
        predicts on its own."""
        X = _check_queries(X, self.rows.shape[1])
        table = table_for(self.rows, X, self.k)

        def score(m) -> np.ndarray:
            if not (isinstance(m, KnnModel) and m.rows is self.rows
                    and m.k == self.k):
                return m.predict_batch(X)
            scores = vote_scores(
                table, m.label_indices(), m.weights, len(m.class_ids)
            )
            return m.class_ids[scores.argmax(axis=1)]

        return score

    def check(self, n_features: int) -> None:
        if isinstance(self.k, bool) or not isinstance(self.k, int):
            # worded as a model file's type errors: k is a payload value
            raise ValueError(f"model: k is {self.k!r}, not a JSON integer")
        n = check_rows("rows", self.rows, n_features)
        check_array("weights", self.weights, (n,))
        if not np.isin(self.labels, self.class_ids).all():
            raise ValueError("a row label is not among class_ids")
        if self.labels.shape != (n,) or not 1 <= self.k <= n:
            raise ValueError(f"{self.labels.size} labels and k={self.k} "
                             f"for {n} stored rows")


def _check_queries(X, d: int) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != d:
        raise ValueError(f"query matrix has shape {X.shape}, expected (*, {d})")
    return X


def fit_knn(ds, w, k: int) -> KnnModel:
    rows = _frozen(np.asarray(ds.features, dtype=np.float64))
    labels = _frozen(np.asarray(ds.labels, dtype=np.int64))
    weights = _frozen(np.asarray(w, dtype=np.float64))
    return KnnModel(rows, labels, weights, k, np.unique(labels))


def neighbor_table(rows: np.ndarray, queries: np.ndarray, k: int,
                   distances: np.ndarray | None = None) -> np.ndarray:
    """(n_queries, k) indices of each query's k nearest stored rows.

    A row of the table is the query's first k stored rows in (squared
    distance, row index) order, in that order: votes add their weights
    in table order. At k == n every row is 0..n-1 in index order.
    distances, an (n_queries, k) float64 array for a k below n, receives
    each entry's squared distance.

    Each block of _BLOCK queries takes one product with the stored rows
    (a block's shape fixes the product's bits), which becomes squared
    distances in place, (q_sq - 2 g) + row_sq clipped at 0, and is
    partitioned a pass of about _PASS_CELLS cells at a time.
    """
    n = rows.shape[0]
    if k > n:
        raise ValueError(f"k={k} exceeds the {n} stored rows")
    if k == n:
        if distances is not None:
            raise ValueError("distances are kept only for a k below n")
        return np.tile(np.arange(n), (queries.shape[0], 1))
    row_sq = np.einsum("ij,ij->i", rows, rows)
    out = np.empty((queries.shape[0], k), dtype=np.int64)
    if distances is None:
        distances = np.empty(out.shape)
    for start in range(0, queries.shape[0], _BLOCK):
        q = queries[start:start + _BLOCK]
        # no name holds the product, so it is freed before the next block's
        _block_table(q @ rows.T, np.einsum("ij,ij->i", q, q), row_sq,
                     out[start:start + _BLOCK],
                     distances[start:start + _BLOCK])
    return out


def _block_table(d2, q_sq, row_sq, out, dist) -> None:
    """Fill out, (m, k), and dist, its squared distances, from d2, the
    (m, n) products of m queries with the stored rows, overwriting d2
    with squared distances."""
    k = out.shape[1]
    step = max(1, _PASS_CELLS // d2.shape[1])
    le = np.empty((min(step, d2.shape[0]), d2.shape[1]), dtype=bool)
    for s in range(0, d2.shape[0], step):
        d = d2[s:s + step]
        # -2 g + q_sq has the bits of q_sq - 2 g: scaling by -2 is exact
        d *= -2.0
        d += q_sq[s:s + step, None]
        d += row_sq
        np.maximum(d, 0.0, out=d)
        part = np.argpartition(d, k - 1, axis=1)[:, :k]
        kth = np.take_along_axis(d, part[:, -1:], axis=1)[:, 0]
        at_most = np.less_equal(d, kth[:, None], out=le[:len(d)])
        n_le = np.add.reduce(at_most.view(np.uint8), axis=1, dtype=np.int32)
        block = out[s:s + step]
        block[:] = part
        for i in np.flatnonzero(n_le > k):
            # boundary tie: keep strictly-closer rows, fill the remainder
            # with the lowest-index rows at the boundary distance
            di = d[i]
            closer = np.flatnonzero(di < kth[i])
            at = np.flatnonzero(di == kth[i])[: k - closer.size]
            block[i] = np.concatenate([closer, at])
        # (distance, index) order: index-sorted, then stably by distance
        block.sort(axis=1)
        near = np.take_along_axis(d, block, axis=1)
        order = near.argsort(axis=1, kind="stable")
        block[:] = np.take_along_axis(block, order, axis=1)
        dist[s:s + step] = np.take_along_axis(near, order, axis=1)


@dataclass
class _Ranking:
    """One fold_scope's ranking of features, built on first use, after
    the first fit has checked k."""

    features: np.ndarray
    parts: list
    depth: int

    def rows_of(self, a):
        # by identity: an equal array elsewhere may hold other rows
        return next((rows for part, rows in self.parts if part is a), None)

    @functools.cached_property
    def ranked(self):
        """(table, dist, slack). Row i of table: the first `depth` rows
        of features in (squared distance, row index) order from row i,
        over all rows; dist: their squared distances; slack[i]: twice a
        bound on how far two evaluations of one of row i's squared
        distances, (q_sq - 2 g) + r_sq over d features, can differ when
        their dot products are summed in other orders. In each, g, q_sq
        and r_sq are within d eps / 2 times the sum of their terms'
        magnitudes of the exact values, and the two additions round by
        at most 2 eps (q_sq + r_sq), so two differ by at most
        (2 d + 4) eps (q_sq + r_sq), r_sq being at most the largest."""
        X = self.features
        dist = np.empty((len(X), self.depth))
        table = neighbor_table(X, X, self.depth, dist)
        sq = np.einsum("ij,ij->i", X, X)
        eps = np.finfo(np.float64).eps
        return table, dist, (4 * X.shape[1] + 16) * eps * (sq + sq.max())


#: The ranking of the fold_scope block this context runs in, if any.
_ranking: ContextVar[_Ranking | None] = ContextVar("knn_ranking", default=None)


@contextlib.contextmanager
def fold_scope(features, folds: int, parts, k: int):
    """Within the block, table_for reads the tables of k-NN models that
    store, and are asked about, arrays of parts from one ranking of
    features, dropped when the block ends.

    parts pairs each array the folds of a `folds`-fold cross-validation
    fit or predict on (training features, test matrices) with its rows
    of features, ascending. A ranking row holds 2 (k + ceil(k / (folds -
    1))) + 16 rows (at most n - 1): a fold drops about 1/folds of them,
    which leaves k + 1 for all but about one query in a million.
    """
    depth = min(2 * (k + -(-k // (folds - 1))) + 16, len(features) - 1)
    token = _ranking.set(_Ranking(features, parts, depth))
    try:
        yield
    finally:
        _ranking.reset(token)


def table_for(rows, queries, k: int) -> np.ndarray:
    """neighbor_table(rows, queries, k), read from the fold_scope ranking
    when rows and queries are both among its parts.

    Stored rows in ascending order keep the ranking's index order, so a
    query's k nearest of them are the first k of its ranking row that
    they hold, when the first k + 1 are each more than twice the slack
    farther than the last: then no order of summing the products could
    change the set or its order. A block of _BLOCK queries holding any
    other query is built by neighbor_table, as in the whole table.
    """
    ranking = _ranking.get()
    stored = ranking and ranking.rows_of(rows)
    asked = ranking and ranking.rows_of(queries)
    if stored is None or asked is None or k >= len(stored):
        return neighbor_table(rows, queries, k)
    table, dist, slack = ranking.ranked
    position = np.full(len(table), -1)
    position[stored] = np.arange(len(stored))
    held = position[table[asked]]
    first = (held >= 0) & (np.cumsum(held >= 0, axis=1) <= k + 1)
    full = first.sum(axis=1) > k
    gaps = np.diff(dist[asked[full]][first[full]].reshape(-1, k + 1), axis=1)
    sure = np.zeros(len(asked), dtype=bool)
    sure[full] = (gaps > 2 * slack[asked[full], None]).all(axis=1)
    out = np.empty((len(asked), k), dtype=np.int64)
    out[sure] = held[sure][first[sure]].reshape(-1, k + 1)[:, :k]
    for start in np.unique(np.flatnonzero(~sure) // _BLOCK) * _BLOCK:
        out[start:start + _BLOCK] = neighbor_table(
            rows, queries[start:start + _BLOCK], k)
    return out


def vote_scores(table, label_idx, weights, n_classes: int) -> np.ndarray:
    """Summed vote weight per class for each query's neighbor set, added
    in table order."""
    nq = table.shape[0]
    cells = np.arange(nq)[:, None] * n_classes + label_idx[table]
    return np.bincount(
        cells.ravel(), weights=weights[table].ravel(), minlength=nq * n_classes
    ).reshape(nq, n_classes)
