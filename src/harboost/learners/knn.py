"""k-nearest-neighbor classifier with weighted neighbor voting.

Distances are plain Euclidean over the numeric features. A squared
distance is the sum of (q_f - r_f)^2 over the features in column order,
so it depends on the two rows' values alone. The k nearest stored rows
vote with their stored training weights; distance ties are broken toward
the lower stored-row index and vote ties toward the lower class id. When
a query equals a stored row (e.g. evaluating training rows), that row
participates in its own neighbor set.

A neighbor table lists each query's neighbors nearest first, in
(squared distance, stored-row index) order, and votes add in that order.
A matrix product only narrows the stored rows down: its estimates are
within a rounding bound of the distances, which order every query the
estimates leave in doubt. Within fold_scope, a cross-validation's tables
are read from one ranking of all its rows: a fold's training rows are
all rows but the fold's, so a query's neighbors among them are its
ranking row without the fold's rows.
"""

from __future__ import annotations

import contextlib
import functools
from contextvars import ContextVar
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..numerics import FieldPayload, _frozen, check_array, check_rows

# distance estimates a table pass holds at once: 1 MB of float64, so the
# partition and the candidate count read a pass from cache
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
        (the same array), k, labels and class ids votes through one
        neighbor table of X and its vote cells; any other model predicts
        on its own."""
        X = _check_queries(X, self.rows.shape[1])
        table = table_for(self.rows, X, self.k)
        cells = vote_cells(table, self.label_indices(), len(self.class_ids))

        def score(m) -> np.ndarray:
            if not (isinstance(m, KnnModel) and m.rows is self.rows
                    and m.k == self.k
                    and np.array_equal(m.labels, self.labels)
                    and np.array_equal(m.class_ids, self.class_ids)):
                return m.predict_batch(X)
            scores = vote_scores(table, cells, m.weights, len(m.class_ids))
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


def neighbor_table(rows: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """(n_queries, k) indices of each query's k nearest stored rows.

    A row of the table is the query's first k stored rows in (squared
    distance, row index) order, in that order: votes add their weights
    in table order. The squared distance is the fixed-order sum of
    (q_f - r_f)^2 over the features in column order. At k == n every row
    is 0..n-1 in index order.

    A pass of _PASS_CELLS // n queries estimates its distances by one
    product, [q, 1, q.q] @ [-2 r; r.r; 1], and partitions a copy for each
    k-th estimate. An estimate is within slack of its distance, so only a
    row estimated within 2 slack of the k-th can be among the k nearest.
    A query with exactly k such rows, more than 2 slack apart, keeps their
    estimated order; any other query ranks them by their distances.
    """
    n, d = rows.shape
    if k > n:
        raise ValueError(f"k={k} exceeds the {n} stored rows")
    if k == n:
        return np.tile(np.arange(n), (queries.shape[0], 1))
    row_sq = np.einsum("ij,ij->i", rows, rows)
    q_sq = np.einsum("ij,ij->i", queries, queries)
    # slack: a bound on |estimate - distance| per query. With u = eps / 2,
    # gamma_m = m u / (1 - m u) (Higham, Accuracy and Stability of
    # Numerical Algorithms, 2nd ed., sec. 3.1) and Q, R, G the exact q.q,
    # r.r and q.r, the exact distance D* = Q - 2 G + R is at most 2 (Q + R).
    # - The fixed-order sum: a term's difference and square scale it by
    #   (1 + d1)^2 (1 + d2), and it meets at most d - 1 rounded additions,
    #   so the sum is within gamma_{d+2} D* <= 2 gamma_{d+2} (Q + R) of D*.
    # - The estimate is a dot product of d + 2 terms: q_f (-2 r_f) (an exact
    #   scaling), of magnitudes summing to at most Q + R, and the computed
    #   q.q and r.r, within gamma_d of Q and R. So it is within
    #   (2 gamma_{d+2} + gamma_d) (Q + R) of D*.
    # The two differ by at most (5 d + 8) u (Q + R) to first order. c = 5
    # doubles that, which covers the higher-order terms, Q + R against the
    # computed q_sq + max r_sq and the rounding of the tests against slack
    # below, while d u < 0.01. Outside this model, each of the 5 d products
    # and squares that can underflow errs by half the smallest subnormal at
    # most: the second term.
    slack = (5 * (d + 2) * np.finfo(np.float64).eps * (q_sq + row_sq.max())
             + 3 * d * np.finfo(np.float64).smallest_subnormal)
    stored = np.vstack([rows.T, row_sq, np.ones(n)])
    stored[:d] *= -2.0
    out = np.empty((queries.shape[0], k), dtype=np.int64)
    step = max(1, _PASS_CELLS // n)
    m = min(step, queries.shape[0])
    asked, marks = np.ones((m, d + 2)), np.empty((m, n), bool)
    est, part_est = np.empty((2, m, n))
    for s in range(0, queries.shape[0], step):
        q = queries[s:s + step]
        a = asked[:len(q)]
        a[:, :d], a[:, d + 1] = q, q_sq[s:s + step]
        e = np.matmul(a, stored, out=est[:len(q)])
        part = part_est[:len(q)]
        part[:] = e
        part.partition(k - 1, axis=1)
        bound = part[:, k - 1] + 2 * slack[s:s + step]
        cand = np.less_equal(e, bound[:, None], out=marks[:len(q)])
        cand[~np.isfinite(bound)] = True
        n_cand = np.add.reduce(cand.view(np.uint8), axis=1, dtype=np.int32)
        one = np.flatnonzero(n_cand == k)
        # the k columns of each query with k candidates, in index order
        cols = np.flatnonzero(cand[one]).reshape(-1, k)
        cols -= (np.arange(len(one)) * n)[:, None]
        near = e[one[:, None], cols]
        order = near.argsort(axis=1)
        gaps = np.diff(np.take_along_axis(near, order, axis=1), axis=1)
        sure = (gaps > 2 * slack[s + one, None]).all(axis=1)
        block = out[s:s + step]
        block[one[sure]] = np.take_along_axis(cols[sure], order[sure], axis=1)
        n_cand[one[sure]] = 0  # any other query has at least k candidates
        redo = np.flatnonzero(n_cand)
        if redo.size:
            block[redo] = _rank_candidates(rows, q[redo], cand[redo], k)
    return out


def _rank_candidates(rows, queries, cand, k: int) -> np.ndarray:
    """(len(queries), k): the first k stored rows that cand marks for
    each query, in (fixed-order squared distance, row index) order."""
    qi, j = np.nonzero(cand)
    dist = np.zeros(qi.size)
    for f in range(rows.shape[1]):
        t = queries[qi, f] - rows[j, f]
        dist += t * t
    # qi ascends, so a query's candidates keep their span of the sort
    order = np.lexsort((j, dist, qi))
    start = np.searchsorted(qi, np.arange(len(queries)))
    return j[order[start[:, None] + np.arange(k)]]


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
    def ranked(self) -> np.ndarray:
        """Row i: the first `depth` rows of features in (squared
        distance, row index) order from row i, over all rows."""
        return neighbor_table(self.features, self.features, self.depth)


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
    which leaves k for all but about one query in a million.
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

    Stored rows in ascending order keep the ranking's index order, and a
    distance depends on the two rows' values alone, so a query's k
    nearest stored rows are the first k of its ranking row that they
    hold. neighbor_table builds the rows of queries whose ranking row
    holds fewer.
    """
    ranking = _ranking.get()
    stored = ranking and ranking.rows_of(rows)
    asked = ranking and ranking.rows_of(queries)
    if stored is None or asked is None or k >= len(stored):
        return neighbor_table(rows, queries, k)
    position = np.full(len(ranking.features), -1)
    position[stored] = np.arange(len(stored))
    held = position[ranking.ranked[asked]]
    kept = held >= 0
    count = kept.sum(axis=1)
    short = count < k
    # each query's held columns are one span of the row-major flatnonzero
    first = np.flatnonzero(kept)[(count.cumsum() - count)[~short, None]
                                 + np.arange(k)]
    out = np.empty((len(asked), k), dtype=np.int64)
    out[~short] = held.ravel()[first]
    if short.any():
        out[short] = neighbor_table(rows, queries[short], k)
    return out


def vote_cells(table, label_idx, n_classes: int) -> np.ndarray:
    """Each vote's flat score cell, query * n_classes + class index."""
    cells = label_idx[table]
    cells += np.arange(table.shape[0])[:, None] * n_classes
    return cells.ravel()


def vote_scores(table, cells, weights, n_classes: int):
    """Summed vote weight per class for each query's neighbor set, added
    in table order; cells are vote_cells of the table."""
    nq = table.shape[0]
    return np.bincount(
        cells, weights=weights[table].ravel(), minlength=nq * n_classes
    ).reshape(nq, n_classes)
