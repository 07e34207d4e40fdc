"""k-nearest-neighbor classifier with weighted neighbor voting.

Distances are plain Euclidean over the numeric features. The k nearest
stored rows vote with their stored training weights; distance ties are
broken toward the lower stored-row index and vote ties toward the lower
class id. When a query equals a stored row (e.g. evaluating training
rows), that row participates in its own neighbor set.
"""

from __future__ import annotations

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
        table = neighbor_table(self.rows, X, self.k)

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


def neighbor_table(rows: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """(n_queries, k) indices of each query's k nearest stored rows.

    The neighbor set is the first k rows in (squared distance, row index)
    order. A row of the table keeps the order argpartition leaves it in,
    which is part of the result: votes add their weights in table order.

    Each block of _BLOCK queries takes one product with the stored rows
    (a block's shape fixes the product's bits), which becomes squared
    distances in place, (q_sq - 2 g) + row_sq clipped at 0, and is
    partitioned a pass of about _PASS_CELLS cells at a time.
    """
    n = rows.shape[0]
    if k > n:
        raise ValueError(f"k={k} exceeds the {n} stored rows")
    if k == n:
        return np.tile(np.arange(n), (queries.shape[0], 1))
    row_sq = np.einsum("ij,ij->i", rows, rows)
    out = np.empty((queries.shape[0], k), dtype=np.int64)
    for start in range(0, queries.shape[0], _BLOCK):
        q = queries[start:start + _BLOCK]
        # no name holds the product, so it is freed before the next block's
        _block_table(q @ rows.T, np.einsum("ij,ij->i", q, q), row_sq,
                     out[start:start + _BLOCK])
    return out


def _block_table(d2, q_sq, row_sq, out) -> None:
    """Fill out, (m, k), from d2, the (m, n) products of m queries with
    the stored rows, overwriting d2 with squared distances."""
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


def vote_scores(table, label_idx, weights, n_classes: int) -> np.ndarray:
    """Summed vote weight per class for each query's neighbor set, added
    in table order."""
    nq = table.shape[0]
    cells = np.arange(nq)[:, None] * n_classes + label_idx[table]
    return np.bincount(
        cells.ravel(), weights=weights[table].ravel(), minlength=nq * n_classes
    ).reshape(nq, n_classes)
