"""k-nearest-neighbor classifier with weighted neighbor voting.

Distances are plain Euclidean over the numeric features. The k nearest
stored rows vote with their stored training weights; distance ties are
broken toward the lower stored-row index and vote ties toward the lower
class id. When a query equals a stored row (e.g. evaluating training
rows), that row participates in its own neighbor set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_BLOCK = 1024


@dataclass(frozen=True)
class KnnModel:
    rows: np.ndarray       # (n, d) stored training rows
    labels: np.ndarray     # (n,) activity ids
    weights: np.ndarray    # (n,) vote weights, stored as passed to fit
    k: int
    class_ids: np.ndarray  # ascending distinct ids present at fit time

    @property
    def n_features(self) -> int:
        return self.rows.shape[1]

    def label_indices(self) -> np.ndarray:
        """Stored labels as compact indices into class_ids."""
        return np.searchsorted(self.class_ids, self.labels)

    def predict_batch(self, X) -> np.ndarray:
        X = _check_queries(X, self.n_features)
        table = neighbor_table(self.rows, X, self.k)
        scores = vote_scores(
            table, self.label_indices(), self.weights, len(self.class_ids)
        )
        return self.class_ids[scores.argmax(axis=1)]

    def to_payload(self) -> dict:
        return {
            "family": "knn",
            "k": self.k,
            "rows": self.rows.tolist(),
            "labels": self.labels.tolist(),
            "weights": self.weights.tolist(),
            "class_ids": self.class_ids.tolist(),
        }


def model_from_payload(p: dict) -> KnnModel:
    # rows may arrive as a pre-built read-only array shared across an
    # ensemble's rounds; asarray keeps that identity intact
    return KnnModel(
        rows=_frozen(np.asarray(p["rows"], dtype=np.float64)),
        labels=_frozen(np.asarray(p["labels"], dtype=np.int64)),
        weights=_frozen(np.asarray(p["weights"], dtype=np.float64)),
        k=p["k"],
        class_ids=np.array(p["class_ids"], dtype=np.int64),
    )


def _check_queries(X, d: int) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != d:
        raise ValueError(f"query matrix has shape {X.shape}, expected (*, {d})")
    return X


def _frozen(a: np.ndarray) -> np.ndarray:
    # read-only inputs are shared, everything else is snapshotted
    if a.flags.writeable:
        a = a.copy()
        a.flags.writeable = False
    return a


def fit_knn(ds, w, k: int) -> KnnModel:
    if k > ds.n_rows:
        raise ValueError(f"k={k} exceeds the {ds.n_rows} stored rows")
    rows = _frozen(np.asarray(ds.features, dtype=np.float64))
    labels = _frozen(np.asarray(ds.labels, dtype=np.int64))
    weights = _frozen(np.asarray(w, dtype=np.float64))
    return KnnModel(rows, labels, weights, k, np.unique(labels))


def neighbor_table(rows: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """(n_queries, k) indices of each query's k nearest stored rows.

    The neighbor set is the first k rows in (squared distance, row index)
    order. Index order inside a row of the table is unspecified; only set
    membership matters to the weighted vote.
    """
    n = rows.shape[0]
    if k > n:
        raise ValueError(f"k={k} exceeds the {n} stored rows")
    row_sq = np.einsum("ij,ij->i", rows, rows)
    out = np.empty((queries.shape[0], k), dtype=np.int64)
    for start in range(0, queries.shape[0], _BLOCK):
        q = queries[start:start + _BLOCK]
        d2 = np.maximum(
            np.einsum("ij,ij->i", q, q)[:, None] - 2.0 * (q @ rows.T) + row_sq,
            0.0,
        )
        if k == n:
            out[start:start + _BLOCK] = np.arange(n)
            continue
        part = np.argpartition(d2, k - 1, axis=1)[:, :k]
        kth = np.take_along_axis(d2, part[:, -1:], axis=1)[:, 0]
        n_le = (d2 <= kth[:, None]).sum(axis=1)
        block = out[start:start + _BLOCK]
        block[:] = part
        for i in np.flatnonzero(n_le > k):
            # boundary tie: keep strictly-closer rows, fill the remainder
            # with the lowest-index rows at the boundary distance
            di = d2[i]
            closer = np.flatnonzero(di < kth[i])
            at = np.flatnonzero(di == kth[i])[: k - closer.size]
            block[i] = np.concatenate([closer, at])
    return out


def vote_scores(table, label_idx, weights, n_classes: int) -> np.ndarray:
    """Summed vote weight per class for each query's neighbor set."""
    nq = table.shape[0]
    scores = np.zeros((nq, n_classes), dtype=np.float64)
    np.add.at(
        scores,
        (np.repeat(np.arange(nq), table.shape[1]), label_idx[table].ravel()),
        weights[table].ravel(),
    )
    return scores
