"""One-hot least-squares classifiers (independent and joint solves).

Both families regress one-hot class indicators on [1, x] by weighted
ridge least squares: C = (Z^T W Z + ridge I')^-1 Z^T W Y, where I' is
the identity with the intercept entry zeroed. Leaving the intercept
unpenalized keeps zero-variance feature columns at (numerically) zero
coefficient instead of letting them absorb intercept mass. Both factor
the system once; the "ovr" variant then solves the K indicator columns
one at a time, the "vector" variant all of them in one multi-column
solve. The normal equations are the same, so the two coefficient
matrices agree. Prediction is the argmax of the K fitted scores, lower
class id on ties.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..numerics import (
    FieldPayload,
    auto_ridge,
    check_array,
    cholesky_factor,
    solve_lower,
    solve_lower_t,
)


@dataclass(frozen=True)
class LinearScoreModel(FieldPayload):
    class_ids: np.ndarray
    coef: np.ndarray  # (d+1, K), intercept row first
    family: str       # "linear-regression" | "vector-linear-regression"

    def predict_batch(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        scores = self.coef[0][None, :] + X @ self.coef[1:]
        return self.class_ids[scores.argmax(axis=1)]

    def check(self, n_features: int) -> None:
        check_array("coef", self.coef, (n_features + 1, len(self.class_ids)))


def fit_linear(ds, w, ridge: float | None, joint: bool) -> LinearScoreModel:
    w = np.asarray(w, dtype=np.float64)
    class_ids = np.unique(ds.labels[w > 0])
    z = np.hstack([np.ones((ds.n_rows, 1)), ds.features])
    wz = z * w[:, None]
    a = z.T @ wz
    a = (a + a.T) / 2.0
    r = auto_ridge(a) if ridge is None else ridge
    a[np.diag_indices_from(a)] += r
    a[0, 0] -= r  # intercept stays unpenalized
    y = (ds.labels[:, None] == class_ids[None, :]).astype(np.float64)
    b = wz.T @ y
    L = cholesky_factor(a)
    if joint:
        coef = solve_lower_t(L, solve_lower(L, b))
    else:
        coef = np.column_stack(
            [solve_lower_t(L, solve_lower(L, col)) for col in b.T]
        )
    return LinearScoreModel(
        class_ids, coef, "vector-linear-regression" if joint else "linear-regression"
    )
