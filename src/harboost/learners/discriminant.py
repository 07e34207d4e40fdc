"""Linear and quadratic discriminant analysis with weighted fitting.

LDA pools the weighted within-class covariance and scores class c by
x^T S^-1 mu_c - mu_c^T S^-1 mu_c / 2 + ln pi_c. QDA keeps a covariance
per class and scores -ln|S_c|/2 - (x-mu_c)^T S_c^-1 (x-mu_c)/2 + ln pi_c.
Covariances are ridge-regularized (scale-aware default) and diagonal
entries floored; a QDA class whose weight mass is below 1e-8 of the
total falls back to the pooled covariance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..numerics import (
    VAR_FLOOR,
    FieldPayload,
    auto_ridge,
    check_array,
    check_per_class,
    cholesky_factor,
    solve_lower,
    solve_spd,
    weighted_mean,
)
from .bayes import _class_partition

_MASS_FALLBACK = 1e-8


def _floored(cov: np.ndarray, ridge: float | None) -> np.ndarray:
    out = np.array(cov, copy=True)
    r = auto_ridge(out) if ridge is None else ridge
    out[np.diag_indices_from(out)] += r
    d = np.diag_indices_from(out)
    out[d] = np.maximum(out[d], VAR_FLOOR)
    return out


def _weighted_class_stats(ds, w, groups):
    w = np.asarray(w, dtype=np.float64)
    means = np.empty((len(groups), ds.n_features))
    masses = np.empty(len(groups))
    scatters = []
    for i, (cw, X) in enumerate(groups):
        masses[i] = cw.sum()
        means[i] = weighted_mean(X, cw)
        xc = X - means[i]
        scatters.append((xc * cw[:, None]).T @ xc)
    pooled = sum(scatters) / w.sum()
    pooled = (pooled + pooled.T) / 2.0
    return means, pooled, masses, scatters


@dataclass(frozen=True)
class LdaModel(FieldPayload):
    family: ClassVar[str] = "lda"
    class_ids: np.ndarray
    priors: np.ndarray
    coef: np.ndarray       # (d, K): columns are S^-1 mu_c
    intercept: np.ndarray  # (K,)

    def predict_batch(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        scores = X @ self.coef + self.intercept
        return self.class_ids[scores.argmax(axis=1)]

    def check(self, n_features: int) -> None:
        K = len(self.class_ids)
        check_array("priors", self.priors, (K,), positive=True)
        check_array("coef", self.coef, (n_features, K))
        check_array("intercept", self.intercept, (K,))


def fit_lda(ds, w, ridge: float | None = None) -> LdaModel:
    class_ids, priors, groups = _class_partition(ds, w)
    means, pooled, _, _ = _weighted_class_stats(ds, w, groups)
    cov = _floored(pooled, ridge)
    coef = solve_spd(cov, means.T)
    intercept = -0.5 * np.einsum("cd,dc->c", means, coef) + np.log(priors)
    return LdaModel(class_ids, priors, coef, intercept)


@dataclass(frozen=True)
class QdaModel(FieldPayload):
    family: ClassVar[str] = "qda"
    class_ids: np.ndarray
    priors: np.ndarray
    means: np.ndarray              # (K, d)
    factors: tuple                 # per class: lower Cholesky of S_c
    log_dets: np.ndarray           # (K,) ln|S_c|

    def predict_batch(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        scores = np.empty((X.shape[0], len(self.class_ids)))
        for c in range(len(self.class_ids)):
            z = solve_lower(self.factors[c], (X - self.means[c]).T)
            quad = np.einsum("dq,dq->q", z, z)
            scores[:, c] = (
                -0.5 * self.log_dets[c] - 0.5 * quad + np.log(self.priors[c])
            )
        return self.class_ids[scores.argmax(axis=1)]

    def check(self, n_features: int) -> None:
        K, d = len(self.class_ids), n_features
        check_array("priors", self.priors, (K,), positive=True)
        check_array("means", self.means, (K, d))
        check_array("log_dets", self.log_dets, (K,))
        check_per_class("factors", self.factors, K)
        for c, f in enumerate(self.factors):
            check_array(f"factors[{c}]", f, (d, d))
            check_array(f"factors[{c}] diagonal", np.diagonal(f), (d,),
                        positive=True)


def fit_qda(ds, w, ridge: float | None = None) -> QdaModel:
    class_ids, priors, groups = _class_partition(ds, w)
    w = np.asarray(w, dtype=np.float64)
    means, pooled, masses, scatters = _weighted_class_stats(ds, w, groups)
    pooled_cov = _floored(pooled, ridge)
    total = w.sum()
    factors, log_dets = [], np.empty(len(groups))
    for i, scatter in enumerate(scatters):
        if masses[i] < _MASS_FALLBACK * total:
            cov = pooled_cov
        else:
            cov = scatter / masses[i]
            cov = _floored((cov + cov.T) / 2.0, ridge)
        L = cholesky_factor(cov)
        factors.append(L)
        log_dets[i] = 2.0 * np.log(np.diag(L)).sum()
    return QdaModel(class_ids, priors, means, tuple(factors), log_dets)
