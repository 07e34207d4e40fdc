"""Weighted statistics, small dense SPD linear algebra, array checks and
the field payload codec for the learners."""

from __future__ import annotations

import math
from dataclasses import fields
from typing import ClassVar

import numpy as np

#: Per-feature variances below this are clamped before use.
VAR_FLOOR = 1e-9
#: Minimum kernel bandwidth, preventing delta spikes on constant features.
BANDWIDTH_FLOOR = 1e-3
#: Likelihoods are floored here before taking logs.
LIKELIHOOD_FLOOR = 1e-300
#: Scale-aware default ridge: RIDGE_SCALE * trace(A) / dim(A).
RIDGE_SCALE = 1e-6


class SingularMatrixError(Exception):
    """Raised when an SPD factorization hits a non-positive pivot."""


def check_weights(w, n: int) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (n,):
        raise ValueError(f"weight vector has shape {w.shape}, expected ({n},)")
    if (w < 0).any():
        raise ValueError("weights must be non-negative")
    if w.sum() <= 0:
        raise ValueError("total weight must be positive")
    return w


def check_array(name: str, a, shape, positive: bool = False) -> None:
    """Raise ValueError unless a is a numeric array of this shape whose
    values are finite (and above 0 if positive)."""
    a = np.asarray(a)
    if a.dtype.kind not in "fi":
        raise ValueError(f"{name} is not numeric")
    if a.shape != shape:
        raise ValueError(f"{name} has shape {a.shape}, expected {shape}")
    bad = ~np.isfinite(a) | ((a <= 0) if positive else False)
    if bad.any():
        raise ValueError(
            f"{name} holds {a[bad].flat[0]}, expected finite "
            f"values{' above 0' if positive else ''}"
        )


def _frozen(a: np.ndarray) -> np.ndarray:
    # read-only inputs are shared, everything else is snapshotted
    if a.flags.writeable:
        a = a.copy()
        a.flags.writeable = False
    return a


class FieldPayload:
    """A model dataclass whose payload is {"family": family} plus every
    field by name, an array as nested lists and a tuple of arrays as a
    list of them. from_payload reads the fields back in order as
    read-only arrays, class_ids as int64 and the rest in the dtype their
    JSON values give (a read-only array passes through as itself), and
    any other field, such as k-NN's k, as it is, for check to judge."""

    family: ClassVar[str]

    def to_payload(self) -> dict:
        out = {"family": self.family}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, np.ndarray):
                v = v.tolist()
            elif isinstance(v, tuple):
                v = [a.tolist() for a in v]
            out[f.name] = v
        return out

    @classmethod
    def from_payload(cls, p: dict):
        def read(f):
            v = p[f.name]
            if f.type in ("tuple", tuple):
                return tuple(_frozen(np.asarray(a)) for a in v)
            if f.type in ("np.ndarray", np.ndarray):
                dtype = np.int64 if f.name == "class_ids" else None
                return _frozen(np.asarray(v, dtype=dtype))
            return v

        return cls(*map(read, fields(cls)))


def check_rows(name: str, a, d: int) -> int:
    """The row count of a, which must be a finite (rows >= 1, d) matrix."""
    shape = np.shape(a)
    if len(shape) != 2 or shape[0] == 0:
        raise ValueError(f"{name} has shape {shape}, expected (rows >= 1, {d})")
    check_array(name, a, (shape[0], d))
    return shape[0]


def check_per_class(name: str, arrays, num_classes: int) -> None:
    """Raise ValueError unless there is one of arrays per class."""
    if len(arrays) != num_classes:
        raise ValueError(f"{len(arrays)} {name} for {num_classes} class_ids")


def weighted_mean(xs, w) -> np.ndarray:
    """Weighted row mean: sum_i w_i x_i / sum_i w_i."""
    xs = np.asarray(xs, dtype=np.float64)
    w = check_weights(w, xs.shape[0])
    return (w @ xs) / w.sum()


def weighted_covariance(xs, w, ridge: float = 0.0) -> np.ndarray:
    """Weighted covariance sum_i w_i (x_i - mu)(x_i - mu)^T / sum w + ridge*I.

    The result is exactly symmetric (upper and lower triangles mirrored).
    """
    xs = np.asarray(xs, dtype=np.float64)
    w = check_weights(w, xs.shape[0])
    if ridge < 0:
        raise ValueError("ridge must be non-negative")
    total = w.sum()
    xc = xs - (w @ xs) / total
    cov = (xc * w[:, None]).T @ xc / total
    cov = (cov + cov.T) / 2.0
    if ridge:
        cov = cov + ridge * np.eye(cov.shape[0])
    return cov


def auto_ridge(a: np.ndarray) -> float:
    """Default regularization strength for a square matrix."""
    d = a.shape[0]
    return RIDGE_SCALE * float(np.trace(a)) / d


def _check_symmetric(a: np.ndarray) -> None:
    diff = np.abs(a - a.T)
    tol = 1e-12 * np.maximum(1.0, np.abs(a))
    if (diff > tol).any():
        raise ValueError("matrix is not symmetric")


def cholesky_factor(a) -> np.ndarray:
    """Lower-triangular L with L L^T = A for symmetric positive definite A.

    A non-positive pivot raises SingularMatrixError naming the pivot index.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    _check_symmetric(a)
    d = a.shape[0]
    L = np.zeros_like(a)
    for j in range(d):
        pivot = a[j, j] - L[j, :j] @ L[j, :j]
        if not (pivot > 0.0) or not math.isfinite(pivot):
            raise SingularMatrixError(
                f"matrix singular after ridge: pivot {j} is not positive"
            )
        L[j, j] = math.sqrt(pivot)
        if j + 1 < d:
            L[j + 1:, j] = (a[j + 1:, j] - L[j + 1:, :j] @ L[j, :j]) / L[j, j]
    return L


def solve_lower(L: np.ndarray, b):
    """Solve L x = b by forward substitution (b may be a matrix)."""
    x = np.array(b, dtype=np.float64, copy=True)
    for i in range(L.shape[0]):
        if i:
            x[i] -= L[i, :i] @ x[:i]
        x[i] /= L[i, i]
    return x


def solve_lower_t(L: np.ndarray, b):
    """Solve L^T x = b by backward substitution."""
    x = np.array(b, dtype=np.float64, copy=True)
    for i in reversed(range(L.shape[0])):
        if i + 1 < L.shape[0]:
            x[i] -= L[i + 1:, i] @ x[i + 1:]
        x[i] /= L[i, i]
    return x


def solve_spd(a, b) -> np.ndarray:
    """Solve A X = B for symmetric positive definite A via Cholesky."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if b.shape[0] != a.shape[0]:
        raise ValueError(
            f"dimension mismatch: A is {a.shape}, B has leading size {b.shape[0]}"
        )
    L = cholesky_factor(a)
    return solve_lower_t(L, solve_lower(L, b))


def gaussian_logpdf(x, mean, var):
    """log N(x; mean, var), with var clamped to the variance floor."""
    var = np.maximum(var, VAR_FLOOR)
    return -0.5 * (np.log(2.0 * math.pi * var) + (np.asarray(x) - mean) ** 2 / var)


def silverman_bandwidth(xs, w) -> np.ndarray:
    """Silverman's rule on weighted samples: 1.06 * sigma_w * N_eff^(-1/5).

    N_eff = (sum w)^2 / sum(w^2) is the effective sample size and sigma_w
    the weighted standard deviation of a column of the (n, d) sample
    matrix xs. Returns one bandwidth per column, each floored at
    BANDWIDTH_FLOOR.
    """
    xs = np.asarray(xs, dtype=np.float64)
    w = check_weights(w, xs.shape[0])
    total = w.sum()
    n_eff = total * total / (w @ w)
    h = np.empty(xs.shape[1])
    for f, col in enumerate(np.ascontiguousarray(xs.T)):
        mu = (w @ col) / total
        var = (w @ (col - mu) ** 2) / total
        h[f] = max(1.06 * math.sqrt(var) * n_eff ** -0.2, BANDWIDTH_FLOOR)
    return h
