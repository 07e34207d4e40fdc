"""Gaussian and kernel-density naive Bayes with weighted fitting."""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..numerics import (
    LIKELIHOOD_FLOOR,
    VAR_FLOOR,
    FieldPayload,
    check_array,
    check_per_class,
    check_rows,
    class_stats,
    gaussian_logpdf,
    silverman_bandwidth,
)

# (query x sample x feature) kernel cells a kernel-NB block scores at
# once; each of its three scratch buffers holds this many float64s
_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class GaussianNbModel(FieldPayload):
    family: ClassVar[str] = "naive-bayes"
    class_ids: np.ndarray
    priors: np.ndarray   # (K,)
    means: np.ndarray    # (K, d)
    variances: np.ndarray  # (K, d), floored

    def predict_batch(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        scores = np.log(self.priors)[None, :] + gaussian_logpdf(
            X[:, None, :], self.means[None, :, :], self.variances[None, :, :]
        ).sum(axis=2)
        return self.class_ids[scores.argmax(axis=1)]

    def check(self, n_features: int) -> None:
        K = len(self.class_ids)
        check_array("priors", self.priors, (K,), positive=True)
        check_array("means", self.means, (K, n_features))
        check_array("variances", self.variances, (K, n_features))


def fit_gaussian_nb(ds, w) -> GaussianNbModel:
    class_ids, priors, stats = class_stats(ds, w)
    variances = np.array([c.weights @ c.centred ** 2 / c.mass for c in stats])
    return GaussianNbModel(class_ids, priors, np.array([c.mean for c in stats]),
                           np.maximum(variances, VAR_FLOOR))


@dataclass(frozen=True)
class KernelNbModel(FieldPayload):
    """Per-class per-feature weighted KDE with Silverman bandwidths.

    For class c and feature f the likelihood at x is
    sum_j w_j N(x; x_j, h_cf^2) / sum_j w_j, floored before the log.
    """

    family: ClassVar[str] = "kernel-naive-bayes"
    class_ids: np.ndarray
    priors: np.ndarray
    samples: tuple        # per class: (n_c, d) sample matrix
    sample_weights: tuple  # per class: (n_c,) normalized weights
    bandwidths: np.ndarray  # (K, d)

    def predict_batch(self, X) -> np.ndarray:
        return self.class_ids[self.log_scores(X).argmax(axis=1)]

    def log_scores(self, X) -> np.ndarray:
        """(q, K) log prior plus summed log likelihood of each query.

        Queries are scored a block at a time. A block is tiled once
        across the largest class, and each class runs the kernel ops in
        place on contiguous (rows, n_c * d) views of two scratch
        buffers, in the order of the plain expression
        log(max(sum_j w_j exp((-0.5 z) z) / (h sqrt(2 pi)), floor)),
        z = (x - x_j) / h. The weighted sum adds the samples in order,
        so a score does not depend on the block size.
        """
        X = np.asarray(X, dtype=np.float64)
        d = self.bandwidths.shape[1]
        sizes = [s.shape[0] for s in self.samples]
        cells = max(sizes) * d
        block = max(1, min(X.shape[0], _BLOCK_CELLS // cells))
        tiled = np.empty((block, cells))
        z_buf = np.empty(block * cells)
        k_buf = np.empty(block * cells)
        dens_buf = np.empty((block, len(sizes), d))
        flat = [s.ravel() for s in self.samples]
        h_rows = [np.tile(h, n) for h, n in zip(self.bandwidths, sizes)]
        norms = self.bandwidths * np.sqrt(2.0 * np.pi)
        log_priors = np.log(self.priors)
        scores = np.empty((X.shape[0], len(self.class_ids)))
        for start in range(0, X.shape[0], block):
            q = X[start:start + block]
            r = q.shape[0]
            tiled[:r].reshape(r, -1, d)[...] = q[:, None, :]
            dens = dens_buf[:r]
            for c, n in enumerate(sizes):
                m = n * d
                z = z_buf[:r * m].reshape(r, m)
                k = k_buf[:r * m].reshape(r, m)
                np.subtract(tiled[:r, :m], flat[c], out=z)
                np.divide(z, h_rows[c], out=z)
                np.multiply(z, -0.5, out=k)
                np.multiply(k, z, out=k)
                np.exp(k, out=k)
                np.einsum("qnd,n->qd", k.reshape(r, n, d),
                          self.sample_weights[c], out=dens[:, c])
            np.divide(dens, norms, out=dens)
            np.maximum(dens, LIKELIHOOD_FLOOR, out=dens)
            np.log(dens, out=dens)
            scores[start:start + r] = log_priors + dens.sum(axis=2)
        return scores

    def check(self, n_features: int) -> None:
        K = len(self.class_ids)
        check_array("priors", self.priors, (K,), positive=True)
        check_array("bandwidths", self.bandwidths, (K, n_features),
                    positive=True)
        check_per_class("samples", self.samples, K)
        check_per_class("sample_weights", self.sample_weights, K)
        for c, (x, w) in enumerate(zip(self.samples, self.sample_weights)):
            n_c = check_rows(f"samples[{c}]", x, n_features)
            check_array(f"sample_weights[{c}]", w, (n_c,))


def fit_kernel_nb(ds, w) -> KernelNbModel:
    class_ids, priors, stats = class_stats(ds, w)
    return KernelNbModel(
        class_ids, priors, tuple(c.rows for c in stats),
        tuple(c.weights / c.mass for c in stats),
        np.array([silverman_bandwidth(c.rows, c.weights) for c in stats]),
    )
