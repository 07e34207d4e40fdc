"""Gaussian and kernel-density naive Bayes with weighted fitting."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
# once; each of its temporaries holds this many float64s
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
        return self.round_scorer(X)(self)

    def round_scorer(self, X):
        """score(m) -> m's predictions for X: class_ids[m.log_scores(X)
        .argmax(axis=1)], ties to the lowest index. The grid of X (_Grid)
        depends on the samples alone, so every kernel-NB model over these
        same sample arrays is bounded on one grid; any other model
        predicts on its own, and a call that fits no grid (no query row,
        or a non-finite or zero range) scores exactly."""
        X = np.asarray(X, dtype=np.float64)
        grid = _Grid.of(self.samples, X)

        def score(m) -> np.ndarray:
            if not isinstance(m, KernelNbModel) or not _same_arrays(
                    m.samples, self.samples):
                return m.predict_batch(X)
            if grid is None:
                return m.class_ids[m.log_scores(X).argmax(axis=1)]
            return m.class_ids[grid.argmax(m)]

        return score

    def log_scores(self, X) -> np.ndarray:
        """(q, K) log prior plus summed log likelihood of each query."""
        X = np.asarray(X, dtype=np.float64)
        return np.stack([_class_scores(self, c, X)
                         for c in range(len(self.class_ids))], axis=1)

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
            if (w < 0).any():  # _Grid's density bounds need w >= 0
                raise ValueError(f"sample_weights[{c}] holds {w[w < 0][0]}, "
                                 f"expected values >= 0")


def _same_arrays(a: tuple, b: tuple) -> bool:
    return len(a) == len(b) and all(x is y for x, y in zip(a, b))


def _class_scores(m: KernelNbModel, c: int, X: np.ndarray) -> np.ndarray:
    """Class c's scores of the query rows X,
    log prior + sum_f log(max(sum_j w_j exp((-0.5 z) z) / (h sqrt(2 pi)),
    floor)), z = (x - x_j) / h, about _BLOCK_CELLS kernel cells a block.
    The weighted sum adds the samples in order, so a score depends on its
    query row alone, not on the block it is in."""
    x, w, h = m.samples[c], m.sample_weights[c], m.bandwidths[c]
    norm = h * np.sqrt(2.0 * np.pi)
    log_prior = np.log(m.priors[c])
    block = max(1, _BLOCK_CELLS // x.size)
    out = np.empty(len(X))
    for start in range(0, len(X), block):
        q = X[start:start + block]
        # C order, whatever the layout of X or x: exp and the einsum's
        # sums then run as on every other call
        z = np.subtract(q[:, None, :], x, order="C")
        z /= h
        k = z * -0.5
        k *= z
        np.exp(k, out=k)
        dens = np.einsum("qnd,n->qd", k, w)
        dens /= norm
        np.maximum(dens, LIKELIHOOD_FLOOR, out=dens)
        np.log(dens, out=dens)
        out[start:start + len(q)] = log_prior + dens.sum(axis=1)
    return out


def _grid_cells(queries: int, samples: int, classes: int) -> int:
    """G, the cells per feature of a grid for a call that scores queries
    (at least one) x samples kernel cells per feature over `classes`
    classes.

    A round's bound work grows as classes * G^2 and the exact cells its
    bounds leave as queries * samples / G, since their gap shrinks as the
    cell width, so the sum is least at G^3 proportional to the kernel
    cells per class, queries * samples / classes; d scales both. G is
    3 times its cube root, to the nearest power of two: measured best
    from 150 queries x 450 samples (G = 64) to 7767 x 7000 (G = 512), 12
    classes. Each class has a sample, so a call of one query takes G = 4
    or more.
    """
    cells = queries * samples / classes
    return min(1 << round(math.log2(3.0 * cells ** (1 / 3))), _GRID_MAX)


_GRID_MAX = 4096
#: slack added to each end of a cell-to-cell distance, in cells. A
#: value's cell floor((x - lo) / width) takes four roundings (the span,
#: the width, x - lo and the divide), so the value lies within 4 u G cells
#: of it, u = 2^-53; this covers that for any G up to 2^21.
_CELL_SLACK = 2.0 ** -30


class _Grid:
    """A grid over X and a tuple of sample arrays, and the argmax of a
    model over those samples decided from density bounds on it.

    Each feature's range over the query rows and the samples is cut into
    G cells of one width. A value's cell is
    floor((x - lo) / width), clipped to the last cell. Every class's
    weights binned on the samples' cells bound its density at a query:
    the kernel of a sample in cell j at a query in cell g lies between
    its values at the least and the greatest distance between the two
    cells, so one Toeplitz product of each class's bins with the kernel
    at each cell offset gives an upper and a lower density bound for
    every cell, and the same floor and log give bounds on every log
    likelihood and every score. The kernel is positive, so the bounds
    hold for the non-negative weights that fits and model files give.
    """

    @classmethod
    def of(cls, samples: tuple, X: np.ndarray):
        """The grid, or None when X scores exactly: a shape the exact
        path must judge, no query row, or a feature of zero or
        non-finite range (a NaN or an infinite value gives the latter)."""
        d = samples[0].shape[1]
        if X.ndim != 2 or X.shape[1] != d or not len(X):
            return None
        G = _grid_cells(X.shape[0], sum(s.shape[0] for s in samples),
                        len(samples))
        stacked = np.concatenate(samples)
        lo = np.minimum(stacked.min(axis=0), X.min(axis=0))
        width = (np.maximum(stacked.max(axis=0), X.max(axis=0)) - lo) / G
        if not (np.isfinite(width)
                & (width >= np.finfo(np.float64).tiny)).all():
            return None
        return cls(samples, stacked, X, G, lo, width)

    def __init__(self, samples, stacked, X, G, lo, width):
        d = X.shape[1]
        self.X, self.G, self.d = X, G, d
        self.sizes = [s.shape[0] for s in samples]

        def cells(V):
            return np.minimum(np.floor((V - lo) / width), G - 1).astype(
                np.intp) + np.arange(d) * G

        # each query's cell per feature, as an index into (d * G)
        self.query_cells = cells(X)
        # each sample's bin per feature, as an index into (C * d * G)
        owner = np.repeat(np.arange(len(samples)), self.sizes)
        self.sample_bins = (cells(stacked)
                            + (owner * d * G)[:, None]).ravel()
        # the least and the greatest distance at each cell offset, (d, G)
        offsets = np.arange(G, dtype=np.float64)
        self.spans = np.stack([
            np.maximum(offsets - 1.0 - _CELL_SLACK, 0.0),
            offsets + 1.0 + _CELL_SLACK,
        ])[:, None, :] * width[:, None]

    def bounds(self, m: KernelNbModel) -> np.ndarray:
        """(2, queries, C): upper and lower bounds on m's scores."""
        C, d, G = len(m.class_ids), self.d, self.G
        w = np.concatenate(m.sample_weights)
        bins = np.bincount(self.sample_bins, weights=np.repeat(w, d),
                           minlength=C * d * G).reshape(C, d, G)
        z = self.spans[:, None, :, :] / m.bandwidths[None, :, :, None]
        kern = np.exp(-0.5 * z * z)  # (2, C, d, G), at offsets 0..G-1
        full = np.concatenate([kern[..., :0:-1], kern], axis=-1)
        dens = np.einsum("bcfgi,cfi->bcfg",
                         sliding_window_view(full, G, axis=-1),
                         np.ascontiguousarray(bins[..., ::-1]))
        dens /= (m.bandwidths * np.sqrt(2.0 * np.pi))[:, :, None]
        np.maximum(dens, LIKELIHOOD_FLOOR, out=dens)
        np.log(dens, out=dens)
        table = np.ascontiguousarray(
            dens.transpose(0, 2, 3, 1)).reshape(2, d * G, C)
        out = np.take(table, self.query_cells[:, 0], axis=1)
        part = np.empty_like(out)
        for f in range(1, d):
            out += np.take(table, self.query_cells[:, f], axis=1, out=part)
        out += np.log(m.priors)
        return out

    def margin(self, m: KernelNbModel) -> float:
        """How far apart two computed bounds or scores must be for their
        true values to be ordered; see the derivation below."""
        u, d = 2.0 ** -53, self.d
        n = max(self.sizes) + self.G
        # Every term of either path is a non-negative sum; its relative
        # error is at most gamma_n, n the longer sum (n_c samples in the
        # exact einsum; n_c weights in a bin then G bins in the Toeplitz
        # product), plus 4500 u for a kernel value (its argument
        # -0.5 z^2 carries 6 u relative error, at most 6 u * 745
        # absolute where exp is above 0, plus the exp itself) and 16 u
        # for the norm h sqrt(2 pi) and the divide.
        rho = (n + 4500 + 16) * u
        # exp's results below the least normal float, and products of
        # them, lose up to one subnormal unit each: an absolute error,
        # relative to the floor once divided by the norm.
        w_max = max(1.0, max(float(w.max()) for w in m.sample_weights))
        alpha = (4.0 * n * w_max * 2.0 ** -1074
                 / (float(m.bandwidths.min()) * np.sqrt(2.0 * np.pi))
                 / LIKELIHOOD_FLOOR)
        # max(., floor) then log: 1.01 rho + alpha, plus the log's own
        # rounding, at most 2980 u for a log of magnitude <= 745 (every
        # positive double's). A score sums d such logs and the log
        # prior, adding at most d (d + 1) 745 u, doubled to cover the
        # comparison's own addition.
        per_score = (d * (1.01 * rho + alpha + 2980 * u)
                     + 2 * (d + 1) ** 2 * 745 * u)
        # a decision compares a computed bound with another, each within
        # per_score of its true value, which are within per_score of the
        # computed exact scores they bound
        return 4 * per_score

    def argmax(self, m: KernelNbModel) -> np.ndarray:
        """log_scores(X).argmax(axis=1) of a model over these samples."""
        upper, lower = self.bounds(m)
        margin = self.margin(m)
        rows = np.arange(len(upper))
        lead = lower.argmax(axis=1)
        rivals = upper.copy()
        rivals[rows, lead] = -np.inf
        # decided: the leader's lower bound clears every rival's upper
        decided = lower[rows, lead] > rivals.max(axis=1) + margin
        left = np.flatnonzero(~decided)
        if len(left):
            Q, lead_left = self.X[left], lead[left]
            scores = np.full((len(left), len(m.class_ids)), -np.inf)
            at = np.arange(len(left))
            for c in np.unique(lead_left):
                sel = lead_left == c
                scores[sel, c] = _class_scores(m, c, Q[sel])
            # a rival is scored when its upper bound reaches the
            # leader's exact score; any other scores below it
            reach = rivals[left] + margin >= scores[at, lead_left][:, None]
            for c in range(len(m.class_ids)):
                sel = reach[:, c]
                if sel.any():
                    scores[sel, c] = _class_scores(m, c, Q[sel])
            lead[left] = scores.argmax(axis=1)
        return lead


def fit_kernel_nb(ds, w) -> KernelNbModel:
    class_ids, priors, stats = class_stats(ds, w)
    return KernelNbModel(
        class_ids, priors, tuple(c.rows for c in stats),
        tuple(c.weights / c.mass for c in stats),
        np.array([silverman_bandwidth(c.rows, c.weights) for c in stats]),
    )
