"""Independent brute-force reference implementations.

Each function here re-implements a learner's math with plain loops and
dictionaries (or a different linear-algebra route), deliberately
avoiding the library's vectorized code paths. Tie-breaking follows the
same fixed rules: lower class id for votes/argmax, lower row index for
distances, scan order (feature ascending, boundary ascending) for
splits.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from harboost.rng import SplitMix64, derive_seed


def argmax_low_id(scores: dict):
    """Key with maximal value; ties resolve to the smallest key."""
    return min(scores.items(), key=lambda kv: (-kv[1], kv[0]))[0]


# ---------------------------------------------------------------------------
# k-NN
# ---------------------------------------------------------------------------


def knn_predict(x, rows, labels, weights, k):
    d2 = [sum((float(a) - float(b)) ** 2 for a, b in zip(x, row)) for row in rows]
    order = sorted(range(len(rows)), key=lambda i: (d2[i], i))[:k]
    votes = {}
    for i in order:
        votes[int(labels[i])] = votes.get(int(labels[i]), 0.0) + float(weights[i])
    return argmax_low_id(votes)


def knn_neighbor_set(x, rows, k):
    d2 = [sum((float(a) - float(b)) ** 2 for a, b in zip(x, row)) for row in rows]
    return sorted(range(len(rows)), key=lambda i: (d2[i], i))[:k]


def knn_neighbor_table(rows: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """(n_queries, k) indices of each query's k nearest stored rows,
    nearest first.

    A squared distance is the sum of (q_f - r_f)^2 over the features in
    column order, computed for every (query, row) pair at once; a row of
    the table is the first k rows in (distance, row index) order.
    """
    n = rows.shape[0]
    if k > n:
        raise ValueError(f"k={k} exceeds the {n} stored rows")
    d2 = np.zeros((queries.shape[0], n))
    for f in range(rows.shape[1]):
        d2 += (queries[:, f, None] - rows[None, :, f]) ** 2
    index = np.broadcast_to(np.arange(n), d2.shape)
    return np.lexsort((index, d2), axis=1)[:, :k]


# A frozen copy of the np.add.at vote the k-NN learner shipped with: the
# library's votes must equal it bit for bit, since they add their weights
# in table order.
def knn_vote_scores(table, label_idx, weights, n_classes: int) -> np.ndarray:
    """Summed vote weight per class for each query's neighbor set."""
    nq = table.shape[0]
    scores = np.zeros((nq, n_classes), dtype=np.float64)
    np.add.at(
        scores,
        (np.repeat(np.arange(nq), table.shape[1]), label_idx[table].ravel()),
        weights[table].ravel(),
    )
    return scores


# ---------------------------------------------------------------------------
# Trees
# ---------------------------------------------------------------------------


def _gini_groups(groups):
    # (s^2 - sum m^2) / s: zero exactly for pure groups, matching the
    # library's tie behavior between perfect splits
    total = 0.0
    for g in groups:
        s = sum(g.values())
        if s > 0:
            total += (s * s - sum(v * v for v in g.values())) / s
    return total


def _masses(rows_idx, y, w):
    out = {}
    for i in rows_idx:
        out[int(y[i])] = out.get(int(y[i]), 0.0) + float(w[i])
    return out


def _binary_candidates(values):
    vals = sorted(set(values))
    out = []
    for a, b in zip(vals, vals[1:]):
        t = (a + b) / 2.0
        if t >= b:
            t = a
        out.append(t)
    return out


def _quantile_candidates(values, weights, n_candidates=16):
    order = sorted(range(len(values)), key=lambda i: values[i])
    sorted_vals = [values[i] for i in order]
    cum = list(itertools.accumulate(weights[i] for i in order))
    total = cum[-1]
    cand = []
    for j in range(1, n_candidates + 1):
        target = total * j / (n_candidates + 1)
        pos = next(i for i, c in enumerate(cum) if c >= target)
        cand.append(sorted_vals[pos])
    vmax = sorted_vals[-1]
    return sorted({c for c in cand if c < vmax})


def grow_tree(X, y, w, max_depth, min_leaf_weight, depth=0,
              mode="binary", bins=4, prng=None, subset_size=None):
    """Naive recursive induction mirroring the library's rules.

    Returns nested ("leaf", class) / ("split", feature, thresholds,
    children) tuples.
    """
    idx = list(range(len(X)))
    return _grow(X, y, w, idx, depth, max_depth, min_leaf_weight,
                 mode, bins, prng, subset_size)


def _grow(X, y, w, idx, depth, max_depth, min_leaf_weight, mode, bins,
          prng, subset_size):
    masses = _masses(idx, y, w)
    total = sum(masses.values())
    all_classes = sorted(set(int(v) for v in y))
    full = {c: masses.get(c, 0.0) for c in all_classes}
    leaf = ("leaf", argmax_low_id(full))
    nonzero = sum(1 for v in masses.values() if v > 0)
    if depth >= max_depth or total <= min_leaf_weight or nonzero <= 1:
        return leaf
    d = len(X[0])
    feats = range(d)
    if subset_size is not None:
        feats = sorted(prng.sample_indices(d, subset_size))
    best = None  # (score, feature, thresholds)
    for f in feats:
        values = [X[i][f] for i in idx]
        if min(values) == max(values):
            continue
        weights = [w[i] for i in idx]
        if mode == "binary":
            for t in _binary_candidates(values):
                left = [i for i in idx if X[i][f] <= t]
                right = [i for i in idx if X[i][f] > t]
                score = _gini_groups([_masses(left, y, w), _masses(right, y, w)])
                if best is None or score < best[0]:
                    best = (score, f, (t,))
        else:
            cand = _quantile_candidates(values, weights)
            for size in range(1, bins):
                for combo in itertools.combinations(cand, size):
                    cuts = (-math.inf,) + combo + (math.inf,)
                    groups = []
                    for lo, hi in zip(cuts, cuts[1:]):
                        grp = [i for i in idx if lo < X[i][f] <= hi]
                        groups.append(_masses(grp, y, w))
                    score = _gini_groups(groups)
                    if best is None or score < best[0]:
                        best = (score, f, combo)
    if best is None:
        return leaf
    _, f, thresholds = best
    cuts = (-math.inf,) + tuple(thresholds) + (math.inf,)
    children = []
    for lo, hi in zip(cuts, cuts[1:]):
        sub = [i for i in idx if lo < X[i][f] <= hi]
        children.append(
            _grow(X, y, w, sub, depth + 1, max_depth, min_leaf_weight,
                  mode, bins, prng, subset_size)
        )
    return ("split", f, tuple(thresholds), tuple(children))


def tree_from_payload(p):
    """A model payload's tree (its "root") in the nested-tuple form of
    grow_tree."""
    if "leaf" in p:
        return ("leaf", p["leaf"])
    return ("split", p["feature"], tuple(p["thresholds"]),
            tuple(tree_from_payload(c) for c in p["children"]))


def tree_predict(node, x):
    while node[0] == "split":
        _, f, thresholds, children = node
        c = 0
        while c < len(thresholds) and x[f] > thresholds[c]:
            c += 1
        node = children[c]
    return node[1]


def bootstrap_counts(prng, cum):
    """len(cum) draws with replacement, one next_float() each."""
    n = len(cum)
    counts = [0] * n
    for _ in range(n):
        u = prng.next_float()
        pos = next((j for j, c in enumerate(cum) if c > u), n - 1)
        counts[pos] += 1
    return counts


def forest_fit(X, y, w, n_trees, max_depth, min_leaf_weight, subset_size, seed):
    n = len(X)
    total = sum(w)
    cum = list(itertools.accumulate(v / total for v in w))
    trees = []
    for i in range(n_trees):
        prng = SplitMix64(derive_seed(seed, i))
        counts = bootstrap_counts(prng, cum)
        picked = [j for j in range(n) if counts[j] > 0]
        bx = [X[j] for j in picked]
        by = [y[j] for j in picked]
        bw = [float(counts[j]) for j in picked]  # exact integer multiplicities
        trees.append(
            grow_tree(bx, by, bw, max_depth, min_leaf_weight * n,
                      prng=prng, subset_size=subset_size)
        )
    return trees


def forest_predict(trees, x):
    votes = {}
    for t in trees:
        c = tree_predict(t, x)
        votes[c] = votes.get(c, 0) + 1
    return argmax_low_id(votes)


# ---------------------------------------------------------------------------
# Naive Bayes
# ---------------------------------------------------------------------------


VAR_FLOOR = 1e-9
BANDWIDTH_FLOOR = 1e-3
LIKELIHOOD_FLOOR = 1e-300


def gaussian_nb_predict(x, X, y, w):
    classes = sorted({int(v) for v in y})
    total = sum(w)
    scores = {}
    for c in classes:
        idx = [i for i in range(len(X)) if int(y[i]) == c]
        mass = sum(w[i] for i in idx)
        if mass <= 0:
            continue
        score = math.log(mass / total)
        for f in range(len(x)):
            mu = sum(w[i] * X[i][f] for i in idx) / mass
            var = sum(w[i] * (X[i][f] - mu) ** 2 for i in idx) / mass
            var = max(var, VAR_FLOOR)
            score += -0.5 * (math.log(2 * math.pi * var) + (x[f] - mu) ** 2 / var)
        scores[c] = score
    return argmax_low_id(scores)


def _silverman(values, weights):
    total = sum(weights)
    mu = sum(wi * v for wi, v in zip(weights, values)) / total
    var = sum(wi * (v - mu) ** 2 for wi, v in zip(weights, values)) / total
    n_eff = total * total / sum(wi * wi for wi in weights)
    return max(1.06 * math.sqrt(var) * n_eff ** -0.2, BANDWIDTH_FLOOR)


def kernel_nb_predict(x, X, y, w):
    classes = sorted({int(v) for v in y})
    total = sum(w)
    scores = {}
    for c in classes:
        idx = [i for i in range(len(X)) if int(y[i]) == c]
        mass = sum(w[i] for i in idx)
        if mass <= 0:
            continue
        score = math.log(mass / total)
        for f in range(len(x)):
            values = [X[i][f] for i in idx]
            weights = [w[i] for i in idx]
            h = _silverman(values, weights)
            dens = sum(
                wi * math.exp(-0.5 * ((x[f] - v) / h) ** 2)
                for wi, v in zip(weights, values)
            ) / (mass * h * math.sqrt(2 * math.pi))
            score += math.log(max(dens, LIKELIHOOD_FLOOR))
        scores[c] = score
    return argmax_low_id(scores)


# ---------------------------------------------------------------------------
# Discriminants (dense-formula route via numpy.linalg)
# ---------------------------------------------------------------------------


RIDGE_SCALE = 1e-6
MASS_FALLBACK = 1e-8


def _ridged(cov, ridge):
    cov = np.array(cov, dtype=np.float64)
    d = cov.shape[0]
    r = RIDGE_SCALE * np.trace(cov) / d if ridge is None else ridge
    cov = cov + r * np.eye(d)
    di = np.diag_indices(d)
    cov[di] = np.maximum(cov[di], VAR_FLOOR)
    return cov


def _class_stats(X, y, w):
    X = np.asarray(X, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    classes = [c for c in np.unique(y) if w[y == c].sum() > 0]
    total = w.sum()
    stats = []
    pooled = np.zeros((X.shape[1], X.shape[1]))
    for c in classes:
        rows = y == c
        cw = w[rows]
        mass = cw.sum()
        mu = cw @ X[rows] / mass
        xc = X[rows] - mu
        cov = (xc * cw[:, None]).T @ xc
        pooled += cov
        stats.append((int(c), mass / total, mass, mu, cov / mass))
    return stats, pooled / total, total


def lda_scores(x, X, y, w, ridge=None):
    stats, pooled, _ = _class_stats(X, y, w)
    sigma_inv = np.linalg.inv(_ridged(pooled, ridge))
    scores = {}
    for c, prior, _, mu, _ in stats:
        scores[c] = float(
            x @ sigma_inv @ mu - 0.5 * mu @ sigma_inv @ mu + math.log(prior)
        )
    return scores


def lda_predict(x, X, y, w, ridge=None):
    return argmax_low_id(lda_scores(np.asarray(x, float), X, y, w, ridge))


def qda_scores(x, X, y, w, ridge=None):
    stats, pooled, total_mass = _class_stats(X, y, w)
    pooled_cov = _ridged(pooled, ridge)
    scores = {}
    for c, prior, mass, mu, cov in stats:
        use = pooled_cov if mass < MASS_FALLBACK * total_mass else _ridged(cov, ridge)
        sign, logdet = np.linalg.slogdet(use)
        diff = np.asarray(x, float) - mu
        quad = float(diff @ np.linalg.inv(use) @ diff)
        scores[c] = -0.5 * logdet - 0.5 * quad + math.log(prior)
    return scores


def qda_predict(x, X, y, w, ridge=None):
    return argmax_low_id(qda_scores(x, X, y, w, ridge))


# ---------------------------------------------------------------------------
# Least-squares score classifiers (numpy.linalg route)
# ---------------------------------------------------------------------------


def linreg_coef(X, y, w, ridge=None):
    X = np.asarray(X, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    w = w / w.sum()
    y = np.asarray(y, dtype=np.int64)
    classes = np.unique(y)
    z = np.hstack([np.ones((X.shape[0], 1)), X])
    a = z.T @ (z * w[:, None])
    a = (a + a.T) / 2
    r = RIDGE_SCALE * np.trace(a) / a.shape[0] if ridge is None else ridge
    penal = np.eye(a.shape[0])
    penal[0, 0] = 0.0  # intercept unpenalized
    a = a + r * penal
    b = (z * w[:, None]).T @ (y[:, None] == classes[None, :]).astype(float)
    return classes, np.linalg.solve(a, b)


def linreg_predict(x, X, y, w, ridge=None):
    classes, coef = linreg_coef(X, y, w, ridge)
    scores = np.concatenate([[1.0], np.asarray(x, float)]) @ coef
    return argmax_low_id({int(c): float(s) for c, s in zip(classes, scores)})


# ---------------------------------------------------------------------------
# Boost vote tally
# ---------------------------------------------------------------------------


def boost_vote(round_predictions, alphas):
    votes = {}
    for p, a in zip(round_predictions, alphas):
        votes[int(p)] = votes.get(int(p), 0.0) + float(a)
    return argmax_low_id(votes)
