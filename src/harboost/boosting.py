"""Multi-class AdaBoost (discrete SAMME) over any base learner.

The loop starts from uniform weights 1/N and, for round t = 1..T, fits
the base learner on the current distribution, measures its weighted
training error eps_t, and sets the vote weight

    alpha_t = ln((1 - eps_t) / eps_t) + ln(K - 1)

where K is the number of classes present in the training data. Weights
of misclassified rows are multiplied by exp(alpha_t) and the
distribution renormalized. A round with eps_t >= 1 - 1/K is discarded
and stops the loop (a first-round failure still yields a usable
single-model ensemble with alpha = ln(K - 1)); eps_t <= 1e-10 is
clamped to 1e-10, the round is kept, and the loop stops. Round t fits
with learner seed `seed XOR t`.

boost_fit_folds runs the loops of several datasets (the folds of a
cross-validation) in lockstep: round t fits every live fold's model in
one learners.fit_group call, so the tree families grow all those folds'
trees through one grower, one grower per class set, since trees grown
on another class axis would sum their float masses in another order. A
fold that stops drops out of later rounds. boost_fit is its one-fold
call, and every fold's ensemble is the one boost_fit gives it alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import ActivityLabel, Dataset
from .learners import fit_group, predict

#: Lower clamp on the weighted error, bounding alpha at ln(1e10) + ln(K-1).
EPSILON_CLAMP = 1e-10


def samme_alpha(epsilon: float, num_classes: int) -> float:
    """Vote weight for a round with weighted error epsilon."""
    return math.log((1.0 - epsilon) / epsilon) + math.log(num_classes - 1)


@dataclass(frozen=True)
class BoostRound:
    """One retained round; weight_sum/min_weight describe the updated
    distribution (None for rounds that stopped the loop)."""

    model: object
    alpha: float
    epsilon: float
    weight_sum: float | None = None
    min_weight: float | None = None


@dataclass(frozen=True)
class BoostedEnsemble:
    rounds: tuple[BoostRound, ...]
    num_classes: int
    class_ids: np.ndarray
    base_spec: object
    rounds_requested: int
    seed: int

    def predict_batch(self, X) -> np.ndarray:
        return boost_predict_batch(self, X)


def boost_fit(base_spec, ds: Dataset, rounds: int = 10, seed: int = 0) -> BoostedEnsemble:
    """Run the SAMME loop; base_spec is a LearnerSpec or any object with
    fit_weighted(ds, w, seed)."""
    return boost_fit_folds(base_spec, [ds], rounds, [seed])[0]


def boost_fit_folds(base_spec, datasets, rounds: int, seeds) -> list[BoostedEnsemble]:
    """Run the SAMME loop on every dataset in lockstep.

    Round t fits the models of every fold still boosting, through one
    learners.fit_group call, before any fold starts round t + 1; a fold
    whose round stops its loop drops out of later rounds. Each ensemble
    is the one boost_fit(base_spec, ds, rounds, seed) gives for its
    dataset alone.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    folds = [_Fold(ds, seed) for ds, seed in zip(datasets, seeds, strict=True)]
    for t in range(1, rounds + 1):
        live = [f for f in folds if not f.stopped]
        if not live:
            break
        models = fit_group(base_spec, [f.ds for f in live],
                           [f.w for f in live], [f.seed ^ t for f in live])
        for fold, model in zip(live, models):
            fold.add_round(t, model)
    return [
        BoostedEnsemble(tuple(f.kept), len(f.class_ids), f.class_ids,
                        base_spec, rounds, f.seed)
        for f in folds
    ]


class _Fold:
    """One dataset's SAMME state: its distribution and the rounds kept."""

    def __init__(self, ds: Dataset, seed: int):
        self.class_ids = np.unique(ds.labels)
        if len(self.class_ids) < 2:
            raise ValueError("boosting needs at least 2 classes in the data")
        self.ds, self.seed = ds, seed
        self.w = np.full(ds.n_rows, 1.0 / ds.n_rows)
        self.kept: list[BoostRound] = []
        self.stopped = False
        self.score = None  # round 1's scorer of the training rows

    def add_round(self, t: int, model) -> None:
        """Score round t's model on the training rows and update."""
        ds, num_classes = self.ds, len(self.class_ids)
        if self.score is None:
            self.score = _scorer(model, ds.features)
        miss = self.score(model) != ds.labels
        epsilon = float(self.w[miss].sum())
        if epsilon >= 1.0 - 1.0 / num_classes:
            if t == 1:
                self.kept.append(
                    BoostRound(model, math.log(num_classes - 1), epsilon)
                )
            self.stopped = True
        elif epsilon <= EPSILON_CLAMP:
            self.kept.append(
                BoostRound(model, samme_alpha(EPSILON_CLAMP, num_classes),
                           EPSILON_CLAMP)
            )
            self.stopped = True
        else:
            alpha = samme_alpha(epsilon, num_classes)
            w = self.w * np.exp(alpha * miss)
            self.w = w / w.sum()
            self.kept.append(BoostRound(model, alpha, epsilon,
                                        float(self.w.sum()),
                                        float(self.w.min())))


def _scorer(model, X):
    """score(m) -> m's predictions for X. A model with round_scorer(X)
    shares its per-X work with the later rounds it recognises."""
    round_scorer = getattr(model, "round_scorer", None)
    return round_scorer(X) if round_scorer else lambda m: m.predict_batch(X)


def boost_predict_batch(ens: BoostedEnsemble, X) -> np.ndarray:
    """Alpha-weighted vote over rounds; ties go to the lower class id."""
    X = np.asarray(X, dtype=np.float64)
    votes = np.zeros((X.shape[0], ens.num_classes))
    rows = np.arange(X.shape[0])
    score = _scorer(ens.rounds[0].model, X)
    for r in ens.rounds:
        votes[rows, np.searchsorted(ens.class_ids, score(r.model))] += r.alpha
    return ens.class_ids[votes.argmax(axis=1)]


def boost_predict(ens: BoostedEnsemble, x) -> ActivityLabel:
    return predict(ens, x)
