"""The twelve weighted base learners behind one fit/predict interface.

fit(spec, ds, w) trains a model; every model exposes predict_batch
(activity ids for a query matrix) and to_payload (JSON-serializable
dict; model_from_payload reverses it). Fitting is deterministic given
(spec, dataset, weights): randomized families draw everything from
spec.seed. Weights are normalized to sum 1 before use, so uniformly
rescaling them cannot change the fitted model; k-NN keeps the weights
it was handed because they are part of its vote.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ..dataset import ActivityLabel, Dataset
from ..numerics import check_weights
from . import bayes, constant, discriminant, knn, regression, trees
from .constant import ConstantLearner


class Family(enum.Enum):
    KNN = "knn"
    DECISION_STUMP = "decision-stump"
    DECISION_TREE = "decision-tree"
    MULTIWAY_TREE = "multiway-tree"
    RANDOM_TREE = "random-tree"
    RANDOM_FOREST = "random-forest"
    NAIVE_BAYES = "naive-bayes"
    KERNEL_NAIVE_BAYES = "kernel-naive-bayes"
    LDA = "lda"
    QDA = "qda"
    LINEAR_REGRESSION_OVR = "linear-regression"
    VECTOR_LINEAR_REGRESSION = "vector-linear-regression"


#: Human-readable names used in comparison reports.
DISPLAY_NAMES = {
    Family.KNN: "k-NN",
    Family.DECISION_STUMP: "Decision Stump",
    Family.DECISION_TREE: "Decision Tree",
    Family.MULTIWAY_TREE: "Multiway Decision Tree",
    Family.RANDOM_TREE: "Random Tree",
    Family.RANDOM_FOREST: "Random Forest",
    Family.NAIVE_BAYES: "Naive Bayes",
    Family.KERNEL_NAIVE_BAYES: "Naive Bayes (Kernel)",
    Family.LDA: "Linear Discriminant Analysis",
    Family.QDA: "Quadratic Discriminant Analysis",
    Family.LINEAR_REGRESSION_OVR: "Linear Regression",
    Family.VECTOR_LINEAR_REGRESSION: "Vector Linear Regression",
}


@dataclass(frozen=True)
class LearnerSpec:
    """A learner family plus its hyperparameters.

    Fields not used by a family are ignored by it. subset_size=None
    means ceil(sqrt(d)) at fit time; ridge=None means the scale-aware
    default from the numerics module.
    """

    family: Family
    k: int = 12
    max_depth: int = 10
    min_leaf_weight: float = 1e-4
    bins: int = 4
    trees: int = 10
    subset_size: int | None = None
    ridge: float | None = None
    seed: int = 0

    def validate(self, n_features: int | None = None) -> None:
        problems = []
        if self.k < 1:
            problems.append("k must be >= 1")
        if self.max_depth < 1:
            problems.append("max_depth must be >= 1")
        if self.min_leaf_weight < 0:
            problems.append("min_leaf_weight must be >= 0")
        if self.bins < 2:
            problems.append("bins must be >= 2")
        if self.trees < 1:
            problems.append("trees must be >= 1")
        if self.subset_size is not None and self.subset_size < 1:
            problems.append("subset_size must be >= 1")
        if (
            n_features is not None
            and self.subset_size is not None
            and self.subset_size > n_features
        ):
            problems.append(f"subset_size exceeds the {n_features} features")
        if self.ridge is not None and self.ridge < 0:
            problems.append("ridge must be >= 0")
        if problems:
            raise ValueError("; ".join(problems))

    def fit_weighted(self, ds: Dataset, w, seed: int | None = None):
        """Train this family on weighted data; seed overrides self.seed."""
        self.validate(ds.n_features)
        w = check_weights(w, ds.n_rows)
        seed = self.seed if seed is None else seed
        fam = self.family
        if fam is Family.KNN:
            return knn.fit_knn(ds, w, self.k)
        w = w / w.sum()
        if fam is Family.DECISION_STUMP:
            return trees.fit_tree(ds, w, 1, self.min_leaf_weight, kind="stump")
        if fam is Family.DECISION_TREE:
            return trees.fit_tree(ds, w, self.max_depth, self.min_leaf_weight)
        if fam is Family.MULTIWAY_TREE:
            return trees.fit_tree(
                ds, w, self.max_depth, self.min_leaf_weight,
                kind="multiway", bins=self.bins,
            )
        if fam is Family.RANDOM_TREE:
            return trees.fit_tree(
                ds, w, self.max_depth, self.min_leaf_weight,
                kind="random", subset_size=self._subset(ds), seed=seed,
            )
        if fam is Family.RANDOM_FOREST:
            return trees.fit_forest(
                ds, w, self.trees, self.max_depth, self.min_leaf_weight,
                self._subset(ds), seed,
            )
        if fam is Family.NAIVE_BAYES:
            return bayes.fit_gaussian_nb(ds, w)
        if fam is Family.KERNEL_NAIVE_BAYES:
            return bayes.fit_kernel_nb(ds, w)
        if fam is Family.LDA:
            return discriminant.fit_lda(ds, w, self.ridge)
        if fam is Family.QDA:
            return discriminant.fit_qda(ds, w, self.ridge)
        if fam is Family.LINEAR_REGRESSION_OVR:
            return regression.fit_linear(ds, w, self.ridge, joint=False)
        if fam is Family.VECTOR_LINEAR_REGRESSION:
            return regression.fit_linear(ds, w, self.ridge, joint=True)
        raise ValueError(f"unknown family: {fam}")

    def _subset(self, ds: Dataset) -> int:
        if self.subset_size is not None:
            return self.subset_size
        return math.isqrt(ds.n_features - 1) + 1 if ds.n_features > 1 else 1

    def to_payload(self) -> dict:
        return {
            "family": self.family.value,
            "k": self.k,
            "max_depth": self.max_depth,
            "min_leaf_weight": self.min_leaf_weight,
            "bins": self.bins,
            "trees": self.trees,
            "subset_size": self.subset_size,
            "ridge": self.ridge,
            "seed": self.seed,
        }


def spec_from_payload(p: dict) -> LearnerSpec:
    return LearnerSpec(
        family=Family(p["family"]),
        k=int(p["k"]),
        max_depth=int(p["max_depth"]),
        min_leaf_weight=float(p["min_leaf_weight"]),
        bins=int(p["bins"]),
        trees=int(p["trees"]),
        subset_size=None if p["subset_size"] is None else int(p["subset_size"]),
        ridge=None if p["ridge"] is None else float(p["ridge"]),
        seed=int(p["seed"]),
    )


def fit(spec: LearnerSpec, ds: Dataset, w=None):
    """Train spec on ds; w defaults to uniform weights."""
    if w is None:
        w = np.full(ds.n_rows, 1.0 / ds.n_rows)
    return spec.fit_weighted(ds, w)


def predict(model, x) -> ActivityLabel:
    """Predict a single feature vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("predict expects a single feature vector")
    return ActivityLabel(int(model.predict_batch(x[None, :])[0]))


_PAYLOAD_LOADERS = {
    "knn": knn.model_from_payload,
    "stump": trees.model_from_payload,
    "tree": trees.model_from_payload,
    "multiway": trees.model_from_payload,
    "random": trees.model_from_payload,
    "forest": trees.model_from_payload,
    "naive-bayes": bayes.gaussian_nb_from_payload,
    "kernel-naive-bayes": bayes.kernel_nb_from_payload,
    "lda": discriminant.lda_from_payload,
    "qda": discriminant.qda_from_payload,
    "linear-regression": regression.model_from_payload,
    "vector-linear-regression": regression.model_from_payload,
    "constant": constant.model_from_payload,
}


def model_from_payload(p: dict):
    """Rebuild any serialized model from its to_payload() dict."""
    try:
        loader = _PAYLOAD_LOADERS[p["family"]]
    except KeyError:
        raise ValueError(f"unknown model family in payload: {p.get('family')!r}")
    return loader(p)


__all__ = [
    "ConstantLearner",
    "DISPLAY_NAMES",
    "Family",
    "LearnerSpec",
    "fit",
    "model_from_payload",
    "predict",
    "spec_from_payload",
]
