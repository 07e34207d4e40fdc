"""The twelve weighted base learners behind one fit/predict interface.

A family is its row of FAMILIES (display name, payload name, payload
loader and group fit) plus its own module, which holds its fit and its
model class: a new family means one table row and one module.
fit(spec, ds, w) trains a model; every model exposes predict_batch
(activity ids for a query matrix), to_payload (JSON-serializable dict:
its fields, by numerics.FieldPayload, or a tree's or forest's nodes;
model_from_payload reverses it) and check(n_features), which raises
ValueError if a rebuilt model's arrays do not fit its class ids and
n_features features, as those read from a model file may not. Fitting
is deterministic given (spec, dataset, weights): randomized families
draw everything from spec.seed. Weights are normalized to sum 1 before
use, so uniformly rescaling them cannot change the fitted model; k-NN
keeps the weights it was handed because they are part of its vote.
fit_group fits one spec to several datasets at once (the folds of a
cross-validation), each model the one its dataset alone gives.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields

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


@dataclass(frozen=True)
class LearnerSpec:
    """A learner family plus its hyperparameters.

    Fields not used by a family are ignored by it. subset_size=None
    means ceil(sqrt(d)) at fit time; ridge=None means the scale-aware
    default from the numerics module. Every field after family is also
    a command-line flag (max_depth is --max-depth) with the field's
    default, and metadata["help"] as its help text.
    """

    family: Family
    k: int = field(default=12, metadata={"help": "k-NN neighbor count"})
    max_depth: int = 10
    min_leaf_weight: float = 1e-4
    bins: int = field(default=4, metadata={"help": "multiway-tree intervals"})
    trees: int = field(default=10, metadata={"help": "forest size"})
    subset_size: int | None = field(default=None, metadata={
        "help": "random-tree feature subset (default ceil(sqrt(d)))"})
    ridge: float | None = field(default=None, metadata={
        "help": "regularization for regressions/discriminants"})
    seed: int = field(default=0, metadata={"help": "top-level seed"})

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
        return fit_group(self, [ds], [w],
                         [self.seed if seed is None else seed])[0]

    def _subset(self, ds: Dataset) -> int:
        if self.subset_size is not None:
            return self.subset_size
        return math.isqrt(ds.n_features - 1) + 1 if ds.n_features > 1 else 1

    def hyperparameters(self) -> dict:
        """Every field but family, by name."""
        return {f.name: getattr(self, f.name) for f in HYPERPARAMETERS}

    def to_payload(self) -> dict:
        return {"family": self.family.value, **self.hyperparameters()}


@dataclass(frozen=True)
class FamilyRow:
    """A learner family's entry in FAMILIES. fit(spec, datasets, weights,
    seeds) returns one model per dataset; the weights it gets are checked
    and, unless raw_weights, normalized to sum 1."""

    display_name: str  # its name in reports
    payload: str       # the family its models' payloads carry and load by
    loader: Callable   # payload dict -> model
    fit: Callable
    raw_weights: bool = False


def _alone(fit) -> Callable:
    """A group fit that fits each dataset by itself with fit(spec, ds, w)."""
    return lambda spec, datasets, weights, seeds: [
        fit(spec, ds, w) for ds, w in zip(datasets, weights)]


#: Every learner family. The payload names are those of format-v1 model
#: files. Each fit looks its function up in the family's module at call
#: time, so that a function patched there is the one that runs.
FAMILIES = {
    Family.KNN: FamilyRow(
        "k-NN", "knn", knn.KnnModel.from_payload,
        _alone(lambda s, ds, w: knn.fit_knn(ds, w, s.k)), raw_weights=True),
    Family.DECISION_STUMP: FamilyRow(
        "Decision Stump", "stump", trees.model_from_payload,
        lambda s, dss, ws, seeds: trees.fit_trees(
            dss, ws, seeds, 1, s.min_leaf_weight, "stump")),
    Family.DECISION_TREE: FamilyRow(
        "Decision Tree", "tree", trees.model_from_payload,
        lambda s, dss, ws, seeds: trees.fit_trees(
            dss, ws, seeds, s.max_depth, s.min_leaf_weight, "tree")),
    Family.MULTIWAY_TREE: FamilyRow(
        "Multiway Decision Tree", "multiway", trees.model_from_payload,
        lambda s, dss, ws, seeds: trees.fit_trees(
            dss, ws, seeds, s.max_depth, s.min_leaf_weight, "multiway",
            s.bins)),
    Family.RANDOM_TREE: FamilyRow(
        "Random Tree", "random", trees.model_from_payload,
        lambda s, dss, ws, seeds: trees.fit_trees(
            dss, ws, seeds, s.max_depth, s.min_leaf_weight, "random",
            subset_size=s._subset(dss[0]))),
    Family.RANDOM_FOREST: FamilyRow(
        "Random Forest", "forest", trees.model_from_payload,
        lambda s, dss, ws, seeds: trees.fit_forests(
            dss, ws, seeds, s.trees, s.max_depth, s.min_leaf_weight,
            s._subset(dss[0]))),
    Family.NAIVE_BAYES: FamilyRow(
        "Naive Bayes", "naive-bayes", bayes.GaussianNbModel.from_payload,
        _alone(lambda s, ds, w: bayes.fit_gaussian_nb(ds, w))),
    Family.KERNEL_NAIVE_BAYES: FamilyRow(
        "Naive Bayes (Kernel)", "kernel-naive-bayes",
        bayes.KernelNbModel.from_payload,
        _alone(lambda s, ds, w: bayes.fit_kernel_nb(ds, w))),
    Family.LDA: FamilyRow(
        "Linear Discriminant Analysis", "lda",
        discriminant.LdaModel.from_payload,
        _alone(lambda s, ds, w: discriminant.fit_lda(ds, w, s.ridge))),
    Family.QDA: FamilyRow(
        "Quadratic Discriminant Analysis", "qda",
        discriminant.QdaModel.from_payload,
        _alone(lambda s, ds, w: discriminant.fit_qda(ds, w, s.ridge))),
    Family.LINEAR_REGRESSION_OVR: FamilyRow(
        "Linear Regression", "linear-regression",
        regression.LinearScoreModel.from_payload,
        _alone(lambda s, ds, w: regression.fit_linear(ds, w, s.ridge,
                                                      joint=False))),
    Family.VECTOR_LINEAR_REGRESSION: FamilyRow(
        "Vector Linear Regression", "vector-linear-regression",
        regression.LinearScoreModel.from_payload,
        _alone(lambda s, ds, w: regression.fit_linear(ds, w, s.ridge,
                                                      joint=True))),
}

_LOADERS = {row.payload: row.loader for row in FAMILIES.values()}
_LOADERS["constant"] = constant.ConstantModel.from_payload


#: The LearnerSpec fields after family, in declaration order.
HYPERPARAMETERS = fields(LearnerSpec)[1:]


def value_type(f) -> type:
    """int or float: the type a hyperparameter field holds when set."""
    return float if f.type.startswith("float") else int


def spec_from_payload(p: dict) -> LearnerSpec:
    return LearnerSpec(Family(p["family"]), **{
        f.name: None if p[f.name] is None else value_type(f)(p[f.name])
        for f in HYPERPARAMETERS
    })


def fit(spec: LearnerSpec, ds: Dataset, w=None):
    """Train spec on ds; w defaults to uniform weights."""
    if w is None:
        w = np.full(ds.n_rows, 1.0 / ds.n_rows)
    return spec.fit_weighted(ds, w)


def fit_group(spec, datasets, weights, seeds) -> list:
    """The model of every (ds, w, seed), in order, trained by spec.

    A LearnerSpec fits through its family's row of FAMILIES: a tree
    family fits all the datasets at once, datasets with the same class
    set growing their trees through one grower, and every model is the
    one a fit of its dataset alone gives. Any other spec, such as
    ConstantLearner, fits one dataset at a time with its fit_weighted.
    """
    if not isinstance(spec, LearnerSpec):
        return [spec.fit_weighted(ds, w, seed=seed)
                for ds, w, seed in zip(datasets, weights, seeds, strict=True)]
    if len({ds.n_features for ds in datasets}) > 1:
        raise ValueError("datasets fitted together need the same features")
    row = FAMILIES[spec.family]
    checked = []
    for ds, w in zip(datasets, weights, strict=True):
        spec.validate(ds.n_features)
        w = check_weights(w, ds.n_rows)
        checked.append(w if row.raw_weights else w / w.sum())
    return row.fit(spec, datasets, checked, seeds)


def predict(model, x) -> ActivityLabel:
    """Predict a single feature vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("predict expects a single feature vector")
    return ActivityLabel(int(model.predict_batch(x[None, :])[0]))


def model_from_payload(p: dict):
    """Rebuild any serialized model from its to_payload() dict."""
    try:
        loader = _LOADERS[p["family"]]
    except KeyError:
        raise ValueError(f"unknown model family in payload: {p.get('family')!r}")
    return loader(p)


__all__ = [
    "ConstantLearner",
    "FAMILIES",
    "Family",
    "HYPERPARAMETERS",
    "LearnerSpec",
    "fit",
    "fit_group",
    "model_from_payload",
    "predict",
    "spec_from_payload",
    "value_type",
]
