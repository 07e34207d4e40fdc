"""The twelve weighted base learners behind one fit/predict interface.

A family is its row of FAMILIES (display name, payload name, payload
loader and group fit) plus its own module, which holds its fit and its
model class: a new family means one table row and one module.
fit(spec, ds, w) trains a model; every model exposes predict_batch
(activity ids for a query matrix), to_payload (JSON-serializable dict:
its fields, by numerics.FieldPayload, or a tree's or forest's nodes;
its FAMILIES row's loader reverses it) and check(n_features), which raises
ValueError if a rebuilt model's arrays do not fit its class ids and
n_features features, as those read from a model file may not. Fitting
is deterministic given (spec, dataset, weights): randomized families
draw everything from spec.seed. Weights are normalized to sum 1 before
use, so uniformly rescaling them cannot change the fitted model; k-NN
keeps the weights it was handed because they are part of its vote.
fit_group fits one spec to several datasets at once (the folds of a
cross-validation), each model the one its dataset alone gives, and
fold_scope lets a family share work between the folds while they run.
"""

from __future__ import annotations

import contextlib
import enum
import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields

import numpy as np

from ..dataset import ActivityLabel, Dataset
from ..numerics import check_weights
from . import bayes, discriminant, knn, regression, trees
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


def _bounded(default, low, help=None):
    """A hyperparameter field whose value, if set, is finite and >= low."""
    return field(default=default, metadata={"low": low, "help": help})


@dataclass(frozen=True)
class LearnerSpec:
    """A learner family plus its hyperparameters.

    Fields not used by a family are ignored by it. subset_size=None
    means ceil(sqrt(d)) at fit time; ridge=None means the scale-aware
    default from the numerics module. Every field after family is also
    a command-line flag (max_depth is --max-depth) with the field's
    default, and metadata["help"] as its help text; metadata["low"] is
    the least value a bounded field takes.
    """

    family: Family
    k: int = _bounded(12, 1, "k-NN neighbor count")
    max_depth: int = _bounded(10, 1)
    min_leaf_weight: float = _bounded(1e-4, 0)
    bins: int = _bounded(4, 2, "multiway-tree intervals")
    trees: int = _bounded(10, 1, "forest size")
    subset_size: int | None = _bounded(
        None, 1, "random-tree feature subset (default ceil(sqrt(d)))")
    ridge: float | None = _bounded(
        None, 0, "regularization for regressions/discriminants")
    seed: int = field(default=0, metadata={"help": "top-level seed"})

    def problems(self, n_features: int | None = None,
                 train_rows: int | None = None) -> list[tuple[str, str]]:
        """(field, message) for each bounded field set to a non-finite
        value or one below its bound, for a subset_size above n_features
        and for a k-NN k above train_rows (the smallest training set)."""
        found = []
        for f in HYPERPARAMETERS:
            value, low = getattr(self, f.name), f.metadata.get("low")
            if value is None or low is None:
                continue
            if isinstance(value, float) and not math.isfinite(value):
                found.append((f.name, f"{f.name} must be finite"))
            elif value < low:
                found.append((f.name, f"{f.name} must be >= {low}"))
        if n_features is not None and (self.subset_size or 0) > n_features:
            found.append(("subset_size",
                          f"subset_size exceeds the {n_features} features"))
        if (train_rows is not None and self.family is Family.KNN
                and self.k > train_rows):
            found.append(("k", f"k={self.k} exceeds the {train_rows} rows "
                               f"of the smallest training set"))
        return found

    def validate(self, n_features=None, train_rows=None) -> None:
        if found := self.problems(n_features, train_rows):
            raise ValueError("; ".join(message for _, message in found))

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
    and, unless raw_weights, normalized to sum 1. fold_scope, if set, is
    the family's context manager for fold_scope below."""

    display_name: str  # its name in reports
    payload: str       # the family its models' payloads carry and load by
    loader: Callable   # payload dict -> model
    fit: Callable
    raw_weights: bool = False
    fold_scope: Callable | None = None


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
        _alone(lambda s, ds, w: knn.fit_knn(ds, w, s.k)), raw_weights=True,
        fold_scope=lambda s, features, folds, parts: knn.fold_scope(
            features, folds, parts, s.k)),
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
    spec.validate(datasets[0].n_features, min(ds.n_rows for ds in datasets))
    row = FAMILIES[spec.family]
    checked = []
    for ds, w in zip(datasets, weights, strict=True):
        w = check_weights(w, ds.n_rows)
        checked.append(w if row.raw_weights else w / w.sum())
    return row.fit(spec, datasets, checked, seeds)


def fold_scope(spec, features, folds: int, parts):
    """A context manager that the folds of a `folds`-fold
    cross-validation of spec on features fit and predict within. parts
    pairs each array they fit or predict on (a fold's training features
    or test matrix) with its rows of features, ascending. A family may
    share work between the folds inside it; nothing it keeps outlives
    the block, and every model and prediction is the one a lone fit of
    each fold gives."""
    row = FAMILIES[spec.family] if isinstance(spec, LearnerSpec) else None
    if row is None or row.fold_scope is None:
        return contextlib.nullcontext()
    return row.fold_scope(spec, features, folds, parts)


def predict(model, x) -> ActivityLabel:
    """Predict a single feature vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("predict expects a single feature vector")
    return ActivityLabel(int(model.predict_batch(x[None, :])[0]))


__all__ = [
    "ConstantLearner",
    "FAMILIES",
    "Family",
    "HYPERPARAMETERS",
    "LearnerSpec",
    "fit",
    "fit_group",
    "fold_scope",
    "predict",
    "spec_from_payload",
    "value_type",
]
