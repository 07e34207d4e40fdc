"""Majority-class baseline: predicts one fixed label.

The fit deliberately ignores sample weights (it counts rows), so a
boosted ensemble of this learner keeps predicting the same class every
round. That makes it the reference implementation of the
majority-class baseline rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..numerics import FieldPayload


@dataclass(frozen=True)
class ConstantModel(FieldPayload):
    family: ClassVar[str] = "constant"
    label: int
    class_ids: np.ndarray

    def predict_batch(self, X) -> np.ndarray:
        X = np.asarray(X)
        return np.full(X.shape[0], self.label, dtype=np.int64)


@dataclass(frozen=True)
class ConstantLearner:
    """Weight-ignoring baseline usable wherever a LearnerSpec is."""

    def fit_weighted(self, ds, w, seed=None) -> ConstantModel:
        ids, counts = np.unique(ds.labels, return_counts=True)
        return ConstantModel(int(ids[counts.argmax()]), ids)
