"""harboost: boosted classical learners for 12-class activity recognition
on HAPT-style body-acceleration features.

The library provides dataset ingestion and feature selection, twelve
from-scratch weighted base learners, a multi-class AdaBoost (SAMME)
wrapper, stratified cross-validation with confusion-matrix metrics, a
learner-comparison harness, and versioned model persistence. Everything
is deterministic given its seeds.
"""

__version__ = "0.1.0"

from .boosting import (
    BoostedEnsemble,
    BoostRound,
    boost_fit,
    boost_predict,
    boost_predict_batch,
    samme_alpha,
)
from .dataset import (
    BODY_ACC_FEATURES,
    REPORT_CLASS_ORDER,
    ActivityLabel,
    DataError,
    Dataset,
    FoldAssignment,
    dataset_digest,
    load_body_acc,
    load_csv,
    load_hapt,
    save_csv,
    select_features,
    stratified_folds,
    summarize_by_activity,
)
from .evaluation import (
    ComparisonReport,
    ConfusionMatrix,
    CVResult,
    accuracy_binary,
    class_precision,
    class_recall,
    compare,
    confusion_from_predictions,
    cross_validate,
    overall_accuracy,
)
from .learners import ConstantLearner, Family, LearnerSpec, fit, predict
from .modelfile import LoadedModel, ModelFormatError, load_model, save_model

from types import ModuleType as _ModuleType

#: every public name imported above; submodules are not exports
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, _ModuleType))
