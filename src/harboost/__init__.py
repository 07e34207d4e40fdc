"""harboost: boosted classical learners for 12-class activity recognition
on HAPT-style body-acceleration features.

The library provides dataset ingestion and feature selection, twelve
from-scratch weighted base learners, a multi-class AdaBoost (SAMME)
wrapper, stratified cross-validation with confusion-matrix metrics, a
learner-comparison harness, and versioned model persistence. Everything
is deterministic given its seeds.

Public names are imported from their modules on first use (PEP 562), so
importing a submodule, such as harboost.synthetic, loads only its imports.
"""

__version__ = "0.1.0"

#: The module of each public name
_EXPORTS = {name: module for module, names in {
    "boosting": "BoostedEnsemble BoostRound boost_fit boost_predict "
                "boost_predict_batch samme_alpha",
    "dataset": "BODY_ACC_FEATURES REPORT_CLASS_ORDER ActivityLabel DataError "
               "Dataset FoldAssignment dataset_digest load_body_acc load_csv "
               "load_hapt save_csv select_features stratified_folds "
               "summarize_by_activity",
    "evaluation": "ComparisonReport ConfusionMatrix CVResult accuracy_binary "
                  "class_precision class_recall compare "
                  "confusion_from_predictions cross_validate overall_accuracy",
    "learners": "ConstantLearner Family LearnerSpec fit predict",
    "modelfile": "LoadedModel ModelFormatError load_model save_model",
}.items() for name in names.split()}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module 'harboost' has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value

