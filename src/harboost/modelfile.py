"""Versioned model persistence.

Models are stored as a single JSON document (format_version 1) with
shortest-round-trip decimal encoding for every real, so reloaded models
predict bit-identically. A k-NN ensemble's stored training matrix is
identical across rounds and is therefore written once (rounds reference
it as "shared"); loading re-shares one read-only array so batch
prediction can reuse one neighbor table for all rounds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .boosting import BoostedEnsemble, BoostRound
from .learners import (
    HYPERPARAMETERS,
    LearnerSpec,
    model_from_payload,
    spec_from_payload,
    value_type,
)
from .learners.bayes import GaussianNbModel, KernelNbModel
from .learners.constant import ConstantModel
from .learners.discriminant import LdaModel, QdaModel
from .learners.knn import KnnModel
from .learners.regression import LinearScoreModel
from .learners.trees import ForestModel, TreeModel, max_feature

FORMAT_VERSION = 1
_KIND = "harboost.model"
_DOC_KEYS = ("base_spec", "num_classes", "class_ids", "rounds_requested",
             "seed", "rounds", "feature_names", "metadata")
_ROUND_KEYS = ("alpha", "epsilon", "model")
_METADATA_KEYS = ("n_rows", "dataset_digest")


class ModelFormatError(Exception):
    """Raised for unreadable, mis-versioned, or malformed model files."""


@dataclass(frozen=True)
class LoadedModel:
    ensemble: BoostedEnsemble
    feature_names: tuple[str, ...]
    n_rows: int
    dataset_digest: str


def save_model(path, ensemble: BoostedEnsemble, feature_names,
               dataset_digest: str, n_rows: int) -> None:
    if not isinstance(ensemble.base_spec, LearnerSpec):
        raise ValueError("only LearnerSpec-based ensembles can be saved")
    shared_rows = None
    rounds = []
    for r in ensemble.rounds:
        payload = r.model.to_payload()
        if payload["family"] == "knn":
            if shared_rows is None:
                shared_rows = payload["rows"]
            if payload["rows"] == shared_rows:
                payload = {**payload, "rows": "shared"}
        rounds.append({
            "alpha": r.alpha,
            "epsilon": r.epsilon,
            "model": payload,
        })
    doc = {
        "kind": _KIND,
        "format_version": FORMAT_VERSION,
        "base_spec": ensemble.base_spec.to_payload(),
        "num_classes": ensemble.num_classes,
        "class_ids": ensemble.class_ids.tolist(),
        "rounds_requested": ensemble.rounds_requested,
        "seed": ensemble.seed,
        "rounds": rounds,
        "shared_knn_rows": shared_rows,
        "feature_names": list(feature_names),
        "metadata": {
            "n_rows": int(n_rows),
            "dataset_digest": dataset_digest,
        },
    }
    Path(path).write_text(
        json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _require_keys(obj, keys, where: str) -> None:
    if not isinstance(obj, dict):
        raise ModelFormatError(f"{where}: not a JSON object")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise ModelFormatError(f"{where}: missing key(s): {', '.join(missing)}")


_JSON_TYPES = {"integer": int, "number": (int, float), "array": list}


def _require_type(value, kind: str, where: str):
    """value, if it is a JSON value of `kind` (a key of _JSON_TYPES)."""
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind]):
        raise ModelFormatError(f"{where} is {value!r}, not a JSON {kind}")
    return value


def _check_spec(p, where: str) -> None:
    _require_keys(p, ["family", *(f.name for f in HYPERPARAMETERS)], where)
    for f in HYPERPARAMETERS:  # a field that defaults to None may be null
        if p[f.name] is not None or f.default is not None:
            kind = "number" if value_type(f) is float else "integer"
            _require_type(p[f.name], kind, f"{where}: {f.name}")


def _check_arrays(model, d: int, where: str) -> None:
    """Reject a model whose arrays do not fit its class ids and d features.

    Such a model would load and then fail or mislabel rows in predict.
    Trees are checked as they are rebuilt and against max_feature.
    """
    K = len(model.class_ids)

    def expect(name, a, shape, positive=False):
        a = np.asarray(a)
        if a.dtype.kind not in "fi":
            raise ModelFormatError(f"{where}: {name} is not numeric")
        if a.shape != shape:
            raise ModelFormatError(
                f"{where}: {name} has shape {a.shape}, expected {shape}"
            )
        bad = ~np.isfinite(a) | ((a <= 0) if positive else False)
        if bad.any():
            raise ModelFormatError(
                f"{where}: {name} holds {a[bad].flat[0]}, expected finite "
                f"values{' above 0' if positive else ''}"
            )

    def row_count(name, a) -> int:
        shape = np.shape(a)
        if len(shape) != 2 or shape[0] == 0:
            raise ModelFormatError(
                f"{where}: {name} has shape {shape}, expected (rows >= 1, {d})"
            )
        return shape[0]

    def per_class(name, arrays) -> None:
        if len(arrays) != K:
            raise ModelFormatError(
                f"{where}: {len(arrays)} {name} for {K} class_ids"
            )

    if isinstance(model, (GaussianNbModel, KernelNbModel, LdaModel, QdaModel)):
        expect("priors", model.priors, (K,), positive=True)
    if isinstance(model, GaussianNbModel):
        expect("means", model.means, (K, d))
        expect("variances", model.variances, (K, d))
    elif isinstance(model, KernelNbModel):
        expect("bandwidths", model.bandwidths, (K, d), positive=True)
        per_class("samples", model.samples)
        per_class("sample_weights", model.sample_weights)
        for c, (x, w) in enumerate(zip(model.samples, model.sample_weights)):
            n_c = row_count(f"samples[{c}]", x)
            expect(f"samples[{c}]", x, (n_c, d))
            expect(f"sample_weights[{c}]", w, (n_c,))
    elif isinstance(model, LdaModel):
        expect("coef", model.coef, (d, K))
        expect("intercept", model.intercept, (K,))
    elif isinstance(model, QdaModel):
        expect("means", model.means, (K, d))
        expect("log_dets", model.log_dets, (K,))
        per_class("factors", model.factors)
        for c, f in enumerate(model.factors):
            expect(f"factors[{c}]", f, (d, d))
            expect(f"factors[{c}] diagonal", np.diagonal(f), (d,),
                   positive=True)
    elif isinstance(model, LinearScoreModel):
        expect("coef", model.coef, (d + 1, K))
    elif isinstance(model, KnnModel):
        n = row_count("rows", model.rows)
        expect("rows", model.rows, (n, d))
        expect("weights", model.weights, (n,))
        if not np.isin(model.labels, model.class_ids).all():
            raise ModelFormatError(
                f"{where}: a row label is not among class_ids"
            )
        if model.labels.shape != (n,) or not 1 <= model.k <= n:
            raise ModelFormatError(
                f"{where}: {model.labels.size} labels and k={model.k} "
                f"for {n} stored rows"
            )
    elif isinstance(model, ConstantModel):
        if model.label not in model.class_ids:
            raise ModelFormatError(
                f"{where}: label {model.label} is not among class_ids"
            )


def load_model(path) -> LoadedModel:
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"missing file: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ModelFormatError(f"{path}: not valid JSON ({e})") from None
    if not isinstance(doc, dict) or doc.get("kind") != _KIND:
        raise ModelFormatError(f"{path}: not a harboost model file")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: format_version {version!r} is not supported "
            f"(expected {FORMAT_VERSION})"
        )
    _require_keys(doc, _DOC_KEYS, str(path))
    _require_keys(doc["metadata"], _METADATA_KEYS, f"{path}: metadata")
    _check_spec(doc["base_spec"], f"{path}: base_spec")
    for key in ("num_classes", "rounds_requested", "seed"):
        _require_type(doc[key], "integer", f"{path}: {key}")
    _require_type(doc["metadata"]["n_rows"], "integer",
                  f"{path}: metadata: n_rows")
    for key in ("class_ids", "rounds", "feature_names"):
        _require_type(doc[key], "array", f"{path}: {key}")
    for c in doc["class_ids"]:
        _require_type(c, "integer", f"{path}: a class id")
    num_classes = doc["num_classes"]
    class_ids = np.array(doc["class_ids"], dtype=np.int64)
    if class_ids.shape != (num_classes,):
        raise ModelFormatError(
            f"{path}: {len(doc['class_ids'])} class_ids for "
            f"num_classes {num_classes}"
        )
    if (np.diff(class_ids) <= 0).any():  # votes are placed by searchsorted
        raise ModelFormatError(
            f"{path}: class_ids {class_ids.tolist()} are not strictly "
            f"increasing"
        )
    shared = None
    if doc.get("shared_knn_rows") is not None:
        try:
            shared = np.array(doc["shared_knn_rows"], dtype=np.float64)
        except (ValueError, TypeError) as e:
            raise ModelFormatError(f"{path}: shared_knn_rows: {e}") from None
        shared.flags.writeable = False
    n_features = len(doc["feature_names"])
    rounds = []
    for i, r in enumerate(doc["rounds"], start=1):
        where = f"{path}: round {i}"
        _require_keys(r, _ROUND_KEYS, where)
        alpha = float(_require_type(r["alpha"], "number", f"{where}: alpha"))
        epsilon = float(
            _require_type(r["epsilon"], "number", f"{where}: epsilon")
        )
        if not math.isfinite(alpha):
            raise ModelFormatError(f"{where}: non-finite alpha {alpha}")
        payload = r["model"]
        _require_keys(payload, ("family",), f"{where}: model")
        if payload["family"] == "knn":
            _require_type(payload.get("k"), "integer", f"{where}: model: k")
            if isinstance(payload.get("rows"), str):
                if payload["rows"] != "shared" or shared is None:
                    raise ModelFormatError(
                        f"{path}: dangling shared-rows reference")
                payload = {**payload, "rows": shared}
        try:
            model = model_from_payload(payload)
        except (ValueError, TypeError, KeyError) as e:
            raise ModelFormatError(f"{where}: {type(e).__name__}: {e}") from None
        ids = model.class_ids
        if ids.ndim != 1 or not ids.size or not np.isin(ids, class_ids).all():
            raise ModelFormatError(
                f"{where}: model class_ids {ids.tolist()} are not among "
                f"the file's class_ids"
            )
        if isinstance(model, (TreeModel, ForestModel)):
            top = max_feature(model)
            if top >= n_features:
                raise ModelFormatError(
                    f"{where}: a split tests feature {top}, but the "
                    f"model has {n_features} features"
                )
        else:
            _check_arrays(model, n_features, where)
        rounds.append(BoostRound(model, alpha, epsilon))
    try:
        spec = spec_from_payload(doc["base_spec"])
    except ValueError as e:  # an unknown family
        raise ModelFormatError(f"{path}: base_spec: {e}") from None
    ensemble = BoostedEnsemble(
        rounds=tuple(rounds),
        num_classes=num_classes,
        class_ids=class_ids,
        base_spec=spec,
        rounds_requested=doc["rounds_requested"],
        seed=doc["seed"],
    )
    meta = doc["metadata"]
    return LoadedModel(
        ensemble=ensemble,
        feature_names=tuple(doc["feature_names"]),
        n_rows=meta["n_rows"],
        dataset_digest=str(meta["dataset_digest"]),
    )
