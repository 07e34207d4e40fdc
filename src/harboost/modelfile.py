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
    FAMILIES,
    HYPERPARAMETERS,
    LearnerSpec,
    model_from_payload,
    spec_from_payload,
    value_type,
)

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
        if "rows" in payload:
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
    n_features = len(doc["feature_names"])
    try:
        spec = spec_from_payload(doc["base_spec"])
        spec.validate(n_features)
    except (ValueError, OverflowError) as e:  # OverflowError: float(10**400)
        raise ModelFormatError(f"{path}: base_spec: {e}") from None
    if not doc["rounds"]:
        raise ModelFormatError(f"{path}: rounds is empty")
    expected = FAMILIES[spec.family].payload  # every round's family
    shared = None
    if doc.get("shared_knn_rows") is not None:
        try:
            # any dtype: KnnModel.check rejects a non-numeric matrix
            shared = np.array(doc["shared_knn_rows"])
        except (ValueError, TypeError) as e:
            raise ModelFormatError(f"{path}: shared_knn_rows: {e}") from None
        shared.flags.writeable = False
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
        if isinstance(payload.get("rows"), str):
            if payload["rows"] != "shared" or shared is None:
                raise ModelFormatError(f"{path}: dangling shared-rows reference")
            payload = {**payload, "rows": shared}
        try:
            model = model_from_payload(payload)
        except (ValueError, TypeError, KeyError, OverflowError) as e:
            # OverflowError: int() of a JSON Infinity
            raise ModelFormatError(f"{where}: {type(e).__name__}: {e}") from None
        ids = model.class_ids
        if ids.ndim != 1 or not ids.size or not np.isin(ids, class_ids).all():
            raise ModelFormatError(
                f"{where}: model class_ids {ids.tolist()} are not among "
                f"the file's class_ids"
            )
        try:  # a model that would load, then fail or mislabel in predict
            model.check(n_features)
        except ValueError as e:
            raise ModelFormatError(f"{where}: {e}") from None
        if payload["family"] != expected:
            raise ModelFormatError(
                f"{where}: a {payload['family']!r} model, but base_spec "
                f"{spec.family.value!r} fits {expected!r} models"
            )
        rounds.append(BoostRound(model, alpha, epsilon))
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
