"""Versioned model persistence.

Models are stored as a single JSON document (format_version 1) with
shortest-round-trip decimal encoding for every real, so reloaded models
predict bit-identically. save_model records the training Dataset's
feature names, row count and digest. A k-NN ensemble's stored training
matrix, one array across rounds, is written once (rounds reference it
as "shared"), from the Dataset's row text when it is the Dataset's
features; loading re-shares one read-only array so batch prediction
can reuse one neighbor table for all rounds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .boosting import BoostedEnsemble, BoostRound
from .dataset import Dataset, dataset_digest
from .floattext import row_texts
from .learners import (
    FAMILIES,
    HYPERPARAMETERS,
    LearnerSpec,
    spec_from_payload,
    value_type,
)
from .jsontext import canonical_json

FORMAT_VERSION = 1
_KIND = "harboost.model"


class ModelFormatError(Exception):
    """Raised for unreadable, mis-versioned, or malformed model files."""


@dataclass(frozen=True)
class LoadedModel:
    ensemble: BoostedEnsemble
    feature_names: tuple[str, ...]
    n_rows: int
    dataset_digest: str


def save_model(path, ensemble: BoostedEnsemble, ds: Dataset) -> None:
    """Write ensemble with its training Dataset's feature names, row
    count and digest. Its k-NN rounds share their rows if they are one
    array, written from ds.row_text if that array is ds's features."""
    if not isinstance(ensemble.base_spec, LearnerSpec):
        raise ValueError("only LearnerSpec-based ensembles can be saved")
    # k-NN's training rows, shared by the rounds holding this array. Its
    # text is made before the round payloads: made after them, it raised
    # the peak RSS of a 2000-row k-NN train by 0.5 MB.
    shared = next((r.model.rows for r in ensemble.rounds
                   if hasattr(r.model, "rows")), None)
    text = None if shared is None else (
        ds.row_text if shared is ds.features else row_texts(shared))
    rounds = []
    for r in ensemble.rounds:
        if hasattr(r.model, "rows") and r.model.rows is shared:
            payload = r.model.to_payload(rows="shared")
        else:
            payload = r.model.to_payload()
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
        "shared_knn_rows": text,
        "feature_names": list(ds.feature_names),
        "metadata": {"n_rows": ds.n_rows, "dataset_digest": dataset_digest(ds)},
    }
    # canonical_json itself, not reports.to_json: a model file is no
    # report, and perfbench counts to_json's output as report bytes
    Path(path).write_text(canonical_json(doc), "utf-8", newline="\n")


#: A kind is a _TYPES key ("?": or null), an object's {key: kind} or an
#: array's (noun, kind), noun naming each element ("{}": its index from 1).
#: A round's model is walked to its family, which must be base_spec's
#: payload name; that FAMILIES row's loader and the model's check do the rest.
_DOC = {
    "base_spec": {"family": "string", **{  # a None default may be null
        f.name: ("number" if value_type(f) is float else "integer")
        + ("?" if f.default is None else "") for f in HYPERPARAMETERS}},
    "num_classes": "integer",
    "class_ids": ("a class id", "integer"),
    "rounds_requested": "integer",
    "seed": "integer",
    "rounds": ("round {}", {"alpha": "number", "epsilon": "number",
                            "model": {"family": "string"}}),
    "feature_names": ("a feature name", "string"),
    "metadata": {"n_rows": "integer", "dataset_digest": "string"},
}
_TYPES = {"integer": int, "number": (int, float), "string": str,
          "integer?": (int, type(None)), "number?": (int, float, type(None))}


def _walk(value, kind, where: str, name: str | None = None) -> None:
    """Raise ModelFormatError unless value, named name in where, is kind."""
    here = where if name is None else f"{where}: {name}"
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise ModelFormatError(f"{here}: not a JSON object")
        if missing := [k for k in kind if k not in value]:
            raise ModelFormatError(
                f"{here}: missing key(s): {', '.join(missing)}")
        for key, of in kind.items():
            _walk(value[key], of, here, key)
    elif isinstance(kind, tuple):
        if not isinstance(value, list):
            raise ModelFormatError(f"{here} is {value!r}, not a JSON array")
        for i, item in enumerate(value, start=1):
            _walk(item, kind[1], where, kind[0].format(i))
    elif isinstance(value, bool) or not isinstance(value, _TYPES[kind]):
        raise ModelFormatError(
            f"{here} is {value!r}, not a JSON {kind.rstrip('?')}")


def load_model(path) -> LoadedModel:
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"missing file: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as e:  # also not UTF-8, or an int of over 4300 digits
        raise ModelFormatError(f"{path}: not valid JSON ({e})") from None
    if not isinstance(doc, dict) or doc.get("kind") != _KIND:
        raise ModelFormatError(f"{path}: not a harboost model file")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: format_version {version!r} is not supported "
            f"(expected {FORMAT_VERSION})"
        )
    _walk(doc, _DOC, str(path))
    num_classes = doc["num_classes"]
    try:
        class_ids = np.array(doc["class_ids"], dtype=np.int64)
    except OverflowError:
        raise ModelFormatError(f"{path}: class_ids beyond int64") from None
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
    row = FAMILIES[spec.family]  # every round's family and loader
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
        payload = r["model"]
        if payload["family"] != row.payload:
            raise ModelFormatError(
                f"{where}: a {payload['family']!r} model, but base_spec "
                f"{spec.family.value!r} fits {row.payload!r} models"
            )
        if isinstance(payload.get("rows"), str):
            if payload["rows"] != "shared" or shared is None:
                raise ModelFormatError(f"{path}: dangling shared-rows reference")
            payload = {**payload, "rows": shared}
        try:
            alpha, epsilon = float(r["alpha"]), float(r["epsilon"])
            model = row.loader(payload)
        except (ValueError, TypeError, KeyError, OverflowError) as e:
            # OverflowError: float() of 10**400, int() of a JSON Infinity
            raise ModelFormatError(f"{where}: {type(e).__name__}: {e}") from None
        if not math.isfinite(alpha):
            raise ModelFormatError(f"{where}: non-finite alpha {alpha}")
        ids = model.class_ids
        if ids.ndim != 1 or not ids.size or not np.isin(ids, class_ids).all():
            raise ModelFormatError(
                f"{where}: model class_ids {ids.tolist()} are not among "
                f"the file's class_ids"
            )
        if (np.diff(ids) <= 0).any():  # k-NN and forest votes: searchsorted
            raise ModelFormatError(f"{where}: model class_ids {ids.tolist()} "
                                   f"are not strictly increasing")
        try:  # a model that would load, then fail or mislabel in predict
            model.check(n_features)
        except ValueError as e:
            raise ModelFormatError(f"{where}: {e}") from None
        rounds.append(BoostRound(model, alpha, epsilon))
    if class_ids[0] < 1 or class_ids[-1] > 12:  # last: keeps older messages
        raise ModelFormatError(f"{path}: class_ids {class_ids.tolist()} "
                               f"are not activity ids 1..12")
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
        dataset_digest=meta["dataset_digest"],
    )
