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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .boosting import BoostedEnsemble, BoostRound
from .learners import LearnerSpec, model_from_payload, spec_from_payload
from .learners.trees import ForestModel, TreeModel, max_feature

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
    shared = None
    if doc.get("shared_knn_rows") is not None:
        shared = np.array(doc["shared_knn_rows"], dtype=np.float64)
        shared.flags.writeable = False
    n_features = len(doc["feature_names"])
    rounds = []
    for i, r in enumerate(doc["rounds"], start=1):
        payload = r["model"]
        if payload.get("family") == "knn" and isinstance(payload.get("rows"), str):
            if payload["rows"] != "shared" or shared is None:
                raise ModelFormatError(f"{path}: dangling shared-rows reference")
            payload = {**payload, "rows": shared}
        try:
            model = model_from_payload(payload)
        except ValueError as e:
            raise ModelFormatError(f"{path}: round {i}: {e}") from None
        top = (
            max_feature(model) if isinstance(model, (TreeModel, ForestModel))
            else -1
        )
        if top >= n_features:
            raise ModelFormatError(
                f"{path}: round {i}: a split tests feature {top}, but the "
                f"model has {n_features} features"
            )
        rounds.append(BoostRound(model, float(r["alpha"]), float(r["epsilon"])))
    ensemble = BoostedEnsemble(
        rounds=tuple(rounds),
        num_classes=int(doc["num_classes"]),
        class_ids=np.array(doc["class_ids"], dtype=np.int64),
        base_spec=spec_from_payload(doc["base_spec"]),
        rounds_requested=int(doc["rounds_requested"]),
        seed=int(doc["seed"]),
    )
    meta = doc["metadata"]
    return LoadedModel(
        ensemble=ensemble,
        feature_names=tuple(doc["feature_names"]),
        n_rows=int(meta["n_rows"]),
        dataset_digest=str(meta["dataset_digest"]),
    )
