"""Synthetic activity-style datasets for demos and tests.

Real HAPT data cannot be redistributed with this package, so demos and
most tests run on seeded Gaussian class blobs clipped to the dataset's
normalized [-1, 1] range. write_hapt_layout writes such a dataset in
the exact on-disk layout the ingestion code expects.

Every draw is a bulk SplitMix64.next_floats call, which gives the same
values and end state as that many next_float calls, so the outputs
equal those of a per-value loop while no Python code runs per value.
A row of X_train.txt is one %-format of its Python floats.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .dataset import BODY_ACC_FEATURES, ActivityLabel, Dataset
from .rng import SplitMix64


def _gauss_pairs(prng: SplitMix64, n: int) -> np.ndarray:
    """n standard normal draws via Box-Muller on SplitMix64 floats."""
    m = (n + 1) // 2
    u1 = prng.next_floats(m)
    u2 = prng.next_floats(m)
    r = np.sqrt(-2.0 * np.log(np.maximum(u1, 1e-300)))
    out = np.concatenate([r * np.cos(2 * np.pi * u2), r * np.sin(2 * np.pi * u2)])
    return out[:n]


def make_activity_dataset(
    n_rows: int,
    n_classes: int = 12,
    n_features: int = 15,
    seed: int = 0,
    spread: float = 0.12,
    feature_names=None,
    class_counts=None,
) -> Dataset:
    """Seeded class blobs: one Gaussian cluster per class, values in [-1, 1].

    Classes are balanced by default; pass class_counts (one count per
    class id 1..len(class_counts), summing to n_rows) for imbalanced
    data. Rows are interleaved so any prefix is roughly stratified.
    """
    if not 1 <= n_classes <= 12:
        raise ValueError("n_classes must be in 1..12")
    prng = SplitMix64(seed)
    if class_counts is not None:
        class_counts = [int(c) for c in class_counts]
        if sum(class_counts) != n_rows:
            raise ValueError("class_counts must sum to n_rows")
        n_classes = len(class_counts)
        # row i of a class of count rows sits at i * n_rows // count; the
        # stable sort keeps the rows at one position in class id order
        pos = np.concatenate([np.arange(c, dtype=np.int64) * n_rows // max(c, 1)
                              for c in class_counts])
        cids = np.repeat(np.arange(1, n_classes + 1, dtype=np.int64), class_counts)
        labels = cids[np.argsort(pos, kind="stable")]
    else:
        labels = 1 + np.arange(n_rows, dtype=np.int64) % n_classes
    centers = 0.8 * (
        2.0 * prng.next_floats(n_classes * n_features).reshape(
            n_classes, n_features) - 1.0
    )
    noise = _gauss_pairs(prng, n_rows * n_features).reshape(n_rows, n_features)
    feats = np.clip(centers[labels - 1] + spread * noise, -1.0, 1.0)
    if feature_names is None:
        feature_names = tuple(f"f{j + 1:02d}" for j in range(n_features))
    return Dataset(feats, labels, tuple(feature_names))


def write_hapt_layout(
    root,
    n_rows: int = 180,
    seed: int = 0,
    total_features: int = 561,
    spread: float = 0.12,
    class_counts=None,
) -> Path:
    """Write a synthetic dataset in the HAPT directory layout.

    The 15 modeled feature names occupy columns 1..15 (as in the real
    distribution); remaining columns carry filler names and noise.
    """
    root = Path(root)
    (root / "Train").mkdir(parents=True, exist_ok=True)
    if total_features < len(BODY_ACC_FEATURES):
        raise ValueError("total_features must cover the 15 modeled columns")
    names = list(BODY_ACC_FEATURES) + [
        f"synthetic-Extra-{j}" for j in range(total_features - len(BODY_ACC_FEATURES))
    ]
    (root / "features.txt").write_text(
        "".join(f"{i + 1} {n}\n" for i, n in enumerate(names)), encoding="utf-8"
    )
    (root / "activity_labels.txt").write_text(
        "".join(f"{int(l)} {l.name}\n" for l in ActivityLabel), encoding="utf-8"
    )
    ds = make_activity_dataset(
        n_rows, 12, len(BODY_ACC_FEATURES), seed=seed, spread=spread,
        class_counts=class_counts,
    )
    prng = SplitMix64(seed ^ 0x5EED)
    extra = _gauss_pairs(prng, n_rows * (total_features - ds.n_features))
    extra = np.clip(0.3 * extra, -1.0, 1.0).reshape(n_rows, -1)
    full = np.hstack([ds.features, extra])
    line = " ".join(["% .7e"] * total_features) + "\n"
    with open(root / "Train" / "X_train.txt", "w", encoding="utf-8") as fh:
        for row in full:
            fh.write(line % tuple(row.tolist()))
    with open(root / "Train" / "y_train.txt", "w", encoding="utf-8") as fh:
        fh.writelines(f"{l}\n" for l in ds.labels.tolist())
    return root
