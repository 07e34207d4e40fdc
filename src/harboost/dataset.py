"""HAPT dataset ingestion, feature selection, summaries, and fold assignment.

The HAPT distribution ("Smartphone-Based Recognition of Human Activities
and Postural Transitions", UCI ML repository) ships precomputed features:

    features.txt            one feature name per line, optionally prefixed
                            by a 1-based index ("<index> <name>")
    activity_labels.txt     lines "<id> <NAME>", ids 1..12
    Train/X_train.txt       N rows of 561 space-separated decimals
                            (runs of spaces and scientific notation allowed)
    Train/y_train.txt       N lines, one integer label 1..12

Only the Train partition is consumed. All feature values are normalized
to [-1, 1] by the distribution; out-of-range or non-finite cells are
treated as hard errors, never repaired.
"""

from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rng import SplitMix64


class DataError(Exception):
    """Raised when an input file exists but its content is invalid."""


class ActivityLabel(enum.IntEnum):
    """The 12 activity classes, ids frozen to the HAPT activity_labels.txt."""

    WALKING = 1
    WALKING_UPSTAIRS = 2
    WALKING_DOWNSTAIRS = 3
    SITTING = 4
    STANDING = 5
    LAYING = 6
    STAND_TO_SIT = 7
    SIT_TO_STAND = 8
    SIT_TO_LIE = 9
    LIE_TO_SIT = 10
    STAND_TO_LIE = 11
    LIE_TO_STAND = 12


#: Row/column ordering used when rendering 12-class confusion matrices.
REPORT_CLASS_ORDER = (
    ActivityLabel.STANDING,
    ActivityLabel.STAND_TO_SIT,
    ActivityLabel.SITTING,
    ActivityLabel.SIT_TO_STAND,
    ActivityLabel.STAND_TO_LIE,
    ActivityLabel.LAYING,
    ActivityLabel.LIE_TO_SIT,
    ActivityLabel.SIT_TO_LIE,
    ActivityLabel.LIE_TO_STAND,
    ActivityLabel.WALKING,
    ActivityLabel.WALKING_DOWNSTAIRS,
    ActivityLabel.WALKING_UPSTAIRS,
)

#: The 15 time-domain body-acceleration attributes this project models,
#: spelled exactly as they appear in the HAPT distribution's features.txt.
BODY_ACC_FEATURES = (
    "tBodyAcc-Mean-1",
    "tBodyAcc-Mean-2",
    "tBodyAcc-Mean-3",
    "tBodyAcc-STD-1",
    "tBodyAcc-STD-2",
    "tBodyAcc-STD-3",
    "tBodyAcc-Mad-1",
    "tBodyAcc-Mad-2",
    "tBodyAcc-Mad-3",
    "tBodyAcc-Max-1",
    "tBodyAcc-Max-2",
    "tBodyAcc-Max-3",
    "tBodyAcc-Min-1",
    "tBodyAcc-Min-2",
    "tBodyAcc-Min-3",
)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def require_finite(feats: np.ndarray, where: str = "") -> None:
    """Raise DataError naming the first non-finite cell (1-based row and
    column of the matrix), prefixed by `where`."""
    if not np.isfinite(feats).all():
        r, c = np.argwhere(~np.isfinite(feats))[0]
        raise DataError(f"{where}non-finite value at row {r + 1}, column {c + 1}")


@dataclass(frozen=True)
class Dataset:
    """Immutable feature matrix with per-row activity labels.

    features is an (N, d) float64 matrix, labels a length-N int64 array of
    activity ids in 1..12, feature_names a length-d tuple. Arrays are
    marked read-only so instances are safe to share across threads.
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self):
        feats = np.ascontiguousarray(self.features, dtype=np.float64)
        labs = np.asarray(self.labels, dtype=np.int64)
        names = tuple(self.feature_names)
        if feats.ndim != 2 or feats.shape[0] == 0 or feats.shape[1] == 0:
            raise DataError("feature matrix must be a non-empty 2-D array")
        if labs.shape != (feats.shape[0],):
            raise DataError(
                f"row/label count mismatch: {feats.shape[0]} feature rows "
                f"vs {labs.shape[0]} labels"
            )
        if len(names) != feats.shape[1]:
            raise DataError(
                f"{len(names)} feature names for {feats.shape[1]} columns"
            )
        require_finite(feats)
        bad = (labs < 1) | (labs > 12)
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise DataError(f"label {labs[i]} at row {i + 1} outside 1..12")
        object.__setattr__(self, "features", _readonly(feats))
        object.__setattr__(self, "labels", _readonly(labs))
        object.__setattr__(self, "feature_names", names)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def class_counts(self) -> dict[ActivityLabel, int]:
        ids, counts = np.unique(self.labels, return_counts=True)
        return {ActivityLabel(int(i)): int(c) for i, c in zip(ids, counts)}

    def subset(self, row_mask_or_indices) -> "Dataset":
        """Row projection; labels and feature names carried over."""
        return Dataset(
            self.features[row_mask_or_indices],
            self.labels[row_mask_or_indices],
            self.feature_names,
        )


def _float_repr(v: float) -> str:
    """Shortest decimal string that round-trips to the same float64."""
    return repr(float(v))


def dataset_digest(ds: Dataset) -> str:
    """SHA-256 over a canonical text encoding of the dataset content."""
    h = hashlib.sha256()
    h.update(b"harboost-dataset-v1\n")
    h.update(f"{ds.n_rows} {ds.n_features}\n".encode())
    h.update((",".join(ds.feature_names) + "\n").encode())
    for row, lab in zip(ds.features, ds.labels):
        line = " ".join(_float_repr(v) for v in row)
        h.update(f"{line} {int(lab)}\n".encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# HAPT directory ingestion
# ---------------------------------------------------------------------------


def _require(path: Path) -> Path:
    if not path.is_file():
        raise FileNotFoundError(f"missing file: {path}")
    return path


def _parse_feature_names(path: Path) -> list[str]:
    names = []
    for ln, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(None, 1)
        if len(parts) == 2 and parts[0].isdigit():
            names.append(parts[1].strip())
        else:
            names.append(line)
    if not names:
        raise DataError(f"{path}: no feature names found")
    return names


def _parse_activity_names(path: Path) -> None:
    """Validate that the on-disk id->name table matches ActivityLabel."""
    seen = {}
    for ln, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(None, 1)
        if len(parts) != 2 or not parts[0].lstrip("-").isdigit():
            raise DataError(f"{path}: line {ln}: expected '<id> <NAME>'")
        seen[int(parts[0])] = parts[1].strip()
    expected = {int(l): l.name for l in ActivityLabel}
    if seen != expected:
        raise DataError(
            f"{path}: activity table does not match the fixed 12-class "
            f"mapping (got {sorted(seen.items())})"
        )


def _diagnose_matrix(path: Path, expected_cols: int | None):
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            if expected_cols is not None and len(tokens) != expected_cols:
                raise DataError(
                    f"{path}: line {ln} has {len(tokens)} values, "
                    f"expected {expected_cols}"
                )
            for col, tok in enumerate(tokens, start=1):
                try:
                    v = float(tok)
                except ValueError:
                    raise DataError(
                        f"{path}: line {ln}, column {col}: "
                        f"cannot parse {tok!r} as a number"
                    ) from None
                if not math.isfinite(v):
                    raise DataError(
                        f"{path}: line {ln}, column {col}: non-finite value {tok!r}"
                    )


def _parse_matrix(path: Path) -> np.ndarray:
    try:
        X = np.loadtxt(path, dtype=np.float64, ndmin=2)
    except ValueError:
        _diagnose_matrix(path, None)
        raise
    if not np.isfinite(X).all():
        r, c = np.argwhere(~np.isfinite(X))[0]
        raise DataError(
            f"{path}: line {r + 1}, column {c + 1}: non-finite value"
        )
    return X


def _parse_labels(path: Path) -> np.ndarray:
    values = []
    for ln, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            v = int(line)
        except ValueError:
            raise DataError(
                f"{path}: line {ln}: cannot parse {line!r} as an integer label"
            ) from None
        if not 1 <= v <= 12:
            raise DataError(f"{path}: line {ln}: label {v} outside 1..12")
        values.append(v)
    return np.array(values, dtype=np.int64)


def load_hapt(data_dir) -> Dataset:
    """Load the HAPT Train partition with all 561 feature columns.

    Row order is preserved from the files. Raises FileNotFoundError for a
    missing file and DataError for malformed content; the error message
    names the file, line, and column where parsing failed.
    """
    root = Path(data_dir)
    features_file = _require(root / "features.txt")
    activities_file = _require(root / "activity_labels.txt")
    x_file = _require(root / "Train" / "X_train.txt")
    y_file = _require(root / "Train" / "y_train.txt")

    names = _parse_feature_names(features_file)
    _parse_activity_names(activities_file)
    X = _parse_matrix(x_file)
    y = _parse_labels(y_file)

    if X.shape[1] != len(names):
        raise DataError(
            f"{x_file}: {X.shape[1]} columns but {len(names)} feature names"
        )
    if X.shape[0] != y.shape[0]:
        raise DataError(
            f"row/label count mismatch: {X.shape[0]} rows in {x_file.name} "
            f"vs {y.shape[0]} labels in {y_file.name}"
        )
    if X.size and (X.min() < -1.0 or X.max() > 1.0):
        r, c = np.argwhere((X < -1.0) | (X > 1.0))[0]
        raise DataError(
            f"{x_file}: line {r + 1}, column {c + 1}: value {X[r, c]!r} "
            f"outside the normalized range [-1, 1]"
        )
    return Dataset(X, y, tuple(names))


def select_features(ds: Dataset, names) -> Dataset:
    """Project the dataset onto the named columns, in the requested order.

    Every requested name must appear exactly once in ds.feature_names
    (exact string match). Labels are unchanged.
    """
    names = list(names)
    dupes = {n for n in names if names.count(n) > 1}
    if dupes:
        raise DataError(f"duplicate feature name(s) requested: {sorted(dupes)}")
    indices = []
    for n in names:
        hits = [i for i, fn in enumerate(ds.feature_names) if fn == n]
        if not hits:
            raise DataError(f"unknown feature name: {n!r}")
        if len(hits) > 1:
            raise DataError(f"feature name {n!r} is ambiguous in this dataset")
        indices.append(hits[0])
    return Dataset(ds.features[:, indices], ds.labels, tuple(names))


def load_body_acc(data_dir) -> Dataset:
    """Load the HAPT Train partition restricted to the 15 modeled features."""
    return select_features(load_hapt(data_dir), BODY_ACC_FEATURES)


# ---------------------------------------------------------------------------
# Per-activity summary tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ActivitySummary:
    activity: ActivityLabel
    feature: str
    mean: float
    std: float
    median_abs_dev: float
    max: float
    min: float


def summarize_by_activity(ds: Dataset) -> list[ActivitySummary]:
    """One row per (activity present, feature): mean/std/mad/max/min.

    std is the population standard deviation; median_abs_dev is
    median(|x - median(x)|). Rows are ordered by activity id then feature
    index.
    """
    out = []
    for label in sorted(np.unique(ds.labels).tolist()):
        rows = ds.features[ds.labels == label]
        med = np.median(rows, axis=0)
        mad = np.median(np.abs(rows - med), axis=0)
        mean = rows.mean(axis=0)
        std = rows.std(axis=0)
        mx = rows.max(axis=0)
        mn = rows.min(axis=0)
        for j, name in enumerate(ds.feature_names):
            out.append(
                ActivitySummary(
                    ActivityLabel(label), name,
                    float(mean[j]), float(std[j]), float(mad[j]),
                    float(mx[j]), float(mn[j]),
                )
            )
    return out


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------


def save_csv(ds: Dataset, path) -> None:
    """Write `<feature names...>,activity_id,activity_name` rows, UTF-8,
    LF line endings, shortest round-trip decimal encoding."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join([*ds.feature_names, "activity_id", "activity_name"]))
        fh.write("\n")
        for row, lab in zip(ds.features, ds.labels):
            cells = [_float_repr(v) for v in row]
            cells.append(str(int(lab)))
            cells.append(ActivityLabel(int(lab)).name)
            fh.write(",".join(cells))
            fh.write("\n")


def _read_csv(path, require_labels: bool):
    """(feature matrix, activity ids or None, feature names) of a CSV
    with or without save_csv's trailing activity_id,activity_name
    columns, which require_labels makes mandatory."""
    path = Path(path)
    _require(path)
    with open(path, "r", encoding="utf-8") as fh:
        cols = fh.readline().rstrip("\n").split(",")
        has_labels = len(cols) >= 3 and cols[-2:] == ["activity_id",
                                                      "activity_name"]
        if require_labels and not has_labels:
            raise DataError(
                f"{path}: header must end with 'activity_id,activity_name'"
            )
        d = len(cols) - 2 if has_labels else len(cols)
        feats, labels = [], []
        for ln, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != len(cols):
                raise DataError(
                    f"{path}: line {ln} has {len(cells)} cells, expected {len(cols)}"
                )
            try:
                feats.append([float(c) for c in cells[:d]])
            except ValueError:
                for col, c in enumerate(cells[:d], start=1):
                    try:
                        float(c)
                    except ValueError:
                        raise DataError(
                            f"{path}: line {ln}, column {col}: "
                            f"cannot parse {c!r} as a number"
                        ) from None
                raise
            if has_labels:
                try:
                    labels.append(int(cells[d]))
                except ValueError:
                    raise DataError(
                        f"{path}: line {ln}: bad activity_id {cells[d]!r}"
                    ) from None
    if not feats:
        raise DataError(f"{path}: no data rows")
    feats = np.array(feats, dtype=np.float64)
    require_finite(feats, f"{path}: ")
    return feats, np.array(labels) if has_labels else None, tuple(cols[:d])


def load_csv(path) -> Dataset:
    """Read a CSV produced by save_csv (or any file with that layout)."""
    return Dataset(*_read_csv(path, require_labels=True))


def load_feature_csv(path) -> tuple[tuple[str, ...], np.ndarray]:
    """Feature names and matrix of a CSV with or without save_csv's label
    columns; the labels of a labeled file are checked, then dropped."""
    feats, labels, names = _read_csv(path, require_labels=False)
    if labels is not None:
        Dataset(feats, labels, names)
    return names, feats


# ---------------------------------------------------------------------------
# Stratified fold assignment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FoldAssignment:
    """fold_of_row[i] is the held-out fold index (0..k-1) of row i."""

    fold_of_row: np.ndarray
    k: int
    seed: int

    def __post_init__(self):
        object.__setattr__(
            self, "fold_of_row",
            _readonly(np.asarray(self.fold_of_row, dtype=np.int64)),
        )

    def fold_sizes(self) -> list[int]:
        return np.bincount(self.fold_of_row, minlength=self.k).tolist()

    def test_rows(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of_row == fold)

    def train_rows(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of_row != fold)


def stratified_folds(ds: Dataset, k: int, seed: int) -> FoldAssignment:
    """Seeded stratified assignment of rows to k folds.

    Classes are processed in ascending id order; each class's rows are
    shuffled with a SplitMix64 stream seeded by `seed`, then dealt
    round-robin into folds with a running fold counter carried across
    classes. Per class and globally, fold sizes differ by at most one.
    """
    n = ds.n_rows
    if k < 2:
        raise ValueError("fold count must be >= 2")
    if k > n:
        raise ValueError(f"fold count {k} exceeds row count {n}")
    prng = SplitMix64(seed)
    fold_of_row = np.empty(n, dtype=np.int64)
    next_fold = 0
    for label in sorted(np.unique(ds.labels).tolist()):
        rows = np.flatnonzero(ds.labels == label).tolist()
        prng.shuffle(rows)
        for r in rows:
            fold_of_row[r] = next_fold
            next_fold = (next_fold + 1) % k
    return FoldAssignment(fold_of_row, k, seed)
