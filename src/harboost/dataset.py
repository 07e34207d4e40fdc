"""HAPT dataset ingestion, feature selection, summaries, and fold assignment.

The HAPT distribution ("Smartphone-Based Recognition of Human Activities
and Postural Transitions", UCI ML repository) ships precomputed features:

    features.txt            one feature name per line, optionally prefixed
                            by a 1-based index ("<index> <name>")
    activity_labels.txt     lines "<id> <NAME>", ids 1..12
    Train/X_train.txt       N rows of 561 space-separated decimals
    Train/y_train.txt       N lines, one integer label 1..12

Only the Train partition is consumed. All feature values are normalized
to [-1, 1] by the distribution; out-of-range or non-finite cells are
treated as hard errors, never repaired, and any feature matrix, a
CSV's too, must hold magnitudes below MAX_MAGNITUDE. Every number in
these files and in a CSV is parsed by one np.loadtxt call (_table):
ASCII decimals with no `_` separators, and integers within int64.
Files must be UTF-8; blank and whitespace-only lines are skipped. A
matrix file wholly in the fixed-width "% .7e" layout that
write_hapt_layout writes is read by e7text.read_e7 instead, to the
same bits; any other file, and every error, is loadtxt's.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .floattext import Rows, repr_rows, row_texts
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


#: Each activity id's name, as the CSVs write it.
ACTIVITY_NAMES = {int(label): label.name for label in ActivityLabel}

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


#: Feature magnitudes must stay below this: the square of a difference
#: of two such values, summed over thousands of features, stays finite,
#: as k-NN's squared distances need.
MAX_MAGNITUDE = 1e150


def require_finite(feats: np.ndarray, where: str = "") -> None:
    """Raise DataError naming the first cell (1-based row and column of
    the matrix) that is not finite or not below MAX_MAGNITUDE in
    magnitude, prefixed by `where`."""
    # min and max pass NaN on, and take no copy of a 561-column matrix
    if not feats.size or (-MAX_MAGNITUDE < feats.min()
                          and feats.max() < MAX_MAGNITUDE):
        return
    r, c = np.argwhere(~(np.abs(feats) < MAX_MAGNITUDE))[0]
    if not np.isfinite(feats[r, c]):
        raise DataError(
            f"{where}non-finite value at row {r + 1}, column {c + 1}")
    raise DataError(
        f"{where}value {float(feats[r, c])!r} at row {r + 1}, column "
        f"{c + 1} is out of range: magnitudes must be below "
        f"{MAX_MAGNITUDE:g}")


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
                f"vs labels of shape {labs.shape}"
            )
        labs = np.ascontiguousarray(labs)  # a strided view slows every fit
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

    @functools.cached_property
    def class_blocks(self) -> tuple[tuple[int, np.ndarray, np.ndarray], ...]:
        """(class id, row indices, feature rows) of each class present,
        in ascending id order, all read-only. Computed once, so every fit
        on this dataset (each boosting round) shares the same arrays."""
        blocks = []
        for label in np.unique(self.labels).tolist():
            rows = _readonly(np.flatnonzero(self.labels == label))
            blocks.append((label, rows, _readonly(self.features[rows])))
        return tuple(blocks)

    @functools.cached_property
    def row_text(self) -> Rows:
        """The features' rows as text, formatted once: its CSV, its
        digest and a k-NN model's stored rows write this text."""
        return row_texts(self.features)

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


def dataset_digest(ds: Dataset) -> str:
    """SHA-256 over a canonical text encoding of the dataset content:
    each row's repr text, the shortest decimals that round-trip to its
    values, and label. It hashes ds.row_text if ds has formatted its
    rows, and otherwise streams them, keeping no text."""
    h = hashlib.sha256()
    h.update(b"harboost-dataset-v1\n")
    h.update(f"{ds.n_rows} {ds.n_features}\n".encode())
    h.update((",".join(ds.feature_names) + "\n").encode())
    rows = vars(ds).get("row_text") or repr_rows(ds.features)
    for text, lab in zip(rows, ds.labels.tolist()):
        h.update(f"{text} {lab}\n".encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# HAPT directory ingestion
# ---------------------------------------------------------------------------


def _require(path: Path) -> Path:
    if not path.is_file():
        raise FileNotFoundError(f"missing file: {path}")
    return path


def _lines(path: Path, skip: int = 0):
    """(line number, stripped text) of the non-blank lines after skip."""
    with open(path, "rb", buffering=1 << 18) as fh:  # rows outgrow 8 KiB
        for ln, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                raise DataError(f"{path}: line {ln} is not UTF-8 text") from None
            if line and ln > skip:
                yield ln, line


def _table(path: Path, dtype, sep=None, skip: int = 0, form=None):
    """The lines of path after skip, parsed by one np.loadtxt call: a
    matrix for a plain dtype, a record per line for a structured one. If
    it fails, the first line and cell that loadtxt rejects alone is named
    (with the line form `form` expected, if given). A float64 matrix of
    whitespace-separated cells is first tried as read_e7's layout."""
    dtype = np.dtype(dtype)
    if dtype == np.float64 and sep is None and not skip:
        # imported on first use, by the commands that read X_train.txt
        from .e7text import read_e7

        table = read_e7(path)
        if table is not None:
            return table
    rows = _lines(path, skip)
    first = next(rows, None)
    if first is None:
        raise DataError(f"{path}: no data rows")

    def parse(lines, dt=dtype, **kw):
        return np.loadtxt(lines, dtype=dt, delimiter=sep, comments=None,
                          ndmin=1 if dt.names else 2, **kw)

    def fault(ln, why):
        return DataError(f"{path}: line {ln}" + (f": expected {form}" if form
                                                 else why))

    try:
        return parse(line for _, line in itertools.chain([first], rows))
    except ValueError as e:
        error = e
    columns = [dtype[n].base for n in dtype.names or ()
               for _ in range(math.prod(dtype[n].shape))]
    for ln, line in _lines(path, skip):
        cells = line.split(sep)
        columns = columns or [dtype] * len(cells)  # a matrix: line 1's width
        if len(cells) != len(columns):
            raise fault(ln, f" has {len(cells)} values, expected {len(columns)}")
        try:
            parse([line])
        except ValueError:
            for col, dt in enumerate(columns):
                try:
                    parse([line], dt, usecols=[col])
                except ValueError:
                    what = "an integer" if dt.kind == "i" else "a number"
                    raise fault(ln, f", column {col + 1}: cannot parse "
                                    f"{cells[col]!r} as {what}") from None
    raise DataError(f"{path}: {error}") from None


def _parse_feature_names(path: Path) -> list[str]:
    """One name a line. A line that leads with digits leads with its
    name's 1-based position in ASCII (`1 tBodyAcc-Mean-1`), which is
    dropped."""
    names = []
    for ln, line in _lines(path):
        parts = line.split(None, 1)
        if len(parts) == 2 and parts[0].isdigit():
            position = str(len(names) + 1)
            if not (parts[0].isascii() and parts[0].lstrip("0") == position):
                raise DataError(f"{path}: line {ln}: index {parts[0]!r} is "
                                f"not the name's position {position}")
            names.append(parts[1].strip())
        else:
            names.append(line)
    if not names:
        raise DataError(f"{path}: no feature names found")
    return names


def _parse_activity_names(path: Path) -> None:
    """Validate that the on-disk id->name table matches ActivityLabel."""
    table = _table(path, [("id", np.int64), ("name", object)],
                   form="'<id> <NAME>'")
    seen = dict(zip(table["id"].tolist(), table["name"].tolist()))
    expected = {int(l): l.name for l in ActivityLabel}
    if seen != expected:
        raise DataError(
            f"{path}: activity table does not match the fixed 12-class "
            f"mapping (got {sorted(seen.items())})"
        )


def _parse_labels(path: Path) -> np.ndarray:
    y = _table(path, [("label", np.int64)])["label"]
    bad = np.flatnonzero((y < 1) | (y > 12))
    if bad.size:
        ln, _ = next(itertools.islice(_lines(path), bad[0], None))
        raise DataError(f"{path}: line {ln}: label {y[bad[0]]} outside 1..12")
    return y


def _hapt_files(root: Path):
    """Feature names, X_train.txt and y_train.txt of a HAPT directory."""
    features_file = _require(root / "features.txt")
    activities_file = _require(root / "activity_labels.txt")
    x_file = _require(root / "Train" / "X_train.txt")
    y_file = _require(root / "Train" / "y_train.txt")
    names = _parse_feature_names(features_file)
    _parse_activity_names(activities_file)
    return names, x_file, y_file


def load_hapt(data_dir) -> Dataset:
    """Load the HAPT Train partition with all 561 feature columns.

    Row order is preserved from the files. Raises FileNotFoundError for a
    missing file and DataError for malformed content; the error message
    names the file, line, and column where parsing failed.
    """
    names, x_file, y_file = _hapt_files(Path(data_dir))
    X = _table(x_file, np.float64)
    require_finite(X, f"{x_file}: ")
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
            f"{x_file}: row {r + 1}, column {c + 1}: value {X[r, c]} "
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
    """Load the HAPT Train partition restricted to the 15 modeled features.

    Only their columns are decoded when read_e7 can show from the text
    that load_hapt would accept X_train.txt; any other directory, and
    every error, goes through load_hapt and select_features."""
    names, x_file, y_file = _hapt_files(Path(data_dir))
    if all(names.count(n) == 1 for n in BODY_ACC_FEATURES):
        from .e7text import read_e7  # as in _table

        X = read_e7(x_file, [names.index(n) for n in BODY_ACC_FEATURES],
                    len(names))
        if X is not None and len(y := _parse_labels(y_file)) == len(X):
            return Dataset(X, y, BODY_ACC_FEATURES)
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
        fh.writelines(f"{text.replace(' ', ',')},{lab},{ACTIVITY_NAMES[lab]}\n"
                      for text, lab in zip(ds.row_text, ds.labels.tolist()))


def _read_csv(path, require_labels: bool):
    """(feature matrix, activity ids or None, feature names) of a CSV
    with or without save_csv's trailing activity_id,activity_name
    columns, which require_labels makes mandatory."""
    path = _require(Path(path))
    ln, header = next(_lines(path), (0, ""))
    cols = header.split(",")
    has_labels = len(cols) >= 3 and cols[-2:] == ["activity_id",
                                                  "activity_name"]
    if require_labels and not has_labels:
        raise DataError(
            f"{path}: header must end with 'activity_id,activity_name'"
        )
    d = len(cols) - 2 if has_labels else len(cols)
    id_fields = [("id", np.int64), ("name", "U0")] if has_labels else []
    table = _table(path, [("x", np.float64, (d,)), *id_fields], ",", skip=ln)
    feats = np.ascontiguousarray(table["x"])
    require_finite(feats, f"{path}: ")
    return feats, table["id"] if has_labels else None, tuple(cols[:d])


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
