"""Workload definitions: task sizes, class counts, the CLI commands each
workload runs and the files they read and write.

Every workload runs on synthetic HAPT-like data drawn with
``synthetic.make_activity_dataset`` at the HAPT Train class proportions
and ``spread=0.5``. At the easier ``spread=0.35`` trees reach zero
training error and SAMME stops after one round, so the boosting loop
would go unmeasured.

The compare workloads take a stratified sample, chosen by the seed, of
one fixed population: the full 7767-row task drawn with
POPULATION_SEED. When each seed drew its own class centers instead, how
hard the task was changed from seed to seed, and with it the size of
the trees and the time of a compare.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

#: HAPT Train rows per activity id 1..12 (7767 rows in total).
HAPT_TRAIN_COUNTS = (1226, 1073, 987, 1293, 1423, 1413, 47, 23, 75, 60, 90, 57)
SPREAD = 0.5
POPULATION_SEED = 0
DEFAULT_SEED = 1
#: Every class keeps this many rows, so each fold's training set holds
#: every class even after the rare transition classes are scaled down.
MIN_CLASS_ROWS = 5
KNN_K = 12


@dataclass(frozen=True)
class Size:
    rows: int
    folds: int
    rounds: int


@dataclass(frozen=True)
class Workload:
    name: str
    task: str  # "compare" or "headline": selects inputs and commands
    threads: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("compare-serial", "compare", 1),
        Workload("headline-pipeline", "headline", 1),
        Workload("compare-threads2", "compare", 2),
    )
}

#: Row, fold and round counts per task. "full" is what the benchmark
#: measures; it is scaled down from the paper's 7767 rows x 10 folds so
#: that one run fits its time budget. "tiny" is for the smoke test.
SIZES = {
    "full": {"compare": Size(600, 4, 3), "headline": Size(2000, 10, 10)},
    "tiny": {"compare": Size(120, 2, 2), "headline": Size(120, 2, 2)},
}


def class_counts(n_rows: int) -> list[int]:
    """HAPT Train proportions scaled to n_rows by largest remainder, with
    every class floored at MIN_CLASS_ROWS (the largest classes give the
    floor's rows back)."""
    total = sum(HAPT_TRAIN_COUNTS)
    if n_rows < MIN_CLASS_ROWS * len(HAPT_TRAIN_COUNTS):
        raise ValueError(f"{n_rows} rows cannot hold every class")
    raw = [c * n_rows / total for c in HAPT_TRAIN_COUNTS]
    counts = [max(MIN_CLASS_ROWS, int(r)) for r in raw]
    by_remainder = sorted(range(len(raw)), key=lambda i: (int(raw[i]) - raw[i], i))
    for i in by_remainder[: max(0, n_rows - sum(counts))]:
        counts[i] += 1
    while sum(counts) > n_rows:
        counts[counts.index(max(counts))] -= 1
    return counts


@dataclass(frozen=True)
class Paths:
    """Input and output files of one workload inside its work directory."""

    hapt: str
    csv: str
    report: str
    reference: str
    model: str
    predictions: str

    @classmethod
    def under(cls, root: str) -> "Paths":
        return cls(*(os.path.join(root, name) for name in (
            "hapt", "features.csv", "report.json", "reference.json",
            "model.json", "predictions.csv",
        )))


def commands(workload: Workload, size: Size, paths: Paths) -> list[list[str]]:
    """The harboost CLI argument vectors one iteration runs, in order."""
    run = ["--folds", str(size.folds), "--rounds", str(size.rounds)]
    if workload.task == "compare":
        return [[
            "compare", "--from-csv", paths.csv, *run,
            "--threads", str(workload.threads),
            "--format", "json", "--out", paths.report,
        ]]
    knn = ["--learner", "knn", "--k", str(KNN_K)]
    return [
        ["ingest", "--data-dir", paths.hapt, "--out", paths.csv],
        ["evaluate", "--from-csv", paths.csv, *knn, *run,
         "--threads", str(workload.threads),
         "--format", "json", "--out", paths.report],
        ["train", "--from-csv", paths.csv, *knn,
         "--rounds", str(size.rounds), "--model-out", paths.model],
        ["predict", "--model", paths.model, "--from-csv", paths.csv,
         "--out", paths.predictions],
    ]


def outputs(workload: Workload, paths: Paths) -> list[str]:
    """Files an iteration writes; removed before each iteration so a
    failed command cannot pass its checks on a stale output."""
    if workload.task == "compare":
        return [paths.report]
    return [paths.csv, paths.report, paths.model, paths.predictions]
