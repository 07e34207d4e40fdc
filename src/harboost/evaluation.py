"""Stratified cross-validation, confusion-matrix metrics, and the
multi-learner comparison harness.

Confusion matrices are oriented rows = predicted class, columns = true
class. For the 12-activity task the row/column order is the fixed
report order (REPORT_CLASS_ORDER); datasets covering fewer classes use
that order restricted to the classes present.
"""

from __future__ import annotations

import contextlib
import math
import os
import signal
import threading
from dataclasses import dataclass

import numpy as np

from .boosting import boost_fit_folds, boost_predict_batch
from .dataset import (
    REPORT_CLASS_ORDER,
    ActivityLabel,
    DataError,
    Dataset,
    FoldAssignment,
    stratified_folds,
)
from .learners import FAMILIES, LearnerSpec, fold_scope
from .rng import derive_seed

#: Learners that appear in comparison reports as placeholders only.
PLACEHOLDER_LEARNERS = (
    "Artificial Neural Network",
    "Support Vector Machine",
    "Gradient Boosted Trees",
    "AutoMLP",
    "Deep Learning",
)


@dataclass(frozen=True, eq=False)
class ConfusionMatrix:
    """counts[i, j] = rows predicted labels[i] whose true class is labels[j]."""

    counts: np.ndarray
    labels: tuple[ActivityLabel, ...]

    def __eq__(self, other):
        if not isinstance(other, ConfusionMatrix):
            return NotImplemented
        return self.labels == other.labels and np.array_equal(
            self.counts, other.counts
        )

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        k = len(self.labels)
        if counts.shape != (k, k):
            raise ValueError(f"counts shape {counts.shape} does not match {k} labels")
        if (counts < 0).any():
            raise ValueError("counts must be non-negative")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)
        object.__setattr__(
            self, "labels", tuple(ActivityLabel(int(l)) for l in self.labels)
        )

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def index_of(self, label) -> int:
        try:
            return self.labels.index(ActivityLabel(int(label)))
        except ValueError:
            raise ValueError(f"class {label!r} not covered by this matrix") from None


def report_order(labels) -> tuple[ActivityLabel, ...]:
    """The fixed 12-class report order restricted to the given labels."""
    present = {ActivityLabel(int(l)) for l in labels}
    return tuple(l for l in REPORT_CLASS_ORDER if l in present)


def confusion_from_predictions(true_ids, pred_ids, labels=None) -> ConfusionMatrix:
    true_ids = np.asarray(true_ids, dtype=np.int64)
    pred_ids = np.asarray(pred_ids, dtype=np.int64)
    if true_ids.shape != pred_ids.shape:
        raise ValueError("true/predicted length mismatch")
    if labels is None:
        labels = report_order(np.union1d(true_ids, pred_ids))
    labels = tuple(ActivityLabel(int(l)) for l in labels)
    pos = {int(l): i for i, l in enumerate(labels)}
    counts = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for t, p in zip(true_ids.tolist(), pred_ids.tolist()):
        counts[pos[p], pos[t]] += 1
    return ConfusionMatrix(counts, labels)


def accuracy_binary(tp: int, tn: int, fp: int, fn: int) -> float:
    """(tp + tn) / (tp + tn + fp + fn)."""
    if min(tp, tn, fp, fn) < 0:
        raise ValueError("counts must be non-negative")
    total = tp + tn + fp + fn
    if total == 0:
        raise ValueError("at least one count must be positive")
    return (tp + tn) / total


def overall_accuracy(cm: ConfusionMatrix) -> float:
    """Micro-average accuracy: trace / total."""
    if cm.total == 0:
        raise ValueError("empty confusion matrix")
    return float(np.trace(cm.counts)) / cm.total


def class_precision(cm: ConfusionMatrix, label) -> float | None:
    """Diagonal over predicted-row sum; None when the row is empty."""
    i = cm.index_of(label)
    row = int(cm.counts[i].sum())
    return None if row == 0 else int(cm.counts[i, i]) / row


def class_recall(cm: ConfusionMatrix, label) -> float | None:
    """Diagonal over true-column sum; None when the column is empty."""
    i = cm.index_of(label)
    col = int(cm.counts[:, i].sum())
    return None if col == 0 else int(cm.counts[i, i]) / col


@dataclass(frozen=True)
class CVResult:
    fold_accuracies: tuple[float, ...]
    mean_accuracy: float
    std_accuracy: float
    micro_accuracy: float
    aggregate: ConfusionMatrix
    learner: object
    folds: int
    rounds: int
    seed: int


def worker_count(threads: int, tasks: int, cpus: int) -> int:
    """Worker processes for `tasks` independent fold jobs at --threads
    `threads`: never more than the CPUs this process may run on, nor
    than there are tasks."""
    if threads < 1:
        raise ValueError("threads must be >= 1")
    return max(1, min(threads, cpus, tasks))


def _available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or os.cpu_count() or 1
    return os.cpu_count() or 1


@dataclass(frozen=True)
class _CVJob:
    """Inputs shared by every (spec index, fold group) task of one run."""

    specs: tuple
    ds: Dataset
    assignment: FoldAssignment
    rounds: int
    seed: int
    labels: tuple[ActivityLabel, ...]

    def run(self, spec_index: int, folds) -> list:
        """(accuracy, ConfusionMatrix) of each fold of a group, in order.

        The group's folds boost in lockstep; fold f boosts with seed
        derive_seed(seed, f) whatever group it is in, so results do not
        depend on the grouping.
        """
        spec = self.specs[spec_index]
        train_rows = [self.assignment.train_rows(f) for f in folds]
        test_rows = [self.assignment.test_rows(f) for f in folds]
        train = [self.ds.subset(rows) for rows in train_rows]
        tests = [self.ds.features[rows] for rows in test_rows]
        seeds = [derive_seed(self.seed, f) for f in folds]
        parts = [(ds.features, rows) for ds, rows in zip(train, train_rows)]
        parts += zip(tests, test_rows)
        with fold_scope(spec, self.ds.features, self.assignment.k, parts):
            ensembles = boost_fit_folds(spec, train, self.rounds, seeds)
            preds = [boost_predict_batch(ens, X)
                     for ens, X in zip(ensembles, tests)]
        results = []
        for pred, rows in zip(preds, test_rows):
            true = self.ds.labels[rows]
            results.append((float((pred == true).mean()),
                            confusion_from_predictions(true, pred, self.labels)))
        return results


#: The job of the pool this worker process belongs to (set by _init_worker).
_worker_job: _CVJob | None = None


def _init_worker(job: _CVJob) -> None:
    global _worker_job
    _worker_job = job
    # Ctrl-C reaches the whole process group: a worker ends at once and
    # the parent, which gets KeyboardInterrupt, cancels the pool. One
    # held back since the fork (_sigint_held) ends the worker here.
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    if hasattr(signal, "pthread_sigmask"):
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})


@contextlib.contextmanager
def _sigint_held():
    """Hold a Ctrl-C back in this thread and the processes it starts
    until the block ends (Windows has no signal masks)."""
    if not hasattr(signal, "pthread_sigmask"):
        yield
        return
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _worker_task(spec_index: int, folds):
    return _worker_job.run(spec_index, folds)


def _pool_context():
    """fork where the platform has it and this process runs no other
    thread (a fork copies locks other threads may hold): workers then
    inherit the job without pickling and start in milliseconds."""
    import multiprocessing as mp

    if "fork" in mp.get_all_start_methods() and threading.active_count() == 1:
        return mp.get_context("fork")
    return mp.get_context("spawn")


def fold_groups(folds: int, workers: int) -> list[list[int]]:
    """The folds 0..folds-1 as min(workers, folds) contiguous groups
    whose sizes differ by at most one, larger groups first."""
    return [g.tolist() for g in np.array_split(np.arange(folds),
                                               min(workers, folds))]


def _run_tasks(job: _CVJob, tasks, workers: int) -> list:
    """The results of every (spec index, fold group) task, in task
    order. One worker runs the tasks in this process; more run them in
    one process pool that receives the job once per worker."""
    if workers == 1:
        return [job.run(i, f) for i, f in tasks]
    # Imported here because loading the process-pool modules takes about
    # 15 ms, which every serial run and every `import harboost` would pay.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    with ProcessPoolExecutor(
        max_workers=workers, mp_context=_pool_context(),
        initializer=_init_worker, initargs=(job,),
    ) as pool:
        try:
            with _sigint_held():  # the workers start inside submit
                futures = [pool.submit(_worker_task, i, f) for i, f in tasks]
            return [fut.result() for fut in futures]
        except BaseException as e:
            started = list(pool._processes.values())  # shutdown drops them
            pool.shutdown(cancel_futures=True)
            # A Ctrl-C can end a worker before this process sees it
            if isinstance(e, BrokenProcessPool) and any(
                    p.exitcode == -signal.SIGINT for p in started):
                raise KeyboardInterrupt from None
            raise


def _cv_result(spec, results, labels, folds, rounds, seed) -> CVResult:
    fold_accuracies = tuple(acc for acc, _ in results)
    counts = sum(cm.counts for _, cm in results)
    aggregate = ConfusionMatrix(counts, labels)
    mean = sum(fold_accuracies) / folds
    var = sum((a - mean) ** 2 for a in fold_accuracies) / (folds - 1)
    return CVResult(
        fold_accuracies=fold_accuracies,
        mean_accuracy=mean,
        std_accuracy=math.sqrt(var),
        micro_accuracy=overall_accuracy(aggregate),
        aggregate=aggregate,
        learner=spec,
        folds=folds,
        rounds=rounds,
        seed=seed,
    )


def _cross_validate_all(specs, ds, folds, rounds, seed,
                        threads) -> list[CVResult]:
    """Cross-validate every spec on one stratified fold assignment,
    running all (spec, fold group) tasks through one executor. With one
    worker a spec's folds form one group; with N workers, N groups.
    Raises DataError if a fold's training set holds a single class."""
    assignment = stratified_folds(ds, folds, seed)
    for f in range(folds):
        classes = set(ds.labels[assignment.train_rows(f)].tolist())
        if len(classes) < 2:
            raise DataError(
                f"boosting needs at least 2 classes in every training "
                f"set, but fold {f}'s holds only class {classes.pop()}"
            )
    labels = report_order(np.unique(ds.labels))
    job = _CVJob(tuple(specs), ds, assignment, rounds, seed, labels)
    workers = worker_count(threads, len(specs) * folds, _available_cpus())
    tasks = [(i, group) for i in range(len(specs))
             for group in fold_groups(folds, workers)]
    results = [r for task in _run_tasks(job, tasks, workers) for r in task]
    return [
        _cv_result(spec, results[i * folds:(i + 1) * folds], labels,
                   folds, rounds, seed)
        for i, spec in enumerate(specs)
    ]


def cross_validate(
    base_spec,
    ds: Dataset,
    folds: int = 10,
    rounds: int = 10,
    seed: int = 0,
    threads: int = 1,
) -> CVResult:
    """Boosted stratified k-fold cross-validation.

    Every row is predicted exactly once by the ensemble trained on its
    fold's complement. Fold f boosts with seed derive_seed(seed, f).
    With threads > 1 the folds run in up to that many worker processes;
    the result is independent of the thread count.
    """
    return _cross_validate_all([base_spec], ds, folds, rounds, seed,
                               threads)[0]


@dataclass(frozen=True)
class ComparisonRow:
    name: str
    spec: LearnerSpec | None
    result: CVResult | None

    @property
    def implemented(self) -> bool:
        return self.result is not None


@dataclass(frozen=True)
class ComparisonReport:
    rows: tuple[ComparisonRow, ...]
    folds: int
    rounds: int
    seed: int

    def measured(self) -> list[ComparisonRow]:
        return [r for r in self.rows if r.implemented]


def compare(
    specs,
    ds: Dataset,
    folds: int = 10,
    rounds: int = 10,
    seed: int = 0,
    threads: int = 1,
    include_placeholders: bool = True,
) -> ComparisonReport:
    """Cross-validate each spec on one shared fold assignment.

    Measured rows are sorted by descending micro-average accuracy (ties
    keep input order); placeholder rows for the unimplemented learners
    follow at the end.
    """
    specs = list(specs)
    if not specs:
        raise ValueError("no learner specs given")
    results = _cross_validate_all(specs, ds, folds, rounds, seed, threads)
    measured = []
    for i, (spec, result) in enumerate(zip(specs, results)):
        name = FAMILIES[spec.family].display_name \
            if isinstance(spec, LearnerSpec) else type(spec).__name__
        measured.append((i, ComparisonRow(name, spec, result)))
    measured.sort(key=lambda t: (-t[1].result.micro_accuracy, t[0]))
    rows = [row for _, row in measured]
    if include_placeholders:
        rows.extend(ComparisonRow(n, None, None) for n in PLACEHOLDER_LEARNERS)
    return ComparisonReport(tuple(rows), folds, rounds, seed)
