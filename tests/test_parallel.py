"""Fold evaluation in worker processes: the worker-count cap, results
that never depend on --threads, and faults that keep their type.

No test here starts more than two worker processes.
"""

import concurrent.futures
import json
import multiprocessing as mp
import os
import signal
import subprocess
import sys
import textwrap
import threading
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from harboost import evaluation
from harboost.cli import main
from harboost.dataset import DataError, save_csv
from harboost.evaluation import compare, cross_validate, worker_count
from harboost.learners import Family, LearnerSpec

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

SRC = Path(evaluation.__file__).resolve().parents[1]
needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="workers inherit the parent's state only under fork",
)


# ---------------------------------------------------------------------------
# Worker count (pure; starts nothing)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "threads,tasks,cpus,expected",
    [
        (1, 48, 64, 1),
        (2, 48, 2, 2),
        (5000, 48, 2, 2),
        (5000, 10**6, 64, 64),
        (10**9, 3, 64, 3),
        (8, 1, 8, 1),
        (4, 0, 4, 1),
        (2, 48, 1, 1),
    ],
)
def test_worker_count_caps_at_cpus_and_tasks(threads, tasks, cpus, expected):
    assert worker_count(threads, tasks, cpus) == expected


@pytest.mark.parametrize("threads", [0, -1])
def test_worker_count_rejects_non_positive_threads(threads):
    with pytest.raises(ValueError, match="threads"):
        worker_count(threads, 10, 2)


def test_huge_thread_count_starts_at_most_the_cap(monkeypatch, blobs4):
    started = []

    class Recorder:
        def __init__(self, max_workers, **kwargs):
            started.append(max_workers)
            raise RuntimeError("stop before starting any process")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    monkeypatch.setattr(evaluation, "_available_cpus", lambda: 2)
    with pytest.raises(RuntimeError, match="stop before"):
        cross_validate(LearnerSpec(Family.NAIVE_BAYES), blobs4, folds=4,
                       rounds=1, threads=5000)
    assert started == [2]


# ---------------------------------------------------------------------------
# Results never depend on the thread count
# ---------------------------------------------------------------------------


def _compare_json(capsys, csv, threads):
    code = main(["compare", "--from-csv", csv, "--folds", "3", "--rounds", "2",
                 "--seed", "5", "--k", "3", "--trees", "3", "--max-depth", "4",
                 "--threads", str(threads), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    return out


def test_compare_all_families_threads2_equals_serial(capsys, tmp_path, blobs12):
    csv = str(tmp_path / "blobs.csv")
    save_csv(blobs12.subset(np.arange(0, blobs12.n_rows, 3)), csv)
    serial = _compare_json(capsys, csv, 1)
    parallel = _compare_json(capsys, csv, 2)
    s, p = json.loads(serial), json.loads(parallel)
    assert len([r for r in s["rows"] if r["implemented"]]) == len(Family)
    assert s["rows"] == p["rows"]
    assert p["config"]["threads"] == 2
    p["config"]["threads"] = 1
    assert json.dumps(p, sort_keys=True, indent=2) + "\n" == serial


@settings(max_examples=6, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    folds=st.integers(2, 5),
    family=st.sampled_from([Family.KNN, Family.DECISION_TREE,
                            Family.NAIVE_BAYES, Family.RANDOM_FOREST]),
)
def test_cross_validate_independent_of_threads(blobs4, seed, folds, family):
    spec = LearnerSpec(family, k=3, trees=2, max_depth=3, seed=seed)
    a = cross_validate(spec, blobs4, folds=folds, rounds=2, seed=seed, threads=1)
    b = cross_validate(spec, blobs4, folds=folds, rounds=2, seed=seed, threads=2)
    assert a == b


def test_threaded_caller_gets_spawned_workers_and_same_result(blobs4):
    """A process running other threads must not fork; its workers are
    spawned and receive the job by pickling."""
    spec = LearnerSpec(Family.KNN, k=3)
    serial = cross_validate(spec, blobs4, folds=4, rounds=2, seed=3)
    got = {}

    def run():
        got["context"] = evaluation._pool_context().get_start_method()
        got["result"] = cross_validate(spec, blobs4, folds=4, rounds=2,
                                       seed=3, threads=2)

    worker = threading.Thread(target=run)
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive()
    assert got["context"] == "spawn"
    assert got["result"] == serial


# ---------------------------------------------------------------------------
# Faults
# ---------------------------------------------------------------------------


class Failing:
    """A base learner whose fit raises the given exception."""

    def __init__(self, exc):
        self.exc = exc

    def fit_weighted(self, ds, w, seed=0):
        raise self.exc


@pytest.mark.parametrize(
    "exc", [ValueError("bad fold"), DataError("bad cell")],
    ids=["ValueError", "DataError"],
)
def test_fold_exception_keeps_its_type(blobs4, exc):
    for threads in (1, 2):
        with pytest.raises(type(exc), match=str(exc)):
            compare([LearnerSpec(Family.NAIVE_BAYES), Failing(exc)], blobs4,
                    folds=3, rounds=1, threads=threads)


class Dying:
    def fit_weighted(self, ds, w, seed=0):
        os._exit(1)


@needs_fork
def test_dead_worker_breaks_the_pool(blobs4):
    with pytest.raises(BrokenProcessPool):
        cross_validate(Dying(), blobs4, folds=3, rounds=1, threads=2)


@needs_fork
def test_dead_worker_exits_4_with_internal_error(capsys, monkeypatch, tmp_path,
                                                 blobs4):
    def die(*args, **kwargs):
        os._exit(1)

    csv = str(tmp_path / "blobs.csv")
    save_csv(blobs4, csv)
    monkeypatch.setattr(evaluation, "boost_fit", die)
    code = main(["evaluate", "--from-csv", csv, "--folds", "3", "--rounds", "1",
                 "--threads", "2"])
    assert code == 4
    assert "internal error" in capsys.readouterr().err


INTERRUPTED = textwrap.dedent("""
    import sys, time
    from harboost.evaluation import cross_validate
    from harboost.synthetic import make_activity_dataset

    class Slow:
        def fit_weighted(self, ds, w, seed=0):
            print("fitting", flush=True)
            time.sleep(120)

    ds = make_activity_dataset(80, 4, 3, seed=77, spread=0.15)
    try:
        cross_validate(Slow(), ds, folds=4, rounds=1, threads=2)
    except KeyboardInterrupt:
        sys.exit(130)
""")


@needs_fork
def test_ctrl_c_stops_the_pool_without_hanging():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.Popen(
        [sys.executable, "-c", INTERRUPTED], env=env, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        # Both workers print; their lines may interleave.
        assert proc.stdout.readline().startswith("fitting")
        # A terminal's Ctrl-C signals the whole foreground process group.
        os.killpg(proc.pid, signal.SIGINT)
        _, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == 130, stderr
    assert "Traceback" not in stderr
