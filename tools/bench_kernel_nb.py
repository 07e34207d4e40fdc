"""Time kernel-NB prediction of two trees, and how much of it the bounds save.

    python3 tools/bench_kernel_nb.py --baseline DIR [--pairs N] [--out BENCH_kernel_nb.json]

DIR is another source checkout (for example the parent commit, written
out with `git archive`); this checkout is "change", DIR is "baseline".
Every measurement runs in a fresh interpreter that imports harboost
from one tree only, and the two trees alternate, the order swapping
each pair (tools/pairs.py):

  * "cv": every predict of a boosted kernel-NB cross-validation on the
    compare-serial input (perfbench/setup_inputs.py compare, 600 rows,
    seed 7; 4 folds x 3 rounds, seed 0): the summed time of its 24
    scorer calls, each fold's training rows every round and its test
    rows once, the median of CV_REPEATS runs in one process;
  * "population": one model fit with equal weights on 7000 rows of
    perfbench's 7767-row population, predicting all 7767 rows, the
    median of POPULATION_REPEATS predicts in one process.

For this checkout alone, the same two measurements are run once more
counting the bounded path's work: the share of queries the bounds
decide alone, and the share of the exact path's (query, sample,
feature) kernel cells still scored exactly, its useful-work ratio.
Predictions are not compared here: the tests check them against the
exact argmax bit for bit. The record, "kernel_nb", holds each side's
medians and quartiles, the pairs the change won, the counts and the
machine; the file keeps every earlier record.
"""

from __future__ import annotations

import argparse
import functools
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from pairs import ROOT, alternating, compare, environment, keep
from pairs import run_worker as _run_worker

PERFBENCH = ROOT / "perfbench"
CV_ROWS, CV_SEED, CV_FOLDS, CV_ROUNDS, CV_REPEATS = 600, 7, 4, 3, 3
POPULATION_ROWS, TRAIN_ROWS, POPULATION_REPEATS = 7767, 7000, 3
KINDS = ("cv", "population")


def _count_work(bayes) -> dict:
    """Count, from here on, the query rows and kernel cells that the
    exact path scores. Each _class_scores call scores rows x n_c x d
    cells. A query row counts once in each log_scores or _Grid.argmax
    call, at the first class that scores it exactly: every query of a
    call sent wholly to log_scores, and every query the bounds left
    undecided, at its leader."""
    work = {"exact_rows": 0, "exact_cells": 0}
    exact, seen = bayes._class_scores, set()

    def counted(m, c, X):
        rows = [r.tobytes() for r in X]
        work["exact_rows"] += sum(r not in seen for r in rows)
        work["exact_cells"] += X.size * len(m.samples[c])
        seen.update(rows)
        return exact(m, c, X)

    def fresh(f):
        def call(*args):
            seen.clear()
            return f(*args)
        return call

    bayes._class_scores = counted
    bayes._Grid.argmax = fresh(bayes._Grid.argmax)
    bayes.KernelNbModel.log_scores = fresh(bayes.KernelNbModel.log_scores)
    return work


def worker(kind: str, src: str, data: str, count: bool = False) -> dict:
    """One measurement in this interpreter, harboost imported from src."""
    sys.path[:0] = [src, str(PERFBENCH)]
    import numpy as np
    from harboost import boosting, dataset, evaluation
    from harboost.learners import Family, LearnerSpec, bayes

    spec = LearnerSpec(Family.KERNEL_NAIVE_BAYES)
    work = _count_work(bayes) if count else None
    calls = {"seconds": 0.0, "queries": 0, "cells": 0}
    if kind == "cv":
        ds = dataset.load_csv(Path(data) / "cv" / "features.csv")
        scorer = boosting._scorer

        def timed_scorer(model, X):
            start = time.perf_counter()
            score = scorer(model, X)
            calls["seconds"] += time.perf_counter() - start

            def timed(m):
                start = time.perf_counter()
                out = score(m)
                calls["seconds"] += time.perf_counter() - start
                calls["queries"] += len(X)
                calls["cells"] += X.size * sum(map(len, m.samples))
                return out
            return timed

        boosting._scorer = timed_scorer
        times = []
        for _ in range(1 if count else CV_REPEATS):
            calls["seconds"] = 0.0
            evaluation.cross_validate(spec, ds, CV_FOLDS, CV_ROUNDS, 0, 1)
            times.append(calls["seconds"])
    else:
        ds = dataset.load_csv(Path(data) / "population" / "features.csv")
        picked = np.sort(np.random.RandomState(0).permutation(
            ds.n_rows)[:TRAIN_ROWS])
        model = spec.fit_weighted(ds.subset(picked), np.ones(TRAIN_ROWS))
        times = []
        for _ in range(1 if count else POPULATION_REPEATS):
            start = time.perf_counter()
            model.predict_batch(ds.features)
            times.append(time.perf_counter() - start)
        calls["queries"] = ds.n_rows
        calls["cells"] = ds.features.size * TRAIN_ROWS
    if count:
        return {
            "queries": calls["queries"],
            "decided_by_bounds": 1 - work["exact_rows"] / calls["queries"],
            "exact_cells_left": work["exact_cells"] / calls["cells"],
        }
    return {"predict_s": statistics.median(times)}


run_worker = functools.partial(_run_worker, __file__)


def measure(baseline: Path, pairs: int, data: Path) -> dict:
    """The record of pairs alternating runs of this checkout and the
    baseline on the inputs under data, and this checkout's counts."""
    trees = {"change": ROOT / "src", "baseline": baseline / "src"}
    runs = {kind: {side: [] for side in trees} for kind in KINDS}
    for order in alternating(pairs, trees):
        for side in order:
            for kind in KINDS:
                runs[kind][side].append(
                    run_worker(kind, trees[side], data)["predict_s"])
    record = {
        "benchmark": "kernel-NB predict, this checkout against a baseline "
                     "checkout, alternating single-version processes",
        "command": f"python3 tools/bench_kernel_nb.py --baseline DIR "
                   f"--pairs {pairs}",
        "environment": environment(),
        "cv": {"rows": CV_ROWS, "seed": CV_SEED, "folds": CV_FOLDS,
               "rounds": CV_ROUNDS, "repeats_per_process": CV_REPEATS},
        "population": {"rows": POPULATION_ROWS, "train_rows": TRAIN_ROWS,
                       "repeats_per_process": POPULATION_REPEATS},
    }
    for kind in KINDS:
        times = compare(runs[kind])
        times["speedup"] = (times["baseline"]["median"]
                            / times["change"]["median"])
        record[kind]["predict_s"] = times
        record[kind]["work"] = run_worker(kind, trees["change"], data,
                                          count=True)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--baseline",
                        help="another source checkout to alternate with")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", default=str(ROOT / "BENCH_kernel_nb.json"))
    parser.add_argument("--worker", nargs=3, help=argparse.SUPPRESS)
    parser.add_argument("--count", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(*args.worker, count=args.count)))
        return 0
    if not args.baseline:
        parser.error("--baseline is required")

    with tempfile.TemporaryDirectory() as tmp:
        setup = [sys.executable, str(PERFBENCH / "setup_inputs.py"), "compare"]
        subprocess.run([*setup, str(CV_ROWS), str(CV_SEED),
                        str(Path(tmp) / "cv")], check=True)
        # every row of the population: the sample of all its rows
        subprocess.run([*setup, str(POPULATION_ROWS), "1",
                        str(Path(tmp) / "population")], check=True)
        record = measure(Path(args.baseline), args.pairs, Path(tmp))
    print(keep(Path(args.out), "kernel_nb", record), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
