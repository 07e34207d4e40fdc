"""Time the k-NN neighbor table and the headline commands of two trees.

    python3 tools/bench_knn.py --baseline DIR [--pairs N] [--out BENCH_knn.json]

DIR is another source checkout (for example the parent commit, written
out with `git archive`); this checkout is "change", DIR is "baseline".
Every measurement runs in a fresh interpreter that imports harboost
from one tree only, and the two trees alternate, the order swapping
each pair, because this machine's speed drifts within minutes:

  * neighbor_table(X, X, k) at 2000 and 7767 rows of the benchmark's
    population (perfbench/workloads.py: HAPT class proportions, spread
    0.5), at k = 12 and at the cross-validation ranking depth of 44;
  * the headline pipeline (ingest, evaluate, train, predict of boosted
    12-NN on 2000 rows, perfbench's argument vectors), repeated in one
    process: each command's median time, the median iteration, and the
    minor page faults (ru_minflt) of each command per iteration after
    the first;
  * evaluate alone, repeated in one process with no ingest between:
    its median time and minor page faults per call after the first;
  * the pipeline and the repeated evaluate of this checkout with
    glibc's malloc thresholds fixed (GLIBC_TUNABLES), runs without the
    page faults that glibc's dynamic thresholds cause, so that their
    cost shows.

Tables and outputs are not compared here: the tests and perfbench's
golden digests check them. The record, "knn", holds each side's
medians and quartiles, the pairs the change won, and the machine; the
file keeps every earlier record (tools/pairs.py).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from pairs import ROOT, alternating, compare, environment, keep
from pairs import run_worker as _run_worker

PERFBENCH = ROOT / "perfbench"
#: (rows, repetitions per process) of the neighbor-table timings
TABLE_SIZES = ((2000, 7), (7767, 3))
TABLE_KS = (12, 44)
HEADLINE_ROWS, HEADLINE_SEED, HEADLINE_ITERATIONS = 2000, 1, 8
#: glibc malloc thresholds that stay fixed, so that freed blocks are
#: neither unmapped nor trimmed between calls
FIXED_MALLOC = ("glibc.malloc.mmap_threshold=33554432:"
                "glibc.malloc.trim_threshold=67108864")


def worker(kind: str, src: str, data: str) -> dict:
    """One measurement in this interpreter, harboost imported from src."""
    sys.path[:0] = [src, str(PERFBENCH)]
    from harboost.learners.knn import neighbor_table
    from harboost.synthetic import make_activity_dataset
    from workloads import SPREAD, class_counts

    if kind == "table":
        out = {}
        for rows, reps in TABLE_SIZES:
            X = make_activity_dataset(rows, seed=1, spread=SPREAD,
                                      class_counts=class_counts(rows)).features
            for k in TABLE_KS:
                times = []
                for _ in range(reps):
                    start = time.perf_counter()
                    neighbor_table(X, X, k)
                    times.append(time.perf_counter() - start)
                out[f"{rows}_k{k}"] = statistics.median(times)
        return out
    from harboost import cli
    from workloads import SIZES, WORKLOADS, Paths, commands

    argvs = commands(WORKLOADS["headline-pipeline"], SIZES["full"]["headline"],
                     Paths.under(data))
    if kind == "evaluate":  # on the CSV an earlier pipeline wrote
        argvs = [argv for argv in argvs if argv[0] == "evaluate"]
    steps = {argv[0]: [] for argv in argvs}
    faults = {argv[0]: [] for argv in argvs}
    walls = []
    for _ in range(HEADLINE_ITERATIONS):
        begin = time.perf_counter()
        for argv in argvs:
            f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(argv) != 0:
                    raise SystemExit(f"harboost {argv[0]} failed")
            steps[argv[0]].append(time.perf_counter() - start)
            faults[argv[0]].append(
                resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
        walls.append(time.perf_counter() - begin)
    return {
        "wall_s": statistics.median(walls),
        **{f"{name}_s": statistics.median(t) for name, t in steps.items()},
        **{f"{name}_minflt": statistics.median(f[1:])
           for name, f in faults.items()},
    }


run_worker = functools.partial(_run_worker, __file__)


def compare_metrics(runs: dict) -> dict:
    """Per metric: compare() of the sides' values."""
    return {metric: compare({side: [r[metric] for r in rs]
                             for side, rs in runs.items()})
            for metric in runs["change"][0]}


def measure(baseline: Path, pairs: int, data: Path) -> dict:
    """The record of pairs alternating runs of this checkout and the
    baseline on the headline inputs under data."""
    trees = {"change": ROOT / "src", "baseline": baseline / "src"}
    runs = {kind: {side: [] for side in trees}
            for kind in ("table", "headline", "evaluate")}
    fixed = {kind: {"change": []} for kind in ("headline", "evaluate")}
    for order in alternating(pairs, trees):
        for side in order:
            for kind, side_runs in runs.items():
                side_runs[side].append(run_worker(kind, trees[side], data))
        for kind, side_runs in fixed.items():
            side_runs["change"].append(run_worker(
                kind, trees["change"], data,
                env={"GLIBC_TUNABLES": FIXED_MALLOC}))
    return {
        "benchmark": "k-NN neighbor tables and the headline pipeline, this "
                     "checkout against a baseline checkout, alternating "
                     "single-version processes",
        "command": f"python3 tools/bench_knn.py --baseline DIR --pairs {pairs}",
        "environment": environment(),
        "neighbor_table_s": compare_metrics(runs["table"]),
        "headline": {
            "rows": HEADLINE_ROWS, "seed": HEADLINE_SEED,
            "iterations_per_process": HEADLINE_ITERATIONS,
            "pipeline": compare_metrics(runs["headline"]),
            "evaluate_repeated": compare_metrics(runs["evaluate"]),
            "fixed_malloc_thresholds": {
                "tunables": FIXED_MALLOC,
                "pipeline": compare_metrics(fixed["headline"]),
                "evaluate_repeated": compare_metrics(fixed["evaluate"]),
            },
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--baseline",
                        help="another source checkout to alternate with")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", default=str(ROOT / "BENCH_knn.json"))
    parser.add_argument("--worker", nargs=3, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(*args.worker)))
        return 0
    if not args.baseline:
        parser.error("--baseline is required")

    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "headline"
        subprocess.run([sys.executable, str(PERFBENCH / "setup_inputs.py"),
                        "headline", str(HEADLINE_ROWS), str(HEADLINE_SEED),
                        str(data)], check=True)
        record = measure(Path(args.baseline), args.pairs, data)
    print(keep(Path(args.out), "knn", record), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
