"""harboost benchmark: one named workload, timed, checked and optionally traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs the three workloads one after another.

Run from the root of a source checkout; harboost is imported from its
``src`` directory. The inputs are generated from ``--seed`` (see
setup_inputs.py), then the workload's harboost commands run through
``harboost.cli.main`` in this process, the same argument vectors a user
types, over and over for about ``--seconds`` seconds.

``--trace 0`` prints the end-to-end metrics: medians over the
iterations, and over several set-ups for ``setup_s``. ``--trace 1``
alternates untraced and traced iterations and prints the per-layer
metrics from tracer.py; the traced run's spans are written to
``.bench_build/perfbench/``. Every output is checked (exit codes,
repeatability, golden digests for the seeds in golden.json, and
cross-command invariants). The last stdout line is the JSON result, the
line before it the run's record (environment, step times, digests,
failures); the exit code is 1 when a check failed and 2 when there is
nothing to measure. ``--tiny`` shrinks the task for the smoke test.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy is imported, here and in every
# set-up process, so that no workload uses more than its --threads.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"
#: Set-ups per untraced run: at least SETUP_MIN_REPEATS, and more while
#: they have taken less than SETUP_MIN_SECONDS, so that the median of a
#: fast set-up rests on more samples.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 15
SETUP_MIN_SECONDS = 4.0
MIN_ITERATIONS = 3
SETUP_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, KNN_K, SIZES, WORKLOADS, Paths, commands, outputs,
)


class Checks:
    """Operations attempted and failed: CLI commands and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, what: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{what}: {detail}" if detail else what)


def sha256_json(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def sha256_tree(path: Path) -> str:
    h = hashlib.sha256()
    files = sorted(p for p in path.rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(path)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


# -- set-up -----------------------------------------------------------------


def set_up(task: str, rows: int, seed: int, work: Path, repeated: bool,
           checks: Checks) -> list[float]:
    """Generate the inputs in a fresh interpreter that imports harboost,
    once, or when `repeated` several times (see SETUP_MIN_REPEATS); keep
    the first copy in `work`. Returns the wall time of each set-up."""
    times, digests = [], []
    while len(times) < (SETUP_MIN_REPEATS if repeated else 1) or (
        repeated and len(times) < SETUP_MAX_REPEATS
        and sum(times) < SETUP_MIN_SECONDS
    ):
        target = work if not times else work.parent / f"{work.name}-setup"
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_inputs.py"),
             task, str(rows), str(seed), str(target)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"input generation failed:\n{proc.stderr}")
        digests.append(sha256_tree(target))
        if target != work:
            shutil.rmtree(target)
    checks.check("set-up is deterministic", len(set(digests)) == 1)
    return times


# -- one iteration ----------------------------------------------------------


def run_command(cli, argv, tracer=None):
    """harboost.cli.main(argv) with stdout captured: (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.call(f"cli.{argv[0]}", cli.main, argv)
        except SystemExit as e:  # argparse rejects bad arguments this way
            code = e.code if isinstance(e.code, int) else 2
    if code != 0:
        sys.stderr.write(f"harboost {' '.join(argv)} exited {code}:\n"
                         f"{err.getvalue()}")
    return code, out.getvalue()


def run_iteration(cli, workload, size, paths, checks, tracer=None) -> dict:
    """Run the workload's commands once. Returns the wall time, the time
    of each command and the stdout of each command."""
    for p in outputs(workload, paths):
        if os.path.exists(p):
            os.remove(p)
    steps, stdout = {}, {}
    start = time.perf_counter()
    for argv in commands(workload, size, paths):
        t0 = time.perf_counter()
        code, text = run_command(cli, argv, tracer)
        steps[argv[0]] = time.perf_counter() - t0
        stdout[argv[0]] = text
        checks.check(f"harboost {argv[0]} exits 0", code == 0, f"exit {code}")
    return {"wall": time.perf_counter() - start, "steps": steps, "stdout": stdout}


def read_outputs(workload, paths, it) -> tuple[dict, float]:
    """Digests of the checked outputs, and the CV micro accuracy (the mean
    over learners for a comparison)."""
    if workload.task == "compare":
        rows = json.loads(Path(paths.report).read_text())["rows"]
        measured = [r["micro_accuracy"] for r in rows if r["implemented"]]
        return {"compare.rows": sha256_json(rows)}, statistics.fmean(measured)
    result = json.loads(Path(paths.report).read_text())["result"]
    ingest_digest = it["stdout"]["ingest"].split("dataset digest:")[1].split()[0]
    return {
        "ingest.dataset_digest": ingest_digest,
        "evaluate.result": sha256_json(result),
        "predict.csv": hashlib.sha256(Path(paths.predictions).read_bytes()).hexdigest(),
    }, result["micro_accuracy"]


# -- checks made once per run -----------------------------------------------


def check_golden(args, workload, size, digests, checks) -> None:
    """At full size, the outputs must equal golden.json's digests for
    this seed (see make_golden.py for the seeds it covers)."""
    if args.tiny:
        return
    golden = json.loads((HERE / "golden.json").read_text())
    checks.check("golden.json was made at this task size",
                 golden["sizes"][workload.task] == asdict(size))
    want = golden["digests"].get(str(args.seed), {}).get(workload.task, {})
    for name, digest in want.items():
        checks.check(f"golden {name}", digests.get(name) == digest,
                     f"{digests.get(name)} != {digest}")


def check_invariants(cli, workload, size, paths, digests, checks) -> None:
    """Cross-command invariants that hold at any seed, checked on the
    last iteration's outputs."""
    from harboost import dataset
    from harboost.boosting import boost_fit, boost_predict_batch
    from harboost.learners import Family, LearnerSpec

    ds = dataset.load_csv(paths.csv)
    digest = dataset.dataset_digest(ds)
    report = json.loads(Path(paths.report).read_text())
    checks.check("report dataset digest equals the input CSV's",
                 report["dataset"]["digest"] == digest)
    if workload.task == "compare":
        rows = [r for r in report["rows"] if r["implemented"]]
        checks.check(
            "compare reports every family once, accuracies in [0, 1]",
            len(rows) == len(Family)
            and len({r["name"] for r in rows}) == len(rows)
            and all(0.0 <= r["micro_accuracy"] <= 1.0 for r in rows),
        )
        if workload.threads > 1:
            argv = commands(workload, size, paths)[0]
            argv[argv.index("--threads") + 1] = "1"
            argv[argv.index("--out") + 1] = paths.reference
            code, _ = run_command(cli, argv)
            serial = json.loads(Path(paths.reference).read_text())["rows"] \
                if code == 0 else None
            checks.check("--threads 2 rows equal --threads 1 rows",
                         serial == report["rows"])
        return
    checks.check("ingested CSV digest equals its digest after load_csv",
                 digests.get("ingest.dataset_digest") == digest)
    ens = boost_fit(LearnerSpec(Family.KNN, k=KNN_K), ds,
                    rounds=size.rounds, seed=0)
    expected = boost_predict_batch(ens, ds.features)
    lines = Path(paths.predictions).read_text().splitlines()[1:]
    predicted = [int(line.split(",")[1]) for line in lines]
    checks.check("reloaded-model predictions equal in-memory predictions",
                 predicted == expected.tolist())


# -- the run ----------------------------------------------------------------


def environment(args, size, workload) -> dict:
    import numpy

    blas = {}
    with contextlib.suppress(Exception):
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rows": size.rows,
        "folds": size.folds,
        "rounds": size.rounds,
        "threads": workload.threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREADS},
    }


def measure(cli, workload, size, paths, seconds, checks, traced):
    """Iterate until about `seconds` have passed (at least MIN_ITERATIONS).
    With `traced`, iterations alternate untraced and traced. After each
    iteration its outputs are read, outside the timed window, and must
    equal the first iteration's. Returns the untraced and traced
    iterations, the tracer, and the first iteration's output digests and
    accuracy."""
    plain, spanned = [], []
    tracer = tracing.Tracer() if traced else None
    first = None
    deadline = time.perf_counter() + seconds
    while True:
        if traced and len(spanned) < len(plain):
            tracing.install(tracer)
            try:
                it = run_iteration(cli, workload, size, paths, checks, tracer)
            finally:
                tracer.restore()
            spanned.append(it)
        else:
            plain.append(run_iteration(cli, workload, size, paths, checks))
            it = plain[-1]
        try:
            seen = read_outputs(workload, paths, it)
        except (OSError, ValueError, KeyError, IndexError) as e:
            checks.check("outputs are readable", False, repr(e))
            seen = ({}, 0.0)
        if first is None:
            first = seen
        else:
            checks.check("outputs repeat across iterations", seen == first)
        balanced = len(spanned) == len(plain) or not traced
        if len(plain) + len(spanned) >= MIN_ITERATIONS and balanced and \
                time.perf_counter() + next_wall(plain, spanned) > deadline:
            return plain, spanned, tracer, first


def next_wall(plain, spanned) -> float:
    """Expected wall time of the next iteration (or pair, when traced)."""
    walls = [statistics.median(i["wall"] for i in plain)]
    if spanned:
        walls.append(statistics.median(i["wall"] for i in spanned))
    return sum(walls)


def end_to_end(workload, size, setup_times, plain, accuracy) -> dict:
    cv_step = "compare" if workload.task == "compare" else "evaluate"
    learners = len(tracing.FAMILIES) if workload.task == "compare" else 1
    cv_s = statistics.median(i["steps"][cv_step] for i in plain)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(i["wall"] for i in plain), "s"),
        "cv_rows_per_s": (size.rows * learners / cv_s, "rows/s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        "cv_micro_accuracy": (accuracy, "ratio"),
    }


def step_summary(workload, size, plain) -> dict:
    """Median time of each command, plus the pipeline's throughputs."""
    steps = {
        cmd: statistics.median(i["steps"][cmd] for i in plain)
        for cmd in plain[0]["steps"]
    }
    out = {f"{cmd}_s": v for cmd, v in steps.items()}
    if workload.task == "headline":
        out["ingest_rows_per_s"] = size.rows / steps["ingest"]
        out["train_s"] = steps["train"]
        out["predict_rows_per_s"] = size.rows / steps["predict"]
    return out


def write_spans(tracer, path: Path, origin: float) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps({
                "id": s.id, "name": s.name, "start": s.start - origin,
                "end": s.end - origin, "parent": s.parent, "thread": s.thread,
            }) + "\n")


def run_all(args) -> int:
    """Run every workload, each in its own process so that its peak RSS
    is its own. Prints each workload's record and result, then one result
    over all of them with metric names prefixed by the workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv + (["--tiny"] if args.tiny else []),
                              capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1):
            return proc.returncode
        record, result = proc.stdout.strip().splitlines()[-2:]
        print(record)
        print(result)
        result = json.loads(result)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"],
                    help="a workload, or all of them one after another")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny task sizes, for the smoke test")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "harboost" / "__init__.py").is_file():
        print(f"error: no harboost sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    workload = WORKLOADS[args.workload]
    size = SIZES["tiny" if args.tiny else "full"][workload.task]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    work = OUT_DIR / f"work-{workload.name}-{os.getpid()}"
    checks = Checks()
    try:
        try:
            setup_times = set_up(workload.task, size.rows, args.seed, work,
                                 not args.trace, checks)
        except (RuntimeError, subprocess.TimeoutExpired) as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        sys.path.insert(0, str(SRC))
        from harboost import cli

        paths = Paths.under(str(work))
        origin = time.perf_counter()
        plain, spanned, tracer, (digests, accuracy) = measure(
            cli, workload, size, paths, args.seconds, checks, args.trace
        )
        if args.trace:
            metrics = tracing.per_layer_metrics(
                tracer, len(spanned), workload.threads,
                [i["wall"] for i in spanned], [i["wall"] for i in plain],
            )
            spans_file = f"spans-{workload.name}-seed{args.seed}.jsonl"
            write_spans(tracer, OUT_DIR / spans_file, origin)
        else:
            metrics = end_to_end(workload, size, setup_times, plain, accuracy)
        check_golden(args, workload, size, digests, checks)
        try:
            check_invariants(cli, workload, size, paths, digests, checks)
        except (OSError, ValueError, KeyError, IndexError) as e:
            checks.check("invariants are checkable", False, repr(e))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "environment": environment(args, size, workload),
        "steps": step_summary(workload, size, plain),
        "iteration_walls_s": {"untraced": [i["wall"] for i in plain],
                              "traced": [i["wall"] for i in spanned]},
        "setup_s": setup_times,
        "digests": digests,
        "failures": checks.failures,
        "trace_hooks_missing": tracer.missing if tracer else [],
    }
    (OUT_DIR / f"record-{workload.name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not checks.failures else 1


if __name__ == "__main__":
    sys.exit(main())
