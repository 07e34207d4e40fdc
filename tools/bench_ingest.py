"""Time HAPT ingest with the fixed-width reader against np.loadtxt.

    python3 tools/bench_ingest.py [--pairs N] [--columns] [--out BENCH_ingest.json]

For each size (2000 and 7767 rows of write_hapt_layout's 561 columns)
the script times, in alternating pairs whose order swaps each pair:

  * load_hapt with e7text.read_e7 (the array reader) and with it
    turned off, so that dataset._table parses with np.loadtxt as before;
  * the parse of X_train.txt alone: read_e7 against np.loadtxt.

Every reading is checked bit for bit against np.loadtxt. Peak memory
is taken in a fresh interpreter per reader and size, after one
load_hapt: VmHWM where /proc has it, which exec resets, else ru_maxrss
(which keeps the high-water mark of the process that forked it). The
JSON written holds the medians and quartiles, the pairs the array
reader won, the peak memory, and the machine: CPU, numpy's SIMD
baseline, dispatch targets and the CPU features it found, and the BLAS
build. Run it from the root of a source checkout; BLAS is pinned to one
thread.

With --columns it times load_body_acc, which decodes only the 15
modeled columns, against load_hapt and select_features, which decode
all 561 and keep 15, and read_e7 of those columns against read_e7 of
all of them; each reading is checked bit for bit, and peak memory is
taken after one load of each path.

The file keeps every earlier record. A run stores its record, "load_hapt"
or "body_acc_columns", under the checkout's short commit id from git,
with "-dirty" added when src/ differs from that commit; it replaces
only an earlier record of the same kind under the same id.
"""

from __future__ import annotations

import os

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from harboost import dataset, e7text  # noqa: E402
from harboost.synthetic import write_hapt_layout  # noqa: E402

#: (rows, write_hapt_layout seed) of each measured file
SIZES = ((2000, 1), (7767, 2))
READERS = ("array", "loadtxt")
#: load_body_acc's two paths: its 15 columns alone, or the whole matrix
BODY_ACC = {
    "columns": dataset.load_body_acc,
    "full": lambda root: dataset.select_features(dataset.load_hapt(root),
                                                 dataset.BODY_ACC_FEATURES),
}


@contextlib.contextmanager
def reader(name: str):
    """dataset._table with the array reader on ("array") or off."""
    original = e7text.read_e7
    if name == "loadtxt":
        e7text.read_e7 = lambda path: None
    try:
        yield
    finally:
        e7text.read_e7 = original


def parse(name: str, path: Path) -> np.ndarray:
    if name == "array":
        return e7text.read_e7(path)
    return np.loadtxt(path, ndmin=2)


def timed(fn, *args) -> tuple[float, object]:
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def summary(times: list[float]) -> dict:
    q1, median, q3 = np.percentile(times, [25, 50, 75]).tolist()
    return {"median": median, "quartiles": [q1, q3], "runs": len(times)}


def measure(root: Path, pairs: int) -> dict:
    x_path = root / "Train" / "X_train.txt"
    expected = np.loadtxt(x_path, ndmin=2).view(np.int64)
    load = {name: [] for name in READERS}
    text = {name: [] for name in READERS}
    for i in range(pairs):
        for name in READERS if i % 2 == 0 else READERS[::-1]:
            with reader(name):
                seconds, ds = timed(dataset.load_hapt, root)
            load[name].append(seconds)
            assert np.array_equal(ds.features.view(np.int64), expected)
            seconds, x = timed(parse, name, x_path)
            text[name].append(seconds)
            assert np.array_equal(x.view(np.int64), expected)
    return {
        "file_bytes": x_path.stat().st_size,
        "load_hapt_s": {name: summary(load[name]) for name in READERS},
        "parse_s": {name: summary(text[name]) for name in READERS},
        "load_hapt_pairs_won_by_array": sum(
            a < b for a, b in zip(load["array"], load["loadtxt"])),
        "parse_pairs_won_by_array": sum(
            a < b for a, b in zip(text["array"], text["loadtxt"])),
        "peak_rss_mb": {name: peak_rss(name, root) for name in READERS},
    }


def measure_columns(root: Path, pairs: int) -> dict:
    x_path = root / "Train" / "X_train.txt"
    names = dataset._parse_feature_names(root / "features.txt")
    columns = [names.index(n) for n in dataset.BODY_ACC_FEATURES]
    parses = {
        "columns": lambda: e7text.read_e7(x_path, columns, len(names)),
        "full": lambda: e7text.read_e7(x_path)[:, columns],
    }
    expected = BODY_ACC["full"](root).features.view(np.int64)
    load = {name: [] for name in BODY_ACC}
    text = {name: [] for name in BODY_ACC}
    for i in range(pairs):
        for name in list(BODY_ACC) if i % 2 == 0 else list(BODY_ACC)[::-1]:
            seconds, ds = timed(BODY_ACC[name], root)
            load[name].append(seconds)
            assert np.array_equal(ds.features.view(np.int64), expected)
            seconds, x = timed(parses[name])
            text[name].append(seconds)
            assert np.array_equal(x.view(np.int64), expected)
    return {
        "file_bytes": x_path.stat().st_size,
        "load_body_acc_s": {name: summary(load[name]) for name in BODY_ACC},
        "parse_s": {name: summary(text[name]) for name in BODY_ACC},
        "load_pairs_won_by_columns": sum(
            a < b for a, b in zip(load["columns"], load["full"])),
        "parse_pairs_won_by_columns": sum(
            a < b for a, b in zip(text["columns"], text["full"])),
        "peak_rss_mb": {name: peak_rss(name, root) for name in BODY_ACC},
    }


def peak_rss(name: str, root: Path) -> float:
    """Peak RSS in MB of a fresh interpreter after one load_hapt with a
    reader, or one load of a BODY_ACC path."""
    out = subprocess.run(
        [sys.executable, __file__, "--peak-rss", name, str(root)],
        check=True, capture_output=True, text=True).stdout
    return float(out.split()[-1])


def high_water_mb() -> float:
    with contextlib.suppress(OSError):
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    simd, blas = {}, {}
    with contextlib.suppress(Exception):
        from numpy._core import _multiarray_umath as umath
        simd = {"baseline": list(umath.__cpu_baseline__),
                "dispatch": list(umath.__cpu_dispatch__),
                "cpu_features": [name for name, on
                                 in umath.__cpu_features__.items() if on]}
    with contextlib.suppress(Exception):
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_simd": simd,
        "blas": blas,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pairs", type=int, default=15)
    parser.add_argument("--columns", action="store_true",
                        help="time load_body_acc's column decode instead")
    parser.add_argument("--out", default=str(ROOT / "BENCH_ingest.json"))
    parser.add_argument("--peak-rss", nargs=2, metavar=("READER", "DIR"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.peak_rss:
        name, root = args.peak_rss
        if name in BODY_ACC:
            BODY_ACC[name](root)
        else:
            with reader(name):
                dataset.load_hapt(root)
        print(high_water_mb())
        return 0

    if args.columns:
        kind, measure_size = "body_acc_columns", measure_columns
        record = {
            "benchmark": "load_body_acc: the 15 modeled columns of the "
                         "fixed-width X_train.txt decoded alone, against "
                         "load_hapt and select_features",
            "command": "python3 tools/bench_ingest.py --columns --pairs "
                       f"{args.pairs}",
        }
    else:
        kind, measure_size = "load_hapt", measure
        record = {
            "benchmark": "HAPT ingest: load_hapt and the X_train.txt parse, "
                         "fixed-width array reader against np.loadtxt",
            "command": f"python3 tools/bench_ingest.py --pairs {args.pairs}",
            "columns": 561,
        }
    record.update(environment=environment(), sizes={})
    with tempfile.TemporaryDirectory() as tmp:
        for rows, seed in SIZES:
            root = write_hapt_layout(Path(tmp) / str(rows), n_rows=rows,
                                     seed=seed)
            record["sizes"][str(rows)] = measure_size(root, args.pairs)
    out = Path(args.out)
    history = json.loads(out.read_text()) if out.exists() else {}
    history.setdefault(checkout_id(), {})[kind] = record
    text = json.dumps(history, indent=2, sort_keys=True) + "\n"
    out.write_text(text)
    print(text, end="")
    return 0


def checkout_id() -> str:
    """HEAD's short commit id, and "-dirty" if src/ differs from it."""
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                              capture_output=True, text=True).stdout.strip()
    dirty = git("status", "--porcelain", "--", "src")
    return git("rev-parse", "--short", "HEAD") + ("-dirty" if dirty else "")


if __name__ == "__main__":
    sys.exit(main())
