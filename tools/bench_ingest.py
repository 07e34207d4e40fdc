"""Time HAPT ingest with the fixed-width reader against np.loadtxt.

    python3 tools/bench_ingest.py [--pairs N] [--columns] [--out BENCH_ingest.json]

For each size (2000 and 7767 rows of write_hapt_layout's 561 columns)
the script times two sides in alternating pairs (tools/pairs.py):

  * load_hapt with e7text.read_e7 (the array reader) and with it
    turned off, so that dataset._table parses with np.loadtxt as before;
  * the parse of X_train.txt alone: read_e7 against np.loadtxt.

With --columns the sides are load_body_acc, which decodes only the 15
modeled columns, against load_hapt and select_features, which decode
all 561 and keep 15; and read_e7 of those columns against read_e7 of
all of them.

Every reading is checked bit for bit against the second side's load.
Peak memory is taken in a fresh interpreter per side and size, after
one load: VmHWM where /proc has it, which exec resets, else ru_maxrss
(which keeps the high-water mark of the process that forked it). A
size's record holds, for the load and the parse, each side's median
and quartiles and the pairs the first side won, and each side's peak
memory. The record, "load_hapt" or "body_acc_columns", joins the
file's earlier records (tools/pairs.py). Run it from the root of a
source checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

from pairs import ROOT, alternating, compare, environment, keep

sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from harboost import dataset, e7text  # noqa: E402
from harboost.synthetic import write_hapt_layout  # noqa: E402

#: (rows, write_hapt_layout seed) of each measured file
SIZES = ((2000, 1), (7767, 2))


def _load_hapt_by_loadtxt(root) -> dataset.Dataset:
    with mock.patch.object(e7text, "read_e7", lambda path: None):
        return dataset.load_hapt(root)


#: each record kind's description and two sides: name -> (load of a
#: HAPT root, parse of X_train.txt given the modeled columns and width)
KINDS = {
    "load_hapt": (
        "HAPT ingest: load_hapt and the X_train.txt parse, fixed-width "
        "array reader against np.loadtxt", {
            "array": (dataset.load_hapt,
                      lambda path, columns, width: e7text.read_e7(path)),
            "loadtxt": (_load_hapt_by_loadtxt,
                        lambda path, columns, width: np.loadtxt(path, ndmin=2)),
        }),
    "body_acc_columns": (
        "load_body_acc: the 15 modeled columns of the fixed-width "
        "X_train.txt decoded alone, against load_hapt and select_features", {
            "columns": (dataset.load_body_acc, e7text.read_e7),
            "full": (lambda root: dataset.select_features(
                         dataset.load_hapt(root), dataset.BODY_ACC_FEATURES),
                     lambda path, columns, width:
                         e7text.read_e7(path)[:, columns]),
        }),
}
#: every side's load, by name
LOADS = {name: load for _, sides in KINDS.values()
         for name, (load, _) in sides.items()}


def timed(fn, *args) -> tuple[float, object]:
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def measure(root: Path, pairs: int, sides: dict) -> dict:
    x_path = root / "Train" / "X_train.txt"
    names = dataset._parse_feature_names(root / "features.txt")
    columns = [names.index(n) for n in dataset.BODY_ACC_FEATURES]
    reference = list(sides.values())[-1][0]
    expected = reference(root).features.view(np.int64)
    load = {name: [] for name in sides}
    text = {name: [] for name in sides}
    for order in alternating(pairs, sides):
        for name in order:
            load_side, parse_side = sides[name]
            seconds, ds = timed(load_side, root)
            load[name].append(seconds)
            assert np.array_equal(ds.features.view(np.int64), expected)
            seconds, x = timed(parse_side, x_path, columns, len(names))
            text[name].append(seconds)
            assert np.array_equal(x.view(np.int64), expected)
    return {
        "file_bytes": x_path.stat().st_size,
        "load_s": compare(load),
        "parse_s": compare(text),
        "peak_rss_mb": {name: peak_rss(name, root) for name in sides},
    }


def peak_rss(name: str, root: Path) -> float:
    """Peak RSS in MB of a fresh interpreter after one load of a side."""
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pairs", type=int, default=15)
    parser.add_argument("--columns", action="store_true",
                        help="time load_body_acc's column decode instead")
    parser.add_argument("--out", default=str(ROOT / "BENCH_ingest.json"))
    parser.add_argument("--peak-rss", nargs=2, metavar=("SIDE", "DIR"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.peak_rss:
        name, root = args.peak_rss
        LOADS[name](root)
        print(high_water_mb())
        return 0

    kind = "body_acc_columns" if args.columns else "load_hapt"
    benchmark, sides = KINDS[kind]
    flag = " --columns" if args.columns else ""
    record = {
        "benchmark": benchmark,
        "command": f"python3 tools/bench_ingest.py{flag} --pairs {args.pairs}",
        "columns": 561,
        "environment": environment(),
        "sizes": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        for rows, seed in SIZES:
            root = write_hapt_layout(Path(tmp) / str(rows), n_rows=rows,
                                     seed=seed)
            record["sizes"][str(rows)] = measure(root, args.pairs, sides)
    print(keep(Path(args.out), kind, record), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
