"""The timing harness of the tools/bench_*.py scripts.

Two sides of one measurement run in alternating pairs, the order
swapping each pair, because a shared machine's speed drifts within
minutes; a script that times two source trees runs each measurement in
a fresh interpreter of its own --worker mode (run_worker). A side's
runs are summarised by their median and quartiles, and a comparison
counts the pairs the first side won. A record notes
the machine it ran on and is kept in a JSON file of every earlier
record, as its kind under the checkout's short commit id from git,
with "-dirty" added when src/ differs from that commit; it replaces
only an earlier record of the same kind under the same id.

Importing this module pins BLAS to one thread, in this process and in
the processes it starts, so import it before numpy.
"""

from __future__ import annotations

import os

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})

import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def alternating(pairs: int, sides) -> list[list]:
    """The run order of each pair: sides as given, then reversed, in turn."""
    sides = list(sides)
    return [sides if i % 2 == 0 else sides[::-1] for i in range(pairs)]


def summary(values: list[float]) -> dict:
    """Median and quartiles of any number of runs, one included."""
    q1, median, q3 = np.percentile(values, [25, 50, 75]).tolist()
    return {"median": median, "quartiles": [q1, q3], "runs": len(values)}


def compare(runs: dict[str, list[float]]) -> dict:
    """Each side's summary and, of two sides, the pairs the first won:
    those in which it took less."""
    out = {side: summary(values) for side, values in runs.items()}
    if len(runs) == 2:
        (first, a), (_, b) = runs.items()
        out[f"pairs_won_by_{first}"] = sum(x < y for x, y in zip(a, b))
    return out


def run_worker(script: str, kind: str, src: Path, data: Path,
               count: bool = False, env=None) -> dict:
    """The JSON last line that `script --worker kind src data`, with
    --count if count, prints in a fresh interpreter whose environment
    is this one's with env added."""
    out = subprocess.run(
        [sys.executable, script, "--worker", kind, str(src), str(data),
         *(["--count"] if count else [])],
        check=True, capture_output=True, text=True,
        env={**os.environ, **(env or {})}).stdout
    return json.loads(out.splitlines()[-1])


def environment() -> dict:
    """The machine: CPU, numpy's SIMD baseline, dispatch targets and the
    CPU features it found, and the BLAS build."""
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


def checkout_id() -> str:
    """HEAD's short commit id, and "-dirty" if src/ differs from it."""
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                              capture_output=True, text=True).stdout.strip()
    dirty = git("status", "--porcelain", "--", "src")
    return git("rev-parse", "--short", "HEAD") + ("-dirty" if dirty else "")


def keep(out: Path, kind: str, record: dict) -> str:
    """Store record as kind under checkout_id() in the history at out,
    replacing only an earlier record of that kind under that id, and
    return the file's new text."""
    history = json.loads(out.read_text()) if out.exists() else {}
    history.setdefault(checkout_id(), {})[kind] = record
    text = json.dumps(history, indent=2, sort_keys=True) + "\n"
    out.write_text(text)
    return text
