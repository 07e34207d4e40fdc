"""tools/bench_ingest.py still runs against the reader it measures.

The tool patches e7text.read_e7 and calls dataset's loaders directly, so
a refactor of either can break it without failing any other test. Its
measure and measure_columns assert bit identity with np.loadtxt.
"""

from __future__ import annotations

import importlib.util
import os
from pathlib import Path
from unittest import mock

import pytest

from harboost.synthetic import write_hapt_layout

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_ingest.py"


@pytest.fixture(scope="module")
def bench_ingest():
    spec = importlib.util.spec_from_file_location("bench_ingest", TOOL)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):  # it pins the BLAS threads
        spec.loader.exec_module(module)
    return module


def test_bench_ingest_measures_both_readers(bench_ingest, tmp_path):
    root = write_hapt_layout(tmp_path / "hapt", n_rows=40, seed=3)
    full = bench_ingest.measure(root, 1)
    assert set(full["load_hapt_s"]) == set(bench_ingest.READERS)
    assert all(mb > 0 for mb in full["peak_rss_mb"].values())
    columns = bench_ingest.measure_columns(root, 1)
    assert set(columns["load_body_acc_s"]) == set(bench_ingest.BODY_ACC)
    assert all(mb > 0 for mb in columns["peak_rss_mb"].values())
