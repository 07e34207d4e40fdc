"""tools/bench_ingest.py still runs against the reader it measures.

The tool patches e7text.read_e7 and calls dataset's loaders directly, so
a refactor of either can break it without failing any other test. Its
measure asserts each side's readings bit for bit against the second
side's load.
"""

from __future__ import annotations

import pytest

from harboost.synthetic import write_hapt_layout

from conftest import load_tool


@pytest.fixture(scope="module")
def bench_ingest():
    return load_tool("bench_ingest")


def test_bench_ingest_measures_both_readers(bench_ingest, tmp_path):
    root = write_hapt_layout(tmp_path / "hapt", n_rows=40, seed=3)
    for _, sides in bench_ingest.KINDS.values():
        record = bench_ingest.measure(root, 1, sides)
        first = next(iter(sides))
        for timing in (record["load_s"], record["parse_s"]):
            assert set(timing) == {*sides, f"pairs_won_by_{first}"}
            assert timing[first]["runs"] == 1
        assert set(record["peak_rss_mb"]) == set(sides)
        assert all(mb > 0 for mb in record["peak_rss_mb"].values())
