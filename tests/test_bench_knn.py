"""tools/bench_knn.py's record path, with its workers replaced.

A one-pair run summarises sides of one run each, and a record joins the
file's history without losing an earlier one.
"""

from __future__ import annotations

import json
import sys

import pytest

from conftest import load_tool


@pytest.fixture(scope="module")
def bench_knn():
    return load_tool("bench_knn")


def test_one_pair_records_join_the_history(bench_knn, monkeypatch, tmp_path):
    def run_worker(kind, src, data, env=None):
        seconds = 1.0 if src == bench_knn.ROOT / "src" else 2.0
        return {f"{kind}_s": seconds}

    monkeypatch.setattr(bench_knn, "run_worker", run_worker)
    record = bench_knn.measure(tmp_path / "baseline", 1, tmp_path)
    assert record["neighbor_table_s"]["table_s"] == {
        "change": {"median": 1.0, "quartiles": [1.0, 1.0], "runs": 1},
        "baseline": {"median": 2.0, "quartiles": [2.0, 2.0], "runs": 1},
        "pairs_won_by_change": 1,
    }
    fixed = record["headline"]["fixed_malloc_thresholds"]
    assert fixed["evaluate_repeated"] == {
        "evaluate_s": {"change": {"median": 1.0, "quartiles": [1.0, 1.0],
                                  "runs": 1}}}

    # the harness the tool imports, writing under set checkout ids
    pairs = sys.modules[bench_knn.keep.__module__]
    ids = iter(["07dac97", "1234abc", "1234abc"])
    monkeypatch.setattr(pairs, "checkout_id", lambda: next(ids))
    out = tmp_path / "BENCH_knn.json"
    bench_knn.keep(out, "knn", record)
    bench_knn.keep(out, "knn", {"runs": 2})
    assert json.loads(out.read_text()) == {"07dac97": {"knn": record},
                                           "1234abc": {"knn": {"runs": 2}}}
    bench_knn.keep(out, "knn", {"runs": 3})
    assert json.loads(out.read_text())["1234abc"] == {"knn": {"runs": 3}}
    assert json.loads(out.read_text())["07dac97"] == {"knn": record}
