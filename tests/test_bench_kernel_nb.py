"""tools/bench_kernel_nb.py's record path, with its workers replaced,
and its counting worker run for real on a small input."""

from __future__ import annotations

import json
import sys

import pytest

from conftest import load_tool
from harboost import dataset
from harboost.synthetic import make_activity_dataset


@pytest.fixture(scope="module")
def bench():
    return load_tool("bench_kernel_nb")


def test_one_pair_records_join_the_history(bench, monkeypatch, tmp_path):
    def run_worker(kind, src, data, count=False):
        if count:
            return {"queries": 10, "decided_by_bounds": 0.9,
                    "exact_cells_left": 0.05}
        return {"predict_s": 1.0 if src == bench.ROOT / "src" else 4.0}

    monkeypatch.setattr(bench, "run_worker", run_worker)
    record = bench.measure(tmp_path / "baseline", 1, tmp_path)
    for kind in bench.KINDS:
        assert record[kind]["predict_s"] == {
            "change": {"median": 1.0, "quartiles": [1.0, 1.0], "runs": 1},
            "baseline": {"median": 4.0, "quartiles": [4.0, 4.0], "runs": 1},
            "pairs_won_by_change": 1,
            "speedup": 4.0,
        }
        assert record[kind]["work"]["decided_by_bounds"] == 0.9

    pairs = sys.modules[bench.keep.__module__]
    monkeypatch.setattr(pairs, "checkout_id", lambda: "1234abc")
    out = tmp_path / "BENCH_kernel_nb.json"
    out.write_text(json.dumps({"07dac97": {"knn": {"runs": 1}}}))
    bench.keep(out, "kernel_nb", record)
    assert json.loads(out.read_text()) == {
        "07dac97": {"knn": {"runs": 1}}, "1234abc": {"kernel_nb": record}}


def test_counting_worker_reads_the_bounded_path(bench, monkeypatch, tmp_path):
    from harboost import boosting
    from harboost.learners import bayes

    # the worker patches these in place; monkeypatch restores them
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(boosting, "_scorer", boosting._scorer)
    monkeypatch.setattr(bayes, "_class_scores", bayes._class_scores)
    monkeypatch.setattr(bayes._Grid, "argmax", bayes._Grid.argmax)
    monkeypatch.setattr(bayes.KernelNbModel, "log_scores",
                        bayes.KernelNbModel.log_scores)
    monkeypatch.setattr(bench, "CV_FOLDS", 2)
    (tmp_path / "cv").mkdir()
    dataset.save_csv(make_activity_dataset(400, 4, 3, seed=3, spread=0.4),
                     tmp_path / "cv" / "features.csv")
    work = bench.worker("cv", str(bench.ROOT / "src"), str(tmp_path),
                        count=True)
    # each fold's 200 test rows once and its 200 training rows each round
    assert work["queries"] >= 2 * (200 + 200)
    assert work["queries"] % 200 == 0
    assert 0 < work["decided_by_bounds"] <= 1
    assert 0 < work["exact_cells_left"] < 1
    # with no grid every query and every cell is scored exactly, and a
    # query counts once, not once per class
    monkeypatch.setattr(bayes._Grid, "of", lambda samples, X: None)
    work = bench.worker("cv", str(bench.ROOT / "src"), str(tmp_path),
                        count=True)
    assert work["decided_by_bounds"] == 0
    assert work["exact_cells_left"] == 1
