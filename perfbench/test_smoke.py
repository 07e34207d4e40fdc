"""Smoke test of the benchmark at tiny size.

    python3 -m pytest perfbench/test_smoke.py

Every workload runs for about a second with --tiny: untraced, all in
one command, and traced, one at a time. The test checks the result
line's shape, and that the metrics emitted are exactly the ones
BENCHMARK.json declares, with their units. It checks that every metric
the benchmark was specified with is declared with a direction, or is
listed as dropped with a reason in metrics.json. And it checks that the
benchmark fails when harboost is missing or its outputs are wrong.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
DROPPED = json.loads((HERE / "metrics.json").read_text())["dropped"]

FAMILIES = (
    "knn", "decision-stump", "decision-tree", "multiway-tree", "random-tree",
    "random-forest", "naive-bayes", "kernel-naive-bayes", "lda", "qda",
    "linear-regression", "vector-linear-regression",
)
#: Every metric the benchmark is specified to report.
NAMED_END_TO_END = (
    "setup_s", "wall_s", "cv_rows_per_s", "ingest_rows_per_s", "train_s",
    "predict_rows_per_s", "peak_rss_mb", "cv_micro_accuracy", "ops_failed_ratio",
)
NAMED_PER_LAYER = (
    "dataset.load_hapt_s", "dataset.save_csv_s", "dataset.load_csv_s",
    "dataset.dataset_digest_s", "dataset.dataset_digest_calls",
    "dataset.stratified_folds_s",
    *(f"learners.{f}.{m}" for f in FAMILIES for m in ("fit_s", "predict_s")),
    "learners.knn.neighbor_table_s", "learners.knn.neighbor_table_calls",
    "learners.knn.vote_scores_s", "rng.next_uint64_calls",
    "boosting.boost_fit_s", "boosting.boost_fit_self_s",
    "boosting.boost_predict_batch_s", "boosting.rounds_kept_ratio",
    "evaluation.cross_validate_s", "evaluation.cross_validate_self_s",
    "evaluation.confusion_from_predictions_s", "evaluation.fold_busy_ratio",
    "reports.payload_s", "reports.render_s", "reports.bytes_out",
    "modelfile.save_model_s", "modelfile.load_model_s", "modelfile.bytes",
    *(f"cli.{c}_s" for c in ("ingest", "evaluate", "compare", "train", "predict")),
    "cli.self_s", "trace.overhead_ratio",
)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    return result


def test_one_command_runs_every_workload():
    result = last_result(bench(ROOT, "--workload", "all", "--seed", "3",
                               "--seconds", "1", "--trace", "0", "--tiny"))
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {
        f"{w}.{m['name']}": m["unit"]
        for w in WORKLOADS for m in BENCH["end_to_end"]
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    result = last_result(bench(ROOT, "--workload", workload, "--seed", "3",
                               "--seconds", "1", "--trace", "1", "--tiny"))
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in BENCH["per_layer"]}


def test_every_named_metric_is_declared_or_dropped():
    declared = {m["name"]: m for m in BENCH["end_to_end"] + BENCH["per_layer"]}
    for name in NAMED_END_TO_END + NAMED_PER_LAYER:
        if name in declared:
            assert declared[name]["better"] in ("higher", "lower"), name
            assert declared[name]["unit"], name
        else:
            assert DROPPED.get(name), f"{name} is neither declared nor dropped"
    for name in DROPPED:
        assert name not in declared, f"{name} is both declared and dropped"


def test_fails_without_harboost_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_wrong_predictions_fail_the_run(monkeypatch, capsys):
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import run
    from harboost import cli

    def constant_labels(ens, X):
        return np.full(len(X), ens.class_ids[0])

    monkeypatch.setattr(cli, "boost_predict_batch", constant_labels)
    code = run.main(["--workload", "headline-pipeline", "--seed", "3",
                     "--seconds", "1", "--trace", "0", "--tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1
