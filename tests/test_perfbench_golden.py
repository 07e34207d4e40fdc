"""The benchmark's golden digests, checked with the tier-1 tests.

perfbench/golden.json records, per seed, digests of what the headline
pipeline (ingest, evaluate, train, predict) and the learner comparison
write at the benchmark's full task sizes. perfbench checks them only
when the benchmark runs; here three of those runs are repeated: the
inputs are generated by perfbench/setup_inputs.py's main, the commands
run once through cli.main by perfbench/run.py's run_iteration, and the
digests are taken by its read_outputs. Nothing under perfbench/ is
written; the inputs and outputs go to a temporary directory.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from harboost import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOAD_OF_TASK = {"headline": "headline-pipeline", "compare": "compare-serial"}


@pytest.fixture
def bench(monkeypatch):
    # run.py pins the BLAS threads in os.environ when imported; the
    # monkeypatch undoes that after the test
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(name, "1")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import setup_inputs

    return run, setup_inputs


@pytest.mark.parametrize("task, seed",
                         [("headline", 0), ("headline", 1), ("compare", 0)])
def test_outputs_match_golden_digests(bench, tmp_path, task, seed):
    run, setup_inputs = bench
    golden = json.loads((PERFBENCH / "golden.json").read_text())
    workload = run.WORKLOADS[WORKLOAD_OF_TASK[task]]
    size = run.SIZES["full"][task]
    assert golden["sizes"][task] == dataclasses.asdict(size)
    assert setup_inputs.main([task, str(size.rows), str(seed),
                              str(tmp_path)]) == 0
    paths = run.Paths.under(str(tmp_path))
    checks = run.Checks()
    it = run.run_iteration(cli, workload, size, paths, checks)
    assert checks.failures == []
    digests, _ = run.read_outputs(workload, paths, it)
    assert digests == golden["digests"][str(seed)][task]
