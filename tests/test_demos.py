"""Demos 01-05 run end to end on their synthetic fallback data.

Each demo runs in this process through runpy, as `python demos/NN_*.py`
would run it, with HAPT_DATA_DIR unset. Demo 06 needs the real HAPT
data and is not run here.
"""

import runpy
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"

#: A line each demo's output must contain.
EXPECTED = {
    "01_dataset_tour": "per-activity summary",
    "02_base_learners": "vector-linear-regression",
    "03_boosting_rounds": "requested 12 rounds",
    "04_cross_validation": "class precision",
    "05_learner_comparison": "not implemented",
}


def test_every_synthetic_demo_is_listed():
    names = {p.stem for p in DEMO_DIR.glob("*.py")}
    assert names - set(EXPECTED) == {"06_hapt_benchmark"}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_demo_runs(name, monkeypatch, capsys):
    monkeypatch.delenv("HAPT_DATA_DIR", raising=False)
    runpy.run_path(str(DEMO_DIR / f"{name}.py"), run_name="__main__")
    assert EXPECTED[name] in capsys.readouterr().out
