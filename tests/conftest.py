import importlib.util
import os
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from harboost.dataset import BODY_ACC_FEATURES, load_hapt, select_features
from harboost.synthetic import make_activity_dataset, write_hapt_layout

HAPT_ENV = "HAPT_DATA_DIR"
TOOLS = Path(__file__).resolve().parent.parent / "tools"


def hapt_available() -> bool:
    return bool(os.environ.get(HAPT_ENV))


requires_hapt = pytest.mark.skipif(
    not hapt_available(),
    reason=f"set {HAPT_ENV} to the HAPT directory to run real-data tests",
)


def load_tool(name: str):
    """tools/<name>.py as a module. tools/ is on sys.path while it loads,
    for the harness the tools share, and os.environ is restored after
    it, since the harness pins the BLAS threads."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ), \
            mock.patch.object(sys, "path", [str(TOOLS), *sys.path]):
        spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def hapt_dataset():
    """The real HAPT Train partition, restricted to the 15 modeled features."""
    path = os.environ.get(HAPT_ENV)
    if not path:
        pytest.skip(f"set {HAPT_ENV} to the HAPT directory")
    return select_features(load_hapt(path), BODY_ACC_FEATURES)


@pytest.fixture(scope="session")
def blobs12():
    """Separable 12-class synthetic dataset at the modeled dimensionality."""
    return make_activity_dataset(600, 12, 15, seed=20240101, spread=0.10)


@pytest.fixture(scope="session")
def blobs4():
    """Small 4-class 3-feature dataset for hand-checkable tests."""
    return make_activity_dataset(80, 4, 3, seed=77, spread=0.15)


@pytest.fixture(scope="session")
def synthetic_hapt_dir(tmp_path_factory):
    """An on-disk synthetic dataset in the exact HAPT layout (561 columns)."""
    root = tmp_path_factory.mktemp("hapt_layout")
    return write_hapt_layout(root, n_rows=120, seed=515, total_features=561)


@pytest.fixture()
def rng_queries():
    def make(n, d, seed=0, low=-1.0, high=1.0):
        g = np.random.default_rng(seed)
        return g.uniform(low, high, size=(n, d))

    return make
