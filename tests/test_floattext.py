"""floattext.repr_rows against the repr it stands for.

The dataset digest, feature CSVs and model files write each float as
repr does, through repr_rows. Its array path must give repr's bytes for
every value it accepts, and hand every other row to repr itself.

The pins below hash the outputs of a dataset read from "% .7e" text,
whose 8-digit values all take the array path; they were recorded with
a per-value repr. To print the digests of the current code, run:

    PYTHONPATH=src python tests/test_floattext.py
"""

import hashlib
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

from harboost import floattext
from harboost.cli import main
from harboost.dataset import dataset_digest, load_body_acc, save_csv
from harboost.floattext import repr_rows
from harboost.synthetic import write_hapt_layout

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def expected(table: np.ndarray) -> list[str]:
    return [" ".join(map(repr, row)) for row in table.tolist()]


@st.composite
def decimals(draw):
    """A value of 1-17 significant digits at a decimal exponent in
    -12..20, of either sign."""
    digits = draw(st.integers(1, 17))
    mantissa = draw(st.integers(10 ** (digits - 1), 10 ** digits - 1))
    exponent = draw(st.integers(-12, 20))
    sign = draw(st.sampled_from(["", "-"]))
    return float(f"{sign}{mantissa}e{exponent - digits + 1}")


@st.composite
def tables(draw):
    width = draw(st.integers(1, 4))
    cells = draw(st.lists(decimals(), min_size=width, max_size=12 * width))
    return np.array(cells[:len(cells) // width * width]).reshape(-1, width)


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(tables())
def test_repr_rows_is_repr(table):
    assert list(repr_rows(table)) == expected(table)


EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
    1e-05, 0.0001, 1.5e-05, 0.00015, 1e-08, 1e-09, 9.99999999e-09,
    float(np.nextafter(1e-08, 0.0)), 1e15, 1e16, 1e14, 999999999999999.0,
    123456789012345.6, 9.9999999999999995, 99.99999999999999,
    float(np.nextafter(10.0, 0.0)), float(np.nextafter(1.0, 2.0)),
    100.0, 1.0, -1.0, 0.1, 0.3, 1 / 3, 2 / 3, 1e22, 1e23,
    1.7976931348623157e308, math.nan, math.inf, -math.inf,
]


def test_repr_rows_edge_values():
    column = np.array(EDGES).reshape(-1, 1)
    assert list(repr_rows(column)) == expected(column)
    # one row of all: it holds values off the array path, so repr
    # writes it whole
    row = column.reshape(1, -1)
    assert list(repr_rows(row)) == expected(row)


def test_repr_rows_formats_in_blocks_of_any_shape(monkeypatch):
    monkeypatch.setattr(floattext, "_BLOCK_CELLS", 7)
    values = np.random.default_rng(5).uniform(-2, 2, 60).round(6)
    for shape in [(60, 1), (20, 3), (6, 10), (1, 60), (0, 4), (3, 0)]:
        table = values[:math.prod(shape)].reshape(shape)
        assert list(repr_rows(table)) == expected(table)


def _outputs(root: Path) -> dict[str, str]:
    """SHA-256 of the feature CSV, the digest, and a k-NN and a kernel
    naive Bayes model file of a dataset read from "% .7e" text."""
    write_hapt_layout(root / "hapt", n_rows=90, seed=13, total_features=20,
                      spread=0.6)
    ds = load_body_acc(root / "hapt")
    save_csv(ds, root / "data.csv")
    out = {"csv": hashlib.sha256((root / "data.csv").read_bytes()).hexdigest(),
           "digest": dataset_digest(ds)}
    for learner in ("knn", "kernel-naive-bayes"):
        model = root / f"{learner}.json"
        assert main(["train", "--data-dir", str(root / "hapt"), "--learner",
                     learner, "--k", "4", "--rounds", "3", "--seed", "2",
                     "--model-out", str(model)]) == 0
        out[learner] = hashlib.sha256(model.read_bytes()).hexdigest()
    return out


PINNED = {
    "csv": "4eb428cf8d52197618dd3715ac7de57d8c27dc07fa5844f4dfa6f8ee9a5519b1",
    "digest": "381ebe70d0ceb8ca5ed365bfc77b69b1da7b7c5b5516e095df4876f7e1f3f201",
    "knn": "02e87b7ec53d5f4ae4f82392a98df3b91914ba695b27e4c4cdcf581442c44e3f",
    "kernel-naive-bayes":
        "cb65a5c269986b1cbe73c854ee086a63c223d892c06a53b4619bc430b310f886",
}


def test_outputs_of_seven_digit_text_are_pinned(tmp_path):
    assert _outputs(tmp_path) == PINNED


def test_seven_digit_text_takes_the_array_path(tmp_path, monkeypatch):
    calls = []

    def counted(value):
        calls.append(value)
        return repr(value)

    write_hapt_layout(tmp_path, n_rows=90, seed=13, spread=0.6)
    features = load_body_acc(tmp_path).features
    monkeypatch.setattr(floattext, "repr", counted, raising=False)
    assert list(repr_rows(features)) == expected(features)
    assert calls == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in _outputs(Path(tmp)).items():
            print(f'    "{name}": "{digest}",')
