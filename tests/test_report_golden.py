"""SHA-256 pins of the CLI's report, model and prediction bytes.

Every report format (text, csv, json) of summarize, evaluate and compare,
one model file and one prediction CSV are hashed on a small synthetic
dataset. The cases cover an undefined-precision row ("—"), the
placeholder rows of a full comparison, a --learners subset, and
ridge/subset_size both unset and set. The CSV is passed by a relative
path from the test's working directory, so config.source is the same
on every machine.

To print the digests of the current code (after an intended output
change), run:

    PYTHONPATH=src python tests/test_report_golden.py
"""

import hashlib
import os
import tempfile

import pytest

from harboost.cli import main
from harboost.dataset import save_csv
from harboost.synthetic import make_activity_dataset

CSV = "data.csv"
OUT = "out"
RUN = ["--from-csv", CSV, "--folds", "3", "--rounds", "2", "--seed", "4"]
SET = ["--ridge", "0.001", "--subset-size", "2", "--max-depth", "4",
       "--trees", "3"]


def _commands() -> dict[str, list[str]]:
    cmds = {}
    for fmt in ("text", "csv", "json"):
        out = ["--format", fmt, "--out", OUT]
        cmds[f"summarize-{fmt}"] = ["summarize", "--from-csv", CSV, *out]
        # one boosting round of stumps leaves most classes unpredicted,
        # so their class precision is undefined
        cmds[f"evaluate-stump-{fmt}"] = [
            "evaluate", "--learner", "decision-stump", *RUN[:-2],
            "--rounds", "1", *out]
        cmds[f"evaluate-knn-{fmt}"] = [
            "evaluate", "--learner", "knn", "--k", "3", *RUN, *out]
        cmds[f"compare-all-{fmt}"] = ["compare", *RUN, *SET, *out]
        cmds[f"compare-knn-lda-{fmt}"] = [
            "compare", "--learners", "knn,lda", *RUN, *out]
    cmds["train-random-tree"] = [
        "train", "--from-csv", CSV, "--learner", "random-tree",
        "--subset-size", "2", "--rounds", "3", "--seed", "5",
        "--model-out", OUT]
    return cmds


EXPECTED = {
    "compare-all-csv": "0fd9f8b2dfd353b55f79e8ca503acd80b71585d4a1fd3fe041f41adc73988c59",
    "compare-all-json": "bc44ec6264abdb5dc479c172b6b1d193c399e99ce574288c76f2557be7590b07",
    "compare-all-text": "47c79c89a8790532b66ae12da71a0f30ac062e6fd6b056e1967e38cdf193f8de",
    "compare-knn-lda-csv": "4f6352d5eeafc12f856b225ca86c0eb0b3433c96c1515e30c73c6d9d7a2cab5b",
    "compare-knn-lda-json": "f2126970a24e7a957ea1280009628fff8bfdc7ce8e2598a6df9511c99958188e",
    "compare-knn-lda-text": "3e564406f8e541ff908c4d7ab342a382d641c7bbc3f89e0b359c123e5b667a89",
    "evaluate-knn-csv": "d3683e7b639b5107eddcc5d61e683c59be1fea2144df4497158107b8d3090002",
    "evaluate-knn-json": "2b1d007d31c1df59cb95ad19c71334c595a0412556a4ca419e34c80365b547f8",
    "evaluate-knn-text": "8c08297bb6c1d048b716ac7d962d761484c63ebc4a0b57a1efe060ed238d5fd7",
    "evaluate-stump-csv": "a7c407f4f3863450f2242031d4a042837445e397519b85f7f36102fbfffe74f4",
    "evaluate-stump-json": "38f58d24791a8779830b125a30a4ae6c1d9ffcce4c80881d7732f192351f747a",
    "evaluate-stump-text": "54755fed0d453dca61e751518cc8a40b9073922cba49a7837cc2fde4657be88e",
    "predict-random-tree": "e769470ef2b3c4f50697197c1bc9afb314660df9822b58c978f1215eb360f26b",
    "summarize-csv": "de0d15428ae673592c4e4484e27e1c4a3965d18076b17457aba212027c9d2679",
    "summarize-json": "063c981f43f6b63b16340ac4314f783d255869daf2197044b49ef5e394709d7f",
    "summarize-text": "5c708db178b758a3610617dcaeae139299d43329932b8eb2d82b6b3b46e8c296",
    "train-random-tree": "9f552809abfc108cd65bbdbb051d486b52cc4f0d791a6d8a2aaa4cf1861b2903",
}


def _digest(argv) -> str:
    if os.path.exists(OUT):
        os.remove(OUT)
    assert main(argv) == 0
    with open(OUT, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _all_digests() -> dict[str, str]:
    """Digest of every output, written in the working directory."""
    save_csv(make_activity_dataset(72, 12, 15, seed=21, spread=0.45), CSV)
    digests = {name: _digest(argv) for name, argv in _commands().items()}
    os.replace(OUT, "model.json")
    digests["predict-random-tree"] = _digest(
        ["predict", "--model", "model.json", "--from-csv", CSV, "--out", OUT])
    return digests


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp_path_factory.mktemp("golden"))
        return _all_digests()


@pytest.mark.parametrize("name", sorted([*_commands(), "predict-random-tree"]))
def test_output_bytes_are_pinned(digests, name):
    assert digests[name] == EXPECTED[name]


if __name__ == "__main__":
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        got = _all_digests()
        os.chdir(here)
    for name in sorted(got):
        print(f'    "{name}": "{got[name]}",')
