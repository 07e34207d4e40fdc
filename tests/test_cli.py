import json
from pathlib import Path

import pytest

from harboost.cli import main
from harboost.dataset import load_csv
from harboost.synthetic import write_hapt_layout


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_hapt")
    return str(write_hapt_layout(root, n_rows=96, seed=9, total_features=30))


@pytest.fixture(scope="module")
def tiny_csv(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("cli_csv") / "tiny.csv"
    assert main(["ingest", "--data-dir", data_dir, "--out", str(out)]) == 0
    return str(out)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------


def test_ingest_writes_csv_and_summary(capsys, data_dir, tmp_path):
    out = tmp_path / "o.csv"
    code, stdout, _ = run(capsys, ["ingest", "--data-dir", data_dir,
                                   "--out", str(out)])
    assert code == 0
    assert "96 rows, 15 features" in stdout
    assert "dataset digest:" in stdout
    ds = load_csv(out)
    assert ds.n_rows == 96
    assert ds.n_features == 15


def test_ingest_from_csv_same_digest(capsys, tiny_csv, tmp_path):
    out2 = tmp_path / "again.csv"
    code1, stdout1, _ = run(capsys, ["ingest", "--from-csv", tiny_csv,
                                     "--out", str(out2)])
    assert code1 == 0
    digest1 = [l for l in stdout1.splitlines() if "digest" in l]
    code2, stdout2, _ = run(capsys, ["ingest", "--from-csv", str(out2),
                                     "--out", str(tmp_path / "b.csv")])
    digest2 = [l for l in stdout2.splitlines() if "digest" in l]
    assert digest1 == digest2


def test_ingest_empty_dir_exit_2(capsys, tmp_path):
    code, _, stderr = run(capsys, ["ingest", "--data-dir", str(tmp_path),
                                   "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "features.txt" in stderr


def test_env_var_fallback(capsys, data_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("HAPT_DATA_DIR", data_dir)
    out = tmp_path / "env.csv"
    code, _, _ = run(capsys, ["ingest", "--out", str(out)])
    assert code == 0
    assert out.exists()


def test_no_dataset_source_exit_2(capsys, monkeypatch):
    monkeypatch.delenv("HAPT_DATA_DIR", raising=False)
    code, _, stderr = run(capsys, ["summarize"])
    assert code == 2
    assert "HAPT_DATA_DIR" in stderr


# ---------------------------------------------------------------------------
# summarize
# ---------------------------------------------------------------------------


def test_summarize_row_count(capsys, tiny_csv):
    code, stdout, _ = run(capsys, ["summarize", "--from-csv", tiny_csv,
                                   "--format", "csv"])
    assert code == 0
    lines = [l for l in stdout.splitlines() if l]
    assert len(lines) == 1 + 12 * 15


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def test_evaluate_text_headline(capsys, tiny_csv):
    code, stdout, _ = run(capsys, [
        "evaluate", "--from-csv", tiny_csv, "--learner", "knn", "--k", "3",
        "--folds", "4", "--rounds", "2", "--seed", "42",
    ])
    assert code == 0
    assert "accuracy:" in stdout
    assert "micro average:" in stdout
    assert "pred STANDING" in stdout
    assert "class recall" in stdout
    assert "heatmap" in stdout


def test_evaluate_json_byte_identical_and_parallel(capsys, tiny_csv):
    argv = [
        "evaluate", "--from-csv", tiny_csv, "--learner", "naive-bayes",
        "--folds", "4", "--rounds", "2", "--seed", "7", "--format", "json",
    ]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    code3, out3, _ = run(capsys, argv + ["--threads", "2"])
    assert code1 == code2 == code3 == 0
    assert out1 == out2
    r1, r3 = json.loads(out1), json.loads(out3)
    assert r1["result"] == r3["result"]
    assert r1["schema"] == "harboost.report.v1"
    assert r1["config"]["folds"] == 4
    assert r1["dataset"]["digest"] == r3["dataset"]["digest"]


def test_evaluate_validation_lists_all_flags(capsys, tiny_csv):
    code, _, stderr = run(capsys, [
        "evaluate", "--from-csv", tiny_csv, "--folds", "1", "--rounds", "0",
    ])
    assert code == 2
    assert "folds must be >= 2" in stderr
    assert "rounds must be >= 1" in stderr


def test_evaluate_bad_csv_exit_3(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,activity_id,activity_name\nnope,1,WALKING\n")
    code, _, stderr = run(capsys, ["evaluate", "--from-csv", str(bad),
                                   "--folds", "2"])
    assert code == 3
    assert "cannot parse" in stderr


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def test_compare_subset_and_unknown(capsys, tiny_csv):
    code, stdout, _ = run(capsys, [
        "compare", "--from-csv", tiny_csv, "--learners", "knn,lda",
        "--k", "3", "--folds", "3", "--rounds", "1", "--format", "csv",
    ])
    assert code == 0
    table = stdout.split("\n\n")[0].splitlines()
    assert len(table) == 3  # header + 2 measured rows
    assert "dataset_digest," in stdout
    code2, _, stderr = run(capsys, [
        "compare", "--from-csv", tiny_csv, "--learners", "knn,bogus",
    ])
    assert code2 == 2
    assert "valid names" in stderr


def test_compare_default_has_17_rows(capsys, tiny_csv):
    code, stdout, _ = run(capsys, [
        "compare", "--from-csv", tiny_csv, "--k", "3", "--trees", "2",
        "--max-depth", "3", "--folds", "2", "--rounds", "1",
        "--format", "csv",
    ])
    assert code == 0
    table = stdout.split("\n\n")[0].splitlines()
    assert len(table) == 1 + 17  # 12 measured + 5 placeholders
    assert sum(1 for l in table if l.endswith(",false")) == 5


# ---------------------------------------------------------------------------
# train / predict
# ---------------------------------------------------------------------------


def test_train_predict_memorizes_training_csv(capsys, tiny_csv, tmp_path):
    model = tmp_path / "m.json"
    code, stdout, _ = run(capsys, [
        "train", "--from-csv", tiny_csv, "--learner", "knn", "--k", "1",
        "--rounds", "1", "--model-out", str(model),
    ])
    assert code == 0
    preds = tmp_path / "p.csv"
    code, _, _ = run(capsys, ["predict", "--model", str(model),
                              "--from-csv", tiny_csv, "--out", str(preds)])
    assert code == 0
    ds = load_csv(tiny_csv)
    lines = preds.read_text().splitlines()
    assert lines[0] == "row,activity_id,activity_name"
    assert len(lines) == 1 + ds.n_rows
    got = [int(l.split(",")[1]) for l in lines[1:]]
    assert got == ds.labels.tolist()


def test_predict_column_rename_lists_offender(capsys, tiny_csv, tmp_path):
    model = tmp_path / "m.json"
    run(capsys, ["train", "--from-csv", tiny_csv, "--learner", "naive-bayes",
                 "--rounds", "1", "--model-out", str(model)])
    renamed = tmp_path / "renamed.csv"
    text = Path(tiny_csv).read_text().replace("tBodyAcc-Mean-1", "tBodyAcc-Mean-X", 1)
    renamed.write_text(text)
    code, _, stderr = run(capsys, ["predict", "--model", str(model),
                                   "--from-csv", str(renamed)])
    assert code == 2
    assert "tBodyAcc-Mean-1" in stderr
    assert "tBodyAcc-Mean-X" in stderr


def test_predict_accepts_feature_only_csv(capsys, tiny_csv, tmp_path):
    model = tmp_path / "m.json"
    run(capsys, ["train", "--from-csv", tiny_csv, "--learner", "knn",
                 "--k", "1", "--rounds", "1", "--model-out", str(model)])
    bare = tmp_path / "bare.csv"
    lines = Path(tiny_csv).read_text().splitlines()
    stripped = [",".join(l.split(",")[:-2]) for l in lines]
    bare.write_text("\n".join(stripped) + "\n")
    code, stdout, _ = run(capsys, ["predict", "--model", str(model),
                                   "--from-csv", str(bare)])
    assert code == 0
    ds = load_csv(tiny_csv)
    got = [int(l.split(",")[1]) for l in stdout.splitlines()[1:]]
    assert got == ds.labels.tolist()


def test_predict_feature_only_csv_without_rows_exit_3(capsys, tiny_csv,
                                                      tmp_path):
    # a header alone raised IndexError (exit 4)
    model = tmp_path / "m.json"
    run(capsys, ["train", "--from-csv", tiny_csv, "--learner", "knn",
                 "--k", "1", "--rounds", "1", "--model-out", str(model)])
    header = Path(tiny_csv).read_text().splitlines()[0]
    bare = tmp_path / "header-only.csv"
    bare.write_text(",".join(header.split(",")[:-2]) + "\n")
    code, stdout, stderr = run(capsys, ["predict", "--model", str(model),
                                        "--from-csv", str(bare)])
    assert code == 3
    assert stdout == ""
    assert "no data rows" in stderr


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_predict_rejects_non_finite_feature_cells(capsys, tiny_csv, tmp_path,
                                                  cell):
    model = tmp_path / "m.json"
    run(capsys, ["train", "--from-csv", tiny_csv, "--learner", "knn",
                 "--k", "1", "--rounds", "1", "--model-out", str(model)])
    text = Path(tiny_csv).read_text()
    lines = [",".join(l.split(",")[:-2]) for l in text.splitlines()]
    cells = lines[2].split(",")
    cells[4] = cell
    lines[2] = ",".join(cells)
    bare = tmp_path / "bare.csv"
    bare.write_text("\n".join(lines) + "\n")
    code, stdout, stderr = run(capsys, ["predict", "--model", str(model),
                                        "--from-csv", str(bare)])
    assert code == 3
    assert stdout == ""
    assert "non-finite value at row 2, column 5" in stderr


def test_both_dataset_sources_rejected(capsys, data_dir, tiny_csv):
    code, _, stderr = run(capsys, ["summarize", "--data-dir", data_dir,
                                   "--from-csv", tiny_csv])
    assert code == 2
    assert "not both" in stderr


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "harboost" in capsys.readouterr().out


def test_predict_version_mismatch_exit_3(capsys, tiny_csv, tmp_path):
    model = tmp_path / "m.json"
    run(capsys, ["train", "--from-csv", tiny_csv, "--learner", "naive-bayes",
                 "--rounds", "1", "--model-out", str(model)])
    doc = json.loads(model.read_text())
    doc["format_version"] = 2
    model.write_text(json.dumps(doc))
    code, _, stderr = run(capsys, ["predict", "--model", str(model),
                                   "--from-csv", tiny_csv])
    assert code == 3
    assert "format_version" in stderr


def test_save_load_predict_equals_in_memory(capsys, tiny_csv, tmp_path):
    from harboost.boosting import boost_fit, boost_predict_batch
    from harboost.learners import Family, LearnerSpec

    ds = load_csv(tiny_csv)
    spec = LearnerSpec(Family.KNN, k=3, seed=5)
    ens = boost_fit(spec, ds, rounds=3, seed=5)
    model = tmp_path / "m.json"
    code, _, _ = run(capsys, [
        "train", "--from-csv", tiny_csv, "--learner", "knn", "--k", "3",
        "--rounds", "3", "--seed", "5", "--model-out", str(model),
    ])
    assert code == 0
    preds = tmp_path / "p.csv"
    run(capsys, ["predict", "--model", str(model), "--from-csv", tiny_csv,
                 "--out", str(preds)])
    got = [int(l.split(",")[1]) for l in preds.read_text().splitlines()[1:]]
    want = boost_predict_batch(ens, ds.features).tolist()
    assert got == want


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda doc: doc.pop("rounds"), "missing key"),
        (lambda doc: doc.update(class_ids=doc["class_ids"][:3]), "class_ids"),
        # each of these ended in a TypeError or ValueError (exit 4 or 2)
        (lambda doc: doc.update(rounds=5), "not a JSON array"),
        (lambda doc: doc["rounds"].__setitem__(0, "r"), "not a JSON object"),
        (lambda doc: doc["rounds"][0].update(model=7), "not a JSON object"),
        (lambda doc: doc["rounds"][0].update(alpha="high"),
         "not a JSON number"),
        (lambda doc: doc["rounds"][0].update(epsilon=None),
         "not a JSON number"),
        (lambda doc: doc["base_spec"].update(k=3.5), "not a JSON integer"),
        # unsorted class ids raised IndexError in predict (exit 4)
        (lambda doc: doc["class_ids"].reverse(), "not strictly increasing"),
    ],
    ids=["no-rounds", "short-class-ids", "rounds-int", "round-str",
         "model-int", "alpha-str", "epsilon-null", "k-float",
         "class-ids-unsorted"],
)
def test_predict_malformed_model_exit_3(capsys, tiny_csv, tmp_path, edit,
                                        message):
    model = tmp_path / "m.json"
    run(capsys, ["train", "--from-csv", tiny_csv, "--learner", "naive-bayes",
                 "--rounds", "2", "--model-out", str(model)])
    doc = json.loads(model.read_text())
    edit(doc)
    model.write_text(json.dumps(doc))
    code, stdout, stderr = run(capsys, ["predict", "--model", str(model),
                                        "--from-csv", tiny_csv])
    assert code == 3
    assert stdout == ""
    assert message in stderr


@pytest.mark.parametrize(
    "root",
    [
        # a missing third child left its rows' predictions uninitialized
        {"feature": 0, "thresholds": [0.0, 0.5],
         "children": [{"leaf": 1}, {"leaf": 2}]},
        # an out-of-range feature raised IndexError (exit 4)
        {"feature": 15, "thresholds": [0.0],
         "children": [{"leaf": 1}, {"leaf": 2}]},
    ],
)
def test_predict_malformed_tree_exit_3(capsys, tiny_csv, tmp_path, root):
    model = tmp_path / "m.json"
    run(capsys, ["train", "--from-csv", tiny_csv, "--learner", "decision-tree",
                 "--rounds", "1", "--model-out", str(model)])
    doc = json.loads(model.read_text())
    doc["rounds"][0]["model"]["root"] = root
    model.write_text(json.dumps(doc))
    code, stdout, stderr = run(capsys, ["predict", "--model", str(model),
                                        "--from-csv", tiny_csv])
    assert code == 3
    assert stdout == ""
    assert "round 1" in stderr


@pytest.mark.parametrize(
    "learner,edit,message",
    [
        ("naive-bayes",
         lambda m: m.update(means=[row[:-1] for row in m["means"]]),
         "means has shape"),
        ("kernel-naive-bayes",
         lambda m: m.update(bandwidths=[row[:-1] for row in m["bandwidths"]]),
         "bandwidths has shape"),
        ("kernel-naive-bayes", lambda m: m["bandwidths"][0].__setitem__(3, 0),
         "bandwidths holds 0.0, expected finite values above 0"),
        ("kernel-naive-bayes", lambda m: m["sample_weights"][0].pop(),
         "sample_weights[0] has shape"),
        ("linear-regression",
         lambda m: m.update(coef=[row[:-1] for row in m["coef"]]),
         "coef has shape"),
        # a k-NN round's k was coerced with int(): these loaded and voted
        # with k=2, k=3 and k=1, exit 0
        ("knn", lambda m: m.update(k=2.5),
         "model: k is 2.5, not a JSON integer"),
        ("knn", lambda m: m.update(k="3"),
         "model: k is '3', not a JSON integer"),
        ("knn", lambda m: m.update(k=True),
         "model: k is True, not a JSON integer"),
    ],
    ids=["nb-means", "knb-bandwidths", "knb-zero-bandwidth",
         "knb-sample-weights", "linreg-class-column", "knn-k-float",
         "knn-k-str", "knn-k-bool"],
)
def test_predict_malformed_array_payload_exit_3(capsys, tiny_csv, tmp_path,
                                                learner, edit, message):
    # these loaded, then exited 2 on a broadcast error or, for the
    # dropped class column, exited 0 with wrong labels
    model = tmp_path / "m.json"
    run(capsys, ["train", "--from-csv", tiny_csv, "--learner", learner,
                 "--rounds", "1", "--model-out", str(model)])
    doc = json.loads(model.read_text())
    edit(doc["rounds"][0]["model"])
    model.write_text(json.dumps(doc))
    code, stdout, stderr = run(capsys, ["predict", "--model", str(model),
                                        "--from-csv", tiny_csv])
    assert code == 3
    assert stdout == ""
    assert f"round 1: {message}" in stderr
