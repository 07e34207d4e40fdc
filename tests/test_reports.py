import json

import numpy as np

from harboost.dataset import dataset_digest
from harboost.evaluation import ConfusionMatrix, compare, cross_validate, report_order
from harboost.learners import Family, LearnerSpec
from harboost.reports import (
    comparison_payload,
    evaluation_payload,
    headline,
    pct,
    render,
    render_heatmap,
    render_matrix_text,
    summary_payload,
    to_json,
)
from harboost.dataset import summarize_by_activity
from harboost.synthetic import make_activity_dataset


def test_pct_formats_and_undefined_sentinel():
    assert pct(0.8263) == "82.63%"
    assert pct(1.0) == "100.00%"
    assert pct(None) == "—"


def test_headline_mirrors_reference_format(blobs4):
    res = cross_validate(LearnerSpec(Family.KNN, k=3), blobs4,
                         folds=4, rounds=2, seed=1)
    line = headline(res)
    assert line.startswith("accuracy: ")
    assert "+/-" in line
    assert "(micro average: " in line


def test_matrix_text_includes_margins():
    counts = np.array([[5, 1], [0, 0]])
    cm = ConfusionMatrix(counts, report_order([1, 2]))
    text = render_matrix_text(cm)
    assert "class precision" in text
    assert "class recall" in text
    assert "—" in text  # empty predicted row renders the undefined sentinel


def test_heatmap_scales_and_labels():
    counts = np.array([[9, 0], [1, 9]])
    cm = ConfusionMatrix(counts, report_order([1, 2]))
    text = render_heatmap(cm)
    assert "scale:" in text
    assert text.count("@") >= 2


def test_evaluation_payload_schema(blobs4):
    res = cross_validate(LearnerSpec(Family.NAIVE_BAYES), blobs4,
                         folds=3, rounds=1, seed=2)
    payload = evaluation_payload(res, {"folds": 3}, blobs4)
    assert payload["schema"] == "harboost.report.v1"
    assert payload["dataset"]["digest"] == dataset_digest(blobs4)
    r = payload["result"]
    assert set(r["confusion"]) == {"order", "class_ids", "counts"}
    assert len(r["fold_accuracies"]) == 3
    # canonical serialization round-trips through json byte-identically
    assert to_json(payload) == to_json(json.loads(to_json(payload)))


def test_evaluation_text_and_csv_render(blobs4):
    res = cross_validate(LearnerSpec(Family.KNN, k=3), blobs4,
                         folds=3, rounds=1, seed=3)
    cfg = {"folds": 3, "learner": "knn"}
    payload = evaluation_payload(res, cfg, blobs4)
    text = render(payload, "text")
    assert "configuration:" in text
    assert dataset_digest(blobs4) in text
    csv_text = render(payload, "csv")
    assert csv_text.splitlines()[0].startswith(",true ")
    assert "micro_accuracy," in csv_text


def test_comparison_payload_and_text(blobs4):
    report = compare(
        [LearnerSpec(Family.KNN, k=3), LearnerSpec(Family.DECISION_STUMP)],
        blobs4, folds=3, rounds=1, seed=4,
    )
    payload = comparison_payload(report, {"folds": 3}, blobs4)
    assert len(payload["rows"]) == 2 + 5
    implemented = [r for r in payload["rows"] if r["implemented"]]
    assert len(implemented) == 2
    text = render(payload, "text")
    assert "not implemented" in text
    assert "k-NN" in text


def test_summary_csv_shape():
    ds = make_activity_dataset(24, 3, 2, seed=5)
    rows = summarize_by_activity(ds)
    csv_text = render(summary_payload(rows, {}, ds), "csv")
    lines = csv_text.strip().splitlines()
    assert lines[0].startswith("activity_id,activity,feature,")
    assert len(lines) == 1 + 3 * 2
