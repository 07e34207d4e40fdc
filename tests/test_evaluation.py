import numpy as np
import pytest

import reference_matrix as ref
from harboost.dataset import ActivityLabel, Dataset
from harboost.evaluation import (
    PLACEHOLDER_LEARNERS,
    ConfusionMatrix,
    accuracy_binary,
    class_precision,
    class_recall,
    compare,
    confusion_from_predictions,
    cross_validate,
    overall_accuracy,
    report_order,
)
from harboost.learners import ConstantLearner, Family, LearnerSpec


def reference_cm() -> ConfusionMatrix:
    return ConfusionMatrix(np.array(ref.REFERENCE_COUNTS), ref.REFERENCE_ORDER)


# ---------------------------------------------------------------------------
# Binary and matrix metrics
# ---------------------------------------------------------------------------


def test_accuracy_binary_values():
    assert accuracy_binary(10, 10, 0, 0) == 1.0
    assert accuracy_binary(0, 0, 5, 5) == 0.0
    assert accuracy_binary(50, 30, 10, 10) == pytest.approx(0.8)
    with pytest.raises(ValueError):
        accuracy_binary(0, 0, 0, 0)


def test_overall_accuracy_identity_matrix():
    cm = ConfusionMatrix(np.diag([3, 4, 5]), report_order([1, 2, 3]))
    assert overall_accuracy(cm) == 1.0


def test_diagonal_matrix_perfect_precision_recall():
    cm = ConfusionMatrix(np.diag([3, 4, 5]), report_order([1, 2, 3]))
    for label in cm.labels:
        assert class_precision(cm, label) == 1.0
        assert class_recall(cm, label) == 1.0


def test_undefined_precision_is_none_not_zero():
    counts = np.array([[0, 0], [3, 2]])
    cm = ConfusionMatrix(counts, report_order([1, 2]))
    empty_row = cm.labels[0]
    assert class_precision(cm, empty_row) is None
    assert class_recall(cm, empty_row) is not None


def test_class_out_of_range():
    cm = ConfusionMatrix(np.diag([1, 1]), report_order([1, 2]))
    with pytest.raises(ValueError, match="not covered"):
        class_precision(cm, 9)


def test_row_and_column_sums_consistent():
    cm = reference_cm()
    assert cm.counts.sum(axis=0).sum() == cm.counts.sum(axis=1).sum() == cm.total
    assert 0.0 <= overall_accuracy(cm) <= 1.0


# ---------------------------------------------------------------------------
# Reference matrix reproduction
# ---------------------------------------------------------------------------


def test_reference_accuracy_from_counts():
    cm = reference_cm()
    # trace/total of the printed counts; the printed 82.63% headline is
    # not derivable from them (documented inconsistency), but it is well
    # inside half a point
    assert overall_accuracy(cm) * 100 == pytest.approx(82.549, abs=0.01)
    assert overall_accuracy(cm) * 100 == pytest.approx(
        ref.REFERENCE_ACCURACY, abs=0.5
    )


def test_reference_precision_recall_consistent_cells():
    cm = reference_cm()
    for i, label in enumerate(ref.REFERENCE_ORDER):
        p = class_precision(cm, label) * 100
        r = class_recall(cm, label) * 100
        if label not in ref.INCONSISTENT_PRECISION:
            assert p == pytest.approx(ref.REFERENCE_PRECISION[i], abs=0.05), label
        if label not in ref.INCONSISTENT_RECALL:
            assert r == pytest.approx(ref.REFERENCE_RECALL[i], abs=0.05), label


def test_reference_inconsistent_cells_exact_arithmetic():
    cm = reference_cm()
    i = {l: n for n, l in enumerate(ref.REFERENCE_ORDER)}
    counts = np.array(ref.REFERENCE_COUNTS)

    def p(l):
        return class_precision(cm, l)

    def r(l):
        return class_recall(cm, l)

    A = ActivityLabel
    assert p(A.SIT_TO_LIE) == pytest.approx(59 / 84)
    assert p(A.WALKING) == pytest.approx(1182 / 1358)
    assert p(A.WALKING_UPSTAIRS) == pytest.approx(934 / 1045)
    assert r(A.STAND_TO_SIT) == pytest.approx(23 / 47)
    assert r(A.SIT_TO_LIE) == pytest.approx(59 / 76)
    assert r(A.WALKING_DOWNSTAIRS) == pytest.approx(901 / 995)
    # and the printed margins for those cells genuinely sit > 0.05 away
    assert abs(p(A.SIT_TO_LIE) * 100 - 69.88) > 0.05
    assert abs(r(A.WALKING_DOWNSTAIRS) * 100 - 91.29) > 0.05
    # the documented total discrepancy: 7776 printed vs 7767 rows
    assert counts.sum() == 7776
    assert counts[i[A.STANDING]].sum() == 1620
    assert counts[:, i[A.STANDING]].sum() == ref.STANDING_COLUMN_TOTAL


# ---------------------------------------------------------------------------
# confusion_from_predictions
# ---------------------------------------------------------------------------


def test_confusion_orientation_rows_are_predicted():
    true_ids = [1, 1, 2]
    pred_ids = [2, 1, 2]
    cm = confusion_from_predictions(true_ids, pred_ids)
    iw = cm.index_of(1)
    iu = cm.index_of(2)
    assert cm.counts[iu, iw] == 1  # predicted 2, true 1
    assert cm.counts[iw, iu] == 0
    assert cm.counts[iw, iw] == 1
    assert cm.counts[iu, iu] == 1


def test_report_order_follows_display_convention():
    labels = report_order([1, 5, 12])
    assert [int(l) for l in labels] == [5, 12, 1]  # STANDING, LIE_TO_STAND, WALKING


# ---------------------------------------------------------------------------
# cross_validate
# ---------------------------------------------------------------------------


def test_cv_two_fold_hand_example():
    # four rows, two classes; 1-NN with k=1 memorizes its training fold.
    # With 2 folds each test row is predicted by its nearest row in the
    # other fold, which this geometry makes hand-checkable.
    feats = np.array([[0.0], [0.1], [0.8], [0.9]])
    labels = np.array([1, 1, 2, 2])
    ds = Dataset(feats, labels, ("f",))
    res = cross_validate(
        LearnerSpec(Family.KNN, k=1), ds, folds=2, rounds=1, seed=0
    )
    # every row's nearest other-fold neighbor shares its class here
    # (fold assignment is stratified, so each fold holds one of each class)
    assert res.micro_accuracy == 1.0
    assert res.aggregate.total == 4


def test_cv_every_row_predicted_once(blobs4):
    res = cross_validate(
        LearnerSpec(Family.NAIVE_BAYES), blobs4, folds=5, rounds=2, seed=3
    )
    assert res.aggregate.total == blobs4.n_rows
    assert len(res.fold_accuracies) == 5


def test_cv_std_is_sample_std(blobs4):
    res = cross_validate(
        LearnerSpec(Family.DECISION_STUMP), blobs4, folds=4, rounds=2, seed=5
    )
    accs = np.array(res.fold_accuracies)
    assert res.std_accuracy == pytest.approx(accs.std(ddof=1))
    assert res.mean_accuracy == pytest.approx(accs.mean())
    assert res.micro_accuracy == pytest.approx(
        np.trace(res.aggregate.counts) / res.aggregate.total
    )


def test_cv_constant_stub_returns_majority_fraction_exactly():
    labels = np.array([5] * 21 + [1] * 9 + [2] * 12 + [3] * 6)
    feats = np.random.default_rng(30).uniform(-1, 1, (48, 2))
    ds = Dataset(feats, labels, ("a", "b"))
    res = cross_validate(ConstantLearner(), ds, folds=4, rounds=10, seed=7)
    assert res.micro_accuracy == 21 / 48  # exact equality
    cm = res.aggregate
    i5 = cm.index_of(5)
    assert cm.counts[i5].sum() == cm.total  # every prediction is STANDING


def test_cv_serial_equals_parallel(blobs4):
    spec = LearnerSpec(Family.KNN, k=3)
    a = cross_validate(spec, blobs4, folds=4, rounds=3, seed=11, threads=1)
    b = cross_validate(spec, blobs4, folds=4, rounds=3, seed=11, threads=2)
    assert a.fold_accuracies == b.fold_accuracies
    np.testing.assert_array_equal(a.aggregate.counts, b.aggregate.counts)
    assert a.micro_accuracy == b.micro_accuracy


def test_cv_deterministic_across_calls(blobs4):
    spec = LearnerSpec(Family.RANDOM_FOREST, trees=3, max_depth=3, seed=0)
    a = cross_validate(spec, blobs4, folds=3, rounds=2, seed=13)
    b = cross_validate(spec, blobs4, folds=3, rounds=2, seed=13)
    assert a == b


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def test_compare_single_spec_equals_cross_validate(blobs4):
    spec = LearnerSpec(Family.NAIVE_BAYES)
    report = compare([spec], blobs4, folds=3, rounds=2, seed=17,
                     include_placeholders=False)
    direct = cross_validate(spec, blobs4, folds=3, rounds=2, seed=17)
    assert len(report.rows) == 1
    assert report.rows[0].result == direct


def test_compare_reuses_folds_across_specs(blobs4):
    specs = [LearnerSpec(Family.KNN, k=3), LearnerSpec(Family.NAIVE_BAYES)]
    report = compare(specs, blobs4, folds=4, rounds=1, seed=19,
                     include_placeholders=False)
    totals = [r.result.aggregate.total for r in report.rows]
    assert totals == [blobs4.n_rows] * 2
    # the shared assignment is the seed-derived one, so each row equals a
    # standalone cross_validate run with the same seed
    for row in report.rows:
        direct = cross_validate(row.spec, blobs4, folds=4, rounds=1, seed=19)
        assert row.result == direct


def test_compare_sorted_and_placeholders(blobs4):
    specs = [
        LearnerSpec(Family.DECISION_STUMP),
        LearnerSpec(Family.KNN, k=3),
        LearnerSpec(Family.NAIVE_BAYES),
    ]
    report = compare(specs, blobs4, folds=3, rounds=2, seed=23)
    measured = report.measured()
    micro = [r.result.micro_accuracy for r in measured]
    assert micro == sorted(micro, reverse=True)
    names = [r.name for r in report.rows]
    for placeholder in PLACEHOLDER_LEARNERS:
        assert placeholder in names
    assert len(report.rows) == 3 + len(PLACEHOLDER_LEARNERS)
    for row in report.rows[-len(PLACEHOLDER_LEARNERS):]:
        assert not row.implemented


def test_compare_empty_specs_rejected(blobs4):
    with pytest.raises(ValueError, match="no learner"):
        compare([], blobs4, folds=2, rounds=1, seed=0)
