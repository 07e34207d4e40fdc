import numpy as np
import pytest

from harboost.dataset import (
    BODY_ACC_FEATURES,
    ActivityLabel,
    DataError,
    Dataset,
    dataset_digest,
    load_csv,
    load_hapt,
    save_csv,
    select_features,
    stratified_folds,
    summarize_by_activity,
)
from harboost.synthetic import make_activity_dataset

from conftest import requires_hapt


def small_ds():
    feats = np.array([[0.2, -0.5], [0.4, 0.1], [0.9, 0.9], [-0.3, 0.0]])
    labels = np.array([5, 5, 1, 1])
    return Dataset(feats, labels, ("a", "b"))


# ---------------------------------------------------------------------------
# Dataset type invariants
# ---------------------------------------------------------------------------


def test_dataset_is_immutable():
    ds = small_ds()
    with pytest.raises(ValueError):
        ds.features[0, 0] = 9.0
    with pytest.raises(ValueError):
        ds.labels[0] = 2


def test_dataset_rejects_count_mismatch():
    with pytest.raises(DataError, match="row/label count mismatch"):
        Dataset(np.zeros((3, 2)), np.array([1, 2]), ("a", "b"))


def test_dataset_rejects_nonfinite_and_bad_labels():
    with pytest.raises(DataError, match="non-finite"):
        Dataset(np.array([[0.0], [np.nan]]), np.array([1, 2]), ("a",))
    with pytest.raises(DataError, match="outside 1..12"):
        Dataset(np.zeros((2, 1)), np.array([1, 13]), ("a",))


# ---------------------------------------------------------------------------
# HAPT layout loading (synthetic on-disk fixture)
# ---------------------------------------------------------------------------


def test_load_hapt_layout_roundtrip(synthetic_hapt_dir):
    ds = load_hapt(synthetic_hapt_dir)
    assert ds.n_rows == 120
    assert ds.n_features == 561
    assert ds.feature_names[:3] == BODY_ACC_FEATURES[:3]
    sel = select_features(ds, BODY_ACC_FEATURES)
    assert sel.n_features == 15
    assert sel.feature_names == BODY_ACC_FEATURES
    assert sel.n_rows == ds.n_rows


def test_load_hapt_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError, match="features.txt"):
        load_hapt(tmp_path)


def test_load_hapt_row_label_mismatch(tmp_path, synthetic_hapt_dir):
    import shutil

    root = tmp_path / "broken"
    shutil.copytree(synthetic_hapt_dir, root)
    y = (root / "Train" / "y_train.txt").read_text().splitlines()
    (root / "Train" / "y_train.txt").write_text("\n".join(y[:-1]) + "\n")
    with pytest.raises(DataError, match="row/label count mismatch"):
        load_hapt(root)


def _set_cell(lines, i, j, value):
    cells = lines[i].split()
    cells[j] = value
    lines[i] = " ".join(cells)


def _cut_line(lines, i, n):
    lines[i] = " ".join(lines[i].split()[:n])


def _blank_first_then_nan(lines):
    lines.insert(0, "")
    _set_cell(lines, 4, 2, "nan")  # file line 5, the 4th matrix row


def test_load_hapt_reports_file_line_column(tmp_path, synthetic_hapt_dir,
                                            capsys):
    import shutil

    from harboost import cli

    cases = {
        "bad-cell": (lambda ls: _set_cell(ls, 2, 4, "oops"),
                     r"X_train.txt: line 3, column 5: "
                     r"cannot parse 'oops' as a number"),
        "ragged-row": (lambda ls: _cut_line(ls, 3, 560),
                       r"X_train.txt: line 4 has 560 values, expected 561"),
        "nan-after-blank-line": (
            _blank_first_then_nan,
            r"X_train.txt: non-finite value at row 4, column 3"),
        # float() reads 1_0, loadtxt does not: its own words, still exit 3
        "loadtxt-only-reject": (lambda ls: _set_cell(ls, 0, 0, "1_0"),
                                r"X_train.txt: .*'1_0'"),
        "not-utf8": (lambda ls: _set_cell(ls, 1, 0, "\udce9"),
                     r"X_train.txt: line 2 is not UTF-8 text"),
        # '#' starts no comment: the matrix is numbers only
        "comment-line": (lambda ls: ls.insert(0, "# note"),
                         r"X_train.txt: line 1, column 1: "
                         r"cannot parse '#' as a number"),
    }
    for name, (edit, message) in cases.items():
        root = tmp_path / name
        shutil.copytree(synthetic_hapt_dir, root)
        x_path = root / "Train" / "X_train.txt"
        lines = x_path.read_text().splitlines()
        edit(lines)
        x_path.write_text("\n".join(lines) + "\n", errors="surrogateescape")
        with pytest.raises(DataError, match=message):
            load_hapt(root)
        assert cli.main(["ingest", "--data-dir", str(root),
                         "--out", str(tmp_path / "out.csv")]) == 3, name
        assert "internal error" not in capsys.readouterr().err


@pytest.mark.parametrize("text", ["", "\n  \n\t\n"],
                         ids=["empty", "blank-lines"])
def test_load_hapt_rejects_matrix_without_rows(tmp_path, synthetic_hapt_dir,
                                               capsys, text):
    import shutil
    import warnings

    from harboost import cli

    root = tmp_path / "empty"
    shutil.copytree(synthetic_hapt_dir, root)
    (root / "Train" / "X_train.txt").write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["ingest", "--data-dir", str(root),
                         "--out", str(tmp_path / "out.csv")])
    assert code == 3
    assert caught == []
    assert "X_train.txt: no data rows" in capsys.readouterr().err


def test_load_hapt_rejects_label_out_of_range(tmp_path, synthetic_hapt_dir):
    import shutil

    root = tmp_path / "badlabel"
    shutil.copytree(synthetic_hapt_dir, root)
    y_path = root / "Train" / "y_train.txt"
    lines = y_path.read_text().splitlines()
    lines[5] = "13"
    y_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="outside 1..12"):
        load_hapt(root)


def test_load_hapt_rejects_out_of_range_value(tmp_path, synthetic_hapt_dir):
    import shutil

    root = tmp_path / "range"
    shutil.copytree(synthetic_hapt_dir, root)
    x_path = root / "Train" / "X_train.txt"
    lines = x_path.read_text().splitlines()
    cells = lines[0].split()
    cells[0] = "1.5"
    lines[0] = " ".join(cells)
    x_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=r"outside the normalized range"):
        load_hapt(root)


# ---------------------------------------------------------------------------
# select_features
# ---------------------------------------------------------------------------


def test_select_features_identity():
    ds = small_ds()
    out = select_features(ds, ds.feature_names)
    assert out.feature_names == ds.feature_names
    np.testing.assert_array_equal(out.features, ds.features)
    np.testing.assert_array_equal(out.labels, ds.labels)


def test_select_features_is_pure_projection():
    ds = make_activity_dataset(40, 4, 6, seed=9)
    names = [ds.feature_names[4], ds.feature_names[1]]
    out = select_features(ds, names)
    assert out.feature_names == tuple(names)
    np.testing.assert_array_equal(out.features[:, 0], ds.features[:, 4])
    np.testing.assert_array_equal(out.features[:, 1], ds.features[:, 1])


def test_select_features_duplicate_and_unknown():
    ds = small_ds()
    with pytest.raises(DataError, match="duplicate"):
        select_features(ds, ["a", "a"])
    with pytest.raises(DataError, match="unknown feature"):
        select_features(ds, ["a", "zzz"])


# ---------------------------------------------------------------------------
# summarize_by_activity
# ---------------------------------------------------------------------------


def test_summary_single_row():
    ds = Dataset(np.array([[0.25, -0.5]]), np.array([3]), ("a", "b"))
    rows = summarize_by_activity(ds)
    assert len(rows) == 2
    r = rows[0]
    assert r.activity == ActivityLabel.WALKING_DOWNSTAIRS
    assert r.mean == r.max == r.min == 0.25
    assert r.std == 0.0
    assert r.median_abs_dev == 0.0


def test_summary_two_rows_hand_values():
    ds = Dataset(np.array([[0.2], [0.4]]), np.array([1, 1]), ("a",))
    (r,) = summarize_by_activity(ds)
    assert r.mean == pytest.approx(0.3)
    assert r.max == 0.4
    assert r.min == 0.2


def test_summary_row_count_and_order(blobs12):
    rows = summarize_by_activity(blobs12)
    assert len(rows) == 12 * 15
    order = [(int(r.activity), r.feature) for r in rows]
    assert order == sorted(
        order, key=lambda t: (t[0], blobs12.feature_names.index(t[1]))
    )


def test_summary_matches_bruteforce_oracle(blobs4):
    rows = summarize_by_activity(blobs4)
    for r in rows:
        j = blobs4.feature_names.index(r.feature)
        col = sorted(
            blobs4.features[i, j]
            for i in range(blobs4.n_rows)
            if blobs4.labels[i] == int(r.activity)
        )
        n = len(col)
        mean = sum(col) / n
        std = (sum((v - mean) ** 2 for v in col) / n) ** 0.5
        med = (col[n // 2] if n % 2 else (col[n // 2 - 1] + col[n // 2]) / 2)
        dev = sorted(abs(v - med) for v in col)
        mad = (dev[n // 2] if n % 2 else (dev[n // 2 - 1] + dev[n // 2]) / 2)
        assert r.mean == pytest.approx(mean, rel=1e-12, abs=1e-15)
        assert r.std == pytest.approx(std, rel=1e-12, abs=1e-15)
        assert r.median_abs_dev == pytest.approx(mad, rel=1e-12, abs=1e-15)
        assert r.max == max(col)
        assert r.min == min(col)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------


def test_csv_round_trip_bit_identical(tmp_path, blobs4):
    path = tmp_path / "out.csv"
    save_csv(blobs4, path)
    back = load_csv(path)
    assert back.feature_names == blobs4.feature_names
    np.testing.assert_array_equal(back.features, blobs4.features)
    np.testing.assert_array_equal(back.labels, blobs4.labels)
    assert dataset_digest(back) == dataset_digest(blobs4)
    # second generation is byte-identical
    path2 = tmp_path / "out2.csv"
    save_csv(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_csv_header_contract(tmp_path, blobs4):
    path = tmp_path / "o.csv"
    save_csv(blobs4, path)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(
        [*blobs4.feature_names, "activity_id", "activity_name"]
    )


def test_csv_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(DataError, match="activity_id,activity_name"):
        load_csv(p)


# ---------------------------------------------------------------------------
# Stratified folds
# ---------------------------------------------------------------------------


def test_fold_sizes_7767_into_10():
    labels = np.concatenate([
        np.full(n, i + 1)
        for i, n in enumerate(
            [1226, 1073, 987, 1293, 1423, 1413, 47, 23, 75, 60, 90, 57]
        )
    ])
    assert labels.size == 7767
    ds = Dataset(np.zeros((7767, 1)), labels, ("f",))
    fa = stratified_folds(ds, 10, seed=4)
    sizes = sorted(fa.fold_sizes())
    assert sizes == [776] * 3 + [777] * 7


def test_folds_stratified_within_one(blobs12):
    fa = stratified_folds(blobs12, 7, seed=3)
    for label in np.unique(blobs12.labels):
        per_fold = [
            int(((blobs12.labels == label) & (fa.fold_of_row == f)).sum())
            for f in range(7)
        ]
        assert max(per_fold) - min(per_fold) <= 1


def test_folds_global_within_one(blobs12):
    fa = stratified_folds(blobs12, 9, seed=12)
    sizes = fa.fold_sizes()
    assert max(sizes) - min(sizes) <= 1
    assert sum(sizes) == blobs12.n_rows


def test_folds_deterministic_and_seed_sensitive(blobs12):
    a = stratified_folds(blobs12, 5, seed=1)
    b = stratified_folds(blobs12, 5, seed=1)
    c = stratified_folds(blobs12, 5, seed=2)
    np.testing.assert_array_equal(a.fold_of_row, b.fold_of_row)
    assert not np.array_equal(a.fold_of_row, c.fold_of_row)


def test_leave_one_out_and_bad_k(blobs4):
    fa = stratified_folds(blobs4, blobs4.n_rows, seed=0)
    assert fa.fold_sizes() == [1] * blobs4.n_rows
    with pytest.raises(ValueError, match=">= 2"):
        stratified_folds(blobs4, 1, seed=0)
    with pytest.raises(ValueError, match="exceeds"):
        stratified_folds(blobs4, blobs4.n_rows + 1, seed=0)


def test_small_class_spread_over_distinct_folds():
    labels = np.array([1] * 20 + [2] * 3)
    ds = Dataset(np.zeros((23, 1)), labels, ("f",))
    fa = stratified_folds(ds, 5, seed=8)
    rare = fa.fold_of_row[labels == 2]
    assert len(set(rare.tolist())) == 3


# ---------------------------------------------------------------------------
# Real-data checks
# ---------------------------------------------------------------------------


@requires_hapt
def test_hapt_train_partition_shape(hapt_dataset):
    assert hapt_dataset.n_rows == 7767
    assert hapt_dataset.n_features == 15
    assert hapt_dataset.feature_names == BODY_ACC_FEATURES


@requires_hapt
def test_hapt_standing_count(hapt_dataset):
    counts = hapt_dataset.class_counts()
    assert counts[ActivityLabel.STANDING] == 1423
