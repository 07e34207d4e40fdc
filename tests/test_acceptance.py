"""Acceptance suite: one test group per shipping criterion.

Each criterion prints a PASS line when it holds (run pytest with -s or
-rA to see them). Criteria that need the real HAPT dataset skip with
instructions when HAPT_DATA_DIR is unset; everything else runs on
synthetic data bundled with the tests.
"""

import json
import math

import numpy as np
import pytest

import oracles
import reference_matrix as ref
from conftest import requires_hapt
from harboost.boosting import (
    EPSILON_CLAMP,
    boost_fit,
    boost_predict_batch,
    samme_alpha,
)
from harboost.cli import main as cli_main
from harboost.dataset import ActivityLabel, Dataset, save_csv
from harboost.evaluation import (
    ConfusionMatrix,
    class_precision,
    class_recall,
    cross_validate,
    overall_accuracy,
)
from harboost.learners import ConstantLearner, Family, LearnerSpec
from harboost.modelfile import load_model, save_model
from harboost.numerics import class_stats, solve_spd
from harboost.rng import SplitMix64
from harboost.synthetic import make_activity_dataset


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS  {detail}")


# ---------------------------------------------------------------------------
# Criterion 1: headline reproduction on the HAPT Train partition
# ---------------------------------------------------------------------------


@requires_hapt
def test_criterion_1_headline_reproduction(hapt_dataset):
    target, tol = 82.63, 2.5
    micros, stds = [], []
    for seed in (1, 2, 3):
        res = cross_validate(
            LearnerSpec(Family.KNN, k=12), hapt_dataset,
            folds=10, rounds=10, seed=seed, threads=2,
        )
        micros.append(res.micro_accuracy * 100)
        stds.append(res.std_accuracy * 100)
    for seed, micro, std in zip((1, 2, 3), micros, stds):
        assert abs(micro - target) <= tol, (
            f"seed {seed}: micro {micro:.2f}% outside {target} +/- {tol}"
        )
        assert std <= 3.0, f"seed {seed}: fold std {std:.2f}% > 3 points"
    report(
        "criterion 1 (headline reproduction)",
        "micro accuracies "
        + ", ".join(f"{m:.2f}%" for m in micros)
        + f" vs target {target} +/- {tol}; fold stds "
        + ", ".join(f"{s:.2f}%" for s in stds),
    )


# ---------------------------------------------------------------------------
# Criterion 2: metric exactness on the bundled reference matrix
# ---------------------------------------------------------------------------


def _reference_cm() -> ConfusionMatrix:
    return ConfusionMatrix(np.array(ref.REFERENCE_COUNTS), ref.REFERENCE_ORDER)


def test_criterion_2_metric_exactness_consistent_cells():
    """Every printed percentage that is arithmetically consistent with the
    printed counts is reproduced within +/- 0.05 points; the six
    documented misprints are pinned to their exact count-derived values
    instead (see reference_matrix.py)."""
    cm = _reference_cm()
    checked = 0
    for i, label in enumerate(ref.REFERENCE_ORDER):
        p = class_precision(cm, label) * 100
        r = class_recall(cm, label) * 100
        if label in ref.INCONSISTENT_PRECISION:
            row = np.array(ref.REFERENCE_COUNTS)[i]
            assert p == pytest.approx(100 * row[i] / row.sum(), abs=1e-9)
        else:
            assert p == pytest.approx(ref.REFERENCE_PRECISION[i], abs=0.05)
            checked += 1
        if label in ref.INCONSISTENT_RECALL:
            col = np.array(ref.REFERENCE_COUNTS)[:, i]
            assert r == pytest.approx(100 * col[i] / col.sum(), abs=1e-9)
        else:
            assert r == pytest.approx(ref.REFERENCE_RECALL[i], abs=0.05)
            checked += 1
    acc = overall_accuracy(cm) * 100
    assert acc == pytest.approx(6419 / 7776 * 100, abs=1e-9)
    assert acc == pytest.approx(ref.REFERENCE_ACCURACY, abs=0.5)
    report(
        "criterion 2 (metric exactness)",
        f"{checked}/24 printed margins consistent and matched at 0.05pt; "
        f"6 documented misprints pinned to exact count arithmetic; "
        f"accuracy {acc:.2f}% vs printed {ref.REFERENCE_ACCURACY}%",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the published matrix is internally inconsistent: its true-column "
        "sums total 7776 for a 7767-row dataset, three printed precision "
        "and three printed recall margins differ from the count-derived "
        "values by 0.09 to 0.74 points, and trace/total of the printed "
        "counts is 82.55 vs the printed 82.63; reproducing every printed "
        "value within 0.05 points from these counts is arithmetically "
        "impossible (full analysis in the project notes)"
    ),
)
def test_criterion_2_all_printed_values_strict():
    """The criterion exactly as stated: every printed value at 0.05pt."""
    cm = _reference_cm()
    assert overall_accuracy(cm) * 100 == pytest.approx(
        ref.REFERENCE_ACCURACY, abs=0.05
    )
    for i, label in enumerate(ref.REFERENCE_ORDER):
        assert class_precision(cm, label) * 100 == pytest.approx(
            ref.REFERENCE_PRECISION[i], abs=0.05
        )
        assert class_recall(cm, label) * 100 == pytest.approx(
            ref.REFERENCE_RECALL[i], abs=0.05
        )


# ---------------------------------------------------------------------------
# Criterion 3: majority baseline through the CV path
# ---------------------------------------------------------------------------


@requires_hapt
def test_criterion_3_majority_baseline(hapt_dataset):
    res = cross_validate(
        ConstantLearner(), hapt_dataset, folds=10, rounds=10, seed=5
    )
    assert res.micro_accuracy == 1423 / 7767
    cm = res.aggregate
    std_row = cm.index_of(ActivityLabel.STANDING)
    assert cm.counts[std_row].sum() == cm.total
    report(
        "criterion 3 (majority baseline)",
        f"constant predictor micro accuracy == 1423/7767 = "
        f"{100 * 1423 / 7767:.2f}% exactly",
    )


# ---------------------------------------------------------------------------
# Criterion 4: ordering of boosted learners on the HAPT task
# ---------------------------------------------------------------------------


@requires_hapt
def test_criterion_4_ordering(hapt_dataset):
    families = [
        Family.KNN,
        Family.NAIVE_BAYES,
        Family.KERNEL_NAIVE_BAYES,
        Family.LDA,
        Family.LINEAR_REGRESSION_OVR,
        Family.VECTOR_LINEAR_REGRESSION,
    ]
    micro = {}
    for fam in families:
        res = cross_validate(
            LearnerSpec(fam, k=12), hapt_dataset,
            folds=10, rounds=10, seed=1, threads=2,
        )
        micro[fam] = res.micro_accuracy
    for fam in families[1:]:
        assert micro[Family.KNN] > micro[fam], (
            f"boosted k-NN ({micro[Family.KNN]:.4f}) does not exceed "
            f"{fam.value} ({micro[fam]:.4f})"
        )
    report(
        "criterion 4 (ordering)",
        "; ".join(f"{f.value}={100 * micro[f]:.2f}%" for f in families),
    )


# ---------------------------------------------------------------------------
# Criterion 5: oracle equivalence for every family and the numerics core
# ---------------------------------------------------------------------------


def _oracle_battery(family, seed):
    """>= 200 queries against the family's brute-force oracle."""
    ds = make_activity_dataset(50, 4, 3, seed=seed, spread=0.35)
    g = np.random.default_rng(seed + 1000)
    w = g.uniform(0.05, 1.0, ds.n_rows)
    w = w / w.sum()
    queries = g.uniform(-1, 1, size=(200, 3))
    X, y = ds.features, ds.labels
    if family is Family.KNN:
        model = LearnerSpec(family, k=7).fit_weighted(ds, w)
        want = [oracles.knn_predict(q, X, y, w, 7) for q in queries]
    elif family is Family.DECISION_STUMP:
        model = LearnerSpec(family).fit_weighted(ds, w)
        t = oracles.grow_tree(X.tolist(), y.tolist(), w.tolist(), 1, 1e-4)
        want = [oracles.tree_predict(t, q) for q in queries]
    elif family is Family.DECISION_TREE:
        model = LearnerSpec(family, max_depth=5).fit_weighted(ds, w)
        t = oracles.grow_tree(X.tolist(), y.tolist(), w.tolist(), 5, 1e-4)
        want = [oracles.tree_predict(t, q) for q in queries]
    elif family is Family.MULTIWAY_TREE:
        model = LearnerSpec(family, max_depth=3, bins=4).fit_weighted(ds, w)
        t = oracles.grow_tree(X.tolist(), y.tolist(), w.tolist(), 3, 1e-4,
                              mode="multiway", bins=4)
        want = [oracles.tree_predict(t, q) for q in queries]
    elif family is Family.RANDOM_TREE:
        model = LearnerSpec(family, max_depth=4, subset_size=2,
                            seed=seed).fit_weighted(ds, w)
        t = oracles.grow_tree(X.tolist(), y.tolist(), w.tolist(), 4, 1e-4,
                              prng=SplitMix64(seed), subset_size=2)
        want = [oracles.tree_predict(t, q) for q in queries]
    elif family is Family.RANDOM_FOREST:
        model = LearnerSpec(family, trees=5, max_depth=3, subset_size=2,
                            seed=seed).fit_weighted(ds, w)
        trees = oracles.forest_fit(X.tolist(), y.tolist(), w.tolist(),
                                   5, 3, 1e-4, 2, seed)
        want = [oracles.forest_predict(trees, q) for q in queries]
    elif family is Family.NAIVE_BAYES:
        model = LearnerSpec(family).fit_weighted(ds, w)
        want = [oracles.gaussian_nb_predict(q, X, y, w) for q in queries]
    elif family is Family.KERNEL_NAIVE_BAYES:
        model = LearnerSpec(family).fit_weighted(ds, w)
        want = [oracles.kernel_nb_predict(q, X, y, w) for q in queries]
    elif family is Family.LDA:
        model = LearnerSpec(family).fit_weighted(ds, w)
        want = [oracles.lda_predict(q, X, y, w) for q in queries]
    elif family is Family.QDA:
        model = LearnerSpec(family).fit_weighted(ds, w)
        want = [oracles.qda_predict(q, X, y, w) for q in queries]
    else:  # both regression families share the oracle
        model = LearnerSpec(family).fit_weighted(ds, w)
        want = [oracles.linreg_predict(q, X, y, w) for q in queries]
    got = model.predict_batch(queries).tolist()
    mismatches = sum(1 for a, b in zip(got, want) if a != b)
    return len(queries), mismatches


@pytest.mark.parametrize("family", list(Family))
def test_criterion_5_oracle_equivalence(family):
    total_queries, total_mismatches = 0, 0
    for seed in (51, 52):
        n, bad = _oracle_battery(family, seed)
        total_queries += n
        total_mismatches += bad
    assert total_mismatches == 0, (
        f"{family.value}: {total_mismatches}/{total_queries} oracle mismatches"
    )
    report(
        f"criterion 5 ({family.value})",
        f"{total_queries} oracle queries, zero mismatches",
    )


def test_criterion_5_numerics_oracles():
    g = np.random.default_rng(55)
    xs = g.normal(size=(40, 3))
    w = g.uniform(0.05, 1.0, 40)
    total = sum(w.tolist())
    mean = [sum(w[i] * xs[i, j] for i in range(40)) / total for j in range(3)]
    one_class = Dataset(xs, np.ones(40, dtype=np.int64), ("a", "b", "c"))
    _, _, (stats,) = class_stats(one_class, w)
    assert np.abs(stats.mean - np.array(mean)).max() <= 1e-8
    cov = np.zeros((3, 3))
    for a in range(3):
        for b in range(3):
            cov[a, b] = sum(
                w[i] * (xs[i, a] - mean[a]) * (xs[i, b] - mean[b])
                for i in range(40)
            ) / total
    scatter = (stats.centred * stats.weights[:, None]).T @ stats.centred
    assert np.abs(scatter / stats.mass - cov).max() <= 1e-8
    m = g.normal(size=(5, 5))
    spd = m @ m.T + np.eye(5)
    rhs = g.normal(size=(5, 3))
    x = solve_spd(spd, rhs)
    assert np.abs(spd @ x - rhs).max() <= 1e-8 * np.abs(rhs).max()
    assert np.abs(x - np.linalg.solve(spd, rhs)).max() <= 1e-8
    report("criterion 5 (numerics)",
           "class_stats mean/covariance and SPD solve match direct "
           "formulas at 1e-8")


# ---------------------------------------------------------------------------
# Criterion 6: boosting invariant suite
# ---------------------------------------------------------------------------


def test_criterion_6_boosting_invariants():
    assert samme_alpha(0.5, 12) == pytest.approx(math.log(11), abs=1e-12)
    for eps in (0.05, 0.2, 0.45):
        assert samme_alpha(eps, 2) == pytest.approx(
            math.log((1 - eps) / eps), abs=1e-12
        )
    ds = make_activity_dataset(120, 6, 3, seed=61, spread=0.55)
    ens = boost_fit(LearnerSpec(Family.DECISION_STUMP), ds, rounds=15, seed=6)
    updated = [r for r in ens.rounds if r.weight_sum is not None]
    assert updated
    for r in updated:
        assert abs(r.weight_sum - 1.0) <= 1e-10
        assert r.min_weight > 0
    for r in ens.rounds:
        assert r.alpha > 0
        assert r.epsilon < 1 - 1 / ens.num_classes or r.epsilon == EPSILON_CLAMP
    report(
        "criterion 6 (boosting invariants)",
        f"{len(updated)} weight updates normalized at 1e-10; all alphas "
        f"positive; alpha(1/2, 12) = ln 11 at 1e-12; K=2 reduces to the "
        f"two-class rule",
    )


# ---------------------------------------------------------------------------
# Criterion 7: determinism and persistence
# ---------------------------------------------------------------------------


def test_criterion_7_determinism_and_persistence(tmp_path, capsys):
    ds = make_activity_dataset(200, 12, 15, seed=71, spread=0.25)
    csv_path = tmp_path / "ds.csv"
    save_csv(ds, csv_path)
    argv = [
        "evaluate", "--from-csv", str(csv_path), "--learner", "knn",
        "--k", "5", "--folds", "5", "--rounds", "3", "--seed", "9",
        "--format", "json",
    ]
    outs = []
    for extra in ([], [], ["--threads", "2"]):
        assert cli_main(argv + extra) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["result"] == json.loads(outs[2])["result"]

    big = make_activity_dataset(500, 12, 15, seed=72, spread=0.3)
    ens = boost_fit(LearnerSpec(Family.KNN, k=5), big, rounds=3, seed=11)
    path = tmp_path / "model.json"
    save_model(path, ens, big)
    loaded = load_model(path)
    queries = np.random.default_rng(73).uniform(-1, 1, (500, 15))
    in_memory = boost_predict_batch(ens, queries)
    reloaded = boost_predict_batch(loaded.ensemble, queries)
    mismatches = int((in_memory != reloaded).sum())
    assert mismatches == 0
    report(
        "criterion 7 (determinism & persistence)",
        "byte-identical JSON across reruns; parallel == serial; "
        "save/load/predict identical on 500 rows",
    )


# ---------------------------------------------------------------------------
# Criterion 8: structural identities
# ---------------------------------------------------------------------------


def test_criterion_8_structural_identities():
    g = np.random.default_rng(81)
    # OVR vs joint least squares
    ds = make_activity_dataset(80, 5, 3, seed=81, spread=0.3)
    w = g.uniform(0.05, 1.0, ds.n_rows)
    queries = g.uniform(-1, 1, (300, 3))
    ovr = LearnerSpec(Family.LINEAR_REGRESSION_OVR).fit_weighted(ds, w)
    vec = LearnerSpec(Family.VECTOR_LINEAR_REGRESSION).fit_weighted(ds, w)
    np.testing.assert_array_equal(
        ovr.predict_batch(queries), vec.predict_batch(queries)
    )
    # QDA == LDA when class covariances are equal by construction
    cloud = 0.2 * g.normal(size=(60, 2))
    feats = np.clip(np.vstack([cloud + [0.4, 0.1], cloud - [0.4, 0.1]]), -1, 1)
    eq = Dataset(feats, np.array([1] * 60 + [2] * 60), ("a", "b"))
    q2 = g.uniform(-1, 1, (300, 2))
    np.testing.assert_array_equal(
        LearnerSpec(Family.LDA).fit_weighted(eq, np.ones(120)).predict_batch(q2),
        LearnerSpec(Family.QDA).fit_weighted(eq, np.ones(120)).predict_batch(q2),
    )
    # stump accuracy never exceeds the two largest class masses
    for seed in (82, 83):
        dsb = make_activity_dataset(70, 6, 2, seed=seed, spread=0.5)
        wb = np.random.default_rng(seed).uniform(0.01, 1.0, dsb.n_rows)
        wb = wb / wb.sum()
        stump = LearnerSpec(Family.DECISION_STUMP).fit_weighted(dsb, wb)
        acc = wb[stump.predict_batch(dsb.features) == dsb.labels].sum()
        top2 = sorted(
            (wb[dsb.labels == c].sum() for c in np.unique(dsb.labels)),
            reverse=True,
        )[:2]
        assert acc <= sum(top2) + 1e-12
    # 1-NN memorizes contradiction-free data
    clean = make_activity_dataset(100, 8, 3, seed=84, spread=0.3)
    one_nn = LearnerSpec(Family.KNN, k=1).fit_weighted(
        clean, np.ones(clean.n_rows)
    )
    assert (one_nn.predict_batch(clean.features) == clean.labels).all()
    report(
        "criterion 8 (structural identities)",
        "OVR == joint regression; QDA == LDA under equal covariances; "
        "stump bound holds; 1-NN memorizes",
    )
