import math

import numpy as np
import pytest

from harboost.numerics import (
    BANDWIDTH_FLOOR,
    SingularMatrixError,
    auto_ridge,
    cholesky_factor,
    gaussian_logpdf,
    silverman_bandwidth,
    solve_spd,
    weighted_covariance,
    weighted_mean,
)


def test_weighted_mean_uniform_symmetry():
    xs = np.array([[0.0, 0.0], [2.0, 2.0]])
    np.testing.assert_allclose(weighted_mean(xs, [1.0, 1.0]), [1.0, 1.0])


def test_weighted_mean_degenerate_weight():
    xs = np.array([[5.0], [9.0]])
    np.testing.assert_allclose(weighted_mean(xs, [1.0, 0.0]), [5.0])


def test_weighted_mean_hand_value():
    # (1*0 + 3*4) / 4 = 3
    xs = np.array([[0.0], [4.0]])
    np.testing.assert_allclose(weighted_mean(xs, [1.0, 3.0]), [3.0])


def test_weighted_mean_errors():
    with pytest.raises(ValueError, match="shape"):
        weighted_mean(np.zeros((3, 1)), [1.0, 1.0])
    with pytest.raises(ValueError, match="positive"):
        weighted_mean(np.zeros((2, 1)), [0.0, 0.0])


def test_weighted_covariance_single_row_zero():
    cov = weighted_covariance(np.array([[1.0, 2.0]]), [1.0])
    np.testing.assert_array_equal(cov, np.zeros((2, 2)))


def test_weighted_covariance_two_points():
    cov = weighted_covariance(np.array([[-1.0], [1.0]]), [1.0, 1.0])
    np.testing.assert_allclose(cov, [[1.0]])


def test_weighted_covariance_ridge_shifts_diagonal():
    xs = np.random.default_rng(0).normal(size=(20, 3))
    w = np.random.default_rng(1).uniform(0.1, 1, 20)
    base = weighted_covariance(xs, w)
    ridged = weighted_covariance(xs, w, ridge=0.25)
    np.testing.assert_allclose(ridged - base, 0.25 * np.eye(3), atol=1e-15)


def test_weighted_stats_scale_invariant():
    xs = np.random.default_rng(2).normal(size=(30, 4))
    w = np.random.default_rng(3).uniform(0.01, 1, 30)
    for c in (1e-6, 3.7, 1e6):
        np.testing.assert_allclose(
            weighted_mean(xs, w), weighted_mean(xs, c * w), rtol=1e-12
        )
        np.testing.assert_allclose(
            weighted_covariance(xs, w), weighted_covariance(xs, c * w),
            rtol=1e-12, atol=1e-12,
        )


def test_weighted_stats_match_loop_oracle():
    g = np.random.default_rng(7)
    xs = g.normal(size=(25, 3))
    w = g.uniform(0.05, 2.0, 25)
    total = sum(w)
    mean = [sum(w[i] * xs[i, j] for i in range(25)) / total for j in range(3)]
    np.testing.assert_allclose(weighted_mean(xs, w), mean, rtol=1e-12)
    cov = [[0.0] * 3 for _ in range(3)]
    for a in range(3):
        for b in range(3):
            cov[a][b] = sum(
                w[i] * (xs[i, a] - mean[a]) * (xs[i, b] - mean[b])
                for i in range(25)
            ) / total
    np.testing.assert_allclose(
        weighted_covariance(xs, w), cov, rtol=1e-10, atol=1e-12
    )


def test_solve_spd_identity_and_scalar():
    b = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    np.testing.assert_allclose(solve_spd(np.eye(3), b), b)
    np.testing.assert_allclose(solve_spd(np.array([[4.0]]), np.array([[2.0]])),
                               [[0.5]])


def test_solve_spd_residual_bound():
    g = np.random.default_rng(11)
    m = g.normal(size=(5, 5))
    a = m @ m.T + 0.5 * np.eye(5)
    b = g.normal(size=(5, 4))
    x = solve_spd(a, b)
    resid = np.abs(a @ x - b).max()
    assert resid <= 1e-8 * np.abs(b).max()


def test_solve_spd_matches_numpy():
    g = np.random.default_rng(13)
    m = g.normal(size=(6, 6))
    a = m @ m.T + np.eye(6)
    b = g.normal(size=(6,))
    np.testing.assert_allclose(solve_spd(a, b), np.linalg.solve(a, b), rtol=1e-9)


def test_cholesky_singular_names_pivot():
    a = np.zeros((3, 3))
    a[0, 0] = 1.0
    with pytest.raises(SingularMatrixError, match="pivot 1"):
        cholesky_factor(a)


def test_cholesky_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        cholesky_factor(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_gaussian_logpdf_standard_normal_mode():
    assert gaussian_logpdf(0.0, 0.0, 1.0) == pytest.approx(
        -0.5 * math.log(2 * math.pi), abs=1e-12
    )


def test_gaussian_logpdf_clamps_variance():
    v = gaussian_logpdf(0.0, 0.0, 0.0)
    assert np.isfinite(v)
    assert v == pytest.approx(gaussian_logpdf(0.0, 0.0, 1e-9))


def test_bandwidth_floor_on_single_point():
    h = silverman_bandwidth([[0.5, -2.0]], [1.0])
    assert h.tolist() == [BANDWIDTH_FLOOR] * 2


def test_bandwidth_formula_oracle():
    g = np.random.default_rng(17)
    xs = g.normal(size=200)
    w = np.ones(200)
    sigma = xs.std()
    expected = 1.06 * sigma * 200 ** -0.2
    assert silverman_bandwidth(xs[:, None], w)[0] == pytest.approx(
        expected, rel=1e-12
    )


def test_auto_ridge_scale():
    a = np.diag([1.0, 2.0, 3.0])
    assert auto_ridge(a) == pytest.approx(1e-6 * 6.0 / 3.0)
