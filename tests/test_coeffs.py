"""Coefficient-estimation tests: autocovariances, Yule-Walker, MA regression."""

import numpy as np
import pytest

import bht_arima.coeffs
from bht_arima.coeffs import (
    MA_FALLBACK,
    ar_is_stable,
    autocovariance,
    estimate_ar,
    estimate_coefficients,
    estimate_ma,
)


def simulate_ar(coeffs, n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    p = len(coeffs)
    x = np.zeros(n + 200)
    for t in range(p, x.size):
        x[t] = sum(coeffs[i] * x[t - 1 - i] for i in range(p))
        x[t] += scale * rng.standard_normal()
    return x[200:]


def test_autocovariance_constant_sequence():
    g = np.full((3, 2, 8), 4.2)
    for lag in range(4):
        assert autocovariance(g, lag) == 0.0


def test_autocovariance_alternating_scalars():
    g = np.array([1.0, -1.0, 1.0, -1.0])
    assert autocovariance(g, 1) == -1.0


def test_autocovariance_matches_flatten_oracle():
    rng = np.random.default_rng(0)
    g = rng.standard_normal((2, 3, 20))
    flat = g.reshape(-1, 20)
    for lag in range(4):
        centered = flat - flat.mean(axis=1, keepdims=True)
        expected = np.sum(centered[:, : 20 - lag] * centered[:, lag:]) / (20 - lag)
        assert abs(autocovariance(g, lag) - expected) < 1e-12


def test_autocovariance_lag_range():
    with pytest.raises(ValueError):
        autocovariance(np.zeros(5), 5)


def test_estimate_ar_white_noise():
    rng = np.random.default_rng(1)
    g = rng.standard_normal(4000)
    alpha, fallback = estimate_ar(g, 2)
    assert not fallback
    assert np.all(np.abs(alpha) < 0.1)


def test_estimate_ar_recovers_ar1():
    x = simulate_ar([0.6], 500, seed=2)
    alpha, fallback = estimate_ar(x, 1)
    assert not fallback
    assert abs(alpha[0] - 0.6) < 0.1


def test_estimate_ar_rank_one_tensor_reduces_to_scalar():
    s = simulate_ar([0.5, -0.3], 300, seed=3)
    tensor_seq = np.ones((2, 4))[..., None] * s[None, None, :]
    alpha_tensor, _ = estimate_ar(tensor_seq, 2)
    alpha_scalar, _ = estimate_ar(s, 2)
    assert np.max(np.abs(alpha_tensor - alpha_scalar)) < 1e-12


def test_estimate_ar_scale_invariance():
    s = simulate_ar([0.4], 200, seed=4)
    a1, _ = estimate_ar(s, 1)
    a2, _ = estimate_ar(1e3 * s, 1)
    assert np.max(np.abs(a1 - a2)) < 1e-12


def test_estimate_ar_matches_textbook_scalar():
    s = simulate_ar([0.5, -0.3], 400, seed=5)
    alpha, _ = estimate_ar(s, 2)
    # textbook: Toeplitz system from centered sample autocovariances
    c = s - s.mean()
    n = s.size
    gamma = np.array([np.dot(c[: n - k], c[k:]) / (n - k) for k in range(3)])
    r = np.array([[gamma[0], gamma[1]], [gamma[1], gamma[0]]])
    expected = np.linalg.solve(r, gamma[1:])
    assert np.max(np.abs(alpha - expected)) < 1e-10


def test_estimate_ar_degenerate_falls_back():
    alpha, fallback = estimate_ar(np.zeros(30), 2)
    assert fallback
    assert np.array_equal(alpha, [1.0, 0.0])


def test_estimate_ar_rounding_level_sequence_falls_back():
    # equal slices that went through different arithmetic: their centred
    # energy is at the rounding level of the slices themselves
    rng = np.random.default_rng(6)
    g = 2.5 + 1e-15 * rng.standard_normal((4, 3, 30))
    alpha, fallback = estimate_ar(g, 2)
    assert fallback
    assert np.array_equal(alpha, [1.0, 0.0])
    # a small signal is still estimated, whatever its scale
    s = simulate_ar([0.6], 500, seed=2)
    for scale in (1e-20, 1e-6, 1e6):
        alpha, fallback = estimate_ar(scale * s, 1)
        assert not fallback
        assert abs(alpha[0] - 0.6) < 0.1


def _toeplitz_solve(gamma):
    p = gamma.size - 1
    lags = np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
    return np.linalg.solve(gamma[lags], gamma[1:])


def test_estimate_ar_resolves_explosive_fit_with_biased_autocovariances():
    # twelve white-noise values: the unbiased 1/(L - k) autocovariances give
    # an explosive AR(5), the biased 1/L ones a stationary one
    g = np.random.default_rng(0).standard_normal(12)
    gamma = np.array([autocovariance(g, k) for k in range(6)])
    assert not ar_is_stable(_toeplitz_solve(gamma))
    alpha, fallback = estimate_ar(g, 5)
    assert fallback
    assert ar_is_stable(alpha)
    assert np.allclose(alpha, _toeplitz_solve(gamma * (12 - np.arange(6)) / 12))
    est = estimate_coefficients(g, 5, 1)
    assert est.ar_fallback and est.ar_stable


def test_estimate_ar_unstable_resolve_falls_back_to_random_walk(monkeypatch):
    monkeypatch.setattr(bht_arima.coeffs, "ar_is_stable", lambda alpha: False)
    alpha, fallback = estimate_ar(simulate_ar([0.5], 200, seed=7), 3)
    assert fallback
    assert np.array_equal(alpha, [1.0, 0.0, 0.0])


def test_estimate_ar_order_zero():
    alpha, fallback = estimate_ar(np.ones(5), 0)
    assert alpha.size == 0 and not fallback


def test_estimate_ma_zero_residuals_fallback():
    # an exact AR(1) sequence has identically-zero residuals
    g = np.array([2.0**-k for k in range(12)])
    beta, fallback = estimate_ma(g, np.array([0.5]), 1)
    assert fallback
    assert np.allclose(beta, MA_FALLBACK)


def test_estimate_ma_recovers_regression_coefficient():
    rng = np.random.default_rng(6)
    r = np.zeros(3000)
    r[0] = 1.0
    for t in range(1, r.size):
        r[t] = 0.4 * r[t - 1] + 1e-3 * rng.standard_normal()
    # feed residuals directly by using p=0 (residuals equal the sequence)
    beta, fallback = estimate_ma(r, np.zeros(0), 1)
    assert not fallback
    assert abs(beta[0] - 0.4) < 0.1


@pytest.mark.parametrize("q", [1, 2, 3])
def test_estimate_ma_matches_the_stacked_regression(q):
    # oracle: the (rows * slice size) x q design of lagged residual slices,
    # solved by a dense least-squares fit
    rng = np.random.default_rng(20 + q)
    g = rng.standard_normal((4, 3, 30))
    alpha = np.array([0.5, -0.2])
    beta, fallback = estimate_ma(g, alpha, q)
    resid = g[..., 2:] - 0.5 * g[..., 1:-1] + 0.2 * g[..., :-2]
    n_r = resid.shape[-1]
    design = np.stack(
        [resid[..., q - j : n_r - j].ravel() for j in range(1, q + 1)], axis=1
    )
    want = np.linalg.lstsq(design, resid[..., q:].ravel(), rcond=None)[0]
    assert not fallback
    assert np.max(np.abs(beta - want)) < 1e-10


def test_estimate_ma_singular_gram_takes_the_min_norm_solution():
    # constant residuals make every lag the same regressor: the normal
    # equations are singular, and the minimum-norm answer splits the weight
    beta, fallback = estimate_ma(np.full((2, 10), 3.0), np.zeros(0), 2)
    assert not fallback
    assert np.max(np.abs(beta - 0.5)) < 1e-12


def test_estimate_ma_order_zero():
    beta, fallback = estimate_ma(np.ones(5), np.zeros(0), 0)
    assert beta.size == 0 and not fallback


def test_estimate_ma_needs_history():
    with pytest.raises(ValueError):
        estimate_ma(np.ones(3), np.array([0.5]), 3)


def test_ar_stability_diagnostic():
    assert ar_is_stable(np.array([0.5]))
    assert not ar_is_stable(np.array([1.5]))
    assert ar_is_stable(np.zeros(0))
    assert ar_is_stable(np.zeros(3))


def test_estimate_coefficients_bundles_flags():
    s = simulate_ar([0.5], 200, seed=7)
    est = estimate_coefficients(s, 1, 1)
    assert est.alpha.size == 1 and est.beta.size == 1
    assert not est.ar_fallback
    assert isinstance(est.ar_stable, bool)
