"""Delay-embedding tests, including the explicit duplication-matrix oracle."""

import numpy as np
import pytest

from bht_arima.mdt import inverse_mdt_temporal, mdt_temporal


def dense_s_oracle(tau, length):
    """Duplication matrix built by independent index loops."""
    n_win = length - tau + 1
    s = np.zeros((tau * n_win, length))
    row = 0
    for j in range(n_win):
        for i in range(tau):
            s[row, j + i] = 1.0
            row += 1
    return s


def test_single_series_windows():
    x = np.array([[1.0, 2.0, 3.0, 4.0, 5.0]])
    h = mdt_temporal(x, 2)
    assert h.shape == (1, 2, 4)
    expected = np.array([[[1, 2, 3, 4], [2, 3, 4, 5]]], dtype=float)
    assert np.array_equal(h, expected)


def test_tau_one_is_unsqueeze():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 6))
    h = mdt_temporal(x, 1)
    assert h.shape == (3, 1, 6)
    assert np.array_equal(h[:, 0, :], x)


def test_tau_full_length_single_window():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 5))
    h = mdt_temporal(x, 5)
    assert h.shape == (2, 5, 1)
    assert np.array_equal(h[..., 0], x)


def test_tau_out_of_range():
    x = np.zeros((2, 4))
    with pytest.raises(ValueError):
        mdt_temporal(x, 5)
    with pytest.raises(ValueError):
        mdt_temporal(x, 0)


def test_roundtrip_exact():
    rng = np.random.default_rng(2)
    for shape in [(1, 8), (4, 10), (2, 3, 9)]:
        x = rng.standard_normal(shape)
        for tau in (1, 2, 3):
            back = inverse_mdt_temporal(mdt_temporal(x, tau), tau)
            assert np.max(np.abs(back - x)) < 1e-12


def test_hankel_antidiagonal_exact():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((3, 12))
    h = mdt_temporal(x, 4)
    assert np.array_equal(h[..., 1:, :-1], h[..., :-1, 1:])


def test_linearity():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 9))
    y = rng.standard_normal((2, 9))
    lhs = mdt_temporal(2.5 * x - 1.5 * y, 3)
    rhs = 2.5 * mdt_temporal(x, 3) - 1.5 * mdt_temporal(y, 3)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_shape_law():
    x = np.zeros((2, 11))
    for tau in range(1, 12):
        h = mdt_temporal(x, tau)
        assert h.shape[-1] + tau - 1 == 11


def test_forward_matches_duplication_oracle():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(7)
    tau = 3
    s = dense_s_oracle(tau, 7)
    hank = (s @ x).reshape((tau, 7 - tau + 1), order="F")
    assert np.array_equal(mdt_temporal(x[None, :], tau)[0], hank)


def test_inverse_matches_pinv_oracle():
    rng = np.random.default_rng(6)
    tau, t_len = 3, 8
    n_win = t_len - tau + 1
    h = rng.standard_normal((2, tau, n_win))
    s = dense_s_oracle(tau, t_len)
    s_pinv = np.linalg.pinv(s)
    expected = np.stack(
        [s_pinv @ h[i].reshape(tau * n_win, order="F") for i in range(2)]
    )
    assert np.allclose(inverse_mdt_temporal(h, tau), expected, atol=1e-10)


def test_inverse_averages_conflicting_duplicates():
    h = np.array([[[1.0, 9.0], [2.0, 4.0]]])  # slices [1;2], [9;4]
    got = inverse_mdt_temporal(h, 2)
    assert np.allclose(got, [[1.0, 5.5, 4.0]])


def test_inverse_tau_one_squeezes():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 6))
    h = mdt_temporal(x, 1)
    assert np.array_equal(inverse_mdt_temporal(h, 1), x)


def test_inverse_shape_check():
    with pytest.raises(ValueError):
        inverse_mdt_temporal(np.zeros((2, 3, 4)), 2)

