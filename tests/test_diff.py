"""Differencing tests: exact roundtrips and incremental state updates."""

import numpy as np
import pytest

from bht_arima.diff import (
    difference,
    extend,
    push_observed,
    reconstruct,
)


def test_zero_order_is_identity():
    s = np.array([[1.0, 2.0, 4.0]])
    ds = difference(s, 0)
    assert ds.order == 0
    assert np.array_equal(ds.slices, s)
    assert ds.heads == ()
    assert np.array_equal(reconstruct(ds), s)


def test_first_difference_scalars():
    ds = difference(np.array([5.0, 7.0, 4.0]), 1)
    assert np.array_equal(ds.slices, [2.0, -3.0])
    assert np.array_equal(ds.heads[0], 5.0)
    assert np.array_equal(ds.tails[0], 4.0)


def test_second_difference_of_squares():
    ds = difference(np.array([1.0, 4.0, 9.0, 16.0]), 2)
    assert np.array_equal(ds.slices, [2.0, 2.0])
    assert ds.heads[0] == 1.0 and ds.heads[1] == 3.0


def test_roundtrip_bit_exact_integers():
    rng = np.random.default_rng(0)
    s = rng.integers(-50, 50, size=(3, 2, 12)).astype(float)
    for d in range(4):
        assert np.array_equal(reconstruct(difference(s, d)), s)


def test_roundtrip_reals():
    rng = np.random.default_rng(1)
    s = rng.standard_normal((4, 15))
    for d in range(3):
        assert np.max(np.abs(reconstruct(difference(s, d)) - s)) < 1e-12


def test_difference_linearity():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((2, 10))
    b = rng.standard_normal((2, 10))
    lhs = difference(3.0 * a - 2.0 * b, 2).slices
    rhs = 3.0 * difference(a, 2).slices - 2.0 * difference(b, 2).slices
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_too_short_sequence():
    with pytest.raises(ValueError):
        difference(np.zeros((2, 3)), 3)
    with pytest.raises(ValueError):
        difference(np.zeros((2, 3)), -1)


def test_extend_chains():
    ds = difference(np.array([1.0, 4.0, 9.0, 16.0]), 2)
    ds, value = extend(ds, np.array(2.0))
    assert value == 25.0
    ds, value = extend(ds, np.array(2.0))
    assert value == 36.0
    assert np.array_equal(reconstruct(ds), [1.0, 4.0, 9.0, 16.0, 25.0, 36.0])


def test_push_observed_is_inverse_of_extend():
    ds = difference(np.array([1.0, 4.0, 9.0, 16.0]), 2)
    ds2, d_new = push_observed(ds, np.array(25.0))
    assert d_new == 2.0
    assert np.array_equal(reconstruct(ds2), [1.0, 4.0, 9.0, 16.0, 25.0])


def test_push_observed_tensor_slices():
    rng = np.random.default_rng(3)
    s = rng.standard_normal((2, 3, 9))
    ds = difference(s[..., :-1], 2)
    ds2, _ = push_observed(ds, s[..., -1])
    assert np.max(np.abs(reconstruct(ds2) - s)) < 1e-12
