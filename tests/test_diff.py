"""Differencing tests: exact roundtrips through the streaming steps and
incremental state updates."""

import numpy as np
import pytest

from bht_arima.diff import _difference_step, _integrate, difference


def _stream_rebuild(s, d):
    """Rebuild ``s[..., d + 1:]`` from the tails of its first ``d + 1``
    slices by integrating each later order-d difference in turn."""
    tails = difference(s[..., : d + 1], d).tails
    out = []
    for diff_slice in np.moveaxis(difference(s, d).slices[..., 1:], -1, 0):
        tails, value = _integrate(tails, diff_slice)
        out.append(value)
    return np.stack(out, axis=-1)


def test_zero_order_is_identity():
    s = np.array([[1.0, 2.0, 4.0]])
    ds = difference(s, 0)
    assert ds.order == 0
    assert np.array_equal(ds.slices, s)
    assert ds.tails == ()
    assert not np.shares_memory(ds.slices, s)


def test_first_difference_scalars():
    ds = difference(np.array([5.0, 7.0, 4.0]), 1)
    assert np.array_equal(ds.slices, [2.0, -3.0])
    assert np.array_equal(ds.tails[0], 4.0)


def test_second_difference_of_squares():
    ds = difference(np.array([1.0, 4.0, 9.0, 16.0]), 2)
    assert np.array_equal(ds.slices, [2.0, 2.0])
    assert ds.tails[0] == 16.0 and ds.tails[1] == 7.0


def test_roundtrip_bit_exact_integers():
    rng = np.random.default_rng(0)
    s = rng.integers(-50, 50, size=(3, 2, 12)).astype(float)
    for d in range(4):
        assert np.array_equal(_stream_rebuild(s, d), s[..., d + 1 :])


def test_roundtrip_reals():
    rng = np.random.default_rng(1)
    s = rng.standard_normal((4, 15))
    for d in range(3):
        assert np.max(np.abs(_stream_rebuild(s, d) - s[..., d + 1 :])) < 1e-12


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
    tails = difference(np.array([1.0, 4.0, 9.0, 16.0]), 2).tails
    tails, value = _integrate(tails, np.array(2.0))
    assert value == 25.0
    tails, value = _integrate(tails, np.array(2.0))
    assert value == 36.0
    assert tails == difference(np.array([1.0, 4.0, 9.0, 16.0, 25.0, 36.0]), 2).tails


def test_push_observed_is_inverse_of_extend():
    tails = difference(np.array([1.0, 4.0, 9.0, 16.0]), 2).tails
    pushed, d_new = _difference_step(tails, np.array(25.0))
    assert d_new == 2.0
    assert pushed == _integrate(tails, d_new)[0]
    assert pushed == difference(np.array([1.0, 4.0, 9.0, 16.0, 25.0]), 2).tails


def test_push_observed_tensor_slices():
    rng = np.random.default_rng(3)
    s = rng.standard_normal((2, 3, 9))
    tails, d_new = _difference_step(difference(s[..., :-1], 2).tails, s[..., -1])
    full = difference(s, 2)
    assert np.array_equal(d_new, full.slices[..., -1])
    assert all(np.array_equal(a, b) for a, b in zip(tails, full.tails))
