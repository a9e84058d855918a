"""Tensor operation tests: index conventions, roundtrips, oracle checks."""

from functools import reduce

import numpy as np
import pytest

from bht_arima.tensor import (
    fold,
    frobenius_norm,
    mode_product,
    multi_mode_product,
    read_flat_tensor,
    unfold,
    write_flat_tensor,
)


def unfold_oracle(t, mode):
    """Brute-force unfolding by explicit index arithmetic.

    Row = i_mode; column enumerates the remaining indices with the earliest
    varying fastest.
    """
    shape = t.shape
    rest = [k for k in range(t.ndim) if k != mode]
    out = np.zeros((shape[mode], int(np.prod([shape[k] for k in rest]))))
    for idx in np.ndindex(*shape):
        col = 0
        stride = 1
        for k in rest:
            col += idx[k] * stride
            stride *= shape[k]
        out[idx[mode], col] = t[idx]
    return out


def test_unfold_matrix_mode0_identity():
    t = np.reshape([1.0, 2.0, 3.0, 4.0], (2, 2), order="F")
    assert np.array_equal(unfold(t, 0), t)


def test_unfold_matrix_mode1_transpose():
    t = np.reshape([1.0, 2.0, 3.0, 4.0], (2, 2), order="F")
    assert np.array_equal(unfold(t, 1), t.T)


def test_unfold_3d_frozen_example():
    t = np.reshape(np.arange(1.0, 9.0), (2, 2, 2), order="F")
    expected = np.array([[1.0, 2.0, 5.0, 6.0], [3.0, 4.0, 7.0, 8.0]])
    assert np.array_equal(unfold(t, 1), expected)
    assert np.array_equal(unfold_oracle(t, 1), expected)


def test_unfold_matches_oracle_random_shapes():
    rng = np.random.default_rng(0)
    for shape in [(3, 4), (2, 3, 4), (3, 2, 4, 2)]:
        t = rng.standard_normal(shape)
        for mode in range(len(shape)):
            assert np.array_equal(unfold(t, mode), unfold_oracle(t, mode))


def test_fold_unfold_roundtrip_bit_exact():
    rng = np.random.default_rng(1)
    t = rng.standard_normal((3, 4, 5))
    for mode in range(3):
        assert np.array_equal(fold(unfold(t, mode), mode, t.shape), t)


def test_fold_examples():
    # mode-1 folding of a matrix is the transpose (the inverse of the
    # mode-1 unfolding, which transposes)
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    t = fold(m, 1, (2, 2))
    assert np.array_equal(t, m.T)
    assert np.array_equal(unfold(t, 1), m)
    m2 = np.array([[1.0, 2.0, 5.0, 6.0], [3.0, 4.0, 7.0, 8.0]])
    t2 = fold(m2, 1, (2, 2, 2))
    assert np.array_equal(t2.flatten(order="F"), np.arange(1.0, 9.0))


def test_fold_dimension_mismatch():
    with pytest.raises(ValueError):
        fold(np.zeros((2, 3)), 0, (2, 2))


def test_unfold_mode_out_of_range():
    with pytest.raises(ValueError):
        unfold(np.zeros((2, 2)), 2)


def test_mode_product_identity():
    rng = np.random.default_rng(2)
    t = rng.standard_normal((3, 4, 2))
    for mode in range(3):
        assert np.allclose(mode_product(t, np.eye(t.shape[mode]), mode), t)


def test_mode_product_ones_vector_sums():
    rng = np.random.default_rng(3)
    t = rng.standard_normal((3, 4, 2))
    summed = mode_product(t, np.ones((1, 4)), 1)
    assert np.allclose(summed[:, 0, :], t.sum(axis=1))


def test_mode_product_matches_triple_loop():
    rng = np.random.default_rng(4)
    t = rng.standard_normal((3, 4, 2))
    m = rng.standard_normal((5, 4))
    got = mode_product(t, m, 1)
    expected = np.zeros((3, 5, 2))
    for i in range(3):
        for r in range(5):
            for k in range(2):
                expected[i, r, k] = sum(m[r, j] * t[i, j, k] for j in range(4))
    assert np.allclose(got, expected, atol=1e-12)


def test_mode_product_equals_fold_of_matmul():
    rng = np.random.default_rng(5)
    t = rng.standard_normal((3, 4, 2))
    m = rng.standard_normal((5, 4))
    shape = (3, 5, 2)
    assert np.allclose(mode_product(t, m, 1), fold(m @ unfold(t, 1), 1, shape))


def _layouts(rng, shape):
    """The same kind of tensor as C-contiguous, Fortran-ordered, strided and
    transposed arrays."""
    yield rng.standard_normal(shape)
    yield np.asfortranarray(rng.standard_normal(shape))
    yield rng.standard_normal(tuple(2 * s for s in shape))[tuple(slice(None, None, 2) for _ in shape)]
    yield rng.standard_normal(shape[::-1]).T


def _same_bytes(got, want):
    return got.shape == want.shape and got.strides == want.strides and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(4, 3), (3, 5, 2), (2, 3, 4, 2), (3, 1, 2, 2, 3)])
def test_mode_product_and_unfold_match_numpy_bit_for_bit(shape):
    # The lean kernels run the steps of np.tensordot + np.moveaxis and of
    # np.moveaxis + np.reshape, so results agree in layout and in every bit.
    rng = np.random.default_rng(len(shape))
    for t in _layouts(rng, shape):
        for mode, j in enumerate(shape):
            for m in (rng.standard_normal((3, j)), rng.standard_normal((j, 3)).T,
                      rng.standard_normal((6, 2 * j))[::2, ::2]):
                want = np.moveaxis(np.tensordot(m, t, axes=(1, mode)), 0, mode)
                assert _same_bytes(mode_product(t, m, mode), want), (mode, m.strides)
            want = np.reshape(np.moveaxis(t, mode, 0), (j, -1), order="F")
            assert _same_bytes(unfold(t, mode), want), mode


def test_mode_product_shape_mismatch():
    with pytest.raises(ValueError):
        mode_product(np.zeros((3, 4)), np.zeros((2, 5)), 1)


def test_mode_product_commutes_across_modes():
    rng = np.random.default_rng(6)
    t = rng.standard_normal((3, 4, 5))
    a = rng.standard_normal((2, 3))
    b = rng.standard_normal((6, 5))
    left = mode_product(mode_product(t, a, 0), b, 2)
    right = mode_product(mode_product(t, b, 2), a, 0)
    assert np.allclose(left, right, rtol=1e-10)


def test_unfold_of_mode_product():
    rng = np.random.default_rng(7)
    t = rng.standard_normal((3, 4, 5))
    a = rng.standard_normal((2, 4))
    y = mode_product(t, a, 1)
    assert np.allclose(unfold(y, 1), a @ unfold(t, 1), rtol=1e-10)


def kron_oracle(a, b):
    out = np.zeros((a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            for k in range(b.shape[0]):
                for l in range(b.shape[1]):
                    out[i * b.shape[0] + k, j * b.shape[1] + l] = a[i, j] * b[k, l]
    return out


def test_tucker_unfolding_identity():
    # unfold_n(G x_0 U0 ... x_{M-1} U_{M-1}) == U_n @ G^(n) @ chain.T
    rng = np.random.default_rng(10)
    g = rng.standard_normal((2, 3, 2))
    factors = [rng.standard_normal((j, r)) for j, r in zip((4, 5, 3), g.shape)]
    x = multi_mode_product(g, factors)
    for mode in range(3):
        lhs = unfold(x, mode)
        chain = reduce(kron_oracle, [factors[i] for i in (2, 1, 0) if i != mode])
        rhs = factors[mode] @ unfold(g, mode) @ chain.T
        assert np.allclose(lhs, rhs, rtol=1e-10)


def test_inner_and_frobenius():
    assert frobenius_norm(np.zeros((2, 3))) == 0.0
    assert np.isclose(frobenius_norm(np.ones((2, 3))), np.sqrt(6.0))
    t = np.random.default_rng(11).standard_normal((3, 4))
    assert abs(np.sum(t * t) - frobenius_norm(t) ** 2) < 1e-12


def test_flat_tensor_roundtrip(tmp_path):
    rng = np.random.default_rng(12)
    t = rng.standard_normal((3, 2, 4))
    path = str(tmp_path / "t.txt")
    write_flat_tensor(path, t)
    assert np.array_equal(read_flat_tensor(path), t)


def test_flat_tensor_errors(tmp_path):
    from bht_arima.errors import DataFormatError

    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n1 2 3\n")
    with pytest.raises(DataFormatError):
        read_flat_tensor(str(bad))
    bad.write_text("2 x\n1 2 3 4\n")
    with pytest.raises(DataFormatError):
        read_flat_tensor(str(bad))
    bad.write_text("2 2\n1 2 3 oops\n")
    with pytest.raises(DataFormatError):
        read_flat_tensor(str(bad))
