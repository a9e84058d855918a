"""Linear-algebra primitive tests: contracts and known answers."""

import os
import subprocess
import sys

import numpy as np
import pytest

import bht_arima
from bht_arima.errors import SingularSystemError
from bht_arima.linalg import lstsq, pinv, solve_toeplitz, svd


def test_svd_identity():
    res = svd(np.eye(3))
    assert np.allclose(res.s, [1.0, 1.0, 1.0])


def test_svd_diagonal():
    res = svd(np.diag([3.0, 2.0, 0.0]))
    assert np.allclose(res.s, [3.0, 2.0, 0.0])
    assert np.all(np.diff(res.s) <= 0)


def test_svd_reconstruction_and_orthonormality():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 3))
    res = svd(a)
    assert np.linalg.norm(res.u @ np.diag(res.s) @ res.v.T - a) < 1e-9
    assert np.linalg.norm(res.u.T @ res.u - np.eye(3)) < 1e-10
    assert np.linalg.norm(res.v.T @ res.v - np.eye(3)) < 1e-10


def test_pinv_identity():
    assert np.allclose(pinv(np.eye(3)), np.eye(3))


def test_pinv_averaging_column():
    got = pinv(np.array([[1.0], [1.0]]))
    assert np.allclose(got, [[0.5, 0.5]])


def test_pinv_full_column_rank():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((6, 3))
    assert np.linalg.norm(pinv(a) @ a - np.eye(3)) < 1e-8


def test_pinv_penrose_conditions():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((5, 3))
    ap = pinv(a)
    assert np.linalg.norm(a @ ap @ a - a) < 1e-8
    assert np.linalg.norm(ap @ a @ ap - ap) < 1e-8
    assert np.linalg.norm((a @ ap).T - a @ ap) < 1e-8
    assert np.linalg.norm((ap @ a).T - ap @ a) < 1e-8


def test_pinv_involution_well_conditioned():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
    assert np.linalg.norm(pinv(pinv(a)) - a) < 1e-7


def test_solve_toeplitz_scalar_ratio():
    assert np.allclose(solve_toeplitz(np.array([1.0, 0.5])), [0.5])


def test_solve_toeplitz_white_noise():
    assert np.allclose(solve_toeplitz(np.array([1.0, 0.0, 0.0])), [0.0, 0.0])


def test_solve_toeplitz_matches_dense_solve():
    # gammas from a stationary AR(2); compare against a direct dense solve
    rng = np.random.default_rng(6)
    n = 4000
    x = np.zeros(n)
    for t in range(2, n):
        x[t] = 0.5 * x[t - 1] - 0.3 * x[t - 2] + rng.standard_normal()
    c = x - x.mean()
    gamma = np.array([np.dot(c[: n - k], c[k:]) / (n - k) for k in range(3)])
    got = solve_toeplitz(gamma)
    r = np.array([[gamma[0], gamma[1]], [gamma[1], gamma[0]]])
    expected = np.linalg.solve(r, gamma[1:])
    assert np.linalg.norm(got - expected) < 1e-8


def test_solve_toeplitz_rejects_bad_gamma():
    with pytest.raises(SingularSystemError):
        solve_toeplitz(np.array([0.0, 0.5]))
    with pytest.raises(SingularSystemError):
        solve_toeplitz(np.array([1.0, np.nan]))
    # exactly singular system: gamma_k = gamma_0 for all k
    with pytest.raises(SingularSystemError):
        solve_toeplitz(np.array([1.0, 1.0, 1.0]))


def _random_autocovariances(rng, p):
    n = int(rng.integers(p + 3, 60))
    s = rng.standard_normal(n)
    if rng.random() < 0.5:
        s = np.cumsum(s)  # near-unit-root: ill-conditioned Toeplitz systems
    c = s - s.mean()
    return np.array([np.dot(c[: n - k], c[k:]) / n for k in range(p + 1)])


def test_solve_toeplitz_agrees_with_scipy_to_rounding():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(8)
    for p in range(1, 9):
        lags = np.arange(p)
        for _ in range(150):
            gamma = _random_autocovariances(rng, p)
            got = solve_toeplitz(gamma)
            want = scipy_linalg.solve_toeplitz(gamma[:p], gamma[1:])
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (p, gamma)
            r = gamma[np.abs(lags[:, None] - lags[None, :])]
            residual = np.max(np.abs(r @ got - gamma[1:]))
            assert residual <= 1e-14 * gamma[0] * (1.0 + np.sum(np.abs(got))), (p, gamma)


@pytest.mark.parametrize("gamma", [[1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [2.0, 2.0, 2.0, 2.0]])
def test_solve_toeplitz_zero_pivot_is_singular(gamma):
    with pytest.raises(SingularSystemError):
        solve_toeplitz(np.array(gamma))


def test_package_import_does_not_load_scipy():
    code = "import sys, bht_arima, bht_arima.cli; print('scipy' in sys.modules)"
    src = os.path.dirname(os.path.dirname(bht_arima.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "False"


def test_lstsq_identity():
    b = np.arange(6.0).reshape(3, 2)
    assert np.allclose(lstsq(np.eye(3), b), b)


def test_lstsq_consistent_overdetermined():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((8, 3))
    x0 = rng.standard_normal((3, 2))
    got = lstsq(a, a @ x0)
    assert np.linalg.norm(got - x0) < 1e-9


def test_lstsq_zero_matrix_minimum_norm():
    got = lstsq(np.zeros((4, 3)), np.ones(4))
    assert np.allclose(got, 0.0)


def test_lstsq_row_mismatch():
    with pytest.raises(ValueError):
        lstsq(np.zeros((3, 2)), np.zeros(4))
