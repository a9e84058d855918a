"""AR/MA coefficient estimation from a sequence of tensor slices.

Autoregressive coefficients come from the Yule-Walker equations applied to
inner-product autocovariances of centered slices, which reduces exactly to
the classical scalar estimator when slices are scalars. Moving-average
coefficients come from regressing lag-``p`` residual tensors on their own
lags (an innovations-by-regression approximation), solved through the
``q x q`` normal equations of residual inner products.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import SingularSystemError

__all__ = [
    "ArimaCoefficients",
    "autocovariance",
    "estimate_ar",
    "estimate_ma",
    "estimate_coefficients",
    "ar_is_stable",
]

# Residual sequences with norm below this (relative to the input sequence)
# are treated as degenerate; MA estimation then falls back to this constant.
MA_FALLBACK = 1e-3
_DEGENERATE_RTOL = 1e-12


@dataclass(frozen=True)
class ArimaCoefficients:
    """AR coefficients ``alpha`` (length p) and MA coefficients ``beta``
    (length q), with diagnostic flags for fallback paths: ``ar_fallback``
    is set whenever ``alpha`` is not the unbiased Yule-Walker solve."""

    alpha: np.ndarray
    beta: np.ndarray
    ar_fallback: bool = False
    ma_fallback: bool = False
    ar_stable: bool = field(default=True)


def _as_sequence(g: np.ndarray) -> np.ndarray:
    g = np.asarray(g, dtype=np.float64)
    if g.ndim < 1 or g.shape[-1] < 1:
        raise ValueError("need a nonempty sequence (last axis = time)")
    return g


def autocovariance(g: np.ndarray, lag: int) -> float:
    """Inner-product autocovariance of centered slices at ``lag``.

    ``gamma_lag = (1 / (L - lag)) * sum_t <g_t - mean, g_{t+lag} - mean>``
    where the mean is the elementwise sequence mean. Equals the classical
    sample autocovariance when slices are scalars.
    """
    g = _as_sequence(g)
    n = g.shape[-1]
    if not 0 <= lag < n:
        raise ValueError(f"lag {lag} out of range for sequence of length {n}")
    return _autocovariances(g, (lag,))[0]


def _autocovariances(g: np.ndarray, lags: Iterable[int]) -> list[float]:
    """:func:`autocovariance` at each of ``lags``, centring ``g`` once."""
    centered = g - g.mean(axis=-1, keepdims=True)
    n = g.shape[-1]
    return [
        float(np.sum(centered[..., : n - lag] * centered[..., lag:])) / (n - lag)
        for lag in lags
    ]


def estimate_ar(g: np.ndarray, p: int) -> tuple[np.ndarray, bool]:
    """Yule-Walker AR estimate from a tensor-slice sequence.

    Returns ``(alpha, fallback)``. When the solve from the unbiased
    ``1/(L - k)`` autocovariances is not stationary, it is redone with the
    biased ``1/L`` ones, whose positive semidefinite Toeplitz matrix gives a
    causal AR (Brockwell & Davis, *Time Series: Theory and Methods*, 8.1).
    If that is unstable too, on a singular or degenerate system, or when the
    centred sequence's norm is at most ``1e-12`` times the sequence's own,
    the estimate is the random-walk prior ``(1, 0, ..., 0)``. The flag is
    set whenever the estimate is not the unbiased solve.
    """
    g = _as_sequence(g)
    if p < 0:
        raise ValueError(f"AR order must be >= 0, got {p}")
    if p == 0:
        return np.zeros(0), False
    n = g.shape[-1]
    if n <= p:
        raise ValueError(f"sequence length {n} must exceed p={p}")
    gamma = np.array(_autocovariances(g, range(p + 1)))
    fallback = np.zeros(p)
    fallback[0] = 1.0
    # Centred energy at the rounding level of the sequence's own is no
    # signal (a constant sequence that went through different but equal
    # arithmetic); Yule-Walker would fit the rounding noise.
    if gamma[0] * n <= (_DEGENERATE_RTOL * np.linalg.norm(g)) ** 2:
        return fallback, True
    for autocov in (gamma, gamma * (n - np.arange(p + 1)) / n):
        try:
            alpha = linalg.solve_toeplitz(autocov)
        except SingularSystemError:
            return fallback, True
        if ar_is_stable(alpha):
            return alpha, autocov is not gamma
    return fallback, True


def estimate_ma(g: np.ndarray, alpha: np.ndarray, q: int) -> tuple[np.ndarray, bool]:
    """MA estimate by regressing AR residual tensors on their own lags.

    Residuals ``r_t = g_t - sum_i alpha_i g_{t-i}`` are regressed on
    ``r_{t-1}..r_{t-q}`` through the ``q x q`` normal equations, whose
    entries are inner products of lagged residual slices; a minimum-norm
    least-squares solve of them keeps a singular Gram well-defined. Returns
    ``(beta, fallback)``; near-zero residuals or a non-finite solve give the
    constant fallback ``MA_FALLBACK`` per coefficient, so downstream error
    updates stay well-posed.
    """
    g = _as_sequence(g)
    alpha = np.asarray(alpha, dtype=np.float64)
    p = alpha.size
    if q < 0:
        raise ValueError(f"MA order must be >= 0, got {q}")
    if q == 0:
        return np.zeros(0), False
    n = g.shape[-1]
    if n <= p + q:
        raise ValueError(f"sequence length {n} must exceed p+q={p + q}")
    resid = g[..., p:].copy()
    for i in range(1, p + 1):
        resid -= alpha[i - 1] * g[..., p - i : n - i]
    if np.linalg.norm(resid) <= _DEGENERATE_RTOL * max(1.0, np.linalg.norm(g)):
        return np.full(q, MA_FALLBACK), True
    n_r = resid.shape[-1]
    lagged = [resid[..., q - j : n_r - j] for j in range(1, q + 1)]
    gram = np.array([[np.sum(a * b) for b in lagged] for a in lagged])
    rhs = np.array([np.sum(a * resid[..., q:]) for a in lagged])
    beta = linalg.lstsq(gram, rhs)
    if not np.all(np.isfinite(beta)):
        return np.full(q, MA_FALLBACK), True
    return beta, False


def estimate_coefficients(g: np.ndarray, p: int, q: int) -> ArimaCoefficients:
    """Estimate AR then MA coefficients from one core-tensor sequence."""
    alpha, ar_fb = estimate_ar(g, p)
    beta, ma_fb = estimate_ma(g, alpha, q)
    return ArimaCoefficients(
        alpha=alpha,
        beta=beta,
        ar_fallback=ar_fb,
        ma_fallback=ma_fb,
        # estimate_ar has already checked an estimate it did not fall back from.
        ar_stable=not ar_fb or ar_is_stable(alpha),
    )


def ar_is_stable(alpha: np.ndarray) -> bool:
    """Whether all roots of ``1 - sum_i alpha_i z^i`` lie outside the unit
    circle. :func:`estimate_ar` returns only such estimates, or the
    random-walk prior, whose root lies on the circle."""
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.size == 0 or not np.any(alpha):
        return True
    roots = np.roots(np.concatenate([-alpha[::-1], [1.0]]))
    return bool(np.all(np.abs(roots) > 1.0))
