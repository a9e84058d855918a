"""Temporal delay embedding: Hankelization of the time axis and its inverse.

The forward transform turns a length-``T`` axis into a ``(tau, T - tau + 1)``
pair of axes whose second index enumerates overlapping windows; the inverse
averages every embedded entry that maps to the same source position, which is
exactly the Moore-Penrose inverse of the implicit 0/1 duplication matrix
(its Gram matrix is diagonal, holding the per-position window counts).

The duplication matrix is never built densely: forward MDT is sliding-window
copying, inverse MDT is anti-diagonal averaging.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "mdt_temporal",
    "inverse_mdt_temporal",
]


def _check_tau(tau: int, length: int) -> None:
    if not 1 <= tau <= length:
        raise ValueError(f"window length tau={tau} must satisfy 1 <= tau <= {length}")


def mdt_temporal(x: np.ndarray, tau: int) -> np.ndarray:
    """Delay-embed the last axis of ``x`` into a ``(tau, T - tau + 1)`` pair.

    The result has shape ``(*x.shape[:-1], tau, T - tau + 1)``; slice ``t``
    along the new last axis holds the values of every series over the window
    ``[t, t + tau - 1]``.
    """
    x = np.asarray(x, dtype=np.float64)
    t_len = x.shape[-1]
    _check_tau(tau, t_len)
    n_win = t_len - tau + 1
    out = np.empty((*x.shape[:-1], tau, n_win))
    for i in range(tau):
        out[..., i, :] = x[..., i : i + n_win]
    return out


def inverse_mdt_temporal(h: np.ndarray, tau: int) -> np.ndarray:
    """Invert :func:`mdt_temporal` by anti-diagonal averaging.

    ``h`` has shape ``(..., tau, n_win)``; the result has last-axis length
    ``n_win + tau - 1``. Entries of ``h`` mapping to the same source position
    are averaged, so the roundtrip through :func:`mdt_temporal` is exact and
    conflicting duplicates are reconciled by their mean.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.ndim < 2 or h.shape[-2] != tau:
        raise ValueError(
            f"embedded shape {h.shape} inconsistent with tau={tau}; "
            "expected (..., tau, n_win)"
        )
    n_win = h.shape[-1]
    t_len = n_win + tau - 1
    acc = np.zeros((*h.shape[:-2], t_len))
    counts = np.zeros(t_len)
    for i in range(tau):
        acc[..., i : i + n_win] += h[..., i, :]
        counts[i : i + n_win] += 1.0
    return acc / counts

