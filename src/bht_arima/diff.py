"""Order-d differencing of a tensor-slice sequence and its streaming inverse.

Sequences are arrays whose last axis indexes time. Differencing retains the
last slice at every level (``tails``), which is all that is needed to
integrate a newly predicted difference back to the original scale
(``_integrate``) or to difference a newly observed slice (``_difference_step``)
one step at a time. Both steps read and return tails only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DifferencedSeries", "difference"]


@dataclass(frozen=True)
class DifferencedSeries:
    """Result of order-``order`` differencing of a slice sequence.

    From :func:`difference`, ``slices`` holds the level-``order`` differences
    (last axis = time, length ``L - order``). ``tails[k]`` is the last slice
    of the level-``k`` sequence for ``k = 0..order-1``. A fitted or streamed
    model keeps only the newest difference, as ``slices[..., -1:]``.
    """

    order: int
    slices: np.ndarray
    tails: tuple[np.ndarray, ...]


def difference(s: np.ndarray, d: int) -> DifferencedSeries:
    """Apply first differences along the last axis of ``s``, ``d`` times."""
    s = np.asarray(s, dtype=np.float64)
    if d < 0:
        raise ValueError(f"differencing order must be >= 0, got {d}")
    if s.shape[-1] <= d:
        raise ValueError(
            f"sequence of length {s.shape[-1]} too short for order-{d} differencing"
        )
    tails = []
    level = s
    for _ in range(d):
        tails.append(level[..., -1].copy())
        level = np.diff(level, axis=-1)
    # np.diff has already made a fresh array; only d = 0 must copy the input.
    slices = level if d else level.copy()
    return DifferencedSeries(order=d, slices=slices, tails=tuple(tails))


def _integrate(
    tails: tuple[np.ndarray, ...], value: np.ndarray
) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Add ``value`` to each tail from level d-1 down to level 0; return the
    new tails and the restored original-scale value (the new level-0 tail)."""
    new_tails = list(tails)
    for k in range(len(tails) - 1, -1, -1):
        value = tails[k] + value
        new_tails[k] = value
    return tuple(new_tails), value


def _difference_step(
    tails: tuple[np.ndarray, ...], observed: np.ndarray
) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Difference ``observed`` against each tail from level 0 up to level
    d-1; return the new tails and the induced order-d difference."""
    new_tails = list(tails)
    value = observed
    for k in range(len(tails)):
        new_tails[k] = value
        value = value - tails[k]
    return tuple(new_tails), value
