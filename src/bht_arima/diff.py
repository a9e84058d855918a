"""Order-d differencing of a tensor-slice sequence and its exact inverse.

Sequences are arrays whose last axis indexes time. Differencing retains the
first slice at every level (``heads``) so the whole input can be rebuilt
bit-for-bit, and the last slice at every level (``tails``) so newly predicted
differences can be integrated back to the original scale one step at a time.
The streaming steps ``_integrate`` and ``_difference_step`` read and return
tails only; ``extend`` and ``push_observed`` wrap them to keep full
histories.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "DifferencedSeries",
    "difference",
    "reconstruct",
    "extend",
    "push_observed",
]


@dataclass(frozen=True)
class DifferencedSeries:
    """Result of order-``order`` differencing of a slice sequence.

    ``slices`` holds the level-``order`` differences (last axis = time, length
    ``L - order``). ``heads[k]`` / ``tails[k]`` are the first / last slice of
    the level-``k`` sequence for ``k = 0..order-1``.

    A streaming state (from ``model.append_observation``) is bounded: it
    keeps the tails, only the newest difference as ``slices[..., -1:]``, and
    ``heads=()``, and says so with ``bounded=True``, since at order 0 it
    would otherwise look like a whole history. It can be advanced but not
    rebuilt by :func:`reconstruct`.
    """

    order: int
    slices: np.ndarray
    heads: tuple[np.ndarray, ...]
    tails: tuple[np.ndarray, ...]
    bounded: bool = False

    @property
    def slice_shape(self) -> tuple[int, ...]:
        return self.slices.shape[:-1]


def difference(s: np.ndarray, d: int) -> DifferencedSeries:
    """Apply first differences along the last axis of ``s``, ``d`` times."""
    s = np.asarray(s, dtype=np.float64)
    if d < 0:
        raise ValueError(f"differencing order must be >= 0, got {d}")
    if s.shape[-1] <= d:
        raise ValueError(
            f"sequence of length {s.shape[-1]} too short for order-{d} differencing"
        )
    heads = []
    tails = []
    level = s
    for _ in range(d):
        heads.append(level[..., 0].copy())
        tails.append(level[..., -1].copy())
        level = np.diff(level, axis=-1)
    return DifferencedSeries(
        order=d, slices=level.copy(), heads=tuple(heads), tails=tuple(tails)
    )


def reconstruct(ds: DifferencedSeries) -> np.ndarray:
    """Rebuild the original sequence exactly from differences and heads.

    Raises ``ValueError`` for a bounded streaming state, whose full history
    is gone, and for a state without one head per level.
    """
    if ds.bounded:
        raise ValueError(
            f"cannot rebuild an order-{ds.order} history from a bounded "
            "streaming state (it keeps no heads and only the newest difference)"
        )
    if len(ds.heads) != ds.order:
        raise ValueError(
            f"cannot rebuild an order-{ds.order} history from {len(ds.heads)} heads"
        )
    level = ds.slices
    for head in reversed(ds.heads):
        level = np.concatenate(
            [head[..., None], head[..., None] + np.cumsum(level, axis=-1)], axis=-1
        )
    return level


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


def extend(ds: DifferencedSeries, predicted: np.ndarray) -> tuple[DifferencedSeries, np.ndarray]:
    """Append a predicted order-d difference; return the new state and the
    restored original-scale slice."""
    predicted = np.asarray(predicted, dtype=np.float64)
    if predicted.shape != ds.slice_shape:
        raise ValueError(f"predicted slice shape {predicted.shape} != {ds.slice_shape}")
    new_tails, value = _integrate(ds.tails, predicted)
    slices = np.concatenate([ds.slices, predicted[..., None]], axis=-1)
    return replace(ds, slices=slices, tails=new_tails), value


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


def push_observed(ds: DifferencedSeries, observed: np.ndarray) -> tuple[DifferencedSeries, np.ndarray]:
    """Append an observed original-scale slice; return the new state, which
    keeps the whole difference history, and the induced order-d difference."""
    observed = np.asarray(observed, dtype=np.float64)
    if observed.shape != ds.slice_shape:
        raise ValueError(f"observed slice shape {observed.shape} != {ds.slice_shape}")
    new_tails, value = _difference_step(ds.tails, observed)
    slices = np.concatenate([ds.slices, value[..., None]], axis=-1)
    return replace(ds, slices=slices, tails=new_tails), value
