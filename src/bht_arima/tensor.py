"""Dense tensor operations: unfolding, folding, mode products, flat text I/O.

Tensors are plain ``numpy.ndarray`` values of ``float64``. The canonical flat
layout everywhere in this package is first-index-fastest (Fortran order), and
mode-n unfolding follows the matching convention: row index is ``i_n``, and
the column index runs over the remaining indices with the earliest one varying
fastest. Under this convention the unfolding of a multilinear product
``G x_1 U1 ... x_M UM`` along mode ``n`` equals ``Un @ unfold(G, n) @ K.T``,
where ``K`` is the Kronecker product of the other factors in descending mode
order, ``UM (x) ... (x) U(n+1) (x) U(n-1) (x) ... (x) U1``.

Modes are 0-based, matching numpy axis numbering. All functions are pure:
inputs are never mutated.
"""

from __future__ import annotations

import numpy as np

from .errors import DataFormatError

__all__ = [
    "unfold",
    "fold",
    "mode_product",
    "multi_mode_product",
    "frobenius_norm",
    "read_flat_tensor",
    "write_flat_tensor",
]


def _check_mode(ndim: int, mode: int) -> None:
    if not 0 <= mode < ndim:
        raise ValueError(f"mode {mode} out of range for order-{ndim} tensor")


def unfold(t: np.ndarray, mode: int) -> np.ndarray:
    """Matricize ``t`` along ``mode``.

    Returns a matrix of shape ``(t.shape[mode], prod of remaining extents)``.
    Columns enumerate the remaining indices with the earliest index fastest.
    """
    t = np.asarray(t)
    _check_mode(t.ndim, mode)
    return np.reshape(np.moveaxis(t, mode, 0), (t.shape[mode], -1), order="F")


def fold(m: np.ndarray, mode: int, shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`unfold`: rebuild a tensor of ``shape`` from ``m``."""
    m = np.asarray(m)
    shape = tuple(int(s) for s in shape)
    _check_mode(len(shape), mode)
    rest = [s for i, s in enumerate(shape) if i != mode]
    if m.shape != (shape[mode], int(np.prod(rest, dtype=np.int64))):
        raise ValueError(
            f"matrix shape {m.shape} inconsistent with folding {shape} on mode {mode}"
        )
    t = np.reshape(m, (shape[mode], *rest), order="F")
    return np.moveaxis(t, 0, mode)


def mode_product(t: np.ndarray, m: np.ndarray, mode: int) -> np.ndarray:
    """Mode-``mode`` product of tensor ``t`` with matrix ``m``.

    ``m`` must have as many columns as ``t.shape[mode]``; that extent is
    replaced by ``m.shape[0]`` in the result. Equivalent to folding
    ``m @ unfold(t, mode)`` back into place.
    """
    t = np.asarray(t)
    m = np.asarray(m)
    _check_mode(t.ndim, mode)
    if m.ndim != 2 or m.shape[1] != t.shape[mode]:
        raise ValueError(
            f"matrix of shape {m.shape} cannot contract mode {mode} "
            f"of extent {t.shape[mode]}"
        )
    return np.moveaxis(np.tensordot(m, t, axes=(1, mode)), 0, mode)


def multi_mode_product(
    t: np.ndarray, mats: list[np.ndarray] | tuple[np.ndarray, ...]
) -> np.ndarray:
    """Apply one matrix per leading mode of ``t``; modes beyond
    ``len(mats)`` (for example a trailing sequence axis) are left as-is."""
    out = np.asarray(t)
    for mode, m in enumerate(mats):
        out = mode_product(out, m, mode)
    return out


def frobenius_norm(t: np.ndarray) -> float:
    """sqrt of the sum of squared entries."""
    return float(np.sqrt(np.sum(np.square(np.asarray(t)))))


def read_flat_tensor(path: str) -> np.ndarray:
    """Read the flat tensor text format.

    Line 1 holds space-separated extents; the remaining content is the flat
    value buffer in canonical (first-index-fastest) order, whitespace-separated.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise DataFormatError(f"{path}: missing extents header line")
    try:
        shape = tuple(int(tok) for tok in lines[0].split())
    except ValueError as exc:
        raise DataFormatError(f"{path}: non-integer extent in header") from exc
    if not shape or any(s < 1 for s in shape):
        raise DataFormatError(f"{path}: extents must all be >= 1, got {shape}")
    tokens = " ".join(lines[1:]).split()
    expected = int(np.prod(shape, dtype=np.int64))
    if len(tokens) != expected:
        raise DataFormatError(
            f"{path}: expected {expected} values for shape {shape}, found {len(tokens)}"
        )
    try:
        flat = np.array([float(tok) for tok in tokens], dtype=np.float64)
    except ValueError as exc:
        raise DataFormatError(f"{path}: non-numeric value token") from exc
    return flat.reshape(shape, order="F")


def write_flat_tensor(path: str, t: np.ndarray, per_line: int = 8) -> None:
    """Write ``t`` in the flat tensor text format (lossless 17-digit reals)."""
    t = np.asarray(t, dtype=np.float64)
    flat = t.flatten(order="F")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(" ".join(str(int(s)) for s in t.shape) + "\n")
        for start in range(0, flat.size, per_line):
            chunk = flat[start : start + per_line]
            fh.write(" ".join(f"{v:.17g}" for v in chunk) + "\n")
