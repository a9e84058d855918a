"""Block-Hankel-tensor ARIMA: joint Tucker + tensor ARIMA estimation.

``fit`` runs the full pipeline on an ``(I_1, ..., I_N, T)`` array: order-d
differencing, temporal delay embedding of the differences (the two
commute, so this is the embedding's differencing), then alternating
closed-form updates of compressed core tensors, orthonormal per-mode
factor bases, AR/MA coefficients, and shared error tensors, until the
relative factor change drops below tolerance. Relaxed mode then frees the
last factor in one unconstrained least-squares solve.
A series mode compressed to its block-Hankel span is factored once by a
raw Householder QR of the distinct differenced columns: two matrix
products turn its reflectors into the span's basis ``Q``, and its ``R``
holds the data's coordinates in the span. The mode is held at ``Q`` when
its rank reaches the span's dimension, and below that is swept like any
other; every swept factor column keeps its sign from one sweep to the next.
``forecast`` propagates the core-space recursion, each predicted core the
next step's lag as it is, and maps predictions back through Tucker
composition and inverse differencing; the newest original-space value is
the last window entry of the newest embedded slice.
``forecast`` and ``append_observation`` read only the last ``p`` cores, the
``q`` error tensors, the ``d`` differencing tails and the last embedded
window, so a streaming step costs the same whatever the history length.
``fit`` and ``append_observation`` return the same differencing state: the
``d`` tails and the newest difference. Only ``fit`` returns the full core
history.

Everything is deterministic given the input and the configuration; no
random draw enters a fit.
"""

from __future__ import annotations

import math
from collections.abc import Container, Sequence
from dataclasses import dataclass, replace
from numbers import Real

import numpy as np

from . import linalg
from .coeffs import ArimaCoefficients, estimate_coefficients
from .diff import DifferencedSeries, _difference_step, _integrate, difference
from .errors import ConfigError, DataFormatError
from .mdt import mdt_temporal
from .tensor import fold, mode_product, multi_mode_product, unfold

__all__ = [
    "ModelConfig",
    "FittedModel",
    "ForecastResult",
    "fit",
    "forecast",
    "append_observation",
    "update_core",
    "update_factor_relaxed",
    "update_error",
]

# Error-tensor updates divide by beta_i; magnitudes at or below this guard
# leave the previous value in place instead.
BETA_GUARD = 1e-8
# Condition-number ceiling above which the relaxed Gram solve takes the
# ridge path.
_COND_LIMIT = 1e12


def _is_integer(value: object) -> bool:
    """Python or numpy integer; ``bool`` is not taken for one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters for :func:`fit`.

    ``ranks`` has one entry per embedded mode (the N series modes plus the
    window mode of extent ``tau``); ``None`` picks ``ceil(0.8 * J_m)`` for
    the series modes and ``tau`` for the window mode; :func:`fit` caps a
    series mode with more series than distinct block-Hankel columns at that
    column count. ``ortho`` is ``"full"`` (every factor orthonormal) or
    ``"relaxed"`` (the same sweeps, then one unconstrained least-squares
    solve for the last factor). ``p``, ``d``,
    ``q``, ``tau``, ``max_iter``, ``seed`` and every rank must be Python or
    numpy integers; they are stored as ``int``. ``ranks`` is a sequence and
    ``tol`` a finite positive real (not a ``bool``), stored as ``float``.
    ``seed`` does not enter the fit, which starts from the data alone; it is
    kept for the run specification that reports echo.
    """

    p: int = 2
    d: int = 1
    q: int = 1
    tau: int = 3
    ranks: tuple[int, ...] | None = None
    max_iter: int = 10
    tol: float = 1e-5
    ortho: str = "full"
    seed: int = 0

    def __post_init__(self) -> None:
        for name, low in (("p", 0), ("d", 0), ("q", 0), ("tau", 1), ("max_iter", 1), ("seed", 0)):
            value = getattr(self, name)
            if not _is_integer(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ConfigError(f"{name} must be >= {low}, got {value}")
            object.__setattr__(self, name, int(value))
        tol = self.tol
        if isinstance(tol, bool) or not isinstance(tol, Real) or not 0 < tol < math.inf:
            raise ConfigError(f"tol must be a finite positive number, got {tol!r}")
        object.__setattr__(self, "tol", float(tol))
        if self.ortho not in ("full", "relaxed"):
            raise ConfigError(f"ortho must be 'full' or 'relaxed', got {self.ortho!r}")
        if self.ranks is not None:
            ranks = self.ranks
            if not isinstance(ranks, (Sequence, np.ndarray)) or getattr(ranks, "ndim", 1) != 1:
                raise ConfigError(f"ranks must be a sequence of integers, got {ranks!r}")
            if not all(_is_integer(r) for r in ranks):
                raise ConfigError(f"ranks must be integers, got {ranks!r}")
            object.__setattr__(self, "ranks", tuple(int(r) for r in ranks))

    @property
    def s(self) -> int:
        """Sum of the ARIMA orders; the minimum usable history length."""
        return self.p + self.d + self.q

    def resolved_ranks(self, embedded_shape: tuple[int, ...]) -> tuple[int, ...]:
        if self.ranks is None:
            series = [max(1, math.ceil(0.8 * j)) for j in embedded_shape[:-1]]
            return (*series, embedded_shape[-1])
        if len(self.ranks) != len(embedded_shape):
            raise ConfigError(
                f"need {len(embedded_shape)} ranks for embedded shape "
                f"{embedded_shape}, got {len(self.ranks)}"
            )
        for r, j in zip(self.ranks, embedded_shape):
            if not 1 <= r <= j:
                raise ConfigError(f"rank {r} not in [1, {j}] for extent {j}")
        return self.ranks

    def validate_for(self, data_shape: tuple[int, ...]) -> None:
        """Check the config against a concrete input shape before any work."""
        if len(data_shape) < 2:
            raise ConfigError(
                f"input must have shape (series dims..., time), got {data_shape}"
            )
        t_len = data_shape[-1]
        if self.tau > t_len:
            raise ConfigError(f"tau={self.tau} exceeds series length {t_len}")
        t_hat = t_len - self.tau + 1
        if t_hat - self.d <= self.s:
            raise ConfigError(
                f"embedded length {t_hat} minus d={self.d} must exceed "
                f"p+d+q={self.s}; series of length {t_len} is too short"
            )
        self.resolved_ranks((*data_shape[:-1], self.tau))


@dataclass(frozen=True)
class FittedModel:
    """Learned state: factors, differenced core sequence, error tensors,
    ARIMA coefficients, and the inverse-transform bookkeeping.

    ``diff_state`` holds the ``d`` differencing tails and the newest
    difference as ``slices[..., -1:]``. From :func:`fit`, ``cores`` holds the
    core of every differenced slice; after :func:`append_observation`, only
    the newest ``max(p, 1)`` cores. ``original_shape`` counts the whole
    history. Derived, read-only: ``ranks`` (the cores' leading shape),
    ``embedded_shape`` (the series extents and ``config.tau``), ``t_hat``
    (the embedded history length), ``iterations_used`` (the sweeps in
    ``trace``) and ``converged`` (whether the last sweep's factor change
    fell below ``config.tol``).
    """

    config: ModelConfig
    factors: tuple[np.ndarray, ...]
    cores: np.ndarray
    errors: tuple[np.ndarray, ...]
    coeffs: ArimaCoefficients
    diff_state: DifferencedSeries
    original_shape: tuple[int, ...]
    trace: np.ndarray
    ortho_trace: np.ndarray
    relaxed_ridge_used: bool = False
    error_updates_skipped: bool = False

    @property
    def ranks(self) -> tuple[int, ...]:
        return self.cores.shape[:-1]

    @property
    def embedded_shape(self) -> tuple[int, ...]:
        return (*self.original_shape[:-1], self.config.tau)

    @property
    def t_hat(self) -> int:
        return self.original_shape[-1] - self.config.tau + 1

    @property
    def iterations_used(self) -> int:
        return self.trace.size

    @property
    def converged(self) -> bool:
        return bool(self.trace[-1] < self.config.tol)


@dataclass(frozen=True)
class ForecastResult:
    """Original-space forecasts (last axis = horizon step) plus the
    corresponding embedded-space slices and fit diagnostics."""

    forecasts: np.ndarray
    embedded_forecasts: np.ndarray
    converged: bool
    iterations_used: int


def update_core(
    projection: np.ndarray,
    prev_cores: list[np.ndarray] | tuple[np.ndarray, ...],
    errors: list[np.ndarray] | tuple[np.ndarray, ...],
    alpha: np.ndarray,
    beta: np.ndarray,
) -> np.ndarray:
    """Closed-form core update: half the sum of the Tucker projection and
    the ARIMA prediction from lagged cores and error tensors.

    ``prev_cores[i]`` and ``errors[i]`` are the lag-``i+1`` tensors. The
    operands may also carry a trailing time axis: a stack of projections
    with matching stacks of lagged cores and ``errors[i][..., None]``
    broadcast, updating every slice at once with the same per-element
    arithmetic as slice-by-slice calls.
    """
    acc = np.array(projection, dtype=np.float64)
    for i, a in enumerate(alpha):
        acc += a * prev_cores[i]
    for i, b in enumerate(beta):
        acc -= b * errors[i]
    return 0.5 * acc


def _hankel_spans(
    cols: np.ndarray, start: int
) -> tuple[list[np.ndarray | None], np.ndarray]:
    """Per embedded mode, the span basis of :func:`_factor_basis`'s
    compressed path, or ``None`` where the dense SVD runs; and the data's
    coordinates in that basis.

    ``cols`` (shape ``(*series, n_cols)``) is the differenced panel.
    Differencing commutes with the delay embedding, so the differenced
    slices are ``dx = mdt_temporal(cols, tau)``, Hankel in (window, time):
    ``dx[..., k, t] == cols[..., k + t]`` bit for bit. Over the objective's
    range ``start:`` they hold only the ``n_cols - start`` distinct columns
    ``cols[..., start:]`` per series index. So the mode-``m`` unfolding of
    the data, and with it every alignment matrix ``W`` of that mode, has
    rank at most ``K_m = (product of the other series extents) *
    (n_cols - start)``.

    For a series mode with ``J_m > K_m`` the Householder QR of
    ``unfold(cols[..., start:], m)`` gives the ``J_m x K_m`` basis ``Q``,
    whose range holds every mode-``m`` fibre of ``dx[..., start:]`` and so
    range(W). :func:`fit` caps that mode's rank at ``K_m``. Which modes
    qualify follows from the shapes alone; the window mode never does, and
    at most one series mode can: ``J_0 > K_0`` and ``J_1 > K_1`` would need
    both ``J_0 > J_1`` and ``J_1 > J_0``. One raw QR runs on the unfolding
    of ``cols`` with its time axis rolled so that the ``start`` head columns
    come last. Householder QR factors the columns left to right, so its
    first ``K_m`` reflectors are those of the factored columns alone, and
    :func:`linalg.householder_basis` builds ``Q`` from them by two matrix
    products. ``Q.T`` times the QR's input is its ``R`` (Golub & Van Loan,
    *Matrix Computations*, 5.2): the first ``K_m`` rows of ``R`` hold the
    coordinates ``Q.T cols`` of every column, the head's included, and
    folded back with the roll undone they are the coordinates. :func:`fit`
    sweeps on their embedding, ``Q.T dx`` to rounding, and never forms
    ``dx``. Without a compressed mode the coordinates are ``cols`` itself.
    At the cap the factor is ``Q`` itself, held and never swept: any ``Q u``
    with ``u`` square orthogonal spans the same space, and the objective
    cannot see the rotation. Below the cap the mode is swept like any other,
    its factor ``U = Q u`` held as the rotation ``u``; on the ``start`` head
    slices ``u.T Q.T h = U.T h``.
    """
    n_series = cols.ndim - 1
    n_columns = math.prod(cols.shape[:n_series]) * (cols.shape[-1] - start)
    spans: list[np.ndarray | None] = [None] * cols.ndim
    coords = cols
    for mode in range(n_series):
        k = n_columns // cols.shape[mode]
        if cols.shape[mode] <= k:
            continue
        # Time is the slowest unfolding index, so after the roll the factored
        # columns come first and the head's last.
        h, tau = np.linalg.qr(unfold(np.roll(cols, -start, axis=-1), mode), mode="raw")
        spans[mode] = linalg.householder_basis(h, tau, k)
        shape = (*cols.shape[:mode], k, *cols.shape[mode + 1 :])
        coords = np.roll(fold(np.triu(h.T[:k]), mode, shape), start, axis=-1)
    return spans, coords


def _factor_basis(
    partial: np.ndarray, cores: np.ndarray, mode: int, previous: np.ndarray | None = None
) -> np.ndarray:
    """Orthonormal factor used inside the fit loop: the left singular basis
    of the alignment matrix ``W = sum_t X_t^(mode) U^(-mode).T G_t^(mode).T``,
    each column signed to continue the same column of ``previous``.

    ``partial`` is the stacked data projected on every mode but ``mode``.
    The basis pins the within-subspace rotation to the singular vectors: a
    rotation-free Procrustes map ``u @ v.T`` would, with full Tucker ranks,
    let the autoregressive terms spin the factors by a constant angle every
    sweep, so the relative-factor-change stopping rule would never fire.
    The core update mixes new projections with lagged cores and error
    tensors in the old factor's coordinates, so a column that LAPACK
    returns pointing against its ``previous`` column is negated. The HOSVD
    start (no ``previous``) keeps LAPACK's signs, a pure gauge that later
    sweeps follow. Mixing the series by an orthogonal matrix then mixes the
    factor rows and nothing else.

    For a mode with no more series than distinct Hankel columns this is the
    thin SVD of the ``J x R`` matrix ``W``. For a compressed mode below its
    cap, which :func:`fit` sweeps on ``Q.T dx``, ``partial`` holds
    ``Q.T X``, so ``W`` is the ``K x R`` matrix ``Q.T W`` and the result is
    the rotation ``u`` of the factor ``Q u``; ``Q`` has orthonormal columns,
    so ``u`` and ``Q u`` have the same inner products. Either way ``W`` is
    no wider than it is tall. A compressed mode at its cap ``K`` never comes
    here: :func:`fit` holds it at ``Q``.
    """
    # Unfolding a (*shape, n_t) stack lays the slices' columns side by side,
    # so one product sums over t.
    w = unfold(partial, mode) @ unfold(cores, mode).T
    u = linalg.svd(w).u
    if previous is None:
        return u
    return u * np.where(np.einsum("ij,ij->j", u, previous) < 0, -1.0, 1.0)


def update_factor_relaxed(
    xs: np.ndarray,
    cores: np.ndarray,
    factors: Sequence[np.ndarray | None],
) -> tuple[np.ndarray, bool]:
    """Unconstrained least-squares update of the last-mode factor.

    Solves ``(sum_t A_t A_t.T) U = sum_t A_t G_t^(last).T`` with ``A_t =
    X_t^(last) @ pinv(U^(-last))``; a singular Gram sum is ridge-regularized
    with ``1e-8 * trace / size`` and flagged. The leading factors must have
    orthonormal columns, so the Kronecker chain's pseudo-inverse is its
    transpose. A ``None`` leading factor is the identity, and its mode is
    left as it is.
    """
    last = len(factors) - 1
    if last < 1:
        raise ValueError("relaxed update needs at least two embedded modes")
    a_stack = _project(xs, factors, {last})
    am = unfold(a_stack, last)
    gm = unfold(cores, last)
    gram = am @ am.T
    rhs = am @ gm.T
    ridge_used = False
    try:
        if np.linalg.cond(gram) > _COND_LIMIT:
            raise np.linalg.LinAlgError
        factor = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        ridge_used = True
        lam = 1e-8 * np.trace(gram) / gram.shape[0]
        try:
            factor = np.linalg.solve(gram + lam * np.eye(gram.shape[0]), rhs)
        except np.linalg.LinAlgError:
            factor = linalg.lstsq(gram, rhs)
    return factor, ridge_used


def update_error(
    cores: np.ndarray,
    alpha: np.ndarray,
    beta: np.ndarray,
    errors: list[np.ndarray] | tuple[np.ndarray, ...],
    lag: int,
) -> tuple[np.ndarray, bool]:
    """Closed-form update of the shared lag-``lag+1`` error tensor.

    Sums the ARIMA residual plus the other error-lag contributions over the
    objective's time range and divides by ``(s + 1 - t_hat) * beta_lag``,
    exactly as the stationarity condition dictates (note the denominator is
    negative whenever the usable range has more than one step). Returns
    ``(tensor, skipped)``; the update is skipped when ``|beta_lag|`` is at or
    below ``BETA_GUARD`` or the denominator vanishes.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    p, q = alpha.size, beta.size
    if not 0 <= lag < q:
        raise ValueError(f"lag index {lag} out of range for q={q}")
    n = cores.shape[-1]
    denom_scale = p + q + 1 - n  # equals s + 1 - t_hat
    if abs(beta[lag]) <= BETA_GUARD or denom_scale == 0:
        return np.array(errors[lag]), True
    start = p + q
    resid = cores[..., start:].copy()
    for i in range(1, p + 1):
        resid -= alpha[i - 1] * cores[..., start - i : n - i]
    other = np.zeros(cores.shape[:-1])
    for k in range(q):
        if k != lag:
            other += beta[k] * errors[k]
    numerator = resid.sum(axis=-1) + (n - start) * other
    return numerator / (denom_scale * beta[lag]), False


def _project(
    t: np.ndarray, factors: Sequence[np.ndarray | None], skip: Container[int]
) -> np.ndarray:
    """``t`` times ``f.T`` on every mode not in ``skip``, in mode order; a
    ``None`` factor is the identity and its mode is left as it is."""
    for mode, f in enumerate(factors):
        if f is not None and mode not in skip:
            t = mode_product(t, f.T, mode)
    return t


def _ortho_defect(f: np.ndarray) -> float:
    """``||f.T f - I||_F``: how far ``f``'s columns are from orthonormal."""
    return float(np.linalg.norm(f.T @ f - np.eye(f.shape[1])))


def _real_array(x: object, what: str) -> np.ndarray:
    """``x`` cast to a float64 array. Complex input, whose imaginary part
    the cast would drop with only a warning, and input the cast cannot
    take, such as a word in a string or object array, raise
    :class:`DataFormatError` naming the dtype."""
    arr = np.asarray(x)
    if arr.dtype.kind != "c":
        try:
            return arr.astype(np.float64, copy=False)
        except (TypeError, ValueError):
            pass
    raise DataFormatError(f"{what}: expected real numbers, got dtype {arr.dtype}")


def _require_finite(x: np.ndarray, what: str) -> None:
    """Raise :class:`DataFormatError` naming the first NaN or inf in ``x``."""
    bad = ~np.isfinite(x)
    if bad.any():
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        raise DataFormatError(f"{what}: non-finite value {x[idx]} at index {idx}")


def fit(x: np.ndarray, cfg: ModelConfig) -> FittedModel:
    """Fit the model to an ``(I_1, ..., I_N, T)`` array (time last).

    Runs order-``cfg.d`` differencing, delay embedding with window
    ``cfg.tau`` of the differences, which equals the embedding's
    differencing byte for byte, then up to ``cfg.max_iter`` alternating
    update sweeps with a relative-factor-change stopping rule. The
    differencing state is built from the last ``tau + d`` steps alone. The
    sweeps start from the data alone: each factor from the leading left
    singular vectors of the data's unfolding over the objective's range (the
    truncated HOSVD), and the error tensors from zero, so ``cfg.seed`` does
    not enter the fit. The returned model stores the final projections of
    every differenced slice together with coefficients re-estimated from
    them, so its state is self-consistent under the converged factors.

    A series mode with more series ``J_m`` than distinct block-Hankel
    columns ``K_m`` (see :func:`_hankel_spans`; at most one mode, decided by
    the shapes alone) has its rank capped at ``K_m``, the most directions
    its data hold, whether the rank is automatic or given; the returned
    model's ``ranks`` show the capped value. The sweep runs on ``Q.T dx``,
    the embedding of the data's coordinates in that mode's span ``Q``,
    which the span's one raw QR returns in its ``R``; ``Q`` itself comes
    from that QR's reflectors (:func:`linalg.householder_basis`), and the
    full-size differenced embedding ``dx`` is never formed. At the cap, as
    every automatic rank on a tall panel is, the mode is held at ``Q``: its
    factor on ``Q.T dx`` is the identity, so it takes no start, no SVD and
    no product, its step in each sweep updates only the cores, and the next
    mode reuses that step's projection; its factor change is zero, and the
    returned factor is ``Q`` itself. Below the cap the mode is swept like any other, as the
    rotation ``u`` of its factor ``Q u``: each sweep takes an SVD of at most
    ``K_m x K_m`` (see :func:`_factor_basis`), and the factor has no
    null-space columns to drift, so such fits converge. Without a
    compressed mode the sweep runs on ``dx`` itself. Every swept factor
    column keeps its sign from the previous sweep (see
    :func:`_factor_basis`), so mixing the series by an orthogonal matrix
    mixes the forecasts, and a sign flip is never counted as factor change.

    In relaxed mode the sweeps are the full fit's. Once they stop, one
    :func:`update_factor_relaxed` solve against the last sweep's cores
    replaces the last factor, and the cores become the data projected
    through its pseudo-inverse. Inside every sweep the solve would drift
    along the scaling ``(U_N c, G / c)`` that leaves the model unchanged.
    """
    x = _real_array(x, "input data")
    _require_finite(x, "input data")
    cfg.validate_for(x.shape)
    p, q = cfg.p, cfg.q

    emb_shape = (*x.shape[:-1], cfg.tau)
    t_hat = x.shape[-1] - cfg.tau + 1
    n_modes = len(emb_shape)
    ranks = cfg.resolved_ranks(emb_shape)
    n_diff = t_hat - cfg.d
    start = p + q

    # Differencing commutes with the delay embedding: the differenced slices
    # ``dx`` are ``mdt_temporal(cols, tau)``, and ``cols`` holds their
    # distinct Hankel columns.
    cols = difference(x, cfg.d).slices
    spans, coords = _hankel_spans(cols, start)
    ranks = tuple(r if sp is None else min(r, sp.shape[1]) for r, sp in zip(ranks, spans))
    span_mode = next((m for m, sp in enumerate(spans) if sp is not None), None)
    # ``y`` is ``Q.T dx`` on the compressed mode, if any, else ``dx``; either
    # way the embedding of ``coords``. A compressed mode at its cap ``K`` is
    # held at ``Q``: on ``y`` its factor is the identity, kept as ``None``, so
    # it takes no start, no basis and no product. The other factors start
    # from the truncated HOSVD of ``y``'s objective range ``data``, the
    # sweep's basis rule with the data standing in for the cores.
    y = mdt_temporal(coords, cfg.tau)
    data = y[..., start:]
    held = next(
        (m for m, sp in enumerate(spans) if sp is not None and ranks[m] == sp.shape[1]), None
    )
    factors: list[np.ndarray | None] = [
        None if mode == held else _factor_basis(data, data, mode)[:, :r]
        for mode, r in enumerate(ranks)
    ]
    # The held factor's orthonormality defect is that of ``Q``, the same in
    # every sweep.
    held_defect = [] if held is None else [_ortho_defect(spans[held])]
    errors = [np.zeros(ranks) for _ in range(q)]
    trace: list[float] = []
    ortho_trace: list[float] = []
    ridge_used = err_skipped = False

    # ``prefix`` is ``y`` projected on the modes already updated in this
    # sweep: at the end of a sweep, the next sweep's cores.
    prefix = _project(y, factors, ())
    for _ in range(cfg.max_iter):
        cores = prefix
        est = estimate_coefficients(cores, p, q)
        previous = list(factors)
        prefix = y
        projection = cores
        for mode in range(n_modes):
            # At mode 0 the projection is ``cores``. The held mode leaves
            # ``prefix`` as it is, so the mode after it reuses the held mode's
            # projection, and the held mode updates a copy in the same memory
            # layout, which later sums and products round alike. Elsewhere
            # the update is in place; the lags are read first.
            if mode and mode - 1 != held:
                projection = _project(prefix, factors, range(mode))
            updated = projection.copy(order="K") if mode == held else projection
            updated[..., start:] = update_core(
                projection[..., start:],
                [cores[..., start - i : n_diff - i] for i in range(1, p + 1)],
                [e[..., None] for e in errors],
                est.alpha,
                est.beta,
            )
            cores = updated
            # The held mode's step updates the cores only.
            if mode == held:
                continue
            partial = _project(data, factors, {mode})
            factors[mode] = _factor_basis(partial, cores[..., start:], mode, factors[mode])
            prefix = mode_product(prefix, factors[mode].T, mode)
        for i in range(q):
            errors[i], skipped = update_error(cores, est.alpha, est.beta, errors, i)
            err_skipped = err_skipped or skipped
        # Every factor is orthonormal, so ||U||^2 summed over the modes is
        # sum(ranks). On a swept compressed mode ``u`` stands in for ``Q u``:
        # the change has the same norm, ||u.T u - I|| up to the rounding of
        # Q.T Q. The held mode's change is zero.
        swept = [(f, pf) for f, pf in zip(factors, previous) if f is not None]
        delta = sum(float(np.sum((f - pf) ** 2)) for f, pf in swept) / sum(ranks)
        trace.append(delta)
        ortho_trace.append(max(held_defect + [_ortho_defect(f) for f, _ in swept]))
        if delta < cfg.tol:
            break
    # ``cores`` holds the last sweep's updated cores and ``prefix`` the
    # projections under the final factors.
    if cfg.ortho == "relaxed":
        factors[-1], ridge_used = update_factor_relaxed(data, cores[..., start:], factors)
        head = _project(y, factors, {n_modes - 1})
        prefix = mode_product(head, linalg.pinv(factors[-1]), n_modes - 1)
    cores = prefix
    if held is not None:
        factors[held] = spans[held]
    elif span_mode is not None:
        factors[span_mode] = spans[span_mode] @ factors[span_mode]

    # Store that state with coefficients estimated from it, so the model is
    # self-consistent under the final factors. The differencing state needs
    # only the last ``tau + d`` steps: ``d + 1`` embedded slices.
    est = estimate_coefficients(cores, p, q)
    ds = difference(mdt_temporal(x[..., -(cfg.tau + cfg.d) :], cfg.tau), cfg.d)

    return FittedModel(
        config=cfg,
        factors=tuple(f.copy() for f in factors),
        cores=cores,
        errors=tuple(e.copy() for e in errors),
        coeffs=est,
        diff_state=ds,
        original_shape=x.shape,
        trace=np.array(trace),
        ortho_trace=np.array(ortho_trace),
        relaxed_ridge_used=ridge_used,
        error_updates_skipped=err_skipped,
    )


def _recent_cores(cores: np.ndarray, p: int) -> list[np.ndarray]:
    """The last ``p`` cores of a stack, newest first (lag 1, ..., lag p)."""
    return [cores[..., -i] for i in range(1, p + 1)]


def _core_prediction(
    model: FittedModel, lags: list[np.ndarray], errors: list[np.ndarray]
) -> np.ndarray:
    """One-step core-space prediction from the lag-1..p cores (newest
    first) and the lag-1..q error tensors."""
    pred = np.zeros(model.ranks)
    for a, core in zip(model.coeffs.alpha, lags):
        pred += a * core
    for b, err in zip(model.coeffs.beta, errors):
        pred -= b * err
    return pred


def forecast(model: FittedModel, horizon: int) -> ForecastResult:
    """Recursive multi-step forecast in the original space.

    Each step predicts the next differenced core, composes it back to an
    embedded slice and integrates the differencing through the stored tails.
    The newest original-space position is covered only by the last window
    entry of the newest slice, so anti-diagonal averaging would return that
    entry unchanged; it is read off directly. Later steps take the predicted
    cores themselves as lags, with zero future innovations; the model is
    never refitted. Projecting the composed slice back would change nothing
    but rounding: with ``P = pinv(U) U`` on each mode, the stored cores
    satisfy ``P G = G`` and the composition ``U P = U``, so by induction on
    the linear recursion the composed slices are the same. Only the last
    ``p`` cores, the ``q`` error tensors and the ``d`` differencing tails
    are read, so a step costs the same whatever the length of the history.
    """
    if not _is_integer(horizon) or horizon < 1:
        raise ValueError(f"horizon must be an integer >= 1, got {horizon!r}")
    factors = list(model.factors)
    lags = _recent_cores(model.cores, len(model.coeffs.alpha))
    errors = list(model.errors)
    tails = model.diff_state.tails
    out_orig = []
    out_emb = []
    for step in range(horizon):
        if step:
            lags = [d_core, *lags][: len(lags)]
            errors = [np.zeros(model.ranks), *errors][: len(errors)]
        d_core = _core_prediction(model, lags, errors)
        d_slice = multi_mode_product(d_core, factors)
        tails, emb_slice = _integrate(tails, d_slice)
        # 0.0 + maps -0.0 to +0.0, as inverse_mdt_temporal's zero-started sum does.
        out_orig.append(0.0 + emb_slice[..., -1])
        out_emb.append(emb_slice)
    return ForecastResult(
        forecasts=np.stack(out_orig, axis=-1),
        embedded_forecasts=np.stack(out_emb, axis=-1),
        converged=model.converged,
        iterations_used=model.iterations_used,
    )


def append_observation(model: FittedModel, new_slice: np.ndarray) -> FittedModel:
    """Absorb one observed original-space slice without refitting.

    Factors and coefficients stay fixed; the differencing state, core
    sequence, and error lags advance by one step (the realized innovation
    replaces the lag-1 error tensor). The new embedded slice is the last
    observed window (the level-0 differencing tail, or the newest slice when
    ``d = 0``) shifted by one with ``new_slice`` appended, so no history is
    rebuilt.

    The returned model keeps only what streaming reads: the newest
    ``max(p, 1)`` cores and a differencing state holding the tails and the
    newest difference as ``slices[..., -1:]``, the same form :func:`fit`
    returns. Nothing older is copied, so an append costs the same at any
    history length.
    The input model is left unchanged.
    """
    new_slice = _real_array(new_slice, "appended slice")
    if new_slice.shape != model.original_shape[:-1]:
        raise ValueError(
            f"slice shape {new_slice.shape} != {model.original_shape[:-1]}"
        )
    _require_finite(new_slice, "appended slice")
    ds = model.diff_state
    window = ds.tails[0] if ds.order else ds.slices[..., -1]
    emb_new = np.concatenate([window[..., 1:], new_slice[..., None]], axis=-1)
    tails, d_new = _difference_step(ds.tails, emb_new)
    projectors = [f.T for f in model.factors]
    # Relaxed mode's last factor is not orthonormal; its least-squares
    # projector is the Moore-Penrose inverse.
    if model.config.ortho == "relaxed":
        projectors[-1] = linalg.pinv(model.factors[-1])
    g_new = multi_mode_product(d_new, projectors)
    errors = list(model.errors)
    p = len(model.coeffs.alpha)
    if errors:
        lags = _recent_cores(model.cores, p)
        predicted = _core_prediction(model, lags, errors)
        errors = [g_new - predicted] + errors[:-1]
    # The start index is explicit because ``cores[..., -(keep - 1):]`` is the
    # whole stack when keep == 1.
    keep = max(p, 1)
    older = model.cores[..., model.cores.shape[-1] - keep + 1 :]
    return replace(
        model,
        cores=np.concatenate([older, g_new[..., None]], axis=-1),
        errors=tuple(errors),
        diff_state=replace(ds, slices=d_new[..., None], tails=tails),
        original_shape=(*model.original_shape[:-1], model.original_shape[-1] + 1),
    )
