"""Block-Hankel-tensor ARIMA: joint Tucker + tensor ARIMA estimation.

``fit`` runs the full pipeline on an ``(I_1, ..., I_N, T)`` array: temporal
delay embedding, order-d differencing, then alternating closed-form updates
of compressed core tensors, orthonormal per-mode factor bases (with an
unconstrained last mode in relaxed mode), AR/MA coefficients, and shared
error tensors, until the relative factor change drops below tolerance.
``forecast`` propagates the core-space recursion and maps predictions back
through Tucker composition and inverse differencing; the newest
original-space value is the last window entry of the newest embedded slice.
``forecast`` and ``append_observation`` read only the last ``p`` cores, the
``q`` error tensors, the ``d`` differencing tails and the last embedded
window, so a streaming step costs the same whatever the history length.
``fit`` and ``append_observation`` return the same differencing state: the
``d`` tails and the newest difference. Only ``fit`` returns the full core
history.

Everything is deterministic given the input, the configuration, and the seed.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .coeffs import ArimaCoefficients, estimate_coefficients
from .diff import DifferencedSeries, _difference_step, _integrate, difference
from .errors import ConfigError, DataFormatError
from .mdt import mdt_temporal
from .tensor import mode_product, multi_mode_product, unfold

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


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters for :func:`fit`.

    ``ranks`` has one entry per embedded mode (the N series modes plus the
    window mode of extent ``tau``); ``None`` picks ``ceil(0.8 * J_m)`` for
    the series modes and ``tau`` for the window mode. ``ortho`` is ``"full"``
    (every factor orthonormal) or ``"relaxed"`` (last mode unconstrained).
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
        for name in ("p", "d", "q", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.tau < 1:
            raise ConfigError(f"tau must be >= 1, got {self.tau}")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")
        if not self.tol > 0:
            raise ConfigError(f"tol must be positive, got {self.tol}")
        if self.ortho not in ("full", "relaxed"):
            raise ConfigError(f"ortho must be 'full' or 'relaxed', got {self.ortho!r}")
        if self.ranks is not None:
            object.__setattr__(self, "ranks", tuple(int(r) for r in self.ranks))

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
                raise ConfigError(f"rank {r} outside [1, {j}] for extent {j}")
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
    the newest ``max(p, 1)`` cores. ``original_shape`` and ``t_hat`` count
    the whole history.
    """

    config: ModelConfig
    factors: tuple[np.ndarray, ...]
    cores: np.ndarray
    errors: tuple[np.ndarray, ...]
    coeffs: ArimaCoefficients
    diff_state: DifferencedSeries
    tau: int
    original_shape: tuple[int, ...]
    embedded_shape: tuple[int, ...]
    t_hat: int
    trace: np.ndarray
    ortho_trace: np.ndarray
    converged: bool
    iterations_used: int
    relaxed_ridge_used: bool = False
    error_updates_skipped: bool = False

    @property
    def ranks(self) -> tuple[int, ...]:
        return self.cores.shape[:-1]


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
    dx: np.ndarray, start: int, ranks: tuple[int, ...]
) -> list[tuple[np.ndarray, np.ndarray] | None]:
    """Per embedded mode, the fixed bases of :func:`_factor_basis`'s
    compressed path, or ``None`` where the dense SVD runs.

    The differenced slices ``dx`` (shape ``(*series, tau, n_diff)``) are
    Hankel in (window, time): ``dx[..., k, t] == dx[..., k + 1, t - 1]``
    bit for bit. Over the objective's range ``start:`` they hold only
    ``n_t + tau - 1`` distinct columns per series index, with
    ``n_t = n_diff - start``: ``dx[..., 0, start:]`` followed by
    ``dx[..., 1:, -1]``. So the mode-``m`` unfolding of the data, and with
    it every alignment matrix ``W`` of that mode, has rank at most
    ``K_m = (product of the other series extents) * (n_t + tau - 1)``.

    For a series mode with ``J_m > K_m`` the complete Householder QR of the
    distinct columns' mode-``m`` unfolding gives ``span`` (its first
    ``K_m`` columns, whose range holds every mode-``m`` fibre of
    ``dx[..., start:]`` and so range(W)) and ``complement`` (the next
    ``R_m - K_m`` columns, empty when ``R_m <= K_m``). Which modes qualify
    follows from the shapes alone; the window mode never does, and at most
    one series mode can: ``J_0 > K_0`` and ``J_1 > K_1`` would need both
    ``J_0 > J_1`` and ``J_1 > J_0``. :class:`_SpanCoordinates` carries that
    mode through the fit.
    """
    n_series = dx.ndim - 2
    n_distinct = dx.shape[-1] - start + dx.shape[-2] - 1
    n_columns = math.prod(dx.shape[:n_series]) * n_distinct
    spans: list[tuple[np.ndarray, np.ndarray] | None] = [None] * len(ranks)
    for mode in range(n_series):
        j = dx.shape[mode]
        k = n_columns // j
        if j <= k:
            continue
        hankel = np.concatenate([dx[..., 0, start:], dx[..., 1:, -1]], axis=-1)
        q = np.linalg.qr(unfold(hankel, mode), mode="complete")[0]
        spans[mode] = (q[:, :k], q[:, k : ranks[mode]])
    return spans


def _factor_basis(partial: np.ndarray, cores: np.ndarray, mode: int) -> np.ndarray:
    """Orthonormal factor used inside the fit loop: the left singular basis
    of the alignment matrix ``W = sum_t X_t^(mode) U^(-mode).T G_t^(mode).T``.

    ``partial`` is the stacked data projected on every mode but ``mode``.
    The basis pins the within-subspace rotation to the singular vectors: a
    rotation-free Procrustes map ``u @ v.T`` would, with full Tucker ranks,
    let the autoregressive terms spin the factors by a constant angle every
    sweep, so the relative-factor-change stopping rule would never fire.

    For a mode with no more series than distinct Hankel columns this is the
    thin SVD of the ``J x R`` matrix ``W``. For the compressed mode of
    :class:`_SpanCoordinates`, ``partial`` holds span coordinates ``Q.T X``,
    so ``W`` is the ``K x R`` matrix ``Q.T W`` and the result is the
    rotation ``u`` of the factor ``[Q u, C]``. Only the left singular
    vectors are needed, and when ``R`` is well above ``K`` they come from
    the ``K x K`` triangle ``r.T`` of ``W.T = (orthonormal) r`` (Chan's
    R-SVD, Golub & Van Loan, *Matrix Computations*, section 5.4), so the SVD
    never forms ``R``-column right vectors.
    """
    # Unfolding a (*shape, n_t) stack lays the slices' columns side by side,
    # so one product sums over t.
    w = unfold(partial, mode) @ unfold(cores, mode).T
    # R >= int(K * 11 / 6) is LAPACK gesdd's own crossover to an LQ-first
    # SVD, evaluated as gesdd does, so the triangle keeps the column signs a
    # plain SVD picks. Below it the two routes can differ in sign, which the
    # sweep is not invariant to (the core update mixes new projections with
    # lagged cores of the old signs): a 200x115 fit at seed 11 then took 8
    # sweeps instead of 5.
    if w.shape[1] >= int(w.shape[0] * 11 / 6):
        w = np.linalg.qr(w.T, mode="r").T
    return linalg.svd(w).u


class _SpanCoordinates:
    """The compressed series mode of a fit, carried in block-Hankel span
    coordinates so that no ``J``-sized work runs inside the sweep.

    With ``(Q, C)`` from :func:`_hankel_spans` (``K`` and ``n_c = max(R -
    K, 0)`` columns) the mode's factor is ``U = [Q u, C]`` for a ``K x
    min(K, R)`` rotation ``u``. The fit holds it as its span coordinates
    ``f = Q.T U = [u, 0]`` (``K x R``) and composes ``U`` only for the
    returned model. Every mode-``mode`` fibre of the objective range lies in
    range(Q), so there ``U.T`` acts as ``[u.T; 0]`` on ``Q.T X``; on the
    ``start`` head slices it gives ``[u.T Q.T h; C.T h]``. Both pieces,
    ``data = Q.T dx`` and ``fixed`` (``C.T h`` on the head, zero on the
    rest), are computed once per fit.
    """

    def __init__(
        self,
        dx: np.ndarray,
        start: int,
        mode: int,
        basis: np.ndarray,
        complement: np.ndarray,
    ) -> None:
        self.mode, self.start = mode, start
        self.basis, self.complement = basis, complement
        self.head = dx[..., :start]
        self.data = mode_product(dx, basis.T, mode)
        head = mode_product(self.head, complement.T, mode)
        body = np.zeros((*head.shape[:-1], dx.shape[-1] - start))
        self.fixed = np.concatenate([head, body], axis=-1)
        # One Gram of [Q, C] per fit serves every sweep's orthogonality
        # defect: U.T U = M.T G M with M = [[u, 0], [0, I]]. Its first K rows
        # are kept; the complement block enters as ||C.T C - I||^2.
        self.gram_span = np.concatenate([basis.T @ basis, basis.T @ complement], axis=1)
        excess = complement.T @ complement
        excess[np.diag_indices_from(excess)] -= 1.0
        self.complement_defect = float(np.sum(excess**2))
        self.complement_norm = float(np.sum(complement**2))

    def initial(self, factor: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """Bring the seeded initial factor ``U0`` (``J x R``) in once.

        Returns its span coordinates ``Q.T U0``, the data projected on it
        (``U0.T h`` on the head slices, ``(U0.T Q) Q.T X`` on the rest) and
        the squared norm of its part that the span coordinates miss,
        ``||(U0 - Q Q.T U0) - [0, C]||^2``, which the first sweep's factor
        change adds (the complement is orthogonal to ``Q``).
        """
        coords = self.basis.T @ factor
        projected = np.concatenate(
            [
                mode_product(self.head, factor.T, self.mode),
                mode_product(self.data[..., self.start :], coords.T, self.mode),
            ],
            axis=-1,
        )
        n_c = self.complement.shape[1]
        outside = (
            float(np.sum(factor**2))
            - float(np.sum(coords**2))
            + self.complement_norm
            - 2.0 * float(np.sum(factor[:, factor.shape[1] - n_c :] * self.complement))
        )
        return coords, projected, outside

    def coordinates(self, rotation: np.ndarray) -> np.ndarray:
        """Span coordinates ``[u, 0]`` of the factor with rotation ``u``."""
        zeros = np.zeros((rotation.shape[0], self.complement.shape[1]))
        return np.concatenate([rotation, zeros], axis=1)

    @staticmethod
    def rotation(coords: np.ndarray) -> np.ndarray:
        """The rotation ``u`` in span coordinates ``[u, 0]``."""
        return coords[:, : min(coords.shape)]

    def project(self, coords: np.ndarray) -> np.ndarray:
        """``U.T dx`` on the compressed mode for span coordinates ``[u, 0]``."""
        inside = mode_product(self.data, self.rotation(coords).T, self.mode)
        return np.concatenate([inside, self.fixed], axis=self.mode)

    def compose(self, coords: np.ndarray) -> np.ndarray:
        """The factor ``U = [Q u, C]`` for span coordinates ``[u, 0]``."""
        return np.concatenate([self.basis @ self.rotation(coords), self.complement], axis=1)

    def defect(self, coords: np.ndarray) -> float:
        """``||U.T U - I||`` for span coordinates ``[u, 0]``, from the Gram."""
        rotation = self.rotation(coords)
        k = self.basis.shape[1]
        top = rotation.T @ self.gram_span
        corner = top[:, :k] @ rotation - np.eye(rotation.shape[1])
        return math.sqrt(
            float(np.sum(corner**2))
            + 2.0 * float(np.sum(top[:, k:] ** 2))
            + self.complement_defect
        )


def update_factor_relaxed(
    xs: np.ndarray,
    cores: np.ndarray,
    factors: list[np.ndarray] | tuple[np.ndarray, ...],
) -> tuple[np.ndarray, bool]:
    """Unconstrained least-squares update of the last-mode factor.

    Builds ``A_t = X_t^(last) @ pinv(U^(-last))`` through per-factor
    pseudo-inverses (the pseudo-inverse distributes over the Kronecker
    chain), then solves the normal equations
    ``(sum_t A_t A_t.T) U = sum_t A_t G_t^(last).T``. A singular Gram sum is
    ridge-regularized with ``1e-8 * trace / size`` and flagged.
    """
    last = len(factors) - 1
    if last < 1:
        raise ValueError("relaxed update needs at least two embedded modes")
    mats = [linalg.pinv(f.T).T for f in factors[:last]]
    a_stack = multi_mode_product(xs, mats)
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


def _projectors(
    factors: list[np.ndarray] | tuple[np.ndarray, ...], relaxed: bool
) -> list[np.ndarray]:
    """Per-mode projection matrices mapping slices to cores.

    Transposes for orthonormal factors; for the unconstrained last factor of
    relaxed mode the Moore-Penrose inverse, which is the least-squares
    projection and coincides with the transpose exactly when orthonormal.
    """
    mats = [f.T for f in factors]
    if relaxed:
        mats[-1] = linalg.pinv(factors[-1])
    return mats


def _project_modes(
    t: np.ndarray, projectors: list[np.ndarray], modes: Iterable[int]
) -> np.ndarray:
    """Apply ``projectors[mode]`` on each of ``modes``, in order."""
    for mode in modes:
        t = mode_product(t, projectors[mode], mode)
    return t


def _require_finite(x: np.ndarray, what: str) -> None:
    """Raise :class:`DataFormatError` naming the first NaN or inf in ``x``."""
    bad = ~np.isfinite(x)
    if bad.any():
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        raise DataFormatError(f"{what}: non-finite value {x[idx]} at index {idx}")


def _orthogonality_defect(
    factors: list[np.ndarray], n_constrained: int, span: _SpanCoordinates | None
) -> float:
    worst = 0.0
    for mode, f in enumerate(factors[:n_constrained]):
        if span is not None and mode == span.mode:
            defect = span.defect(f)
        else:
            defect = float(np.linalg.norm(f.T @ f - np.eye(f.shape[1])))
        worst = max(worst, defect)
    return worst


def fit(x: np.ndarray, cfg: ModelConfig) -> FittedModel:
    """Fit the model to an ``(I_1, ..., I_N, T)`` array (time last).

    Runs delay embedding with window ``cfg.tau``, order-``cfg.d``
    differencing, seeded random orthonormal factor initialization, then up to
    ``cfg.max_iter`` alternating update sweeps with a relative-factor-change
    stopping rule. The returned model stores the final projections of every
    differenced slice together with coefficients re-estimated from them, so
    its state is self-consistent under the converged factors.

    The differenced slices form a block Hankel tensor, so a series mode of
    extent ``J_m`` holds at most ``K_m = (product of the other series
    extents) * (n_t + tau - 1)`` distinct columns over the objective's range
    (``n_t = n_diff - p - q`` slices). When ``J_m > K_m``, one QR of those
    columns per fit gives the mode's span ``Q`` and a fixed complement
    ``C`` (see :func:`_hankel_spans`), and the whole fit runs in span
    coordinates (see :class:`_SpanCoordinates`): the data are projected on
    ``Q`` once, the factor is held as its ``K_m x min(K_m, R_m)`` rotation
    ``u``, each sweep takes an SVD of at most ``K_m x K_m`` (see
    :func:`_factor_basis`), and ``[Q u, C]`` is composed only for the
    returned model. The factor's null-space columns stay put between
    sweeps, so the stopping rule sees only real motion and such fits
    converge. Which path a mode takes follows from the shapes alone, and at
    most one mode takes the compressed one; modes with ``J_m <= K_m`` run
    the dense SVD, and a fit with no compressed mode runs its whole sweep on
    the differenced data itself.
    """
    x = np.asarray(x, dtype=np.float64)
    _require_finite(x, "input data")
    cfg.validate_for(x.shape)
    p, q = cfg.p, cfg.q

    embedded = mdt_temporal(x, cfg.tau)
    emb_shape = embedded.shape[:-1]
    t_hat = embedded.shape[-1]
    n_modes = len(emb_shape)
    ranks = cfg.resolved_ranks(emb_shape)

    ds = difference(embedded, cfg.d)
    dx = ds.slices
    n_diff = dx.shape[-1]
    start = p + q

    spans = _hankel_spans(dx, start, ranks)
    rng = np.random.default_rng(cfg.seed)
    factors = [np.linalg.qr(rng.standard_normal((j, r)))[0] for j, r in zip(emb_shape, ranks)]
    errors = [1e-2 * rng.standard_normal(ranks) for _ in range(q)]

    relaxed = cfg.ortho == "relaxed"
    n_constrained = n_modes - 1 if relaxed else n_modes
    trace: list[float] = []
    ortho_trace: list[float] = []
    converged = False
    ridge_used = False
    err_skipped = False

    # ``y`` is the data with the compressed mode, if any, projected on its
    # current factor: ``factors`` holds that mode's span coordinates, and
    # every projection chain below skips it (``later[m]`` lists the modes
    # from ``m`` on but that one), so its ``projectors`` entry, the
    # transposed span coordinates, is never read. Without a compressed mode
    # ``y`` is ``dx``.
    span_mode = next((m for m, sp in enumerate(spans) if sp is not None), None)
    span = None
    y = dx
    outside = 0.0
    if span_mode is not None:
        span = _SpanCoordinates(dx, start, span_mode, *spans[span_mode])
        factors[span_mode], y, outside = span.initial(factors[span_mode])
    projectors = _projectors(factors, relaxed)
    later = [
        [m for m in range(first, n_modes) if m != span_mode] for first in range(n_modes + 1)
    ]

    # Projections reuse work: ``prefix`` and ``partial_prefix`` carry ``y``
    # (all of it, and the objective's range ``start:``) projected on the
    # modes already updated in this sweep, and the fully advanced prefix is
    # the next sweep's starting cores. The two prefixes are computed
    # separately, not by slicing one, so every mode product sees the same
    # operand shapes and gives the same bits as a fresh projection.
    cores = _project_modes(y, projectors, later[0])
    for _ in range(cfg.max_iter):
        est = estimate_coefficients(cores, p, q)
        previous = [f.copy() for f in factors]
        prefix, partial_prefix = y, y[..., start:]
        for mode in range(n_modes):
            projection = _project_modes(prefix, projectors, later[mode]) if mode else cores
            new_cores = projection.copy()
            new_cores[..., start:] = update_core(
                projection[..., start:],
                [cores[..., start - i : n_diff - i] for i in range(1, p + 1)],
                [e[..., None] for e in errors],
                est.alpha,
                est.beta,
            )
            cores = new_cores
            last = mode == n_modes - 1
            if relaxed and last:
                data = dx if span is None else span.data
                factors[mode], used_ridge = update_factor_relaxed(
                    data[..., start:], cores[..., start:], factors
                )
                ridge_used = ridge_used or used_ridge
                projectors[mode] = linalg.pinv(factors[mode])
            elif mode == span_mode:
                # Span coordinates of the data in, span coordinates of the
                # factor out; then ``y`` and the prefixes follow the factor.
                partial = _project_modes(span.data[..., start:], projectors, later[0])
                factors[mode] = span.coordinates(
                    _factor_basis(partial, cores[..., start:], mode)
                )
                projectors[mode] = factors[mode].T
                y = span.project(factors[mode])
                prefix = _project_modes(y, projectors, range(mode))
                partial_prefix = _project_modes(y[..., start:], projectors, range(mode))
                continue
            else:
                partial = _project_modes(partial_prefix, projectors, later[mode + 1])
                factors[mode] = _factor_basis(partial, cores[..., start:], mode)
                projectors[mode] = factors[mode].T
            prefix = mode_product(prefix, projectors[mode], mode)
            if not last:
                partial_prefix = mode_product(partial_prefix, projectors[mode], mode)
        for i in range(q):
            errors[i], skipped = update_error(cores, est.alpha, est.beta, errors, i)
            err_skipped = err_skipped or skipped
        # The state a further sweep would start from: projections under the
        # updated factors.
        cores = prefix
        change = sum(float(np.sum((f - pf) ** 2)) for f, pf in zip(factors, previous))
        size = sum(float(np.sum(f**2)) for f in factors)
        if span is not None:
            # U - U_prev = Q (f - f_prev) plus, in the first sweep only, the
            # part of the initial factor that its span coordinates miss.
            change += outside
            size += span.complement_norm
            outside = 0.0
        delta = change / size
        trace.append(delta)
        ortho_trace.append(_orthogonality_defect(factors, n_constrained, span))
        if delta < cfg.tol:
            converged = True
            break
    if span is not None:
        factors[span_mode] = span.compose(factors[span_mode])

    # Store that state with coefficients estimated from it, so the model is
    # self-consistent under the final factors.
    est = estimate_coefficients(cores, p, q)

    return FittedModel(
        config=cfg,
        factors=tuple(f.copy() for f in factors),
        cores=cores,
        errors=tuple(e.copy() for e in errors),
        coeffs=est,
        diff_state=replace(ds, slices=dx[..., -1:].copy()),
        tau=cfg.tau,
        original_shape=x.shape,
        embedded_shape=emb_shape,
        t_hat=t_hat,
        trace=np.array(trace),
        ortho_trace=np.array(ortho_trace),
        converged=converged,
        iterations_used=len(trace),
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
    entry unchanged; it is read off directly. Later steps reuse predicted
    slices (projected back to cores) with zero future innovations; the model
    is never refitted. Only the last ``p`` cores, the ``q`` error tensors and
    the ``d`` differencing tails are read, so a step costs the same whatever
    the length of the history.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    factors = list(model.factors)
    projectors = _projectors(factors, model.config.ortho == "relaxed")
    lags = _recent_cores(model.cores, len(model.coeffs.alpha))
    errors = list(model.errors)
    tails = model.diff_state.tails
    out_orig = []
    out_emb = []
    for step in range(horizon):
        if step:
            lags = [multi_mode_product(d_slice, projectors), *lags][: len(lags)]
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
    new_slice = np.asarray(new_slice, dtype=np.float64)
    if new_slice.shape != model.original_shape[:-1]:
        raise ValueError(
            f"slice shape {new_slice.shape} != {model.original_shape[:-1]}"
        )
    _require_finite(new_slice, "appended slice")
    ds = model.diff_state
    window = ds.tails[0] if ds.order else ds.slices[..., -1]
    emb_new = np.concatenate([window[..., 1:], new_slice[..., None]], axis=-1)
    tails, d_new = _difference_step(ds.tails, emb_new)
    g_new = multi_mode_product(
        d_new, _projectors(model.factors, model.config.ortho == "relaxed")
    )
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
        t_hat=model.t_hat + 1,
    )
