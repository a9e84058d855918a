"""Evaluation harness: NRMSE, rolling backtests, synthetic panels, baselines.

NRMSE here is Frobenius-relative, ``||forecast - actual||_F / ||actual||_F``,
which is scale-free and needs no per-series normalizer. The one-step rolling
protocol walks the test region appending true observations between steps
(refitting each step by default); the multi-step protocol fits once and
forecasts recursively.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .model import (
    ModelConfig,
    _is_integer,
    _real_array,
    _require_finite,
    append_observation,
    fit,
    forecast,
)
from .tensor import frobenius_norm

__all__ = [
    "EvalReport",
    "nrmse",
    "naive_last_value",
    "rolling_backtest",
    "synth_dataset",
]

SYNTH_KINDS = ("sinusoid-mixture", "ar2-panel", "random-walk")
# Shared-coefficient AR(2) used by the "ar2-panel" generator.
AR2_COEFFS = (0.5, -0.3)


@dataclass(frozen=True)
class EvalReport:
    """Backtest summary. ``per_step_nrmse`` is indexed by horizon step for
    the multi-step protocol and by test step for the one-step protocol.
    ``config_echo`` is the requested configuration, with ranks uncapped.
    Derived, read-only: ``protocol``, ``"rolling-one-step"`` at horizon 1
    and ``"recursive-multi-step"`` beyond."""

    nrmse: float
    per_step_nrmse: np.ndarray
    runtime_seconds: float
    config_echo: ModelConfig
    converged_fraction: float
    train_fraction: float
    horizon: int
    n_train: int
    n_test: int
    refit: bool

    @property
    def protocol(self) -> str:
        return "rolling-one-step" if self.horizon == 1 else "recursive-multi-step"

    def to_text(self) -> str:
        """Canonical key-value serialization.

        Deterministic for a fixed run specification: the (volatile) runtime
        is deliberately not part of the canonical form. ``ranks =`` is the
        requested configuration, since refits at different lengths can cap
        differently; ``FittedModel.ranks`` and the ``fit-forecast`` summary
        show the capped value.
        """
        cfg = self.config_echo
        lines = [
            f"protocol = {self.protocol}",
            f"train_fraction = {_fmt(self.train_fraction)}",
            f"horizon = {self.horizon}",
            f"n_train = {self.n_train}",
            f"n_test = {self.n_test}",
            f"refit = {str(self.refit).lower()}",
            *_spec_lines(cfg, _fmt_ranks(cfg.ranks)),
            f"converged_fraction = {_fmt(self.converged_fraction)}",
            f"nrmse = {_fmt(self.nrmse)}",
            "per_step_nrmse = "
            + ",".join(_fmt(v) for v in np.atleast_1d(self.per_step_nrmse)),
        ]
        return "\n".join(lines) + "\n"


def _fmt(v: float) -> str:
    return f"{v:.9g}"


def _fmt_ranks(ranks: tuple[int, ...] | None) -> str:
    return "auto" if ranks is None else ",".join(str(r) for r in ranks)


def _spec_lines(cfg: ModelConfig, ranks: str) -> list[str]:
    """The run specification's report lines, ``p`` through ``seed``, with
    ``ranks`` as the text of the ranks line."""
    return [
        f"p = {cfg.p}",
        f"d = {cfg.d}",
        f"q = {cfg.q}",
        f"tau = {cfg.tau}",
        f"ranks = {ranks}",
        f"max_iter = {cfg.max_iter}",
        f"tol = {_fmt(cfg.tol)}",
        f"ortho = {cfg.ortho}",
        f"seed = {cfg.seed}",
    ]


def nrmse(forecast: np.ndarray, actual: np.ndarray) -> float:
    """Frobenius-relative forecast error; undefined for a zero-norm actual.
    Complex input raises :class:`DataFormatError`."""
    forecast = _real_array(forecast, "forecast")
    actual = _real_array(actual, "actual")
    if forecast.shape != actual.shape:
        raise ValueError(f"shape mismatch: {forecast.shape} vs {actual.shape}")
    norm_actual = frobenius_norm(actual)
    if norm_actual == 0.0:
        raise ValueError("NRMSE undefined: actual has zero Frobenius norm")
    return frobenius_norm(forecast - actual) / norm_actual


def naive_last_value(x: np.ndarray, horizon: int) -> np.ndarray:
    """Repeat the final observed slice for every horizon step. Complex input
    raises :class:`DataFormatError`."""
    x = _real_array(x, "panel")
    if x.shape[-1] < 1:
        raise ValueError("need at least one observed slice")
    if not _is_integer(horizon) or horizon < 1:
        raise ValueError(f"horizon must be an integer >= 1, got {horizon!r}")
    return np.repeat(x[..., -1:], horizon, axis=-1)


def _one_step_forecasts_refit(
    x: np.ndarray, cfg: ModelConfig, test_start: int
) -> tuple[list[np.ndarray], list[bool]]:
    preds, conv = [], []
    for k in range(test_start, x.shape[-1]):
        m = fit(x[..., :k], cfg)
        preds.append(forecast(m, 1).forecasts[..., 0])
        conv.append(m.converged)
    return preds, conv


def _one_step_forecasts_rolling(
    x: np.ndarray, cfg: ModelConfig, test_start: int
) -> tuple[list[np.ndarray], list[bool]]:
    model = fit(x[..., :test_start], cfg)
    preds = []
    for k in range(test_start, x.shape[-1]):
        preds.append(forecast(model, 1).forecasts[..., 0])
        model = append_observation(model, x[..., k])
    return preds, [model.converged]


def rolling_backtest(
    x: np.ndarray,
    cfg: ModelConfig,
    train_fraction: float,
    horizon: int = 1,
    refit: bool = True,
) -> EvalReport:
    """Fit on a training prefix and score forecasts over the test region.

    With ``horizon == 1``, test slices are forecast one step ahead, true
    observations are appended between steps, and the model is refit at every
    step unless ``refit=False`` (then a single fitted model advances without
    refitting). With ``horizon > 1``, one model is fit on the prefix and
    forecasts the next ``horizon`` slices recursively. Before any fit, a
    complex panel, one that does not cast to float64 (a word among the
    values) or one that holds a non-finite value raises
    ``DataFormatError``, and a scored slice with zero norm, against which
    NRMSE is undefined, ``ConfigError``.
    """
    x = _real_array(x, "panel")
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError(f"train_fraction must be in (0,1), got {train_fraction}")
    t_len = x.shape[-1]
    n_train = math.floor(train_fraction * t_len)
    n_test = t_len - n_train
    if n_test < 1:
        raise ConfigError("empty test region; lower train_fraction")
    if not _is_integer(horizon) or horizon < 1:
        raise ConfigError(f"horizon must be an integer >= 1, got {horizon!r}")
    if horizon > n_test:
        raise ConfigError(f"horizon {horizon} exceeds test region of {n_test} slices")
    # Refuse before any fit: a non-finite value anywhere would reach the
    # score, and NRMSE is undefined against a zero-norm slice.
    _require_finite(x, "panel")
    for k in range(n_train, n_train + (n_test if horizon == 1 else horizon)):
        if frobenius_norm(x[..., k]) == 0.0:
            raise ConfigError(
                f"held-out slice at time index {k} has zero norm; NRMSE is undefined"
            )
    began = time.perf_counter()
    if horizon == 1:
        if refit:
            preds, conv = _one_step_forecasts_refit(x, cfg, n_train)
        else:
            preds, conv = _one_step_forecasts_rolling(x, cfg, n_train)
        actuals = [x[..., k] for k in range(n_train, t_len)]
    else:
        model = fit(x[..., :n_train], cfg)
        result = forecast(model, horizon)
        preds = [result.forecasts[..., h] for h in range(horizon)]
        actuals = [x[..., n_train + h] for h in range(horizon)]
        conv = [model.converged]
    per_step = np.array([nrmse(f, a) for f, a in zip(preds, actuals)])
    overall = nrmse(np.stack(preds, axis=-1), np.stack(actuals, axis=-1))
    runtime = time.perf_counter() - began
    return EvalReport(
        nrmse=overall,
        per_step_nrmse=per_step,
        runtime_seconds=runtime,
        config_echo=cfg,
        converged_fraction=float(np.mean(conv)),
        train_fraction=train_fraction,
        horizon=horizon,
        n_train=n_train,
        n_test=n_test,
        refit=refit,
    )


def synth_dataset(
    kind: str, n_series: int, length: int, noise: float, seed: int
) -> np.ndarray:
    """Deterministic synthetic panel of shape ``(n_series, length)``.

    ``sinusoid-mixture``: every series is a random nonnegative combination of
    three shared sinusoids; ``noise`` is the additive Gaussian noise level as
    a fraction of the clean panel's RMS amplitude. ``ar2-panel``: independent
    series driven by a shared AR(2) with coefficients ``AR2_COEFFS``;
    ``noise`` is the innovation standard deviation. ``random-walk``:
    cumulative sums of Gaussian steps of standard deviation ``noise``.
    ``n_series`` and ``length`` must be positive integers, ``noise`` finite
    and nonnegative, ``seed`` a nonnegative integer; ``bool`` is not taken
    for an integer.
    """
    if kind not in SYNTH_KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {SYNTH_KINDS}")
    for name, value in (("n_series", n_series), ("length", length)):
        if not _is_integer(value) or value < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    if not 0 <= noise < math.inf:
        raise ValueError(f"noise must be finite and >= 0, got {noise}")
    if not _is_integer(seed) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    rng = np.random.default_rng(seed)
    if kind == "sinusoid-mixture":
        periods = rng.uniform(8.0, 20.0, size=3)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=3)
        t = np.arange(length)
        basis = np.sin(2.0 * np.pi * t[None, :] / periods[:, None] + phases[:, None])
        weights = rng.uniform(0.2, 1.0, size=(n_series, 3))
        clean = weights @ basis
        sigma = noise * float(np.sqrt(np.mean(clean**2)))
        return clean + sigma * rng.standard_normal(clean.shape)
    if kind == "ar2-panel":
        a1, a2 = AR2_COEFFS
        burn = 100
        eps = noise * rng.standard_normal((n_series, burn + length))
        x = np.zeros_like(eps)
        for t in range(2, burn + length):
            x[:, t] = a1 * x[:, t - 1] + a2 * x[:, t - 2] + eps[:, t]
        return x[:, burn:].copy()
    steps = noise * rng.standard_normal((n_series, length))
    return np.cumsum(steps, axis=1)
