"""Model tests: config validation, update rules, fit/forecast behavior."""

import math
from dataclasses import replace

import numpy as np
import pytest

import bht_arima
import bht_arima.diff
import bht_arima.evaluate
import bht_arima.mdt
import bht_arima.model
from bht_arima import linalg
from bht_arima.coeffs import ar_is_stable, autocovariance, estimate_coefficients
from bht_arima.diff import difference
from bht_arima.errors import ConfigError, DataFormatError
from bht_arima.evaluate import naive_last_value, nrmse, rolling_backtest, synth_dataset
from bht_arima.mdt import inverse_mdt_temporal, mdt_temporal
from bht_arima.model import (
    FittedModel,
    ModelConfig,
    append_observation,
    fit,
    forecast,
    update_core,
    update_error,
    update_factor_relaxed,
)
from bht_arima.tensor import fold, mode_product, multi_mode_product, unfold


def random_orthonormal(rng, rows, cols):
    return np.linalg.qr(rng.standard_normal((rows, cols)))[0]


# --- configuration ---------------------------------------------------------


def test_config_rejects_bad_fields():
    with pytest.raises(ConfigError):
        ModelConfig(p=-1)
    with pytest.raises(ConfigError):
        ModelConfig(tau=0)
    with pytest.raises(ConfigError):
        ModelConfig(tol=0.0)
    with pytest.raises(ConfigError):
        ModelConfig(ortho="loose")
    with pytest.raises(ConfigError):
        ModelConfig(max_iter=0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("p", 1.5),
        ("d", 1.0),
        ("q", True),
        ("tau", 2.0),
        ("max_iter", 2.5),
        ("seed", np.float64(3.0)),
        ("seed", False),
        ("ranks", (2.7, 3)),
        ("ranks", (4, np.True_)),
    ],
)
def test_config_rejects_non_integral_fields(field, value):
    with pytest.raises(ConfigError, match=field):
        ModelConfig(**{field: value})


@pytest.mark.parametrize(
    "field, value",
    [("tol", "1e-5"), ("tol", None), ("tol", True), ("tol", math.inf), ("ranks", 5)],
)
def test_config_rejects_a_bad_tol_or_ranks(field, value):
    # a string, None or bool tolerance, an infinite one that would stop every
    # fit after one sweep, and a bare integer for the rank sequence
    with pytest.raises(ConfigError, match=field):
        ModelConfig(**{field: value})


def test_config_takes_numpy_integers():
    cfg = ModelConfig(
        p=np.int64(2), d=np.int32(1), q=np.int8(1), tau=np.int64(3),
        ranks=(np.int64(4), np.int16(3)), max_iter=np.int64(5), seed=np.uint8(7),
    )
    # stored as int, so no fixed-width numpy arithmetic can overflow
    assert cfg.ranks == (4, 3) and all(type(r) is int for r in cfg.ranks)
    assert all(type(getattr(cfg, f)) is int for f in ("p", "d", "q", "tau", "max_iter", "seed"))
    assert fit(BENCH[:4], cfg).iterations_used <= 5


def test_config_validates_against_data():
    cfg = ModelConfig(p=2, d=1, q=1, tau=5)
    with pytest.raises(ConfigError):
        cfg.validate_for((3, 4))  # tau > T
    with pytest.raises(ConfigError):
        ModelConfig(p=2, d=1, q=1, tau=3).validate_for((3, 7))  # too short
    with pytest.raises(ConfigError):
        ModelConfig(ranks=(5, 3)).validate_for((4, 30))  # rank > extent
    with pytest.raises(ConfigError):
        ModelConfig(ranks=(3,)).validate_for((4, 30))  # rank count
    ModelConfig(p=2, d=1, q=1, tau=3).validate_for((3, 20))


def test_default_ranks():
    cfg = ModelConfig(tau=3)
    assert cfg.resolved_ranks((20, 3)) == (16, 3)
    assert cfg.resolved_ranks((5, 4, 3)) == (4, 4, 3)


# --- update_core -----------------------------------------------------------


def test_update_core_no_history_halves_projection():
    proj = np.arange(8.0).reshape(2, 2, 2)
    got = update_core(proj, [], [], np.zeros(0), np.zeros(0))
    assert np.array_equal(got, 0.5 * proj)


def test_update_core_averages_equal_terms():
    rng = np.random.default_rng(0)
    proj = rng.standard_normal((2, 3))
    got = update_core(proj, [proj], [], np.array([1.0]), np.zeros(0))
    assert np.allclose(got, proj)


def test_update_core_matches_scalar_loop_oracle():
    rng = np.random.default_rng(1)
    shape = (3, 3, 3)
    proj = rng.standard_normal(shape)
    prev = [rng.standard_normal(shape) for _ in range(2)]
    errs = [rng.standard_normal(shape) for _ in range(2)]
    alpha = np.array([0.7, -0.2])
    beta = np.array([0.3, 0.1])
    got = update_core(proj, prev, errs, alpha, beta)
    expected = np.zeros(shape)
    for idx in np.ndindex(*shape):
        acc = proj[idx]
        for i in range(2):
            acc += alpha[i] * prev[i][idx]
        for i in range(2):
            acc -= beta[i] * errs[i][idx]
        expected[idx] = 0.5 * acc
    assert np.max(np.abs(got - expected)) < 1e-12


def test_update_core_stack_equals_per_slice_calls():
    rng = np.random.default_rng(11)
    cores = rng.standard_normal((4, 3, 2, 20))
    proj = rng.standard_normal((4, 3, 2, 20))
    errs = [rng.standard_normal((4, 3, 2)) for _ in range(2)]
    alpha = np.array([0.7, -0.2, 0.05])
    beta = np.array([0.3, -0.1])
    start, n = 5, cores.shape[-1]
    got = update_core(
        proj[..., start:],
        [cores[..., start - i : n - i] for i in range(1, 4)],
        [e[..., None] for e in errs],
        alpha,
        beta,
    )
    for j in range(start, n):
        want = update_core(proj[..., j], [cores[..., j - i] for i in range(1, 4)], errs, alpha, beta)
        assert np.array_equal(got[..., j - start], want)


# --- update_factor_relaxed -------------------------------------------------


def test_factor_relaxed_fixed_point():
    rng = np.random.default_rng(6)
    xs = rng.standard_normal((4, 3, 9))
    factors = [random_orthonormal(rng, 4, 2), random_orthonormal(rng, 3, 2)]
    cores = multi_mode_product(xs, [f.T for f in factors])
    got, ridge = update_factor_relaxed(xs, cores, factors)
    assert not ridge
    assert np.linalg.norm(got - factors[1]) < 1e-8


def test_factor_relaxed_matches_dense_lstsq_oracle():
    rng = np.random.default_rng(7)
    xs = rng.standard_normal((4, 3, 9))
    factors = [random_orthonormal(rng, 4, 2), random_orthonormal(rng, 3, 2)]
    cores = rng.standard_normal((2, 2, 9))
    got, ridge = update_factor_relaxed(xs, cores, factors)
    assert not ridge
    # oracle: stack the least-squares systems G_t^(last).T ~ A_t.T U.T
    chain_pinv = np.linalg.pinv(factors[0].T)  # (U^(-M)).dagger, M=2 modes
    a_rows = []
    b_rows = []
    for t in range(9):
        a_t = unfold(xs[..., t], 1) @ chain_pinv
        a_rows.append(a_t.T)
        b_rows.append(unfold(cores[..., t], 1).T)
    a_stack = np.vstack(a_rows)
    b_stack = np.vstack(b_rows)
    expected = np.linalg.lstsq(a_stack, b_stack, rcond=None)[0]
    assert np.max(np.abs(got - expected)) < 1e-8


def test_factor_relaxed_ridge_flag_on_degenerate_gram():
    factors = [np.eye(4)[:, :2], np.eye(3)[:, :2]]
    xs = np.zeros((4, 3, 5))
    cores = np.zeros((2, 2, 5))
    _, ridge = update_factor_relaxed(xs, cores, factors)
    assert ridge


def test_factor_relaxed_needs_two_modes():
    with pytest.raises(ValueError):
        update_factor_relaxed(np.zeros((3, 4)), np.zeros((2, 4)), [np.eye(3)])


# --- update_error ----------------------------------------------------------


def test_update_error_zero_numerator():
    # cores follow the AR recursion exactly and the other error lag is zero,
    # so the update drives this error tensor to zero
    alpha = np.array([0.5])
    shape = (2, 2)
    length = 6
    cores = np.zeros((*shape, length))
    cores[..., 0] = 1.0
    for j in range(1, length):
        cores[..., j] = 0.5 * cores[..., j - 1]
    errors = [np.ones(shape), np.zeros(shape)]
    beta = np.array([0.4, 0.2])
    got, skipped = update_error(cores, alpha, beta, errors, 0)
    assert not skipped
    assert np.allclose(got, 0.0, atol=1e-12)


def test_update_error_matches_hand_evaluation():
    # scalar sequence, p=1, q=1: hand-evaluate the closed form
    cores = np.array([1.0, 2.0, 4.0, 7.0])[None, :]  # shape (1, 4)
    alpha = np.array([2.0])
    beta = np.array([0.5])
    errors = [np.array([3.0])]
    got, skipped = update_error(cores, alpha, beta, errors, 0)
    assert not skipped
    # residuals at j=2,3: 4-2*2=0 and 7-2*4=-1, so the numerator is -1;
    # denominator scale is p+q+1-L = -1, so the value is -1/(-1*0.5) = 2
    assert np.allclose(got, [2.0])


def test_update_error_skips_small_beta():
    cores = np.zeros((2, 5))
    errors = [np.full((2,), 7.0)]
    got, skipped = update_error(cores, np.zeros(0), np.array([1e-12]), errors, 0)
    assert skipped
    assert np.array_equal(got, errors[0])


def test_update_error_skips_zero_denominator():
    # L == p + q + 1 makes the denominator scale vanish
    cores = np.zeros((2, 2))
    errors = [np.full((2,), 3.0)]
    got, skipped = update_error(cores, np.zeros(0), np.array([0.5]), errors, 0)
    assert skipped
    assert np.array_equal(got, errors[0])


# --- fit -------------------------------------------------------------------


BENCH = synth_dataset("sinusoid-mixture", 20, 40, 0.05, seed=7)
BENCH_CFG = ModelConfig(
    p=2, d=1, q=1, tau=3, ranks=(20, 3), max_iter=10, tol=1e-5, ortho="full", seed=0
)


def test_fit_constant_input_zero_cores():
    x = np.full((4, 20), 3.5)
    cfg = ModelConfig(p=1, d=1, q=1, tau=3, max_iter=10, tol=1e-5, seed=0)
    m = fit(x, cfg)
    assert np.max(np.abs(m.cores)) < 1e-12
    assert m.coeffs.ar_fallback and m.coeffs.ma_fallback
    result = forecast(m, 4)
    assert np.max(np.abs(result.forecasts - 3.5)) < 1e-12


def test_fit_full_rank_lossless():
    m = fit(BENCH, BENCH_CFG)
    dx = difference(mdt_temporal(BENCH, 3), 1).slices
    recon = multi_mode_product(m.cores, list(m.factors))
    for j in range(dx.shape[-1]):
        norm = np.linalg.norm(dx[..., j])
        if norm > 1e-8:
            assert np.linalg.norm(recon[..., j] - dx[..., j]) / norm < 1e-6


def test_fit_orthogonality_every_iteration():
    m = fit(BENCH, BENCH_CFG)
    assert m.ortho_trace.max() < 1e-8


def test_fit_relaxed_keeps_leading_modes_orthonormal():
    cfg = ModelConfig(
        p=2, d=1, q=1, tau=3, ranks=(20, 3), max_iter=10, tol=1e-5,
        ortho="relaxed", seed=0,
    )
    m = fit(BENCH, cfg)
    u = m.factors[0]
    assert np.linalg.norm(u.T @ u - np.eye(u.shape[1])) < 1e-8


def test_fit_deterministic():
    m1 = fit(BENCH, BENCH_CFG)
    m2 = fit(BENCH, BENCH_CFG)
    assert np.array_equal(m1.trace, m2.trace)
    for f1, f2 in zip(m1.factors, m2.factors):
        assert np.array_equal(f1, f2)
    r1 = forecast(m1, 3)
    r2 = forecast(m2, 3)
    assert np.array_equal(r1.forecasts, r2.forecasts)


@pytest.mark.parametrize(
    "shape, compressed", [((20, 40), []), ((50, 12), [0])], ids=["dense", "compressed"]
)
def test_fit_does_not_read_the_seed(shape, compressed):
    # Every fit starts from its own data, so the seed changes nothing.
    x = synth_dataset("sinusoid-mixture", *shape, 0.05, seed=7)
    m0 = fit(x, ModelConfig(seed=0))
    m7 = fit(x, ModelConfig(seed=7))
    assert _compressed_modes(m0) == compressed
    for name in ("factors", "errors"):
        a, b = getattr(m0, name), getattr(m7, name)
        assert len(a) == len(b) and all(np.array_equal(u, v) for u, v in zip(a, b)), name
    for name in ("cores", "trace", "ortho_trace"):
        assert np.array_equal(getattr(m0, name), getattr(m7, name)), name
    assert np.array_equal(forecast(m0, 4).forecasts, forecast(m7, 4).forecasts)


@pytest.mark.parametrize(
    "shape, compressed", [((20, 40), []), ((50, 12), [0])], ids=["dense", "compressed"]
)
def test_all_zero_panel_forecasts_exactly_zero(shape, compressed):
    m = fit(np.zeros(shape), ModelConfig())
    assert _compressed_modes(m) == compressed
    assert not any(np.any(e) for e in m.errors)
    assert np.array_equal(forecast(m, 4).forecasts, np.zeros((shape[0], 4)))


def test_fit_shape_laws():
    m = fit(BENCH, BENCH_CFG)
    assert m.embedded_shape == (20, 3)
    assert m.t_hat == 38
    assert m.cores.shape == (20, 3, 37)  # ranks x (t_hat - d)
    assert len(m.errors) == 1
    assert m.errors[0].shape == (20, 3)
    assert m.trace.shape == m.ortho_trace.shape


def test_fit_rejects_bad_shapes():
    with pytest.raises(ConfigError):
        fit(np.zeros(10), BENCH_CFG)
    with pytest.raises(ConfigError):
        fit(np.zeros((2, 5)), ModelConfig(tau=9))


# --- forecast --------------------------------------------------------------


def test_forecast_core_recursion_is_exact():
    m = fit(BENCH, BENCH_CFG)
    result = forecast(m, 1)
    pred = np.zeros(m.ranks)
    for i, a in enumerate(m.coeffs.alpha, start=1):
        pred += a * m.cores[..., -i]
    for i, b in enumerate(m.coeffs.beta):
        pred -= b * m.errors[i]
    d_slice = multi_mode_product(pred, list(m.factors))
    expected_emb = m.diff_state.tails[0] + d_slice  # d=1 integration
    assert np.max(np.abs(result.embedded_forecasts[..., 0] - expected_emb)) < 1e-12


def test_forecast_persistence_reduction():
    # p=1, q=0, alpha=1, d=0: next core equals the last core
    rng = np.random.default_rng(8)
    x = rng.standard_normal((3, 15))
    cfg = ModelConfig(p=1, d=0, q=0, tau=2, ranks=(3, 2), max_iter=5, tol=1e-5, seed=1)
    m = fit(x, cfg)
    forced = FittedModel(
        config=m.config, factors=m.factors, cores=m.cores, errors=m.errors,
        coeffs=type(m.coeffs)(alpha=np.array([1.0]), beta=np.zeros(0)),
        diff_state=m.diff_state, tau=m.tau, original_shape=m.original_shape,
        embedded_shape=m.embedded_shape, t_hat=m.t_hat, trace=m.trace,
        ortho_trace=m.ortho_trace, converged=m.converged,
        iterations_used=m.iterations_used,
    )
    result = forecast(forced, 1)
    expected = multi_mode_product(forced.cores[..., -1], list(m.factors))
    assert np.max(np.abs(result.embedded_forecasts[..., 0] - expected)) < 1e-12


def test_forecast_scalar_ar1_oracle():
    rng = np.random.default_rng(9)
    n = 80
    series = np.zeros(n)
    for t in range(1, n):
        series[t] = 0.65 * series[t - 1] + rng.standard_normal()
    x = series[None, :]
    cfg = ModelConfig(p=1, d=0, q=0, tau=1, ranks=(1, 1), max_iter=10, tol=1e-5, seed=0)
    got = forecast(fit(x, cfg), 1).forecasts[0, 0]
    c = series - series.mean()
    g0 = np.dot(c, c) / n
    g1 = np.dot(c[:-1], c[1:]) / (n - 1)
    expected = (g1 / g0) * series[-1]
    assert abs(got - expected) / abs(expected) < 1e-6


def test_forecast_horizon_validation():
    m = fit(BENCH, BENCH_CFG)
    for horizon in (0, 2.0, 1.5, np.float64(3.0), True):
        with pytest.raises(ValueError, match="horizon must be an integer"):
            forecast(m, horizon)
    assert forecast(m, np.int64(2)).forecasts.shape == (20, 2)


def test_forecast_shapes():
    m = fit(BENCH, BENCH_CFG)
    result = forecast(m, 5)
    assert result.forecasts.shape == (20, 5)
    assert result.embedded_forecasts.shape == (20, 3, 5)
    assert result.iterations_used == m.iterations_used


# --- append_observation ----------------------------------------------------


def test_append_observation_advances_state():
    m = fit(BENCH[..., :36], BENCH_CFG)
    predicted = np.zeros(m.ranks)
    for i, a in enumerate(m.coeffs.alpha, start=1):
        predicted += a * m.cores[..., -i]
    for i, b in enumerate(m.coeffs.beta):
        predicted -= b * m.errors[i]
    m2 = append_observation(m, BENCH[..., 36])
    assert m2.t_hat == m.t_hat + 1
    assert m2.cores.shape[-1] == max(BENCH_CFG.p, 1)
    assert m2.original_shape == (20, 37)
    realized = m2.cores[..., -1] - predicted
    assert np.max(np.abs(m2.errors[0] - realized)) < 1e-12


def test_append_observation_shape_check():
    m = fit(BENCH, BENCH_CFG)
    with pytest.raises(ValueError):
        append_observation(m, np.zeros(7))


# --- order-3 panels ----------------------------------------------------------


def test_fit_forecast_order3_input():
    # e.g. a small video-like panel: two spatial modes plus time
    rng = np.random.default_rng(10)
    base = np.sin(np.arange(30.0) / 3.0)
    x = rng.uniform(0.5, 1.5, size=(3, 4))[..., None] * base + 0.01 * rng.standard_normal((3, 4, 30))
    cfg = ModelConfig(p=1, d=1, q=1, tau=3, max_iter=10, tol=1e-5, seed=0)
    m = fit(x, cfg)
    assert m.embedded_shape == (3, 4, 3)
    assert len(m.factors) == 3
    result = forecast(m, 2)
    assert result.forecasts.shape == (3, 4, 2)
    assert result.embedded_forecasts.shape == (3, 4, 3, 2)


# --- streaming state: equivalence with the history-rebuilding path ------------


def _oracle_projectors(m):
    mats = [f.T for f in m.factors]
    if m.config.ortho == "relaxed":
        mats[-1] = linalg.pinv(m.factors[-1])
    return mats


def _oracle_prediction(m, cores, errors):
    pred = np.zeros(m.ranks)
    for i, a in enumerate(m.coeffs.alpha, start=1):
        pred += a * cores[..., -i]
    for i, b in enumerate(m.coeffs.beta):
        pred -= b * errors[i]
    return pred


def _history(seen, m):
    """The whole embedded history of the panel ``seen``, rebuilt from the
    panel itself, and its order-d differences and their last slices."""
    emb = mdt_temporal(seen, m.tau)
    tails = [np.diff(emb, n=k, axis=-1)[..., -1] for k in range(m.config.d)]
    return emb, np.diff(emb, n=m.config.d, axis=-1), tails


def oracle_forecast(m, seen, horizon):
    """Reference forecast for a model of the panel ``seen`` that rebuilds
    the whole history from the panel, integrates each predicted difference
    through the last slice of every differencing level, and reads the value
    off the inverse embedding of the whole extended history."""
    proj = _oracle_projectors(m)
    cores = m.cores
    errors = [np.array(e) for e in m.errors]
    emb_seq, _, tails = _history(seen, m)
    out_orig, out_emb = [], []
    for _ in range(horizon):
        pred = _oracle_prediction(m, cores, errors)
        d_slice = multi_mode_product(pred, list(m.factors))
        emb_slice = d_slice
        for k in reversed(range(len(tails))):
            emb_slice = tails[k] + emb_slice
            tails[k] = emb_slice
        emb_seq = np.concatenate([emb_seq, emb_slice[..., None]], axis=-1)
        out_orig.append(inverse_mdt_temporal(emb_seq, m.tau)[..., -1])
        out_emb.append(emb_slice)
        g = multi_mode_product(d_slice, proj)
        cores = np.concatenate([cores, g[..., None]], axis=-1)
        if errors:
            errors = [np.zeros(m.ranks)] + errors[:-1]
    return np.stack(out_orig, axis=-1), np.stack(out_emb, axis=-1)


def oracle_append(m, seen):
    """Reference append of ``seen[..., -1]`` to a model of ``seen[..., :-1]``
    that embeds and differences the whole panel again; the returned model
    keeps every core."""
    _, dx, tails = _history(seen, m)
    g_new = multi_mode_product(dx[..., -1], _oracle_projectors(m))
    errors = list(m.errors)
    if errors:
        errors = [g_new - _oracle_prediction(m, m.cores, errors)] + errors[:-1]
    return replace(
        m,
        cores=np.concatenate([m.cores, g_new[..., None]], axis=-1),
        errors=tuple(errors),
        diff_state=replace(m.diff_state, slices=dx[..., -1:], tails=tuple(tails)),
        original_shape=seen.shape,
        t_hat=m.t_hat + 1,
    )


def _order3_panel():
    rng = np.random.default_rng(10)
    base = np.sin(np.arange(30.0) / 3.0)
    scale = rng.uniform(0.5, 1.5, size=(3, 4))[..., None]
    return scale * base + 0.01 * rng.standard_normal((3, 4, 30))


STREAM_CASES = [
    pytest.param(
        BENCH, ModelConfig(d=d, tau=tau, ortho=ortho), id=f"d{d}-tau{tau}-{ortho}"
    )
    for d in (0, 1, 2)
    for tau in (1, 3, 4)
    for ortho in ("full", "relaxed")
] + [
    pytest.param(BENCH, ModelConfig(p=p, d=d), id=f"p{p}-d{d}")
    for p, d in ((0, 0), (0, 1), (3, 1), (3, 2))
] + [pytest.param(_order3_panel(), ModelConfig(p=1, d=1, q=1, tau=3), id="order3")]


@pytest.mark.parametrize("x, cfg", STREAM_CASES)
def test_forecast_bit_identical_to_history_rebuild(x, cfg):
    m = fit(x, cfg)
    result = forecast(m, 8)
    expected, expected_emb = oracle_forecast(m, x, 8)
    assert np.array_equal(result.forecasts, expected)
    assert np.array_equal(result.embedded_forecasts, expected_emb)


@pytest.mark.parametrize("x, cfg", STREAM_CASES)
def test_append_walk_matches_history_rebuild(x, cfg):
    n_train = x.shape[-1] - 10
    m = fit(x[..., :n_train], cfg)
    ref = m
    for k in range(n_train, x.shape[-1]):
        got = forecast(m, 1).forecasts[..., 0]
        want = oracle_forecast(ref, x[..., :k], 1)[0][..., 0]
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        m = append_observation(m, x[..., k])
        ref = oracle_append(ref, x[..., : k + 1])
    assert m.original_shape == ref.original_shape
    kept = ref.cores[..., -m.cores.shape[-1] :]
    assert np.allclose(m.cores, kept, rtol=0, atol=1e-12 * np.abs(ref.cores).max())


def _model_arrays(m):
    ds = m.diff_state
    return [
        *m.factors, m.cores, *m.errors, m.coeffs.alpha, m.coeffs.beta,
        ds.slices, *ds.tails, m.trace, m.ortho_trace,
    ]


def _forecast_arrays(m):
    result = forecast(m, 6)
    return [result.forecasts, result.embedded_forecasts]


def _append_arrays(m):
    m2 = append_observation(m, BENCH[..., 7])
    return [np.array(m2.original_shape + (m2.t_hat,)), *_model_arrays(m2)]


@pytest.mark.parametrize(
    "step", [_forecast_arrays, _append_arrays], ids=["forecast", "append_observation"]
)
def test_forecast_leaves_model_unchanged(step):
    m = fit(BENCH, ModelConfig(d=2, tau=4, q=2))
    before = [a.copy() for a in _model_arrays(m)]
    first = step(m)
    after = _model_arrays(m)
    assert len(before) == len(after)
    assert all(np.array_equal(a, b) for a, b in zip(before, after))
    # the same call on the same model gives the same bytes
    second = step(m)
    assert len(first) == len(second)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first, second))


@pytest.mark.parametrize("p, d", [(0, 0), (1, 1), (2, 2), (3, 1)])
def test_append_keeps_bounded_state(p, d):
    x = synth_dataset("sinusoid-mixture", 6, 80, 0.05, seed=5)
    m = fit(x[..., :30], ModelConfig(p=p, d=d, q=1, tau=3))
    for k in range(30, 80):
        m = append_observation(m, x[..., k])
    assert m.cores.shape[-1] == max(p, 1)
    assert m.diff_state.slices.shape[-1] == 1
    assert len(m.diff_state.tails) == d
    assert m.original_shape == (6, 80)
    assert m.t_hat == 78


@pytest.mark.parametrize("d", [0, 1, 2])
def test_fit_returns_the_streamed_diff_state_form(d):
    x = BENCH[..., :36]
    m = fit(x, ModelConfig(d=d))
    streamed = append_observation(m, BENCH[..., 36]).diff_state
    dx = np.diff(mdt_temporal(x, m.tau), n=d, axis=-1)
    for ds in (m.diff_state, streamed):
        assert ds.order == d and len(ds.tails) == d
        assert ds.slices.shape == (*m.embedded_shape, 1)
        # not a view that keeps a longer difference history alive
        owner = ds.slices if ds.slices.base is None else ds.slices.base
        assert owner.size == ds.slices.size
    assert m.diff_state.slices.base is None
    assert np.array_equal(m.diff_state.slices[..., 0], dx[..., -1])


def test_streaming_never_rebuilds_history(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("history rebuilt")

    modules = (
        bht_arima, bht_arima.diff, bht_arima.mdt, bht_arima.model, bht_arima.evaluate
    )

    def stub(original):
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, name, forbidden)

    stub(bht_arima.mdt.inverse_mdt_temporal)
    report = rolling_backtest(BENCH, BENCH_CFG, 0.8, refit=False)
    assert np.isfinite(report.nrmse)

    m = fit(BENCH[..., :36], BENCH_CFG)
    stub(bht_arima.mdt.mdt_temporal)  # fit embeds once; streaming never does
    assert forecast(m, 5).forecasts.shape == (20, 5)
    m2 = append_observation(m, BENCH[..., 36])
    assert np.all(np.isfinite(forecast(m2, 1).forecasts))


# --- non-finite input ---------------------------------------------------------


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fit_rejects_non_finite_input(bad, capfd):
    x = BENCH.copy()
    x[4, 17] = bad
    with pytest.raises(DataFormatError, match=r"index \(4, 17\)"):
        fit(x, BENCH_CFG)
    assert "DLASCL" not in capfd.readouterr().err


def _with_a_word(z):
    """A copy of the string or object array ``z`` whose first entry is a word."""
    z = z.copy()
    z.flat[0] = "n/a"
    return z


NON_REAL = [
    pytest.param(lambda z: z + 5j, "complex128", id="complex"),
    pytest.param(lambda z: _with_a_word(z.astype(str)), "<U", id="strings"),
    pytest.param(lambda z: _with_a_word(z.astype(object)), "object", id="object"),
]


@pytest.mark.parametrize("convert, dtype", NON_REAL)
def test_fit_rejects_non_real_input_before_any_work(monkeypatch, convert, dtype):
    # A float64 cast would drop the imaginary part with only a warning, or
    # fail inside numpy with a bare ValueError.
    def forbidden(*args, **kwargs):
        raise AssertionError("embedding before the input was checked")

    monkeypatch.setattr(bht_arima.model, "mdt_temporal", forbidden)
    with pytest.raises(DataFormatError, match=rf"input data: .*dtype {dtype}"):
        fit(convert(BENCH), BENCH_CFG)


@pytest.mark.parametrize("kind", [object, str])
def test_fit_still_casts_numeric_objects_and_text(kind):
    got = forecast(fit(BENCH.astype(kind), BENCH_CFG), 3).forecasts
    assert np.array_equal(got, forecast(fit(BENCH, BENCH_CFG), 3).forecasts)


@pytest.mark.parametrize("convert, dtype", NON_REAL)
def test_append_observation_rejects_a_non_real_slice(monkeypatch, convert, dtype):
    m = fit(BENCH[..., :36], BENCH_CFG)

    def forbidden(*args, **kwargs):
        raise AssertionError("differencing before the slice was checked")

    monkeypatch.setattr(bht_arima.model, "_difference_step", forbidden)
    with pytest.raises(DataFormatError, match=rf"appended slice: .*dtype {dtype}"):
        append_observation(m, convert(BENCH[..., 36]))


def test_append_observation_rejects_non_finite_slice():
    m = fit(BENCH[..., :36], BENCH_CFG)
    new = BENCH[..., 36].copy()
    new[3] = np.nan
    with pytest.raises(DataFormatError, match="appended slice"):
        append_observation(m, new)
    # the model is untouched and keeps forecasting finite values
    assert np.all(np.isfinite(forecast(m, 3).forecasts))


# --- fit: equivalence with the slice-by-slice, fresh-projection sweep ---------


def _sweep_projectors(factors, relaxed=False):
    mats = [f.T for f in factors]
    if relaxed:
        mats[-1] = linalg.pinv(factors[-1])
    return mats


def _sweep_project(t, mats, skip=None):
    for mode, mat in enumerate(mats):
        if mode != skip:
            t = mode_product(t, mat, mode)
    return t


def _oracle_distinct_columns(dx, start):
    """The distinct columns of the (window, time) Hankel stack ``dx[..., start:]``,
    one per anti-diagonal ``k + t``: the first window entry of every slice,
    then the later window entries of the last slice."""
    tau, n_diff = dx.shape[-2:]
    cols = []
    for diag in range(start, n_diff + tau - 1):
        t = min(diag, n_diff - 1)
        cols.append(dx[..., diag - t, t])
    return np.stack(cols, axis=-1)


def _oracle_span(dx, start, mode):
    """For a series mode with more rows than distinct Hankel columns, the
    span basis ``Q`` of the compressed factor and the coordinates ``Q.T``
    of every distinct column: the QR's triangle ``R`` for the columns it
    factors, a product with ``Q.T`` for the ``start`` head columns. Else
    ``None``."""
    h = unfold(_oracle_distinct_columns(dx, start), mode)
    n_rows, n_cols = h.shape
    if n_rows <= n_cols:
        return None
    basis, r = np.linalg.qr(h)
    head = basis.T @ unfold(_oracle_distinct_columns(dx, 0)[..., :start], mode)
    shape = list(dx.shape[:-2]) + [dx.shape[-1] + dx.shape[-2] - 1]
    shape[mode] = n_cols
    return basis, fold(np.concatenate([head, r], axis=1), mode, shape)


def _oracle_align(u, previous):
    """``u`` with column ``j`` negated wherever its inner product with
    ``previous[:, j]``, the column it replaces, is negative."""
    u = u.copy()
    for j in range(u.shape[1]):
        if u[:, j] @ previous[:, j] < 0:
            u[:, j] = -u[:, j]
    return u


def _oracle_ranks(cfg, emb_shape, spans):
    """The configured ranks, capped at K on the compressed mode."""
    ranks = cfg.resolved_ranks(emb_shape)
    return tuple(r if span is None else min(r, span.shape[1]) for r, span in zip(ranks, spans))


def oracle_fit(x, cfg):
    """Reference fit: every projection is recomputed from the data at every
    mode, the factor basis gets its own partial projection, and the core
    update runs one time step at a time. A series mode with more rows than
    distinct Hankel columns K takes the SVD inside their span, with its rank
    capped at K and its factor and the data kept in J-space: ``fit`` runs
    that mode in span coordinates (``span_oracle_fit``) and agrees with this
    to 1e-10. At the cap the factor is the span basis ``Q`` itself, from the
    start and in every sweep, whose step updates only the cores. The start
    keeps LAPACK's signs, and every sweep signs each swept factor column to
    continue the column it replaces. Relaxed mode sweeps as full mode does,
    then solves once for the last factor."""
    p, q = cfg.p, cfg.q
    embedded = mdt_temporal(x, cfg.tau)
    emb_shape = embedded.shape[:-1]
    dx = difference(embedded, cfg.d).slices
    n_modes, n_diff, start = len(emb_shape), dx.shape[-1], p + q
    found = [_oracle_span(dx, start, m) for m in range(n_modes - 1)] + [None]
    spans = [None if span is None else span[0] for span in found]
    ranks = _oracle_ranks(cfg, emb_shape, spans)
    # The truncated HOSVD of the objective's range, inside the span on a
    # compressed mode, and zero error tensors.
    held = [span is not None and r == span.shape[1] for r, span in zip(ranks, spans)]
    factors = []
    for mode, r in enumerate(ranks):
        if held[mode]:
            factors.append(spans[mode])
        elif spans[mode] is None:
            w = unfold(dx[..., start:], mode) @ unfold(dx[..., start:], mode).T
            factors.append(linalg.svd(w).u[:, :r])
        else:
            small = spans[mode].T @ unfold(dx[..., start:], mode)
            factors.append((spans[mode] @ linalg.svd(small @ small.T).u)[:, :r])
    errors = [np.zeros(ranks) for _ in range(q)]
    trace, ortho_trace = [], []
    converged = ridge_used = err_skipped = False
    for _ in range(cfg.max_iter):
        cores = _sweep_project(dx, _sweep_projectors(factors))
        est = estimate_coefficients(cores, p, q)
        previous = [f.copy() for f in factors]
        for mode in range(n_modes):
            projection = _sweep_project(dx, _sweep_projectors(factors))
            new_cores = projection.copy()
            for j in range(start, n_diff):
                lags = [cores[..., j - i] for i in range(1, p + 1)]
                new_cores[..., j] = update_core(
                    projection[..., j], lags, errors, est.alpha, est.beta
                )
            cores = new_cores
            if held[mode]:
                continue
            partial = _sweep_project(dx[..., start:], _sweep_projectors(factors), skip=mode)
            if spans[mode] is None:
                w = unfold(partial, mode) @ unfold(cores[..., start:], mode).T
                u = linalg.svd(w).u
            else:
                small = (spans[mode].T @ unfold(partial, mode)) @ unfold(cores[..., start:], mode).T
                u = spans[mode] @ linalg.svd(small).u
            factors[mode] = _oracle_align(u, factors[mode])
        for i in range(q):
            errors[i], skipped = update_error(cores, est.alpha, est.beta, errors, i)
            err_skipped = err_skipped or skipped
        delta = sum(
            float(np.sum((f - pf) ** 2)) for f, pf in zip(factors, previous)
        ) / sum(ranks)
        trace.append(delta)
        ortho_trace.append(max(
            float(np.linalg.norm(f.T @ f - np.eye(f.shape[1]))) for f in factors
        ))
        if delta < cfg.tol:
            converged = True
            break
    relaxed = cfg.ortho == "relaxed"
    if relaxed:
        factors[-1], ridge_used = update_factor_relaxed(
            dx[..., start:], cores[..., start:], factors
        )
    cores = _sweep_project(dx, _sweep_projectors(factors, relaxed))
    return {
        "factors": tuple(factors),
        "cores": cores,
        "errors": tuple(errors),
        "coeffs": estimate_coefficients(cores, p, q),
        "trace": np.array(trace),
        "ortho_trace": np.array(ortho_trace),
        "converged": converged,
        "iterations_used": len(trace),
        "relaxed_ridge_used": ridge_used,
        "error_updates_skipped": err_skipped,
        "compressed_modes": [m for m, span in enumerate(spans) if span is not None],
    }


def span_oracle_fit(x, cfg):
    """``oracle_fit`` for a fit with a compressed mode ``c``, in span
    coordinates as ``fit`` runs it: the data enter as ``Q.T dx``, read off
    the QR's ``R`` for the factored columns and embedded. Below its
    cap K the mode is swept as the rotation ``u`` of its factor ``Q u``,
    aligned like any other factor. At the cap it is held at ``Q``, whose
    rotation is the identity: no start, no SVD and no product, zero change,
    and ``||Q.T Q - I||`` as its orthonormality defect. Every projection is
    still recomputed at every mode, the core update runs one step at a time,
    and relaxed mode solves once for the last factor after the sweeps."""
    p, q = cfg.p, cfg.q
    embedded = mdt_temporal(x, cfg.tau)
    emb_shape = embedded.shape[:-1]
    dx = difference(embedded, cfg.d).slices
    n_modes, n_diff, start = len(emb_shape), dx.shape[-1], p + q
    found = [_oracle_span(dx, start, m) for m in range(n_modes - 1)]
    (c,) = [m for m, span in enumerate(found) if span is not None]
    basis, coordinates = found[c]
    spans = [basis if m == c else None for m in range(n_modes)]
    ranks = _oracle_ranks(cfg, emb_shape, spans)
    held = ranks[c] == basis.shape[1]
    data = mdt_temporal(coordinates, cfg.tau)
    # The truncated HOSVD of the objective's range in span coordinates, and
    # zero error tensors.
    factors = []
    for mode, r in enumerate(ranks):
        if held and mode == c:
            factors.append(None)
            continue
        w = unfold(data[..., start:], mode) @ unfold(data[..., start:], mode).T
        factors.append(linalg.svd(w).u[:, :r])
    y = data if held else mode_product(data, factors[c].T, c)
    errors = [np.zeros(ranks) for _ in range(q)]

    def project(t, skip=(), relaxed=False):
        for mode in range(n_modes):
            if mode != c and mode not in skip:
                mat = factors[mode].T
                if relaxed and mode == n_modes - 1:
                    mat = linalg.pinv(factors[mode])
                t = mode_product(t, mat, mode)
        return t

    def defect(f):
        return float(np.linalg.norm(f.T @ f - np.eye(f.shape[1])))

    held_defect = [defect(basis)] if held else []
    trace, ortho_trace = [], []
    converged = ridge_used = err_skipped = False
    for _ in range(cfg.max_iter):
        cores = project(y)
        est = estimate_coefficients(cores, p, q)
        previous = list(factors)
        for mode in range(n_modes):
            projection = project(y)
            new_cores = projection.copy()
            for j in range(start, n_diff):
                lags = [cores[..., j - i] for i in range(1, p + 1)]
                new_cores[..., j] = update_core(
                    projection[..., j], lags, errors, est.alpha, est.beta
                )
            cores = new_cores
            if held and mode == c:
                continue
            source = data if mode == c else y
            partial = project(source[..., start:], skip={mode})
            w = unfold(partial, mode) @ unfold(cores[..., start:], mode).T
            factors[mode] = _oracle_align(linalg.svd(w).u, factors[mode])
            if mode == c:
                y = mode_product(data, factors[c].T, c)
        for i in range(q):
            errors[i], skipped = update_error(cores, est.alpha, est.beta, errors, i)
            err_skipped = err_skipped or skipped
        swept = [m for m in range(n_modes) if not (held and m == c)]
        change = sum(float(np.sum((factors[m] - previous[m]) ** 2)) for m in swept)
        delta = change / sum(ranks)
        trace.append(delta)
        ortho_trace.append(max(held_defect + [defect(factors[m]) for m in swept]))
        if delta < cfg.tol:
            converged = True
            break
    relaxed = cfg.ortho == "relaxed"
    if relaxed:
        factors[-1], ridge_used = update_factor_relaxed(
            data[..., start:], cores[..., start:], factors
        )
    cores = project(y, relaxed=relaxed)
    factors[c] = basis if held else basis @ factors[c]
    return {
        "factors": tuple(factors),
        "cores": cores,
        "errors": tuple(errors),
        "coeffs": estimate_coefficients(cores, p, q),
        "trace": np.array(trace),
        "ortho_trace": np.array(ortho_trace),
        "converged": converged,
        "iterations_used": len(trace),
        "relaxed_ridge_used": ridge_used,
        "error_updates_skipped": err_skipped,
        "compressed_modes": [c],
    }


# J=60 series in mode 1 of a 2x60 panel, K_1 = 2 * (6 + 3 - 1) = 16 distinct
# Hankel columns; mode 0 (J=2) has K_0 = 60 * 8 = 480 and stays dense.
_MODE1_PANEL = synth_dataset("sinusoid-mixture", 120, 12, 0.05, seed=5).reshape(2, 60, 12)


FIT_PANELS = {
    "20x40": BENCH,
    "12x8x48": synth_dataset("sinusoid-mixture", 96, 48, 0.05, seed=7).reshape(12, 8, 48),
    "200x120": synth_dataset("sinusoid-mixture", 200, 120, 0.05, seed=3),
}
FIT_CASES = [
    pytest.param(panel, ModelConfig(p=p, d=d, q=q, tau=tau, ortho=ortho),
                 id=f"{panel}-d{d}-tau{tau}-p{p}q{q}-{ortho}")
    for panel in FIT_PANELS
    for d in (0, 1, 2)
    for tau in (1, 3, 4)
    for p, q in ((2, 1), (1, 2), (3, 0), (0, 1))
    for ortho in ("full", "relaxed")
    if panel != "200x120"
] + [
    # Large enough that BLAS blocks its products differently by operand
    # shape: a partial projection sliced from the full-stack one differs here.
    pytest.param("200x120", ModelConfig(max_iter=2), id="200x120-full"),
    # Below its cap K = 116 the compressed mode is swept in span coordinates.
    pytest.param("200x120", ModelConfig(ranks=(100, 3), max_iter=2), id="200x120-r100"),
]


@pytest.mark.parametrize("panel, cfg", FIT_CASES)
def test_fit_bit_identical_to_fresh_projection_sweep(panel, cfg):
    m = fit(FIT_PANELS[panel], cfg)
    # Only the 200x120 panel has more series (J=200) than distinct Hankel
    # columns (K = 114 + 3 - 1 = 116), so only it takes the compressed path,
    # which fit runs in span coordinates.
    want = (span_oracle_fit if panel == "200x120" else oracle_fit)(FIT_PANELS[panel], cfg)
    assert want["compressed_modes"] == ([0] if panel == "200x120" else [])
    for name in ("factors", "errors"):
        got_arrays, want_arrays = getattr(m, name), want[name]
        assert len(got_arrays) == len(want_arrays)
        assert all(np.array_equal(a, b) for a, b in zip(got_arrays, want_arrays)), name
    for name in ("cores", "trace", "ortho_trace"):
        assert np.array_equal(getattr(m, name), want[name]), name
    coeffs = want["coeffs"]
    assert np.array_equal(m.coeffs.alpha, coeffs.alpha)
    assert np.array_equal(m.coeffs.beta, coeffs.beta)
    assert (m.coeffs.ar_fallback, m.coeffs.ma_fallback) == (
        coeffs.ar_fallback, coeffs.ma_fallback
    )
    for name in ("converged", "iterations_used", "relaxed_ridge_used", "error_updates_skipped"):
        assert getattr(m, name) == want[name], name
    ref = replace(m, **{k: want[k] for k in ("factors", "cores", "errors", "coeffs")})
    got_fc, want_fc = forecast(m, 6), forecast(ref, 6)
    assert np.array_equal(got_fc.forecasts, want_fc.forecasts)
    assert np.array_equal(got_fc.embedded_forecasts, want_fc.embedded_forecasts)


WORK_PANELS = {**FIT_PANELS, "2x60x12": _MODE1_PANEL}


@pytest.mark.parametrize(
    "panel, full, relaxed",
    [("20x40", 17, 20), ("200x120", 4, 5), ("12x8x48", 39, 44), ("2x60x12", 17, 20)],
)
def test_fit_projection_work(monkeypatch, panel, full, relaxed):
    """Mode products one three-sweep fit makes, as a guard on projection
    work: the core updates share one running prefix, each factor's partial
    projection is taken afresh from the data, and relaxed mode closes with
    the last-factor solve's projection on the leading modes and one
    projection through the last factor's pseudo-inverse. The compressed
    mode of 200x120 and 2x60x12 runs at its cap, held at its span. The
    data's coordinates in the span come from the QR, not from a product;
    no product, start or basis is taken on the mode, and the mode after it
    reuses its projection."""
    calls = []

    def counted(*args):
        calls.append(1)
        return mode_product(*args)

    monkeypatch.setattr(bht_arima.model, "mode_product", counted)
    for ortho, want in (("full", full), ("relaxed", relaxed)):
        calls.clear()
        fit(WORK_PANELS[panel], ModelConfig(max_iter=3, tol=1e-30, ortho=ortho))
        assert len(calls) == want, ortho


# --- factor bases inside the block-Hankel span ---------------------------------


def _same_bytes(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("d", [0, 1, 2])
@pytest.mark.parametrize("tau", [1, 3, 4])
def test_differenced_embedding_is_hankel(d, tau):
    # The compressed factor basis relies on dx[..., k, t] == dx[..., k+1, t-1],
    # and fit on differencing commuting with the embedding: it differences
    # the panel, embeds the differences, and builds the differencing state
    # from the last tau + d steps alone.
    for x in (BENCH, _order3_panel()):
        ds = difference(mdt_temporal(x, tau), d)
        dx = ds.slices
        assert np.array_equal(dx[..., 1:, :-1], dx[..., :-1, 1:])
        assert _same_bytes(mdt_temporal(difference(x, d).slices, tau), dx)
        recent = difference(mdt_temporal(x[..., -(tau + d) :], tau), d)
        assert len(recent.tails) == len(ds.tails) == d
        assert all(_same_bytes(a, b) for a, b in zip(recent.tails, ds.tails))
        assert _same_bytes(recent.slices, dx[..., -1:])


SPAN_PANELS = [
    pytest.param(FIT_PANELS["200x120"], ModelConfig(), 0, id="200x120"),
    pytest.param(_MODE1_PANEL, ModelConfig(), 1, id="2x60x12"),
    *[
        pytest.param(np.full(shape, 2.5), ModelConfig(d=0), 0, id=f"constant-d0-{shape[0]}")
        for shape in ((50, 12), (300, 40))
    ],
    *[
        pytest.param(
            3.0 + np.linspace(0.5, 1.5, shape[0])[:, None] * np.arange(shape[1] + 0.0),
            ModelConfig(), 0, id=f"trend-{shape[0]}",
        )
        for shape in ((50, 12), (300, 40))
    ],
]


@pytest.mark.parametrize("x, cfg, mode", SPAN_PANELS)
def test_span_coordinates_are_read_off_r(x, cfg, mode):
    # Q.T times the columns a Householder QR factors is its R, so the
    # coordinates need no projection of the embedded differences.
    cols = difference(x, cfg.d).slices
    spans, coords = bht_arima.model._hankel_spans(cols, cfg.p + cfg.q)
    assert [m for m, span in enumerate(spans) if span is not None] == [mode]
    dx = difference(mdt_temporal(x, cfg.tau), cfg.d).slices
    want = mode_product(dx, spans[mode].T, mode)
    assert _relative(mdt_temporal(coords, cfg.tau), want) <= 1e-13


def _basis_problem(rank, seed=4):
    """A 60-series panel short enough that J=60 exceeds the K=21 distinct
    Hankel columns, with a random window factor and random cores."""
    rng = np.random.default_rng(seed)
    x = synth_dataset("sinusoid-mixture", 60, 25, 0.05, seed=seed)
    start = 3
    dx = difference(mdt_temporal(x, 3), 1).slices
    partial = mode_product(dx[..., start:], random_orthonormal(rng, 3, 3).T, 1)
    cores = rng.standard_normal((rank, 3, dx.shape[-1] - start))
    spans, _ = bht_arima.model._hankel_spans(difference(x, 1).slices, start)
    return partial, cores, spans


@pytest.mark.parametrize("rank", [10, 21, 48], ids=["R<K", "R=K", "R>K"])
def test_compressed_factor_spans_the_dense_basis(rank):
    # fit caps the compressed mode's rank at K, so R=48 runs at R=K=21
    capped = min(rank, 21)
    partial, cores, spans = _basis_problem(capped)
    assert spans[1] is None
    span = spans[0]
    assert span.shape == (60, 21)
    assert np.max(np.abs(span.T @ span - np.eye(21))) < 1e-12
    # In span coordinates the basis is the rotation u of the factor Q u,
    # signed to continue the rotation it replaces.
    previous = random_orthonormal(np.random.default_rng(6), 21, capped)
    rotation = bht_arima.model._factor_basis(
        mode_product(partial, span.T, 0), cores, 0, previous
    )
    assert rotation.shape == (21, capped)
    got = span @ rotation
    assert np.max(np.abs(got.T @ got - np.eye(capped))) < 1e-12
    w = unfold(partial, 0) @ unfold(cores, 0).T
    dense = linalg.svd(w)
    r = int(np.sum(dense.s > 1e-10 * dense.s[0]))
    assert 0 < r <= capped
    # the leading columns are the plain SVD's up to sign, and no column
    # points against the one it replaces, in span coordinates or in Q u
    plain = linalg.svd(span.T @ w).u
    cosines = np.abs(np.sum(rotation[:, :r] * plain[:, :r], axis=0))
    assert np.max(np.abs(cosines - 1)) < 1e-10
    assert np.all(np.sum(rotation * previous, axis=0) >= 0)
    assert np.all(np.sum(got * (span @ previous), axis=0) >= 0)
    proj_got = got[:, :r] @ got[:, :r].T
    proj_dense = dense.u[:, :r] @ dense.u[:, :r].T
    assert np.max(np.abs(proj_got - proj_dense)) < 1e-10
    # the columns past the data's rank are orthogonal to range(W)
    assert np.linalg.norm(got[:, r:].T @ w) < 1e-10 * np.linalg.norm(w)


@pytest.mark.parametrize(
    "x",
    [BENCH, _order3_panel(), synth_dataset("sinusoid-mixture", 21, 25, 0.05, seed=4)],
    ids=["20x40", "order3", "J=K=21"],
)
def test_factor_basis_is_the_dense_svd_when_modes_fit(x):
    # J <= K in every mode: no span is built and the basis is linalg.svd(W).u,
    # with LAPACK's signs at the start and, given the factor it replaces, up
    # to column sign with every column signed to continue that factor's.
    dx = difference(mdt_temporal(x, 3), 1).slices
    start = 3
    ranks = ModelConfig().resolved_ranks(dx.shape[:-1])
    cols = difference(x, 1).slices
    spans, coords = bht_arima.model._hankel_spans(cols, start)
    assert spans == [None] * len(ranks)
    assert coords is cols
    rng = np.random.default_rng(2)
    cores = rng.standard_normal((*ranks, dx.shape[-1] - start))
    for mode in range(len(ranks)):
        mats = [random_orthonormal(rng, j, r).T for j, r in zip(dx.shape[:-1], ranks)]
        partial = _sweep_project(dx[..., start:], mats, skip=mode)
        w = unfold(partial, mode) @ unfold(cores, mode).T
        u = linalg.svd(w).u
        assert np.array_equal(bht_arima.model._factor_basis(partial, cores, mode), u)
        previous = mats[mode].T
        got = bht_arima.model._factor_basis(partial, cores, mode, previous)
        assert np.array_equal(np.abs(got), np.abs(u))
        assert np.all(np.sum(got * previous, axis=0) >= 0)


@pytest.mark.parametrize("seed", [7, 11])
def test_full_fit_converges_on_200x90(seed):
    # 200 series and 90 steps: J=200 exceeds K=86 distinct Hankel columns.
    x = synth_dataset("sinusoid-mixture", 200, 100, 0.05, seed)[..., :90]
    cfg = ModelConfig()
    m = fit(x, cfg)
    assert m.converged
    assert m.iterations_used < cfg.max_iter
    assert m.trace[-1] < cfg.tol


def _column_counts(m):
    """Per series mode, its count K of distinct Hankel columns."""
    series = m.embedded_shape[:-1]
    n_distinct = m.cores.shape[-1] - (m.config.p + m.config.q) + m.tau - 1
    return [math.prod(series) // j * n_distinct for j in series]


def _compressed_modes(m):
    """Series modes whose extent exceeds their count of distinct Hankel columns."""
    return [mode for mode, k in enumerate(_column_counts(m)) if m.embedded_shape[mode] > k]


def _held_modes(m):
    """Compressed modes at their cap K, which ``fit`` holds at the span basis."""
    return [mode for mode in _compressed_modes(m) if m.ranks[mode] == _column_counts(m)[mode]]


_RW = synth_dataset("random-walk", 50, 12, 0.05, seed=3)
DEGENERATE_CASES = [
    pytest.param(np.zeros((50, 12)), ModelConfig(), id="zero"),
    pytest.param(np.full((50, 12), 2.5), ModelConfig(), id="constant"),
    pytest.param(np.full((50, 12), 2.5), ModelConfig(d=0), id="constant-d0"),
    pytest.param(_RW, ModelConfig(tau=1), id="tau1"),
    pytest.param(_RW, ModelConfig(d=0), id="d0"),
    pytest.param(_RW, ModelConfig(d=2), id="d2"),
    pytest.param(_RW, ModelConfig(ortho="relaxed"), id="relaxed"),
    pytest.param(
        synth_dataset("sinusoid-mixture", 80, 12, 0.05, seed=5).reshape(40, 2, 12),
        ModelConfig(), id="order3-40x2x12",
    ),
]


@pytest.mark.parametrize("x, cfg", DEGENERATE_CASES)
def test_compressed_path_on_degenerate_panels(x, cfg):
    m = fit(x, cfg)
    assert _compressed_modes(m) == [0]
    assert np.all(np.isfinite(forecast(m, 4).forecasts))
    n_constrained = len(m.factors) - (cfg.ortho == "relaxed")
    for f in m.factors[:n_constrained]:
        assert np.max(np.abs(f.T @ f - np.eye(f.shape[1]))) < 1e-12


# --- the compressed mode in span coordinates against the J-space reference ------


def _rel_diff(got, want):
    return float(np.max(np.abs(got - want))) / max(1.0, float(np.max(np.abs(want))))


def _assert_matches_jspace_reference(m, x, cfg):
    """``fit`` (span coordinates) agrees with ``oracle_fit``'s J-space sweep,
    which projects the data through the composed ``J x R`` factor at every
    mode: the projectors ``U Uᵀ``, the cores and the forecasts to 1e-10, the
    per-sweep factor change to 1e-8 relative (a zero change exactly), the
    sweep count and the stopping decision exactly."""
    want = oracle_fit(x, cfg)
    assert (m.iterations_used, m.converged) == (want["iterations_used"], want["converged"])
    assert np.all(np.abs(m.trace - want["trace"]) <= 1e-8 * want["trace"])
    for got_f, want_f in zip(m.factors, want["factors"]):
        assert _rel_diff(got_f @ got_f.T, want_f @ want_f.T) < 1e-10
    assert _rel_diff(m.cores, want["cores"]) < 1e-10
    ref = replace(m, **{k: want[k] for k in ("factors", "cores", "errors", "coeffs")})
    assert _rel_diff(forecast(m, 6).forecasts, forecast(ref, 6).forecasts) < 1e-10


@pytest.mark.parametrize("max_iter", [2, 10])
@pytest.mark.parametrize(
    "ranks, rank",
    [(None, 16), ((2, 10, 3), 10), ((2, 16, 3), 16), ((2, 30, 3), 16)],
    ids=["auto-R48>K", "R10<K", "R16=K", "R30>K"],
)
def test_compressed_mode_one_and_ranks_up_to_k(ranks, rank, max_iter):
    # A rank above K=16, automatic or given, is capped at K.
    cfg = ModelConfig(ranks=ranks, max_iter=max_iter)
    m = fit(_MODE1_PANEL, cfg)
    assert _compressed_modes(m) == [1]
    assert m.ranks == (2, rank, 3)
    assert m.factors[1].shape == (60, rank)
    assert np.all(np.isfinite(forecast(m, 4).forecasts))
    for f in m.factors:
        assert np.max(np.abs(f.T @ f - np.eye(f.shape[1]))) < 1e-12
    _assert_matches_jspace_reference(m, _MODE1_PANEL, cfg)


@pytest.mark.parametrize(
    "x, cfg",
    [
        pytest.param(FIT_PANELS["200x120"], ModelConfig(max_iter=2), id="200x120-full"),
        pytest.param(FIT_PANELS["200x120"], ModelConfig(), id="200x120-converged"),
        pytest.param(_MODE1_PANEL, ModelConfig(ortho="relaxed"), id="mode1-relaxed"),
        *[c for c in DEGENERATE_CASES
          if c.id in ("tau1", "d0", "d2", "relaxed", "order3-40x2x12")],
    ],
)
def test_span_coordinates_match_jspace_reference(x, cfg):
    _assert_matches_jspace_reference(fit(x, cfg), x, cfg)


@pytest.mark.parametrize(
    "shape", [(50, 12), (300, 40), (5, 40)], ids=["50x12", "300x40", "5x40"]
)
def test_trend_panel_forecasts_continue_the_trend(shape):
    # The differences of a linear trend are equal only to rounding, so the
    # AR estimate falls back to the random walk instead of fitting that
    # noise. The first two shapes take the compressed path.
    n, length = shape
    t = np.arange(length + 4.0)
    panel = 3.0 + np.linspace(0.5, 1.5, n)[:, None] * t
    m = fit(panel[:, :length], ModelConfig())
    assert m.coeffs.ar_fallback
    assert np.max(np.abs(forecast(m, 4).forecasts - panel[:, length:])) < 1e-6


@pytest.mark.parametrize(
    "shape, compressed",
    [((50, 12), [0]), ((300, 40), [0]), ((5, 40), [])],
    ids=["50x12", "300x40", "5x40"],
)
def test_constant_panel_at_d0_forecasts_the_constant(shape, compressed):
    # In span coordinates the head slices and the rest take different
    # arithmetic, so a constant panel's cores are equal only to rounding;
    # the AR estimate must still fall back.
    m = fit(np.full(shape, 2.5), ModelConfig(d=0))
    assert _compressed_modes(m) == compressed
    assert m.coeffs.ar_fallback
    assert np.max(np.abs(forecast(m, 4).forecasts - 2.5)) < 1e-12


# --- relaxed mode: the full-mode sweep plus one closing last-factor solve ------


RELAXED_CASES = [
    pytest.param(x, d, p, q, id=f"{name}-d{d}-p{p}q{q}")
    for name, x in [*FIT_PANELS.items(), ("2x60x12", _MODE1_PANEL)]
    for d in (0, 1, 2)
    for p, q in ((2, 1), (1, 2), (3, 0), (0, 1))
]


@pytest.mark.parametrize("x, d, p, q", RELAXED_CASES)
def test_relaxed_fit_sweeps_as_the_full_fit(x, d, p, q):
    full = fit(x, ModelConfig(p=p, d=d, q=q))
    relaxed = fit(x, ModelConfig(p=p, d=d, q=q, ortho="relaxed"))
    for name in ("trace", "ortho_trace"):
        assert np.array_equal(getattr(relaxed, name), getattr(full, name)), name
    assert (relaxed.iterations_used, relaxed.converged) == (full.iterations_used, full.converged)
    for name, count in (("errors", q), ("factors", len(full.factors) - 1)):
        got, want = getattr(relaxed, name), getattr(full, name)
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got[:count], want[:count])), name


@pytest.mark.parametrize("max_iter", [30, 60])
def test_relaxed_forecast_does_not_drift_with_more_sweeps(max_iter):
    # A last-factor solve inside every sweep would drift along the U_N c,
    # G / c scaling, which leaves the model unchanged, and so would the score.
    train, actual = BENCH[..., :35], BENCH[..., 35:]

    def score(n):
        m = fit(train, replace(BENCH_CFG, ortho="relaxed", max_iter=n))
        return nrmse(forecast(m, 5).forecasts, actual)

    base = score(10)
    assert abs(score(max_iter) - base) <= 0.1 * base


def test_relaxed_refit_backtest_beats_naive_on_order3_panel():
    # 12 refits in relaxed mode, as the benchmark's order-3 CLI backtest runs
    x = synth_dataset("sinusoid-mixture", 96, 60, 0.05, seed=7).reshape(12, 8, 60)
    n_train = math.floor(0.8 * x.shape[-1])
    report = rolling_backtest(x, ModelConfig(ortho="relaxed"), 0.8)
    naive = nrmse(x[..., n_train - 1 : -1], x[..., n_train:])
    assert report.nrmse < naive


def test_explosive_yule_walker_fit_takes_the_biased_resolve():
    # The unbiased Yule-Walker AR(6) of this fit's cores is explosive, and a
    # forecast from it reaches an nrmse of 5.9e19.
    train, actual = BENCH[..., :35], BENCH[..., 35:]
    m = fit(train, ModelConfig(d=1, p=6))
    gamma = np.array([autocovariance(m.cores, k) for k in range(7)])
    assert not ar_is_stable(linalg.solve_toeplitz(gamma))
    assert m.coeffs.ar_fallback and m.coeffs.ar_stable
    error = nrmse(forecast(m, 5).forecasts, actual)
    assert error < 0.7 * nrmse(naive_last_value(train, 5), actual)


# --- metamorphic relations -----------------------------------------------------

# 20x40 has no compressed mode; 200x60 has J=200 series against K = 57 - d
# distinct Hankel columns, so its series mode runs capped in span coordinates,
# and so does mode 1 of 2x60x12, which the sweep reaches after the dense mode 0.
META_PANELS = {
    "20x40": BENCH,
    "200x60": synth_dataset("sinusoid-mixture", 200, 60, 0.05, seed=7),
    "2x60x12": _MODE1_PANEL,
}
META_CASES = [
    pytest.param(panel, ortho, d, id=f"{panel}-{ortho}-d{d}")
    for panel in META_PANELS
    for ortho in ("full", "relaxed")
    for d in (0, 1)
]


def _meta_forecast(panel, ortho, d, transform=lambda z: z):
    x = transform(META_PANELS[panel])
    return forecast(fit(x, ModelConfig(d=d, ortho=ortho)), 5).forecasts


def _relative(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("panel, ortho, d", META_CASES)
def test_permuting_the_series_permutes_the_forecasts(panel, ortho, d):
    # Factor columns that keep their signs from sweep to sweep make the fit
    # independent of the row order LAPACK sees. The last series mode is
    # permuted, which is the compressed one on the panels that have one.
    axis = META_PANELS[panel].ndim - 2
    perm = np.random.default_rng(3).permutation(META_PANELS[panel].shape[axis])
    got = _meta_forecast(panel, ortho, d, lambda z: np.take(z, perm, axis))
    assert _relative(got, np.take(_meta_forecast(panel, ortho, d), perm, axis)) <= 1e-12


# 20x40 at full and at compressing ranks; 200x90 runs its series mode capped
# in span coordinates; 12x8x48 mixes both series modes over 10 sweeps.
MIX_PANELS = {
    "20x40": BENCH,
    "200x90": synth_dataset("sinusoid-mixture", 200, 100, 0.05, 7)[..., :90],
    "12x8x48": FIT_PANELS["12x8x48"],
}
MIX_CASES = [
    pytest.param(panel, modes, replace(cfg, ortho=ortho), id=f"{panel}-{name}-{ortho}")
    for panel, modes, name, cfg in [
        ("20x40", (0,), "20-3", ModelConfig(ranks=(20, 3))),
        ("20x40", (0,), "6-3", ModelConfig(ranks=(6, 3))),
        ("200x90", (0,), "auto", ModelConfig()),
        ("12x8x48", (0, 1), "tol1e-30", ModelConfig(tol=1e-30)),
    ]
    for ortho in ("full", "relaxed")
]


@pytest.mark.parametrize("panel, modes, cfg", MIX_CASES)
def test_orthogonally_mixing_the_series_mixes_the_forecasts(panel, modes, cfg):
    # The objective holds only Frobenius norms and scalar AR/MA weights, so
    # a fit of V x is the fit of x with V on the factors, and the sweep
    # keeps that only if every column keeps its sign from sweep to sweep.
    x = MIX_PANELS[panel]
    rng = np.random.default_rng(1)
    mixes = {mode: random_orthonormal(rng, x.shape[mode], x.shape[mode]) for mode in modes}

    def mix(z):
        for mode, v in mixes.items():
            z = mode_product(z, v, mode)
        return z

    got = forecast(fit(mix(x), cfg), 5).forecasts
    assert _relative(got, mix(forecast(fit(x, cfg), 5).forecasts)) <= 1e-12


# The benchmark's fit-large panel; its series mode runs capped at K = 186.
LARGE_PANEL = synth_dataset("sinusoid-mixture", 1000, 200, 0.05, 7)[..., :190]


@pytest.mark.parametrize(
    "x, cfg",
    [
        pytest.param(LARGE_PANEL, ModelConfig(), id="1000x190"),
        pytest.param(FIT_PANELS["12x8x48"], ModelConfig(tol=1e-30), id="12x8x48"),
        pytest.param(_MODE1_PANEL, ModelConfig(tol=1e-30), id="2x60x12"),
    ],
)
def test_factor_columns_keep_their_sign_between_sweeps(monkeypatch, x, cfg):
    returned = []

    def recording(*args):
        u = basis(*args)
        returned.append(u)
        return u

    basis = bht_arima.model._factor_basis
    monkeypatch.setattr(bht_arima.model, "_factor_basis", recording)
    m = fit(x, cfg)
    # A compressed mode at its cap is held, and no basis is taken on it.
    n_swept = len(m.factors) - len(_held_modes(m))
    assert len(returned) == n_swept * (m.iterations_used + 1)
    # The start returns the whole singular basis; the fit keeps the leading
    # columns, as many as each sweep returns.
    for old, new in zip(returned, returned[n_swept:]):
        assert np.all(np.sum(new * old[:, : new.shape[1]], axis=0) >= 0)


def test_fit_large_is_not_held_back_by_sign_flips():
    # A rule that picks each column's sign afresh every sweep (largest entry
    # positive) flips columns whose two largest entries nearly tie, 0.0958
    # and -0.0956 here; each flip reads as a factor change of 4/189, and the
    # fit runs 5 sweeps.
    assert fit(LARGE_PANEL, ModelConfig()).iterations_used <= 3


# --- the capped compressed mode is held at its span basis ------------------------


def _spans_of(x, cfg):
    return bht_arima.model._hankel_spans(difference(x, cfg.d).slices, cfg.p + cfg.q)[0]


@pytest.mark.parametrize(
    "x, cfg, held",
    [
        pytest.param(LARGE_PANEL, ModelConfig(), [0], id="1000x190-auto"),
        pytest.param(FIT_PANELS["200x120"], ModelConfig(), [0], id="200x120-auto"),
        pytest.param(_MODE1_PANEL, ModelConfig(), [1], id="2x60x12-auto"),
        pytest.param(_MODE1_PANEL, ModelConfig(ortho="relaxed"), [1], id="2x60x12-relaxed"),
        pytest.param(LARGE_PANEL, ModelConfig(ranks=(6, 3)), [], id="1000x190-6-3"),
    ],
)
def test_capped_compressed_mode_takes_no_svd(monkeypatch, x, cfg, held):
    # At its cap K the compressed factor Q u is a rotation of the span Q that
    # the objective cannot see, so the mode is held at Q: no SVD of K rows,
    # neither the start nor a sweep's. Below the cap it is swept as before.
    rows = []

    def recording(a):
        rows.append(np.shape(a)[0])
        return svd(a)

    svd = bht_arima.linalg.svd
    monkeypatch.setattr(bht_arima.linalg, "svd", recording)
    m = fit(x, cfg)
    (c,) = _compressed_modes(m)
    assert _held_modes(m) == held
    k = _column_counts(m)[c]
    if held:
        assert k not in rows
        assert np.array_equal(m.factors[c], _spans_of(x, cfg)[c])
    else:
        # the start and every sweep take the mode's SVD in span coordinates
        assert rows.count(k) == m.iterations_used + 1


@pytest.mark.parametrize("ortho", ["full", "relaxed"])
@pytest.mark.parametrize(
    "x", [LARGE_PANEL, _MODE1_PANEL], ids=["1000x190", "2x60x12"]
)
def test_any_basis_of_the_span_gives_the_same_forecasts(monkeypatch, x, ortho):
    # Holding the capped mode at Q loses nothing: Q V, for any orthogonal V,
    # spans the same space and gives the same forecasts to rounding. The
    # coordinates in Q V are V.T times those in Q.
    cfg = ModelConfig(ortho=ortho)
    want = forecast(fit(x, cfg), 5).forecasts
    hankel_spans = bht_arima.model._hankel_spans
    rng = np.random.default_rng(8)

    def rotated(cols, start):
        spans, coords = hankel_spans(cols, start)
        for mode, q in enumerate(spans):
            if q is not None:
                v = random_orthonormal(rng, q.shape[1], q.shape[1])
                spans[mode] = q @ v
                coords = mode_product(coords, v.T, mode)
        return spans, coords

    monkeypatch.setattr(bht_arima.model, "_hankel_spans", rotated)
    m = fit(x, cfg)
    assert _held_modes(m)
    assert _relative(forecast(m, 5).forecasts, want) <= 1e-12


@pytest.mark.parametrize("panel, ortho, d", META_CASES)
def test_scaling_the_panel_scales_the_forecasts(panel, ortho, d):
    base = _meta_forecast(panel, ortho, d)
    # a power of two shifts exponents only, so every rounding is the same
    assert np.array_equal(_meta_forecast(panel, ortho, d, lambda z: 2.0 * z), 2.0 * base)
    for scale in (1e6, 1e-6):
        got = _meta_forecast(panel, ortho, d, lambda z: scale * z)
        assert _relative(got, scale * base) <= 1e-12, scale


@pytest.mark.parametrize("ortho", ["full", "relaxed"])
@pytest.mark.parametrize("panel", list(META_PANELS))
def test_a_per_series_offset_shifts_the_forecasts(panel, ortho):
    # d = 1 differences the offset away.
    offset = np.random.default_rng(5).uniform(-5.0, 5.0, (*META_PANELS[panel].shape[:-1], 1))
    got = _meta_forecast(panel, ortho, 1, lambda z: z + offset)
    assert _relative(got, _meta_forecast(panel, ortho, 1) + offset) <= 1e-12
