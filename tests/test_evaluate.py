"""Evaluation harness tests: metric, baselines, backtests, generators."""

import argparse

import numpy as np
import pytest

import bht_arima.cli as cli
import bht_arima.evaluate as evaluate
from bht_arima.errors import ConfigError, DataFormatError
from bht_arima.evaluate import (
    EvalReport,
    naive_last_value,
    nrmse,
    rolling_backtest,
    synth_dataset,
)
from bht_arima.model import ModelConfig, fit


def test_nrmse_basics():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert nrmse(a, a) == 0.0
    assert nrmse(np.zeros_like(a), a) == 1.0
    assert np.isclose(nrmse(2.0 * a, a), 1.0)


def test_nrmse_scale_invariance():
    # exact equality needs a power-of-two scale (pure exponent shift)
    rng = np.random.default_rng(0)
    f = rng.standard_normal((3, 4))
    a = rng.standard_normal((3, 4))
    assert nrmse(f, a) == nrmse(-8.0 * f, -8.0 * a)
    assert np.isclose(nrmse(f, a), nrmse(-7.5 * f, -7.5 * a), rtol=1e-12)


def test_nrmse_errors():
    with pytest.raises(ValueError):
        nrmse(np.ones((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        nrmse(np.ones((2, 2)), np.ones((2, 3)))


def test_naive_last_value():
    x = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    got = naive_last_value(x, 3)
    assert got.shape == (2, 3)
    assert np.array_equal(got, np.array([[3.0] * 3, [6.0] * 3]))
    with pytest.raises(ValueError):
        naive_last_value(x, 0)
    assert naive_last_value(x, np.int64(2)).shape == (2, 2)


@pytest.mark.parametrize("horizon", [2.5, 2.0, True, np.float64(3.0)])
def test_naive_last_value_rejects_non_integral_horizon(horizon):
    with pytest.raises(ValueError, match="horizon must be an integer"):
        naive_last_value(np.ones((3, 5)), horizon)


def test_naive_constant_series_zero_error():
    x = np.full((3, 10), 2.0)
    preds = naive_last_value(x[..., :8], 2)
    assert nrmse(preds, x[..., 8:]) == 0.0


def test_naive_linear_ramp_error_grows_linearly():
    t = np.arange(12.0)
    x = np.vstack([2.0 * t, -1.0 * t])
    preds = naive_last_value(x[:, :8], 4)
    abs_err = [np.linalg.norm(preds[:, h] - x[:, 8 + h]) for h in range(4)]
    ratios = np.array(abs_err) / abs_err[0]
    assert np.allclose(ratios, [1.0, 2.0, 3.0, 4.0], rtol=1e-10)


def test_synth_determinism_and_kinds():
    for kind in ("sinusoid-mixture", "ar2-panel", "random-walk"):
        a = synth_dataset(kind, 5, 30, 0.5, seed=42)
        b = synth_dataset(kind, 5, 30, 0.5, seed=42)
        assert np.array_equal(a, b)
        assert np.array_equal(synth_dataset(kind, 5, 30, 0.5, seed=np.int64(42)), a)
        assert a.shape == (5, 30)
    with pytest.raises(ValueError):
        synth_dataset("fractal", 5, 30, 0.5, seed=0)
    with pytest.raises(ValueError):
        synth_dataset("random-walk", 5, 30, -1.0, seed=0)


@pytest.mark.parametrize(
    "noise, seed, name",
    [(np.nan, 0, "noise"), (np.inf, 0, "noise"), (0.1, -1, "seed"), (0.1, 1.5, "seed"),
     (0.1, True, "seed")],
)
def test_synth_rejects_non_finite_noise_and_bad_seed(noise, seed, name):
    with pytest.raises(ValueError, match=name):
        synth_dataset("random-walk", 5, 30, noise, seed)


@pytest.mark.parametrize(
    "n_series, length, name",
    [(2.5, 30, "n_series"), (True, 30, "n_series"), (0, 30, "n_series"),
     (5, 30.0, "length"), (5, np.False_, "length"), (5, 0, "length")],
)
def test_synth_rejects_non_integral_sizes(n_series, length, name):
    for kind in evaluate.SYNTH_KINDS:
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            synth_dataset(kind, n_series, length, 0.1, 0)
    assert synth_dataset("random-walk", np.int64(3), np.int32(4), 0.1, 0).shape == (3, 4)


def test_synth_sinusoid_rank_three():
    x = synth_dataset("sinusoid-mixture", 12, 60, 0.0, seed=5)
    s = np.linalg.svd(x, compute_uv=False)
    assert s[3] < 1e-8 * s[0]


def test_synth_ar2_recovery():
    from bht_arima.coeffs import estimate_ar

    panel = synth_dataset("ar2-panel", 50, 200, 1.0, seed=13)
    alpha, fallback = estimate_ar(panel, 2)
    assert not fallback
    assert np.all(np.abs(alpha - np.array([0.5, -0.3])) < 0.1)


def test_rolling_backtest_constant_series():
    x = np.full((4, 30), 5.0)
    cfg = ModelConfig(p=1, d=1, q=1, tau=3, max_iter=5, tol=1e-5, seed=0)
    report = rolling_backtest(x, cfg, train_fraction=0.8, horizon=1)
    assert report.nrmse < 1e-8
    assert np.all(report.per_step_nrmse < 1e-8)
    assert report.protocol == "rolling-one-step"


def test_rolling_backtest_validation():
    x = np.zeros((2, 20))
    cfg = ModelConfig()
    with pytest.raises(ConfigError):
        rolling_backtest(x, cfg, train_fraction=1.5)
    with pytest.raises(ConfigError):
        rolling_backtest(x, cfg, train_fraction=0.9, horizon=0)
    with pytest.raises(ConfigError):
        rolling_backtest(x, cfg, train_fraction=0.5, horizon=50)
    for horizon in (2.5, 2.0, True):
        with pytest.raises(ConfigError, match="horizon must be an integer"):
            rolling_backtest(x, cfg, train_fraction=0.5, horizon=horizon)


@pytest.mark.parametrize(
    "horizon, refit, zero_cols, first",
    [(1, True, [28], 28), (1, False, [29, 26], 26), (5, True, [28, 29], 28)],
)
def test_rolling_backtest_refuses_zero_held_out_slice_before_fitting(
    monkeypatch, horizon, refit, zero_cols, first
):
    x = synth_dataset("sinusoid-mixture", 5, 30, 0.05, seed=1)
    x[:, zero_cols] = 0.0

    def forbidden(*args, **kwargs):
        raise AssertionError("fit before the held-out slices were checked")

    monkeypatch.setattr(evaluate, "fit", forbidden)
    with pytest.raises(ConfigError, match=rf"time index {first} has zero norm"):
        rolling_backtest(x, ModelConfig(), 0.8, horizon=horizon, refit=refit)


@pytest.mark.parametrize(
    "index, horizon, refit",
    [((2, 39), 8, True), ((2, 39), 1, True), ((2, 39), 1, False), ((0, 3), 1, True)],
)
def test_rolling_backtest_refuses_non_finite_panel_before_fitting(
    monkeypatch, index, horizon, refit
):
    x = synth_dataset("sinusoid-mixture", 5, 40, 0.05, seed=1)
    x[index] = np.nan

    def forbidden(*args, **kwargs):
        raise AssertionError("fit before the panel was checked")

    monkeypatch.setattr(evaluate, "fit", forbidden)
    with pytest.raises(DataFormatError, match=rf"at index \({index[0]}, {index[1]}\)"):
        rolling_backtest(x, ModelConfig(), 0.8, horizon=horizon, refit=refit)


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
@pytest.mark.parametrize("refit", [True, False])
def test_rolling_backtest_refuses_a_non_real_panel_before_fitting(
    monkeypatch, convert, dtype, refit
):
    # A float64 cast would score the real part alone, or fail inside numpy
    # with a bare ValueError.
    x = synth_dataset("sinusoid-mixture", 5, 40, 0.05, seed=1)

    def forbidden(*args, **kwargs):
        raise AssertionError("fit before the panel was checked")

    monkeypatch.setattr(evaluate, "fit", forbidden)
    with pytest.raises(DataFormatError, match=rf"panel: .*dtype {dtype}"):
        rolling_backtest(convert(x), ModelConfig(), 0.8, refit=refit)


@pytest.mark.parametrize("convert, dtype", NON_REAL)
def test_scoring_helpers_refuse_non_real_input(convert, dtype):
    # A float64 cast would drop the imaginary part: nrmse(x + 5j, x) read 0.
    x = synth_dataset("sinusoid-mixture", 5, 12, 0.05, seed=1)
    with pytest.raises(DataFormatError, match=rf"forecast: .*dtype {dtype}"):
        nrmse(convert(x), x)
    with pytest.raises(DataFormatError, match=rf"actual: .*dtype {dtype}"):
        nrmse(x, convert(x))
    with pytest.raises(DataFormatError, match=rf"panel: .*dtype {dtype}"):
        naive_last_value(convert(x), 2)


def test_scoring_helpers_still_cast_numeric_text():
    x = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert nrmse(x.astype(str), x) == 0.0
    assert np.array_equal(naive_last_value(x.astype(object), 2), naive_last_value(x, 2))


def test_rolling_backtest_scores_only_the_first_horizon_slices():
    # the multi-step protocol scores slices 24..27, so a zero slice 28 is fine
    x = synth_dataset("sinusoid-mixture", 5, 30, 0.05, seed=1)
    x[:, 28] = 0.0
    report = rolling_backtest(x, ModelConfig(), 0.8, horizon=4)
    assert report.per_step_nrmse.shape == (4,)
    assert np.isfinite(report.nrmse)


def test_rolling_backtest_perfect_stub_scores_zero(monkeypatch):
    # a stub that memorizes the next true slice must yield exactly zero
    # NRMSE, pinning the forecast/actual alignment of the harness
    x = np.cumsum(np.random.default_rng(1).standard_normal((3, 25)), axis=1)

    class StubModel:
        def __init__(self, n_seen):
            self.n_seen = n_seen
            self.converged = True

    def stub_fit(prefix, cfg):
        return StubModel(prefix.shape[-1])

    def stub_forecast(model, horizon):
        class R:
            forecasts = x[..., model.n_seen : model.n_seen + horizon]
            converged = True
            iterations_used = 1

        return R()

    monkeypatch.setattr(evaluate, "fit", stub_fit)
    monkeypatch.setattr(evaluate, "forecast", stub_forecast)
    report = rolling_backtest(x, ModelConfig(), train_fraction=0.8, horizon=1)
    assert report.nrmse == 0.0


def test_rolling_backtest_multi_step():
    x = synth_dataset("sinusoid-mixture", 6, 40, 0.05, seed=3)
    cfg = ModelConfig(p=2, d=1, q=1, tau=3, ranks=(6, 3), max_iter=10, seed=0)
    report = rolling_backtest(x, cfg, train_fraction=0.75, horizon=5)
    assert report.protocol == "recursive-multi-step"
    assert report.per_step_nrmse.shape == (5,)
    assert report.n_train == 30 and report.n_test == 10


def test_rolling_backtest_no_refit_path():
    x = synth_dataset("sinusoid-mixture", 6, 40, 0.05, seed=3)
    cfg = ModelConfig(p=2, d=1, q=1, tau=3, ranks=(6, 3), max_iter=10, seed=0)
    r1 = rolling_backtest(x, cfg, train_fraction=0.9, horizon=1, refit=False)
    r2 = rolling_backtest(x, cfg, train_fraction=0.9, horizon=1, refit=False)
    assert r1.to_text() == r2.to_text()
    assert not r1.refit


def test_report_roundtrip_carries_config():
    x = synth_dataset("sinusoid-mixture", 6, 40, 0.05, seed=3)
    cfg = ModelConfig(
        p=1, d=1, q=0, tau=2, ranks=(5, 2), max_iter=7, tol=1e-4,
        ortho="relaxed", seed=11,
    )
    report = rolling_backtest(x, cfg, train_fraction=0.8, horizon=1)
    parsed = {}
    for line in report.to_text().splitlines():
        key, value = line.split(" = ")
        parsed[key] = value
    for key in ("p", "d", "q", "tau", "max_iter", "seed"):
        assert int(parsed[key]) == getattr(cfg, key)
    assert tuple(int(r) for r in parsed["ranks"].split(",")) == cfg.ranks
    assert float(parsed["tol"]) == cfg.tol
    assert parsed["ortho"] == cfg.ortho
    assert float(parsed["train_fraction"]) == 0.8
    assert float(parsed["nrmse"]) == pytest.approx(report.nrmse, rel=1e-8)


def test_report_echoes_the_requested_ranks_while_fits_run_capped():
    # 50 series over 20 steps: every refit's series mode holds more series
    # than distinct Hankel columns, K = n - d - p - q at length n.
    x = synth_dataset("sinusoid-mixture", 50, 20, 0.05, seed=3)
    cfg = ModelConfig(ranks=(30, 3))
    report = rolling_backtest(x, cfg, train_fraction=0.8)
    assert "ranks = 30,3\n" in report.to_text()
    # refits at different lengths cap differently
    models = [fit(x[..., :n], cfg) for n in (16, 17)]
    assert [m.ranks for m in models] == [(12, 3), (13, 3)]
    args = argparse.Namespace(command="fit-forecast", dataset="panel.csv", horizon=1)
    assert "ranks = 12,3\n" in cli._summary_text(args, models[0])


def test_report_text_excludes_runtime():
    report = EvalReport(
        nrmse=0.5, per_step_nrmse=np.array([0.5]), runtime_seconds=123.0,
        config_echo=ModelConfig(), converged_fraction=1.0,
        protocol="rolling-one-step", train_fraction=0.9, horizon=1,
        n_train=9, n_test=1, refit=True,
    )
    assert "runtime" not in report.to_text()


def test_random_walk_persistence_equivalence():
    # with a lossless Tucker layer and AR(1) on raw values, the model tracks
    # the naive last-value forecast on a random walk
    x = synth_dataset("random-walk", 20, 500, 1.0, seed=3)
    cfg = ModelConfig(p=1, d=0, q=0, tau=1, ranks=(20, 1), max_iter=10, seed=0)
    report = rolling_backtest(x, cfg, train_fraction=0.96, horizon=1)
    n_train = report.n_train
    baseline = nrmse(x[..., n_train - 1 : -1], x[..., n_train:])
    assert report.nrmse <= 1.05 * baseline
