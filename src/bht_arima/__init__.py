"""Forecasting for panels of (possibly short) time series.

The pipeline delay-embeds the temporal mode into a block Hankel tensor,
learns compressed core tensors through jointly optimized Tucker factors,
fits a tensor-form ARIMA on the core sequence, and maps predictions back
through the inverse transforms.
"""

from .coeffs import ArimaCoefficients
from .errors import (
    BhtArimaError,
    ConfigError,
    DataFormatError,
    NumericalError,
    SingularSystemError,
)
from .evaluate import EvalReport, naive_last_value, nrmse, rolling_backtest, synth_dataset
from .mdt import inverse_mdt_temporal, mdt_temporal
from .model import (
    FittedModel,
    ForecastResult,
    ModelConfig,
    append_observation,
    fit,
    forecast,
)
from .tensor import fold, mode_product, multi_mode_product, unfold

__version__ = "0.1.0"

__all__ = [
    "ArimaCoefficients",
    "BhtArimaError",
    "ConfigError",
    "DataFormatError",
    "EvalReport",
    "FittedModel",
    "ForecastResult",
    "ModelConfig",
    "NumericalError",
    "SingularSystemError",
    "append_observation",
    "fit",
    "fold",
    "forecast",
    "inverse_mdt_temporal",
    "mdt_temporal",
    "mode_product",
    "multi_mode_product",
    "naive_last_value",
    "nrmse",
    "rolling_backtest",
    "synth_dataset",
    "unfold",
]
