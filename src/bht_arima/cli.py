"""Command-line front end: fit-forecast, backtest, and synth commands.

Datasets are CSV (rows = series, columns = time, optional header row) or the
flat tensor text format (extents header plus flat values) for higher-order
inputs. Reports are key-value text; all outputs are written atomically
(write-then-rename) and are byte-identical across runs for the same
specification and seed. Exit codes: 0 success, 1 usage/validation error,
2 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import tempfile

import numpy as np

from .errors import BhtArimaError, ConfigError, DataFormatError, NumericalError
from .evaluate import rolling_backtest, synth_dataset
from .model import FittedModel, ModelConfig, _require_finite, fit, forecast
from .tensor import read_flat_tensor, write_flat_tensor

__all__ = [
    "parse_csv",
    "load_dataset",
    "main",
    "entrypoint",
]

USAGE_ERROR = 1
NUMERICAL_ERROR = 2


def parse_csv(path: str) -> np.ndarray:
    """Parse a rectangular numeric CSV into an ``(series, time)`` array.

    A non-numeric first row is treated as a header and skipped. Ragged rows
    and non-numeric cells are reported with their location.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [(i + 1, row) for i, row in enumerate(csv.reader(fh)) if row]
    if not rows:
        raise DataFormatError(f"{path}: empty file")

    def to_floats(lineno: int, row: list[str]) -> list[float]:
        values = []
        for col, cell in enumerate(row, start=1):
            try:
                values.append(float(cell))
            except ValueError:
                raise DataFormatError(
                    f"{path}: non-numeric cell at line {lineno}, column {col}: {cell!r}"
                ) from None
        return values

    def is_numeric(row: list[str]) -> bool:
        try:
            [float(cell) for cell in row]
            return True
        except ValueError:
            return False

    if not is_numeric(rows[0][1]):
        rows = rows[1:]
        if not rows:
            raise DataFormatError(f"{path}: no numeric rows after header")
    data = []
    width = None
    for lineno, row in rows:
        values = to_floats(lineno, row)
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise DataFormatError(
                f"{path}: ragged row at line {lineno}: "
                f"expected {width} columns, found {len(values)}"
            )
        data.append(values)
    return np.array(data, dtype=np.float64)


def load_dataset(path: str, fmt: str) -> np.ndarray:
    """Load a CSV or flat tensor file, rejecting NaN and inf values."""
    if fmt == "csv":
        data = parse_csv(path)
    elif fmt == "flat":
        data = read_flat_tensor(path)
    else:
        raise ConfigError(f"unknown dataset format {fmt!r}")
    _require_finite(data, path)
    return data


def _atomic_write(path: str, content: str | np.ndarray) -> None:
    """Write ``content`` (text, or an array in the flat tensor format) to a
    temporary file beside ``path`` and rename it into place; on failure the
    temporary file is removed and ``path`` is left untouched. An error from
    the operating system is raised again naming ``path``, not the temporary
    file."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
        os.close(fd)
        if isinstance(content, str):
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(content)
        else:
            write_flat_tensor(tmp, content)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def _csv_text(matrix: np.ndarray, digits: str = ".9g") -> str:
    lines = [",".join(format(v, digits) for v in row) for row in np.atleast_2d(matrix)]
    return "\n".join(lines) + "\n"


def _forecast_files(
    args: argparse.Namespace, model: FittedModel, forecasts: np.ndarray
) -> None:
    out_path = args.forecast_out or _default_out(args.dataset, "forecast.csv")
    # Higher-order slices: one flat tensor holding (slice shape, horizon).
    content = _csv_text(forecasts) if forecasts.ndim == 2 else forecasts
    _atomic_write(out_path, content)
    summary_path = args.summary_out or _default_out(args.dataset, "summary.txt")
    _atomic_write(summary_path, _summary_text(args, model))
    print(f"forecast written to {out_path}")
    print(f"summary written to {summary_path}")


def _summary_text(args: argparse.Namespace, model: FittedModel) -> str:
    cfg = model.config
    lines = [
        f"command = {args.command}",
        f"dataset = {os.path.basename(args.dataset)}",
        f"original_shape = {','.join(str(s) for s in model.original_shape)}",
        f"embedded_shape = {','.join(str(s) for s in model.embedded_shape)}",
        f"t_hat = {model.t_hat}",
        f"horizon = {args.horizon}",
        f"p = {cfg.p}",
        f"d = {cfg.d}",
        f"q = {cfg.q}",
        f"tau = {cfg.tau}",
        f"ranks = {','.join(str(r) for r in model.ranks)}",
        f"max_iter = {cfg.max_iter}",
        f"tol = {cfg.tol:.9g}",
        f"ortho = {cfg.ortho}",
        f"seed = {cfg.seed}",
        f"converged = {str(model.converged).lower()}",
        f"iterations_used = {model.iterations_used}",
        f"alpha = {','.join(f'{a:.9g}' for a in model.coeffs.alpha)}",
        f"beta = {','.join(f'{b:.9g}' for b in model.coeffs.beta)}",
        f"ar_fallback = {str(model.coeffs.ar_fallback).lower()}",
        f"ma_fallback = {str(model.coeffs.ma_fallback).lower()}",
        f"ar_stable = {str(model.coeffs.ar_stable).lower()}",
        f"relaxed_ridge_used = {str(model.relaxed_ridge_used).lower()}",
        f"error_updates_skipped = {str(model.error_updates_skipped).lower()}",
        f"trace = {','.join(f'{v:.9g}' for v in model.trace)}",
    ]
    return "\n".join(lines) + "\n"


def _default_out(dataset_path: str, suffix: str) -> str:
    return f"{os.path.splitext(dataset_path)[0]}.{suffix}"


def _run(args: argparse.Namespace) -> int:
    """Validate and execute a parsed command line; returns the exit code."""
    if args.command == "synth":
        for flag, value in (("--n-series", args.n_series), ("--length", args.length)):
            if value < 1:
                raise ConfigError(f"{flag} must be >= 1, got {value}")
        if not 0 <= args.noise < math.inf:
            raise ConfigError(f"--noise must be finite and >= 0, got {args.noise}")
        if args.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {args.seed}")
        data = synth_dataset(args.kind, args.n_series, args.length, args.noise, args.seed)
        out = args.out or f"{args.kind}.csv"
        _atomic_write(out, _csv_text(data, digits=".17g"))
        print(f"dataset written to {out}")
        return 0

    cfg = _model_config(args)
    if args.horizon < 1:
        raise ConfigError(f"--horizon must be >= 1, got {args.horizon}")
    data = load_dataset(args.dataset, args.format)
    cfg.validate_for(data.shape)

    if args.command == "fit-forecast":
        model = fit(data, cfg)
        result = forecast(model, args.horizon)
        _forecast_files(args, model, result.forecasts)
        return 0

    report = rolling_backtest(
        data,
        cfg,
        train_fraction=args.train_fraction,
        horizon=args.horizon,
        refit=not args.no_refit,
    )
    out = args.report_out or _default_out(args.dataset, "report.txt")
    _atomic_write(out, report.to_text())
    print(f"report written to {out}")
    print(f"runtime_seconds = {report.runtime_seconds:.3f}", file=sys.stderr)
    return 0


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--p", type=int, default=2, help="AR order (default 2)")
    parser.add_argument("--d", type=int, default=1, help="differencing order (default 1)")
    parser.add_argument("--q", type=int, default=1, help="MA order (default 1)")
    parser.add_argument("--tau", type=int, default=3, help="embedding window (default 3)")
    parser.add_argument(
        "--ranks",
        type=str,
        default=None,
        help="comma-separated Tucker ranks, one per embedded mode (default auto)",
    )
    parser.add_argument("--iters", type=int, default=10, help="max iterations (default 10)")
    parser.add_argument("--tol", type=float, default=1e-5, help="stop tolerance (default 1e-5)")
    parser.add_argument(
        "--ortho", choices=("full", "relaxed"), default="full",
        help="orthogonality mode (default full)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="seed echoed in reports; fits start from the data and read no seed (default 0)",
    )


def _model_config(args: argparse.Namespace) -> ModelConfig:
    ranks = None
    if args.ranks:
        try:
            ranks = tuple(int(tok) for tok in args.ranks.split(","))
        except ValueError:
            raise ConfigError(f"--ranks must be comma-separated integers: {args.ranks!r}")
    return ModelConfig(
        p=args.p, d=args.d, q=args.q, tau=args.tau, ranks=ranks,
        max_iter=args.iters, tol=args.tol, ortho=args.ortho, seed=args.seed,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bht-arima",
        description="Forecast panels of time series via block Hankel tensors, "
        "Tucker compression, and tensor ARIMA.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ff = sub.add_parser("fit-forecast", help="fit on a dataset and forecast ahead")
    ff.add_argument("dataset", help="input file (CSV rows=series, or flat tensor)")
    ff.add_argument("--format", choices=("csv", "flat"), default="csv")
    ff.add_argument("--horizon", type=int, default=1)
    ff.add_argument("--forecast-out", default=None)
    ff.add_argument("--summary-out", default=None)
    _add_model_flags(ff)

    bt = sub.add_parser("backtest", help="rolling evaluation on a train/test split")
    bt.add_argument("dataset")
    bt.add_argument("--format", choices=("csv", "flat"), default="csv")
    bt.add_argument("--train-fraction", type=float, default=0.9)
    bt.add_argument("--horizon", type=int, default=1)
    bt.add_argument(
        "--no-refit", action="store_true",
        help="advance one fitted model over the test region instead of refitting",
    )
    bt.add_argument("--report-out", default=None)
    _add_model_flags(bt)

    sy = sub.add_parser("synth", help="generate a deterministic synthetic dataset")
    sy.add_argument(
        "--kind", choices=("sinusoid-mixture", "ar2-panel", "random-walk"),
        default="sinusoid-mixture",
    )
    sy.add_argument("--n-series", type=int, default=20)
    sy.add_argument("--length", type=int, default=40)
    sy.add_argument("--noise", type=float, default=0.05)
    sy.add_argument("--seed", type=int, default=0)
    sy.add_argument("--out", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            # argparse exits 2 on usage problems; 2 is reserved for
            # numerical failures here.
            return 0 if exc.code == 0 else USAGE_ERROR
        return _run(args)
    except (ConfigError, DataFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except OSError as exc:
        # Only errors raised by the operating system (they carry an errno)
        # are input problems: a missing file, a directory, a bad out path.
        if exc.errno is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except BhtArimaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
