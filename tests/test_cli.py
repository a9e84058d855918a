"""CLI tests: parsers, commands, exit codes, output determinism."""

import os

import numpy as np
import pytest

import bht_arima.cli as cli
from bht_arima.errors import DataFormatError, NumericalError
from bht_arima.evaluate import synth_dataset


def write(path, text):
    path.write_text(text)
    return str(path)


# --- parse_csv -------------------------------------------------------------


def test_parse_csv_basic(tmp_path):
    p = write(tmp_path / "a.csv", "1,2,3\n4,5,6\n")
    got = cli.parse_csv(p)
    assert np.array_equal(got, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])


def test_parse_csv_header_skip(tmp_path):
    p = write(tmp_path / "a.csv", "t1,t2,t3\n1,2,3\n")
    got = cli.parse_csv(p)
    assert got.shape == (1, 3)


def test_parse_csv_ragged_names_line(tmp_path):
    p = write(tmp_path / "a.csv", "1,2,3\n4,5\n")
    with pytest.raises(DataFormatError, match="line 2"):
        cli.parse_csv(p)


def test_parse_csv_bad_cell_names_location(tmp_path):
    p = write(tmp_path / "a.csv", "1,2,3\n4,x,6\n")
    with pytest.raises(DataFormatError, match="line 2, column 2"):
        cli.parse_csv(p)


def test_parse_csv_empty(tmp_path):
    p = write(tmp_path / "a.csv", "")
    with pytest.raises(DataFormatError, match="empty"):
        cli.parse_csv(p)


def test_parse_csv_header_only(tmp_path):
    p = write(tmp_path / "a.csv", "a,b,c\n")
    with pytest.raises(DataFormatError):
        cli.parse_csv(p)


# --- flat tensor datasets ---------------------------------------------------


def test_parse_flat_tensor_2x2(tmp_path):
    p = write(tmp_path / "t.txt", "2 2\n1 2 3 4\n")
    got = cli.load_dataset(p, "flat")
    assert got.shape == (2, 2)
    assert np.array_equal(got.flatten(order="F"), [1.0, 2.0, 3.0, 4.0])


def test_parse_flat_tensor_3d(tmp_path):
    values = " ".join(str(v) for v in range(24))
    p = write(tmp_path / "t.txt", f"2 3 4\n{values}\n")
    assert cli.load_dataset(p, "flat").shape == (2, 3, 4)


def test_parse_flat_tensor_count_mismatch(tmp_path):
    values = " ".join(str(v) for v in range(23))
    p = write(tmp_path / "t.txt", f"2 3 4\n{values}\n")
    with pytest.raises(DataFormatError, match="expected 24"):
        cli.load_dataset(p, "flat")


def test_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    t = rng.standard_normal((4, 7))
    p = tmp_path / "x.csv"
    p.write_text(cli._csv_text(t, digits=".17g"))
    assert np.max(np.abs(cli.parse_csv(str(p)) - t)) < 1e-12


# --- commands --------------------------------------------------------------


def make_dataset(tmp_path, name="data.csv", n=8, t=40, seed=3):
    x = synth_dataset("sinusoid-mixture", n, t, 0.05, seed=seed)
    p = tmp_path / name
    p.write_text(cli._csv_text(x, digits=".17g"))
    return str(p), x


def test_synth_command(tmp_path):
    out = str(tmp_path / "synth.csv")
    code = cli.main(
        ["synth", "--kind", "sinusoid-mixture", "--n-series", "5",
         "--length", "30", "--noise", "0.05", "--seed", "9", "--out", out]
    )
    assert code == 0
    data = cli.parse_csv(out)
    assert data.shape == (5, 30)
    assert np.array_equal(data, synth_dataset("sinusoid-mixture", 5, 30, 0.05, 9))


def test_fit_forecast_command(tmp_path):
    data_path, x = make_dataset(tmp_path)
    fc = str(tmp_path / "fc.csv")
    sm = str(tmp_path / "sm.txt")
    code = cli.main(
        ["fit-forecast", data_path, "--horizon", "2", "--ranks", "8,3",
         "--forecast-out", fc, "--summary-out", sm]
    )
    assert code == 0
    forecasts = cli.parse_csv(fc)
    assert forecasts.shape == (8, 2)
    summary = open(sm).read()
    assert "alpha = " in summary and "ranks = 8,3" in summary
    assert "converged = " in summary


@pytest.mark.parametrize("ranks", [[], ["--ranks", "30,3"]], ids=["auto", "explicit"])
def test_summary_reads_the_capped_rank(tmp_path, ranks):
    # 50 series of 12 steps hold only K = 6 + 3 - 1 = 8 distinct Hankel
    # columns, so the series rank (auto 40, or 30) is capped at 8.
    data_path, _ = make_dataset(tmp_path, n=50, t=12)
    sm = str(tmp_path / "sm.txt")
    code = cli.main(
        ["fit-forecast", data_path, "--horizon", "2", *ranks,
         "--forecast-out", str(tmp_path / "fc.csv"), "--summary-out", sm]
    )
    assert code == 0
    assert "ranks = 8,3\n" in open(sm).read()


def test_backtest_command_echoes_train_fraction(tmp_path):
    data_path, _ = make_dataset(tmp_path)
    rp = str(tmp_path / "report.txt")
    code = cli.main(
        ["backtest", data_path, "--train-fraction", "0.9", "--ranks", "8,3",
         "--report-out", rp]
    )
    assert code == 0
    text = open(rp).read()
    assert "train_fraction = 0.9" in text
    assert "nrmse = " in text


def test_backtest_deterministic_bytes(tmp_path):
    data_path, _ = make_dataset(tmp_path)
    r1 = str(tmp_path / "r1.txt")
    r2 = str(tmp_path / "r2.txt")
    args = ["backtest", data_path, "--ranks", "8,3", "--seed", "4"]
    assert cli.main(args + ["--report-out", r1]) == 0
    assert cli.main(args + ["--report-out", r2]) == 0
    assert open(r1, "rb").read() == open(r2, "rb").read()


def test_invalid_tau_fails_before_compute(tmp_path, capsys):
    data_path, _ = make_dataset(tmp_path)
    out = str(tmp_path / "never.csv")
    code = cli.main(
        ["fit-forecast", data_path, "--tau", "99", "--forecast-out", out]
    )
    assert code == cli.USAGE_ERROR
    assert not os.path.exists(out)
    assert "error:" in capsys.readouterr().err


def test_missing_file_is_usage_error(tmp_path):
    code = cli.main(["fit-forecast", str(tmp_path / "nope.csv")])
    assert code == cli.USAGE_ERROR


@pytest.mark.parametrize("flags", [
    ["--length", "0"], ["--n-series", "0"], ["--noise", "-1"], ["--noise", "nan"],
    ["--seed", "-1"],
])
def test_bad_synth_arguments_are_usage_errors(tmp_path, capsys, flags):
    out = tmp_path / "never.csv"
    assert cli.main(["synth", *flags, "--out", str(out)]) == cli.USAGE_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert flags[0].lstrip("-") in err
    assert not out.exists()


def test_directory_dataset_is_usage_error(tmp_path, capsys):
    assert cli.main(["backtest", str(tmp_path)]) == cli.USAGE_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(tmp_path) in err


def test_zero_held_out_slice_is_usage_error(tmp_path, capsys):
    x = synth_dataset("sinusoid-mixture", 5, 30, 0.05, seed=3)
    x[:, 28] = 0.0
    data_path = tmp_path / "p.csv"
    data_path.write_text(cli._csv_text(x, digits=".17g"))
    assert cli.main(["backtest", str(data_path)]) == cli.USAGE_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "time index 28" in err
    assert not (tmp_path / "p.report.txt").exists()


def test_failed_output_write_names_requested_path(tmp_path, capsys):
    data_path, _ = make_dataset(tmp_path)
    fc = str(tmp_path / "missing" / "f.csv")
    code = cli.main(
        ["fit-forecast", data_path, "--ranks", "8,3", "--forecast-out", fc]
    )
    assert code == cli.USAGE_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(fc) in err
    assert ".tmp-" not in err


def test_argparse_usage_maps_to_exit_1():
    assert cli.main(["unknown-command"]) == cli.USAGE_ERROR
    assert cli.main([]) == cli.USAGE_ERROR


def test_numerical_failure_maps_to_exit_2(tmp_path, monkeypatch):
    data_path, _ = make_dataset(tmp_path)

    def boom(*args, **kwargs):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr(cli, "fit", boom)
    code = cli.main(["fit-forecast", data_path, "--ranks", "8,3"])
    assert code == cli.NUMERICAL_ERROR


def test_bad_ranks_flag(tmp_path):
    data_path, _ = make_dataset(tmp_path)
    assert cli.main(["fit-forecast", data_path, "--ranks", "a,b"]) == cli.USAGE_ERROR


def test_flat_tensor_dataset_flow(tmp_path):
    from bht_arima.tensor import write_flat_tensor

    x = synth_dataset("sinusoid-mixture", 4, 30, 0.05, seed=2)
    path = str(tmp_path / "x.txt")
    write_flat_tensor(path, x)
    fc = str(tmp_path / "fc.csv")
    code = cli.main(
        ["fit-forecast", path, "--format", "flat", "--ranks", "4,3",
         "--forecast-out", fc, "--summary-out", str(tmp_path / "s.txt")]
    )
    assert code == 0
    assert cli.parse_csv(fc).shape == (4, 1)


def test_order3_forecast_written_as_flat_tensor(tmp_path):
    from bht_arima.tensor import write_flat_tensor

    rng = np.random.default_rng(2)
    base = np.sin(np.arange(30.0) / 3.0)
    x = rng.uniform(0.5, 1.5, (3, 4))[..., None] * base
    path = str(tmp_path / "cube.txt")
    write_flat_tensor(path, x)
    fc = str(tmp_path / "fc.txt")
    code = cli.main(
        ["fit-forecast", path, "--format", "flat", "--horizon", "2",
         "--forecast-out", fc, "--summary-out", str(tmp_path / "s.txt")]
    )
    assert code == 0
    forecasts = cli.load_dataset(fc, "flat")
    assert forecasts.shape == (3, 4, 2)


def test_failed_flat_forecast_write_leaves_no_trace(tmp_path, monkeypatch):
    from bht_arima.tensor import write_flat_tensor

    rng = np.random.default_rng(2)
    base = np.sin(np.arange(30.0) / 3.0)
    path = str(tmp_path / "cube.txt")
    write_flat_tensor(path, rng.uniform(0.5, 1.5, (3, 4))[..., None] * base)
    fc = tmp_path / "fc.txt"
    fc.write_text("previous forecast\n")

    def failing_write(target, t):
        with open(target, "w") as fh:
            fh.write("partial")
        raise OSError("disk full")

    monkeypatch.setattr(cli, "write_flat_tensor", failing_write)
    with pytest.raises(OSError, match="disk full"):
        cli.main(
            ["fit-forecast", path, "--format", "flat", "--forecast-out", str(fc),
             "--summary-out", str(tmp_path / "s.txt")]
        )
    assert fc.read_text() == "previous forecast\n"
    assert not list(tmp_path.glob(".tmp-*"))


# --- non-finite input --------------------------------------------------------


def test_nan_cell_is_usage_error(tmp_path, capfd):
    data_path, _ = make_dataset(tmp_path)
    rows = open(data_path).read().splitlines()
    cells = rows[2].split(",")
    cells[5] = "nan"
    rows[2] = ",".join(cells)
    write(tmp_path / "data.csv", "\n".join(rows) + "\n")
    out = str(tmp_path / "never.csv")
    code = cli.main(
        ["fit-forecast", data_path, "--ranks", "8,3", "--forecast-out", out]
    )
    assert code == cli.USAGE_ERROR
    err = capfd.readouterr().err
    assert "non-finite value nan at index (2, 5)" in err
    assert "DLASCL" not in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("fmt, text", [
    ("csv", "1,2,3\n4,inf,6\n"),
    ("flat", "2 2\n1 2 -inf 4\n"),
])
def test_load_dataset_rejects_non_finite(tmp_path, fmt, text):
    p = write(tmp_path / "a.txt", text)
    with pytest.raises(DataFormatError, match="non-finite"):
        cli.load_dataset(p, fmt)
