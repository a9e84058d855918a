"""The benchmark's workloads, driven through bht_arima's public API and CLI.

Every workload is a closed loop with one client: the next op starts when the
previous one has returned. Inputs come from ``synth_dataset`` with the data
seed the benchmark is given; the model seed stays at the ``ModelConfig``
default (0). Why each workload exists is recorded in ``bench/NOTES.md``.

A workload's ``setup`` (re)builds its inputs and runs one warm-up op;
``op`` is the timed unit of work; ``check`` validates an op's output and
compares it bit for bit with the first output seen at the same position of
the run; ``finish`` runs once, untimed, and returns the accuracy figures.
"""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
import threading

import numpy as np

import bht_arima
from bht_arima.tensor import write_flat_tensor
from tracing import ATTRS

NOISE = 0.05
KIND = "sinusoid-mixture"
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# A CLI child that has not exited by then is killed and its op fails.
CHILD_TIMEOUT_S = 120.0


class OpFailed(Exception):
    """An op finished but its output is unusable."""


class Workload:
    name = ""
    # Set-up runs this many times per run and its median is reported, so that
    # work moved into set-up shows as a set-up regression. Cheaper set-ups
    # repeat more, to steady the median.
    setups = 3

    def __init__(self, seed: int, tiny: bool, workdir: str) -> None:
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.reference: dict = {}

    def _synth(self, n_series: int, length: int) -> np.ndarray:
        return bht_arima.synth_dataset(KIND, n_series, length, NOISE, self.seed)

    def _compare(self, key, out: np.ndarray, shape: tuple[int, ...]) -> str | None:
        if out.shape != shape:
            return f"{self.name}: output shape {out.shape} != {shape}"
        if not np.all(np.isfinite(out)):
            return f"{self.name}: non-finite output"
        ref = self.reference.setdefault(key, out.copy())
        if ref.tobytes() != out.tobytes():
            return f"{self.name}: output at {key!r} differs from the run's first"
        return None

    def recover(self) -> None:
        """Bring the workload back to a usable state after a failed op."""

    def after_traced(self, tracer, op_span: int) -> None:
        """Attach anything a traced op recorded outside this process."""

    def peak_rss_mb(self) -> list[float]:
        """Peak resident set size samples in MB: this process's."""
        return [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]


class FitLarge(Workload):
    """One op: fit the default config on 1000x190, then forecast 10 steps."""

    name = "fit-large"

    def setup(self):
        n_series, length, self.horizon = (30, 40, 5) if self.tiny else (1000, 200, 10)
        self.panel = self._synth(n_series, length)
        self.train = self.panel[..., : length - self.horizon]
        return self.op()

    def op(self, tracer=None):
        model = bht_arima.fit(self.train, bht_arima.ModelConfig())
        return bht_arima.forecast(model, self.horizon).forecasts

    def check(self, out) -> str | None:
        return self._compare("forecast", out, (self.panel.shape[0], self.horizon))

    def finish(self) -> dict:
        actual = self.panel[..., -self.horizon :]
        naive = bht_arima.naive_last_value(self.train, self.horizon)
        return {
            "nrmse": bht_arima.nrmse(self.reference["forecast"], actual),
            "naive_nrmse": bht_arima.nrmse(naive, actual),
        }


class StreamLong(Workload):
    """One op: a one-step forecast, then absorbing the true slice.

    Setup fits once on the first 300 of 400 slices; each pass restarts from
    that fitted model and walks the 100 held-out slices, so later steps of a
    pass carry a longer history.
    """

    name = "stream-long"
    setups = 11

    def setup(self):
        n_series, self.length, n_test = (20, 60, 10) if self.tiny else (200, 400, 100)
        self.panel = self._synth(n_series, self.length)
        self.split = self.length - n_test
        self.fitted = bht_arima.fit(self.panel[..., : self.split], bht_arima.ModelConfig())
        self.recover()
        return self.op()

    def recover(self) -> None:
        self.model, self.k = self.fitted, self.split

    def op(self, tracer=None):
        k = self.k
        pred = bht_arima.forecast(self.model, 1).forecasts
        self.model = bht_arima.append_observation(self.model, self.panel[..., k])
        self.k += 1
        if self.k == self.length:
            self.recover()
        return k, pred

    def check(self, out) -> str | None:
        k, pred = out
        return self._compare(k, pred, (self.panel.shape[0], 1))

    def finish(self) -> dict:
        """Walk one whole pass untimed; its forecasts must match the run's."""
        self.recover()
        preds = []
        for _ in range(self.split, self.length):
            out = self.op()
            error = self.check(out)
            if error:
                raise OpFailed(error)
            preds.append(out[1][..., 0])
        actual = self.panel[..., self.split :]
        naive = self.panel[..., self.split - 1 : -1]
        return {
            "nrmse": bht_arima.nrmse(np.stack(preds, axis=-1), actual),
            "naive_nrmse": bht_arima.nrmse(naive, actual),
        }


class CliOrder3(Workload):
    """One op: one child process running the CLI rolling backtest (refit at
    every test step) on a 12x8x60 panel in relaxed mode."""

    name = "cli-order3"
    setups = 7
    TRAIN_FRACTION = 0.8

    def __init__(self, seed: int, tiny: bool, workdir: str) -> None:
        super().__init__(seed, tiny, workdir)
        self.rss_mb: list[float] = []
        self.bytes_written = 0

    def setup(self):
        shape, length = ((4, 6), 30) if self.tiny else ((12, 8), 60)
        flat = self._synth(shape[0] * shape[1], length)
        self.panel = flat.reshape(*shape, length)
        self.panel_path = os.path.join(self.workdir, "panel.txt")
        self.report_path = os.path.join(self.workdir, "report.txt")
        self.spans_path = os.path.join(self.workdir, "child-spans.json")
        write_flat_tensor(self.panel_path, self.panel)
        self.n_train = math.floor(self.TRAIN_FRACTION * length)
        return self.op()

    def _cli_args(self) -> list[str]:
        return [
            "backtest", self.panel_path, "--format", "flat",
            "--train-fraction", str(self.TRAIN_FRACTION), "--ortho", "relaxed",
            "--report-out", self.report_path,
        ]

    def op(self, tracer=None):
        if tracer is None:
            cmd = [sys.executable, "-m", "bht_arima.cli"]
        else:
            cmd = [sys.executable, os.path.join(BENCH_DIR, "cli_child.py"), self.spans_path]
        for stale in (self.report_path, self.spans_path):
            if os.path.exists(stale):
                os.unlink(stale)
        code, rss_mb, stderr = run_child(cmd + self._cli_args(), self.workdir)
        if code != 0:
            raise OpFailed(f"{self.name}: CLI exited {code}: {stderr.strip()[-500:]}")
        with open(self.report_path, "rb") as fh:
            report = fh.read()
        if tracer is None:
            self.rss_mb.append(rss_mb)
        self.bytes_written = len(report)
        return report

    def after_traced(self, tracer, op_span: int) -> None:
        with open(self.spans_path, encoding="utf-8") as fh:
            tracer.adopt(json.load(fh), op_span)
        tracer.spans[op_span][ATTRS] = {"bytes_written": self.bytes_written}

    def check(self, out) -> str | None:
        fields = parse_report(out.decode("utf-8"))
        n_test = self.panel.shape[-1] - self.n_train
        if fields.get("n_test") != str(n_test) or fields.get("ortho") != "relaxed":
            return f"{self.name}: report does not describe the requested backtest"
        per_step = _floats(fields.get("per_step_nrmse", ""))
        values = np.append(per_step, _floats(fields.get("nrmse", "")))
        if per_step.shape != (n_test,) or not np.all(np.isfinite(values)):
            return f"{self.name}: report scores are missing or non-finite"
        ref = self.reference.setdefault("report", out)
        if ref != out:
            return f"{self.name}: report bytes differ from the run's first"
        return None

    def finish(self) -> dict:
        """The CLI's report must equal the library's own backtest, byte for byte."""
        expected = bht_arima.rolling_backtest(
            self.panel, bht_arima.ModelConfig(ortho="relaxed"), self.TRAIN_FRACTION
        ).to_text().encode("utf-8")
        if expected != self.reference["report"]:
            raise OpFailed(f"{self.name}: CLI report differs from rolling_backtest")
        actual = self.panel[..., self.n_train :]
        naive = self.panel[..., self.n_train - 1 : -1]
        return {
            "nrmse": float(parse_report(expected.decode("utf-8"))["nrmse"]),
            "naive_nrmse": bht_arima.nrmse(naive, actual),
        }

    def peak_rss_mb(self) -> list[float]:
        """One sample per untraced CLI child."""
        return self.rss_mb


def parse_report(text: str) -> dict[str, str]:
    """The CLI report's ``key = value`` lines as strings."""
    pairs = (line.partition("=") for line in text.splitlines() if "=" in line)
    return {key.strip(): value.strip() for key, _, value in pairs}


def _floats(value: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in value.split(",")])
    except ValueError:
        return np.full(1, np.nan)


def child_env() -> dict[str, str]:
    src = os.path.dirname(os.path.dirname(os.path.abspath(bht_arima.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    return env


def run_child(cmd: list[str], cwd: str) -> tuple[int, float, str]:
    """Run ``cmd`` to completion; return exit code, its peak RSS in MB and
    its stderr."""
    err_path = os.path.join(cwd, "child-stderr.txt")
    with open(err_path, "w+b") as err:
        proc = subprocess.Popen(
            cmd, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return proc.returncode, usage.ru_maxrss / 1024.0, stderr


WORKLOADS = {cls.name: cls for cls in (FitLarge, StreamLong, CliOrder3)}
