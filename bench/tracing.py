"""In-memory span tracing of bht_arima from outside the package.

The benchmark never edits the program. Instead, a :class:`Tracer` replaces
each traced public function with a wrapper under *every* ``bht_arima``
module attribute that refers to it (``bht_arima.model.mode_product`` and
``bht_arima.tensor.mode_product`` are the same function looked up through
two modules, and both must be wrapped). Wrappers are installed only around
traced ops and removed afterwards, so untraced ops run the pristine code.

A span is ``[name, start, end, parent, op, attrs]`` with times from
``time.perf_counter`` (CLOCK_MONOTONIC on Linux, so spans recorded in a child
process line up with the parent's). Calls are strictly nested on one
thread, so a span's self time is its duration minus its direct children's.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict
from statistics import median

NAME, START, END, PARENT, OP, ATTRS = range(6)


def _nbytes(*arrays) -> int:
    return 8 * sum(int(getattr(a, "size", 0)) for a in arrays)


def _mode_product_attrs(args, kwargs, out):
    t, m = args[0], args[1]
    # m (r x k) contracts a mode of extent k: out.size * k multiply-adds.
    return {"flops": 2 * int(out.size) * int(m.shape[1]), "bytes": _nbytes(t, m, out)}


def _svd_attrs(args, kwargs, out):
    rows, cols = args[0].shape
    m, n = max(rows, cols), min(rows, cols)
    # Thin SVD with singular vectors, R-SVD count (Golub & Van Loan, table 5.4.1).
    return {"flops": 6 * m * n * n + 20 * n**3}


def _inverse_mdt_attrs(args, kwargs, out):
    return {"bytes": _nbytes(args[0], out)}


def _reconstruct_attrs(args, kwargs, out):
    return {"bytes": _nbytes(args[0].slices, out)}


def _coeffs_attrs(args, kwargs, out):
    return {"ar_fallback": int(out.ar_fallback), "ma_fallback": int(out.ma_fallback)}


def _fit_attrs(args, kwargs, out):
    return {"iterations": int(out.iterations_used), "converged": int(out.converged)}


def _relaxed_attrs(args, kwargs, out):
    return {"ridge": int(out[1])}


def _flat_io_attrs(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0])}


# (module, function, span name, attribute extractor). Functions a later
# version of the package no longer has are skipped; their metrics read 0.
TARGETS = [
    ("bht_arima.tensor", "mode_product", "tensor.mode_product", _mode_product_attrs),
    ("bht_arima.tensor", "read_flat_tensor", "tensor.flat_io", _flat_io_attrs),
    ("bht_arima.tensor", "write_flat_tensor", "tensor.flat_io", _flat_io_attrs),
    ("bht_arima.linalg", "svd", "linalg.svd", _svd_attrs),
    ("bht_arima.linalg", "pinv", "linalg.pinv", None),
    ("bht_arima.linalg", "lstsq", "linalg.lstsq", None),
    ("bht_arima.linalg", "solve_toeplitz", "linalg.solve_toeplitz", None),
    ("bht_arima.mdt", "mdt_temporal", "mdt.mdt_temporal", None),
    ("bht_arima.mdt", "inverse_mdt_temporal", "mdt.inverse_mdt_temporal", _inverse_mdt_attrs),
    ("bht_arima.diff", "difference", "diff.difference", None),
    ("bht_arima.diff", "reconstruct", "diff.reconstruct", _reconstruct_attrs),
    ("bht_arima.diff", "extend", "diff.extend", None),
    ("bht_arima.diff", "push_observed", "diff.push_observed", None),
    ("bht_arima.coeffs", "estimate_coefficients", "coeffs.estimate_coefficients", _coeffs_attrs),
    ("bht_arima.model", "fit", "model.fit", _fit_attrs),
    ("bht_arima.model", "update_core", "model.update_core", None),
    ("bht_arima.model", "update_factor_relaxed", "model.update_factor_relaxed", _relaxed_attrs),
    ("bht_arima.model", "update_error", "model.update_error", None),
    ("bht_arima.model", "forecast", "model.forecast", None),
    ("bht_arima.model", "append_observation", "model.append_observation", None),
    ("bht_arima.evaluate", "rolling_backtest", "evaluate.rolling_backtest", None),
    ("bht_arima.cli", "load_dataset", "cli.load_dataset", None),
    ("bht_arima.cli", "main", "cli.main", None),
]


class Tracer:
    """Records spans in memory; ``install``/``uninstall`` toggle the wrappers."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op, None])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, attrs_fn):
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(sid)
            if attrs_fn is not None:
                tracer.spans[sid][ATTRS] = attrs_fn(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every target under each ``bht_arima`` attribute bound to it."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "bht_arima" or n.startswith("bht_arima."))
        ]
        for mod_name, fn_name, span_name, attrs_fn in TARGETS:
            original = getattr(sys.modules.get(mod_name), fn_name, None)
            if original is None:
                continue
            wrapper = self._wrap(original, span_name, attrs_fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original, wrapper))

    def uninstall(self) -> None:
        for mod, attr, original, wrapper in reversed(self._patches):
            if getattr(mod, attr) is wrapper:
                setattr(mod, attr, original)
        self._patches.clear()

    def adopt(self, child_spans: list[list], parent: int) -> None:
        """Append spans recorded by a child process under span ``parent``."""
        offset = len(self.spans)
        for span in child_spans:
            span = list(span)
            span[PARENT] = parent if span[PARENT] is None else span[PARENT] + offset
            span[OP] = self.spans[parent][OP]
            self.spans.append(span)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "op": s[OP], "attrs": s[ATTRS],
                }) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Per-span self time in seconds: duration minus direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def per_op_totals(spans: list[list]) -> dict[int, dict[str, float]]:
    """For each op id, sums keyed ``<span>.calls``, ``<span>.self_ms`` and
    ``<span>.<attr>`` over the op's spans."""
    selfs = self_times(spans)
    totals: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s, self_s in zip(spans, selfs):
        if s[OP] is None:
            continue
        bucket = totals[s[OP]]
        bucket[s[NAME] + ".calls"] += 1
        bucket[s[NAME] + ".self_ms"] += 1e3 * self_s
        for key, value in (s[ATTRS] or {}).items():
            bucket[f"{s[NAME]}.{key}"] += value
    return totals


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Median over traced ops of each per-op total, plus the fit
    convergence ratio over every traced fit."""
    totals = per_op_totals(spans)
    keys = {k for bucket in totals.values() for k in bucket}
    out = {k: median(bucket.get(k, 0.0) for bucket in totals.values()) for k in keys}
    fits = sum(b.get("model.fit.calls", 0.0) for b in totals.values())
    converged = sum(b.get("model.fit.converged", 0.0) for b in totals.values())
    out["model.fit.converged_ratio"] = converged / fits if fits else 0.0
    return out
