"""Benchmark for bht_arima: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload fit-large --seed 7 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload in turn

``--trace 0`` measures the end-to-end metrics with no tracing. ``--trace 1``
alternates untraced and traced ops and reports the per-layer metrics derived
from the traced ops' spans (see ``tracing.py``), plus the traced/untraced
latency ratio. The program is imported from ``src/`` of the checkout this file
sits in; nothing is installed. Human-readable lines come first; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The full record of each run,
with the machine it ran on, goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("fit-large", "stream-long", "cli-order3")
IMPORT_PROBES = 5

END_TO_END = {
    "op_p50_ms": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "pass_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> (unit, key in tracing.layer_metrics when it differs).
PER_LAYER = {
    "tensor.mode_product.calls": ("count", None),
    "tensor.mode_product.self_ms": ("ms", None),
    "tensor.mode_product.flops_computed": ("flop", "tensor.mode_product.flops"),
    "tensor.mode_product.bytes_computed": ("B", "tensor.mode_product.bytes"),
    "tensor.flat_io.self_ms": ("ms", None),
    "tensor.flat_io.bytes": ("B", None),
    "linalg.svd.calls": ("count", None),
    "linalg.svd.self_ms": ("ms", None),
    "linalg.svd.flops_computed": ("flop", "linalg.svd.flops"),
    "linalg.pinv.calls": ("count", None),
    "linalg.pinv.self_ms": ("ms", None),
    "linalg.lstsq.calls": ("count", None),
    "linalg.lstsq.self_ms": ("ms", None),
    "linalg.solve_toeplitz.calls": ("count", None),
    "linalg.solve_toeplitz.self_ms": ("ms", None),
    "mdt.mdt_temporal.calls": ("count", None),
    "mdt.mdt_temporal.self_ms": ("ms", None),
    "mdt.inverse_mdt_temporal.calls": ("count", None),
    "mdt.inverse_mdt_temporal.self_ms": ("ms", None),
    "mdt.inverse_mdt_temporal.bytes_computed": ("B", "mdt.inverse_mdt_temporal.bytes"),
    "diff.difference.self_ms": ("ms", None),
    "diff.reconstruct.calls": ("count", None),
    "diff.reconstruct.self_ms": ("ms", None),
    "diff.reconstruct.bytes_computed": ("B", "diff.reconstruct.bytes"),
    "diff.extend.calls": ("count", None),
    "diff.extend.self_ms": ("ms", None),
    "diff.push_observed.calls": ("count", None),
    "diff.push_observed.self_ms": ("ms", None),
    "coeffs.estimate_coefficients.calls": ("count", None),
    "coeffs.estimate_coefficients.self_ms": ("ms", None),
    "coeffs.ar_fallback.count": ("count", "coeffs.estimate_coefficients.ar_fallback"),
    "coeffs.ma_fallback.count": ("count", "coeffs.estimate_coefficients.ma_fallback"),
    "model.fit.calls": ("count", None),
    "model.fit.self_ms": ("ms", None),
    "model.fit.iterations": ("count", None),
    "model.fit.converged_ratio": ("ratio", None),
    "model.update_core.calls": ("count", None),
    "model.update_core.self_ms": ("ms", None),
    "model.update_factor_relaxed.calls": ("count", None),
    "model.update_factor_relaxed.self_ms": ("ms", None),
    "model.relaxed_ridge.count": ("count", "model.update_factor_relaxed.ridge"),
    "model.update_error.calls": ("count", None),
    "model.update_error.self_ms": ("ms", None),
    "model.forecast.calls": ("count", None),
    "model.forecast.self_ms": ("ms", None),
    "model.append_observation.calls": ("count", None),
    "model.append_observation.self_ms": ("ms", None),
    "evaluate.rolling_backtest.calls": ("count", None),
    "evaluate.rolling_backtest.self_ms": ("ms", None),
    "cli.import_ms": ("ms", None),
    "cli.load_dataset.self_ms": ("ms", None),
    "cli.main.self_ms": ("ms", None),
    "cli.bytes_written": ("B", "op.bytes_written"),
    "trace.overhead_ratio": ("ratio", None),
    "accuracy.nrmse": ("ratio", None),
    "accuracy.naive_nrmse": ("ratio", None),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), required=True)
    parser.add_argument("--seed", type=int, default=7, help="data seed (default 7)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measurement time; at least one op always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for testing the benchmark itself")
    return parser.parse_args(argv)


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_runtime_threads() -> int | None:
    """Threads the bundled OpenBLAS will use, asked of the library itself."""
    import ctypes

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance() -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_thread_env": {k: os.environ.get(k) for k in thread_vars},
        "blas_threads": _blas_runtime_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
    }


def import_probe_ms(env: dict[str, str]) -> float:
    """Median time for a fresh interpreter to import ``bht_arima.cli``."""
    code = (
        "import time; t = time.perf_counter(); import bht_arima.cli; "
        "print((time.perf_counter() - t) * 1e3)"
    )
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
            capture_output=True, text=True, timeout=60,
        )
        times.append(float(out.stdout))
    return median(times)


def measure(w, seconds: float, tracer) -> dict:
    """Run ops until ``seconds`` have passed; with a tracer, every second op
    is traced. Failed ops are counted and the loop goes on."""
    untraced: list[float] = []
    traced: list[float] = []
    errors: list[str] = []
    attempted = 0
    min_ops = 2 if tracer is not None else 1
    began = time.perf_counter()
    while True:
        use_trace = tracer is not None and attempted % 2 == 1
        attempted += 1
        error = None
        if use_trace:
            tracer.op = attempted
            tracer.install()
            sid = tracer.begin("op")
        start = time.perf_counter()
        try:
            out = w.op(tracer if use_trace else None)
        except Exception:  # an op failure is counted, not fatal
            error = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        if use_trace:
            tracer.end(sid)
            tracer.uninstall()
            tracer.op = None
            elapsed = tracer.spans[sid][2] - tracer.spans[sid][1]
            if error is None:
                try:
                    w.after_traced(tracer, sid)
                except Exception:
                    error = traceback.format_exc(limit=3)
        if error is None:
            error = w.check(out)
        if error is None:
            (traced if use_trace else untraced).append(elapsed)
        else:
            errors.append(error)
            w.recover()
        if attempted >= min_ops and time.perf_counter() - began >= seconds:
            break
    return {"untraced": untraced, "traced": traced, "errors": errors, "attempted": attempted}


def per_layer_metrics(tracer, run: dict, import_ms: float, accuracy: dict):
    """The per-layer metrics and their sample counts."""
    from tracing import layer_metrics

    layers = layer_metrics(tracer.spans)
    layers["cli.import_ms"] = import_ms
    layers["trace.overhead_ratio"] = (
        median(run["traced"]) / median(run["untraced"])
        if run["traced"] and run["untraced"] else float("nan")
    )
    layers["accuracy.nrmse"] = accuracy["nrmse"]
    layers["accuracy.naive_nrmse"] = accuracy["naive_nrmse"]
    metrics = {
        name: {"value": float(layers.get(key or name, 0.0)), "unit": unit}
        for name, (unit, key) in PER_LAYER.items()
    }
    samples = {name: len(run["traced"]) for name in metrics}
    samples["cli.import_ms"] = IMPORT_PROBES
    samples["trace.overhead_ratio"] = len(run["traced"]) + len(run["untraced"])
    samples["accuracy.nrmse"] = samples["accuracy.naive_nrmse"] = 1
    return metrics, samples


def run_one(args) -> int:
    if not (SRC / "bht_arima" / "__init__.py").is_file():
        print(f"error: no bht_arima sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bht_arima

    if Path(bht_arima.__file__).resolve().parent != SRC / "bht_arima":
        print(f"error: imported bht_arima from {bht_arima.__file__}", file=sys.stderr)
        return 2
    from tracing import Tracer
    from workloads import WORKLOADS, OpFailed, child_env

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        w = WORKLOADS[args.workload](args.seed, args.tiny, str(workdir))
        setup_s, setup_errors = [], []

        def set_up(times: int) -> None:
            for _ in range(times):
                start = time.perf_counter()
                out = w.setup()
                setup_s.append(time.perf_counter() - start)
                error = w.check(out)
                if error:
                    setup_errors.append(error)

        # Part of the set-ups run after the measurement, so that their median
        # samples the machine over the whole run, not only its first seconds.
        set_up(w.setups - w.setups // 2)
        tracer = Tracer() if args.trace else None
        import_ms = import_probe_ms(child_env()) if args.trace else None
        run = measure(w, args.seconds, tracer)
        set_up(w.setups // 2)
        try:
            accuracy = w.finish()
        except OpFailed as exc:
            setup_errors.append(str(exc))
            accuracy = {"nrmse": float("nan"), "naive_nrmse": float("nan")}
        peak_rss = w.peak_rss_mb()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    suffix = "-tiny" if args.tiny else ""
    ok_ms = 1e3 * np.array(run["untraced"] or [float("nan")])
    attempted, failed = run["attempted"], len(run["errors"])
    if args.trace:
        metrics, samples = per_layer_metrics(tracer, run, import_ms, accuracy)
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans{suffix}.jsonl"
        tracer.write(str(spans_path))
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        values = {
            "op_p50_ms": float(np.median(ok_ms)),
            "ops_per_s": float(ok_ms.size / (ok_ms.sum() / 1e3)),
            "setup_s": float(median(setup_s)),
            "pass_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": float(median(peak_rss)),
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END.items()}
        samples = {"op_p50_ms": ok_ms.size, "ops_per_s": ok_ms.size, "setup_s": len(setup_s),
                   "pass_ratio": attempted, "peak_rss_mb": len(peak_rss)}

    for error in (setup_errors + run["errors"])[:5]:
        print(f"FAILED: {error}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']} (n={samples[name]})")
    op_p90_ms = float(np.percentile(ok_ms, 90))
    # Not gated: only stream-long has ten or more ops beyond its 90th percentile.
    print(f"{args.workload} op_p90_ms = {op_p90_ms:.6g} ms (n={ok_ms.size}, not gated)")
    print(f"{args.workload} nrmse = {accuracy['nrmse']:.6g} "
          f"(naive last value on the same slices: {accuracy['naive_nrmse']:.6g})")
    print(f"{args.workload} fail_ratio = {failed / attempted:.6g} ({failed}/{attempted})")
    machine = provenance()
    print("machine " + json.dumps(machine, sort_keys=True))

    result = {
        "correct": failed == 0 and not setup_errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, tiny=args.tiny, samples=samples, accuracy=accuracy,
                  machine=machine, errors=setup_errors + run["errors"],
                  op_p90_ms=op_p90_ms, setup_s=setup_s, untraced_s=run["untraced"],
                  traced_s=run["traced"])
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json"
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process, one after another."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
