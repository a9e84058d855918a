"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root: ``python3 -m pytest -q bench/test_smoke.py``.
Each workload runs one op (two when traced) with no failures; every metric
``BENCHMARK.json`` names is emitted with its unit; the self times of each
traced op's spans sum to the op's span; and outside a checkout holding the
program the benchmark exits non-zero without printing a result.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from tracing import END, OP, START, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_op_emits_every_metric(workload, trace, seed):
    proc = run_bench("--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1 + trace
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_sum_to_op_span(workload):
    proc = run_bench("--workload", workload, "--seconds", "0", "--trace", "1", "--tiny")
    assert proc.returncode == 0, proc.stderr
    path = ROOT / ".bench_out" / f"{workload}-seed7-spans-tiny.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    spans = [[r["name"], r["start"], r["end"], r["parent"], r["op"], r["attrs"]]
             for r in records]
    roots = [s for s in spans if s[0] == "op"]
    assert len(roots) == 1 and len(spans) > 1
    selfs = self_times(spans)
    total = sum(t for s, t in zip(spans, selfs) if s[OP] == roots[0][OP])
    assert total == pytest.approx(roots[0][END] - roots[0][START], rel=1e-9, abs=1e-9)
    assert min(selfs) >= -1e-6


def test_fails_without_the_program():
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, Path(bare) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
