"""Smoke check of the benchmark harness at tiny sizes (a few seconds per case).

    python3 -m pytest bench/test_smoke.py -q

It runs every workload untraced and traced at a small fraction of its size
and checks the result line against BENCHMARK.json, the traced run's
accounting and exact-repeat counts, and the refusal to run without the
library.  It does not measure anything; the full benchmark is bench/run.py.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
LAYERS = ("noise", "model", "coefficients", "integrate", "closedform", "conditions", "analysis", "cli")


def bench(root, workload, trace, seed=5):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace), "--scale", "0.03"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    res = result(bench(ROOT, workload, 0))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_add_up_and_repeat_their_counts(workload):
    first, second = (result(bench(ROOT, workload, 1)) for _ in range(2))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    m = {k: v["value"] for k, v in first["metrics"].items()}
    layers = sum(m[f"{layer}.self_s"] for layer in LAYERS) + m["trace.unattributed_s"]
    assert layers == pytest.approx(m["trace.wall_s"], rel=1e-9)
    counts = [k for k, v in first["metrics"].items() if v["unit"] in ("count", "calls/model")]
    assert counts
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
