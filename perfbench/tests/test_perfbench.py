"""The benchmark's own tests: the schema of its JSON output, and a toy2
smoke run of both workload kinds that finishes in a few seconds.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
ENVIRONMENT_KEYS = {"python", "numpy", "blas", "blas_threads", "nproc", "mem_total_mb", "machine"}


def bench(workload: str, trace: int, seed: int = 0) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    details, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return details, result


@pytest.mark.parametrize("trace", [0, 1])
def test_output_schema(trace):
    # a seed past the stored references draws the inputs of its residue
    details, result = bench("toy2_train", trace, seed=41)
    assert details["input_seed"] == 1 and result["correct"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert type(result["correct"]) is bool
    assert type(result["attempted"]) is int and result["attempted"] >= 1
    assert type(result["failed"]) is int and 0 <= result["failed"] <= result["attempted"]
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        entry = result["metrics"][m["name"]]
        assert set(entry) == {"value", "unit"} and entry["unit"] == m["unit"]
        assert type(entry["value"]) is float and math.isfinite(entry["value"])
        assert entry["value"] > 0 or trace  # end-to-end metrics are never 0
    assert set(details["environment"]) == ENVIRONMENT_KEYS
    assert set(details["metrics"]) == set(details["units"])


@pytest.mark.parametrize("workload", ["toy2_train", "toy2_fused_eval"])
def test_toy2_smoke(workload):
    plain, result = bench(workload, 0)
    traced, traced_result = bench(workload, 1)
    for details, res in ((plain, result), (traced, traced_result)):
        assert res["correct"] and res["failed"] == 0
        assert details["metrics"]["error_rate"] == 0.0
        assert all(v is True for v in details["checks"].values())
    for key, value in plain["outputs"].items():
        other = traced["outputs"][key]
        if isinstance(value, list):
            n = min(len(value), len(other))
            value, other = value[:n], other[:n]
        assert value == other, f"traced {key} differs from untraced"
    expected = {"layers_vs_model", "primitives_vs_backward"} if workload.endswith("train") else set()
    assert set(traced["reconciliation"]) == expected
    assert traced["checks"]["every_block_traced"] is True
    assert (ROOT / traced["spans"]).is_file()
