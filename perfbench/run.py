"""Train/eval benchmark for ddgcn.

One workload per process:

    python3 perfbench/run.py --workload toy5_train --seed 0 --seconds 30 --trace 0

prints a details line (environment, every metric under its own name,
checks, outputs) and, last, the result line
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
result holds the end-to-end metrics of BENCHMARK.json, with ``--trace 1``
its per-layer metrics from the traced run.

Every workload of BENCHMARK.json, untraced and traced, in one command:

    python3 perfbench/run.py --all --seed 0 --seconds 30

It prints every metric by name and unit, the tracing overhead and the
reconciliation, writes .bench_out/results.json, and exits 1 when a check
fails. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"
BENCH_DIR = Path(__file__).resolve().parent

RECONCILE_TOL = 0.10


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 1e6,
        "machine": platform.machine(),
    }


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_one(workload: str, seed: int, seconds: float, traced: bool) -> int:
    import workloads
    from tracing import Tracer, per_layer_metrics, reconciliation

    w = workloads.WORKLOADS[workload]
    input_seed = workloads.input_seed(seed)
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    OUT.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=OUT) as workdir:
            run_workload = workloads.run_train if w.kind == "train" else workloads.run_eval
            run = run_workload(w, input_seed, seconds, Path(workdir), tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    spec = benchmark_spec()
    metrics = dict(run.metrics, error_rate=run.failed / max(run.attempted, 1))
    details = {"workload": workload, "seed": seed, "input_seed": input_seed, "seconds": seconds,
               "trace": int(traced), "environment": environment(), "metrics": metrics,
               "units": {k: workloads.UNITS[k] for k in metrics},
               "checks": run.checks, "outputs": run.outputs, "times_ms": run.times_ms,
               "calibrations_ms": run.calibrations_ms}
    if tracer is not None:
        layer = per_layer_metrics(tracer.spans, run.setups, w.kind == "train")
        layer.update(run.extra)
        details["per_layer"] = layer
        details["reconciliation"] = reconciliation(layer)
        run.checks["every_block_traced"] = bool(tracer.blocks) and not tracer.untraced_blocks()
        spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
        tracer.write(spans_path)
        details["spans"] = str(spans_path.relative_to(ROOT))
        result_metrics = {m["name"]: {"value": layer.get(m["name"], 0.0), "unit": m["unit"]}
                          for m in spec["per_layer"]}
    else:
        result_metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in spec["end_to_end"]}
    print(json.dumps(details))
    print(json.dumps({"correct": run.correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": result_metrics}))
    return 0 if run.correct else 1


# ---------------------------------------------------------------------------
# --all: every workload, untraced and traced
# ---------------------------------------------------------------------------

def _child(workload: str, seed: int, seconds: float, traced: bool) -> tuple[int, dict | None, dict | None]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(traced))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        sys.stderr.write(proc.stderr)
        return proc.returncode, None, None
    return proc.returncode, json.loads(lines[-2]), json.loads(lines[-1])


def _same_outputs(a: dict, b: dict) -> bool:
    """The traced run's outputs equal the untraced run's over the steps or
    clips both ran."""
    for key, x in a.items():
        y = b[key]
        if isinstance(x, list):
            n = min(len(x), len(y))
            if x[:n] != y[:n]:
                return False
        elif x != y:
            return False
    return True


def _fmt(value) -> str:
    if isinstance(value, dict):  # a tail percentile
        return f"{value['value']:.4g} (p{value['percentile']} of {value['count']}, {value['beyond']} beyond)"
    if value is None:
        return "n/a (fewer than 20 samples)"
    return f"{value:.4g}"


def run_all(seed: int, seconds: float) -> int:
    from tracing import REPORTED_PRIMITIVES

    ok = True
    report = {}
    for entry in benchmark_spec()["workloads"]:
        name = entry["name"]
        code0, plain, result0 = _child(name, seed, seconds, False)
        code1, traced, result1 = _child(name, seed, seconds, True)
        if plain is None or traced is None:
            print(f"{name}: run failed (exit {code0}, {code1})")
            ok = False
            continue
        overhead = {k: traced["metrics"][k] / v - 1.0 for k, v in plain["metrics"].items()
                    if isinstance(v, float) and v and isinstance(traced["metrics"].get(k), float)}
        same = _same_outputs(plain["outputs"], traced["outputs"])
        recon = traced["reconciliation"]
        recon_ok = all(abs(r - 1.0) <= RECONCILE_TOL for r in recon.values())
        ok &= code0 == 0 and code1 == 0 and same and recon_ok
        report[name] = {"untraced": plain, "traced": traced, "tracing_overhead": overhead,
                        "traced_outputs_equal": same, "reconciled": recon_ok,
                        "result": result0, "traced_result": result1}

        print(f"== {name} (seed {seed}, {seconds:g} s)")
        for key, value in plain["metrics"].items():
            print(f"  {key:22s} {_fmt(value):>44s} {plain['units'][key]}")
        print(f"  checks: {plain['checks']}")
        print(f"  traced checks: {traced['checks']}")
        print(f"  traced outputs equal untraced: {same}")
        print("  tracing overhead: " + ", ".join(f"{k} {v:+.1%}" for k, v in overhead.items()))
        print("  reconciliation: " + (", ".join(f"{k} {v:.3f}" for k, v in recon.items()) or "n/a (no training)"))
        layer = traced["per_layer"]
        top = sorted(REPORTED_PRIMITIVES, key=lambda p: -layer[f"engine.{p}.bwd_ms"])
        print("  backward ms per step: " + ", ".join(f"{p} {layer[f'engine.{p}.bwd_ms']:.1f}" for p in top[:5]))
        print(f"  tape {layer['engine.tape_mb']:.1f} MB, {layer['engine.calls']:.0f} primitive calls per op")

    OUT.mkdir(exist_ok=True)
    with open(OUT / "results.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    print(f"wrote {(OUT / 'results.json').relative_to(ROOT)}; {'all checks passed' if ok else 'CHECKS FAILED'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true", help="run every workload of BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: print one fresh process's set-up and calibration times (see workloads.setup_seconds)
    parser.add_argument("--fresh-setup", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "ddgcn").is_dir():
        sys.stderr.write(f"perfbench: no ddgcn sources under {ROOT / 'src'}\n")
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    if args.all:
        return run_all(args.seed, args.seconds)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.fresh_setup:
        print(*workloads.fresh_setup(args.workload, args.seed, args.fresh_setup))
        return 0
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    # BLAS threads at most the cores this process may use; set before NumPy loads
    cores = len(os.sched_getaffinity(0))
    os.environ["OPENBLAS_NUM_THREADS"] = str(min(int(os.environ.get("OPENBLAS_NUM_THREADS", cores)), cores))
    sys.exit(main())
