"""Recompute perfbench/reference.json, the stored values the output checks
compare against: for a train workload the loss at its reference step, for
the eval workload the digest of clip 0's fused scores, for every workload
and each of the seeds 0 .. REFERENCE_SEEDS-1.

    python3 perfbench/make_reference.py

Run it only for a change that is meant to alter the numbers, and say so
in that change.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import workloads  # noqa: E402


def main() -> int:
    table = {}
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    for name, w in sorted(workloads.WORKLOADS.items()):
        values = {}
        for seed in range(workloads.REFERENCE_SEEDS):
            with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as workdir:
                if w.kind == "train":
                    run = workloads.run_train(w, seed, math.inf, Path(workdir), max_steps=w.reference_step)
                    values[str(seed)] = run.outputs["losses"][-1]
                else:
                    values[str(seed)] = workloads.eval_reference(w, seed, Path(workdir))
            print(name, seed, values[str(seed)], flush=True)
        table[name] = values
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
