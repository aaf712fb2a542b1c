#!/usr/bin/env python3
"""The tensor engine: reverse-mode gradients checked against finite differences.

Every layer in this package runs on a small float64 tensor type. An
operation whose operands need a gradient gives its output a graph node with
a backward closure, and the closure keeps only the arrays its formula
reads. This script differentiates a
composite expression by hand, by the engine, and by central differences,
then runs the full layer-by-layer gradient battery.
"""

import numpy as np

from ddgcn import checks, engine as eg, graph
from ddgcn.engine import Parameter, Tensor

print("=== A scalar example: f(w) = sum(tanh(x @ w)) ===")
rng = np.random.default_rng(0)
x = Tensor(rng.uniform(-1, 1, (4, 3)))
w = Parameter(rng.uniform(-1, 1, (3, 2)), "w")


def f():
    return eg.scalar_mul(eg.mean_pool(eg.tanh(x @ w), axis=(0, 1)), 8.0)


loss = f()
loss.backward()
analytic = w.grad.copy()
numeric = eg.finite_difference_grad(f, w, h=1e-5)
manual = x.data.T @ (1.0 - np.tanh(x.data @ w.data) ** 2)
print("engine grad:\n", analytic)
print("finite differences agree within", np.abs(analytic - numeric).max())
print("closed form agrees within", np.abs(analytic - manual).max())

print()
print("=== Gradients accumulate additively until reset ===")
eg.zero_grads([w])
f().backward()
f().backward()
print("two passes give twice the gradient:",
      np.allclose(w.grad, 2 * analytic, atol=1e-12))

print()
print("=== Checkpoints: JSON header + raw little-endian float64 ===")
import tempfile
from pathlib import Path

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "demo.ckpt"
    eg.save_checkpoint([w], path)
    raw = path.read_bytes()
    print("header line:", raw[:raw.index(b'\n')].decode())
    restored = eg.load_checkpoint(path)["w"]
    print("payload round-trips exactly:", np.array_equal(restored, w.data))

print()
print("=== Layer-by-layer gradient battery (reverse mode vs. oracle) ===")
results = checks.run_gradient_battery(graph.get_topology("toy5"))
by_block = {}
for key, err in results.items():
    block = key.split("/", 1)[0]
    by_block[block] = max(by_block.get(block, 0.0), err)
for block in sorted(by_block):
    print(f"  {block:>20}: max rel err {by_block[block]:.2e}")
print("all within 1e-4:", checks.battery_passes(results))
