"""Gradient-check battery: reverse-mode adjoints vs. central differences.

Used by the CLI gradcheck command and the acceptance suite. Every check
builds a deterministic scalar loss over a small input and compares the
recorded gradients of all parameters (the input included) against the
finite-difference oracle.
"""

from __future__ import annotations

import numpy as np

from . import engine as eg
from .engine import Parameter, Tensor
from .graph import SkeletonTopology, make_partition
from .layers import CAGC, ModelConfig, DDGCNModel, STSE
from .windows import WindowSpec

DEFAULT_TOLERANCE = 1e-4


def weighted_sum(t: Tensor, weights: np.ndarray) -> Tensor:
    """Fixed random projection of a tensor to a scalar, for loss surrogates."""
    axes = tuple(range(t.ndim))
    return eg.scalar_mul(eg.mean_pool(eg.mul(t, Tensor(weights)), axes), float(t.data.size))


def run_gradient_battery(topology: SkeletonTopology, strategy: str = "activity",
                         heads: int = 4, kernel: int = 5, groups: int = 4,
                         frames: int = 8, channels: int = 8, seed: int = 2024,
                         h: float = 1e-5) -> dict[str, float]:
    """Relative gradient error per check, keyed by ``<check>/<param>``.

    Covers the correlation branch, the full graph convolution, single-window
    attention, the windowed encoder block (stride 1) and a two-layer model
    with a temporal stride, all at desk-scale shapes.
    """
    rng = np.random.default_rng(seed)
    v = topology.num_joints
    labeling = make_partition(topology, strategy)
    results: dict[str, float] = {}

    def record(tag, f, params):
        for name, err in eg.grad_check(f, params, h=h).items():
            results[f"{tag}/{name}"] = err

    # Correlation branch alone.
    cagc = CAGC(channels, channels, topology, labeling, np.random.default_rng(seed + 1))
    cagc.alpha.data = np.asarray(0.3)
    x_in = Parameter(rng.uniform(-1.0, 1.0, size=(1, frames, v, channels)), "input")
    r_corr = rng.standard_normal((1, channels, v, v))
    record("channel_correlation",
           lambda: weighted_sum(cagc.correlation(x_in), r_corr),
           cagc.parameters() + [x_in])

    # Full graph convolution, ReLU included.
    r_cagc = rng.standard_normal((1, frames, v, channels))
    record("cagc_forward",
           lambda: weighted_sum(cagc.forward(x_in), r_cagc),
           cagc.parameters() + [x_in])

    # Attention over one window of tokens.
    spec = WindowSpec(4, v)
    stse = STSE(channels, spec, heads, kernel, groups, stride=1,
                rng=np.random.default_rng(seed + 2))
    stse.bias_tables.data = 0.1 * np.random.default_rng(seed + 3).standard_normal(
        stse.bias_tables.data.shape)
    tokens = Parameter(rng.uniform(-1.0, 1.0, size=(1, 1, spec.tokens, channels)), "tokens")
    r_msa = rng.standard_normal((1, 1, spec.tokens, channels))
    record("msa_window",
           lambda: weighted_sum(stse.attend(tokens), r_msa),
           stse.parameters() + [tokens])

    # The whole windowed encoder block.
    r_stse = rng.standard_normal((1, frames, v, channels))
    record("stse_forward",
           lambda: weighted_sum(stse.forward(x_in), r_stse),
           stse.parameters() + [x_in])

    # Two stacked layers with a temporal stride, driven by cross-entropy.
    config = ModelConfig(
        topology=topology, num_classes=3, strategy=strategy,
        channels=(channels, channels), strides=(1, 2),
        window=spec, heads=heads, kernel=kernel, groups=groups, in_channels=3)
    model = DDGCNModel(config, seed=seed + 4)
    for layer in model.layers:
        layer.cagc.alpha.data = np.asarray(0.2)
    # The head ships zero-initialized; move it off zero so gradients reach
    # every upstream parameter at the check point.
    head_rng = np.random.default_rng(seed + 5)
    model.head_w.data = head_rng.uniform(-0.5, 0.5, size=model.head_w.data.shape)
    model.head_b.data = head_rng.uniform(-0.1, 0.1, size=model.head_b.data.shape)
    x_model = Parameter(rng.uniform(-1.0, 1.0, size=(frames, v, 3)), "input")
    record("model",
           lambda: eg.cross_entropy(model.logits(x_model), 1),
           model.parameters() + [x_model])

    return results


def battery_passes(results: dict[str, float], tolerance: float = DEFAULT_TOLERANCE) -> bool:
    return all(err <= tolerance for err in results.values())
