"""Model building blocks.

CAGC: graph convolution over the directed skeleton with per-subset kernels
and a learned channel-wise correlation term. STSE: windowed multi-head
self-attention with a relative-position bias, followed by grouped temporal
convolution, shortcut and layer normalization. Ten stacked layers plus
global pooling and a softmax head form the classifier; joint and bone
streams can be fused by score averaging.

The blocks (CAGC, STSE, STGCLayer) are stateless maps of one batch
(B, T, V, C) and raise ShapeError on any other rank; only the model's entry
points also take a single sequence (T, V, C), lifted to a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine as eg
from .engine import Parameter, Tensor
from .errors import ConfigError, ShapeError
from .graph import (
    SkeletonTopology,
    PartitionLabeling,
    build_adjacency,
    make_partition,
    masked_normalized_adjacency,
    partition_adjacency,
)
from .windows import WindowSpec, relative_position_index, split_windows


def _uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def correlation_width(out_channels: int) -> int:
    """Bottleneck width of the correlation branch: C_out / 4, at least 4."""
    return max(out_channels // 4, 4)


def _batch(x, block: str) -> Tensor:
    t = x if isinstance(x, Tensor) else Tensor(x)
    if t.ndim != 4:
        raise ShapeError(f"{block}: expected a (B, T, V, C) batch, got {t.shape}")
    return t


class CAGC:
    """Channel-wise adaptive graph convolution.

    Each partition subset k masks A + I, is symmetrically degree-normalized
    into M_k and mixes channels with its own kernel W_k = ``weight[k]``. The
    correlation term alpha * A' (one V x V map per output channel, from
    pairwise differences of temporally pooled joint features) refines
    subset 0 per channel, unnormalized and unmasked, as CTR-GCN refines a
    shared topology:

        out = sum_{k>=1} M_k x W_k + (M_0 + alpha A') o_c (x W_0)

    where o_c applies channel c's map to channel c of x W_0. A' rides on
    subset 0 because then it needs no kernel of its own: x W_0 is formed
    once, and subset 0 and the correlation become one per-channel adjacency
    M_0 + alpha A' times it. Subsets 1..K-1 run as one contraction over
    (subset, neighbor). alpha scales the small xi weight, not an
    activation, and starts at 0, so the initial layer is the plain
    normalized-adjacency convolution.
    """

    def __init__(self, in_channels: int, out_channels: int, topology: SkeletonTopology,
                 labeling: PartitionLabeling, rng: np.random.Generator, name: str = "cagc"):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.num_joints = v = topology.num_joints
        stack = masked_normalized_adjacency(topology, labeling)  # (K, V, V)
        self.base = Tensor(stack[0])  # M_0, which the correlation term refines
        # row i*(K-1)+k-1: row i of subset k, for k = 1..K-1
        self.masks = Tensor(stack[1:].transpose(1, 0, 2).reshape(-1, v))
        width = correlation_width(out_channels)
        self.weight = Parameter(_uniform(rng, (len(stack), in_channels, out_channels), in_channels), f"{name}.weight")
        self.alpha = Parameter(0.0, f"{name}.alpha")
        self.theta = Parameter(_uniform(rng, (in_channels, width), in_channels), f"{name}.theta")
        self.phi = Parameter(_uniform(rng, (in_channels, width), in_channels), f"{name}.phi")
        self.xi = Parameter(_uniform(rng, (width, out_channels), width), f"{name}.xi")

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.alpha, self.theta, self.phi, self.xi]

    def _correlation(self, xb: Tensor, xi: Tensor) -> Tensor:
        """A' with ``xi`` as its last map; the forward passes alpha * xi."""
        b, _, v, _ = xb.shape
        xbar = eg.mean_pool(xb, axis=1)
        left = eg.reshape(xbar @ self.theta, (b, v, 1, -1))
        right = eg.reshape(xbar @ self.phi, (b, 1, v, -1))
        return eg.transpose(eg.tanh(left - right) @ xi, (0, 3, 1, 2))

    def correlation(self, x) -> Tensor:
        """Pairwise channel correlations A'.

        (B, T, V, C_in) -> (B, C_out, V, V). Entry [b, c, i, j] is
        xi(tanh(theta(xbar_i) - phi(xbar_j)))[c] with xbar the temporal mean
        per joint of sample b.
        """
        return self._correlation(_batch(x, "cagc"), self.xi)

    def forward(self, x, activate: bool = True) -> Tensor:
        """(B, T, V, C_in) -> (B, T, V, C_out); ReLU unless ``activate`` is False."""
        xb = _batch(x, "cagc")
        if xb.shape[2] != self.num_joints or xb.shape[3] != self.in_channels:
            raise ShapeError(
                f"cagc: expected {self.num_joints} joints x {self.in_channels} channels, got {xb.shape}")
        c_in = self.in_channels
        kernel = eg.reshape(self.weight, (-1, self.out_channels))  # (K*C_in, C_out)
        # row slices of a 2-D kernel are views, and each product folds into one GEMM;
        # a take of an activation would scatter in backward
        per_channel = eg.transpose(xb @ eg.take(kernel, np.arange(c_in), axis=0), (0, 3, 2, 1))
        adjacency = self._correlation(xb, self.alpha * self.xi) + self.base  # (B, C_out, V, V)
        total = eg.transpose(adjacency @ per_channel, (0, 3, 2, 1))
        if kernel.shape[0] > c_in:  # subsets 1..K-1; the uniform strategy has none
            agg = eg.reshape(self.masks @ xb, xb.shape[:3] + (-1,))  # (B, T, V, (K-1)*C_in)
            total = agg @ eg.take(kernel, np.arange(c_in, kernel.shape[0]), axis=0) + total
        return eg.relu(total) if activate else total


def sgc_reference(x: np.ndarray, topology: SkeletonTopology, labeling: PartitionLabeling,
                  weights: np.ndarray) -> np.ndarray:
    """Per-vertex spatial graph convolution, written as explicit loops.

    This is the oracle path for the vectorized CAGC: each root gathers its
    neighbors under A + I, weighting each by the symmetric degree
    normalization of its subset's masked adjacency. No nonlinearity.
    """
    v = topology.num_joints
    t, vx, _ = x.shape
    if vx != v:
        raise ShapeError(f"input has {vx} joints, topology has {v}")
    adj = build_adjacency(topology)
    full = adj + np.eye(v)
    out = np.zeros((t, v, weights[0].shape[1]), dtype=np.float64)

    inv_sqrt = []
    for k in range(labeling.num_subsets):
        masked = partition_adjacency(adj, labeling, k)
        deg = masked.sum(axis=1)
        inv_sqrt.append(np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0))

    for i in range(v):
        for j in range(v):
            if full[i, j] != 0.0:
                k = labeling.label_of(i, j)
                coeff = inv_sqrt[k][i] * full[i, j] * inv_sqrt[k][j]
                out[:, i, :] += coeff * (x[:, j, :] @ weights[k])
    return out


class STSE:
    """Spatio-temporal synchronous encoder.

    The sequence is tiled into non-overlapping windows whose tokens are
    mixed by multi-head attention with a relative-position bias, merged
    back, passed through a grouped temporal convolution, and stabilized by
    a shortcut plus layer normalization. A temporal stride > 1 shrinks T to
    ceil(T / stride) inside the convolution (the shortcut is subsampled to
    match).
    """

    def __init__(self, channels: int, spec: WindowSpec, heads: int, kernel: int,
                 groups: int, stride: int, rng: np.random.Generator, name: str = "stse"):
        if channels % heads != 0:
            raise ConfigError(f"heads={heads} must divide channels={channels}")
        if channels % groups != 0:
            raise ConfigError(f"groups={groups} must divide channels={channels}")
        self.channels = channels
        self.spec = spec
        self.heads = heads
        self.groups = groups
        self.stride = stride
        self.rel_index = relative_position_index(spec)
        c = channels
        self.wq = Parameter(_uniform(rng, (c, c), c), f"{name}.wq")
        self.wk = Parameter(_uniform(rng, (c, c), c), f"{name}.wk")
        self.wv = Parameter(_uniform(rng, (c, c), c), f"{name}.wv")
        self.wo = Parameter(_uniform(rng, (c, c), c), f"{name}.wo")
        # no key bias: it shifts every score in a row equally, which softmax
        # cancels, leaving a parameter that can never receive gradient
        self.bq = Parameter(np.zeros(c), f"{name}.bq")
        self.bv = Parameter(np.zeros(c), f"{name}.bv")
        self.bo = Parameter(np.zeros(c), f"{name}.bo")
        self.bias_tables = Parameter(np.zeros((heads, spec.bias_table_size)), f"{name}.bias")
        self.gtc_weight = Parameter(
            _uniform(rng, (c, c // groups, kernel), (c // groups) * kernel), f"{name}.gtc")
        self.ln_gamma = Parameter(np.ones(c), f"{name}.ln_gamma")
        self.ln_beta = Parameter(np.zeros(c), f"{name}.ln_beta")

    def parameters(self) -> list[Parameter]:
        return [self.wq, self.wk, self.wv, self.wo, self.bq, self.bv, self.bo,
                self.bias_tables, self.gtc_weight, self.ln_gamma, self.ln_beta]

    def _heads(self, tokens: Tensor, proj: Tensor, bias=None, transposed=False) -> Tensor:
        """Project (B, n, L, C) tokens and split the heads: (B, n, H, L, C/H),
        or (B, n, H, C/H, L) when ``transposed``."""
        b, n, length, c = tokens.shape
        mapped = eg.matmul(tokens, proj, bias)
        p = eg.reshape(mapped, (b, n, length, self.heads, c // self.heads))
        return eg.transpose(p, (0, 1, 3, 4, 2) if transposed else (0, 1, 3, 2, 4))

    def attention(self, tokens: Tensor) -> Tensor:
        """Softmax weights of each head in each window; (B, n, L, C) -> (B, n, H, L, L)."""
        # scale the (C, C) query weight and its bias, not the (..., L, head_dim)
        # queries or the (..., L, L) scores
        scale = 1.0 / np.sqrt(self.channels // self.heads)
        q = self._heads(tokens, eg.scalar_mul(self.wq, scale), eg.scalar_mul(self.bq, scale))
        scores = q @ self._heads(tokens, self.wk, transposed=True)
        return eg.softmax(scores, eg.gather(self.bias_tables, self.rel_index))

    def attend(self, tokens: Tensor) -> Tensor:
        """Multi-head attention inside each window; (B, n, L, C) -> same."""
        ctx = self.attention(tokens) @ self._heads(tokens, self.wv, self.bv)
        return eg.matmul(eg.reshape(eg.transpose(ctx, (0, 1, 3, 2, 4)), tokens.shape), self.wo, self.bo)

    def forward(self, x) -> Tensor:
        """(B, T, V, C) -> (B, ceil(T / stride), V, C)."""
        xb = _batch(x, "stse")
        b, t, v, c = xb.shape
        if c != self.channels:
            raise ShapeError(f"stse: expected {self.channels} channels, got {c}")
        layout = split_windows(t, v, self.spec)
        h = xb
        if layout.padded_frames > t:
            h = eg.take(h, layout.pad_frames, axis=1)
        # window split and merge are views, in the token order of layout.gather
        tb, m, vb, n = layout.grid
        grid = eg.transpose(eg.reshape(h, (b, tb, m, vb, n, c)), (0, 1, 3, 2, 4, 5))
        mixed = self.attend(eg.reshape(grid, (b, layout.num_windows, m * n, c)))
        mixed = eg.transpose(eg.reshape(mixed, (b, tb, vb, m, n, c)), (0, 1, 3, 2, 4, 5))
        seq = eg.reshape(mixed, (b, layout.padded_frames, v, c))
        if layout.padded_frames > t:
            seq = eg.take(seq, np.arange(t), axis=1)
        y = eg.temporal_conv(seq, self.gtc_weight, self.groups, self.stride)
        shortcut = xb if self.stride == 1 else eg.take(xb, np.arange(0, t, self.stride), axis=1)
        return eg.layer_norm(y + shortcut, self.ln_gamma, self.ln_beta)


class STGCLayer:
    """One stacked unit: CAGC into STSE, with an identity shortcut across
    the pair when channels and temporal length are preserved."""

    def __init__(self, in_channels: int, out_channels: int, stride: int,
                 topology: SkeletonTopology, labeling: PartitionLabeling, spec: WindowSpec,
                 heads: int, kernel: int, groups: int, rng: np.random.Generator, name: str):
        self.cagc = CAGC(in_channels, out_channels, topology, labeling, rng, f"{name}.cagc")
        self.stse = STSE(out_channels, spec, heads, kernel, groups, stride, rng, f"{name}.stse")
        self.residual = in_channels == out_channels and stride == 1

    def parameters(self) -> list[Parameter]:
        return self.cagc.parameters() + self.stse.parameters()

    def forward(self, x) -> Tensor:
        xb = _batch(x, "layer")
        out = self.stse.forward(self.cagc.forward(xb))
        return out + xb if self.residual else out


DEFAULT_CHANNELS = (64, 64, 64, 64, 128, 128, 128, 256, 256, 256)
DEFAULT_STRIDES = (1, 1, 1, 1, 2, 1, 1, 2, 1, 1)


@dataclass(frozen=True)
class ModelConfig:
    """Static description of the stacked classifier."""

    topology: SkeletonTopology
    num_classes: int
    strategy: str = "activity"
    channels: tuple[int, ...] = DEFAULT_CHANNELS
    strides: tuple[int, ...] = DEFAULT_STRIDES
    window: WindowSpec = WindowSpec(4, 25)
    heads: int = 4
    kernel: int = 5
    groups: int = 4
    in_channels: int = 3

    def __post_init__(self):
        if self.num_classes < 2:
            raise ConfigError("need at least two classes")
        if len(self.channels) != len(self.strides):
            raise ConfigError("channels and strides must have the same length")
        if not self.channels:
            raise ConfigError("at least one layer is required")
        sizes = {"heads": self.heads, "groups": self.groups, "kernel": self.kernel,
                 "in_channels": self.in_channels, "channels": min(self.channels),
                 "strides": min(self.strides)}
        for key, value in sizes.items():
            if value < 1:
                raise ConfigError(f"{key} must be >= 1, got {value}")
        for c in self.channels:
            if c % self.heads != 0:
                raise ConfigError(f"heads={self.heads} must divide every layer width, got {c}")
            if c % self.groups != 0:
                raise ConfigError(f"groups={self.groups} must divide every layer width, got {c}")
        if self.topology.num_joints % self.window.joints != 0:
            raise ConfigError(
                f"window width {self.window.joints} must divide joint count {self.topology.num_joints}")

    def describe(self) -> dict:
        """The config as JSON values; checkpoints carry it and are checked against it."""
        return {"edges": [list(edge) for edge in self.topology.edges], "root": self.topology.root,
                "strategy": self.strategy, "channels": list(self.channels),
                "strides": list(self.strides), "window": [self.window.frames, self.window.joints],
                "heads": self.heads, "kernel": self.kernel, "groups": self.groups,
                "in_channels": self.in_channels, "num_classes": self.num_classes}


class DDGCNModel:
    """Stacked CAGC + STSE layers with global pooling and a softmax head."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        labeling = make_partition(config.topology, config.strategy)
        self.labeling = labeling
        c0 = config.channels[0]
        self.embed_w = Parameter(_uniform(rng, (config.in_channels, c0), config.in_channels), "embed.weight")
        self.embed_b = Parameter(np.zeros(c0), "embed.bias")
        self.layers = []
        prev = c0
        for i, (width, stride) in enumerate(zip(config.channels, config.strides)):
            self.layers.append(STGCLayer(
                prev, width, stride, config.topology, labeling, config.window,
                config.heads, config.kernel, config.groups, rng, f"layers.{i}"))
            prev = width
        # Zero head: the untrained model scores every class equally, so the
        # initial loss is exactly ln(num_classes).
        self.head_w = Parameter(np.zeros((prev, config.num_classes)), "head.weight")
        self.head_b = Parameter(np.zeros(config.num_classes), "head.bias")

    def parameters(self) -> list[Parameter]:
        params = [self.embed_w, self.embed_b]
        for layer in self.layers:
            params.extend(layer.parameters())
        params.extend([self.head_w, self.head_b])
        return params

    def logits(self, x) -> Tensor:
        """Class scores before softmax: (T, V, C) -> (K,), batched -> (B, K)."""
        t = x if isinstance(x, Tensor) else Tensor(x)
        squeeze = t.ndim == 3
        xb = _batch(eg.reshape(t, (1,) + t.shape) if squeeze else t, "model")
        v, c = self.config.topology.num_joints, self.config.in_channels
        if xb.shape[2] != v or xb.shape[3] != c:
            raise ShapeError(f"model expects {v} joints x {c} channels, got {xb.shape}")
        h = eg.matmul(xb, self.embed_w, self.embed_b)
        for layer in self.layers:
            h = layer.forward(h)
        feat = eg.mean_pool(h, axis=(1, 2))
        out = eg.matmul(feat, self.head_w, self.head_b)
        return eg.reshape(out, out.shape[1:]) if squeeze else out

    def forward(self, x) -> Tensor:
        """Class probabilities; rows sum to one."""
        return eg.softmax(self.logits(x))

    def predict_proba(self, x) -> np.ndarray:
        with eg.no_tape():
            return self.forward(x).data

    def save(self, path) -> None:
        eg.save_checkpoint(self.parameters(), path, self.config.describe())

    def load(self, path) -> None:
        """Restore the parameters from a checkpoint of this config. Like
        ``load_state_dict``, it overwrites each parameter's array in place,
        read straight from the file; nothing is written if a check fails."""
        eg.load_checkpoint(path, self.config.describe(), self.parameters())


def bone_transform(frames: np.ndarray, topology: SkeletonTopology) -> np.ndarray:
    """Joint coordinates -> bone vectors (child minus parent; zero at the one
    joint without a parent, which need not be the designated root).

    Works on (T, V, C) or any leading batch shape; invariant to global
    translation of the skeleton.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.shape[-2] != topology.num_joints:
        raise ShapeError(f"expected {topology.num_joints} joints, got {frames.shape[-2]}")
    parents = topology.parent_of()
    bones = frames - frames[..., np.maximum(parents, 0), :]
    bones[..., parents < 0, :] = 0.0
    return bones


def fuse_scores(p_first: np.ndarray, p_second: np.ndarray) -> np.ndarray:
    """Elementwise mean of two score vectors; argmax gives the fused label."""
    a = np.asarray(p_first, dtype=np.float64)
    b = np.asarray(p_second, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"score shapes differ: {a.shape} vs {b.shape}")
    return 0.5 * (a + b)
