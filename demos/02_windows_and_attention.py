#!/usr/bin/env python3
"""Spatio-temporal windows and the attention encoder.

Shows how a T x V sequence is tiled into non-overlapping windows of
tokens, how odd lengths are padded by repeating the last frame, how the
relative-position bias is indexed, and that window attention is properly
row-stochastic.
"""

import numpy as np

from ddgcn import engine, layers, windows

np.set_printoptions(precision=3, suppress=True)

print("=== Window layout for T=64, V=25 with 4x25 windows ===")
spec = windows.WindowSpec(4, 25)
layout = windows.split_windows(64, 25, spec)
print(f"windows: {layout.num_windows}, tokens per window: {spec.tokens}, "
      f"padded frames: {layout.padded_frames}")

print()
print("=== Padding: T=5 under 4-frame windows repeats the last frame ===")
layout5 = windows.split_windows(5, 25, spec)
print(f"padded to {layout5.padded_frames} frames, source frame per slot: {layout5.pad_frames}")

print()
print("=== Split/merge is a pure permutation of the padded grid ===")
rng = np.random.default_rng(0)
small = windows.split_windows(6, 3, windows.WindowSpec(2, 3))
grid = rng.standard_normal((small.padded_frames * 3, 2))
round_trip = grid[small.gather][small.scatter]
print("round trip exact:", np.array_equal(round_trip, grid))

print()
print("=== Relative position index for a 2x3 window ===")
tiny = windows.WindowSpec(2, 3)
idx = windows.relative_position_index(tiny)
print(f"bias table needs {tiny.bias_table_size} entries; index matrix:")
print(idx)
print("the diagonal is the zero-offset slot:", sorted(set(int(i) for i in np.diag(idx))))

print()
print("=== Window attention on a skeleton block ===")
stse = layers.STSE(channels=8, spec=windows.WindowSpec(4, 5), heads=4,
                   kernel=5, groups=4, stride=1, rng=np.random.default_rng(1))
# give the position bias something to say
stse.bias_tables.data = 0.5 * np.random.default_rng(2).standard_normal(
    stse.bias_tables.data.shape)
x = np.random.default_rng(3).uniform(-1, 1, (1, 8, 5, 8))  # a batch of one sequence
out = stse.forward(x)
print(f"input (B,T,V,C) = {x.shape} -> output {out.shape}")
# the block's window tokens, in the layout's gather order, and their attention
layout8 = windows.split_windows(8, 5, stse.spec)
tokens = x.reshape(1, -1, 8)[:, layout8.gather].reshape(1, layout8.num_windows, stse.spec.tokens, 8)
attn = stse.attention(engine.Tensor(tokens)).data
print(f"attention tensor (windows, heads, tokens, tokens) = {attn.shape[1:]}")
print(f"attention rows sum to 1 within {np.abs(attn.sum(-1) - 1).max():.1e}")

print()
print("=== A temporal stride shrinks T inside the block ===")
strided = layers.STSE(channels=8, spec=windows.WindowSpec(4, 5), heads=4,
                      kernel=5, groups=4, stride=2, rng=np.random.default_rng(4))
print(f"stride 2: {x.shape} -> {strided.forward(x).shape}")
