"""Non-overlapping spatio-temporal windows over a T x V joint grid.

A sequence is tiled into windows of ``frames x joints`` tokens. Token order
inside a window is frame-major, then joint id. When T is not a multiple of
the window height the sequence is padded by repeating the last frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class WindowSpec:
    frames: int
    joints: int

    def __post_init__(self):
        if self.frames < 1 or self.joints < 1:
            raise ConfigError("window dimensions must be at least 1")

    @property
    def tokens(self) -> int:
        return self.frames * self.joints

    @property
    def bias_table_size(self) -> int:
        """Number of distinct (frame offset, joint offset) pairs in a window."""
        return (2 * self.frames - 1) * (2 * self.joints - 1)


@dataclass(frozen=True)
class WindowLayout:
    """Token bookkeeping for one (T, V) grid under a WindowSpec.

    ``gather`` lists flat t * V + v indices of the padded grid in window
    order; ``scatter`` is the inverse permutation. ``pad_frames`` maps the
    padded time axis back onto source frames (last frame repeated).
    """

    padded_frames: int
    num_windows: int
    gather: np.ndarray
    scatter: np.ndarray
    pad_frames: np.ndarray


def split_windows(frames: int, num_joints: int, spec: WindowSpec) -> WindowLayout:
    """Plan the window tiling of a T x V grid.

    Windows are enumerated time-block major, then joint-block; every padded
    (t, v) cell lands in exactly one window.
    """
    if num_joints % spec.joints != 0:
        raise ConfigError(
            f"joint count {num_joints} is not divisible by window width {spec.joints}"
        )
    if frames < 1:
        raise ConfigError("sequence must contain at least one frame")
    m, n = spec.frames, spec.joints
    padded = ((frames + m - 1) // m) * m
    t_blocks = padded // m
    v_blocks = num_joints // n

    gather = (np.arange(padded * num_joints, dtype=np.int64)
              .reshape(t_blocks, m, v_blocks, n).transpose(0, 2, 1, 3).ravel())
    scatter = np.argsort(gather)
    return WindowLayout(
        padded_frames=padded,
        num_windows=t_blocks * v_blocks,
        gather=gather,
        scatter=scatter,
        pad_frames=np.minimum(np.arange(padded, dtype=np.int64), frames - 1),
    )


def relative_position_index(spec: WindowSpec) -> np.ndarray:
    """Flat bias-table index per ordered token pair of one window.

    Entry (p, q) encodes the offset of token q relative to token p:
    (dt + M - 1) * (2N - 1) + (dv + N - 1), so equal offsets share an index
    regardless of absolute position.
    """
    m, n = spec.frames, spec.joints
    t = np.arange(spec.tokens) // n
    v = np.arange(spec.tokens) % n
    dt = t[None, :] - t[:, None]
    dv = v[None, :] - v[:, None]
    return (dt + m - 1) * (2 * n - 1) + (dv + n - 1)
