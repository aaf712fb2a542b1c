"""Skeleton sample ingestion, preprocessing and synthetic generation.

Datasets are JSON-lines files, one sample per line:

    {"id": "...", "label": 0, "joints": V, "channels": C,
     "frames": [[[x, y, z], ... V entries] ... T entries]}

The synthetic generator produces class-separable sinusoidal joint
trajectories over a kinematic tree, suitable for desk-scale training runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, read_number
from .graph import SkeletonTopology


@dataclass
class SkeletonSample:
    """One labeled sequence of per-frame joint coordinates (T, V, C)."""

    frames: np.ndarray
    label: int
    sample_id: str

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 3:
            raise DataError(f"sample {self.sample_id!r}: frames must be (T, V, C)")
        if self.frames.shape[0] == 0:
            raise DataError(f"sample {self.sample_id!r}: no frames")
        if not np.all(np.isfinite(self.frames)):
            raise DataError(f"sample {self.sample_id!r}: non-finite coordinates")


@dataclass(frozen=True)
class SyntheticSpec:
    num_classes: int
    samples_per_class: int
    frames: int
    topology: SkeletonTopology
    noise_std: float = 0.0
    seed: int = 0
    channels: int = 3


def load_dataset(path: str | Path, expected_joints: int | None = None) -> list[SkeletonSample]:
    """Read a JSON-lines dataset, validating every line.

    ``expected_joints`` enforces consistency with the run topology; a
    mismatching sample is rejected by id.
    """
    samples = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            try:
                sample_id = str(doc["id"])
                label = read_number(int, doc["label"])
                joints = read_number(int, doc["joints"])
                channels = read_number(int, doc["channels"])
                frames = np.asarray(doc["frames"], dtype=np.float64)
            except (KeyError, TypeError, ValueError) as exc:
                raise DataError(f"{path}:{lineno}: malformed sample: {exc}") from exc
            if frames.shape[:1] == (0,):
                raise DataError(f"{path}:{lineno}: sample {sample_id!r} has no frames")
            if frames.ndim != 3 or frames.shape[1] != joints or frames.shape[2] != channels:
                raise DataError(
                    f"{path}:{lineno}: frames shape {frames.shape} does not match "
                    f"joints={joints}, channels={channels}")
            if expected_joints is not None and joints != expected_joints:
                raise DataError(
                    f"sample {sample_id!r} has {joints} joints, run topology expects {expected_joints}")
            if label < 0:
                raise DataError(f"{path}:{lineno}: negative label")
            samples.append(SkeletonSample(frames=frames, label=label, sample_id=sample_id))
    return samples


def save_dataset(samples: list[SkeletonSample], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for s in samples:
            t, v, c = s.frames.shape
            doc = {
                "id": s.sample_id,
                "label": int(s.label),
                "joints": v,
                "channels": c,
                "frames": s.frames.tolist(),
            }
            handle.write(json.dumps(doc) + "\n")


def _resample_indices(length: int, target: int) -> np.ndarray:
    """Frame indices unifying a sequence of ``length`` frames to ``target``:
    last-frame repetition when short, uniform subsampling when long."""
    if length >= target:
        return (np.arange(target) * length // target).astype(np.int64)
    return np.minimum(np.arange(target, dtype=np.int64), length - 1)


def preprocess(sample: SkeletonSample, target_frames: int, root_joint: int = 0) -> SkeletonSample:
    """Center on the first frame's root joint and unify the temporal length.

    Idempotent for a sequence that already has ``target_frames`` frames.
    """
    if target_frames < 1:
        raise DataError("target_frames must be >= 1")
    frames = sample.frames[_resample_indices(sample.frames.shape[0], target_frames)]
    centered = frames - frames[0, root_joint, :][None, None, :]
    return SkeletonSample(frames=centered, label=sample.label, sample_id=sample.sample_id)


def class_trajectory(spec: SyntheticSpec, label: int) -> np.ndarray:
    """Deterministic noiseless trajectory of one class, shape (T, V, C).

    Every class gets its own fundamental frequency; per joint, frequency
    scales with depth in the kinematic tree, and amplitudes/phases are
    drawn from a class-keyed stream so classes stay well separated.
    """
    rng = np.random.default_rng([spec.seed, label])
    v = spec.topology.num_joints
    depth = spec.topology.hops_to_root().astype(np.float64)
    base = 1.0 + 0.5 * label
    t_axis = np.arange(spec.frames, dtype=np.float64) / max(spec.frames, 1)
    amp = rng.uniform(0.5, 1.5, size=(v, spec.channels))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(v, spec.channels))
    freq = base * (1.0 + 0.15 * depth)
    angles = 2.0 * np.pi * freq[None, :, None] * t_axis[:, None, None] + phase[None, :, :]
    return amp[None, :, :] * np.sin(angles)


def generate_synthetic(spec: SyntheticSpec) -> list[SkeletonSample]:
    """Seeded synthetic dataset; bit-identical across runs for a fixed spec."""
    if spec.num_classes < 1 or spec.samples_per_class < 1 or spec.frames < 1:
        raise DataError("synthetic spec must have positive counts")
    if not (np.isfinite(spec.noise_std) and spec.noise_std >= 0.0):
        raise DataError(f"synthetic noise_std must be finite and non-negative, got {spec.noise_std}")
    samples = []
    trajectories = [class_trajectory(spec, c) for c in range(spec.num_classes)]
    index = 0
    for label in range(spec.num_classes):
        for _ in range(spec.samples_per_class):
            frames = trajectories[label].copy()
            if spec.noise_std > 0.0:
                noise_rng = np.random.default_rng([spec.seed, 7919, index])
                frames = frames + spec.noise_std * noise_rng.standard_normal(frames.shape)
            samples.append(SkeletonSample(frames=frames, label=label,
                                          sample_id=f"synthetic-{label}-{index}"))
            index += 1
    return samples
