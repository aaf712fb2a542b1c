#!/usr/bin/env python3
"""End-to-end desk-scale run: synthetic data, training, and stream fusion.

Generates a small synthetic action set over the 5-joint star skeleton,
trains a reduced model on the joint stream and another on the bone
stream, scores each model once and fuses the two score arrays. Takes
about 6 s on a 2-core x86-64 host.
"""

import time

import numpy as np

from ddgcn import data, graph, layers, train, windows

topology = graph.get_topology("toy5")

print("=== Synthetic dataset: 4 classes of sinusoidal joint trajectories ===")
spec = data.SyntheticSpec(num_classes=4, samples_per_class=10, frames=16,
                          topology=topology, noise_std=0.02, seed=7)
samples = [data.preprocess(s, 16, root_joint=topology.root)
           for s in data.generate_synthetic(spec)]
print(f"{len(samples)} samples of shape {samples[0].frames.shape}")

config = layers.ModelConfig(
    topology=topology, num_classes=4,
    channels=(16, 16, 32, 32), strides=(1, 1, 2, 1),
    window=windows.WindowSpec(4, 5), heads=4, kernel=5, groups=4, in_channels=3)
train_config = train.TrainConfig(epochs=40, batch_size=32, base_lr=0.001, seed=0)

print()
print("=== Joint stream ===")
model_joint = layers.DDGCNModel(config, seed=0)
start = time.perf_counter()
history = train.train(model_joint, samples, train_config,
                      log=lambda row: row.epoch % 10 == 0 and print(
                          f"  epoch {row.epoch:3d}  lr {row.lr:.2e}  "
                          f"loss {row.loss:.4f}  acc {row.accuracy:.3f}"))
scores_joint = train.scores(model_joint, samples)
acc_joint = train.accuracy(scores_joint, samples)
print(f"joint-stream train accuracy: {acc_joint:.3f} "
      f"({time.perf_counter() - start:.0f}s)")

print()
print("=== Bone stream (child minus parent vectors) ===")
model_bone = layers.DDGCNModel(config, seed=1)
train.train(model_bone, samples, train_config, stream="bone")
scores_bone = train.scores(model_bone, samples, "bone")
acc_bone = train.accuracy(scores_bone, samples)
print(f"bone-stream train accuracy: {acc_bone:.3f}")

print()
print("=== Score fusion ===")
fused = train.accuracy(layers.fuse_scores(scores_joint, scores_bone), samples)
print(f"joint {acc_joint:.3f} | bone {acc_bone:.3f} | fused {fused:.3f}")

sample = samples[0]
p_joint = model_joint.predict_proba(sample.frames)
p_bone = model_bone.predict_proba(layers.bone_transform(sample.frames, topology))
print(f"example probabilities, sample {sample.sample_id!r} (label {sample.label}):")
print(f"  joint: {np.round(p_joint, 3)}")
print(f"  bone:  {np.round(p_bone, 3)}")
print(f"  fused: {np.round(layers.fuse_scores(p_joint, p_bone), 3)}")
