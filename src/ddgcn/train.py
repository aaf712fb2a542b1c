"""Training loop, Adam optimizer, step-decay schedule and evaluation."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import engine as eg
from .data import SkeletonSample
from .errors import ConfigError, ShapeError
from .layers import DDGCNModel, bone_transform, fuse_scores


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 80
    batch_size: int = 64
    base_lr: float = 0.1
    lr_decay: float = 0.1
    decay_every: int = 10
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.decay_every < 1:
            raise ConfigError("epochs, batch_size and decay_every must be positive")
        if not (np.isfinite(self.base_lr) and self.base_lr > 0) or not 0 < self.lr_decay <= 1:
            raise ConfigError("base_lr must be positive and finite and lr_decay in (0, 1]")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError(f"beta1 and beta2 must be in [0, 1), got {self.beta1} and {self.beta2}")
        if not (np.isfinite(self.eps) and self.eps > 0):
            raise ConfigError(f"eps must be positive and finite, got {self.eps}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


def lr_at(epoch: int, config: TrainConfig) -> float:
    """Step decay: base_lr * decay^(epoch // decay_every)."""
    if epoch < 0:
        raise ConfigError("epoch must be non-negative")
    return config.base_lr * config.lr_decay ** (epoch // config.decay_every)


class Adam:
    """Standard Adam with bias correction. The constructor moves the
    parameters into one flat buffer, ``data`` (``engine.flatten_parameters``),
    and ``m``, ``v`` and each step's gathered ``grad`` are flat in its layout,
    so a step is a few in-place vector ops, rounded as the textbook formula."""

    def __init__(self, params: list[eg.Parameter], config: TrainConfig):
        self.params = params
        self.beta1 = config.beta1
        self.beta2 = config.beta2
        self.eps = config.eps
        self.step_count = 0
        self.data = eg.flatten_parameters(params)
        self.m = np.zeros_like(self.data)
        self.v = np.zeros_like(self.data)
        self.grad = np.empty_like(self.data)

    def step(self, lr: float) -> None:
        """One update from each parameter's ``grad``. Every gradient is
        checked before any slot or parameter moves, so a refused step
        changes nothing."""
        for p in self.params:
            if p.grad is None:
                raise RuntimeError(f"Adam.step: parameter {p.name!r} has no gradient; "
                                   "run zero_grads and backward() first")
            if p.grad.shape != p.data.shape:
                raise ShapeError(f"gradient shape mismatch for {p.name}")
        self.step_count += 1
        t = self.step_count
        m, v, g = self.m, self.v, self.grad
        np.concatenate([p.grad for p in self.params], axis=None, out=g)
        v *= self.beta2
        step = (1.0 - self.beta2) * g
        step *= g
        v += step
        m *= self.beta1
        g *= 1.0 - self.beta1
        m += g
        # data -= lr * m_hat / (sqrt(v_hat) + eps), computed in g and step
        np.divide(v, 1.0 - self.beta2 ** t, out=step)
        np.sqrt(step, out=step)
        step += self.eps
        np.divide(m, 1.0 - self.beta1 ** t, out=g)
        g *= lr
        g /= step
        self.data -= g


@dataclass(frozen=True)
class HistoryRow:
    epoch: int
    lr: float
    loss: float
    accuracy: float


def _stack_batch(samples: list[SkeletonSample]) -> tuple[np.ndarray, np.ndarray]:
    frames = np.stack([s.frames for s in samples])
    labels = np.asarray([s.label for s in samples], dtype=np.int64)
    return frames, labels


# The most frames x joints one micro-batch holds. A step's tape grows with
# the samples it holds; this bound makes the toy5 acceptance batch (80 per
# sample) two micro-batches of 32 and an ntu25 clip (1600) its own micro-batch.
# See the micro-batch entry of CHANGES.md for the sweep that chose it.
MICRO_BATCH_TOKENS = 2560


def micro_batch_size(frames: int, joints: int) -> int:
    """The largest m >= 1 with m * frames * joints <= MICRO_BATCH_TOKENS."""
    return max(1, MICRO_BATCH_TOKENS // (frames * joints))


def train(model: DDGCNModel, dataset: list[SkeletonSample], config: TrainConfig,
          log=None) -> list[HistoryRow]:
    """Mini-batch cross-entropy training; deterministic for a fixed seed.

    Samples are reshuffled every epoch from one seeded stream. Each batch
    runs in micro-batches of ``micro_batch_size`` samples, so a step's peak
    memory follows that size, not the batch size. No op mixes samples, so
    scaling each micro-batch's mean loss by its share n/B of the batch
    before ``backward()`` accumulates the whole batch's gradient in the
    Parameters; Adam then steps once. The history holds one row per epoch
    with the mean sample loss and the training accuracy measured on the
    same forward passes.
    """
    if not dataset:
        raise ConfigError("training requires a non-empty dataset")
    lengths = {s.frames.shape[0] for s in dataset}
    if len(lengths) != 1:
        raise ConfigError(f"all samples must share one temporal length, got {sorted(lengths)}")
    joints_channels = {s.frames.shape[1:] for s in dataset}
    if len(joints_channels) != 1:
        raise ConfigError(f"all samples must share one joint and channel count, got (V, C) of "
                          f"{sorted(joints_channels)}")
    params = model.parameters()
    optimizer = Adam(params, config)
    rng = np.random.default_rng(config.seed)
    micro = micro_batch_size(*dataset[0].frames.shape[:2])
    history = []
    for epoch in range(config.epochs):
        lr = lr_at(epoch, config)
        order = rng.permutation(len(dataset))
        total_loss = 0.0
        correct = 0
        for start in range(0, len(dataset), config.batch_size):
            batch = order[start:start + config.batch_size]
            eg.zero_grads(params)
            for part in range(0, len(batch), micro):
                frames, labels = _stack_batch([dataset[i] for i in batch[part:part + micro]])
                logits = model.logits(frames)
                loss = eg.cross_entropy(logits, labels)
                (loss * (len(labels) / len(batch))).backward()
                total_loss += loss.item() * len(labels)
                correct += int((logits.data.argmax(axis=1) == labels).sum())
            optimizer.step(lr)
        row = HistoryRow(epoch=epoch, lr=lr, loss=total_loss / len(dataset),
                         accuracy=correct / len(dataset))
        history.append(row)
        if log is not None:
            log(row)
    return history


def evaluate(model: DDGCNModel, dataset: list[SkeletonSample]) -> float:
    """Top-1 accuracy; argmax ties break to the lowest class index."""
    if not dataset:
        raise ConfigError("evaluation requires a non-empty dataset")
    correct = 0
    for sample in dataset:
        probs = model.predict_proba(sample.frames)
        correct += int(int(np.argmax(probs)) == sample.label)
    return correct / len(dataset)


def evaluate_fused(model_joint: DDGCNModel, model_bone: DDGCNModel,
                   dataset: list[SkeletonSample]) -> float:
    """Top-1 accuracy of the score-averaged two-stream ensemble.

    ``dataset`` holds joint coordinates; the second model sees the bone
    stream derived with its topology.
    """
    if not dataset:
        raise ConfigError("evaluation requires a non-empty dataset")
    topology = model_bone.config.topology
    correct = 0
    for sample in dataset:
        fused = fuse_scores(model_joint.predict_proba(sample.frames),
                            model_bone.predict_proba(bone_transform(sample.frames, topology)))
        correct += int(int(np.argmax(fused)) == sample.label)
    return correct / len(dataset)


HISTORY_FIELDS = ("epoch", "lr", "loss", "accuracy")


def history_cells(row: HistoryRow) -> list:
    """One CSV row in HISTORY_FIELDS order; floats are written by repr, so
    they read back exactly."""
    return [row.epoch, repr(row.lr), repr(row.loss), repr(row.accuracy)]


def write_history_csv(history: list[HistoryRow], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(HISTORY_FIELDS)
        for row in history:
            writer.writerow(history_cells(row))


def read_history_csv(path: str | Path) -> list[HistoryRow]:
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or tuple(reader.fieldnames) != HISTORY_FIELDS:
            raise ValueError(f"{path}: expected header {','.join(HISTORY_FIELDS)}")
        for rec in reader:
            # DictReader files extra cells under None and fills missing ones with None
            if None in rec or None in rec.values():
                raise ValueError(f"{path}, line {reader.line_num}: expected {len(HISTORY_FIELDS)} cells "
                                 f"({','.join(HISTORY_FIELDS)}), the row has "
                                 f"{'more' if None in rec else 'fewer'}")
            rows.append(HistoryRow(epoch=int(rec["epoch"]), lr=float(rec["lr"]),
                                   loss=float(rec["loss"]), accuracy=float(rec["accuracy"])))
    return rows
