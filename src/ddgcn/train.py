"""Training loop, Adam optimizer, step-decay schedule and evaluation."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import engine as eg
from .data import SkeletonSample
from .errors import ConfigError
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
    parameters and their gradients into two flat buffers, ``data`` and
    ``grad`` (``engine.flatten_parameters``), and ``m`` and ``v`` are flat in
    the same layout. Each ``p.grad`` is then a view of ``grad``, so a
    backward after ``engine.zero_grads`` accumulates there with no gather,
    and a step is a few vector ops rounded as the textbook formula."""

    def __init__(self, params: list[eg.Parameter], config: TrainConfig):
        self.params = params
        self.beta1, self.beta2, self.eps = config.beta1, config.beta2, config.eps
        self.step_count = 0
        self.data, self.grad = eg.flatten_parameters(params)
        self._views = [p.grad for p in params]
        self.m = np.zeros_like(self.data)
        self.v = np.zeros_like(self.data)

    def step(self, lr: float) -> None:
        """One update from ``grad``, which it leaves as it is. Each ``p.grad``
        must still be the view the constructor bound; one set to ``None`` or
        replaced is refused before any slot or parameter moves."""
        for p, view in zip(self.params, self._views):
            if p.grad is not view:
                raise RuntimeError(f"Adam.step: the gradient of parameter {p.name!r} is no longer its "
                                   "view of Adam.grad; write into p.grad[...] instead of replacing it")
        self.step_count += 1
        t, m, v, g = self.step_count, self.m, self.v, self.grad
        # m = beta1 * m + (1 - beta1) * g and v = beta2 * v + (1 - beta2) * g * g
        v *= self.beta2
        a = (1.0 - self.beta2) * g
        a *= g
        v += a
        m *= self.beta1
        np.multiply(1.0 - self.beta1, g, out=a)
        m += a
        # data -= lr * m_hat / (sqrt(v_hat) + eps), computed in a and b
        np.divide(v, 1.0 - self.beta2 ** t, out=a)
        np.sqrt(a, out=a)
        a += self.eps
        b = np.divide(m, 1.0 - self.beta1 ** t)
        b *= lr
        b /= a
        self.data -= b


@dataclass(frozen=True)
class HistoryRow:
    epoch: int
    lr: float
    loss: float
    accuracy: float


# The most frames x joints one micro-batch holds, in training and in scoring: a
# forward's memory grows with the samples it holds. toy5 (80 a sample) runs in
# slices of 32, an ntu25 clip (1600) alone; CHANGES.md has the sweep that chose it.
MICRO_BATCH_TOKENS = 2560


def micro_batch_size(frames: int, joints: int) -> int:
    """The largest m >= 1 with m * frames * joints <= MICRO_BATCH_TOKENS."""
    return max(1, MICRO_BATCH_TOKENS // (frames * joints))


def _slicer(dataset: list[SkeletonSample], task: str, model: DDGCNModel, stream: str):
    """Check that ``dataset`` is non-empty and of one (T, V, C) shape, and
    return a function from a sequence of indices into it to that sequence's
    stacked ``(frames, labels)`` slices of ``micro_batch_size(T, V)`` samples.
    ``dataset`` holds joint clips; for the ``"bone"`` stream each slice's
    frames are its bones under ``model``'s topology."""
    if stream not in ("joint", "bone"):
        raise ConfigError(f"stream must be 'joint' or 'bone', got {stream!r}")
    if not dataset:
        raise ConfigError(f"{task} requires a non-empty dataset")
    lengths = {s.frames.shape[0] for s in dataset}
    if len(lengths) != 1:
        raise ConfigError(f"all samples must share one temporal length, got {sorted(lengths)}")
    joints_channels = {s.frames.shape[1:] for s in dataset}
    if len(joints_channels) != 1:
        raise ConfigError(f"all samples must share one joint and channel count, got (V, C) of "
                          f"{sorted(joints_channels)}")
    micro = micro_batch_size(*dataset[0].frames.shape[:2])

    def slices(indices):
        for start in range(0, len(indices), micro):
            part = [dataset[i] for i in indices[start:start + micro]]
            frames = np.stack([s.frames for s in part])
            yield (frames if stream == "joint" else bone_transform(frames, model.config.topology),
                   np.asarray([s.label for s in part], dtype=np.int64))
    return slices


def train(model: DDGCNModel, dataset: list[SkeletonSample], config: TrainConfig,
          log=None, stream: str = "joint") -> list[HistoryRow]:
    """Mini-batch cross-entropy training; deterministic for a fixed seed.

    Samples are reshuffled every epoch from one seeded stream. Each batch
    runs in micro-batches of ``micro_batch_size`` samples, so a step's peak
    memory follows that size, not the batch size. No op mixes samples, so
    scaling each micro-batch's mean loss by its share n/B of the batch
    before ``backward()`` accumulates the whole batch's gradient in Adam's
    flat ``grad`` buffer, which ``engine.zero_grads`` clears in place before
    each batch; Adam then steps once. The history holds one row per epoch
    with the mean sample loss and the training accuracy measured on the
    same forward passes. ``dataset`` holds joint clips, and ``stream``
    ("joint" or "bone") says which frames the model sees.
    """
    slices = _slicer(dataset, "training", model, stream)
    params = model.parameters()
    optimizer = Adam(params, config)
    rng = np.random.default_rng(config.seed)
    history = []
    for epoch in range(config.epochs):
        lr = lr_at(epoch, config)
        order = rng.permutation(len(dataset))
        total_loss = 0.0
        correct = 0
        for start in range(0, len(dataset), config.batch_size):
            batch = order[start:start + config.batch_size]
            eg.zero_grads(params)
            for frames, labels in slices(batch):
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


def scores(model: DDGCNModel, dataset: list[SkeletonSample], stream: str = "joint") -> np.ndarray:
    """``model``'s (N, K) scores of the joint clips ``dataset`` as ``stream`` sees
    them, in dataset order: one ``predict_proba`` call per ``train`` micro-batch."""
    slices = _slicer(dataset, "evaluation", model, stream)
    return np.concatenate([model.predict_proba(frames) for frames, _ in slices(range(len(dataset)))])


def accuracy(scores: np.ndarray, dataset: list[SkeletonSample]) -> float:
    """Top-1 accuracy of (N, K) ``scores``; argmax ties break to the lowest class index."""
    return int((scores.argmax(axis=1) == [s.label for s in dataset]).sum()) / len(dataset)


def evaluate(model: DDGCNModel, dataset: list[SkeletonSample]) -> float:
    """Top-1 accuracy of ``model``'s ``predict_proba`` scores."""
    return accuracy(scores(model, dataset), dataset)


def evaluate_fused(model_joint: DDGCNModel, model_bone: DDGCNModel,
                   dataset: list[SkeletonSample]) -> float:
    """Top-1 accuracy of the score-averaged two-stream ensemble of the joint clips
    ``dataset``; the bone model sees their bones."""
    return accuracy(fuse_scores(scores(model_joint, dataset), scores(model_bone, dataset, "bone")), dataset)


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
