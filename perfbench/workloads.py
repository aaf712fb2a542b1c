"""The benchmark's workloads: input generation, set-up, the timed work and
the output checks.

Each run builds its inputs from the seed with the package's own synthetic
generator (not timed), then times the program's set-up, then measures for
the given number of seconds. A train step or a scored clip is one
operation; it fails when it raises or fails an output check.
"""

from __future__ import annotations

import json
import math
import mmap
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ddgcn import data, graph, layers, train
from ddgcn.windows import WindowSpec

SETUP_REPEATS = 5          # each process sets up at least this often ...
SETUP_SECONDS = 0.3        # ... and until this much time has gone into it
SETUP_PROCESSES = 5        # the run's own process plus fresh ones
CALIBRATION_SHARE = 0.03   # calibration time after an operation, as a share of it
WARMUP_OPS = 2             # operations op_cost leaves out: the first two train steps grow the heap
CALIBRATION_REFERENCE_S = 0.060  # the calibration kernel's median time at reference host speed
LEARNING_RATE = 1e-3
FIRST_LOSS_TOL = 1e-12     # absolute: the zero head gives exactly ln(num_classes)
PROB_SUM_TOL = 1e-9        # absolute, per probability row
REFERENCE_RTOL = 1e-9      # relative, against reference.json
REFERENCE_SEEDS = 40       # reference.json holds seeds 0 .. REFERENCE_SEEDS-1
NOISE_STD = 0.1
REFERENCE_PATH = Path(__file__).with_name("reference.json")
RUN_SCRIPT = Path(__file__).with_name("run.py")
SETUP_CHILD_TIMEOUT_S = 60

UNITS = {
    "setup_s": "s", "setup_uncalibrated_s": "s", "train_samples_per_s": "samples/s",
    "train_step_ms_p50": "ms", "train_step_ms_tail": "ms", "eval_clips_per_s": "clips/s",
    "predict_ms_p50": "ms", "predict_ms_tail": "ms", "peak_rss_mb": "MB", "error_rate": "ratio",
    "op_cost": "ratio", "calibration_ms_p50": "ms",
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                   # "train" or "eval"
    topology: str
    num_classes: int
    frames: int                 # T the model sees, after preprocess
    model: dict = field(default_factory=dict)   # ModelConfig fields that differ from the default
    batch: int = 0              # train: samples per step; the dataset is one batch
    clips: int = 0              # eval: clips in the JSON-lines file
    raw_frames: int = 0         # eval: clip length before preprocess
    reference_step: int = 0     # train: the step whose loss reference.json holds


TOY5_MODEL = dict(channels=(16, 16, 32, 32), strides=(1, 1, 2, 1), window=WindowSpec(4, 5), heads=4)
TOY2_MODEL = dict(channels=(8, 8), strides=(1, 2), window=WindowSpec(4, 2), heads=2, kernel=3, groups=2)

WORKLOADS = {w.name: w for w in (
    Workload("toy5_train", "train", "toy5", 4, 16, TOY5_MODEL, batch=64, reference_step=3),
    Workload("ntu25_train", "train", "ntu25", 60, 64, batch=2, reference_step=2),
    Workload("ntu25_fused_eval", "eval", "ntu25", 60, 64, clips=8, raw_frames=80),
    # small shapes for the benchmark's own tests
    Workload("toy2_train", "train", "toy2", 2, 8, TOY2_MODEL, batch=4, reference_step=2),
    Workload("toy2_fused_eval", "eval", "toy2", 2, 8, TOY2_MODEL, clips=4, raw_frames=10),
)}


@dataclass
class Run:
    """What one run measured and checked."""

    metrics: dict[str, object]
    attempted: int
    failed: int
    checks: dict[str, object]
    outputs: dict[str, object]
    setups: int
    extra: dict[str, float] = field(default_factory=dict)
    times_ms: list[float] = field(default_factory=list)   # each timed step or single-clip call
    calibrations_ms: list[float] = field(default_factory=list)   # the calibration after each

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(v is True for v in self.checks.values())


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def tail(values: list[float]) -> dict[str, float] | None:
    """The highest whole percentile with at least 10 samples above it
    (nearest rank), or None when there are fewer than 20 samples."""
    n = len(values)
    ordered = sorted(values)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return {"percentile": p, "value": ordered[rank - 1], "beyond": n - rank, "count": n}
    return None


def cost(times: list[float], calibrations: list[float]) -> float:
    """Mean operation time after the first WARMUP_OPS over the run's median
    calibration time (all operations when the run made no more)."""
    ops = times[WARMUP_OPS:] or times
    return statistics.mean(ops) / statistics.median(calibrations) if calibrations else 0.0


def input_seed(seed: int) -> int:
    """The seed a run draws its inputs from: ``seed`` modulo the seeds
    reference.json holds, so that every run has a stored reference."""
    return seed % REFERENCE_SEEDS


def check_reference(workload: str, seed: int, value: float) -> bool:
    """Whether ``value`` matches reference.json; False when it lacks the seed."""
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        expected = json.load(handle).get(workload, {}).get(str(seed))
    return expected is not None and abs(value - expected) <= REFERENCE_RTOL * abs(expected)


def model_config(w: Workload, topology) -> layers.ModelConfig:
    return layers.ModelConfig(topology=topology, num_classes=w.num_classes, **w.model)


def synthetic(w: Workload, count: int, frames: int, seed: int) -> list[data.SkeletonSample]:
    """``count`` seeded synthetic samples drawn from every class."""
    per_class = -(-count // w.num_classes)
    pool = data.generate_synthetic(data.SyntheticSpec(
        num_classes=w.num_classes, samples_per_class=per_class, frames=frames,
        topology=graph.get_topology(w.topology), noise_std=NOISE_STD, seed=seed))
    pick = np.random.default_rng([seed, 1]).choice(len(pool), size=count, replace=False)
    return [pool[i] for i in sorted(pick)]


def timed_setups(setup):
    """Run ``setup`` repeatedly; return the last result and the times."""
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        start = time.perf_counter()
        result = setup()
        times.append(time.perf_counter() - start)
    return result, times


def calibration_s(budget_s: float) -> float:
    """Median time of a fixed NumPy and Python mix that does not use ddgcn,
    repeated (at least once) until ``budget_s`` has gone into it.

    The benchmark runs it after every timed operation and after set-up. On
    a shared host the speed of a process drifts by 20-30% between runs; the
    run's operation time over its calibration time cancels most of that
    drift.
    """
    times = []
    while not times or sum(times) < budget_s:
        start = time.perf_counter()
        rng = np.random.default_rng(0)
        a = rng.standard_normal((64, 100, 32))
        w = rng.standard_normal((32, 32))
        # large BLAS calls, as the paper-shape layers make
        big = rng.standard_normal((3200, 256))
        wide = rng.standard_normal((256, 256))
        for _ in range(3):
            big @ wide
        # fresh pages, as the tape of every step gets them, 4 MB at a time so
        # that the peak RSS grows by at most that much
        for _ in range(3):
            with mmap.mmap(-1, 4 << 20) as region:
                np.frombuffer(region, dtype=np.float64).fill(1.0)
        for _ in range(4):
            x = np.tanh(a @ w) * 2.0 + 1.0
            np.add.at(np.zeros(500), np.arange(4000) % 500, 1.0)
            sum(float(v) for v in x[0, :, 0])
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def setup_seconds(w: Workload, seed: int, workdir: Path, own: list[float]) -> tuple[float, float]:
    """``setup_s`` and the uncalibrated set-up time, from SETUP_PROCESSES
    processes, ``own`` being this process's set-up times.

    Set-up allocates most of what it touches, and on a shared host that
    runs at one of two speeds, fixed for the life of a process, so one
    process is not a sample of it. Each process gives its median set-up
    time and the calibration kernel's median time right after it.
    ``setup_s`` is the mean over the processes of the first over the
    second, times CALIBRATION_REFERENCE_S: the set-up time at the host
    speed where the kernel takes that long. The uncalibrated figure is the
    mean of the plain medians.
    """
    samples = [(statistics.median(own), calibration_s(SETUP_SECONDS))]
    # one plain child at a time, each waited for: a multiprocessing pool
    # would also start a resource tracker that outlives the run
    cmd = [sys.executable, str(RUN_SCRIPT), "--workload", w.name, "--seed", str(seed),
           "--fresh-setup", str(workdir)]
    for _ in range(SETUP_PROCESSES - 1):
        child = subprocess.run(cmd, capture_output=True, text=True, check=True,
                               timeout=SETUP_CHILD_TIMEOUT_S)
        setup, calibration = map(float, child.stdout.split()[-2:])
        samples.append((setup, calibration))
    calibrated = statistics.mean(t / c for t, c in samples) * CALIBRATION_REFERENCE_S
    return calibrated, statistics.mean(t for t, _ in samples)


def fresh_setup(name: str, seed: int, workdir: str) -> tuple[float, float]:
    """This process's median set-up time and the calibration time after
    it; run by ``run.py --fresh-setup``."""
    w = WORKLOADS[name]
    if w.kind == "train":
        samples = synthetic(w, w.batch, w.frames, seed)
        _, times = timed_setups(lambda: setup_train(w, samples, seed))
    else:
        _, times = timed_setups(lambda: setup_eval(w, Path(workdir)))
    return statistics.median(times), calibration_s(SETUP_SECONDS)


def build_model(config, seed: int, tracer):
    build = layers.DDGCNModel if tracer is None else tracer.wrap("layers.build", layers.DDGCNModel)
    return build(config, seed=seed)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

class _TimeUp(Exception):
    pass


def setup_train(w: Workload, samples, seed: int, tracer=None):
    topology = graph.get_topology(w.topology)
    model = build_model(model_config(w, topology), seed, tracer)
    batch = [data.preprocess(s, w.frames, root_joint=topology.root) for s in samples]
    return model, batch


def run_train(w: Workload, seed: int, seconds: float, workdir: Path, tracer=None,
              max_steps: int | None = None) -> Run:
    samples = synthetic(w, w.batch, w.frames, seed)
    (model, batch), setup_times = timed_setups(lambda: setup_train(w, samples, seed, tracer))
    setup_s, setup_uncalibrated_s = setup_seconds(w, seed, workdir, setup_times)
    if tracer is not None:
        tracer.instrument(model)
    config = train.TrainConfig(epochs=10**9, batch_size=w.batch, base_lr=LEARNING_RATE, seed=seed)
    steps: list[float] = []
    calibrations: list[float] = []
    losses: list[float] = []
    extra: dict[str, float] = {}
    start = last = time.perf_counter()

    def log(row):
        nonlocal last
        now = time.perf_counter()
        steps.append(now - last)
        losses.append(row.loss)
        if len(steps) == 1:
            extra["train.first_step_ms"] = steps[0] * 1e3
            extra["train.step1_rss_mb"] = max_rss_mb()
        if now - start >= seconds or len(steps) == max_steps:
            raise _TimeUp
        calibrations.append(calibration_s(CALIBRATION_SHARE * steps[-1]))
        last = time.perf_counter()

    error = None
    try:
        train.train(model, batch, config, log=log)
    except _TimeUp:
        pass
    except Exception as exc:  # an operation that raises is a failed operation
        error = repr(exc)

    k = w.reference_step
    ln_classes = math.log(w.num_classes)
    first_ok = bool(losses) and abs(losses[0] - ln_classes) <= FIRST_LOSS_TOL
    # training on its one batch lowers the loss below the zero head's ln(K)
    # by step k, as on every seed of reference.json; this check needs no
    # stored value
    learned = ref_ok = "not reached"
    if len(losses) >= k:
        learned = losses[k - 1] < ln_classes
        ref_ok = check_reference(w.name, seed, losses[k - 1])
    bad_steps = {i for i, x in enumerate(losses) if not math.isfinite(x)}
    bad_steps |= {0} if losses and not first_ok else set()
    bad_steps |= {k - 1} if False in (learned, ref_ok) else set()
    failed = len(bad_steps) + (error is not None)
    checks = {"losses_finite": all(map(math.isfinite, losses)), "first_loss_is_ln_classes": first_ok,
              f"loss_at_step_{k}_below_ln_classes": learned,
              f"loss_at_step_{k}_matches_reference": ref_ok}
    if error is not None:
        checks["error"] = error
    metrics = {
        "setup_s": setup_s,
        "setup_uncalibrated_s": setup_uncalibrated_s,
        "train_samples_per_s": w.batch * len(steps) / sum(steps) if steps else 0.0,
        "train_step_ms_p50": statistics.median(steps) * 1e3 if steps else 0.0,
        "train_step_ms_tail": tail([s * 1e3 for s in steps]),
        "op_cost": cost(steps, calibrations),
        "calibration_ms_p50": statistics.median(calibrations) * 1e3 if calibrations else 0.0,
        "peak_rss_mb": max_rss_mb(),
    }
    return Run(metrics, len(steps) + (error is not None), failed, checks,
               {"losses": losses}, len(setup_times), extra, [t * 1e3 for t in steps],
               [c * 1e3 for c in calibrations])


# ---------------------------------------------------------------------------
# Fused evaluation
# ---------------------------------------------------------------------------

def write_eval_inputs(w: Workload, seed: int, workdir: Path) -> None:
    """Two checkpoints, joint and bone, whose head and CAGC alpha are seeded
    non-zero so scores are neither uniform nor tied, and a JSON-lines file
    of raw clips."""
    config = model_config(w, graph.get_topology(w.topology))
    rng = np.random.default_rng([seed, 2])
    for k, stream in enumerate(("joint", "bone")):
        model = layers.DDGCNModel(config, seed=2 * seed + k)
        model.head_w.data = rng.normal(0.0, 1.0, model.head_w.shape)
        model.head_b.data = rng.normal(0.0, 0.1, model.head_b.shape)
        for layer in model.layers:
            layer.cagc.alpha.data = np.asarray(rng.uniform(-0.5, 0.5))
        model.save(workdir / f"{stream}.ckpt")
    data.save_dataset(synthetic(w, w.clips, w.raw_frames, seed), workdir / "clips.jsonl")


def setup_eval(w: Workload, workdir: Path, tracer=None):
    topology = graph.get_topology(w.topology)
    config = model_config(w, topology)
    joint, bone = build_model(config, 0, tracer), build_model(config, 0, tracer)
    clips = [data.preprocess(s, w.frames, root_joint=topology.root)
             for s in data.load_dataset(workdir / "clips.jsonl", expected_joints=topology.num_joints)]
    joint.load(workdir / "joint.ckpt")
    bone.load(workdir / "bone.ckpt")
    return topology, joint, bone, clips


def digest(p_joint: np.ndarray, p_bone: np.ndarray) -> float:
    """One number that moves with every entry of the fused scores."""
    fused = layers.fuse_scores(p_joint, p_bone)
    return float(fused @ np.arange(1, fused.size + 1))


def eval_reference(w: Workload, seed: int, workdir: Path) -> float:
    """The digest of clip 0's fused scores, as reference.json keeps it."""
    write_eval_inputs(w, seed, workdir)
    topology, joint, bone, clips = setup_eval(w, workdir)
    frames = clips[0].frames
    return digest(joint.predict_proba(frames), bone.predict_proba(layers.bone_transform(frames, topology)))


def run_eval(w: Workload, seed: int, seconds: float, workdir: Path, tracer=None) -> Run:
    write_eval_inputs(w, seed, workdir)
    (topology, joint, bone, clips), setup_times = timed_setups(lambda: setup_eval(w, workdir, tracer))
    setup_s, setup_uncalibrated_s = setup_seconds(w, seed, workdir, setup_times)
    bones = [layers.bone_transform(c.frames, topology) for c in clips]
    if tracer is not None:
        tracer.instrument(joint)
        tracer.instrument(bone)
    n = len(clips)
    start = time.perf_counter()
    accuracy = error = predict_error = None
    try:
        accuracy = train.evaluate_fused(joint, bone, clips)
    except Exception as exc:  # an operation that raises is a failed operation
        error = repr(exc)
    fused_s = time.perf_counter() - start

    # single-clip scoring: one full pass over both streams, then on until time is up
    times: list[float] = []
    calibrations: list[float] = []
    first_pass: list[np.ndarray] = []
    bad_rows = 0
    i = 0
    while error is None and (i < 2 * n or time.perf_counter() - start < seconds):
        c = (i // 2) % n
        model, x = (joint, clips[c].frames) if i % 2 == 0 else (bone, bones[c])
        t0 = time.perf_counter()
        try:
            p = model.predict_proba(x)
        except Exception as exc:  # an operation that raises is a failed operation
            error = predict_error = repr(exc)
            break
        times.append(time.perf_counter() - t0)
        calibrations.append(calibration_s(CALIBRATION_SHARE * times[-1]))
        bad_rows += int(abs(p.sum() - 1.0) > PROB_SUM_TOL)
        if i < 2 * n:
            first_pass.append(p)
        i += 1

    pairs = list(zip(first_pass[0::2], first_pass[1::2]))
    digests = [digest(pj, pb) for pj, pb in pairs]
    recomputed = (sum(int(np.argmax(layers.fuse_scores(pj, pb))) == clip.label
                      for (pj, pb), clip in zip(pairs, clips)) / n) if len(pairs) == n else None
    accuracy_ok = accuracy is not None and recomputed == accuracy
    ref_ok = check_reference(w.name, seed, digests[0]) if digests else "not reached"
    # evaluate_fused scores n clips; a wrong accuracy fails all of them. A
    # single-clip call that fails its row check or raises fails itself, and
    # a clip-0 reference mismatch fails the two calls that scored clip 0.
    failed = (0 if accuracy_ok else n) + bad_rows + (predict_error is not None) + 2 * (ref_ok is False)
    checks = {"probability_rows_sum_to_1": bad_rows == 0,
              "fused_accuracy_matches_per_clip": accuracy_ok,
              "clip_0_fused_scores_match_reference": ref_ok}
    if error is not None:
        checks["error"] = error
    metrics = {
        "setup_s": setup_s,
        "setup_uncalibrated_s": setup_uncalibrated_s,
        "eval_clips_per_s": n / fused_s,
        "predict_ms_p50": statistics.median(times) * 1e3 if times else 0.0,
        "predict_ms_tail": tail([t * 1e3 for t in times]),
        "op_cost": cost(times, calibrations),
        "calibration_ms_p50": statistics.median(calibrations) * 1e3 if calibrations else 0.0,
        "peak_rss_mb": max_rss_mb(),
    }
    return Run(metrics, n + len(times) + (predict_error is not None), failed, checks,
               {"accuracy": accuracy, "digests": digests}, len(setup_times),
               times_ms=[t * 1e3 for t in times], calibrations_ms=[c * 1e3 for c in calibrations])
