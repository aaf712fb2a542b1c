"""Acceptance suite.

One test per criterion; each prints a single pass/fail line (visible with
``pytest -s`` or in the captured output). The synthetic training run is
shared between the overfit and fusion criteria through module fixtures.
"""

import time
from collections import Counter

import numpy as np
import pytest

from ddgcn import checks, data, engine as eg, graph, layers, train, windows

TOPOLOGIES = ("toy2", "toy5", "chain3", "ntu25")

OVERFIT_EPOCHS = 200
OVERFIT_TARGET = 0.95


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {number}] {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# Shared synthetic training runs (criteria 6 and 7)
# ---------------------------------------------------------------------------

def overfit_model_config():
    return layers.ModelConfig(
        topology=graph.get_topology("toy5"), num_classes=4,
        channels=(16, 16, 32, 32), strides=(1, 1, 2, 1),
        window=windows.WindowSpec(4, 5), heads=4, kernel=5, groups=4,
        in_channels=3)


def overfit_train_config(epochs=OVERFIT_EPOCHS):
    return train.TrainConfig(epochs=epochs, batch_size=64, base_lr=0.001, seed=0)


@pytest.fixture(scope="module")
def synthetic_samples():
    spec = data.SyntheticSpec(num_classes=4, samples_per_class=20, frames=16,
                              topology=graph.get_topology("toy5"),
                              noise_std=0.0, seed=11)
    raw = data.generate_synthetic(spec)
    return [data.preprocess(s, 16, root_joint=0) for s in raw]


@pytest.fixture(scope="module")
def joint_run(synthetic_samples):
    model = layers.DDGCNModel(overfit_model_config(), seed=0)
    start = time.perf_counter()
    history = train.train(model, synthetic_samples, overfit_train_config())
    elapsed = time.perf_counter() - start
    return model, history, elapsed


@pytest.fixture(scope="module")
def bone_run(synthetic_samples):
    topology = graph.get_topology("toy5")
    bones = [data.SkeletonSample(frames=layers.bone_transform(s.frames, topology),
                                 label=s.label, sample_id=s.sample_id)
             for s in synthetic_samples]
    model = layers.DDGCNModel(overfit_model_config(), seed=1)
    train.train(model, bones, overfit_train_config(epochs=60))
    return model, bones


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for name in TOPOLOGIES:
        topo = graph.get_topology(name)
        for strategy in graph.STRATEGIES:
            labeling = graph.make_partition(topo, strategy)
            for seed in range(5):
                rng = np.random.default_rng(1000 + seed)
                cagc = layers.CAGC(3, 4, topo, labeling, np.random.default_rng(seed))
                x = rng.uniform(-1.0, 1.0, (3, topo.num_joints, 3))
                pre = cagc.forward(x[None], activate=False).data[0]
                ref = layers.sgc_reference(x, topo, labeling, cagc.weight.data)
                worst = max(worst, float(np.abs(pre - ref).max()))
    elapsed = time.perf_counter() - start
    report(1, "oracle equivalence", worst <= 1e-10 and elapsed < 10.0,
           f"max abs err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_gradient_checks():
    start = time.perf_counter()
    results = checks.run_gradient_battery(graph.get_topology("toy5"), frames=8, channels=8)
    elapsed = time.perf_counter() - start
    worst_key = max(results, key=results.get)
    ok = checks.battery_passes(results, tolerance=1e-4) and elapsed < 120.0
    report(2, "gradient checks", ok,
           f"worst {results[worst_key]:.2e} at {worst_key}, {elapsed:.1f}s")


def test_criterion_3_partition_laws():
    start = time.perf_counter()
    ok = True
    for name in TOPOLOGIES:
        topo = graph.get_topology(name)
        adjacency = graph.build_adjacency(topo)
        und = topo.undirected_neighbors()
        for strategy in graph.STRATEGIES:
            labeling = graph.make_partition(topo, strategy)
            for i in range(topo.num_joints):
                labels = [labeling.label_of(i, j) for j in [i] + und[i]]
                ok &= all(0 <= k < labeling.num_subsets for k in labels)
            total = sum(graph.partition_adjacency(adjacency, labeling, k)
                        for k in range(labeling.num_subsets))
            ok &= bool(np.array_equal(total, adjacency + np.eye(topo.num_joints)))

    ntu = graph.get_topology("ntu25")
    counted = Counter(parent for parent, _ in graph.NTU25_EDGES)
    labeling = graph.activity_partition(ntu)
    for (_, j), label in labeling.labels.items():
        degree = counted.get(j, 0)
        expected = 0 if degree == 0 else (1 if degree == 1 else 2)
        ok &= label == expected
    elapsed = time.perf_counter() - start
    report(3, "partition laws", ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_4_window_laws():
    start = time.perf_counter()
    ok = True
    rng = np.random.default_rng(3)
    for v in (5, 25):
        for frames in (4, 5, 63, 64):
            for m in (1, 4, 8):
                layout = windows.split_windows(frames, v, windows.WindowSpec(m, v))
                ok &= layout.num_windows == (layout.padded_frames // m) * (v // v)
                ok &= layout.padded_frames == -(-frames // m) * m
                grid = rng.standard_normal((layout.padded_frames * v, 2))
                ok &= bool(np.array_equal(grid[layout.gather][layout.scatter], grid))
                ok &= sorted(layout.gather.tolist()) == list(range(layout.padded_frames * v))

    spec = windows.WindowSpec(4, 5)
    idx = windows.relative_position_index(spec)
    coords = [(p // spec.joints, p % spec.joints) for p in range(spec.tokens)]
    seen = {}
    for p in range(spec.tokens):
        for q in range(spec.tokens):
            off = (coords[q][0] - coords[p][0], coords[q][1] - coords[p][1])
            if off in seen:
                ok &= idx[p, q] == seen[off]
            seen.setdefault(off, idx[p, q])
    elapsed = time.perf_counter() - start
    report(4, "window laws", ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_5_attention_and_normalization(joint_run, synthetic_samples, monkeypatch):
    model, _, _ = joint_run
    attention, seen = layers.STSE.attention, []

    def spied(self, tokens):
        seen.append(attention(self, tokens))
        return seen[-1]
    monkeypatch.setattr(layers.STSE, "attention", spied)
    model.forward(synthetic_samples[0].frames)
    assert len(seen) == len(model.layers)
    row_err = max(float(np.abs(attn.data.sum(axis=-1) - 1.0).max()) for attn in seen)

    rng = np.random.default_rng(12)
    normalized = eg.layer_norm(eg.Tensor(rng.standard_normal((32, 16)))).data
    mean_err = float(np.abs(normalized.mean(axis=-1)).max())
    var_err = float(np.abs(normalized.var(axis=-1) - 1.0).max())

    uniform_err = float(np.abs(eg.softmax(eg.Tensor(np.zeros(4))).data - 0.25).max())

    ok = row_err <= 1e-9 and mean_err <= 1e-9 and var_err <= 1e-6 and uniform_err <= 1e-12
    report(5, "attention/normalization", ok,
           f"rows {row_err:.1e}, mean {mean_err:.1e}, var {var_err:.1e}, softmax {uniform_err:.1e}")


def test_criterion_6_synthetic_overfit(joint_run, synthetic_samples):
    model, history, elapsed = joint_run
    best = max(row.accuracy for row in history)
    hit = next((row.epoch for row in history if row.accuracy >= OVERFIT_TARGET), None)
    final = train.evaluate(model, synthetic_samples)

    # determinism spot check: the first epochs replay bit-identically
    short = overfit_train_config(epochs=3)
    h1 = train.train(layers.DDGCNModel(overfit_model_config(), seed=0), synthetic_samples, short)
    h2 = train.train(layers.DDGCNModel(overfit_model_config(), seed=0), synthetic_samples, short)
    deterministic = h1 == h2 and h1[0] == history[0]

    ok = (best >= OVERFIT_TARGET and hit is not None and hit < OVERFIT_EPOCHS
          and final >= OVERFIT_TARGET and elapsed < 300.0 and deterministic)
    report(6, "synthetic overfit", ok,
           f"accuracy {final:.3f} (>= {OVERFIT_TARGET} from epoch {hit}), "
           f"{elapsed:.0f}s, deterministic={deterministic}")


def test_criterion_7_fusion(joint_run, bone_run, synthetic_samples):
    model_joint, _, _ = joint_run
    model_bone, bones = bone_run
    acc_joint = train.evaluate(model_joint, synthetic_samples)
    acc_bone = train.evaluate(model_bone, bones)
    fused = train.evaluate_fused(model_joint, model_bone, synthetic_samples)
    margin_ok = fused >= max(acc_joint, acc_bone) - 0.05

    p = np.array([0.7, 0.2, 0.1])
    q = np.array([0.1, 0.2, 0.7])
    laws_ok = (np.array_equal(layers.fuse_scores(p, p), p)
               and np.array_equal(layers.fuse_scores([1.0, 0.0], [0.0, 1.0]), [0.5, 0.5])
               and int(np.argmax(layers.fuse_scores(p, q))) == 0)  # tie breaks low

    report(7, "fusion sanity", margin_ok and laws_ok,
           f"joint {acc_joint:.3f}, bone {acc_bone:.3f}, fused {fused:.3f}")


def test_criterion_8_protocol_fidelity():
    config = train.TrainConfig()
    schedule_ok = (train.lr_at(0, config) == pytest.approx(0.1)
                   and train.lr_at(10, config) == pytest.approx(0.01)
                   and train.lr_at(20, config) == pytest.approx(0.001))
    defaults = layers.ModelConfig(topology=graph.get_topology("ntu25"), num_classes=60)
    config_ok = (defaults.window.frames, defaults.window.joints, defaults.heads) == (4, 25, 4)
    report(8, "protocol fidelity", schedule_ok and config_ok,
           f"lr {train.lr_at(0, config)}/{train.lr_at(10, config)}/{train.lr_at(20, config)}, "
           f"window {defaults.window.frames}x{defaults.window.joints}, heads {defaults.heads}")
