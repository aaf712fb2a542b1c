import numpy as np
import numpy.testing as npt
import pytest

from ddgcn import data, engine as eg, graph, layers, train
from ddgcn.engine import Parameter
from ddgcn.errors import ConfigError
from ddgcn.windows import WindowSpec


def tiny_config(num_classes=3):
    return layers.ModelConfig(
        topology=graph.get_topology("toy5"), num_classes=num_classes,
        channels=(8, 8), strides=(1, 1), window=WindowSpec(4, 5),
        heads=4, kernel=3, groups=4, in_channels=3)


def tiny_dataset(num_classes=3, per_class=2, frames=8, seed=5):
    spec = data.SyntheticSpec(num_classes=num_classes, samples_per_class=per_class,
                              frames=frames, topology=graph.get_topology("toy5"),
                              noise_std=0.0, seed=seed)
    return data.generate_synthetic(spec)


# ---------------------------------------------------------------------------
# Learning-rate schedule
# ---------------------------------------------------------------------------

def test_lr_schedule_milestones():
    config = train.TrainConfig()
    assert train.lr_at(0, config) == pytest.approx(0.1)
    assert train.lr_at(10, config) == pytest.approx(0.01)
    assert train.lr_at(20, config) == pytest.approx(0.001)
    assert train.lr_at(25, config) == pytest.approx(0.001)


def test_lr_schedule_is_non_increasing_step_law():
    config = train.TrainConfig()
    values = [train.lr_at(e, config) for e in range(60)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    for e in range(60):
        assert values[e] == pytest.approx(0.1 * 0.1 ** (e // 10))
    with pytest.raises(ConfigError):
        train.lr_at(-1, config)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_zero_gradient_is_noop():
    p = Parameter(np.array([1.0, -2.0]), "p")
    opt = train.Adam([p], train.TrainConfig())
    eg.zero_grads([p])
    opt.step(lr=0.1)
    npt.assert_array_equal(p.data, [1.0, -2.0])
    assert opt.step_count == 1


def test_adam_first_step_hand_computed():
    config = train.TrainConfig()
    p = Parameter(np.array(0.0), "w")
    opt = train.Adam([p], config)
    p.grad = np.asarray(1.0)
    opt.step(lr=0.1)
    # m_hat = 1, v_hat = 1 after bias correction at t = 1
    expected = -0.1 * 1.0 / (np.sqrt(1.0) + config.eps)
    npt.assert_allclose(p.data, expected, rtol=1e-12)
    npt.assert_allclose(p.data, -0.1, atol=1e-8)


def test_adam_repeated_gradient_moves_monotonically():
    p = Parameter(np.array(0.0), "w")
    opt = train.Adam([p], train.TrainConfig())
    previous = 0.0
    for _ in range(5):
        p.grad = np.asarray(2.5)
        opt.step(lr=0.05)
        assert p.data < previous
        previous = float(p.data)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

def test_train_rejects_empty_dataset():
    model = layers.DDGCNModel(tiny_config(), seed=0)
    with pytest.raises(ConfigError):
        train.train(model, [], train.TrainConfig(epochs=1))


def test_train_rejects_ragged_lengths():
    model = layers.DDGCNModel(tiny_config(), seed=0)
    ds = tiny_dataset()
    ds[0] = data.SkeletonSample(frames=ds[0].frames[:4], label=0, sample_id="short")
    with pytest.raises(ConfigError):
        train.train(model, ds, train.TrainConfig(epochs=1))


def test_initial_loss_is_log_num_classes():
    ds = tiny_dataset(num_classes=4)
    model = layers.DDGCNModel(tiny_config(num_classes=4), seed=0)
    frames = np.stack([s.frames for s in ds])
    labels = np.asarray([s.label for s in ds])
    loss = eg.cross_entropy(model.logits(frames), labels).item()
    assert abs(loss - np.log(4)) < 0.1


def test_single_sample_memorization():
    ds = tiny_dataset(num_classes=3, per_class=1)[:1]
    model = layers.DDGCNModel(tiny_config(), seed=1)
    config = train.TrainConfig(epochs=40, batch_size=1, base_lr=0.01,
                               decay_every=20, seed=2)
    history = train.train(model, ds, config)
    assert history[-1].loss < np.log(3)
    assert history[-1].loss < 0.01
    assert len(history) == 40


def test_training_is_deterministic():
    ds = tiny_dataset()
    config = train.TrainConfig(epochs=3, batch_size=4, base_lr=0.005, seed=9)
    h1 = train.train(layers.DDGCNModel(tiny_config(), seed=4), ds, config)
    h2 = train.train(layers.DDGCNModel(tiny_config(), seed=4), ds, config)
    assert h1 == h2


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def test_evaluate_uniform_model_ties_break_low():
    """The untrained model scores all classes equally, so every argmax is 0."""
    ds = tiny_dataset(num_classes=3, per_class=2)
    model = layers.DDGCNModel(tiny_config(), seed=0)
    accuracy = train.evaluate(model, ds)
    class0_share = sum(s.label == 0 for s in ds) / len(ds)
    assert accuracy == pytest.approx(class0_share)


def test_evaluate_is_order_invariant():
    ds = tiny_dataset()
    model = layers.DDGCNModel(tiny_config(), seed=3)
    rng = np.random.default_rng(0)
    shuffled = [ds[i] for i in rng.permutation(len(ds))]
    assert train.evaluate(model, ds) == train.evaluate(model, shuffled)
    with pytest.raises(ConfigError):
        train.evaluate(model, [])


def test_perfect_predictor_scores_one():
    ds = tiny_dataset(num_classes=3, per_class=2)
    model = layers.DDGCNModel(tiny_config(), seed=1)
    config = train.TrainConfig(epochs=30, batch_size=6, base_lr=0.01,
                               decay_every=15, seed=1)
    train.train(model, ds, config)
    assert train.evaluate(model, ds) == 1.0


def test_fused_eval_scores_each_clip_by_the_fused_argmax():
    joint = layers.DDGCNModel(tiny_config(), seed=6)
    bone = layers.DDGCNModel(tiny_config(), seed=7)
    topology = bone.config.topology
    head_rng = np.random.default_rng(8)
    # the zero heads tie every class, which goes to the lowest; random heads need not
    for head_scale in (0.0, 1.0):
        for model in (joint, bone):
            model.head_w.data = head_scale * head_rng.standard_normal(model.head_w.data.shape)
        for sample in tiny_dataset():
            fused = layers.fuse_scores(joint.predict_proba(sample.frames),
                                       bone.predict_proba(layers.bone_transform(sample.frames, topology)))
            best = int(np.flatnonzero(fused == fused.max())[0])
            for label in range(fused.size):
                clip = data.SkeletonSample(sample.frames, label, sample.sample_id)
                assert train.evaluate_fused(joint, bone, [clip]) == float(label == best)


# ---------------------------------------------------------------------------
# History CSV
# ---------------------------------------------------------------------------

def test_history_csv_round_trip(tmp_path):
    rows = [train.HistoryRow(epoch=0, lr=0.1, loss=1.23456789012345, accuracy=0.5),
            train.HistoryRow(epoch=1, lr=0.01, loss=0.9, accuracy=2 / 3)]
    path = tmp_path / "h.csv"
    train.write_history_csv(rows, path)
    assert path.read_text().splitlines()[0] == "epoch,lr,loss,accuracy"
    back = train.read_history_csv(path)
    assert back == rows

    train.write_history_csv(rows, tmp_path / "h2.csv")
    assert (tmp_path / "h.csv").read_bytes() == (tmp_path / "h2.csv").read_bytes()


def test_history_csv_rejects_other_headers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        train.read_history_csv(path)
