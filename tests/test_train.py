import json

import numpy as np
import numpy.testing as npt
import pytest

from ddgcn import data, engine as eg, graph, layers, train
from ddgcn.engine import Parameter
from ddgcn.errors import ConfigError, NumericError, ShapeError
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


@pytest.mark.parametrize("q_grad, error, message", [
    (None, RuntimeError, r"'q' has no gradient; run zero_grads and backward\(\) first"),
    (np.zeros(2), ShapeError, "gradient shape mismatch for q"),
])
def test_adam_refuses_a_bad_gradient_before_moving_anything(q_grad, error, message):
    p = Parameter(np.array([1.0, -2.0]), "p")
    q = Parameter(np.array([0.5]), "q")
    opt = train.Adam([p, q], train.TrainConfig())
    eg.mean_pool(eg.mul(p, p), axis=0).backward()  # reaches p only
    assert p.grad is not None and q.grad is None
    q.grad = q_grad
    with pytest.raises(error, match=message):
        opt.step(lr=0.1)
    assert opt.step_count == 0
    for slot in (opt.m, opt.v):
        assert slot.shape == (3,)
        npt.assert_array_equal(slot, 0.0)
    npt.assert_array_equal(p.data, [1.0, -2.0])
    npt.assert_array_equal(q.data, [0.5])


def test_adam_keeps_the_parameters_in_one_flat_buffer_in_checkpoint_order(tmp_path):
    params = [Parameter(np.arange(6.0).reshape(2, 3), "w"), Parameter(np.asarray(2.0), "alpha"),
              Parameter(np.ones(4), "b")]
    path = tmp_path / "c.ckpt"
    eg.save_checkpoint(params, path)
    offsets = [entry["offset"] for entry in json.loads(path.read_bytes().split(b"\n")[0])["params"]]
    opt = train.Adam(params, train.TrainConfig())
    for p in params:
        p.grad = np.full(p.data.shape, 0.5)
    opt.step(lr=0.1)
    assert opt.data.shape == opt.m.shape == opt.v.shape == (11,)
    start = opt.data.__array_interface__["data"][0]
    views = [p.data for p in params]
    for p, offset in zip(params, offsets):
        assert p.data.base is opt.data and p.data.__array_interface__["data"][0] == start + 8 * offset
    assert not np.array_equal(opt.data, np.arange(11.0))  # the step moved the buffer
    # a restore writes through each view into the buffer
    eg.load_checkpoint(path, None, params)
    assert all(p.data is view for p, view in zip(params, views))
    npt.assert_array_equal(opt.data, [0, 1, 2, 3, 4, 5, 2, 1, 1, 1, 1])


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


def test_train_rejects_mixed_joint_or_channel_counts():
    model = layers.DDGCNModel(tiny_config(), seed=0)
    for frames in (tiny_dataset()[0].frames[:, :4], tiny_dataset()[0].frames[..., :2]):
        ds = tiny_dataset()
        ds[0] = data.SkeletonSample(frames=frames, label=0, sample_id="odd")
        with pytest.raises(ConfigError, match=r"joint and channel count.*\(5, 3\)"):
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
# Micro-batches
# ---------------------------------------------------------------------------

TOY5 = graph.get_topology("toy5")


def toy5_acceptance_model():
    """The acceptance model with a non-zero head and CAGC alphas, so every
    parameter gets a gradient."""
    config = layers.ModelConfig(topology=TOY5, num_classes=4, channels=(16, 16, 32, 32),
                                strides=(1, 1, 2, 1), window=WindowSpec(4, 5), heads=4)
    model = layers.DDGCNModel(config, seed=0)
    rng = np.random.default_rng(0)
    model.head_w.data = rng.normal(0.0, 1.0, model.head_w.shape)
    for layer in model.layers:
        layer.cagc.alpha.data = np.asarray(rng.uniform(-0.5, 0.5))
    return model


def toy5_batch(count):
    return data.generate_synthetic(data.SyntheticSpec(
        num_classes=4, samples_per_class=-(-count // 4), frames=16, topology=TOY5,
        noise_std=0.1, seed=1))[:count]


class _Stepped(Exception):
    pass


def logits_batch_sizes(monkeypatch) -> list[int]:
    """A list that every later ``DDGCNModel.logits`` call appends its batch size to."""
    sizes = []
    logits = layers.DDGCNModel.logits
    monkeypatch.setattr(layers.DDGCNModel, "logits", lambda self, x: sizes.append(len(x)) or logits(self, x))
    return sizes


def first_step_gradients(monkeypatch, model, dataset):
    """The gradients Adam receives at train()'s first step, and the batch
    size of every ``logits`` call before it."""
    grads, sizes = {}, logits_batch_sizes(monkeypatch)

    def record_step(self, lr):
        grads.update((p.name, p.grad.copy()) for p in self.params)
        raise _Stepped

    monkeypatch.setattr(train.Adam, "step", record_step)
    with pytest.raises(_Stepped):
        train.train(model, dataset, train.TrainConfig(epochs=1, batch_size=len(dataset)))
    monkeypatch.undo()
    return grads, sizes


def test_micro_batch_size_is_the_largest_within_the_token_bound():
    assert train.micro_batch_size(16, 5) == 32
    assert train.micro_batch_size(64, 25) == 1
    assert train.micro_batch_size(10_000, 25) == 1
    for frames, joints in ((16, 5), (8, 2), (7, 3), (64, 25)):
        m = train.micro_batch_size(frames, joints)
        assert m * frames * joints <= train.MICRO_BATCH_TOKENS < (m + 1) * frames * joints


@pytest.mark.parametrize("batch, slices", [(64, [32, 32]), (50, [32, 18])])
def test_accumulated_gradients_match_the_whole_batch(monkeypatch, batch, slices):
    dataset = toy5_batch(batch)
    model = toy5_acceptance_model()
    grads, sizes = first_step_gradients(monkeypatch, model, dataset)
    assert sizes == slices
    frames, labels = train._stack_batch(dataset)
    eg.zero_grads(model.parameters())
    eg.cross_entropy(model.logits(frames), labels).backward()
    assert grads.keys() == {p.name for p in model.parameters()}
    for p in model.parameters():
        assert np.abs(p.grad).max() > 0.0, p.name
        assert eg.relative_error(grads[p.name], p.grad) <= 1e-12, p.name


def test_an_ntu25_batch_is_scored_one_clip_at_a_time(monkeypatch):
    topology = graph.get_topology("ntu25")
    config = layers.ModelConfig(topology=topology, num_classes=3, channels=(4,), strides=(1,),
                                heads=2, kernel=3, groups=2)
    dataset = data.generate_synthetic(data.SyntheticSpec(
        num_classes=3, samples_per_class=1, frames=64, topology=topology, noise_std=0.1, seed=2))
    _, sizes = first_step_gradients(monkeypatch, layers.DDGCNModel(config, seed=0), dataset)
    assert sizes == [1, 1, 1]


def test_micro_batched_training_writes_byte_identical_files(tmp_path, monkeypatch):
    # 40 frames x joints a sample: micro-batches of 2, batches of 4 and 2
    monkeypatch.setattr(train, "MICRO_BATCH_TOKENS", 80)
    sizes = logits_batch_sizes(monkeypatch)
    config = train.TrainConfig(epochs=3, batch_size=4, base_lr=0.005, seed=9)
    files = []
    for run in range(2):
        model = layers.DDGCNModel(tiny_config(), seed=4)
        history = train.train(model, tiny_dataset(), config)
        train.write_history_csv(history, tmp_path / f"history{run}.csv")
        model.save(tmp_path / f"model{run}.ckpt")
        files.append([(tmp_path / f"{name}{run}.{ext}").read_bytes()
                      for name, ext in (("history", "csv"), ("model", "ckpt"))])
    assert sizes == [2, 2, 2] * 6
    assert files[0] == files[1]


def test_a_training_step_leaves_every_parameter_a_view_into_one_buffer(monkeypatch):
    model, optimizers = toy5_acceptance_model(), []
    adam = train.Adam

    def record(params, config):
        optimizers.append(adam(params, config))
        return optimizers[-1]

    monkeypatch.setattr(train, "Adam", record)
    train.train(model, toy5_batch(8), train.TrainConfig(epochs=1, batch_size=8))
    (opt,) = optimizers
    params, offset, start = model.parameters(), 0, opt.data.__array_interface__["data"][0]
    assert opt.step_count == 1 and opt.params == params
    for p in params:  # in parameters() order, the checkpoint layout
        assert p.data.base is opt.data and p.data.__array_interface__["data"][0] == start + 8 * offset
        offset += p.data.size
    assert opt.data.shape == opt.m.shape == opt.v.shape == (offset,)


@pytest.mark.parametrize("block, name, op", [("stse", "bias_tables", "softmax"), ("cagc", "weight", "matmul")])
def test_a_non_finite_parameter_behind_a_view_op_raises(block, name, op):
    """``stse.bias_tables`` reaches compute only through ``gather`` and
    ``cagc.weight`` only through ``reshape``, which do not scan; the first
    arithmetic op that reads the NaN raises."""
    model = layers.DDGCNModel(tiny_config(), seed=0)
    getattr(getattr(model.layers[1], block), name).data.flat[0] = np.nan
    ds = tiny_dataset()
    with pytest.raises(NumericError, match=op):
        model.predict_proba(ds[0].frames)
    with pytest.raises(NumericError, match=op):
        train.train(model, ds, train.TrainConfig(epochs=1))


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
