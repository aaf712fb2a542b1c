import weakref

import numpy as np
import numpy.testing as npt
import pytest

from ddgcn import engine as eg, graph, layers
from ddgcn.engine import Tensor
from ddgcn.errors import ShapeError
from ddgcn.graph import SkeletonTopology
from ddgcn.windows import WindowSpec, split_windows

TOPOLOGY_NAMES = ("toy2", "toy5", "chain3")


def make_cagc(topo, labeling, c_in=3, c_out=4, seed=1):
    return layers.CAGC(c_in, c_out, topo, labeling, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# Oracle equivalence and the reference convolution
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", TOPOLOGY_NAMES + ("ntu25",))
@pytest.mark.parametrize("strategy", graph.STRATEGIES)
def test_cagc_matches_reference(name, strategy):
    topo = graph.get_topology(name)
    labeling = graph.make_partition(topo, strategy)
    cagc = make_cagc(topo, labeling)
    x = np.random.default_rng(5).uniform(-1, 1, (3, topo.num_joints, 3))
    pre = cagc.forward(x, activate=False).data
    ref = layers.sgc_reference(x, topo, labeling, [w.data for w in cagc.weights])
    npt.assert_allclose(pre, ref, atol=1e-10)


def test_reference_chain_uniform_hand_computed():
    topo = graph.get_topology("toy2")
    labeling = graph.uniform_partition(topo)
    x = np.array([[[1.0], [3.0]]])  # one frame, two joints, one channel
    out = layers.sgc_reference(x, topo, labeling, [np.eye(1)], "cardinality")
    # root 0 averages both joints; the leaf only sees itself
    npt.assert_allclose(out, [[[2.0], [3.0]]])


def test_reference_cardinality_two_neighbors():
    topo = graph.get_topology("chain3")
    labeling = graph.distance_partition(topo)
    x = np.array([[[1.0], [10.0], [100.0]]])
    out = layers.sgc_reference(x, topo, labeling, [np.eye(1), np.eye(1)], "cardinality")
    # joint 1 has one distance-1 neighbor under A + I (its child), weight 1
    npt.assert_allclose(out[0, 1, 0], 10.0 + 100.0)
    # joint 0: self plus child at factor 1/Z with Z = 1 each
    npt.assert_allclose(out[0, 0, 0], 1.0 + 10.0)


def test_reference_isolated_in_subset_contributes_self_only():
    topo = SkeletonTopology(1, (), root=0)
    labeling = graph.uniform_partition(topo)
    x = np.array([[[4.0, -2.0]]])
    out = layers.sgc_reference(x, topo, labeling, [np.eye(2)], "cardinality")
    npt.assert_allclose(out, x)


# ---------------------------------------------------------------------------
# CAGC behavior
# ---------------------------------------------------------------------------

def test_cagc_single_joint_identity():
    topo = SkeletonTopology(1, (), root=0)
    labeling = graph.uniform_partition(topo)
    cagc = make_cagc(topo, labeling, c_in=2, c_out=2)
    cagc.weights[0].data = np.eye(2)
    x = np.array([[[0.5, -0.3]], [[-1.0, 2.0]]])
    out = cagc.forward(x).data
    npt.assert_allclose(out, np.maximum(x, 0.0), atol=1e-15)


def test_cagc_uniform_equals_normalized_adjacency():
    topo = graph.get_topology("toy5")
    labeling = graph.uniform_partition(topo)
    cagc = make_cagc(topo, labeling, c_in=3, c_out=3)
    cagc.weights[0].data = np.eye(3)
    norm = graph.normalize_adjacency(graph.build_adjacency(topo) + np.eye(5))
    x = np.random.default_rng(0).uniform(0.1, 1.0, (4, 5, 3))
    out = cagc.forward(x).data
    expected = np.einsum("ij,tjc->tic", norm, x)
    npt.assert_allclose(out, expected, atol=1e-12)


def test_cagc_output_shape():
    topo = graph.get_topology("ntu25")
    labeling = graph.make_partition(topo, "activity")
    cagc = make_cagc(topo, labeling, c_in=3, c_out=8)
    out = cagc.forward(np.zeros((6, 25, 3)))
    assert out.shape == (6, 25, 8)
    batched = cagc.forward(np.zeros((2, 6, 25, 3)))
    assert batched.shape == (2, 6, 25, 8)


def test_cagc_rejects_wrong_joint_count():
    topo = graph.get_topology("toy5")
    cagc = make_cagc(topo, graph.make_partition(topo, "activity"))
    with pytest.raises(ShapeError):
        cagc.forward(np.zeros((4, 6, 3)))


def test_correlation_constant_for_identical_joints():
    topo = graph.get_topology("toy5")
    cagc = make_cagc(topo, graph.make_partition(topo, "activity"), c_in=3, c_out=8)
    x = np.tile(np.random.default_rng(1).uniform(-1, 1, (4, 1, 3)), (1, 5, 1))
    corr = cagc.correlation(x).data
    assert corr.shape == (8, 5, 5)
    # all pairwise differences coincide, so each channel slice is constant
    for c in range(8):
        assert np.ptp(corr[c]) < 1e-12


def test_correlation_zero_when_maps_coincide():
    topo = graph.get_topology("toy5")
    cagc = make_cagc(topo, graph.make_partition(topo, "activity"), c_in=3, c_out=8)
    cagc.phi.data = cagc.theta.data.copy()
    x = np.tile(np.random.default_rng(2).uniform(-1, 1, (4, 1, 3)), (1, 5, 1))
    npt.assert_allclose(cagc.correlation(x).data, 0.0, atol=1e-15)


def test_cagc_permutation_equivariance():
    rng = np.random.default_rng(9)
    topo = graph.get_topology("toy5")
    labeling = graph.make_partition(topo, "activity")
    cagc = make_cagc(topo, labeling, c_in=3, c_out=4, seed=3)
    cagc.alpha.data = np.asarray(0.5)

    perm = rng.permutation(5)
    edges = tuple((int(perm[i]), int(perm[j])) for i, j in topo.edges)
    ptopo = SkeletonTopology(5, edges, root=int(perm[topo.root]))
    pcagc = layers.CAGC(3, 4, ptopo, graph.make_partition(ptopo, "activity"),
                        np.random.default_rng(3))
    pcagc.alpha.data = np.asarray(0.5)
    for a, b in zip(cagc.parameters(), pcagc.parameters()):
        npt.assert_array_equal(a.data, b.data)  # same seed, same draws

    x = rng.uniform(-1, 1, (4, 5, 3))
    px = np.empty_like(x)
    px[:, perm, :] = x  # px[:, perm[v]] == x[:, v]
    out = cagc.forward(x).data
    pout = pcagc.forward(px).data
    npt.assert_allclose(pout[:, perm, :], out, atol=1e-10)


# ---------------------------------------------------------------------------
# Attention and the windowed encoder
# ---------------------------------------------------------------------------

def make_stse(channels=8, spec=WindowSpec(4, 5), stride=1, seed=11):
    return layers.STSE(channels, spec, heads=4, kernel=5, groups=4,
                       stride=stride, rng=np.random.default_rng(seed))


def test_msa_uniform_attention_when_queries_vanish():
    stse = make_stse()
    stse.wq.data = np.zeros_like(stse.wq.data)
    tokens = np.random.default_rng(3).uniform(-1, 1, (20, 8))
    out = stse.msa_window(tokens).data
    # uniform attention averages the value projections identically per row
    values = tokens @ stse.wv.data + stse.bv.data
    mean_heads = np.tile(values.mean(axis=0), (20, 1))
    expected = mean_heads @ stse.wo.data + stse.bo.data
    npt.assert_allclose(out, expected, atol=1e-12)
    npt.assert_allclose(stse.last_attention, 1.0 / 20, atol=1e-12)


def test_msa_single_token_window():
    stse = layers.STSE(8, WindowSpec(1, 1), heads=4, kernel=3, groups=2,
                       stride=1, rng=np.random.default_rng(5))
    token = np.random.default_rng(6).uniform(-1, 1, (1, 8))
    out = stse.msa_window(token).data
    expected = (token @ stse.wv.data + stse.bv.data) @ stse.wo.data + stse.bo.data
    npt.assert_allclose(out, expected, atol=1e-12)
    npt.assert_allclose(stse.last_attention, 1.0)


def test_attention_rows_sum_to_one():
    stse = make_stse()
    stse.bias_tables.data = np.random.default_rng(7).standard_normal(
        stse.bias_tables.data.shape)
    x = np.random.default_rng(8).uniform(-1, 1, (8, 5, 8))
    stse.forward(x)
    sums = stse.last_attention.sum(axis=-1)
    npt.assert_allclose(sums, 1.0, atol=1e-9)


def test_stse_shape_contract_and_window_count():
    stse = layers.STSE(8, WindowSpec(4, 25), heads=4, kernel=5, groups=4,
                       stride=1, rng=np.random.default_rng(2))
    x = np.random.default_rng(3).uniform(-1, 1, (64, 25, 8))
    out = stse.forward(x)
    assert out.shape == (64, 25, 8)
    assert stse.last_attention.shape[1] == 16  # windows processed per pass
    assert split_windows(64, 25, WindowSpec(4, 25)).num_windows == 16


def test_stse_stride_halves_frames():
    stse = make_stse(stride=2)
    x = np.random.default_rng(4).uniform(-1, 1, (10, 5, 8))
    assert stse.forward(x).shape == (5, 5, 8)
    x_odd = np.random.default_rng(4).uniform(-1, 1, (9, 5, 8))
    assert stse.forward(x_odd).shape == (5, 5, 8)  # ceil(9 / 2)


def test_stse_identity_configuration_is_layer_norm_of_doubled_input():
    stse = make_stse()
    stse.attend = lambda tokens: tokens  # bypass mixing
    w = np.zeros((8, 2, 5))
    for g in range(4):
        for i in range(2):
            w[g * 2 + i, i, 2] = 1.0  # center tap only
    stse.gtc_weight.data = w
    x = np.random.default_rng(5).uniform(-1, 1, (6, 5, 8))
    out = stse.forward(x).data
    expected = eg.layer_norm(Tensor(2.0 * x), stse.ln_gamma, stse.ln_beta).data
    npt.assert_array_equal(out, expected)


def test_stse_pads_then_crops_odd_lengths():
    stse = make_stse()
    x = np.random.default_rng(6).uniform(-1, 1, (5, 5, 8))
    assert stse.forward(x).shape == (5, 5, 8)


# ---------------------------------------------------------------------------
# Stacked layers and the full model
# ---------------------------------------------------------------------------

def reduced_config(**overrides):
    base = dict(
        topology=graph.get_topology("toy5"), num_classes=4,
        channels=(16, 16, 32, 32), strides=(1, 1, 2, 1),
        window=WindowSpec(4, 5), heads=4, kernel=5, groups=4, in_channels=3)
    base.update(overrides)
    return layers.ModelConfig(**base)


def test_stgc_layer_shapes():
    topo = graph.get_topology("toy5")
    labeling = graph.make_partition(topo, "activity")
    rng = np.random.default_rng(1)
    same = layers.STGCLayer(8, 8, 1, topo, labeling, WindowSpec(4, 5), 4, 5, 4, rng, "l0")
    x = np.random.default_rng(2).uniform(-1, 1, (8, 5, 8))
    assert same.forward(x).shape == (8, 5, 8)
    assert same.residual

    down = layers.STGCLayer(8, 16, 2, topo, labeling, WindowSpec(4, 5), 4, 5, 4, rng, "l1")
    assert down.forward(x).shape == (4, 5, 16)
    assert not down.residual

    stacked = down.forward(layers.STGCLayer(
        8, 8, 2, topo, labeling, WindowSpec(4, 5), 4, 5, 4, rng, "l2").forward(x))
    assert stacked.shape == (2, 5, 16)  # two stride-2 layers quarter T


def test_default_config_records_ablation_choices():
    config = layers.ModelConfig(topology=graph.get_topology("ntu25"), num_classes=60)
    assert (config.window.frames, config.window.joints) == (4, 25)
    assert config.heads == 4
    assert len(config.channels) == 10
    assert config.channels == (64, 64, 64, 64, 128, 128, 128, 256, 256, 256)
    assert config.strides == (1, 1, 1, 1, 2, 1, 1, 2, 1, 1)


def test_model_forward_probabilities():
    model = layers.DDGCNModel(reduced_config(), seed=0)
    x = np.random.default_rng(1).uniform(-1, 1, (16, 5, 3))
    probs = model.forward(x).data
    assert probs.shape == (4,)
    npt.assert_allclose(probs.sum(), 1.0, atol=1e-9)
    npt.assert_array_equal(probs, model.forward(x).data)  # deterministic

    batch = np.random.default_rng(2).uniform(-1, 1, (3, 16, 5, 3))
    batch_probs = model.forward(batch).data
    assert batch_probs.shape == (3, 4)
    npt.assert_allclose(batch_probs.sum(axis=1), 1.0, atol=1e-9)


def test_model_rejects_wrong_input():
    model = layers.DDGCNModel(reduced_config(), seed=0)
    with pytest.raises(ShapeError):
        model.forward(np.zeros((16, 6, 3)))
    with pytest.raises(ShapeError):
        model.forward(np.zeros((16, 5, 2)))


def test_model_checkpoint_round_trip(tmp_path):
    config = reduced_config()
    model = layers.DDGCNModel(config, seed=3)
    for p in model.parameters():  # move off the zero head too
        p.data = p.data + 0.01 * np.random.default_rng(4).standard_normal(p.data.shape)
    x = np.random.default_rng(5).uniform(-1, 1, (16, 5, 3))
    before = model.predict_proba(x)
    path = tmp_path / "m.ckpt"
    model.save(path)
    restored = layers.DDGCNModel(config, seed=99)
    restored.load(path)
    npt.assert_array_equal(restored.predict_proba(x), before)


def perturbed_model(seed=3):
    model = layers.DDGCNModel(reduced_config(), seed=seed)
    for p in model.parameters():  # move off the zero head and alpha
        p.data = p.data + 0.01 * np.random.default_rng(4).standard_normal(p.data.shape)
    return model


def spy_on_cagc(model, seen):
    """Record what the first CAGC block returns, through ``seen(out)``."""
    cagc = model.layers[0].cagc
    forward = cagc.forward

    def spied(x, activate=True):
        out = forward(x, activate)
        seen(out)
        return out
    cagc.forward = spied


def test_backward_frees_the_tape_of_a_held_loss():
    model = perturbed_model()
    refs = []
    spy_on_cagc(model, lambda out: refs.append(weakref.ref(out.data)))
    x = np.random.default_rng(5).uniform(-1, 1, (2, 16, 5, 3))
    logits = model.logits(x)
    loss = eg.cross_entropy(logits, [1, 2])
    assert refs[0]() is not None
    loss.backward()
    assert refs[0]() is None  # the CAGC activation went with the tape
    assert logits.data.shape == (2, 4) and np.isfinite(loss.item())
    assert all(p.grad is not None for p in model.parameters())


def test_training_leaves_constant_masks_without_gradient():
    model = perturbed_model()
    x = np.random.default_rng(5).uniform(-1, 1, (2, 16, 5, 3))
    for _ in range(2):
        eg.cross_entropy(model.logits(x), [1, 2]).backward()
    for layer in model.layers:
        assert all(mask.grad is None for mask in layer.cagc.masks)


def test_predict_proba_records_no_tape():
    model = perturbed_model()
    recorded = []
    spy_on_cagc(model, lambda out: recorded.append(out._parents))
    for shape in ((16, 5, 3), (3, 16, 5, 3)):
        x = np.random.default_rng(5).uniform(-1, 1, shape)
        npt.assert_array_equal(model.predict_proba(x), model.forward(x).data)
    # per shape: predict_proba recorded no parents, the taped forward did
    assert [bool(parents) for parents in recorded] == [False, True, False, True]


def test_predict_proba_restores_recording_after_an_error():
    model = perturbed_model()
    with pytest.raises(ShapeError):
        model.predict_proba(np.zeros((16, 6, 3)))
    assert model.forward(np.zeros((16, 5, 3))).requires_grad


# ---------------------------------------------------------------------------
# Bone stream and score fusion
# ---------------------------------------------------------------------------

def test_bone_transform_examples():
    topo = graph.get_topology("toy2")
    frames = np.array([[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]])
    bones = layers.bone_transform(frames, topo)
    npt.assert_array_equal(bones, [[[0, 0, 0], [1, 0, 0]]])


def test_bone_transform_translation_invariance_and_linearity():
    topo = graph.get_topology("ntu25")
    rng = np.random.default_rng(3)
    frames = rng.uniform(-1, 1, (4, 25, 3))
    shift = rng.uniform(-5, 5, (1, 1, 3))
    npt.assert_allclose(layers.bone_transform(frames + shift, topo),
                        layers.bone_transform(frames, topo), atol=1e-12)
    a, b = rng.standard_normal(2)
    other = rng.uniform(-1, 1, (4, 25, 3))
    npt.assert_allclose(
        layers.bone_transform(a * frames + b * other, topo),
        a * layers.bone_transform(frames, topo) + b * layers.bone_transform(other, topo),
        atol=1e-12)


def test_bone_path_telescopes():
    topo = graph.get_topology("ntu25")
    frames = np.random.default_rng(4).uniform(-1, 1, (2, 25, 3))
    bones = layers.bone_transform(frames, topo)
    # root(1) -> 0 -> 12 -> 13 -> 14 -> 15 is a root-to-leaf path
    path = [0, 12, 13, 14, 15]
    total = sum(bones[:, j] for j in path)
    npt.assert_allclose(total, frames[:, 15] - frames[:, 1], atol=1e-12)


def test_fuse_scores_laws():
    p = np.array([0.7, 0.2, 0.1])
    npt.assert_array_equal(layers.fuse_scores(p, p), p)
    npt.assert_array_equal(layers.fuse_scores([1.0, 0.0], [0.0, 1.0]), [0.5, 0.5])
    q = np.array([0.6, 0.3, 0.1])
    assert np.argmax(layers.fuse_scores(p, q)) == np.argmax(p) == np.argmax(q)
    # shared positive rescaling does not move the fused argmax
    npt.assert_array_equal(np.argmax(layers.fuse_scores(3.0 * p, 3.0 * q)),
                           np.argmax(layers.fuse_scores(p, q)))
    with pytest.raises(ValueError):
        layers.fuse_scores([1.0, 0.0], [1.0, 0.0, 0.0])
