import collections
import gc
import inspect
import json
import tracemalloc
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from ddgcn import engine as eg, graph, layers
from ddgcn.checks import weighted_sum
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
    pre = cagc.forward(x[None], activate=False).data[0]
    ref = layers.sgc_reference(x, topo, labeling, cagc.weight.data)
    npt.assert_allclose(pre, ref, atol=1e-10)


@pytest.mark.parametrize("name", ("toy5", "ntu25"))
@pytest.mark.parametrize("strategy", graph.STRATEGIES)
def test_cagc_correlation_term_rides_on_subset_zero(name, strategy):
    topo = graph.get_topology(name)
    labeling = graph.make_partition(topo, strategy)
    cagc = make_cagc(topo, labeling)
    cagc.alpha.data = np.asarray(0.7)
    x = np.random.default_rng(5).uniform(-1, 1, (3, topo.num_joints, 3))
    corr = cagc.correlation(x[None]).data[0]
    mixed = x @ cagc.weight.data[0]
    adaptive = np.zeros_like(mixed)
    for c in range(mixed.shape[-1]):
        adaptive[..., c] = (corr[c] @ mixed[..., c].T).T
    expected = layers.sgc_reference(x, topo, labeling, cagc.weight.data) + 0.7 * adaptive
    npt.assert_allclose(cagc.forward(x[None], activate=False).data[0], expected, atol=1e-10)


@pytest.mark.parametrize("strategy", graph.STRATEGIES)
def test_cagc_gradients_match_central_differences_at_nonzero_alpha(strategy):
    # the uniform strategy has no subset past 0, so its forward skips the dense branch
    topo = graph.get_topology("toy5")
    cagc = make_cagc(topo, graph.make_partition(topo, strategy), c_in=3, c_out=4, seed=2)
    cagc.alpha.data = np.asarray(0.3)
    x = Tensor(np.random.default_rng(6).uniform(-1, 1, (2, 3, 5, 3)))
    r = np.random.default_rng(7).standard_normal((2, 3, 5, 4))
    errors = eg.grad_check(lambda: weighted_sum(cagc.forward(x, activate=False), r), cagc.parameters())
    assert max(errors.values()) < 1e-6, errors


def test_reference_chain_uniform_hand_computed():
    topo = graph.get_topology("toy2")
    labeling = graph.uniform_partition(topo)
    x = np.array([[[1.0], [3.0]]])  # one frame, two joints, one channel
    out = layers.sgc_reference(x, topo, labeling, [np.eye(1)])
    # A + I rows have degrees 2 (the root: itself and its child) and 1 (the
    # leaf: itself), so the root weighs itself by 1/2 and its child by
    # 1/sqrt(2 * 1); the leaf only sees itself
    npt.assert_allclose(out, [[[0.5 * 1.0 + 3.0 / np.sqrt(2.0)], [3.0]]], rtol=1e-15)


def test_reference_cardinality_two_neighbors():
    topo = graph.get_topology("chain3")
    labeling = graph.distance_partition(topo)
    x = np.array([[[1.0], [10.0], [100.0]]])
    out = layers.sgc_reference(x, topo, labeling, [np.eye(1), np.eye(1)])
    # subset 0 is I, so every joint weighs itself by 1; subset 1 is A, whose
    # row degrees are 1, 1 and 0, so joint 0 weighs its child by 1 and
    # joint 1 its child by 1 * 0: the leaf's zero degree zeroes the pair
    npt.assert_allclose(out, [[[1.0 + 10.0], [10.0], [100.0]]], rtol=1e-15)


def test_reference_isolated_in_subset_contributes_self_only():
    topo = SkeletonTopology(1, (), root=0)
    labeling = graph.uniform_partition(topo)
    x = np.array([[[4.0, -2.0]]])
    out = layers.sgc_reference(x, topo, labeling, [np.eye(2)])
    npt.assert_allclose(out, x)


# ---------------------------------------------------------------------------
# CAGC behavior
# ---------------------------------------------------------------------------

def test_cagc_single_joint_identity():
    topo = SkeletonTopology(1, (), root=0)
    labeling = graph.uniform_partition(topo)
    cagc = make_cagc(topo, labeling, c_in=2, c_out=2)
    cagc.weight.data[0] = np.eye(2)
    x = np.array([[[0.5, -0.3]], [[-1.0, 2.0]]])
    out = cagc.forward(x[None]).data[0]
    npt.assert_allclose(out, np.maximum(x, 0.0), atol=1e-15)


def test_cagc_uniform_equals_normalized_adjacency():
    topo = graph.get_topology("toy5")
    labeling = graph.uniform_partition(topo)
    cagc = make_cagc(topo, labeling, c_in=3, c_out=3)
    cagc.weight.data[0] = np.eye(3)
    norm = graph.normalize_adjacency(graph.build_adjacency(topo) + np.eye(5))
    x = np.random.default_rng(0).uniform(0.1, 1.0, (4, 5, 3))
    out = cagc.forward(x[None]).data[0]
    expected = np.einsum("ij,tjc->tic", norm, x)
    npt.assert_allclose(out, expected, atol=1e-12)


def test_cagc_output_shape():
    topo = graph.get_topology("ntu25")
    labeling = graph.make_partition(topo, "activity")
    cagc = make_cagc(topo, labeling, c_in=3, c_out=8)
    with pytest.raises(ShapeError):
        cagc.forward(np.zeros((6, 25, 3)))
    batched = cagc.forward(np.zeros((2, 6, 25, 3)))
    assert batched.shape == (2, 6, 25, 8)


def test_cagc_rejects_wrong_joint_count():
    topo = graph.get_topology("toy5")
    cagc = make_cagc(topo, graph.make_partition(topo, "activity"))
    with pytest.raises(ShapeError):
        cagc.forward(np.zeros((1, 4, 6, 3)))


def test_correlation_constant_for_identical_joints():
    topo = graph.get_topology("toy5")
    cagc = make_cagc(topo, graph.make_partition(topo, "activity"), c_in=3, c_out=8)
    x = np.tile(np.random.default_rng(1).uniform(-1, 1, (4, 1, 3)), (1, 5, 1))
    corr = cagc.correlation(x[None]).data[0]
    assert corr.shape == (8, 5, 5)
    # all pairwise differences coincide, so each channel slice is constant
    for c in range(8):
        assert np.ptp(corr[c]) < 1e-12


def test_correlation_zero_when_maps_coincide():
    topo = graph.get_topology("toy5")
    cagc = make_cagc(topo, graph.make_partition(topo, "activity"), c_in=3, c_out=8)
    cagc.phi.data = cagc.theta.data.copy()
    x = np.tile(np.random.default_rng(2).uniform(-1, 1, (4, 1, 3)), (1, 5, 1))
    npt.assert_allclose(cagc.correlation(x[None]).data, 0.0, atol=1e-15)


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
    out = cagc.forward(x[None]).data[0]
    pout = pcagc.forward(px[None]).data[0]
    npt.assert_allclose(pout[:, perm, :], out, atol=1e-10)


# ---------------------------------------------------------------------------
# Attention and the windowed encoder
# ---------------------------------------------------------------------------

def make_stse(channels=8, spec=WindowSpec(4, 5), stride=1, seed=11):
    return layers.STSE(channels, spec, heads=4, kernel=5, groups=4,
                       stride=stride, rng=np.random.default_rng(seed))


def spy_on_attention(monkeypatch, seen):
    """Pass every attention ``STSE.attention`` returns to ``seen(attn)``."""
    attention = layers.STSE.attention

    def spied(self, tokens):
        attn = attention(self, tokens)
        seen(attn)
        return attn
    monkeypatch.setattr(layers.STSE, "attention", spied)


def test_msa_uniform_attention_when_queries_vanish():
    stse = make_stse()
    stse.wq.data = np.zeros_like(stse.wq.data)
    tokens = np.random.default_rng(3).uniform(-1, 1, (20, 8))
    out = stse.attend(Tensor(tokens[None, None])).data[0, 0]
    # uniform attention averages the value projections identically per row
    values = tokens @ stse.wv.data + stse.bv.data
    mean_heads = np.tile(values.mean(axis=0), (20, 1))
    expected = mean_heads @ stse.wo.data + stse.bo.data
    npt.assert_allclose(out, expected, atol=1e-12)
    npt.assert_allclose(stse.attention(Tensor(tokens[None, None])).data, 1.0 / 20, atol=1e-12)


def test_msa_single_token_window():
    stse = layers.STSE(8, WindowSpec(1, 1), heads=4, kernel=3, groups=2,
                       stride=1, rng=np.random.default_rng(5))
    token = np.random.default_rng(6).uniform(-1, 1, (1, 8))
    out = stse.attend(Tensor(token[None, None])).data[0, 0]
    expected = (token @ stse.wv.data + stse.bv.data) @ stse.wo.data + stse.bo.data
    npt.assert_allclose(out, expected, atol=1e-12)
    npt.assert_allclose(stse.attention(Tensor(token[None, None])).data, 1.0)


def attention_loops(stse, tokens):
    """softmax(q k^T / sqrt(d) + bias) v per window and head, then wo and bo."""
    b, n, length, c = tokens.shape
    d = c // stse.heads
    out = np.zeros_like(tokens)
    for i in range(b):
        for w in range(n):
            x = tokens[i, w]
            ctx = np.zeros((length, c))
            for h in range(stse.heads):
                cols = slice(h * d, (h + 1) * d)
                q = x @ stse.wq.data[:, cols] + stse.bq.data[cols]
                k = x @ stse.wk.data[:, cols]
                v = x @ stse.wv.data[:, cols] + stse.bv.data[cols]
                scores = q @ k.T / np.sqrt(d) + stse.bias_tables.data[h][stse.rel_index]
                e = np.exp(scores - scores.max(axis=1, keepdims=True))
                ctx[:, cols] = (e / e.sum(axis=1, keepdims=True)) @ v
            out[i, w] = ctx @ stse.wo.data + stse.bo.data
    return out


def test_attend_matches_per_window_per_head_loops():
    # head_dim 8: 1/sqrt(8) is inexact, so scaling queries and scaling scores round differently
    stse = layers.STSE(16, WindowSpec(2, 3), heads=2, kernel=3, groups=2,
                       stride=1, rng=np.random.default_rng(21))
    g = np.random.default_rng(22)
    for p in (stse.bq, stse.bv, stse.bo, stse.bias_tables):
        p.data = g.standard_normal(p.shape)
    tokens = g.uniform(-1, 1, (2, 3, 6, 16))
    out = stse.attend(Tensor(tokens)).data
    npt.assert_allclose(out, attention_loops(stse, tokens), rtol=1e-12, atol=1e-12)


def test_attention_rows_sum_to_one(monkeypatch):
    stse = make_stse()
    stse.bias_tables.data = np.random.default_rng(7).standard_normal(
        stse.bias_tables.data.shape)
    x = np.random.default_rng(8).uniform(-1, 1, (8, 5, 8))
    seen = []
    spy_on_attention(monkeypatch, lambda attn: seen.append(attn.data))
    stse.forward(x[None])
    sums = seen[0].sum(axis=-1)
    npt.assert_allclose(sums, 1.0, atol=1e-9)


def test_stse_shape_contract_and_window_count(monkeypatch):
    stse = layers.STSE(8, WindowSpec(4, 25), heads=4, kernel=5, groups=4,
                       stride=1, rng=np.random.default_rng(2))
    x = np.random.default_rng(3).uniform(-1, 1, (64, 25, 8))
    seen = []
    spy_on_attention(monkeypatch, lambda attn: seen.append(attn.shape))
    out = stse.forward(x[None])
    assert out.shape == (1, 64, 25, 8)
    assert seen[0][1] == 16  # windows processed per pass
    assert split_windows(64, 25, WindowSpec(4, 25)).num_windows == 16


def test_stse_stride_halves_frames():
    stse = make_stse(stride=2)
    x = np.random.default_rng(4).uniform(-1, 1, (10, 5, 8))
    assert stse.forward(x[None]).shape == (1, 5, 5, 8)
    x_odd = np.random.default_rng(4).uniform(-1, 1, (9, 5, 8))
    assert stse.forward(x_odd[None]).shape == (1, 5, 5, 8)  # ceil(9 / 2)


def test_stse_identity_configuration_is_layer_norm_of_doubled_input():
    stse = make_stse()
    stse.attend = lambda tokens: tokens  # bypass mixing
    w = np.zeros((8, 2, 5))
    for g in range(4):
        for i in range(2):
            w[g * 2 + i, i, 2] = 1.0  # center tap only
    stse.gtc_weight.data = w
    x = np.random.default_rng(5).uniform(-1, 1, (6, 5, 8))
    out = stse.forward(x[None]).data[0]
    expected = eg.layer_norm(Tensor(2.0 * x), stse.ln_gamma, stse.ln_beta).data
    npt.assert_array_equal(out, expected)


def test_stse_pads_then_crops_odd_lengths():
    stse = make_stse()
    x = np.random.default_rng(6).uniform(-1, 1, (5, 5, 8))
    assert stse.forward(x[None]).shape == (1, 5, 5, 8)


def multi_block_input(seed=9):
    """B=2, T=5 (padded to 6), V=6: 2x3 windows give three time blocks by
    two joint blocks, so the window order is not the grid order."""
    return np.random.default_rng(seed).uniform(-1, 1, (2, 5, 6, 8))


def test_stse_multi_block_gradients():
    stse = make_stse(spec=WindowSpec(2, 3))
    stse.bias_tables.data = 0.1 * np.random.default_rng(12).standard_normal(
        stse.bias_tables.data.shape)
    x = eg.Parameter(multi_block_input(), "input")
    r = np.random.default_rng(13).standard_normal(x.shape)
    params = stse.parameters() + [x]
    errors = eg.grad_check(lambda: weighted_sum(stse.forward(x), r), params)
    assert set(errors) == {p.name for p in params}
    assert max(errors.values()) < 1e-4, errors


def test_stse_window_views_equal_gather_and_scatter_paths(monkeypatch):
    stse = make_stse(spec=WindowSpec(2, 3))
    x = multi_block_input()
    layout = split_windows(5, 6, WindowSpec(2, 3))
    b, padded, v, c = 2, layout.padded_frames, 6, 8
    mixed = np.random.default_rng(14).standard_normal((b, layout.num_windows, 6, c))
    seen = {}

    def attend(tokens):
        seen["tokens"] = tokens.data.copy()
        return Tensor(mixed)

    conv = eg.temporal_conv

    def capture(seq, *args):
        seen["merged"] = seq.data.copy()
        return conv(seq, *args)

    stse.attend = attend
    monkeypatch.setattr(eg, "temporal_conv", capture)
    stse.forward(x)

    flat = x[:, layout.pad_frames].reshape(b, padded * v, c)
    npt.assert_array_equal(seen["tokens"],
                           flat[:, layout.gather].reshape(b, layout.num_windows, 6, c))
    merged = mixed.reshape(b, padded * v, c)[:, layout.scatter].reshape(b, padded, v, c)
    npt.assert_array_equal(seen["merged"], merged[:, :5])


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
    assert same.forward(x[None]).shape == (1, 8, 5, 8)
    assert same.residual

    down = layers.STGCLayer(8, 16, 2, topo, labeling, WindowSpec(4, 5), 4, 5, 4, rng, "l1")
    assert down.forward(x[None]).shape == (1, 4, 5, 16)
    assert not down.residual

    stacked = down.forward(layers.STGCLayer(
        8, 8, 2, topo, labeling, WindowSpec(4, 5), 4, 5, 4, rng, "l2").forward(x[None]))
    assert stacked.shape == (1, 2, 5, 16)  # two stride-2 layers quarter T


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


def count_primitive_calls(monkeypatch, record):
    """Route every engine primitive through ``record(name, args)`` first,
    through the engine's module globals, as perfbench's tracer does."""
    for name in eg.__all__:
        fn = getattr(eg, name)
        if inspect.isfunction(fn) and inspect.signature(fn).return_annotation == "Tensor":
            def counted(*args, _name=name, _fn=fn, **kwargs):
                record(_name, args)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(eg, name, counted)


def test_a_toy5_loss_makes_208_primitive_calls_and_no_add_in_attention(monkeypatch):
    # the biases ride in matmul and softmax: 18 calls fewer than with an add per bias
    model = layers.DDGCNModel(reduced_config(), seed=0)
    calls, in_attention = collections.Counter(), []
    count_primitive_calls(monkeypatch, lambda name, args: calls.update([(name, bool(in_attention))]))
    attention = layers.STSE.attention

    def spied(self, tokens):
        in_attention.append(self)
        try:
            return attention(self, tokens)
        finally:
            in_attention.pop()
    monkeypatch.setattr(layers.STSE, "attention", spied)
    x = np.random.default_rng(1).uniform(-1, 1, (64, 16, 5, 3))
    eg.cross_entropy(model.logits(x), np.arange(64) % 4)  # one step's forward, as engine.calls counts it
    assert sum(calls.values()) == 208, calls
    assert calls["softmax", True] == len(model.layers) and calls["add", True] == 0


def test_scalar_factors_scale_weights_not_activations(monkeypatch):
    # alpha and the attention scale multiply weights: no mul or scalar_mul
    # takes an operand larger than the largest parameter
    model = perturbed_model()
    largest = max(p.data.size for p in model.parameters())
    scaled = []

    def record(name, args):
        if name in ("mul", "scalar_mul"):
            scaled.append(max(np.size(a.data if isinstance(a, Tensor) else a) for a in args))
    count_primitive_calls(monkeypatch, record)
    model.logits(np.random.default_rng(1).uniform(-1, 1, (8, 16, 5, 3)))
    assert scaled and max(scaled) <= largest, (scaled, largest)


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


def test_model_checkpoint_header_carries_config(tmp_path):
    config = reduced_config()
    path = tmp_path / "m.ckpt"
    layers.DDGCNModel(config, seed=3).save(path)
    raw = path.read_bytes()
    header = json.loads(raw[:raw.index(b"\n")])
    assert header["config"] == config.describe()
    assert header["config"]["edges"] == [[0, 1], [0, 2], [0, 3], [0, 4]]
    shapes = {entry["name"]: entry["shape"] for entry in header["params"]}
    assert shapes["layers.2.cagc.weight"] == [3, 16, 32] and "layers.2.cagc.w0" not in shapes


@pytest.mark.parametrize("overrides, key", [
    (dict(strategy="spatial"), "strategy"),
    (dict(strides=(1, 1, 1, 1)), "strides"),
    (dict(topology=graph.SkeletonTopology(5, ((0, 1), (0, 2), (0, 3), (3, 4)), root=0)), "edges"),
])
def test_model_load_rejects_checkpoint_of_another_config(tmp_path, overrides, key):
    path = tmp_path / "m.ckpt"
    layers.DDGCNModel(reduced_config(), seed=3).save(path)
    other = layers.DDGCNModel(reduced_config(**overrides), seed=3)
    with pytest.raises(ValueError, match=f"model config differs in {key}:"):
        other.load(path)


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
        assert layer.cagc.masks.grad is None


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


def test_parameters_hold_no_reference_cycle():
    gc.disable()
    try:
        model = layers.DDGCNModel(reduced_config(), seed=0)
        # a Parameter kept alive by a cycle would keep its data alive too
        refs = [weakref.ref(p.data) for p in (model.embed_w, model.layers[0].cagc.weight, model.head_b)]
        del model
        # freed by reference counting alone, with the cyclic collector off
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


def test_a_built_model_holds_its_weights_and_no_gradients():
    layers.DDGCNModel(reduced_config(), seed=0)  # pays the first build's lazy imports
    config = layers.ModelConfig(topology=graph.get_topology("ntu25"), num_classes=60)
    tracemalloc.start()
    try:
        model = layers.DDGCNModel(config, seed=0)
        traced = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    weights = sum(p.data.nbytes for p in model.parameters())
    assert all(p.grad is None for p in model.parameters())
    # a zero gradient per parameter at build time makes this 2.06x
    assert traced <= 1.1 * weights, (traced, weights)


def test_model_load_fills_each_parameter_array_with_the_files_bits(tmp_path):
    model = perturbed_model()
    path = tmp_path / "m.ckpt"
    model.save(path)
    restored = layers.DDGCNModel(reduced_config(), seed=99)
    arrays = [p.data for p in restored.parameters()]
    restored.load(path)
    for p, array, saved in zip(restored.parameters(), arrays, model.parameters()):
        assert p.data is array and array.tobytes() == saved.data.tobytes()


def test_model_load_restores_inside_one_engine_call(tmp_path, monkeypatch):
    # the benchmark's tracer times a restore by wrapping engine.load_checkpoint
    path = tmp_path / "m.ckpt"
    perturbed_model().save(path)
    model = layers.DDGCNModel(reduced_config(), seed=99)
    calls = []
    load = eg.load_checkpoint

    def spy(*args):
        out = load(*args)
        calls.append(all(p.data is out[p.name] for p in model.parameters()))
        return out

    monkeypatch.setattr(eg, "load_checkpoint", spy)
    model.load(path)
    assert calls == [True]


def test_model_load_allocates_no_second_copy_of_the_weights(tmp_path):
    config = layers.ModelConfig(topology=graph.get_topology("ntu25"), num_classes=60)
    path = tmp_path / "m.ckpt"
    layers.DDGCNModel(config, seed=0).save(path)
    model = layers.DDGCNModel(config, seed=1)
    tracemalloc.start()
    try:
        model.load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    weights = sum(p.data.nbytes for p in model.parameters())
    # a staging buffer plus a copy per parameter makes this 2.0x
    assert peak <= 0.1 * weights, (peak, weights)


def test_inference_and_load_leave_every_gradient_unset(tmp_path):
    model = perturbed_model()
    model.predict_proba(np.random.default_rng(5).uniform(-1, 1, (2, 16, 5, 3)))
    assert all(p.grad is None for p in model.parameters())
    path = tmp_path / "m.ckpt"
    model.save(path)
    restored = layers.DDGCNModel(reduced_config(), seed=99)
    restored.load(path)
    assert all(p.grad is None for p in restored.parameters())


def test_a_first_backward_keeps_its_gradient_and_a_second_adds_into_it():
    x = np.random.default_rng(5).uniform(-1, 1, (2, 16, 5, 3))

    def backward(model):
        eg.cross_entropy(model.logits(x), [1, 2]).backward()

    zeroed = perturbed_model()
    eg.zero_grads(zeroed.parameters())
    backward(zeroed)
    fresh = perturbed_model()
    backward(fresh)  # no zero_grads: each leaf keeps the first array it is handed
    kept = [p.grad for p in fresh.parameters()]
    for p, q in zip(fresh.parameters(), zeroed.parameters()):
        npt.assert_array_equal(p.grad, q.grad, err_msg=p.name)
    backward(fresh)
    for p, q, g in zip(fresh.parameters(), zeroed.parameters(), kept):
        assert p.grad is g, p.name
        npt.assert_array_equal(p.grad, 2.0 * q.grad, err_msg=p.name)


def block_state(model):
    """Each CAGC, STSE and STGCLayer with a copy of its attributes."""
    blocks = [b for layer in model.layers for b in (layer, layer.cagc, layer.stse)]
    return [(block, dict(vars(block))) for block in blocks]


def assert_same_state(snapshot):
    for block, attrs in snapshot:
        now = vars(block)
        assert now.keys() == attrs.keys(), (type(block).__name__, now.keys() ^ attrs.keys())
        rebound = [k for k, v in attrs.items() if now[k] is not v]
        assert not rebound, (type(block).__name__, rebound)


def test_blocks_keep_no_state():
    model = perturbed_model()
    snapshot = block_state(model)
    x = np.random.default_rng(5).uniform(-1, 1, (2, 16, 5, 3))
    model.predict_proba(x)
    assert_same_state(snapshot)
    eg.cross_entropy(model.logits(x), [1, 2]).backward()
    assert_same_state(snapshot)


def test_attention_is_freed_once_predict_proba_returns(monkeypatch):
    model = perturbed_model()
    refs = []
    spy_on_attention(monkeypatch, lambda attn: refs.append(weakref.ref(attn.data)))
    model.predict_proba(np.random.default_rng(5).uniform(-1, 1, (2, 16, 5, 3)))
    assert len(refs) == len(model.layers)
    assert all(ref() is None for ref in refs)


def test_blocks_reject_a_single_sequence():
    layer = perturbed_model().layers[0]
    x = np.zeros((16, 5, 16))  # one (T, V, C) sequence at layer 0's width
    for block, fn in (("cagc", layer.cagc.forward), ("cagc", layer.cagc.correlation),
                      ("stse", layer.stse.forward), ("layer", layer.forward)):
        with pytest.raises(ShapeError, match=rf"{block}: expected a \(B, T, V, C\) batch"):
            fn(x)


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


CHAIN3_ROOT2 = SkeletonTopology(3, ((0, 1), (1, 2)), root=2)


@pytest.mark.parametrize("topo", [graph.get_topology(name) for name in ("toy2", "toy5", "chain3", "ntu25")]
                         + [CHAIN3_ROOT2], ids=["toy2", "toy5", "chain3", "ntu25", "chain3_root2"])
def test_bone_transform_matches_per_joint_loop(topo):
    frames = np.random.default_rng(6).uniform(-1, 1, (2, 3, topo.num_joints, 3))
    parents = topo.parent_of()
    expected = np.zeros_like(frames)
    for j in range(topo.num_joints):
        if parents[j] >= 0:
            expected[..., j, :] = frames[..., j, :] - frames[..., parents[j], :]
    assert np.array_equal(layers.bone_transform(frames, topo), expected)


def test_bone_is_zero_at_the_parentless_joint_not_the_designated_root():
    frames = np.random.default_rng(7).uniform(-1, 1, (4, 3, 3))
    bones = layers.bone_transform(frames, CHAIN3_ROOT2)
    npt.assert_array_equal(bones[:, 0], np.zeros((4, 3)))
    npt.assert_array_equal(bones[:, 2], frames[:, 2] - frames[:, 1])
