"""Property tests: on random trees, the partition laws and the stacked
subset layout of CAGC for every partition strategy; on random lengths,
preprocessing; on random grids, the window tiling; on random graphs of
engine ops that reuse their nodes, reverse-mode gradients."""

import functools

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings, strategies as st

from ddgcn import data, engine as eg, graph, layers
from ddgcn.checks import weighted_sum
from ddgcn.engine import Tensor
from ddgcn.errors import ShapeError
from ddgcn.graph import SkeletonTopology
from ddgcn.windows import WindowSpec, split_windows

PROPERTIES = settings(max_examples=25, deadline=None)


@st.composite
def trees(draw, max_joints=12):
    """A random tree from a random parent array, with shuffled joint ids
    and a random root."""
    v = draw(st.integers(1, max_joints))
    parents = [draw(st.integers(0, j - 1)) for j in range(1, v)]
    ids = draw(st.permutations(range(v)))
    edges = tuple((ids[p], ids[j]) for j, p in enumerate(parents, start=1))
    return SkeletonTopology(v, edges, root=draw(st.integers(0, v - 1)))


@PROPERTIES
@given(trees())
def test_partition_masks_sum_to_a_plus_i(topo):
    a = graph.build_adjacency(topo)
    for strategy in graph.STRATEGIES:
        labeling = graph.make_partition(topo, strategy)
        total = sum(graph.partition_adjacency(a, labeling, k) for k in range(labeling.num_subsets))
        npt.assert_array_equal(total, a + np.eye(topo.num_joints))


@PROPERTIES
@given(trees())
def test_stacked_masks_hold_each_normalized_subset(topo):
    a = graph.build_adjacency(topo)
    v = topo.num_joints
    for strategy in graph.STRATEGIES:
        labeling = graph.make_partition(topo, strategy)
        k_total = labeling.num_subsets
        cagc = layers.CAGC(2, 3, topo, labeling, np.random.default_rng(0))
        masks = cagc.masks.data
        assert masks.shape == (v * (k_total - 1), v)
        for k in range(k_total):  # subset 0 is the base; row i*(K-1)+k-1 is row i of subset k >= 1
            expected = graph.normalize_adjacency(graph.partition_adjacency(a, labeling, k))
            held = cagc.base.data if k == 0 else masks.reshape(v, k_total - 1, v)[:, k - 1]
            npt.assert_array_equal(held, expected)


@PROPERTIES
@given(trees(), st.integers(0, 2**32 - 1))
def test_cagc_matches_reference_on_random_trees(topo, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (2, topo.num_joints, 3))
    for strategy in graph.STRATEGIES:
        labeling = graph.make_partition(topo, strategy)
        cagc = layers.CAGC(3, 4, topo, labeling, rng)
        ref = layers.sgc_reference(x, topo, labeling, cagc.weight.data)
        npt.assert_allclose(cagc.forward(x[None], activate=False).data[0], ref, atol=1e-10)


@st.composite
def samples(draw):
    """A random (T, V, 3) sample and a root joint."""
    t, v = draw(st.integers(1, 20)), draw(st.integers(1, 6))
    frames = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-5, 5, (t, v, 3))
    return data.SkeletonSample(frames=frames, label=0, sample_id="s"), draw(st.integers(0, v - 1))


@PROPERTIES
@given(samples(), st.integers(1, 20))
def test_preprocess_length_root_and_idempotence(drawn, target):
    sample, root = drawn
    once = data.preprocess(sample, target, root_joint=root)
    assert once.frames.shape == (target,) + sample.frames.shape[1:]
    npt.assert_array_equal(once.frames[0, root], 0.0)
    npt.assert_array_equal(data.preprocess(once, target, root_joint=root).frames, once.frames)


@PROPERTIES
@given(st.integers(1, 12), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
def test_windows_tile_the_padded_grid(frames, m, n, joint_blocks):
    v = n * joint_blocks
    layout = split_windows(frames, v, WindowSpec(m, n))
    padded = layout.padded_frames
    assert padded % m == 0 and frames <= padded < frames + m
    cells = padded * v
    npt.assert_array_equal(np.sort(layout.gather), np.arange(cells))
    npt.assert_array_equal(layout.gather[layout.scatter], np.arange(cells))
    npt.assert_array_equal(layout.scatter[layout.gather], np.arange(cells))
    # token (t, v) sits in the one window of its time block and joint block
    windows = layout.gather.reshape(layout.num_windows, m * n)
    t_of, v_of = windows // v, windows % v
    window = np.arange(layout.num_windows)[:, None]
    npt.assert_array_equal(t_of // m * joint_blocks + v_of // n, np.broadcast_to(window, windows.shape))


# each op maps one or two (4, 4) nodes to a (4, 4) node; the shuffles and the
# transpose hand non-contiguous gradients back, mean_pool a read-only broadcast,
# and take a scatter of repeated indices
UNARY = {
    "neg": eg.neg,
    "scalar_mul": lambda a: eg.scalar_mul(a, -1.5),
    "tanh": eg.tanh,
    "relu": eg.relu,
    "transpose": lambda a: eg.transpose(a, (1, 0)),
    "shuffle": lambda a: eg.reshape(eg.transpose(eg.reshape(a, (2, 2, 4)), (1, 0, 2)), (4, 4)),
    "rotate": lambda a: eg.reshape(eg.transpose(eg.reshape(a, (2, 2, 4)), (-1, 0, 1)), (4, 4)),
    "take": lambda a: eg.take(a, np.array([2, 0, 2, 3]), axis=-1),
}
BINARY = {
    "add": eg.add,
    "sub": eg.sub,
    "mul": eg.mul,
    "mean_pool": lambda a, b: eg.add(a, eg.reshape(eg.mean_pool(b, axis=1), (4, 1))),
}


@st.composite
def op_graphs(draw):
    """A list of (op, i, j): op reads nodes i and j of the pool built so far,
    which starts as two Parameters, so nodes are read more than once."""
    ops = []
    for k in range(draw(st.integers(1, 10))):
        name = draw(st.sampled_from(sorted(UNARY) + sorted(BINARY)))
        ops.append((name, draw(st.integers(0, k + 1)), draw(st.integers(0, k + 1))))
    return ops


@PROPERTIES
@given(op_graphs(), st.integers(0, 2**32 - 1))
def test_gradients_of_random_op_graphs_with_reused_nodes(ops, seed):
    rng = np.random.default_rng(seed)
    params = [eg.Parameter(rng.uniform(-1, 1, (4, 4)), name) for name in ("p", "q")]
    weights = rng.standard_normal((len(ops) + 2, 4, 4))
    relu_inputs = []

    def f():
        pool = list(params)
        for name, i, j in ops:
            if name == "relu":
                relu_inputs.append(pool[i].data)
            pool.append(UNARY[name](pool[i]) if name in UNARY else BINARY[name](pool[i], pool[j]))
        # every node gets a consumer, and no gradient cancels out exactly
        return functools.reduce(eg.add, (weighted_sum(x, w) for x, w in zip(pool, weights)))

    eg.zero_grads(params)
    f().backward()
    # finite differences are wrong across relu's kink
    assume(all(np.abs(x).min() > 1e-3 for x in relu_inputs))
    for p in params:
        assert eg.relative_error(p.grad, eg.finite_difference_grad(f, p)) <= 1e-4, p.name


@st.composite
def operands(draw, shape):
    """A Tensor or a Parameter of ``shape`` holding standard normals, or one
    value repeated so that sums of products reach their bound, scaled by
    10^k, k in [-3, 150], so a bound may pass the limit and be scanned instead."""
    if draw(st.booleans()):
        values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(shape)
    else:
        values = np.full(shape, draw(st.floats(-1.0, 1.0)))
    values *= 10.0 ** draw(st.integers(-3, 150))
    return eg.Parameter(values, "p") if draw(st.booleans()) else eg.Tensor(values)


def assert_within_bound(out):
    """``max|out| <= out.bound`` up to rounding, a relative K * eps for a sum
    of K terms, which the bound limit's margin absorbs."""
    assert type(out.bound) is float  # a NumPy scalar would warn where the bound overflows
    peak = np.abs(out.data).max(initial=0.0)
    assert peak <= out.bound * (1.0 + 1e-12), (peak, out.bound)


@PROPERTIES
@given(operands((3, 2, 4)), operands((2, 4)), st.floats(-1e150, 1e150))
def test_elementwise_outputs_lie_within_their_bounds(a, b, c):
    for out in (eg.add(a, b), eg.sub(b, a), eg.mul(a, b), eg.neg(a), eg.scalar_mul(a, c),
                eg.relu(a), eg.tanh(a), eg.softmax(a), eg.softmax(a, b)):
        assert_within_bound(out)


@PROPERTIES
@given(st.integers(0, 4), st.integers(0, 3), st.data())
def test_matmul_outputs_lie_within_their_bounds(k, n, data):
    a = data.draw(operands((2, 3, k)))
    calls = (lambda: eg.matmul(a, data.draw(operands((k, n)))),
             lambda: eg.matmul(a, data.draw(operands((k, n))), data.draw(operands((n,)))),
             lambda: eg.matmul(data.draw(operands((3, k))), data.draw(operands((2, k, n)))))
    for call in calls:
        if k == 0:  # an empty inner axis is refused on the folded and the broadcast path
            with pytest.raises(ShapeError, match="matmul: needs a non-empty inner axis"):
                call()
        else:
            assert_within_bound(call())


@PROPERTIES
@given(st.integers(1, 6), st.integers(1, 3), st.sampled_from([1, 2]), st.integers(1, 3), st.data())
def test_temporal_conv_outputs_lie_within_their_bounds(frames, kernel, groups, stride, data):
    x = data.draw(operands((2, frames, 3, 2 * groups)))
    weight = data.draw(operands((2 * groups, 2, kernel)))
    assert_within_bound(eg.temporal_conv(x, weight, groups, stride))


@PROPERTIES
@given(operands((3, 4, 5)), operands((5,)), operands((5,)),
       st.sampled_from([0, 2, (1,), (0, 2), (2, 1), (0, 1, 2)]))
def test_layer_norm_and_mean_pool_outputs_lie_within_their_bounds(x, gamma, beta, axis):
    for out in (eg.layer_norm(x), eg.layer_norm(x, gamma, beta), eg.mean_pool(x, axis)):
        assert_within_bound(out)


@PROPERTIES
@given(st.integers(2, 6), st.integers(0, 2**32 - 1), st.integers(150, 307))
def test_layer_norm_of_rows_whose_squares_overflow_is_the_textbook_value(d, seed, exponent):
    # at 10^150 and up eps is negligible, so each row normalizes like its rescaled copy near 1
    rows = np.random.default_rng(seed).uniform(-1.0, 1.0, (3, d))
    out = eg.layer_norm(Tensor(rows * 10.0 ** exponent))
    expected = (rows - rows.mean(axis=1, keepdims=True)) / rows.std(axis=1, keepdims=True)
    npt.assert_allclose(out.data, expected, rtol=1e-12, atol=1e-12)
    assert_within_bound(out)
