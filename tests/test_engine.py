import numpy as np
import numpy.testing as npt
import pytest

from ddgcn import engine as eg
from ddgcn.checks import weighted_sum
from ddgcn.engine import Parameter, Tensor
from ddgcn.errors import NumericError, ShapeError

rng = np.random.default_rng(20240301)

GRAD_TOL = 1e-6  # primitives should be far better than the layer budget


def check_grads(f, params):
    errs = eg.grad_check(f, params)
    worst = max(errs.values())
    assert worst <= GRAD_TOL, errs
    return worst


# ---------------------------------------------------------------------------
# Forward values
# ---------------------------------------------------------------------------

def test_softmax_of_zeros_is_uniform():
    out = eg.softmax(Tensor(np.zeros(4)))
    npt.assert_allclose(out.data, 0.25, atol=1e-15)


def test_softmax_rows_sum_to_one():
    out = eg.softmax(Tensor(rng.standard_normal((7, 3, 9))))
    npt.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-9)


def test_relu_values():
    out = eg.relu(Tensor(np.array([-1.0, 2.0, 0.0])))
    npt.assert_array_equal(out.data, [0.0, 2.0, 0.0])


def test_cross_entropy_uniform_logits():
    for label in range(4):
        loss = eg.cross_entropy(Tensor(np.zeros(4)), label)
        npt.assert_allclose(loss.item(), np.log(4.0), rtol=1e-12)


def test_layer_norm_statistics():
    x = Tensor(rng.standard_normal((6, 5, 16)))
    out = eg.layer_norm(x)
    assert np.abs(out.data.mean(axis=-1)).max() <= 1e-9
    npt.assert_allclose(out.data.var(axis=-1), 1.0, atol=1e-6)


def test_temporal_conv_identity_kernel():
    x = Tensor(rng.uniform(-1, 1, (2, 7, 3, 6)))
    w = Tensor(np.ones((6, 1, 1)))
    out = eg.temporal_conv(x, w, groups=6, stride=1)
    npt.assert_array_equal(out.data, x.data)


def test_temporal_conv_stride_shapes():
    x = Tensor(rng.uniform(-1, 1, (1, 7, 2, 4)))
    w = Tensor(rng.uniform(-1, 1, (4, 2, 5)))
    assert eg.temporal_conv(x, w, groups=2, stride=1).shape == (1, 7, 2, 4)
    assert eg.temporal_conv(x, w, groups=2, stride=2).shape == (1, 4, 2, 4)
    assert eg.temporal_conv(x, w, groups=2, stride=3).shape == (1, 3, 2, 4)


def test_matmul_broadcasting():
    a = Tensor(rng.standard_normal((3, 2, 4)))
    b = Tensor(rng.standard_normal((4, 5)))
    out = a @ b
    assert out.shape == (3, 2, 5)
    npt.assert_allclose(out.data, np.matmul(a.data, b.data))


def test_take_with_repeats():
    x = Tensor(np.arange(6.0).reshape(3, 2))
    out = eg.take(x, np.array([0, 2, 2]), axis=0)
    npt.assert_array_equal(out.data, [[0, 1], [4, 5], [4, 5]])


def test_gather_per_head_tables():
    table = Tensor(np.arange(8.0).reshape(2, 4))
    idx = np.array([[0, 3], [1, 1]])
    out = eg.gather(table, idx)
    npt.assert_array_equal(out.data, [[[0, 3], [1, 1]], [[4, 7], [5, 5]]])


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------

def test_finite_difference_square():
    x = Parameter(np.array(3.0), "x")
    grad = eg.finite_difference_grad(lambda: eg.mul(x, x), x, h=1e-5)
    npt.assert_allclose(grad, 6.0, atol=1e-6)


def test_finite_difference_tanh_at_zero():
    x = Parameter(np.array(0.0), "x")
    grad = eg.finite_difference_grad(lambda: eg.tanh(x), x, h=1e-5)
    npt.assert_allclose(grad, 1.0, atol=1e-8)


# ---------------------------------------------------------------------------
# Reverse mode vs. finite differences, per primitive
# ---------------------------------------------------------------------------

def test_grad_matmul():
    a = Parameter(rng.uniform(-1, 1, (3, 4)), "a")
    b = Parameter(rng.uniform(-1, 1, (4, 5)), "b")
    r = rng.standard_normal((3, 5))
    check_grads(lambda: weighted_sum(a @ b, r), [a, b])


def test_grad_batched_matmul():
    a = Parameter(rng.uniform(-1, 1, (2, 3, 4)), "a")
    b = Parameter(rng.uniform(-1, 1, (2, 4, 5)), "b")
    r = rng.standard_normal((2, 3, 5))
    check_grads(lambda: weighted_sum(eg.batched_matmul(a, b), r), [a, b])


def test_grad_matmul_broadcast_constant():
    m = Parameter(rng.uniform(-1, 1, (5, 5)), "m")
    x = Parameter(rng.uniform(-1, 1, (3, 2, 5, 4)), "x")
    r = rng.standard_normal((3, 2, 5, 4))
    check_grads(lambda: weighted_sum(m @ x, r), [m, x])


def test_grad_elementwise_and_broadcast():
    a = Parameter(rng.uniform(-1, 1, (2, 3, 4)), "a")
    bias = Parameter(rng.uniform(-1, 1, (4,)), "bias")
    r = rng.standard_normal((2, 3, 4))
    check_grads(lambda: weighted_sum(a + bias, r), [a, bias])
    check_grads(lambda: weighted_sum(eg.sub(a, bias), r), [a, bias])
    check_grads(lambda: weighted_sum(eg.mul(a, bias), r), [a, bias])
    check_grads(lambda: weighted_sum(eg.scalar_mul(a, -1.7), r), [a])
    check_grads(lambda: weighted_sum(eg.neg(a), r), [a])


def test_grad_activations():
    a = Parameter(rng.uniform(-1, 1, (3, 6)), "a")
    r = rng.standard_normal((3, 6))
    check_grads(lambda: weighted_sum(eg.tanh(a), r), [a])
    check_grads(lambda: weighted_sum(eg.softmax(a), r), [a])
    # keep ReLU inputs away from the kink
    shifted = Parameter(a.data + np.where(a.data >= 0, 0.5, -0.5), "shifted")
    check_grads(lambda: weighted_sum(eg.relu(shifted), r), [shifted])


def test_grad_layer_norm():
    x = Parameter(rng.uniform(-1, 1, (4, 8)), "x")
    gamma = Parameter(rng.uniform(0.5, 1.5, (8,)), "gamma")
    beta = Parameter(rng.uniform(-0.5, 0.5, (8,)), "beta")
    r = rng.standard_normal((4, 8))
    check_grads(lambda: weighted_sum(eg.layer_norm(x, gamma, beta), r), [x, gamma, beta])
    check_grads(lambda: weighted_sum(eg.layer_norm(x), r), [x])


def test_grad_mean_pool():
    x = Parameter(rng.uniform(-1, 1, (2, 5, 3)), "x")
    r1 = rng.standard_normal((2, 3))
    r2 = rng.standard_normal((3,))
    check_grads(lambda: weighted_sum(eg.mean_pool(x, axis=1), r1), [x])
    check_grads(lambda: weighted_sum(eg.mean_pool(x, axis=(0, 1)), r2), [x])


def test_grad_temporal_conv():
    x = Parameter(rng.uniform(-1, 1, (2, 6, 3, 8)), "x")
    w = Parameter(rng.uniform(-0.5, 0.5, (8, 2, 5)), "w")
    for stride in (1, 2):
        out_shape = eg.temporal_conv(x, w, groups=4, stride=stride).shape
        r = rng.standard_normal(out_shape)
        check_grads(lambda: weighted_sum(eg.temporal_conv(x, w, 4, stride), r), [x, w])


def test_grad_temporal_conv_depthwise():
    x = Parameter(rng.uniform(-1, 1, (1, 5, 2, 3)), "x")
    w = Parameter(rng.uniform(-1, 1, (3, 1, 3)), "w")
    r = rng.standard_normal((1, 5, 2, 3))
    check_grads(lambda: weighted_sum(eg.temporal_conv(x, w, 3, 1), r), [x, w])


def test_grad_gather():
    table = Parameter(rng.standard_normal((4, 21)), "table")
    idx = rng.integers(0, 21, size=(6, 6))
    r = rng.standard_normal((4, 6, 6))
    check_grads(lambda: weighted_sum(eg.gather(table, idx), r), [table])
    flat = Parameter(rng.standard_normal(9), "flat")
    r1 = rng.standard_normal((6, 6))
    check_grads(lambda: weighted_sum(eg.gather(flat, idx % 9), r1), [flat])


def test_grad_take():
    x = Parameter(rng.uniform(-1, 1, (4, 3, 2)), "x")
    idx1 = np.array([0, 2, 2, 1, 0])
    r = rng.standard_normal((4, 5, 2))
    check_grads(lambda: weighted_sum(eg.take(x, idx1, axis=1), r), [x])
    idx0 = np.array([0, 3, 3, 1, 0])
    r0 = rng.standard_normal((5, 3, 2))
    check_grads(lambda: weighted_sum(eg.take(x, idx0, axis=0), r0), [x])


def test_grad_reshape_transpose():
    x = Parameter(rng.uniform(-1, 1, (2, 3, 4)), "x")
    r = rng.standard_normal((4, 6))
    check_grads(lambda: weighted_sum(eg.reshape(eg.transpose(x, (2, 0, 1)), (4, 6)), r), [x])


def test_grad_cross_entropy():
    logits = Parameter(rng.standard_normal((3, 4)), "logits")
    check_grads(lambda: eg.cross_entropy(logits, [1, 0, 3]), [logits])
    single = Parameter(rng.standard_normal(5), "single")
    check_grads(lambda: eg.cross_entropy(single, 2), [single])


# ---------------------------------------------------------------------------
# Error handling and bookkeeping
# ---------------------------------------------------------------------------

def test_shape_errors_name_the_primitive():
    with pytest.raises(ShapeError, match="matmul"):
        eg.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(ShapeError, match="add"):
        eg.add(Tensor(np.ones((2, 3))), Tensor(np.ones((4,))))
    with pytest.raises(ShapeError, match="temporal_conv"):
        eg.temporal_conv(Tensor(np.ones((1, 4, 2, 6))), Tensor(np.ones((6, 2, 3))), groups=4)
    with pytest.raises(ShapeError, match="take"):
        eg.take(Tensor(np.ones((2, 2))), np.array([2]), axis=0)
    with pytest.raises(ShapeError, match="cross_entropy"):
        eg.cross_entropy(Tensor(np.zeros(3)), 5)


def test_non_finite_raises():
    with pytest.raises(NumericError):
        Tensor(np.array([np.nan]))
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError, match="scalar_mul"):
            eg.scalar_mul(Tensor(np.array(1e308)), 1e10)


def test_backward_requires_scalar():
    t = Tensor(np.ones(3))
    with pytest.raises(ShapeError):
        t.backward()


def test_gradients_accumulate_and_reset():
    p = Parameter(np.array([2.0]), "p")
    for _ in range(2):
        out = eg.mean_pool(eg.mul(p, p), axis=0)
        out.backward()
    npt.assert_allclose(p.grad, 8.0)  # two passes of d(p^2)/dp = 4
    eg.zero_grads([p])
    npt.assert_array_equal(p.grad, [0.0])


def test_shared_subexpression_fanout():
    p = Parameter(np.array(3.0), "p")
    q = eg.mul(p, p)
    out = eg.add(q, q)  # 2 p^2, dp = 4p = 12
    out.backward()
    npt.assert_allclose(p.grad, 12.0)


def test_backward_releases_the_graph():
    p = Parameter(np.array([2.0]), "p")
    q = eg.mul(p, p)
    out = eg.mean_pool(q, axis=0)
    out.backward()
    npt.assert_allclose(p.grad, 4.0)
    for node in (q, out):
        assert node.grad is None and node._parents == ()
    npt.assert_array_equal(q.data, [4.0])  # a held output keeps its value


def test_second_backward_raises():
    p = Parameter(np.array([2.0]), "p")
    q = eg.mul(p, p)
    out = eg.mean_pool(q, axis=0)
    out.backward()
    with pytest.raises(RuntimeError, match="already released"):
        out.backward()
    # a new graph through a released node must not yield partial gradients
    with pytest.raises(RuntimeError, match="already released"):
        eg.mean_pool(eg.mul(q, p), axis=0).backward()


def test_constant_operands_collect_no_gradient():
    w = Parameter(rng.standard_normal((3, 2)), "w")
    c = Tensor(rng.standard_normal((4, 3)))
    k = Tensor(rng.standard_normal(2))
    r = rng.standard_normal((4, 2))
    out = weighted_sum(eg.add(eg.matmul(c, w), k), r)
    assert not c.requires_grad and out.requires_grad
    out.backward()
    assert c.grad is None and k.grad is None
    npt.assert_allclose(w.grad, c.data.T @ r, rtol=1e-12)
    with pytest.raises(RuntimeError, match="no Parameter"):
        weighted_sum(c, np.ones((4, 3))).backward()


def test_no_tape_records_no_graph():
    p = Parameter(np.array([2.0]), "p")
    with eg.no_tape():
        out = eg.mean_pool(eg.mul(p, p), axis=0)
        assert Parameter(np.zeros(2), "fresh").requires_grad
    npt.assert_array_equal(out.data, 4.0)
    assert not out.requires_grad
    assert out._parents == () and out._backward is None
    with pytest.raises(RuntimeError, match="no_tape"):
        out.backward()
    assert eg.mul(p, p).requires_grad


def test_no_tape_keeps_checks_and_restores_recording_on_error():
    p = Parameter(np.array([2.0]), "p")
    with pytest.raises(ShapeError, match="matmul"):
        with eg.no_tape():
            eg.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError, match="scalar_mul"):
            with eg.no_tape():
                eg.scalar_mul(Tensor(np.array(1e308)), 1e10)
    out = eg.mul(p, p)
    assert out.requires_grad and out._parents == (p, p)


def test_forward_determinism():
    def run():
        gen = np.random.default_rng(99)
        x = Tensor(gen.standard_normal((3, 4)))
        w = Tensor(gen.standard_normal((4, 4)))
        return eg.softmax(eg.tanh(x @ w)).data

    npt.assert_array_equal(run(), run())


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    params = [
        Parameter(rng.standard_normal((3, 4)), "w"),
        Parameter(rng.standard_normal(()), "alpha"),
        Parameter(rng.standard_normal(5), "b"),
    ]
    path = tmp_path / "model.ckpt"
    eg.save_checkpoint(params, path)
    state = eg.load_checkpoint(path)
    assert set(state) == {"w", "alpha", "b"}
    for p in params:
        npt.assert_array_equal(state[p.name], p.data)

    fresh = [Parameter(np.zeros_like(p.data), p.name) for p in params]
    eg.assign_checkpoint(fresh, state)
    for p, f in zip(params, fresh):
        npt.assert_array_equal(p.data, f.data)


def test_checkpoint_header_is_json_line(tmp_path):
    p = Parameter(np.arange(4.0), "w")
    path = tmp_path / "c.ckpt"
    eg.save_checkpoint([p], path)
    raw = path.read_bytes()
    header = raw[:raw.index(b"\n")].decode()
    import json
    doc = json.loads(header)
    assert doc["params"][0] == {"name": "w", "shape": [4], "offset": 0}
    payload = np.frombuffer(raw[raw.index(b"\n") + 1:], dtype="<f8")
    npt.assert_array_equal(payload, [0, 1, 2, 3])


def test_checkpoint_mismatch_errors(tmp_path):
    p = Parameter(np.zeros((2, 2)), "w")
    path = tmp_path / "c.ckpt"
    eg.save_checkpoint([p], path)
    state = eg.load_checkpoint(path)
    with pytest.raises(KeyError):
        eg.assign_checkpoint([Parameter(np.zeros((2, 2)), "other")], state)
    with pytest.raises(ValueError):
        eg.assign_checkpoint([Parameter(np.zeros((3, 2)), "w")], state)
    with pytest.raises(ValueError):
        eg.save_checkpoint([p, Parameter(np.zeros(1), "w")], tmp_path / "dup.ckpt")
