import importlib.util
import inspect
import json
import operator
import platform
import resource
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from ddgcn import data, engine as eg, graph, layers, train
from ddgcn.checks import weighted_sum
from ddgcn.engine import Parameter, Tensor
from ddgcn.errors import NumericError, ShapeError
from ddgcn.windows import WindowSpec

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


def test_softmax_leaves_its_input_and_matches_shifted_exponentials_at_large_magnitudes():
    x = rng.standard_normal((3, 4, 7)) * 300.0 + np.array([-800.0, 0.0, 900.0])[:, None, None]
    before = x.copy()
    out = eg.softmax(Tensor(x)).data
    npt.assert_array_equal(x, before)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    npt.assert_array_equal(out, e / e.sum(axis=-1, keepdims=True))


def _shifted_softmax(x):
    """The max-shifted formula, its row sums taken as softmax takes them."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / np.einsum("...i->...", e)[..., None]


def _finite_scans(monkeypatch):
    """The op names of ``_finite``'s scans, in order: softmax's are of its row
    sums, which only the max-shifted path makes."""
    scans, finite = [], eg._finite

    def spy(data, op):
        scans.append(op)
        return finite(data, op)

    monkeypatch.setattr(eg, "_finite", spy)
    return scans


def test_softmax_of_in_range_rows_is_the_unshifted_formula(monkeypatch):
    scans = _finite_scans(monkeypatch)
    a, bias = rng.standard_normal((6, 4, 20)) * 20.0, rng.standard_normal((4, 20)) * 5.0
    for out, x in ((eg.softmax(Tensor(a)), a), (eg.softmax(Tensor(a), Tensor(bias)), a + bias)):
        e = np.exp(x)
        npt.assert_allclose(out.data, e / e.sum(axis=-1, keepdims=True), rtol=1e-15, atol=0.0)
    assert "softmax" not in scans


# each sends the whole call down the max-shifted path: a row past exp's range
# and a row whose exponentials all underflow
_OUT_OF_RANGE = {"an entry past 710": (1, 2, 3, 715.0), "a row of all -750": (2, 0, slice(None), -750.0)}


def _scores(case, shape=(3, 4, 7)):
    """Standard normal scores with the entries of an ``_OUT_OF_RANGE`` case written in."""
    x = rng.standard_normal(shape)
    if case in _OUT_OF_RANGE:
        *where, value = _OUT_OF_RANGE[case]
        x[tuple(where)] = value
    return x


@pytest.mark.parametrize("case", sorted(_OUT_OF_RANGE))
def test_softmax_out_of_range_runs_the_shifted_formula_bit_for_bit(case, monkeypatch):
    scans = _finite_scans(monkeypatch)
    a, bias = _scores(case), rng.standard_normal((4, 7))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the unshifted exponential overflows without a warning
        plain, biased = eg.softmax(Tensor(a)), eg.softmax(Tensor(a), Tensor(bias))
    npt.assert_array_equal(plain.data, _shifted_softmax(a))
    npt.assert_array_equal(biased.data, _shifted_softmax(a + bias))
    assert scans.count("softmax") == 2


def test_softmax_of_a_nan_bias_raises_naming_softmax():
    bias = Parameter(np.zeros((4, 7)), "bias")
    bias.data[1, 2] = np.nan
    with pytest.raises(NumericError, match="softmax"):
        eg.softmax(Tensor(rng.standard_normal((3, 4, 7))), bias)


@pytest.mark.parametrize("case", ["in range"] + sorted(_OUT_OF_RANGE))
def test_grad_softmax_on_both_paths(case):
    a, bias = Parameter(_scores(case), "a"), Parameter(rng.standard_normal((4, 7)), "bias")
    r = rng.standard_normal((3, 4, 7))
    check_grads(lambda: weighted_sum(eg.softmax(a), r), [a])
    check_grads(lambda: weighted_sum(eg.softmax(a, bias), r), [a, bias])


@pytest.mark.parametrize("case", ["in range"] + sorted(_OUT_OF_RANGE))
def test_softmax_forward_holds_little_beyond_its_output(case):
    a, bias = Tensor(_scores(case, (40, 50, 64))), Tensor(rng.standard_normal((50, 64)))
    for operands in ((a,), (a, bias)):
        tracemalloc.start()
        try:
            out = eg.softmax(*operands)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * out.data.nbytes, (peak, out.data.nbytes)


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


def temporal_conv_loops(x, w, groups, stride):
    """The same-padded, strided, grouped convolution of the temporal_conv
    docstring, written out frame by frame and output channel by channel."""
    b, t, v, c_in = x.shape
    c_out, c_in_g, kernel = w.shape
    c_out_g = c_out // groups
    t_out = -(-t // stride)
    pad_left = max((t_out - 1) * stride + kernel - t, 0) // 2
    out = np.zeros((b, t_out, v, c_out))
    for j in range(t_out):
        for k in range(kernel):
            src = j * stride + k - pad_left
            if not 0 <= src < t:
                continue
            for o in range(c_out):
                first = (o // c_out_g) * c_in_g
                out[:, j, :, o] += x[:, src, :, first:first + c_in_g] @ w[o, :, k]
    return out


# even kernels pad one frame more on the right; batch > 1 with frames > 1 and
# joints > 1 tells the batch, time and joint axes of the time-major buffer apart
@pytest.mark.parametrize("kernel,stride,groups,frames,batch",
                         [(1, 1, 1, 4, 2), (3, 2, 2, 7, 2), (5, 3, 4, 6, 2), (5, 1, 4, 3, 2),
                          (4, 1, 2, 6, 3), (4, 2, 4, 7, 3), (6, 1, 2, 2, 3), (2, 3, 4, 8, 4),
                          (7, 2, 1, 5, 3)],
                         ids=["1-1-1-4", "3-2-2-7", "5-3-4-6", "5-1-4-3", "even-kernel",
                              "even-kernel-strided", "kernel-over-frames", "stride-over-kernel",
                              "single-group-strided"])
def test_temporal_conv_matches_loop_oracle(kernel, stride, groups, frames, batch):
    x = rng.standard_normal((batch, frames, 3, 8))
    w = rng.standard_normal((8, 8 // groups, kernel))
    out = eg.temporal_conv(Tensor(x), Tensor(w), groups, stride)
    npt.assert_allclose(out.data, temporal_conv_loops(x, w, groups, stride), rtol=1e-12, atol=1e-12)


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


def test_finite_difference_perturbs_a_strided_parameter_in_place():
    # a Parameter copies a strided value into its own array, so the strided operand is a Tensor
    w = Tensor(np.arange(1.0, 13.0).reshape(4, 3).T)
    assert not w.data.flags.c_contiguous
    before, r = w.data.copy(), rng.standard_normal((3, 4))
    grad = eg.finite_difference_grad(lambda: weighted_sum(eg.mul(w, w), r), w)
    npt.assert_allclose(grad, 2.0 * before * r, rtol=1e-8)
    npt.assert_array_equal(w.data, before)


def test_a_size_one_output_with_axes_reads_as_a_scalar():
    assert Tensor(np.array([2.5])).item() == 2.5
    x, w = Tensor(rng.standard_normal((1, 2))), Parameter(rng.standard_normal((2, 1)), "w")
    assert eg.matmul(x, w).item() == (x.data @ w.data).item()
    # backward accepts the (1, 1) output, and the oracle reads it the same way
    npt.assert_allclose(eg.finite_difference_grad(lambda: eg.matmul(x, w), w), x.data.T, rtol=1e-8)
    check_grads(lambda: eg.matmul(x, w), [w])


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
    check_grads(lambda: weighted_sum(a @ b, r), [a, b])


def test_grad_matmul_broadcast_constant():
    m = Parameter(rng.uniform(-1, 1, (5, 5)), "m")
    x = Parameter(rng.uniform(-1, 1, (3, 2, 5, 4)), "x")
    r = rng.standard_normal((3, 2, 5, 4))
    check_grads(lambda: weighted_sum(m @ x, r), [m, x])


@pytest.mark.parametrize("lead", [(3,), (2, 3), (2, 1, 3)])
def test_grad_matmul_folds_leading_axes_of_a_2d_weight(lead):
    a = Parameter(rng.uniform(-1, 1, lead + (4, 5)), "a")
    w = Parameter(rng.uniform(-1, 1, (5, 3)), "w")
    r = rng.standard_normal(lead + (4, 3))
    npt.assert_allclose((a @ w).data, np.matmul(a.data, w.data), rtol=1e-13, atol=1e-13)
    check_grads(lambda: weighted_sum(a @ w, r), [a, w])


def test_grad_matmul_of_a_transposed_view_and_a_2d_weight():
    x = Parameter(rng.uniform(-1, 1, (2, 5, 3, 4)), "x")
    w = Parameter(rng.uniform(-1, 1, (5, 6)), "w")
    r = rng.standard_normal((2, 4, 3, 6))
    view = eg.transpose(x, (0, 3, 2, 1))
    assert not view.data.flags.c_contiguous
    npt.assert_allclose((view @ w).data, np.matmul(view.data, w.data), rtol=1e-13, atol=1e-13)
    check_grads(lambda: weighted_sum(eg.transpose(x, (0, 3, 2, 1)) @ w, r), [x, w])


def test_matmul_skips_the_adjoint_of_a_constant_2d_weight():
    class Spy(Tensor):
        adjoints = 0

        def _accumulate(self, g):
            Spy.adjoints += 1

    a = Parameter(rng.standard_normal((2, 3, 4)), "a")
    w = rng.standard_normal((4, 5))
    r = rng.standard_normal((2, 3, 5))
    weighted_sum(a @ Spy(w), r).backward()
    assert Spy.adjoints == 0
    npt.assert_allclose(a.grad, r @ w.T, rtol=1e-12)


def test_matmul_weight_gradient_forms_no_per_row_stack():
    a = Parameter(rng.standard_normal((16, 16, 5, 64)), "a")
    w = Parameter(rng.standard_normal((64, 64)), "w")
    r = rng.standard_normal((16, 16, 5, 64))
    out = weighted_sum(a @ w, r)
    stack_mb = 16 * 16 * 64 * 64 * 8 / 1e6  # one (C_in, C_out) product per (B, T) index
    tracemalloc.start()
    try:
        out.backward()
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert peak_mb < stack_mb / 3, peak_mb
    npt.assert_allclose(w.grad, np.einsum("btvi,btvo->io", a.data, r), rtol=1e-12, atol=1e-12)


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


# ---------------------------------------------------------------------------
# Fused operands: softmax(a, bias), matmul(x, w, bias), layer_norm in one buffer
# ---------------------------------------------------------------------------

FUSED_TOL = 1e-14


def _operand(shape, name, trained):
    """A Parameter named ``name`` when it is in ``trained``, else a constant."""
    value = rng.uniform(-1, 1, shape)
    return Parameter(value, name) if name in trained else Tensor(value)


def _value_and_grads(build, params, weights):
    eg.zero_grads(params)
    out = build()
    weighted_sum(out, weights).backward()
    return out.data, [p.grad.copy() for p in params]


def assert_fused_matches_plain(fused, plain, operands, weights):
    """Same values and Parameter gradients within FUSED_TOL relative, and
    gradients that agree with central differences."""
    params = [t for t in operands if isinstance(t, Parameter)]
    value, grads = _value_and_grads(fused, params, weights)
    expected, expected_grads = _value_and_grads(plain, params, weights)
    assert eg.relative_error(value, expected) <= FUSED_TOL
    for p, got, want in zip(params, grads, expected_grads):
        assert eg.relative_error(got, want) <= FUSED_TOL, p.name
    check_grads(lambda: weighted_sum(fused(), weights), params)


@pytest.mark.parametrize("a_shape, bias_shape, trained", [
    ((2, 3, 4, 5, 5), (4, 5, 5), "a bias"),  # an (H, L, L) bias onto (B, n, H, L, L) scores
    ((3, 4, 6), (3, 4, 6), "a bias"),
    ((2, 3, 6), (1, 3, 6), "a bias"),
    ((2, 3, 6), (3, 6), "a"),  # a constant bias
    ((2, 4, 6), (4, 6), "bias"),  # the bias is the only Parameter
])
def test_softmax_with_a_bias_matches_softmax_of_the_sum(a_shape, bias_shape, trained):
    a, bias = _operand(a_shape, "a", trained.split()), _operand(bias_shape, "bias", trained.split())

    # interior operands scale their gradient in place, so one shared with the other would show
    def operands():
        return eg.scalar_mul(a, 2.0), eg.scalar_mul(bias, 3.0)

    assert_fused_matches_plain(lambda: eg.softmax(*operands()), lambda: eg.softmax(eg.add(*operands())),
                               (a, bias), rng.standard_normal(a_shape))


@pytest.mark.parametrize("x_shape, trained", [
    ((5, 4), "x w b"),
    ((2, 3, 5, 4), "x w b"),
    ((2, 3, 4), "x w"),  # a constant bias
    ((2, 3, 4), "x b"),  # a constant weight
    ((2, 3, 4), "b"),  # the bias is the only Parameter
])
def test_matmul_with_a_bias_matches_the_product_plus_the_bias(x_shape, trained):
    x, w, b = (_operand(shape, name, trained.split())
               for shape, name in ((x_shape, "x"), ((4, 3), "w"), ((3,), "b")))
    assert_fused_matches_plain(lambda: eg.matmul(x, w, b), lambda: eg.add(eg.matmul(x, w), b),
                               (x, w, b), rng.standard_normal(x_shape[:-1] + (3,)))


@pytest.mark.parametrize("affine", ["", "gamma", "beta", "gamma beta"])
def test_layer_norm_matches_the_textbook_formula(affine):
    x = Parameter(rng.standard_normal((3, 4, 8)) * 3.0 + 1.0, "x")
    gamma = Parameter(rng.uniform(0.5, 1.5, 8), "gamma") if "gamma" in affine else None
    beta = Parameter(rng.uniform(-0.5, 0.5, 8), "beta") if "beta" in affine else None
    params = [p for p in (x, gamma, beta) if p is not None]
    r = rng.standard_normal(x.shape)
    eg.zero_grads(params)
    out = eg.layer_norm(x, gamma, beta)
    weighted_sum(out, r).backward()

    eps, scale = 1e-8, 1.0 if gamma is None else gamma.data
    inv = 1.0 / np.sqrt(x.data.var(axis=-1, keepdims=True) + eps)
    xhat = (x.data - x.data.mean(axis=-1, keepdims=True)) * inv
    expected = xhat * scale + (0.0 if beta is None else beta.data)
    assert eg.relative_error(out.data, expected) <= 1e-14
    gh = r * scale
    dx = inv * (gh - gh.mean(axis=-1, keepdims=True)
                - xhat * (gh * xhat).mean(axis=-1, keepdims=True))
    assert eg.relative_error(x.grad, dx) <= 1e-13
    if gamma is not None:
        assert eg.relative_error(gamma.grad, (r * xhat).sum(axis=(0, 1))) <= 1e-13
    if beta is not None:
        assert eg.relative_error(beta.grad, r.sum(axis=(0, 1))) <= 1e-13
    check_grads(lambda: weighted_sum(eg.layer_norm(x, gamma, beta), r), params)


def test_layer_norm_takes_constant_arrays_as_gamma_and_beta():
    x = Parameter(rng.standard_normal((3, 4, 8)), "x")
    r = rng.standard_normal(x.shape)
    for gamma, beta in ((np.ones(8), np.zeros(8)), (rng.uniform(0.5, 1.5, 8), rng.uniform(-0.5, 0.5, 8))):
        outs, grads = [], []
        for affine in ((gamma, beta), (Tensor(gamma), Tensor(beta))):
            eg.zero_grads([x])
            out = eg.layer_norm(x, *affine)
            weighted_sum(out, r).backward()
            outs.append(out.data)
            grads.append(x.grad)
        npt.assert_array_equal(outs[0], outs[1])
        npt.assert_array_equal(grads[0], grads[1])


def test_layer_norm_rescales_rows_whose_squares_overflow():
    npt.assert_allclose(eg.layer_norm(Tensor([[1e200, -1e200, 0.0]])).data, [[1.5 ** 0.5, -1.5 ** 0.5, 0.0]],
                        rtol=1e-15)
    npt.assert_array_equal(eg.layer_norm(Tensor(np.full((1, 3), 1e200))).data, 0.0)  # eps keeps a floor
    # a power-of-two scale is exact: at eps = 0 both directions match the small input's bits
    x, r = Parameter(rng.standard_normal((2, 5)), "x"), rng.standard_normal((2, 5))
    big = Parameter(x.data * 2.0 ** 600, "big")
    outs = []
    for p in (x, big):
        eg.zero_grads([p])
        outs.append(eg.layer_norm(p, eps=0.0))
        weighted_sum(outs[-1], r).backward()
    npt.assert_array_equal(outs[0].data, outs[1].data)
    npt.assert_array_equal(x.grad, big.grad * 2.0 ** 600)


def test_grad_mean_pool():
    x = Parameter(rng.uniform(-1, 1, (2, 5, 3)), "x")
    r1 = rng.standard_normal((2, 3))
    r2 = rng.standard_normal((3,))
    check_grads(lambda: weighted_sum(eg.mean_pool(x, axis=1), r1), [x])
    check_grads(lambda: weighted_sum(eg.mean_pool(x, axis=(0, 1)), r2), [x])
    npt.assert_array_equal(eg.mean_pool(x, np.int64(1)).data, eg.mean_pool(x, 1).data)


def test_grad_temporal_conv():
    x = Parameter(rng.uniform(-1, 1, (2, 6, 3, 8)), "x")
    w = Parameter(rng.uniform(-0.5, 0.5, (8, 2, 5)), "w")
    for stride in (1, 2):
        out_shape = eg.temporal_conv(x, w, groups=4, stride=stride).shape
        r = rng.standard_normal(out_shape)
        check_grads(lambda: weighted_sum(eg.temporal_conv(x, w, 4, stride), r), [x, w])


def test_grad_temporal_conv_even_kernel_at_stride_two():
    x = Parameter(rng.uniform(-1, 1, (3, 7, 2, 4)), "x")
    w = Parameter(rng.uniform(-0.5, 0.5, (6, 2, 4)), "w")
    r = rng.standard_normal((3, 4, 2, 6))
    check_grads(lambda: weighted_sum(eg.temporal_conv(x, w, 2, 2), r), [x, w])


def test_temporal_conv_forms_no_column_matrix():
    # a (groups, B·T·V, C_in/groups · kernel) column matrix alone is kernel x the input
    x = Parameter(rng.standard_normal((8, 16, 25, 16)), "x")
    w = Parameter(rng.standard_normal((16, 4, 5)), "w")
    input_mb = x.data.nbytes / 1e6
    tracemalloc.start()
    try:
        out = eg.temporal_conv(x, w, 4, 1)
        forward_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    loss = weighted_sum(out, rng.standard_normal(out.shape))
    del out
    tracemalloc.start()
    try:
        loss.backward()
        backward_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert forward_mb < 4 * input_mb, forward_mb / input_mb
    assert backward_mb < 6 * input_mb, backward_mb / input_mb


def test_grad_temporal_conv_depthwise():
    x = Parameter(rng.uniform(-1, 1, (1, 5, 2, 3)), "x")
    w = Parameter(rng.uniform(-1, 1, (3, 1, 3)), "w")
    r = rng.standard_normal((1, 5, 2, 3))
    check_grads(lambda: weighted_sum(eg.temporal_conv(x, w, 3, 1), r), [x, w])


def test_grad_temporal_conv_pointwise_and_ragged_stride():
    x = Parameter(rng.uniform(-1, 1, (2, 4, 3, 4)), "x")
    w = Parameter(rng.uniform(-1, 1, (6, 2, 1)), "w")
    r = rng.standard_normal((2, 4, 3, 6))
    check_grads(lambda: weighted_sum(eg.temporal_conv(x, w, 2, 1), r), [x, w])
    x7 = Parameter(rng.uniform(-1, 1, (1, 7, 2, 6)), "x7")
    w3 = Parameter(rng.uniform(-1, 1, (6, 2, 3)), "w3")
    r3 = rng.standard_normal((1, 3, 2, 6))
    check_grads(lambda: weighted_sum(eg.temporal_conv(x7, w3, 3, 3), r3), [x7, w3])


def test_temporal_conv_skips_constant_input_adjoint():
    class Spy(Tensor):
        adjoints = 0

        def _accumulate(self, g):
            Spy.adjoints += 1

    data = rng.standard_normal((2, 5, 3, 4))
    w = Parameter(rng.standard_normal((4, 2, 3)), "w")
    r = rng.standard_normal((2, 3, 3, 4))
    weighted_sum(eg.temporal_conv(Spy(data), w, 2, 2), r).backward()
    assert Spy.adjoints == 0
    expected = w.grad.copy()
    eg.zero_grads([w])
    weighted_sum(eg.temporal_conv(Parameter(data, "x"), w, 2, 2), r).backward()
    npt.assert_array_equal(w.grad, expected)


def test_constant_operands_of_matmul_and_temporal_conv_get_no_adjoint(monkeypatch):
    # every constant operand's node is the shared sink, so count calls into it
    sunk = []
    monkeypatch.setattr(eg._Constant, "_accumulate", lambda self, g: sunk.append(g.shape))
    Tensor(np.zeros(2))._node._accumulate(np.zeros(2))
    assert sunk == [(2,)]
    sunk.clear()

    a = Parameter(rng.standard_normal((2, 3, 4)), "a")
    w = rng.standard_normal((4, 5))
    r = rng.standard_normal((2, 3, 5))
    weighted_sum(a @ Tensor(w), r).backward()
    npt.assert_allclose(a.grad, r @ w.T, rtol=1e-12)

    data = rng.standard_normal((2, 5, 3, 4))
    cw = Parameter(rng.standard_normal((4, 2, 3)), "cw")
    weighted_sum(eg.temporal_conv(Tensor(data), cw, 2, 2), rng.standard_normal((2, 3, 3, 4))).backward()
    assert sunk == []


def test_grad_gather():
    table = Parameter(rng.standard_normal((4, 21)), "table")
    idx = rng.integers(0, 21, size=(6, 6))
    r = rng.standard_normal((4, 6, 6))
    check_grads(lambda: weighted_sum(eg.gather(table, idx), r), [table])
    flat = Parameter(rng.standard_normal(9), "flat")
    r1 = rng.standard_normal((6, 6))
    check_grads(lambda: weighted_sum(eg.gather(flat, idx % 9), r1), [flat])


def test_gather_backward_is_bit_equal_to_add_at():
    # heavily repeated indices: each table entry sums many terms;
    # weighted_sum hands the gather output exactly g as its gradient
    idx = rng.integers(0, 7, size=(30, 30))
    for shape in ((3, 7), (7,)):
        table = Parameter(rng.standard_normal(shape), "table")
        g = rng.standard_normal(shape[:-1] + idx.shape)
        weighted_sum(eg.gather(table, idx), g).backward()
        expected = np.zeros(shape)
        np.add.at(expected, (..., idx), g)
        npt.assert_array_equal(table.grad, expected)


def test_gather_forward_is_bit_equal_to_indexing():
    idx = rng.integers(0, 9, size=(5, 7))
    for shape in ((4, 9), (9,)):
        table = rng.standard_normal(shape)
        out = eg.gather(table, idx).data
        assert out.shape == shape[:-1] + idx.shape
        npt.assert_array_equal(out, table[..., idx])


def test_grad_take():
    x = Parameter(rng.uniform(-1, 1, (4, 3, 2)), "x")
    idx1 = np.array([0, 2, 2, 1, 0])
    r = rng.standard_normal((4, 5, 2))
    check_grads(lambda: weighted_sum(eg.take(x, idx1, axis=1), r), [x])
    idx0 = np.array([0, 3, 3, 1, 0])
    r0 = rng.standard_normal((5, 3, 2))
    check_grads(lambda: weighted_sum(eg.take(x, idx0, axis=0), r0), [x])


def test_take_of_a_constant_step_is_a_view():
    x = Parameter(rng.standard_normal((4, 7, 3)), "x")
    r = rng.standard_normal((4, 7, 3))
    for idx, view in (([1, 3, 5], True), ([2], True), ([0, 1, 2, 3, 4, 5, 6], True),
                      ([1, 1, 2], False), ([5, 3, 1], False), ([0, 2, 3], False)):
        out = eg.take(x, np.array(idx), axis=1)
        assert np.shares_memory(out.data, x.data) == view, idx
        npt.assert_array_equal(out.data, np.take(x.data, idx, axis=1))
        eg.zero_grads([x])
        weighted_sum(eg.take(x, np.array(idx), axis=1), r[:, :len(idx)]).backward()
        expected = np.zeros_like(x.data)
        np.add.at(expected, (slice(None), np.array(idx)), r[:, :len(idx)])
        npt.assert_array_equal(x.grad, expected)


def test_grad_reshape_transpose():
    x = Parameter(rng.uniform(-1, 1, (2, 3, 4)), "x")
    r = rng.standard_normal((4, 6))
    check_grads(lambda: weighted_sum(eg.reshape(eg.transpose(x, (2, 0, 1)), (4, 6)), r), [x])
    # negative axes name the same permutation, and the gradient comes back in x's shape
    check_grads(lambda: weighted_sum(eg.reshape(eg.transpose(x, (-1, 0, -2)), (4, 6)), r), [x])


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
    # no group, and an empty kernel, are refused, not divided by or summed to zeros
    with pytest.raises(ShapeError, match="temporal_conv: groups"):
        eg.temporal_conv(Tensor(np.ones((1, 4, 2, 6))), Tensor(np.ones((6, 2, 3))), groups=0)
    with pytest.raises(ShapeError, match="temporal_conv: kernel"):
        eg.temporal_conv(Tensor(np.ones((1, 4, 2, 6))), Tensor(np.ones((6, 2, 0))), groups=3)
    with pytest.raises(ShapeError, match="take"):
        eg.take(Tensor(np.ones((2, 2))), np.array([2]), axis=0)
    with pytest.raises(ShapeError, match="cross_entropy"):
        eg.cross_entropy(Tensor(np.zeros(3)), 5)
    # an axis out of range, repeated, or not a permutation is named, not wrapped
    x = Tensor(np.ones((2, 3, 4)))
    for axis in (3, -4, (1, -2), (0, 0)):
        with pytest.raises(ShapeError, match="mean_pool"):
            eg.mean_pool(x, axis)
    for axis in (3, -4):
        with pytest.raises(ShapeError, match="take"):
            eg.take(x, np.array([0]), axis=axis)
    for axes in ((0, 1), (0, 0, 1), (0, 1, 3), (-1, 0, 2), (0, 1, 2, 3)):
        with pytest.raises(ShapeError, match="transpose"):
            eg.transpose(x, axes)
    with pytest.raises(ShapeError, match="gather"):
        eg.gather(Tensor(np.ones(4)), np.array([[0, 4]]))
    # an index that is not integer is refused, not truncated or read as a mask
    for index in (np.array([0.5]), np.array([True, False])):
        with pytest.raises(ShapeError, match="take: index must hold integers"):
            eg.take(x, index, axis=0)
    with pytest.raises(ShapeError, match="gather: index must hold integers"):
        eg.gather(Tensor(np.ones(4)), np.array([[0.0, 1.5]]))
    for labels in (0.7, [0, 1.5], True):
        with pytest.raises(ShapeError, match="cross_entropy: index must hold integers"):
            eg.cross_entropy(Tensor(np.zeros((np.size(labels), 3))), labels)
    assert eg.take(x, [], axis=1).shape == (2, 0, 4)
    # a softmax bias must broadcast onto the scores without enlarging them
    scores = Tensor(np.ones((2, 3)))
    for shape in ((2, 2, 3), (4,), (2, 1, 1)):
        with pytest.raises(ShapeError, match="softmax"):
            eg.softmax(scores, Tensor(np.ones(shape)))
    # a matmul bias is (C_out,), and only with a 2-D right operand
    for w_shape, b_shape in (((3, 4), (3,)), ((3, 4), (1, 4)), ((3, 4), ()), ((2, 3, 4), (4,))):
        with pytest.raises(ShapeError, match="matmul"):
            eg.matmul(scores, Tensor(np.ones(w_shape)), Tensor(np.ones(b_shape)))
    # a reduction needs a non-empty axis: no NumPy error or warning
    empty = [(op, (Tensor(np.ones(shape)),)) for op in (eg.softmax, eg.layer_norm)
             for shape in ((2, 0), (0,), ())]
    empty += [(eg.cross_entropy, (Tensor(np.zeros((0, 3))), [])),
              (eg.mean_pool, (Tensor(np.zeros((2, 0))), 1)),
              (eg.mean_pool, (Tensor(np.zeros((0, 2, 3))), (0, 2))),
              (eg.temporal_conv, (Tensor(np.zeros((1, 0, 2, 4))), Tensor(np.ones((4, 1, 3))), 4))]
    for op, args in empty:
        with pytest.raises(ShapeError, match=op.__name__):
            op(*args)


def test_non_finite_raises():
    with pytest.raises(NumericError):
        Tensor(np.array([np.nan]))
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError, match="scalar_mul"):
            eg.scalar_mul(Tensor(np.array(1e308)), 1e10)


# each output really overflows, and its bound passes the limit
_OVERFLOWS = {
    "add": lambda: eg.add(Tensor([1e308]), Tensor([1e308])),
    "sub": lambda: eg.sub(Tensor([1e308]), Tensor([-1e308])),
    "mul": lambda: eg.mul(Tensor([1e200]), Parameter(np.array([1e200]), "p")),
    "scalar_mul": lambda: eg.scalar_mul(Tensor([1e308]), 10.0),
    "matmul": lambda: eg.matmul(Tensor(np.full((2, 2), 1e200)), Parameter(np.full((2, 3), 1e200), "w")),
    "matmul with a bias": lambda: eg.matmul(Tensor([[1e308, 0.0]]), Tensor([[1.0], [0.0]]), Tensor([1e308])),
    "matmul over broadcast axes": lambda: eg.matmul(Tensor(np.full((3, 4), 1e160)),
                                                    Tensor(np.full((2, 4, 2), 1e160))),
    "temporal_conv": lambda: eg.temporal_conv(Tensor(np.full((1, 4, 2, 2), 1e200)),
                                              Tensor(np.full((2, 1, 3), 1e200)), groups=2, stride=2),
    "layer_norm": lambda: eg.layer_norm(Tensor([[1.0, 0.0, 0.0, 0.0]]), Tensor(np.full(4, 1.5e308))),
    "mean_pool": lambda: eg.mean_pool(Tensor(np.full((2, 3), 1e308)), (0, 1)),
    "cross_entropy": lambda: eg.cross_entropy(Tensor([[1e308, -1e308]]), [1]),
}


@pytest.mark.parametrize("case", sorted(_OVERFLOWS))
def test_an_output_that_overflows_raises_naming_its_op(case):
    # the op's own arithmetic overflows, as it did before bounds; nothing else may warn
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match=f"produced by {case.split()[0]}$"):
            _OVERFLOWS[case]()


# each bound passes the limit, but the output is finite
_LOOSE_BOUNDS = {
    "add": lambda: eg.add(Tensor([1e308]), Tensor([-1e308])),
    "mul": lambda: eg.mul(Tensor([1e200, 1.0]), Parameter(np.array([1.0, 1e200]), "p")),
    "matmul": lambda: eg.matmul(Tensor([[1e200, 1.0]]), Tensor([[0.0], [1e200]]), Tensor([1e300])),
    "temporal_conv": lambda: eg.temporal_conv(Tensor(np.tile([1e200, 0.0], (1, 3, 2, 1))),
                                              Tensor(np.array([[[0.0], [1e200]]])), groups=1),
    "layer_norm": lambda: eg.layer_norm(Tensor([[1e151, -1e151]])),
    "mean_pool": lambda: eg.mean_pool(Tensor(np.full((100,), 1e300)), 0),
}


@pytest.mark.parametrize("case", sorted(_LOOSE_BOUNDS))
def test_an_output_past_the_bound_limit_is_scanned_and_returned(case, monkeypatch):
    scans = _finite_scans(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a NumPy scalar bound would warn as it overflows
        out = _LOOSE_BOUNDS[case]()
    assert scans[-1] == case and type(out.bound) is float
    assert out.bound == np.abs(out.data).max() < np.inf


@pytest.mark.parametrize("op, f", [
    ("neg", eg.neg), ("relu", eg.relu), ("tanh", eg.tanh), ("layer_norm", eg.layer_norm),
    ("layer_norm", lambda p: eg.layer_norm(Tensor(np.ones((2, 3))), p)),
    ("mean_pool", lambda p: eg.mean_pool(p, 0)), ("scalar_mul", lambda p: eg.scalar_mul(p, 2.0)),
    ("add", lambda p: eg.add(p, 1.0)), ("mul", lambda p: eg.mul(Tensor(np.zeros(3)), p)),
    ("matmul", lambda p: eg.matmul(Tensor(np.ones((1, 3))), eg.reshape(p, (3, 1)))),
])
def test_a_nan_in_a_parameter_raises_at_the_first_arithmetic_op_that_reads_it(op, f):
    p = Parameter(np.ones(3), "p")
    f(p)
    p.data[1] = np.nan
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericError, match=f"produced by {op}$"):
            f(p)


def test_a_scan_allocates_no_array():
    arr = rng.standard_normal((40, 50, 64))
    magnitude = np.abs(arr).max()
    tracemalloc.start()
    try:
        bound = eg._finite(arr, "tensor")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bound == magnitude and type(bound) is float
    assert peak < 0.01 * arr.nbytes, (peak, arr.nbytes)


def test_a_toy5_prediction_scans_only_its_input(monkeypatch):
    config = layers.ModelConfig(topology=graph.get_topology("toy5"), num_classes=4,
                                channels=(16, 16, 32, 32), strides=(1, 1, 2, 1),
                                window=WindowSpec(4, 5), heads=4)
    model = layers.DDGCNModel(config, seed=0)
    x = np.random.default_rng(0).standard_normal((8, 16, 5, 3))
    scans = _finite_scans(monkeypatch)
    for clips in (x, x[0]):
        model.predict_proba(clips)
        assert scans == ["tensor"]
        scans.clear()


def test_view_and_selection_ops_leave_a_non_finite_entry_to_the_next_arithmetic_op():
    """A Parameter's data written after it was made is not scanned by a view
    or a selection of it; the first arithmetic op that reads it raises."""
    p = Parameter(np.ones((2, 3)), "p")
    p.data[0, 1] = np.nan
    for view in (eg.reshape(p, (3, 2)), eg.transpose(p, (1, 0)),
                 eg.take(p, np.array([1, 0, 1]), axis=0), eg.gather(p, np.array([[1, 2]]))):
        assert np.isnan(view.data).any()
        with pytest.raises(NumericError, match="add"):
            eg.add(view, 1.0)
    with pytest.raises(NumericError, match="tensor"):
        Tensor(p.data)


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


@pytest.mark.parametrize("op", [operator.mul, operator.add, operator.sub, operator.matmul])
def test_an_ndarray_on_the_left_of_an_operator_defers_to_the_tensor(op):
    left = rng.standard_normal((3, 3))
    p = Parameter(rng.standard_normal((3, 3)), "p")
    out = op(left, p)
    assert isinstance(out, Tensor) and out.requires_grad
    npt.assert_array_equal(out.data, op(left, p.data))
    check_grads(lambda: eg.mean_pool(op(left, p), axis=(0, 1)), [p])


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
    # a new graph through a released node is refused before any gradient moves
    with pytest.raises(RuntimeError, match="already released"):
        eg.mean_pool(eg.mul(q, p), axis=0).backward()
    npt.assert_array_equal(p.grad, [4.0])


def _root_parameter():
    p = Parameter(np.array(3.0), "p")
    return p, p, 1.0


def _long_chain():
    # deeper than the default recursion limit: the sweep must not recurse
    p = Parameter(np.array([2.0]), "p")
    h = p
    for _ in range(20_000):
        h = eg.scalar_mul(h, 1.0 + 1e-5)
    return eg.mean_pool(h, axis=0), p, (1.0 + 1e-5) ** 20_000


def _three_branches():
    # h's consumers sit 5 ops, 1 op and 2 ops below the loss; all must run before h
    p = Parameter(rng.uniform(-1, 1, (3, 4)), "p")
    r = rng.standard_normal((3, 4))
    h = eg.scalar_mul(p, 1.5)
    deep = h
    for _ in range(5):
        deep = eg.scalar_mul(deep, 0.5)
    loss = weighted_sum(deep + h + eg.tanh(h), r)
    return loss, p, 1.5 * r * (0.5 ** 5 + 2.0 - np.tanh(1.5 * p.data) ** 2)


def _through_a_spent_node():
    p = Parameter(np.array([2.0]), "p")
    q = eg.mul(p, p)
    eg.mean_pool(q, axis=0).backward()
    return eg.mean_pool(eg.mul(q, p), axis=0), p, RuntimeError("already released")


@pytest.mark.parametrize("build", [_root_parameter, _long_chain, _three_branches, _through_a_spent_node],
                         ids=["root_parameter", "long_chain", "three_branches", "through_a_spent_node"])
def test_the_sweep_runs_each_closure_after_all_its_consumers(build):
    loss, p, expected = build()
    if isinstance(expected, Exception):
        with pytest.raises(type(expected), match=str(expected)):
            loss.backward()
    else:
        loss.backward()
        npt.assert_allclose(p.grad, expected, rtol=1e-10)


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
    assert out.requires_grad and out._parents == (p._node, p._node)


def test_tape_keeps_only_what_backward_reads():
    q = Parameter(rng.standard_normal((2, 3, 4)), "q")
    k = Parameter(rng.standard_normal((2, 4, 3)), "k")
    bias = Parameter(rng.standard_normal((3, 3)), "bias")
    r = rng.standard_normal((2, 3, 3))

    def f():
        return weighted_sum(eg.softmax(q @ k + bias), r)

    eg.zero_grads([q, k, bias])
    scores = q @ k
    total = scores + bias
    probs = eg.softmax(total)
    out = weighted_sum(probs, r)
    refs = [weakref.ref(t.data) for t in (scores, total, probs)]
    del scores, total, probs
    # the add reads no operand and softmax reads only its own output
    assert refs[0]() is None and refs[1]() is None
    assert refs[2]() is not None
    out.backward()
    assert refs[2]() is None
    for p in (q, k, bias):
        assert eg.relative_error(p.grad, eg.finite_difference_grad(f, p)) <= GRAD_TOL

    # the fused forms: softmax(scores, bias) keeps only its output ...
    scores = q @ k
    probs = eg.softmax(scores, bias)
    out = weighted_sum(probs, r)
    scores_ref, probs_ref = weakref.ref(scores.data), weakref.ref(probs.data)
    del scores, probs
    assert scores_ref() is None and probs_ref() is not None
    out.backward()
    assert probs_ref() is None
    # ... and matmul(x, w, b) keeps x only when w needs a gradient, and nothing of b
    p, c = Parameter(rng.standard_normal((2, 3, 4)), "p"), Parameter(rng.standard_normal(5), "c")
    for w, keeps_x in ((Parameter(rng.standard_normal((4, 5)), "w"), True),
                       (Tensor(rng.standard_normal((4, 5))), False)):
        x, b = eg.scalar_mul(p, 2.0), eg.scalar_mul(c, 2.0)  # interior operands
        out = weighted_sum(eg.matmul(x, w, b), rng.standard_normal((2, 3, 5)))
        x_ref, b_ref = weakref.ref(x.data), weakref.ref(b.data)
        del x, b
        assert (x_ref() is not None) == keeps_x and b_ref() is None
        out.backward()
        assert x_ref() is None

    x = Parameter(rng.uniform(0.5, 1.5, (3, 4)) * rng.choice([-1.0, 1.0], (3, 4)), "x")
    pre = eg.scalar_mul(x, 2.0)
    act = eg.relu(pre)
    out = weighted_sum(act, rng.standard_normal((3, 4)))
    pre_ref, act_ref = weakref.ref(pre.data), weakref.ref(act.data)
    del pre, act
    assert pre_ref() is None and act_ref() is not None  # relu masks by its output
    out.backward()
    assert act_ref() is None


def test_taped_chain_memory_is_flat():
    p = Parameter(rng.standard_normal(1 << 17), "p")  # 1 MB
    array_mb = p.data.nbytes / 1e6
    tracemalloc.start()
    try:
        h = p
        for _ in range(10):
            h = eg.scalar_mul(eg.add(h, p), 0.5)  # stays equal to p
        loss = eg.mean_pool(h, axis=0)
        del h
        loss.backward()
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    # the 20 intermediates no backward reads are freed as the chain goes
    assert peak_mb < 5 * array_mb, peak_mb
    npt.assert_allclose(p.grad, 1.0 / p.data.size, rtol=1e-12)


# ---------------------------------------------------------------------------
# Gradient ownership: a closure hands each array to one node
# ---------------------------------------------------------------------------

def test_add_gives_each_operand_its_own_gradient():
    # both scalar_mul nodes compute in place in the gradient they get, so a
    # gradient shared between them would scale p's by 3 as well as 2
    p = Parameter(rng.standard_normal((3, 4)), "p")
    q = Parameter(rng.standard_normal((3, 4)), "q")
    r = rng.standard_normal((3, 4))
    weighted_sum(eg.scalar_mul(p, 2.0) + eg.scalar_mul(q, 3.0), r).backward()
    npt.assert_array_equal(p.grad, 2.0 * r)
    npt.assert_array_equal(q.grad, 3.0 * r)


def test_gradients_of_reused_interior_nodes():
    p = Parameter(rng.uniform(-1, 1, (3, 4)), "p")
    r = rng.standard_normal((3, 4))

    def run(graph):
        eg.zero_grads([p])
        weighted_sum(graph(eg.scalar_mul(p, 1.5)), r).backward()
        return p.grad

    npt.assert_array_equal(run(lambda h: h + h), 3.0 * r)
    npt.assert_array_equal(run(lambda h: h - h), np.zeros((3, 4)))
    npt.assert_allclose(run(lambda h: eg.tanh(h) - h), 1.5 * r * (-np.tanh(1.5 * p.data) ** 2), rtol=1e-12)
    npt.assert_allclose(run(lambda h: eg.tanh(h) - eg.neg(h) + h), 1.5 * r * (3.0 - np.tanh(1.5 * p.data) ** 2),
                        rtol=1e-12)


def test_gradients_through_broadcast_views_and_layout_changes():
    x = Parameter(rng.uniform(-1, 1, (2, 3, 4)), "x")
    bias = Parameter(rng.uniform(-1, 1, (4,)), "bias")
    r = rng.standard_normal((2, 3, 4))
    r2 = rng.standard_normal((2, 4))

    def bias_add():
        h = eg.scalar_mul(x, 0.5)
        return weighted_sum(eg.relu(eg.tanh(h + bias) + h), r)

    def pooled():
        h = eg.tanh(x)
        return weighted_sum(eg.mean_pool(h, axis=1) + eg.mean_pool(eg.neg(h), axis=1), r2)

    def view_chain():
        h = eg.transpose(eg.scalar_mul(x, 2.0), (2, 0, 1))
        flat = eg.reshape(eg.tanh(h), (4, 6))
        back = eg.transpose(eg.reshape(eg.neg(flat), (4, 2, 3)), (1, 2, 0))
        return weighted_sum(back + eg.transpose(h, (1, 2, 0)), r)

    check_grads(bias_add, [x, bias])
    check_grads(pooled, [x])
    check_grads(view_chain, [x])


def test_gradient_of_a_padded_temporal_conv_chain():
    x = Parameter(rng.uniform(-1, 1, (2, 5, 3, 4)), "x")
    w = Parameter(rng.uniform(-0.5, 0.5, (4, 2, 3)), "w")
    r = rng.standard_normal((2, 5, 3, 4))

    def f():
        h = eg.scalar_mul(x, 1.5)
        return weighted_sum(eg.tanh(eg.temporal_conv(h, w, 2, 1)) + h, r)

    check_grads(f, [x, w])


def test_backward_through_in_place_closures_allocates_no_second_array():
    p = Parameter(rng.standard_normal((1000, 1000)), "p")
    h = eg.scalar_mul(p, 1.0)  # an interior tensor
    for _ in range(6):
        h = eg.relu(eg.neg(eg.scalar_mul(h, -2.0)))
    loss = eg.mean_pool(h, axis=(0, 1))
    del h
    array_mb = p.data.nbytes / 1e6
    tracemalloc.start()
    try:
        loss.backward()
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    # mean_pool's broadcast copy is the one full array; relu adds a boolean mask
    assert peak_mb < 2 * array_mb, peak_mb
    npt.assert_array_equal(p.grad, np.where(p.data > 0, 64.0 / p.data.size, 0.0))


def test_a_node_keeps_a_writeable_gradient_whatever_its_layout():
    p = Parameter(rng.standard_normal((3, 4)), "p")
    h = eg.scalar_mul(p, 2.0)  # an interior node
    g = np.ones((4, 3)).T
    assert not g.flags.c_contiguous and g.flags.writeable
    h._node._accumulate(g)
    assert h.grad is g
    h._node._accumulate(np.ones((3, 4)))  # later writes add in place
    assert h.grad is g
    npt.assert_array_equal(g, np.full((3, 4), 2.0))
    # a read-only view may be shared, so the first write copies it
    shared = np.broadcast_to(np.arange(4.0), (3, 4))
    k = eg.scalar_mul(p, 3.0)
    k._node._accumulate(shared)
    assert k.grad is not shared and k.grad.flags.writeable
    k.grad[0, 0] = -1.0
    npt.assert_array_equal(shared, np.broadcast_to(np.arange(4.0), (3, 4)))


def test_a_toy5_backward_copies_only_read_only_gradients(monkeypatch):
    config = layers.ModelConfig(topology=graph.get_topology("toy5"), num_classes=4,
                                channels=(16, 16, 32, 32), strides=(1, 1, 2, 1),
                                window=WindowSpec(4, 5), heads=4)
    model = layers.DDGCNModel(config, seed=0)
    x = np.random.default_rng(0).standard_normal((64, 16, 5, 3))
    labels = np.arange(64) % 4
    first_writes = []  # (kept, writeable) per first write of a node, Parameter leaves included
    accumulate = eg._Node._accumulate

    def spied(node, g):
        fresh = node.grad is None
        accumulate(node, g)
        if fresh:
            first_writes.append((node.grad is g, g.flags.writeable))

    monkeypatch.setattr(eg._Node, "_accumulate", spied)
    eg.cross_entropy(model.logits(x), labels).backward()
    copies = [writeable for kept, writeable in first_writes if not kept]
    assert len(first_writes) > 100 and copies
    assert not any(copies), f"{sum(copies)} of {len(copies)} copies were of writeable arrays"


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


def test_load_checkpoint_checks_config(tmp_path):
    path = tmp_path / "c.ckpt"
    eg.save_checkpoint([Parameter(np.zeros(2), "w")], path, {"a": 1, "b": [2, 3], "c": "x"})
    assert set(eg.load_checkpoint(path, {"a": 1, "b": [2, 3], "c": "x"})) == {"w"}
    with pytest.raises(ValueError, match="model config differs in b: .* has \\[2, 3\\], the model has \\[2, 4\\]"):
        eg.load_checkpoint(path, {"a": 1, "b": [2, 4], "c": "y"})
    bare = tmp_path / "bare.ckpt"
    eg.save_checkpoint([Parameter(np.zeros(2), "w")], bare)
    assert set(eg.load_checkpoint(bare)) == {"w"}
    with pytest.raises(ValueError, match="records no model config"):
        eg.load_checkpoint(bare, {"a": 1})
    listed = tmp_path / "listed.ckpt"
    header = {"format": "flat-f8-le", "params": [{"name": "w", "shape": [2], "offset": 0}], "config": [1]}
    listed.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + np.zeros(2).tobytes())
    with pytest.raises(ValueError, match="records no model config"):
        eg.load_checkpoint(listed, {"a": 1})


@pytest.mark.parametrize("cut", [5, 8])
def test_truncated_checkpoint_is_reported(tmp_path, cut):
    path = tmp_path / "c.ckpt"
    eg.save_checkpoint([Parameter(np.zeros((3, 4)), "w"), Parameter(np.zeros(()), "a")], path)
    path.write_bytes(path.read_bytes()[:-cut])
    with pytest.raises(ValueError, match="truncated: header lists 13 values"):
        eg.load_checkpoint(path)


def entry(name, shape, offset):
    return {"name": name, "shape": shape, "offset": offset}


@pytest.mark.parametrize("header, message", [
    ([1, 2], "unrecognized checkpoint format"),
    ({"format": "flat-f8-le", "params": 5}, "params must be a list"),
    ({"format": "flat-f8-le"}, "params must be a list"),
    ({"format": "flat-f8-le", "params": [5]}, "malformed params entry"),
    ({"format": "flat-f8-le", "params": [entry("w", "ab", 0)]}, "malformed params entry"),
    ({"format": "flat-f8-le", "params": [entry("w", [2, -2], 0)]}, "malformed params entry"),
    ({"format": "flat-f8-le", "params": [entry("w", [2.0, 2], 0)]}, "malformed params entry"),
    ({"format": "flat-f8-le", "params": [entry(3, [4], 0)]}, "malformed params entry"),
    ({"format": "flat-f8-le", "params": [entry("w", [2], 0), entry("a", [2], 0)]},
     "'a' has offset 0, expected 2"),
    ({"format": "flat-f8-le", "params": [entry("w", [4], 1)]}, "'w' has offset 1, expected 0"),
    ({"format": "flat-f8-le", "params": [entry("w", [4], 0.0)]}, "'w' has offset 0.0, expected 0"),
    ({"format": "flat-f8-le", "params": [{"name": "w", "shape": [4]}]}, "'w' has offset None"),
    ({"format": "flat-f8-le", "params": [entry("w", [2], 0), entry("w", [2], 2)]}, "name twice"),
])
def test_malformed_checkpoint_header_is_reported(tmp_path, header, message):
    path = tmp_path / "c.ckpt"
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + np.zeros(4).tobytes())
    with pytest.raises(ValueError, match=message):
        eg.load_checkpoint(path)
    path.write_bytes(json.dumps(header).encode("utf-8"))
    with pytest.raises(ValueError, match="has no header line"):
        eg.load_checkpoint(path)


def test_assign_checkpoint_copies_into_a_private_array(tmp_path):
    path = tmp_path / "c.ckpt"
    eg.save_checkpoint([Parameter(np.arange(4.0), "w")], path)
    state = eg.load_checkpoint(path)
    p = Parameter(np.zeros(4), "w")
    eg.assign_checkpoint([p], state)
    assert not np.shares_memory(p.data, state["w"]) and p.data.flags.writeable
    npt.assert_array_equal(p.data, np.arange(4.0))



def test_loaded_checkpoint_arrays_are_read_only_views_of_one_buffer(tmp_path):
    path = tmp_path / "v.ckpt"
    eg.save_checkpoint([Parameter(np.arange(6.0).reshape(2, 3), "w"), Parameter(np.ones(4), "b")], path)
    state = eg.load_checkpoint(path)
    w, b = state["w"], state["b"]
    assert not w.flags.writeable and not b.flags.writeable
    assert w.base is not None and w.base is b.base
    # b starts right after w's six values in the same data section
    assert b.__array_interface__["data"][0] - w.__array_interface__["data"][0] == 8 * w.size
    npt.assert_array_equal(w, np.arange(6.0).reshape(2, 3))
    npt.assert_array_equal(b, np.ones(4))


def restorable(tmp_path):
    """A saved checkpoint of w (2, 3), alpha (), b (4,) and c (4,), and
    zeroed parameters of the same names and shapes to restore it into."""
    saved = [Parameter(rng.standard_normal(shape), name)
             for name, shape in (("w", (2, 3)), ("alpha", ()), ("b", (4,)), ("c", (4,)))]
    path = tmp_path / "r.ckpt"
    eg.save_checkpoint(saved, path, {"a": 1})
    return path, saved, [Parameter(np.zeros_like(p.data), p.name) for p in saved]


def test_load_checkpoint_reads_into_each_private_array(tmp_path):
    path, saved, params = restorable(tmp_path)
    arrays = [p.data for p in params]
    out = eg.load_checkpoint(path, {"a": 1}, params)
    for p, array, s in zip(params, arrays, saved):
        assert p.data is array and out[p.name] is array and array.flags.writeable
        assert array.tobytes() == s.data.tobytes()


def snapshot(params):
    return [(p.data, p.data.copy()) for p in params]


def assert_untouched(params, snap):
    for p, (array, values) in zip(params, snap):
        assert p.data is array
        npt.assert_array_equal(array, values)


def test_a_parameter_keeps_its_array_for_life():
    p = Parameter(np.zeros((2, 3)), "p")
    array, value = p.data, np.arange(6.0).reshape(2, 3)
    p.data = value
    assert p.data is array and not np.shares_memory(array, value)
    npt.assert_array_equal(array, value)
    with pytest.raises(ShapeError, match=r"'p' has shape \(2, 3\), got \(6,\)"):
        p.data = np.zeros(6)
    npt.assert_array_equal(array, value)
    fresh = np.ones(3)
    assert Parameter(fresh, "q").data is fresh  # an owned, writeable, C-contiguous float64 array is kept


def test_a_parameter_copies_a_value_it_does_not_own():
    owner, read_only = np.arange(8.0), np.arange(6.0)
    read_only.flags.writeable = False
    for value in (owner[2:8], owner[:6].reshape(3, 2).T, owner[:6].astype(">f8"), read_only):
        p = Parameter(value, "p")
        flags = p.data.flags
        assert flags.owndata and flags.writeable and flags.c_contiguous and p.data.dtype == np.float64
        assert not np.shares_memory(p.data, value)
        npt.assert_array_equal(p.data, value)


@pytest.mark.parametrize("kind", ["view", "non-native"])
def test_load_checkpoint_gives_a_foreign_array_a_fresh_one(tmp_path, kind):
    # The fresh array is made when the Parameter is built; a restore then reads
    # into it and never writes through the foreign array.
    path, saved, params = restorable(tmp_path)
    owner = np.zeros(8)
    foreign = owner[2:6] if kind == "view" else np.zeros(4, dtype=">f8")
    params[3] = c = Parameter(foreign, "c")
    c_array = c.data
    assert c_array is not foreign and not np.shares_memory(c_array, foreign)
    eg.load_checkpoint(path, {"a": 1}, params)
    assert c.data is c_array
    assert c.data.flags.writeable and c.data.flags.owndata and c.data.dtype == np.float64
    for p, s in zip(params, saved):
        npt.assert_array_equal(p.data, s.data)
    npt.assert_array_equal(foreign, 0.0)  # nothing was written through the foreign array
    npt.assert_array_equal(owner, 0.0)


@pytest.mark.parametrize("kind", ["read-only", "shared"])
def test_a_restore_refuses_an_array_it_may_not_write(tmp_path, kind):
    path, _, params = restorable(tmp_path)
    if kind == "read-only":
        params[3].data.flags.writeable = False
        message = "cannot restore 'c': its array is read-only"
    else:
        params[3] = Parameter(params[2].data, "c")  # b's own array: writing c would overwrite b
        message = "two parameters hold one array"
    snap = snapshot(params)
    for restore in (lambda: eg.load_checkpoint(path, {"a": 1}, params),
                    lambda: eg.assign_checkpoint(params, eg.load_checkpoint(path))):
        with pytest.raises(ValueError, match=message):
            restore()
        assert_untouched(params, snap)


@pytest.mark.parametrize("fault, error, message", [
    ("missing", KeyError, "missing parameter 'z'"),
    ("shape", ValueError, "checkpoint shape \\(4,\\) does not match 'c' \\(5,\\)"),
    ("config", ValueError, "model config differs in a"),
    ("truncated", ValueError, "is truncated"),
    ("over-long", ValueError, "has trailing bytes"),
])
def test_a_failed_load_writes_no_parameter(tmp_path, fault, error, message):
    path, _, params = restorable(tmp_path)
    if fault == "missing":
        params.append(Parameter(np.ones(2), "z"))
    elif fault == "shape":
        params[3] = Parameter(np.ones(5), "c")
    elif fault == "truncated":
        path.write_bytes(path.read_bytes()[:-4])
    elif fault == "over-long":
        path.write_bytes(path.read_bytes() + bytes(8))
    snap = snapshot(params)
    with pytest.raises(error, match=message):
        eg.load_checkpoint(path, {"a": 2 if fault == "config" else 1}, params)
    assert_untouched(params, snap)


# the headers, and their messages, that test_malformed_checkpoint_header_is_reported rejects
MALFORMED_HEADERS = test_malformed_checkpoint_header_is_reported.pytestmark[0].args[1]


@pytest.mark.parametrize("header, message", MALFORMED_HEADERS)
def test_a_malformed_header_writes_no_parameter(tmp_path, header, message):
    _, _, params = restorable(tmp_path)
    snap = snapshot(params)
    path = tmp_path / "c.ckpt"
    line = json.dumps(header).encode("utf-8")
    for raw, expected in ((line + b"\n" + np.zeros(4).tobytes(), message), (line, "has no header line")):
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=expected):
            eg.load_checkpoint(path, None, params)
        assert_untouched(params, snap)


def test_a_failed_assign_writes_no_parameter(tmp_path):
    path = tmp_path / "c.ckpt"
    eg.save_checkpoint([Parameter(np.ones(3), "a"), Parameter(np.ones(2), "b")], path)
    state = eg.load_checkpoint(path)
    for params, error in (([Parameter(np.zeros(3), "a"), Parameter(np.zeros(5), "b")], ValueError),
                          ([Parameter(np.zeros(3), "a"), Parameter(np.zeros(2), "z")], KeyError)):
        snap = snapshot(params)
        with pytest.raises(error):
            eg.assign_checkpoint(params, state)
        assert_untouched(params, snap)


@pytest.mark.parametrize("view", [False, True])
def test_assign_checkpoint_fills_private_arrays_in_place(view):
    a, b = Parameter(np.arange(3.0), "a"), Parameter(np.arange(3.0) + 10, "b")
    a_array, b_array = a.data, b.data
    # a swap: each state array is, or views, the other parameter's own array
    state = {"a": b.data[:] if view else b.data, "b": a.data[:] if view else a.data}
    eg.assign_checkpoint([a, b], state)
    assert a.data is a_array and b.data is b_array
    npt.assert_array_equal(a.data, np.arange(3.0) + 10)
    npt.assert_array_equal(b.data, np.arange(3.0))


def test_every_primitive_is_traced_by_the_benchmark():
    # perfbench's tracer wraps engine functions by name from outside; a primitive
    # missing from its list would drop out of the per-layer figures unnoticed
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    primitives = {name for name in eg.__all__
                  if inspect.isfunction(getattr(eg, name))
                  and inspect.signature(getattr(eg, name)).return_annotation == "Tensor"}
    assert {"matmul", "softmax", "temporal_conv", "take"} <= primitives
    assert primitives <= set(tracing.PRIMITIVES), primitives - set(tracing.PRIMITIVES)


# ---------------------------------------------------------------------------
# Allocator policy
# ---------------------------------------------------------------------------

@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is set under glibc only")
def test_a_warm_training_step_faults_no_freed_memory_back_in():
    # under glibc's default policy the heap top a step frees goes back to the
    # kernel, and the next step faults it in again: 12K–16K minor faults here
    assert eg._keep_freed_memory()
    topo = graph.get_topology("toy5")
    config = layers.ModelConfig(topology=topo, num_classes=4, channels=(16, 16, 32, 32),
                                strides=(1, 1, 2, 1), window=WindowSpec(4, 5), heads=4)
    dataset = data.generate_synthetic(data.SyntheticSpec(
        num_classes=4, samples_per_class=16, frames=16, topology=topo, noise_std=0.1, seed=1))
    faults = []  # the process's minor faults after each one-step epoch
    train.train(layers.DDGCNModel(config, seed=0), dataset,
                train.TrainConfig(epochs=3, batch_size=64, base_lr=1e-3),
                log=lambda row: faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt))
    assert faults[2] - faults[1] < 1000, faults


def test_the_allocator_policy_is_left_alone_without_glibc(monkeypatch):
    def no_library(name):
        raise OSError(f"{name}: cannot open shared object file")

    monkeypatch.setattr(eg.ctypes, "CDLL", no_library)
    assert eg._keep_freed_memory() is False
