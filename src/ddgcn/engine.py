"""Minimal dense-array numerics with reverse-mode differentiation.

Every value is a float64 NumPy array wrapped in a :class:`Tensor`. An op
whose operands need a gradient gives its output a graph node holding the
gradient, a backward closure and the parent nodes, but no array; each
closure keeps only the arrays its formula reads, so an activation that no
backward reads is freed once the layer code drops it. A :class:`Parameter`
is its own node. ``backward()`` on a scalar output walks the nodes in
reverse topological order and accumulates gradients additively into the
Parameter leaves, releasing each node's gradient, closure and parents as
it passes, so a graph is single-use. On its first write a node keeps any
writeable array it is handed as its gradient, whatever its strides, and
copies only a read-only view. So a closure hands every array, and every
part of one buffer, to one node only, always in that node's shape, and
computes in place in the gradient it is given. Inside :func:`no_tape` ops
record no graph at all. All primitives raise :class:`ShapeError` on
operand mismatch and :class:`NumericError` if they produce a non-finite
value.

A central finite-difference oracle (:func:`finite_difference_grad`) is
provided for checking the recorded adjoints.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import math
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NumericError, ShapeError

__all__ = [
    "Tensor", "Parameter", "no_tape", "add", "sub", "mul", "neg", "scalar_mul",
    "matmul", "tanh", "relu", "softmax", "layer_norm",
    "mean_pool", "temporal_conv", "gather", "take", "reshape", "transpose",
    "cross_entropy", "zero_grads", "finite_difference_grad", "relative_error",
    "grad_check", "save_checkpoint", "load_checkpoint", "assign_checkpoint",
]


_taping = contextvars.ContextVar("ddgcn_taping", default=True)


@contextlib.contextmanager
def no_tape():
    """Run ops without recording a graph, for inference: outputs keep only
    their ``data`` and cannot be differentiated."""
    token = _taping.set(False)
    try:
        yield
    finally:
        _taping.reset(token)


def _spent(g):
    raise RuntimeError("backward: this graph was already released by an earlier backward(); "
                       "run the forward again to differentiate it")


class _Node:
    """The graph side of a taped op output: gradient, backward closure and
    parent nodes, and no array."""

    __slots__ = ("grad", "_parents", "_backward")
    requires_grad = True

    def __init__(self, parents, backward):
        self.grad, self._parents, self._backward = None, parents, backward

    def _accumulate(self, g: np.ndarray) -> None:
        """Add ``g`` into the gradient. A first write keeps ``g`` itself if
        it is writeable, whatever its strides, and copies a read-only view.
        So a closure hands every array, and every part of one buffer, to one
        node only and never touches it again; a read-only view may be shared."""
        if self.grad is not None:
            self.grad += g
        else:
            self.grad = g if g.flags.writeable else np.copy(g)


class _Constant:
    """The node of every tensor that needs no gradient: it drops what it gets."""

    __slots__ = ()
    grad = _backward = None
    requires_grad = False
    _parents = ()

    def _accumulate(self, g: np.ndarray) -> None:
        pass


_CONSTANT = _Constant()


def _finite(data, op: str) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values produced by {op}")
    return arr


class Tensor:
    """A float64 array plus, when it needs a gradient, its graph node.

    ``requires_grad`` is True for a :class:`Parameter` and for an op output
    with such an operand; only those outputs get a node of their own, and
    ``grad``, ``_parents`` and ``_backward`` read through to ``_node``.
    """

    __slots__ = ("data", "_node")

    def __init__(self, data, _parents=(), _backward=None, _op="tensor"):
        self.data = _finite(data, _op)
        parents = tuple(p for p in _parents if p.requires_grad) if _taping.get() else ()
        self._node = _Node(parents, _backward) if parents else _CONSTANT

    requires_grad = property(lambda self: self._node.requires_grad)
    grad = property(lambda self: self._node.grad)
    _parents = property(lambda self: self._node._parents)
    _backward = property(lambda self: self._node._backward,
                         lambda self, fn: setattr(self._node, "_backward", fn))

    shape = property(lambda self: self.data.shape)
    ndim = property(lambda self: self.data.ndim)

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar output.

        Each interior node's gradient, closure and parents are released as
        soon as its closure has run, so a graph can be differentiated once.
        """
        if self.data.size != 1:
            raise ShapeError("backward requires a scalar output")
        root = self._node
        if not root.requires_grad:
            raise RuntimeError("backward: the output depends on no Parameter, "
                               "or was computed inside no_tape()")
        topo: list = []
        visited = {id(root)}
        stack: list[tuple[object, Iterable]] = [(root, iter(root._parents))]
        while stack:
            node, parents = stack[-1]
            pushed = False
            for parent in parents:
                if id(parent) not in visited:
                    visited.add(id(parent))
                    stack.append((parent, iter(parent._parents)))
                    pushed = True
                    break
            if not pushed:
                topo.append(node)
                stack.pop()
        root._accumulate(np.ones_like(self.data))
        while topo:
            node = topo.pop()
            if node._backward is not None:
                node._backward(node.grad)
                node.grad, node._backward, node._parents = None, _spent, ()

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scalar_mul(self, float(other))
        return mul(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


class Parameter(Tensor):
    """A named trainable tensor and its own graph node: a leaf whose
    gradients accumulate into ``grad``."""

    __slots__ = ("name", "grad")
    requires_grad = True
    _parents = ()
    _backward = None
    _accumulate = _Node._accumulate

    def __init__(self, value, name: str):
        # no Tensor.__init__: a Parameter is its own node and leaves the _node slot unset
        self.data = _finite(value, "tensor")
        self.name = name
        self.grad = np.zeros_like(self.data)

    # a property, not a stored self-reference, which would be a reference cycle
    _node = property(lambda self: self)


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _axis_indices(axes, ndim: int, op: str) -> tuple[int, ...]:
    """Axes as non-negative indices, each in ``[-ndim, ndim)`` and none repeated."""
    axes = tuple(axes)
    if not all(-ndim <= ax < ndim for ax in axes) or len(set(ax % ndim for ax in axes)) < len(axes):
        raise ShapeError(f"{op}: axes {axes} are not distinct axes of a {ndim}-D operand")
    return tuple(ax % ndim for ax in axes)


def _binary_shapes(a: Tensor, b: Tensor, op: str) -> tuple[int, ...]:
    try:
        return np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError as exc:
        raise ShapeError(f"{op}: incompatible shapes {a.data.shape} and {b.data.shape}") from exc


def add(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    _binary_shapes(a, b, "add")
    na, nb, a_shape, b_shape = a._node, b._node, a.data.shape, b.data.shape

    def bw(g):
        na._accumulate(_unbroadcast(g, a_shape))
        gb = _unbroadcast(g, b_shape)
        # a may have kept g: b gets a read-only view and copies it if it would keep it
        nb._accumulate(np.broadcast_to(gb, b_shape) if na.requires_grad else gb)

    return Tensor(a.data + b.data, (na, nb), bw, "add")


def sub(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    _binary_shapes(a, b, "sub")
    na, nb, a_shape, b_shape = a._node, b._node, a.data.shape, b.data.shape

    def bw(g):
        na._accumulate(_unbroadcast(g, a_shape))
        nb._accumulate(_unbroadcast(-g, b_shape))

    return Tensor(a.data - b.data, (na, nb), bw, "sub")


def mul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    _binary_shapes(a, b, "mul")
    na, nb, a_shape, b_shape = a._node, b._node, a.data.shape, b.data.shape
    # each operand's data only for the other operand's gradient
    a_data = a.data if nb.requires_grad else None
    b_data = b.data if na.requires_grad else None

    def bw(g):
        if na.requires_grad:
            na._accumulate(_unbroadcast(g * b_data, a_shape))
        if nb.requires_grad:
            nb._accumulate(_unbroadcast(g * a_data, b_shape))

    return Tensor(a.data * b.data, (na, nb), bw, "mul")


def neg(a) -> Tensor:
    a = _lift(a)
    na = a._node

    def bw(g):
        na._accumulate(np.negative(g, out=g))

    return Tensor(-a.data, (na,), bw, "neg")


def scalar_mul(a, c: float) -> Tensor:
    a = _lift(a)
    c = float(c)
    na = a._node

    def bw(g):
        na._accumulate(np.multiply(g, c, out=g))

    return Tensor(c * a.data, (na,), bw, "scalar_mul")


def matmul(a, b) -> Tensor:
    """Matrix product with NumPy broadcasting over leading axes.

    A 2-D ``b`` (a weight) folds the leading axes of ``a`` into one
    (N, C_in) matrix, so each direction is a single GEMM and the weight
    gradient is formed without a per-leading-index stack of products.
    """
    a, b = _lift(a), _lift(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-D, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions differ for {a.data.shape} and {b.data.shape}")
    na, nb, a_shape, b_shape = a._node, b._node, a.data.shape, b.data.shape
    # each operand's data only for the other operand's gradient
    a_data = a.data if nb.requires_grad else None
    b_data = b.data if na.requires_grad else None

    if b.ndim == 2:
        c_in, c_out = b_shape
        out_shape = a_shape[:-1] + (c_out,)

        # bw rebuilds the (N, C_in) view from a's data, so the closure keeps no extra copy
        def bw_folded(g):
            g2 = g.reshape(-1, c_out)
            if na.requires_grad:
                na._accumulate((g2 @ b_data.T).reshape(a_shape))
            if nb.requires_grad:
                nb._accumulate(a_data.reshape(-1, c_in).T @ g2)

        out_val = (a.data.reshape(-1, c_in) @ b.data).reshape(out_shape)
        return Tensor(out_val, (na, nb), bw_folded, "matmul")

    def bw(g):
        if na.requires_grad:
            na._accumulate(_unbroadcast(np.matmul(g, np.swapaxes(b_data, -1, -2)), a_shape))
        if nb.requires_grad:
            nb._accumulate(_unbroadcast(np.matmul(np.swapaxes(a_data, -1, -2), g), b_shape))

    return Tensor(np.matmul(a.data, b.data), (na, nb), bw, "matmul")


def tanh(a) -> Tensor:
    a = _lift(a)
    na, out_val = a._node, np.tanh(a.data)

    def bw(g):
        na._accumulate(np.multiply(g, 1.0 - out_val * out_val, out=g))

    return Tensor(out_val, (na,), bw, "tanh")


def relu(a) -> Tensor:
    a = _lift(a)
    na, out_val = a._node, np.maximum(a.data, 0.0)

    # out > 0 exactly where a > 0, so the input can go
    def bw(g):
        na._accumulate(np.multiply(g, out_val > 0.0, out=g))

    return Tensor(out_val, (na,), bw, "relu")


def softmax(a) -> Tensor:
    """Softmax over the last axis, numerically stabilized."""
    a = _lift(a)
    na = a._node
    s = a.data - a.data.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)

    def bw(g):
        inner = (g * s).sum(axis=-1, keepdims=True)
        g -= inner
        g *= s
        na._accumulate(g)

    return Tensor(s, (na,), bw, "softmax")


def layer_norm(x, gamma=None, beta=None, eps: float = 1e-8) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then optionally
    apply the per-channel affine map gamma * xhat + beta."""
    x = _lift(x)
    d = x.data.shape[-1]
    if gamma is not None and gamma.data.shape != (d,):
        raise ShapeError(f"layer_norm: gamma shape {gamma.data.shape} does not match channels {d}")
    if beta is not None and beta.data.shape != (d,):
        raise ShapeError(f"layer_norm: beta shape {beta.data.shape} does not match channels {d}")
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out_val = xhat if gamma is None else gamma.data * xhat
    if beta is not None:
        out_val = out_val + beta.data
    nx, reduce_axes = x._node, tuple(range(x.data.ndim - 1))
    gamma_data, ngamma = (None, None) if gamma is None else (gamma.data, gamma._node)
    nbeta = None if beta is None else beta._node

    def bw(g):
        gh = g if gamma_data is None else g * gamma_data
        dx = inv * (gh - gh.mean(axis=-1, keepdims=True)
                    - xhat * (gh * xhat).mean(axis=-1, keepdims=True))
        nx._accumulate(dx)
        if ngamma is not None:
            ngamma._accumulate((g * xhat).sum(axis=reduce_axes))
        if nbeta is not None:
            nbeta._accumulate(g.sum(axis=reduce_axes))

    parents = tuple(n for n in (nx, ngamma, nbeta) if n is not None)
    return Tensor(out_val, parents, bw, "layer_norm")


def mean_pool(a, axis) -> Tensor:
    """Mean over one axis or a tuple of axes (dimensions are dropped)."""
    a = _lift(a)
    axes = _axis_indices((axis,) if isinstance(axis, int) else axis, a.ndim, "mean_pool")
    count = 1
    for ax in axes:
        count *= a.data.shape[ax]
    na, a_shape = a._node, a.data.shape

    # the view is read-only, so the first write copies it and += broadcasts it
    def bw(g):
        gg = np.expand_dims(g, tuple(sorted(axes)))
        na._accumulate(np.broadcast_to(gg / count, a_shape))

    return Tensor(a.data.mean(axis=axes), (na,), bw, "mean_pool")


def temporal_conv(x, weight, groups: int, stride: int = 1) -> Tensor:
    """Grouped convolution with a (kernel x 1) window along the time axis.

    ``x`` is (B, T, V, C_in); ``weight`` is (C_out, C_in // groups, kernel).
    Channels are split into ``groups`` equal blocks, each convolved with its
    own kernels. Zero same-padding keeps T unchanged at stride 1; larger
    strides produce ceil(T / stride) output frames.
    """
    x, weight = _lift(x), _lift(weight)
    if x.ndim != 4:
        raise ShapeError(f"temporal_conv: input must be (B, T, V, C), got {x.data.shape}")
    b, t, v, c_in = x.data.shape
    if weight.ndim != 3:
        raise ShapeError(f"temporal_conv: weight must be (C_out, C_in/groups, kernel), got {weight.data.shape}")
    c_out, c_in_g, kernel = weight.data.shape
    if c_in % groups != 0 or c_out % groups != 0:
        raise ShapeError(f"temporal_conv: groups={groups} must divide C_in={c_in} and C_out={c_out}")
    if c_in_g != c_in // groups:
        raise ShapeError(f"temporal_conv: weight expects {c_in_g} channels per group, input provides {c_in // groups}")
    if stride < 1:
        raise ShapeError("temporal_conv: stride must be >= 1")

    t_out = -(-t // stride)
    pad_total = max((t_out - 1) * stride + kernel - t, 0)
    pad_left = pad_total // 2
    c_out_g = c_out // groups
    n = b * t_out * v
    wg = weight.data.reshape(groups, c_out_g, c_in_g * kernel)

    def columns(data):
        """(groups, N, C_in/groups * kernel) matrix: row (b, t', v) holds the
        group's window of the zero-padded input that starts at frame t' * stride."""
        padded = np.zeros((b, t + pad_total, v, c_in))
        padded[:, pad_left:pad_left + t] = data
        windows = sliding_window_view(padded, kernel, axis=1)[:, ::stride]
        return (windows.reshape(b, t_out, v, groups, c_in_g, kernel)
                .transpose(3, 0, 1, 2, 4, 5).reshape(groups, n, c_in_g * kernel))

    nx, nw = x._node, weight._node
    x_data = x.data if nw.requires_grad else None
    w_data = wg if nx.requires_grad else None

    # bw rebuilds the columns from x's data: keeping them, or the padded input,
    # would hold one more activation-sized array per layer until backward
    def bw(g):
        go = g.reshape(n, groups, c_out_g).transpose(1, 0, 2)
        if nw.requires_grad:
            dw = np.matmul(go.transpose(0, 2, 1), columns(x_data))
            nw._accumulate(dw.reshape(c_out, c_in_g, kernel))
        if nx.requires_grad:
            dcols = np.matmul(go, w_data).reshape(groups, b, t_out, v, c_in_g, kernel)
            dpadded = np.zeros((b, t + pad_total, v, groups, c_in_g))
            for k in range(kernel):
                dpadded[:, k:k + stride * (t_out - 1) + 1:stride] += dcols[..., k].transpose(1, 2, 3, 0, 4)
            nx._accumulate(dpadded.reshape(b, t + pad_total, v, c_in)[:, pad_left:pad_left + t])

    out_val = np.matmul(columns(x.data), wg.transpose(0, 2, 1))
    return Tensor(out_val.transpose(1, 0, 2).reshape(b, t_out, v, c_out), (nx, nw), bw, "temporal_conv")


def gather(table, index: np.ndarray) -> Tensor:
    """Look up a bias table by an integer index matrix.

    A (L,) table yields ``index.shape``; a (H, L) per-head table yields
    (H,) + ``index.shape``. Gradients scatter-add back into the table.
    """
    table = _lift(table)
    idx = np.asarray(index, dtype=np.int64)
    if table.ndim not in (1, 2):
        raise ShapeError(f"gather: table must be 1-D or 2-D, got {table.data.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[-1]):
        raise ShapeError("gather: index out of table range")
    out_val = table.data[..., idx]
    nt, table_shape = table._node, table.data.shape

    def bw(g):
        dt = np.zeros(table_shape)
        np.add.at(dt, (..., idx), g)
        nt._accumulate(dt)

    return Tensor(out_val, (nt,), bw, "gather")


def take(a, indices: np.ndarray, axis: int = 0) -> Tensor:
    """Select entries along ``axis`` by an integer index vector.

    Repeated indices are allowed; their gradients accumulate into the
    shared source entry, which makes this the building block for padding,
    cropping, strided subsampling and window permutations. An index with
    one positive step (a crop or a subsample) selects a view.
    """
    a = _lift(a)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("take: indices must be 1-D")
    (axis,) = _axis_indices((axis,), a.ndim, "take")
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[axis]):
        raise ShapeError(f"take: index out of range for axis {axis} with size {a.data.shape[axis]}")
    na, a_shape = a._node, a.data.shape
    step = int(idx[1] - idx[0]) if idx.size > 1 else 1
    # a constant positive step is a basic slice: a view forward, one assignment backward
    sliced = idx.size > 0 and step > 0 and bool(np.all(np.diff(idx) == step))
    key = (slice(None),) * axis + (slice(int(idx[0]), int(idx[-1]) + 1, step) if sliced else idx,)

    def bw(g):
        da = np.zeros(a_shape)
        if sliced:
            da[key] = g
        else:  # repeated indices add up
            np.add.at(da, key, g)
        na._accumulate(da)

    return Tensor(a.data[key] if sliced else np.take(a.data, idx, axis=axis), (na,), bw, "take")


def reshape(a, shape) -> Tensor:
    a = _lift(a)
    try:
        out_val = a.data.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"reshape: cannot view {a.data.shape} as {shape}") from exc
    na, a_shape = a._node, a.data.shape

    def bw(g):
        na._accumulate(g.reshape(a_shape))

    return Tensor(out_val, (na,), bw, "reshape")


def transpose(a, axes) -> Tensor:
    a = _lift(a)
    axes = _axis_indices(axes, a.ndim, "transpose")
    if len(axes) != a.ndim:
        raise ShapeError(f"transpose: axes {axes} do not permute a {a.ndim}-D operand")
    inverse = tuple(np.argsort(axes))
    na = a._node

    def bw(g):
        na._accumulate(g.transpose(inverse))

    return Tensor(a.data.transpose(axes), (na,), bw, "transpose")


def cross_entropy(logits, labels) -> Tensor:
    """Mean negative log-likelihood of integer labels under softmax(logits).

    ``logits`` is (K,) or (B, K); ``labels`` an int or a length-B sequence.
    """
    logits = _lift(logits)
    if logits.ndim == 1:
        z = logits.data[None, :]
    elif logits.ndim == 2:
        z = logits.data
    else:
        raise ShapeError(f"cross_entropy: logits must be 1-D or 2-D, got {logits.data.shape}")
    y = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    n, k = z.shape
    if y.shape != (n,):
        raise ShapeError(f"cross_entropy: got {y.shape[0] if y.ndim else 1} labels for {n} rows")
    if y.min() < 0 or y.max() >= k:
        raise ShapeError(f"cross_entropy: label out of range for {k} classes")
    shifted = z - z.max(axis=1, keepdims=True)
    logsum = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - logsum
    loss = -log_probs[np.arange(n), y].mean()
    nl, logits_shape = logits._node, logits.data.shape

    def bw(g):
        dz = np.exp(log_probs)
        dz[np.arange(n), y] -= 1.0
        dz *= float(g) / n
        nl._accumulate(dz.reshape(logits_shape))

    return Tensor(loss, (nl,), bw, "cross_entropy")


def zero_grads(params: Iterable[Parameter]) -> None:
    for p in params:
        p.grad = np.zeros_like(p.data)


# ---------------------------------------------------------------------------
# Gradient oracle
# ---------------------------------------------------------------------------

def _scalar(value) -> float:
    if isinstance(value, Tensor):
        return float(value.data)
    return float(value)


def finite_difference_grad(f: Callable[[], "Tensor | float"], param: Tensor, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function w.r.t. one tensor.

    ``f`` must be pure and deterministic; it is re-evaluated twice per
    coordinate of ``param``.
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    grad = np.zeros_like(param.data)
    flat_p = param.data.ravel()
    flat_g = grad.ravel()
    for i in range(flat_p.size):
        saved = flat_p[i]
        flat_p[i] = saved + h
        f_plus = _scalar(f())
        flat_p[i] = saved - h
        f_minus = _scalar(f())
        flat_p[i] = saved
        flat_g[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Max absolute difference scaled by the largest gradient magnitude.

    The floor on the scale absorbs central-difference roundoff (~1e-11 at
    h=1e-5) for parameters whose true gradient is zero.
    """
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-6)
    return float(np.abs(a - b).max(initial=0.0) / scale)


def grad_check(f: Callable[[], Tensor], params: Sequence[Parameter], h: float = 1e-5) -> dict[str, float]:
    """Compare reverse-mode gradients of ``f`` against central differences.

    Returns the relative error per parameter name.
    """
    params = list(params)
    zero_grads(params)
    out = f()
    out.backward()
    analytic = {p.name: p.grad.copy() for p in params}
    errors = {}
    for p in params:
        numeric = finite_difference_grad(f, p, h)
        errors[p.name] = relative_error(analytic[p.name], numeric)
    return errors


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

_CHECKPOINT_FORMAT = "flat-f8-le"


def save_checkpoint(params: Iterable[Parameter], path, config: dict | None = None) -> None:
    """Write parameters as a one-line JSON header plus raw little-endian
    float64 blocks. Offsets are in elements from the start of the data
    section. ``config``, a JSON-ready dict describing the model, is kept in
    the header for ``load_checkpoint`` to check."""
    params = list(params)
    names = [p.name for p in params]
    if len(set(names)) != len(names):
        raise ValueError("parameter names must be unique for checkpointing")
    entries = []
    offset = 0
    for p in params:
        entries.append({"name": p.name, "shape": list(p.data.shape), "offset": offset})
        offset += int(p.data.size)
    doc = {"format": _CHECKPOINT_FORMAT, "params": entries}
    if config is not None:
        doc["config"] = config
    with open(path, "wb") as handle:
        handle.write(json.dumps(doc).encode("utf-8") + b"\n")
        for p in params:
            handle.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())


def load_checkpoint(path, config: dict | None = None) -> dict[str, np.ndarray]:
    """Read a checkpoint's arrays by parameter name. The arrays are
    read-only views into one buffer holding the data section; copy one
    before writing to it (``assign_checkpoint`` does). With ``config``, each
    of its keys must hold the same value in the header's config, or a
    ValueError names the first key that differs."""
    with open(path, "rb") as handle:
        raw = handle.read()
    nl = raw.find(b"\n")
    if nl < 0:
        raise ValueError(f"checkpoint {path} has no header line")
    header = json.loads(raw[:nl].decode("utf-8"))
    if not isinstance(header, dict) or header.get("format") != _CHECKPOINT_FORMAT:
        raise ValueError(f"unrecognized checkpoint format in {path}")
    if config is not None:
        saved = header.get("config")
        if not isinstance(saved, dict):
            raise ValueError(f"checkpoint {path} records no model config")
        for key, value in config.items():
            if saved.get(key) != value:
                raise ValueError(f"model config differs in {key}: checkpoint {path} has "
                                 f"{saved.get(key)!r}, the model has {value!r}")
    entries = header.get("params")
    if not isinstance(entries, list):
        raise ValueError(f"checkpoint {path}: params must be a list, got {entries!r}")
    total = 0  # the running offset save_checkpoint writes
    for entry in entries:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and all(type(d) is int and d >= 0 for d in entry["shape"])):
            raise ValueError(f"checkpoint {path}: malformed params entry {entry!r}")
        if type(entry.get("offset")) is not int or entry["offset"] != total:
            raise ValueError(f"checkpoint {path}: {entry['name']!r} has offset "
                             f"{entry.get('offset')!r}, expected {total}")
        total += math.prod(entry["shape"])
    if len({entry["name"] for entry in entries}) != len(entries):
        raise ValueError(f"checkpoint {path} lists a parameter name twice")
    size = len(raw) - nl - 1
    if size != 8 * total:
        problem = "is truncated" if size < 8 * total else "has trailing bytes"
        raise ValueError(f"checkpoint {path} {problem}: header lists {total} values, "
                         f"the data section holds {size} bytes")
    # a view past the header, not a slice: slicing bytes would copy the data section
    data = np.frombuffer(raw, dtype="<f8", offset=nl + 1)
    out = {}
    for entry in entries:
        shape = tuple(entry["shape"])
        start = entry["offset"]
        out[entry["name"]] = data[start:start + math.prod(shape)].reshape(shape)
    return out


def assign_checkpoint(params: Iterable[Parameter], state: dict[str, np.ndarray]) -> None:
    """Copy checkpoint arrays into matching parameters, verifying shapes;
    each parameter gets its own writable float64 array."""
    for p in params:
        if p.name not in state:
            raise KeyError(f"checkpoint is missing parameter {p.name!r}")
        value = state[p.name]
        if value.shape != p.data.shape:
            raise ValueError(f"checkpoint shape {value.shape} does not match {p.name!r} {p.data.shape}")
        p.data = np.array(value, dtype=np.float64)
