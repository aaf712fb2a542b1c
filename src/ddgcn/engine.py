"""Minimal dense-array numerics with reverse-mode differentiation.

Every value is a float64 NumPy array wrapped in a :class:`Tensor`. An op
whose operands need a gradient gives its output a graph node holding the
gradient, a backward closure and the parent nodes, but no array; each
closure keeps only the arrays its formula reads, so an activation that no
backward reads is freed once the layer code drops it. A :class:`Parameter`
has a leaf node with no closure, which holds its gradient. Nodes are
numbered as they are made, so an op's node always comes after its
parents'; ``backward()`` on a scalar output runs the closures from the
highest number down and accumulates gradients additively into the
Parameter leaves, releasing each node's gradient, closure and parents as
it passes, so a graph is single-use. Every node's gradient, a leaf's
included, is ``None`` until its first write, so a model that never runs
a backward holds only its weights. On its first write a node keeps any
writeable array it is handed as its gradient, whatever its strides, and
copies only a read-only view. So a closure hands every array, and every
part of one buffer, to one node only, always in that node's shape, and
computes in place in the gradient it is given. Inside :func:`no_tape` ops
record no graph at all. All primitives raise :class:`ShapeError` on
operand mismatch. Every arithmetic primitive raises :class:`NumericError`
if it produces a non-finite value, and proves most outputs finite without
scanning them: each Tensor has ``bound``, a Python float bounding
``max|data|`` up to rounding, that each op computes from its operands'
(``a + b`` for ``add``, ``K * a * b`` plus the bias's for ``matmul``; each
op's line says how). An output bounded by ``_LIMIT`` = 2^1000 is finite,
the 2^24 margin under float64's 2^1024 absorbing every rounding term; any
other, a NaN bound's included, is scanned by :func:`_finite`, whose exact
magnitude becomes its bound. So a plain Tensor's ``data`` is not written
after it is made; a Parameter's is re-read on every use, its bound taken
with NaN-propagating max/min, so a non-finite value written into it raises
at the first arithmetic op that reads it. A Parameter's array is fixed for
its life: the constructor copies any value that is not an owned,
writeable, C-contiguous, native float64 array, ``p.data = x`` copies into
it (another shape is a :class:`ShapeError`), and restores and Adam write in
place; only :func:`flatten_parameters` replaces it, by a view of the same
values in one flat buffer. The view and selection ops
(``reshape``, ``transpose``, ``take``, ``gather``) pass their operand's
bound on and never scan. ``softmax``'s bound is 1 (see its docstring).

A bias rides inside the op it follows: ``softmax(scores, bias)`` adds an
attention bias in the buffer it normalizes, and ``matmul(x, w, bias)`` adds
a projection bias into the GEMM output, so neither needs an ``add`` and its
activation-sized output. ``softmax`` and ``layer_norm`` work in one buffer
and take their row sums with ``einsum``, without a product temporary.

Every op allocates fresh activation-sized arrays, and a step frees most of
them again. Under glibc, importing this module sets the allocator to keep
that memory in the process (see ``_keep_freed_memory``): arrays up to
32 MiB come from the heap, and the heap top is not handed back to the
kernel, so the next op reuses the pages instead of faulting them in anew.
Arrays above 32 MiB are still mapped and unmapped one by one. No value
changes.

A central finite-difference oracle (:func:`finite_difference_grad`) is
provided for checking the recorded adjoints.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import itertools
import json
import math
import os
import sys
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NumericError, ShapeError

__all__ = [
    "Tensor", "Parameter", "no_tape", "add", "sub", "mul", "neg", "scalar_mul",
    "matmul", "tanh", "relu", "softmax", "layer_norm",
    "mean_pool", "temporal_conv", "gather", "take", "reshape", "transpose",
    "cross_entropy", "zero_grads", "flatten_parameters", "finite_difference_grad", "relative_error",
    "grad_check", "save_checkpoint", "load_checkpoint", "assign_checkpoint",
]


def _keep_freed_memory() -> bool:
    """Under glibc, keep freed memory in the process for the next op.

    Sets ``M_MMAP_THRESHOLD`` to 32 MiB (glibc's largest on 64-bit), so
    arrays below it come from the heap instead of fresh mappings, and
    ``M_TRIM_THRESHOLD`` to the largest value ``mallopt`` takes, so freeing
    a step's activations does not hand the heap top back to the kernel for
    the next op to fault in again. Setting either one turns off glibc's
    dynamic thresholds, and either one alone faults more than the default,
    so the trim threshold is set only once the mmap threshold took.
    Returns whether both took; on another C library it does nothing.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")  # glibc's soname
    except OSError:
        return False
    mallopt = libc.mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3  # from glibc's <malloc.h>
    return mallopt(m_mmap_threshold, 32 << 20) == 1 and mallopt(m_trim_threshold, 2**31 - 1) == 1


_keep_freed_memory()

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


_sequence = itertools.count()


class _Node:
    """The graph side of a taped op output or a Parameter: gradient,
    backward closure, parent nodes and creation number, and no array. A
    Parameter's leaf has no closure and no parents."""

    __slots__ = ("grad", "_parents", "_backward", "_seq")
    requires_grad = True

    def __init__(self, parents, backward):
        self.grad, self._parents, self._backward = None, parents, backward
        self._seq = next(_sequence)

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


# ops whose output views or copies entries of their operand: they keep its
# bound, a NaN one included, and leave a non-finite entry to the next op
_VIEWS = frozenset(("reshape", "transpose", "take", "gather"))
_LIMIT = 2.0 ** 1000  # an output bounded by this is finite


def _magnitude(arr: np.ndarray) -> float:
    """``max|arr|`` (0 when empty) as a Python float; NaN if any entry is."""
    return float(max(np.maximum.reduce(arr, axis=None, initial=0.0),
                     -np.minimum.reduce(arr, axis=None, initial=0.0)))


def _finite(arr: np.ndarray, op: str) -> float:
    """Scan ``arr``: its magnitude, or :class:`NumericError` if not finite."""
    bound = _magnitude(arr)
    if not bound < math.inf:  # also for a NaN
        raise NumericError(f"non-finite values produced by {op}")
    return bound


class Tensor:
    """A float64 array, an upper bound on its magnitude (see the module
    docstring) and, when it needs a gradient, its graph node.

    ``requires_grad`` is True for a :class:`Parameter` and for an op output
    with such an operand; only those get a node of their own, and ``grad``,
    ``_parents`` and ``_backward`` read through to ``_node``.
    """

    __slots__ = ("data", "bound", "_node")

    def __init__(self, data, _parents=(), _backward=None, _op="tensor", _bound=math.inf):
        self.data = np.asarray(data, dtype=np.float64)  # an op on 0-d arrays returns a scalar
        self.bound = _bound if _bound <= _LIMIT or _op in _VIEWS else _finite(self.data, _op)
        parents = tuple(p for p in _parents if p.requires_grad) if _taping.get() else ()
        self._node = _Node(parents, _backward) if parents else _CONSTANT

    requires_grad = property(lambda self: self._node.requires_grad)
    grad = property(lambda self: self._node.grad, lambda self, g: setattr(self._node, "grad", g))
    _parents = property(lambda self: self._node._parents)
    _backward = property(lambda self: self._node._backward,
                         lambda self, fn: setattr(self._node, "_backward", fn))

    shape = property(lambda self: self.data.shape)
    ndim = property(lambda self: self.data.ndim)
    # an ndarray on the left of an operator defers to the reflected method
    # below instead of broadcasting over the Tensor as an object
    __array_ufunc__ = None

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar output.

        A walk that runs no closure first collects the reachable nodes, and
        refuses a graph through a node an earlier backward released before
        any gradient moves. The nodes then run from the highest creation
        number down, so every consumer of a node has run before it. Each
        node's gradient, closure and parents are released as soon as its
        closure has run, so a graph can be differentiated once.
        """
        if self.data.size != 1:
            raise ShapeError("backward requires a scalar output")
        root = self._node
        if not root.requires_grad:
            raise RuntimeError("backward: the output depends on no Parameter, "
                               "or was computed inside no_tape()")
        reached, stack = {root._seq: root}, [root]
        while stack:
            node = stack.pop()
            if node._backward is _spent:
                _spent(None)
            for parent in node._parents:
                if parent._seq not in reached:
                    reached[parent._seq] = parent
                    stack.append(parent)
        root._accumulate(np.ones_like(self.data))
        for seq in sorted(reached, reverse=True):
            node = reached.pop(seq)
            if node._backward is None:  # a Parameter's leaf
                continue
            node._backward(node.grad)
            node.grad, node._backward, node._parents = None, _spent, ()

    def item(self) -> float:
        return self.data.item()

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

    def __rmatmul__(self, other):
        return matmul(other, self)


class Parameter(Tensor):
    """A named trainable tensor whose leaf node, a node with no closure,
    accumulates its gradient into ``grad``.

    ``grad`` is ``None`` until a ``backward()`` reaches the parameter, which
    then keeps the array it is handed, or until :func:`zero_grads` gives it
    zeros; later backwards add into that array in place.

    Its array is fixed for its life (see the module docstring): ``p.data =
    x`` copies ``x`` into it, and only :func:`flatten_parameters` replaces it.
    """

    __slots__ = ("name", "_array")

    def __init__(self, value, name: str):
        # no Tensor.__init__: a leaf node even inside no_tape()
        array = np.asarray(value, dtype=np.float64)  # another dtype or byte order is copied
        flags = array.flags
        self._array = array if flags.owndata and flags.writeable and flags.c_contiguous else array.copy()
        _finite(self._array, "tensor")
        self.name = name
        self._node = _Node((), None)

    def _assign(self, value) -> None:
        if np.shape(value) != self._array.shape:
            raise ShapeError(f"parameter {self.name!r} has shape {self._array.shape}, got {np.shape(value)}")
        self._array[...] = value

    data = property(lambda self: self._array, _assign)
    # data may be written in place, so the bound is re-read on every use
    bound = property(lambda self: _magnitude(self._array))


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


def _index(index, op: str) -> np.ndarray:
    """``index`` as int64; a non-empty index of another dtype is refused, not cast."""
    idx = np.asarray(index)
    if idx.size and idx.dtype.kind not in "iu":
        raise ShapeError(f"{op}: index must hold integers, got dtype {idx.dtype}")
    return idx.astype(np.int64, copy=False)


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

    return Tensor(a.data + b.data, (na, nb), bw, "add", a.bound + b.bound)


def sub(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    _binary_shapes(a, b, "sub")
    na, nb, a_shape, b_shape = a._node, b._node, a.data.shape, b.data.shape

    def bw(g):
        na._accumulate(_unbroadcast(g, a_shape))
        nb._accumulate(_unbroadcast(-g, b_shape))

    return Tensor(a.data - b.data, (na, nb), bw, "sub", a.bound + b.bound)


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

    return Tensor(a.data * b.data, (na, nb), bw, "mul", a.bound * b.bound)


def neg(a) -> Tensor:
    a = _lift(a)
    na = a._node

    def bw(g):
        na._accumulate(np.negative(g, out=g))

    return Tensor(-a.data, (na,), bw, "neg", a.bound)


def scalar_mul(a, c: float) -> Tensor:
    a = _lift(a)
    c = float(c)
    na = a._node

    def bw(g):
        na._accumulate(np.multiply(g, c, out=g))

    return Tensor(c * a.data, (na,), bw, "scalar_mul", abs(c) * a.bound)


def matmul(a, b, bias=None) -> Tensor:
    """Matrix product with NumPy broadcasting over leading axes.

    A 2-D ``b`` (a weight) folds the leading axes of ``a`` into one
    (N, C_in) matrix, so each direction is a single GEMM and the weight
    gradient is formed without a per-leading-index stack of products. Only
    then may a (C_out,) ``bias`` be given: it is added in place into the
    GEMM output, and its gradient is the column sum of the output gradient.
    """
    a, b = _lift(a), _lift(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-D, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions differ for {a.data.shape} and {b.data.shape}")
    if a.data.shape[-1] == 0:
        raise ShapeError(f"matmul: needs a non-empty inner axis, got {a.data.shape} and {b.data.shape}")
    na, nb, a_shape, b_shape = a._node, b._node, a.data.shape, b.data.shape
    # each operand's data only for the other operand's gradient
    a_data = a.data if nb.requires_grad else None
    b_data = b.data if na.requires_grad else None
    bound = a_shape[-1] * a.bound * b.bound  # each entry sums K products

    if bias is not None:
        bias = _lift(bias)
        if b.ndim != 2 or bias.data.shape != b_shape[-1:]:
            raise ShapeError(f"matmul: a bias needs a 2-D right operand and shape ({b_shape[-1]},), "
                             f"got bias {bias.data.shape} with right operand {b_shape}")
    if b.ndim == 2:
        c_in, c_out = b_shape
        out_shape = a_shape[:-1] + (c_out,)
        nbias = _CONSTANT if bias is None else bias._node

        # bw rebuilds the (N, C_in) view from a's data, so the closure keeps no extra copy
        def bw_folded(g):
            g2 = g.reshape(-1, c_out)
            if nbias.requires_grad:
                nbias._accumulate(g2.sum(axis=0))
            if na.requires_grad:
                na._accumulate((g2 @ b_data.T).reshape(a_shape))
            if nb.requires_grad:
                nb._accumulate(a_data.reshape(-1, c_in).T @ g2)

        out_val = a.data.reshape(-1, c_in) @ b.data
        if bias is not None:
            out_val += bias.data
            bound += bias.bound
        return Tensor(out_val.reshape(out_shape), (na, nb, nbias), bw_folded, "matmul", bound)

    def bw(g):
        if na.requires_grad:
            na._accumulate(_unbroadcast(np.matmul(g, np.swapaxes(b_data, -1, -2)), a_shape))
        if nb.requires_grad:
            nb._accumulate(_unbroadcast(np.matmul(np.swapaxes(a_data, -1, -2), g), b_shape))

    return Tensor(np.matmul(a.data, b.data), (na, nb), bw, "matmul", bound)


def tanh(a) -> Tensor:
    a = _lift(a)
    na, out_val = a._node, np.tanh(a.data)

    def bw(g):
        na._accumulate(np.multiply(g, 1.0 - out_val * out_val, out=g))

    # |tanh(x)| <= min(|x|, 1); min keeps a NaN first argument, so a NaN operand is scanned
    return Tensor(out_val, (na,), bw, "tanh", min(a.bound, 1.0))


def relu(a) -> Tensor:
    a = _lift(a)
    na, out_val = a._node, np.maximum(a.data, 0.0)

    # out > 0 exactly where a > 0, so the input can go
    def bw(g):
        na._accumulate(np.multiply(g, out_val > 0.0, out=g))

    return Tensor(out_val, (na,), bw, "relu", a.bound)


def _last_axis(t: Tensor, op: str) -> int:
    """The length of ``t``'s last axis, which a row reduction needs non-empty."""
    if t.ndim == 0 or t.data.shape[-1] == 0:
        raise ShapeError(f"{op}: needs a non-empty last axis, got shape {t.data.shape}")
    return t.data.shape[-1]


# the smallest row sum softmax divides by without the row-max shift: every
# subnormal term of such a row is below eps times the sum
_SOFTMAX_MIN_SUM = np.finfo(np.float64).tiny / np.finfo(np.float64).eps


def _rows(s: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
    """Sums over the last axis of ``s``, or of ``s * t`` without forming the
    product, kept as a length-1 axis."""
    total = np.einsum("...i->...", s) if t is None else np.einsum("...i,...i->...", s, t)
    return total[..., None]


def softmax(a, bias=None) -> Tensor:
    """Softmax over the last axis of ``a + bias``.

    ``bias`` (an attention bias; absent, the constant 0) must broadcast onto
    ``a`` without enlarging it. The sum, the exponential and the
    normalization all run in one buffer, which is the output and the only
    array backward reads; the bias gradient is reduced the way ``add``
    reduces it.

    The scores are exponentiated without a shift, and each row is divided
    by its sum if every row sum lies in ``[_SOFTMAX_MIN_SUM, inf)``. If any
    falls outside that range (an overflow, a row of subnormals or a NaN),
    the whole call runs again in the same buffer shifted by the row max,
    whose exponential is 1, and its row sums are scanned, so a non-finite
    operand raises :class:`NumericError`. The output's bound is 1: a finite
    sum of non-negative terms bounds each of them, so every entry is finite
    and in [0, 1].
    """
    a, bias = _lift(a), Tensor(np.zeros(()), _bound=0.0) if bias is None else _lift(bias)
    _last_axis(a, "softmax")
    if _binary_shapes(a, bias, "softmax") != a.data.shape:
        raise ShapeError(f"softmax: bias {bias.data.shape} does not broadcast onto {a.data.shape}")
    na, nbias, bias_shape = a._node, bias._node, bias.data.shape
    s = a.data + bias.data
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    total = _rows(s)
    if not (_SOFTMAX_MIN_SUM <= total.min() and total.max() < np.inf):  # also for a NaN
        np.add(a.data, bias.data, out=s)
        s -= s.max(axis=-1, keepdims=True)
        np.exp(s, out=s)
        total = _rows(s)
        _finite(total, "softmax")
    s /= total

    def bw(g):
        g -= _rows(g, s)
        g *= s
        na._accumulate(g)
        if nbias.requires_grad:
            gb = _unbroadcast(g, bias_shape)
            # a may have kept g: the bias gets a read-only view and copies it if it would keep it
            nbias._accumulate(np.broadcast_to(gb, bias_shape) if na.requires_grad else gb)

    return Tensor(s, (na, nbias), bw, "softmax", 1.0)


def layer_norm(x, gamma=None, beta=None, eps: float = 1e-8) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then apply the
    per-channel affine map gamma * xhat + beta; an absent ``gamma`` is the
    constant 1 and an absent ``beta`` the constant 0.

    Centering and scaling run in one buffer, the normalized ``xhat`` that
    backward reads; the affine map adds beta in place into gamma * xhat.
    Backward computes the input gradient in place in the output gradient.

    If the input's bound lets a sum of squares (at most 4·d·x²) pass
    ``_LIMIT``, each row is first scaled below 1 by a power of two, which is
    exact, and eps by its square, floored at the smallest normal float.
    """
    x = _lift(x)
    d = _last_axis(x, "layer_norm")
    gamma = Tensor(np.ones(d), _bound=1.0) if gamma is None else _lift(gamma)
    beta = Tensor(np.zeros(d), _bound=0.0) if beta is None else _lift(beta)
    for name, t in (("gamma", gamma), ("beta", beta)):
        if t.data.shape != (d,):
            raise ShapeError(f"layer_norm: {name} shape {t.data.shape} does not match channels {d}")
    in_range = 4 * d * x.bound * x.bound <= _LIMIT
    x_data, scale, row_eps = x.data, 1.0, eps
    if not in_range:
        scale = np.ldexp(1.0, -np.maximum(np.frexp(np.abs(x.data).max(axis=-1, keepdims=True))[1], 0))
        x_data, row_eps = x.data * scale, np.maximum(eps * scale * scale, np.finfo(np.float64).tiny)
    xhat = x_data - _rows(x_data) / d
    inv = 1.0 / np.sqrt(_rows(xhat, xhat) / d + row_eps)
    xhat *= inv
    inv *= scale  # d xhat / dx of the unscaled input
    out_val = xhat * gamma.data
    out_val += beta.data
    nx, ngamma, nbeta, gamma_data = x._node, gamma._node, beta._node, gamma.data

    def bw(g):
        g2 = g.reshape(-1, d)
        if ngamma.requires_grad:
            ngamma._accumulate(np.einsum("ni,ni->i", g2, xhat.reshape(-1, d)))
        if nbeta.requires_grad:
            nbeta._accumulate(np.einsum("ni->i", g2))
        if nx.requires_grad:
            g *= gamma_data
            mean, mean_xhat = _rows(g) / d, _rows(g, xhat) / d
            g -= mean
            g -= xhat * mean_xhat
            g *= inv
            nx._accumulate(g)

    # |xhat| <= sqrt(d) while eps > 0; a scaled row is scanned, as its input may not be finite
    bound = math.sqrt(d) * gamma.bound + beta.bound if eps > 0 and in_range else math.inf
    return Tensor(out_val, (nx, ngamma, nbeta), bw, "layer_norm", bound)


def mean_pool(a, axis) -> Tensor:
    """Mean over one axis or a tuple of axes (dimensions are dropped)."""
    a = _lift(a)
    axes = _axis_indices((axis,) if isinstance(axis, (int, np.integer)) else axis, a.ndim, "mean_pool")
    count = math.prod(a.data.shape[ax] for ax in axes)
    if count == 0:
        raise ShapeError(f"mean_pool: axes {axes} of {a.data.shape} hold no entries to average")
    na, a_shape = a._node, a.data.shape

    # the view is read-only, so the first write copies it and += broadcasts it
    def bw(g):
        gg = np.expand_dims(g, tuple(sorted(axes)))
        na._accumulate(np.broadcast_to(gg / count, a_shape))

    bound = a.bound if count * a.bound <= _LIMIT else math.inf  # while the sum stays finite
    return Tensor(a.data.mean(axis=axes), (na,), bw, "mean_pool", bound)


def temporal_conv(x, weight, groups: int, stride: int = 1) -> Tensor:
    """Grouped convolution with a (kernel x 1) window along the time axis.

    ``x`` is (B, T, V, C_in); ``weight`` is (C_out, C_in // groups, kernel).
    Channels are split into ``groups`` equal blocks, each convolved with its
    own kernels. Zero same-padding keeps T unchanged at stride 1; larger
    strides produce ceil(T / stride) output frames.

    The input is copied once into a zero-padded, time-major buffer
    (groups, T + pad, B, V, C_in/groups). Kernel tap k reads its frames
    ``k, k + stride, ...`` as (groups, T_out·B·V, C_in/groups) rows, a view
    at stride 1 and one copy at larger strides, so the output is a sum of
    ``kernel`` matrix products batched over the groups, and no im2col column
    matrix is formed. The backward makes one product per tap for the weight,
    on the padded input rebuilt from ``x``, and adds one per tap into a
    padded input gradient of the same layout.
    """
    x, weight = _lift(x), _lift(weight)
    if x.ndim != 4:
        raise ShapeError(f"temporal_conv: input must be (B, T, V, C), got {x.data.shape}")
    b, t, v, c_in = x.data.shape
    if weight.ndim != 3:
        raise ShapeError(f"temporal_conv: weight must be (C_out, C_in/groups, kernel), got {weight.data.shape}")
    c_out, c_in_g, kernel = weight.data.shape
    if groups < 1:
        raise ShapeError(f"temporal_conv: groups must be >= 1, got {groups}")
    if kernel < 1:
        raise ShapeError(f"temporal_conv: kernel must be >= 1, got weight {weight.data.shape}")
    if c_in % groups != 0 or c_out % groups != 0:
        raise ShapeError(f"temporal_conv: groups={groups} must divide C_in={c_in} and C_out={c_out}")
    if c_in_g != c_in // groups:
        raise ShapeError(f"temporal_conv: weight expects {c_in_g} channels per group, input provides {c_in // groups}")
    if stride < 1:
        raise ShapeError("temporal_conv: stride must be >= 1")
    if t == 0:
        raise ShapeError(f"temporal_conv: needs at least one frame, got input {x.data.shape}")

    t_out = -(-t // stride)
    pad_total = max((t_out - 1) * stride + kernel - t, 0)
    pad_left = pad_total // 2
    span = stride * (t_out - 1) + 1
    c_out_g = c_out // groups
    rows = t_out * b * v
    # tap k's weight for every group, (kernel, groups, C_in/groups, C_out/groups)
    wk = np.ascontiguousarray(weight.data.reshape(groups, c_out_g, c_in_g, kernel).transpose(3, 0, 2, 1))

    def padded(data):
        """(groups, T + pad, B, V, C_in/groups): the zero-padded input, time-major."""
        buf = np.zeros((groups, t + pad_total, b, v, c_in_g))
        buf[:, pad_left:pad_left + t] = data.reshape(b, t, v, groups, c_in_g).transpose(3, 1, 0, 2, 4)
        return buf

    def tap(buf, k):
        """(groups, T_out·B·V, C_in/groups): the frames tap k reads."""
        return buf[:, k:k + span:stride].reshape(groups, rows, c_in_g)

    nx, nw = x._node, weight._node
    x_data = x.data if nw.requires_grad else None
    w_data = wk if nx.requires_grad else None

    # bw rebuilds the padded input from x's data: keeping it would hold one
    # more activation-sized array per layer until backward
    def bw(g):
        go = g.reshape(b, t_out, v, groups, c_out_g).transpose(3, 1, 0, 2, 4).reshape(groups, rows, c_out_g)
        if nw.requires_grad:
            buf = padded(x_data)
            dw = np.empty((kernel, groups, c_in_g, c_out_g))
            for k in range(kernel):
                np.matmul(tap(buf, k).transpose(0, 2, 1), go, out=dw[k])
            del buf  # before the input gradient's buffer, which has its size
            nw._accumulate(dw.transpose(1, 3, 2, 0).reshape(c_out, c_in_g, kernel))
        if nx.requires_grad:
            dbuf = np.zeros((groups, t + pad_total, b, v, c_in_g))
            part = np.empty((groups, rows, c_in_g))
            for k in range(kernel):
                np.matmul(go, w_data[k].transpose(0, 2, 1), out=part)
                dbuf[:, k:k + span:stride] += part.reshape(groups, t_out, b, v, c_in_g)
            del go, part  # before the cropped copy
            nx._accumulate(dbuf[:, pad_left:pad_left + t].transpose(2, 1, 3, 0, 4).reshape(b, t, v, c_in))

    buf = padded(x.data)
    out_val = np.matmul(tap(buf, 0), wk[0])
    part = np.empty_like(out_val)
    for k in range(1, kernel):
        out_val += np.matmul(tap(buf, k), wk[k], out=part)
    del buf, part  # before the output's transpose-copy
    out_val = out_val.reshape(groups, t_out, b, v, c_out_g).transpose(2, 1, 3, 0, 4).reshape(b, t_out, v, c_out)
    bound = kernel * c_in_g * x.bound * weight.bound  # each entry sums kernel * C_in/groups products
    return Tensor(out_val, (nx, nw), bw, "temporal_conv", bound)


def gather(table, index: np.ndarray) -> Tensor:
    """Look up a bias table by an integer index matrix.

    A (L,) table yields ``index.shape``; a (H, L) per-head table yields
    (H,) + ``index.shape``. Gradients scatter-add back into the table, as
    one bincount over head-offset indices: like ``np.add.at``, it sums each
    entry's terms in input order, so the two agree bit for bit.
    """
    table = _lift(table)
    idx = _index(index, "gather")
    if table.ndim not in (1, 2):
        raise ShapeError(f"gather: table must be 1-D or 2-D, got {table.data.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[-1]):
        raise ShapeError("gather: index out of table range")
    out_val = np.take(table.data, idx, axis=-1)
    nt, table_shape = table._node, table.data.shape

    def bw(g):
        heads, length = (1,) + table_shape if len(table_shape) == 1 else table_shape
        bins = (np.arange(heads)[:, None] * length + idx.reshape(1, -1)).ravel()
        nt._accumulate(np.bincount(bins, g.ravel(), heads * length).reshape(table_shape))

    return Tensor(out_val, (nt,), bw, "gather", table.bound)


def take(a, indices: np.ndarray, axis: int = 0) -> Tensor:
    """Select entries along ``axis`` by an integer index vector.

    Repeated indices are allowed; their gradients accumulate into the
    shared source entry, which makes this the building block for padding,
    cropping, strided subsampling and window permutations. An index with
    one positive step (a crop or a subsample) selects a view.
    """
    a = _lift(a)
    idx = _index(indices, "take")
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

    return Tensor(a.data[key] if sliced else np.take(a.data, idx, axis=axis), (na,), bw, "take", a.bound)


def reshape(a, shape) -> Tensor:
    a = _lift(a)
    try:
        out_val = a.data.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"reshape: cannot view {a.data.shape} as {shape}") from exc
    na, a_shape = a._node, a.data.shape

    def bw(g):
        na._accumulate(g.reshape(a_shape))

    return Tensor(out_val, (na,), bw, "reshape", a.bound)


def transpose(a, axes) -> Tensor:
    a = _lift(a)
    axes = _axis_indices(axes, a.ndim, "transpose")
    if len(axes) != a.ndim:
        raise ShapeError(f"transpose: axes {axes} do not permute a {a.ndim}-D operand")
    inverse = tuple(np.argsort(axes))
    na = a._node

    def bw(g):
        na._accumulate(g.transpose(inverse))

    return Tensor(a.data.transpose(axes), (na,), bw, "transpose", a.bound)


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
    y = np.atleast_1d(_index(labels, "cross_entropy"))
    n, k = z.shape
    if n == 0:
        raise ShapeError(f"cross_entropy: needs at least one row, got logits {logits.data.shape}")
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
    """Give each parameter a fresh zero gradient, whether it had one or held
    ``None``; the next ``backward()`` adds into it."""
    for p in params:
        p.grad = np.zeros_like(p.data)


def flatten_parameters(params: Sequence[Parameter]) -> np.ndarray:
    """Move ``params`` into one new flat buffer in the given order (in
    ``parameters()`` order, the checkpoint layout) and return it; each
    Parameter's array becomes the view of its block."""
    flat = np.concatenate([p.data for p in params], axis=None)
    offset = 0
    for p in params:
        p._array = flat[offset:offset + p.data.size].reshape(p.data.shape)
        offset += p.data.size
    return flat


# ---------------------------------------------------------------------------
# Gradient oracle
# ---------------------------------------------------------------------------

def _scalar(value) -> float:
    """A size-1 Tensor or number as a float, whatever its number of axes."""
    return np.asarray(value.data if isinstance(value, Tensor) else value).item()


def finite_difference_grad(f: Callable[[], "Tensor | float"], param: Tensor, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function w.r.t. one tensor.

    ``f`` must be pure and deterministic; it is re-evaluated twice per
    coordinate of ``param``.
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    data = param.data  # perturbed entry by entry in place, whatever its strides
    grad = np.zeros(data.shape)
    for i in np.ndindex(data.shape):
        saved = data[i]
        data[i] = saved + h
        f_plus = _scalar(f())
        data[i] = saved - h
        f_minus = _scalar(f())
        data[i] = saved
        grad[i] = (f_plus - f_minus) / (2.0 * h)
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
            # the array's own buffer when it already is C-contiguous <f8: no bytes copy
            handle.write(np.ascontiguousarray(p.data, dtype="<f8"))


def _read_header(handle, path, config: dict | None) -> list[dict]:
    """Read and check an open checkpoint's header line, and check that the
    data section holds exactly the values it lists. Returns the params
    entries and leaves ``handle`` at the data section."""
    line = handle.readline()
    if not line.endswith(b"\n"):
        raise ValueError(f"checkpoint {path} has no header line")
    header = json.loads(line[:-1].decode("utf-8"))
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
    size = os.fstat(handle.fileno()).st_size - handle.tell()
    if size != 8 * total:
        problem = "is truncated" if size < 8 * total else "has trailing bytes"
        raise ValueError(f"checkpoint {path} {problem}: header lists {total} values, "
                         f"the data section holds {size} bytes")
    return entries


def _check_restore(params: list[Parameter], shapes: dict[str, tuple]) -> None:
    """Raise unless every parameter's name has a checkpoint entry of its
    shape, its array is writeable, and no two parameters hold one array."""
    for p in params:
        if p.name not in shapes:
            raise KeyError(f"checkpoint is missing parameter {p.name!r}")
        if shapes[p.name] != p.data.shape:
            raise ValueError(f"checkpoint shape {shapes[p.name]} does not match {p.name!r} {p.data.shape}")
        if not p.data.flags.writeable:
            raise ValueError(f"cannot restore {p.name!r}: its array is read-only")
    # a Parameter copies every value it does not own, so two share memory only as one array
    if len({id(p.data) for p in params}) < len(params):
        raise ValueError("two parameters hold one array")


def load_checkpoint(path, config: dict | None = None,
                    params: Iterable[Parameter] | None = None) -> dict[str, np.ndarray]:
    """Read a checkpoint's arrays by parameter name. With ``config``, each
    of its keys must hold the same value in the header's config, or a
    ValueError names the first key that differs.

    Without ``params``, the arrays are read-only views into one buffer
    holding the data section; copy one before writing to it
    (``assign_checkpoint`` does). With ``params``, it restores them with no
    buffer in between: every check, ``_check_restore``'s included, runs
    before any parameter is written, then each block is read from the file
    into the parameter's own array. It returns those arrays. Only a file
    that shrinks during the reads can fail after a parameter was written.
    """
    with open(path, "rb") as handle:
        entries = _read_header(handle, path, config)
        if params is None:
            data = np.frombuffer(handle.read(), dtype="<f8")
            return {e["name"]: data[e["offset"]:e["offset"] + math.prod(e["shape"])].reshape(e["shape"])
                    for e in entries}
        params = list(params)
        by_name = {entry["name"]: entry for entry in entries}
        _check_restore(params, {name: tuple(entry["shape"]) for name, entry in by_name.items()})
        start, out = handle.tell(), {}
        for p in params:
            target = out[p.name] = p.data
            handle.seek(start + 8 * by_name[p.name]["offset"])
            if handle.readinto(target) != target.nbytes:
                raise ValueError(f"checkpoint {path} is truncated: the data section ends in {p.name!r}")
            if sys.byteorder == "big":
                target.byteswap(inplace=True)
        return out


def assign_checkpoint(params: Iterable[Parameter], state: dict[str, np.ndarray]) -> None:
    """Copy checkpoint arrays into matching parameters' own arrays. Every
    check of ``_check_restore`` runs before any parameter is written, and
    each state array is copied first, so it may be, or view, a parameter's
    array (a swap works)."""
    params = list(params)
    _check_restore(params, {name: np.shape(value) for name, value in state.items()})
    for p, value in zip(params, [np.array(state[p.name]) for p in params]):
        p.data = value
