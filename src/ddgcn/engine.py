"""Minimal dense-array numerics with reverse-mode differentiation.

Every value is a float64 NumPy array wrapped in a :class:`Tensor`. An op
whose operands need a gradient records its parents and a backward closure;
calling ``backward()`` on a scalar output walks that graph in reverse
topological order and accumulates gradients additively into the
:class:`Parameter` leaves. The graph is single-use: the sweep releases each
node's gradient, closure and parents once they are spent, so afterwards a
held output keeps only its ``data``. Inside :func:`no_tape` ops record no
graph at all. All primitives raise :class:`ShapeError` on operand mismatch
and :class:`NumericError` if they produce a non-finite value.

A central finite-difference oracle (:func:`finite_difference_grad`) is
provided for checking the recorded adjoints.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NumericError, ShapeError

__all__ = [
    "Tensor", "Parameter", "no_tape", "add", "sub", "mul", "neg", "scalar_mul",
    "matmul", "batched_matmul", "tanh", "relu", "softmax", "layer_norm",
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


class Tensor:
    """A float64 array plus the bookkeeping for reverse-mode differentiation.

    ``requires_grad`` is True for a :class:`Parameter` and for an op output
    with such an operand; only those tensors record parents and a closure.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, _parents=(), _backward=None, _op="tensor"):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NumericError(f"non-finite values produced by {_op}")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = _taping.get() and any(p.requires_grad for p in _parents)
        self._parents = _parents if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def _accumulate(self, g: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            # copy g: add passes one array to both operands, reshape and transpose pass views
            self.grad = np.empty_like(self.data)
            np.copyto(self.grad, g)
        else:
            self.grad += g

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar output.

        Each interior node's gradient, closure and parents are released as
        soon as its closure has run, so a graph can be differentiated once.
        """
        if self.data.size != 1:
            raise ShapeError("backward requires a scalar output")
        if not self.requires_grad:
            raise RuntimeError("backward: the output depends on no Parameter, "
                               "or was computed inside no_tape()")
        topo: list[Tensor] = []
        visited = {id(self)}
        stack: list[tuple[Tensor, Iterable[Tensor]]] = [(self, iter(self._parents))]
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
        self._accumulate(np.ones_like(self.data))
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
    """A named trainable tensor; gradients accumulate into ``grad``."""

    __slots__ = ("name",)

    def __init__(self, value, name: str):
        super().__init__(value)
        self.name = name
        self.requires_grad = True
        self.grad = np.zeros_like(self.data)


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


def _binary_shapes(a: Tensor, b: Tensor, op: str) -> tuple[int, ...]:
    try:
        return np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError as exc:
        raise ShapeError(f"{op}: incompatible shapes {a.data.shape} and {b.data.shape}") from exc


def add(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    _binary_shapes(a, b, "add")

    def bw(g):
        a._accumulate(_unbroadcast(g, a.data.shape))
        b._accumulate(_unbroadcast(g, b.data.shape))

    return Tensor(a.data + b.data, (a, b), bw, "add")


def sub(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    _binary_shapes(a, b, "sub")

    def bw(g):
        a._accumulate(_unbroadcast(g, a.data.shape))
        b._accumulate(_unbroadcast(-g, b.data.shape))

    return Tensor(a.data - b.data, (a, b), bw, "sub")


def mul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    _binary_shapes(a, b, "mul")

    def bw(g):
        a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return Tensor(a.data * b.data, (a, b), bw, "mul")


def neg(a) -> Tensor:
    a = _lift(a)

    def bw(g):
        a._accumulate(-g)

    return Tensor(-a.data, (a,), bw, "neg")


def scalar_mul(a, c: float) -> Tensor:
    a = _lift(a)
    c = float(c)

    def bw(g):
        a._accumulate(c * g)

    return Tensor(c * a.data, (a,), bw, "scalar_mul")


def matmul(a, b) -> Tensor:
    """Matrix product with NumPy broadcasting over leading axes."""
    a, b = _lift(a), _lift(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-D, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions differ for {a.data.shape} and {b.data.shape}")

    def bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.data.shape))

    return Tensor(np.matmul(a.data, b.data), (a, b), bw, "matmul")


def batched_matmul(a, b) -> Tensor:
    """Stacked matrix products; same semantics as :func:`matmul`."""
    return matmul(a, b)


def tanh(a) -> Tensor:
    a = _lift(a)
    out_val = np.tanh(a.data)

    def bw(g):
        a._accumulate(g * (1.0 - out_val * out_val))

    return Tensor(out_val, (a,), bw, "tanh")


def relu(a) -> Tensor:
    a = _lift(a)

    def bw(g):
        a._accumulate(g * (a.data > 0.0))

    return Tensor(np.maximum(a.data, 0.0), (a,), bw, "relu")


def softmax(a) -> Tensor:
    """Softmax over the last axis, numerically stabilized."""
    a = _lift(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        inner = (g * s).sum(axis=-1, keepdims=True)
        a._accumulate((g - inner) * s)

    return Tensor(s, (a,), bw, "softmax")


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
    parents = (x,) + tuple(p for p in (gamma, beta) if p is not None)
    reduce_axes = tuple(range(x.data.ndim - 1))

    def bw(g):
        gh = g if gamma is None else g * gamma.data
        dx = inv * (gh - gh.mean(axis=-1, keepdims=True)
                    - xhat * (gh * xhat).mean(axis=-1, keepdims=True))
        x._accumulate(dx)
        if gamma is not None:
            gamma._accumulate((g * xhat).sum(axis=reduce_axes))
        if beta is not None:
            beta._accumulate(g.sum(axis=reduce_axes))

    return Tensor(out_val, parents, bw, "layer_norm")


def mean_pool(a, axis) -> Tensor:
    """Mean over one axis or a tuple of axes (dimensions are dropped)."""
    a = _lift(a)
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    axes = tuple(ax % a.ndim for ax in axes)
    count = 1
    for ax in axes:
        count *= a.data.shape[ax]

    def bw(g):
        gg = np.expand_dims(g, tuple(sorted(axes)))
        a._accumulate(np.broadcast_to(gg / count, a.data.shape).copy())

    return Tensor(a.data.mean(axis=axes), (a,), bw, "mean_pool")


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

    padded = np.zeros((b, t + pad_total, v, c_in), dtype=np.float64)
    padded[:, pad_left:pad_left + t] = x.data
    xg = padded.reshape(b, t + pad_total, v, groups, c_in_g)
    wg = weight.data.reshape(groups, c_out_g, c_in_g, kernel)

    out_val = np.zeros((b, t_out, v, groups, c_out_g), dtype=np.float64)
    for k in range(kernel):
        taps = xg[:, k:k + stride * (t_out - 1) + 1:stride]
        out_val += np.einsum("btvgi,goi->btvgo", taps, wg[..., k])

    def bw(g):
        go = g.reshape(b, t_out, v, groups, c_out_g)
        dxg = np.zeros_like(xg)
        dwg = np.zeros_like(wg)
        for k in range(kernel):
            sl = slice(k, k + stride * (t_out - 1) + 1, stride)
            dwg[..., k] += np.einsum("btvgo,btvgi->goi", go, xg[:, sl])
            dxg[:, sl] += np.einsum("btvgo,goi->btvgi", go, wg[..., k])
        dx = dxg.reshape(b, t + pad_total, v, c_in)[:, pad_left:pad_left + t]
        x._accumulate(dx)
        weight._accumulate(dwg.reshape(c_out, c_in_g, kernel))

    return Tensor(out_val.reshape(b, t_out, v, c_out), (x, weight), bw, "temporal_conv")


def gather(table, index: np.ndarray) -> Tensor:
    """Look up a bias table by an integer index matrix.

    A (L,) table yields ``index.shape``; a (H, L) per-head table yields
    (H,) + ``index.shape``. Gradients scatter-add back into the table.
    """
    table = _lift(table)
    idx = np.asarray(index, dtype=np.int64)
    if table.ndim == 1:
        out_val = table.data[idx]
    elif table.ndim == 2:
        out_val = table.data[:, idx]
    else:
        raise ShapeError(f"gather: table must be 1-D or 2-D, got {table.data.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[-1]):
        raise ShapeError("gather: index out of table range")

    def bw(g):
        dt = np.zeros_like(table.data)
        if table.ndim == 1:
            np.add.at(dt, idx, g)
        else:
            for h in range(table.data.shape[0]):
                np.add.at(dt[h], idx, g[h])
        table._accumulate(dt)

    return Tensor(out_val, (table,), bw, "gather")


def take(a, indices: np.ndarray, axis: int = 0) -> Tensor:
    """Select entries along ``axis`` by an integer index vector.

    Repeated indices are allowed; their gradients accumulate into the
    shared source entry, which makes this the building block for padding,
    cropping, strided subsampling and window permutations.
    """
    a = _lift(a)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("take: indices must be 1-D")
    axis = axis % a.ndim
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[axis]):
        raise ShapeError(f"take: index out of range for axis {axis} with size {a.data.shape[axis]}")

    def bw(g):
        da = np.zeros_like(a.data)
        np.add.at(da, (slice(None),) * axis + (idx,), g)
        a._accumulate(da)

    return Tensor(np.take(a.data, idx, axis=axis), (a,), bw, "take")


def reshape(a, shape) -> Tensor:
    a = _lift(a)
    try:
        out_val = a.data.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"reshape: cannot view {a.data.shape} as {shape}") from exc

    def bw(g):
        a._accumulate(g.reshape(a.data.shape))

    return Tensor(out_val, (a,), bw, "reshape")


def transpose(a, axes) -> Tensor:
    a = _lift(a)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def bw(g):
        a._accumulate(g.transpose(inverse))

    return Tensor(a.data.transpose(axes), (a,), bw, "transpose")


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

    def bw(g):
        dz = np.exp(log_probs)
        dz[np.arange(n), y] -= 1.0
        dz *= float(g) / n
        logits._accumulate(dz.reshape(logits.data.shape))

    return Tensor(loss, (logits,), bw, "cross_entropy")


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


def save_checkpoint(params: Iterable[Parameter], path) -> None:
    """Write parameters as a one-line JSON header plus raw little-endian
    float64 blocks. Offsets are in elements from the start of the data
    section."""
    params = list(params)
    names = [p.name for p in params]
    if len(set(names)) != len(names):
        raise ValueError("parameter names must be unique for checkpointing")
    entries = []
    offset = 0
    for p in params:
        entries.append({"name": p.name, "shape": list(p.data.shape), "offset": offset})
        offset += int(p.data.size)
    header = json.dumps({"format": _CHECKPOINT_FORMAT, "params": entries})
    with open(path, "wb") as handle:
        handle.write(header.encode("utf-8") + b"\n")
        for p in params:
            handle.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as handle:
        raw = handle.read()
    nl = raw.index(b"\n")
    header = json.loads(raw[:nl].decode("utf-8"))
    if header.get("format") != _CHECKPOINT_FORMAT:
        raise ValueError(f"unrecognized checkpoint format in {path}")
    data = np.frombuffer(raw[nl + 1:], dtype="<f8")
    out = {}
    for entry in header["params"]:
        shape = tuple(entry["shape"])
        size = int(np.prod(shape)) if shape else 1
        start = entry["offset"]
        out[entry["name"]] = data[start:start + size].reshape(shape).astype(np.float64)
    return out


def assign_checkpoint(params: Iterable[Parameter], state: dict[str, np.ndarray]) -> None:
    """Copy checkpoint arrays into matching parameters, verifying shapes."""
    for p in params:
        if p.name not in state:
            raise KeyError(f"checkpoint is missing parameter {p.name!r}")
        value = state[p.name]
        if value.shape != p.data.shape:
            raise ValueError(f"checkpoint shape {value.shape} does not match {p.name!r} {p.data.shape}")
        p.data = value.astype(np.float64).copy()
