"""Reverse-mode automatic differentiation over dense numpy arrays.

Tensors are immutable value wrappers; every primitive application may
record itself on the output tensor so that a Tape (the linearized graph
below a scalar root) can replay vector-Jacobian products in reverse
topological order. A central finite-difference gradcheck serves as the
independent oracle for every primitive.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "ShapeError",
    "apply_primitive",
    "backward",
    "gradcheck",
    "GradcheckReport",
    "no_grad",
    "PRIMITIVES",
]

LAYER_NORM_EPS = 1e-5
L2_NORM_GUARD = 1e-8
ATTN_MASK_VALUE = -1e9

_state = threading.local()


def _grad_enabled() -> bool:
    return getattr(_state, "grad_enabled", True)


class no_grad:
    """Context manager disabling graph recording (inference mode)."""

    def __enter__(self):
        self._prev = _grad_enabled()
        _state.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _state.grad_enabled = self._prev
        return False


class ShapeError(ValueError):
    """Raised when primitive inputs do not conform."""

    def __init__(self, primitive: str, message: str, shapes=None):
        self.primitive = primitive
        self.shapes = shapes
        detail = f"{primitive}: {message}"
        if shapes is not None:
            detail += f" (shapes: {[tuple(s) for s in shapes]})"
        super().__init__(detail)


class Tensor:
    """Dense real array plus the bookkeeping needed for reverse mode."""

    __slots__ = ("data", "requires_grad", "_inputs", "_vjp", "_prim")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self._inputs: tuple[Tensor, ...] = ()
        self._vjp: Callable | None = None
        self._prim = ""

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # convenience operators; all routed through apply_primitive
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        if np.isscalar(other):
            return scale(self, float(other))
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to `shape`, inverting numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# primitive registry: name -> forward(inputs, attrs) -> (out_array, vjp)
# vjp(grad_out) -> tuple of gradients aligned with inputs (None = no grad)
# ---------------------------------------------------------------------------

PRIMITIVES: dict[str, Callable] = {}


def _primitive(name):
    def deco(fn):
        PRIMITIVES[name] = fn
        return fn

    return deco


def apply_primitive(name: str, inputs: Sequence[Tensor], attrs: dict | None = None) -> Tensor:
    """Apply a named primitive; records the application for backward when
    any input requires grad and grad mode is on."""
    if name not in PRIMITIVES:
        raise KeyError(f"unknown primitive {name!r}")
    attrs = attrs or {}
    inputs = tuple(_as_tensor(x) for x in inputs)
    out_data, vjp = PRIMITIVES[name](inputs, attrs)
    needs = _grad_enabled() and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=needs)
    if needs:
        out._inputs = inputs
        out._vjp = vjp
        out._prim = name
    return out


@_primitive("matmul")
def _p_matmul(inputs, attrs):
    a, b = inputs
    if a.ndim < 2 or b.ndim != 2:
        raise ShapeError("matmul", "expects (..., n, k) @ (k, m)", (a.shape, b.shape))
    if a.shape[-1] != b.shape[0]:
        raise ShapeError("matmul", "inner dimensions differ", (a.shape, b.shape))
    ad, bd = a.data, b.data
    out = ad @ bd

    def vjp(g):
        ga = g @ bd.T
        gb = ad.reshape(-1, ad.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        return ga, gb

    return out, vjp


@_primitive("add")
def _p_add(inputs, attrs):
    a, b = inputs
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeError("add", "operands not broadcastable", (a.shape, b.shape))

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return out, vjp


@_primitive("mul")
def _p_mul(inputs, attrs):
    a, b = inputs
    try:
        out = a.data * b.data
    except ValueError:
        raise ShapeError("mul", "operands not broadcastable", (a.shape, b.shape))
    ad, bd = a.data, b.data

    def vjp(g):
        return _unbroadcast(g * bd, a.shape), _unbroadcast(g * ad, b.shape)

    return out, vjp


@_primitive("scale")
def _p_scale(inputs, attrs):
    (a,) = inputs
    c = float(attrs["factor"])
    return a.data * c, lambda g: (g * c,)


@_primitive("relu")
def _p_relu(inputs, attrs):
    (a,) = inputs
    out = np.maximum(a.data, 0.0)
    mask = a.data > 0
    return out, lambda g: (g * mask,)


@_primitive("sigmoid")
def _p_sigmoid(inputs, attrs):
    (a,) = inputs
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out, lambda g: (g * out * (1.0 - out),)


@_primitive("softplus")
def _p_softplus(inputs, attrs):
    (a,) = inputs
    x = a.data
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    sig = 1.0 / (1.0 + np.exp(-np.clip(x, -60, 60)))
    return out, lambda g: (g * sig,)


@_primitive("exp")
def _p_exp(inputs, attrs):
    (a,) = inputs
    out = np.exp(a.data)
    return out, lambda g: (g * out,)


@_primitive("log")
def _p_log(inputs, attrs):
    (a,) = inputs
    ad = a.data
    return np.log(ad), lambda g: (g / ad,)


@_primitive("softmax")
def _p_softmax(inputs, attrs):
    (a,) = inputs
    x = a.data
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    out = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return out, vjp


@_primitive("layer_norm")
def _p_layer_norm(inputs, attrs):
    x, gain, bias = inputs
    eps = float(attrs.get("eps", LAYER_NORM_EPS))
    d = x.shape[-1] if x.ndim else 0
    if d < 2:
        raise ShapeError("layer_norm", "last axis must have length >= 2", (x.shape,))
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError("layer_norm", "gain/bias must match last axis",
                         (x.shape, gain.shape, bias.shape))
    xd = x.data
    mu = xd.mean(axis=-1, keepdims=True)
    var = xd.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (xd - mu) * inv
    out = xhat * gain.data + bias.data
    gd = gain.data

    def vjp(g):
        gx_hat = g * gd
        dmean = gx_hat.mean(axis=-1, keepdims=True)
        dproj = (gx_hat * xhat).mean(axis=-1, keepdims=True)
        gx = inv * (gx_hat - dmean - xhat * dproj)
        ggain = (g * xhat).reshape(-1, d).sum(axis=0)
        gbias = g.reshape(-1, d).sum(axis=0)
        return gx, ggain, gbias

    return out, vjp


@_primitive("l2_normalize")
def _p_l2_normalize(inputs, attrs):
    (x,) = inputs
    xd = x.data
    norm = np.sqrt((xd * xd).sum(axis=-1, keepdims=True))
    dead = norm < L2_NORM_GUARD
    safe = np.where(dead, 1.0, norm)
    out = np.where(dead, 0.0, xd / safe)

    def vjp(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        gx = (g - out * dot) / safe
        return (np.where(dead, 0.0, gx),)

    return out, vjp


@_primitive("gather")
def _p_gather(inputs, attrs):
    (table,) = inputs
    ids = np.asarray(attrs["ids"], dtype=np.int64)
    if table.ndim != 2:
        raise ShapeError("gather", "table must be 2-D", (table.shape,))
    n = table.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise ShapeError("gather", f"index out of range for table with {n} rows", (table.shape,))
    out = table.data[ids]

    def vjp(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.shape[1]))
        return (gt,)

    return out, vjp


@_primitive("sum")
def _p_sum(inputs, attrs):
    (a,) = inputs
    axis = attrs.get("axis")
    out = a.data.sum(axis=axis)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), a.shape).copy(),)

    return out, vjp


@_primitive("mean")
def _p_mean(inputs, attrs):
    (a,) = inputs
    axis = attrs.get("axis")
    out = a.data.mean(axis=axis)
    count = a.data.size if axis is None else a.shape[axis]

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g / count, a.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis) / count, a.shape).copy(),)

    return out, vjp


@_primitive("concat")
def _p_concat(inputs, attrs):
    axis = int(attrs.get("axis", 0))
    out = np.concatenate([t.data for t in inputs], axis=axis)
    sizes = [t.shape[axis] for t in inputs]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return out, vjp


@_primitive("reshape")
def _p_reshape(inputs, attrs):
    (a,) = inputs
    shape = tuple(attrs["shape"])
    return a.data.reshape(shape), lambda g: (g.reshape(a.shape),)


@_primitive("transpose")
def _p_transpose(inputs, attrs):
    (a,) = inputs
    axes = tuple(attrs["axes"])
    inv = tuple(np.argsort(axes))
    return a.data.transpose(axes), lambda g: (g.transpose(inv),)


@_primitive("attention")
def _p_attention(inputs, attrs):
    """Masked scaled-dot-product attention.

    q, k, v: (..., H, T, Dh); mask: key-validity floats (..., T) with 1 for
    real positions, 0 for padding. Masked logits get an additive -1e9.
    """
    q, k, v = inputs
    if q.shape != k.shape or q.shape != v.shape or q.ndim < 3:
        raise ShapeError("attention", "q/k/v must share shape (..., H, T, Dh)",
                         (q.shape, k.shape, v.shape))
    mask = attrs.get("mask")
    dh = q.shape[-1]
    invsqrt = 1.0 / np.sqrt(dh)
    logits = (q.data @ np.swapaxes(k.data, -1, -2)) * invsqrt
    if mask is not None:
        mask = np.asarray(mask, dtype=q.data.dtype)
        # broadcast over heads and query positions; padding keys get -1e9
        logits = logits + (1.0 - mask)[..., None, None, :] * ATTN_MASK_VALUE
    m = logits.max(axis=-1, keepdims=True)
    e = np.exp(logits - m)
    att = e / e.sum(axis=-1, keepdims=True)
    out = att @ v.data

    def vjp(g):
        gv = np.swapaxes(att, -1, -2) @ g
        gatt = g @ np.swapaxes(v.data, -1, -2)
        dot = (gatt * att).sum(axis=-1, keepdims=True)
        glogits = att * (gatt - dot)
        gq = (glogits @ k.data) * invsqrt
        gk = (np.swapaxes(glogits, -1, -2) @ q.data) * invsqrt
        return gq, gk, gv

    return out, vjp


# functional wrappers --------------------------------------------------------

def matmul(a, b):
    return apply_primitive("matmul", (a, b))


def add(a, b):
    return apply_primitive("add", (a, b))


def sub(a, b):
    return apply_primitive("add", (a, scale(_as_tensor(b), -1.0)))


def mul(a, b):
    return apply_primitive("mul", (a, b))


def scale(a, factor: float):
    return apply_primitive("scale", (a,), {"factor": factor})


def relu(a):
    return apply_primitive("relu", (a,))


def sigmoid(a):
    return apply_primitive("sigmoid", (a,))


def softplus(a):
    return apply_primitive("softplus", (a,))


def exp(a):
    return apply_primitive("exp", (a,))


def log(a):
    return apply_primitive("log", (a,))


def softmax(a):
    return apply_primitive("softmax", (a,))


def layer_norm(x, gain, bias, eps: float = LAYER_NORM_EPS):
    return apply_primitive("layer_norm", (x, gain, bias), {"eps": eps})


def l2_normalize(x):
    return apply_primitive("l2_normalize", (x,))


def gather(table, ids):
    return apply_primitive("gather", (table,), {"ids": ids})


def tsum(a, axis=None):
    return apply_primitive("sum", (a,), {"axis": axis})


def tmean(a, axis=None):
    return apply_primitive("mean", (a,), {"axis": axis})


def concat(tensors, axis=0):
    return apply_primitive("concat", tuple(tensors), {"axis": axis})


def reshape(a, shape):
    return apply_primitive("reshape", (a,), {"shape": shape})


def transpose(a, axes):
    return apply_primitive("transpose", (a,), {"axes": axes})


def attention(q, k, v, mask=None):
    return apply_primitive("attention", (q, k, v), {"mask": mask})


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


class Tape:
    """Linearized computation graph below one root, in topological order.

    Built lazily at backward time from the recorded primitive applications;
    every record's inputs precede it, and backward visits each exactly once
    in reverse.
    """

    def __init__(self, root: Tensor):
        self.records: list[Tensor] = []
        seen: set[int] = set()
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                self.records.append(node)
                continue
            if id(node) in seen or node._vjp is None:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._inputs:
                if parent._vjp is not None and id(parent) not in seen:
                    stack.append((parent, False))

    def backward(self, root: Tensor) -> dict[int, np.ndarray]:
        grads: dict[int, np.ndarray] = {id(root): np.ones_like(root.data)}
        for node in reversed(self.records):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            for parent, pg in zip(node._inputs, node._vjp(g)):
                if pg is None or not parent.requires_grad:
                    continue
                pid = id(parent)
                if pid in grads:
                    grads[pid] = grads[pid] + pg
                else:
                    grads[pid] = pg
        return grads


def backward(root: Tensor, params: Sequence[Tensor] | None = None) -> dict:
    """Run reverse mode from a scalar root.

    Returns a mapping from each parameter tensor (id) to its gradient. If
    `params` is given, returns {tensor: grad-array} with zeros for
    parameters unreachable from the root.
    """
    if root.data.ndim != 0 and root.data.size != 1:
        raise ValueError(f"backward root must be scalar, got shape {root.shape}")
    tape = Tape(root)
    grads = tape.backward(root)
    if params is None:
        return grads
    out = {}
    for p in params:
        g = grads.get(id(p))
        out[p] = g if g is not None else np.zeros_like(p.data)
    return out


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------


class GradcheckReport:
    """Per-input maximum relative errors between autodiff and central
    finite differences."""

    def __init__(self, max_rel_error: float, per_input: list[float], tol: float):
        self.max_rel_error = max_rel_error
        self.per_input = per_input
        self.tol = tol
        self.passed = max_rel_error < tol

    def __repr__(self):
        status = "pass" if self.passed else "FAIL"
        return f"GradcheckReport({status}, max_rel_error={self.max_rel_error:.3e}, tol={self.tol:g})"


def gradcheck(f: Callable, point: Sequence[np.ndarray], tol: float = 1e-4,
              h: float = 1e-5) -> GradcheckReport:
    """Compare reverse-mode gradients of scalar-valued `f` against central
    finite differences at `point`. Requires 64-bit inputs."""
    inputs = [Tensor(np.asarray(p, dtype=np.float64), requires_grad=True) for p in point]
    out = f(*inputs)
    analytic = backward(out, inputs)
    max_err = 0.0
    per_input = []
    for t in inputs:
        base = t.data.copy()
        num = np.zeros_like(base)
        flat = base.reshape(-1)
        nflat = num.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            up = base.copy().reshape(-1)
            up[i] = orig + h
            down = base.copy().reshape(-1)
            down[i] = orig - h
            args_up = [u.data if u is not t else up.reshape(base.shape) for u in inputs]
            args_down = [u.data if u is not t else down.reshape(base.shape) for u in inputs]
            with no_grad():
                fp = float(f(*[Tensor(a) for a in args_up]).data)
                fm = float(f(*[Tensor(a) for a in args_down]).data)
            nflat[i] = (fp - fm) / (2.0 * h)
        a = analytic[t]
        denom = np.maximum(np.abs(a) + np.abs(num), 1.0)
        err = float(np.max(np.abs(a - num) / denom)) if a.size else 0.0
        per_input.append(err)
        max_err = max(max_err, err)
    return GradcheckReport(max_err, per_input, tol)
