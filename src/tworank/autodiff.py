"""Reverse-mode automatic differentiation over dense numpy arrays.

Tensors are value wrappers that no primitive writes into (the optimizer
updates parameters in place, between steps); every primitive application may
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
GRADCHECK_STEP = 1e-5  # central-difference step of gradcheck

_state = threading.local()
_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


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
        detail = f"{primitive}: {message}"
        if shapes is not None:
            detail += f" (shapes: {[tuple(s) for s in shapes]})"
        super().__init__(detail)


class Tensor:
    """Dense real array plus the bookkeeping needed for reverse mode."""

    __slots__ = ("data", "requires_grad", "_inputs", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self._inputs: tuple[Tensor, ...] = ()
        self._vjp: Callable | None = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

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
# vjp(grad_out) -> tuple of gradients aligned with inputs. A VJP may return
# None for an input whose requires_grad is False instead of computing a
# gradient that backward would drop (add and mul do, for constant masks and
# weights). The gather VJP scatters all rows with one np.bincount.
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
    fwd = PRIMITIVES.get(name)
    if fwd is None:
        raise KeyError(f"unknown primitive {name!r}")
    for t in inputs:
        if not isinstance(t, Tensor):
            inputs = tuple(_as_tensor(x) for x in inputs)
            break
    out_data, vjp = fwd(inputs, attrs or {})
    needs = False
    if _grad_enabled():
        for t in inputs:
            if t.requires_grad:
                needs = True
                break
    if type(out_data) is np.ndarray and out_data.dtype in _FLOAT_DTYPES:
        out = Tensor.__new__(Tensor)  # skips the conversion Tensor.__init__ makes
        out.data = out_data
        out.requires_grad = needs
    else:
        out = Tensor(out_data, requires_grad=needs)
    out._inputs, out._vjp = (inputs, vjp) if needs else ((), None)
    return out


@_primitive("matmul")
def _p_matmul(inputs, attrs):
    """a @ w, plus a (m,) bias broadcast over the rows when a third
    operand is given: the bits of add(matmul(a, w), bias) in one dispatch."""
    a, b = inputs[0], inputs[1]
    if a.ndim < 2 or b.ndim != 2:
        raise ShapeError("matmul", "expects (..., n, k) @ (k, m)", (a.shape, b.shape))
    if a.shape[-1] != b.shape[0]:
        raise ShapeError("matmul", "inner dimensions differ", (a.shape, b.shape))
    bias = inputs[2] if len(inputs) > 2 else None
    if bias is not None and bias.shape != b.shape[1:]:
        raise ShapeError("matmul", "bias must be (m,)", (a.shape, b.shape, bias.shape))
    ad, bd = a.data, b.data
    out = ad @ bd
    if bias is not None:
        out += bias.data

    def vjp(g):
        ga = g @ bd.T
        gb = ad.reshape(-1, ad.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        return (ga, gb) if bias is None else (ga, gb, _unbroadcast(g, bias.shape))

    return out, vjp


@_primitive("add")
def _p_add(inputs, attrs):
    a, b = inputs
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeError("add", "operands not broadcastable", (a.shape, b.shape))

    def vjp(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

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
        return (_unbroadcast(g * bd, a.shape) if a.requires_grad else None,
                _unbroadcast(g * ad, b.shape) if b.requires_grad else None)

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
    # out > 0 exactly where a > 0 (NaN stays NaN), so no mask is kept
    return out, lambda g: (g * (out > 0),)


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
    d = x.shape[-1] if x.ndim else 0
    if d < 2:
        raise ShapeError("layer_norm", "last axis must have length >= 2", (x.shape,))
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError("layer_norm", "gain/bias must match last axis",
                         (x.shape, gain.shape, bias.shape))
    xd, gd = x.data, gain.data
    # np.var's own steps, so var is bit-equal to it, with one subtraction
    # shared; the centered array becomes xhat and the square's buffer the
    # output, in place
    xhat = xd - xd.mean(axis=-1, keepdims=True)
    out = xhat * xhat
    var = out.sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat *= inv
    np.multiply(xhat, gd, out=out)
    out += bias.data

    def vjp(g):
        # gx = inv * (g*gd - mean(g*gd) - xhat * mean(g*gd*xhat)); one
        # scratch array holds each product with xhat in turn
        gx = g * gd
        dmean = gx.mean(axis=-1, keepdims=True)
        scratch = gx * xhat
        dproj = scratch.mean(axis=-1, keepdims=True)
        gx -= dmean
        gx -= np.multiply(xhat, dproj, out=scratch)
        gx *= inv
        ggain = np.multiply(g, xhat, out=scratch).reshape(-1, d).sum(axis=0)
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
        # cell (i, j) of the table is bin i * d + j; bincount adds each bin's
        # terms in input order from 0.0, as np.add.at does
        d = table.shape[1]
        flat = (ids.reshape(-1, 1) * d + np.arange(d)).reshape(-1)
        gt = np.bincount(flat, g.reshape(-1), minlength=n * d)
        return (gt.reshape(n, d).astype(table.data.dtype, copy=False),)

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

    q: (..., H, Tq, Dh); k, v: (..., H, Tk, Dh); mask: key-validity floats
    (..., Tk) with 1 for real positions, 0 for padding. Masked logits get an
    additive -1e9.
    """
    q, k, v = inputs
    if (k.shape != v.shape or q.ndim != k.ndim or q.ndim < 3
            or q.shape[:-2] != k.shape[:-2] or q.shape[-1] != k.shape[-1]):
        raise ShapeError("attention", "expects q (..., H, Tq, Dh) and k, v (..., H, Tk, Dh)",
                         (q.shape, k.shape, v.shape))
    mask = attrs.get("mask")
    dh = q.shape[-1]
    invsqrt = 1.0 / np.sqrt(dh)
    # the plain formula's steps in its order, so its bits, done in place in
    # the logits' own array: scale, mask, shift, exp, divide
    att = q.data @ np.swapaxes(k.data, -1, -2)
    att *= invsqrt
    if mask is not None:
        mask = np.asarray(mask, dtype=q.data.dtype)
        # broadcast over heads and query positions; padding keys get -1e9
        att += (1.0 - mask)[..., None, None, :] * ATTN_MASK_VALUE
    att -= att.max(axis=-1, keepdims=True)
    np.exp(att, out=att)
    att /= att.sum(axis=-1, keepdims=True)
    out = att @ v.data

    def vjp(g):
        gv = np.swapaxes(att, -1, -2) @ g
        # glogits = att * (gatt - dot), built in gatt's own buffer
        glogits = g @ np.swapaxes(v.data, -1, -2)
        dot = (glogits * att).sum(axis=-1, keepdims=True)
        glogits -= dot
        glogits *= att
        gq = glogits @ k.data
        gq *= invsqrt
        gk = np.swapaxes(glogits, -1, -2) @ q.data
        gk *= invsqrt
        return gq, gk, gv

    return out, vjp


# functional wrappers --------------------------------------------------------

def matmul(a, b, bias=None):
    return apply_primitive("matmul", (a, b) if bias is None else (a, b, bias))


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


def layer_norm(x, gain, bias):
    return apply_primitive("layer_norm", (x, gain, bias))


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
    """The maximum relative error between autodiff and central finite
    differences over all inputs."""

    def __init__(self, max_rel_error: float, tol: float):
        self.max_rel_error = max_rel_error
        self.tol = tol
        self.passed = max_rel_error < tol

    def __repr__(self):
        status = "pass" if self.passed else "FAIL"
        return f"GradcheckReport({status}, max_rel_error={self.max_rel_error:.3e}, tol={self.tol:g})"


def gradcheck(f: Callable, point: Sequence[np.ndarray], tol: float = 1e-4) -> GradcheckReport:
    """Compare reverse-mode gradients of scalar-valued `f` against central
    finite differences at `point`. Requires 64-bit inputs."""
    inputs = [Tensor(np.asarray(p, dtype=np.float64), requires_grad=True) for p in point]
    out = f(*inputs)
    analytic = backward(out, inputs)
    errors = []
    for t in inputs:
        work = t.data.copy()  # each element is moved in place, then restored
        args = [work if u is t else u.data for u in inputs]
        flat = work.reshape(-1)  # a view: the copy is contiguous
        num = np.zeros_like(work)
        nflat = num.reshape(-1)
        for i in range(flat.size):
            orig, fs = flat[i], []
            for x in (orig + GRADCHECK_STEP, orig - GRADCHECK_STEP):
                flat[i] = x
                with no_grad():
                    fs.append(float(f(*[Tensor(a) for a in args]).data))
            flat[i] = orig
            nflat[i] = (fs[0] - fs[1]) / (2.0 * GRADCHECK_STEP)
        a = analytic[t]
        denom = np.maximum(np.abs(a) + np.abs(num), 1.0)
        errors.append(float(np.max(np.abs(a - num) / denom)) if a.size else 0.0)
    # np.max, unlike max, keeps a NaN error, so that it fails the check
    return GradcheckReport(float(np.max(errors, initial=0.0)), tol)
