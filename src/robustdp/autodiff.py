"""Minimal reverse-mode tape over numpy arrays.

Just enough machinery to differentiate rectifier networks composed with
the minimax training objectives: broadcast-aware arithmetic, matmul,
relu/tanh, axis reductions, and min along an axis with ties resolved
to the lowest index (whose subgradient convention the tests rely on).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Var",
    "const",
    "as_var",
    "exp",
    "log",
    "relu",
    "tanh",
    "absolute",
    "pow_pos",
    "vsum",
    "vmean",
    "vmin",
    "concat",
    "repeat_rows",
    "reshape",
    "backward",
]


class Var:
    __slots__ = ("value", "grad", "parents", "bw")

    def __init__(self, value, parents=(), bw=None):
        self.value = np.asarray(value, dtype=float)
        self.grad = None
        self.parents = parents
        self.bw = bw

    @property
    def shape(self):
        return self.value.shape

    # -- operators ---------------------------------------------------------

    def __add__(self, other):
        return _add(self, as_var(other))

    def __radd__(self, other):
        return _add(as_var(other), self)

    def __sub__(self, other):
        return _add(self, _neg(as_var(other)))

    def __rsub__(self, other):
        return _add(as_var(other), _neg(self))

    def __neg__(self):
        return _neg(self)

    def __mul__(self, other):
        return _mul(self, as_var(other))

    def __rmul__(self, other):
        return _mul(as_var(other), self)

    def __truediv__(self, other):
        if isinstance(other, Var):
            return _mul(self, _recip(other))
        return _mul(self, as_var(1.0 / np.asarray(other, dtype=float)))

    def __matmul__(self, other):
        return _matmul(self, as_var(other))

    def __rmatmul__(self, other):
        return _matmul(as_var(other), self)

    def __pow__(self, p):
        return _powi(self, p)

    def __getitem__(self, idx):
        return _getitem(self, idx)

    def item(self):
        return float(self.value)


def as_var(x):
    return x if isinstance(x, Var) else Var(x)


def const(x):
    return Var(x)


def _unbroadcast(grad, shape):
    """Sum gradient over axes that were broadcast in the forward pass."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and grad.shape[i] != 1:
            grad = grad.sum(axis=i, keepdims=True)
    return grad


def _accum(var, g):
    g = _unbroadcast(np.asarray(g, dtype=float), var.value.shape)
    if var.grad is None:
        var.grad = g.copy()
    else:
        var.grad = var.grad + g


def _add(a, b):
    out = Var(a.value + b.value, (a, b))
    out.bw = lambda g: (_accum(a, g), _accum(b, g))
    return out


def _neg(a):
    out = Var(-a.value, (a,))
    out.bw = lambda g: _accum(a, -g)
    return out


def _mul(a, b):
    out = Var(a.value * b.value, (a, b))
    out.bw = lambda g: (_accum(a, g * b.value), _accum(b, g * a.value))
    return out


def _recip(a):
    out = Var(1.0 / a.value, (a,))
    out.bw = lambda g: _accum(a, -g / a.value**2)
    return out


def _matmul(a, b):
    out = Var(a.value @ b.value, (a, b))

    def bw(g):
        _accum(a, g @ b.value.T)
        _accum(b, a.value.T @ g)

    out.bw = bw
    return out


def _powi(a, p):
    out = Var(a.value**p, (a,))
    out.bw = lambda g: _accum(a, g * p * a.value ** (p - 1))
    return out


def _getitem(a, idx):
    out = Var(a.value[idx], (a,))

    def bw(g):
        full = np.zeros_like(a.value)
        np.add.at(full, idx, g)
        _accum(a, full)

    out.bw = bw
    return out


def exp(a):
    a = as_var(a)
    e = np.exp(a.value)
    out = Var(e, (a,))
    out.bw = lambda g: _accum(a, g * e)
    return out


def log(a):
    a = as_var(a)
    out = Var(np.log(a.value), (a,))
    out.bw = lambda g: _accum(a, g / a.value)
    return out


def relu(a):
    a = as_var(a)
    # np.maximum is one pass; np.where with a scalar is several times slower
    out = Var(np.maximum(a.value, 0.0), (a,))
    out.bw = lambda g: _accum(a, g * (a.value > 0))
    return out


def tanh(a):
    a = as_var(a)
    th = np.tanh(a.value)
    out = Var(th, (a,))
    out.bw = lambda g: _accum(a, g * (1.0 - th**2))
    return out


def absolute(a):
    a = as_var(a)
    out = Var(np.abs(a.value), (a,))
    out.bw = lambda g: _accum(a, g * np.sign(a.value))
    return out


def pow_pos(a, p):
    """max(x, 0)^p with subgradient 0 at and below the kink.

    Safe for fractional p < 1 where the one-sided derivative blows up at
    zero: the gradient mask is applied before the power is evaluated.
    """
    a = as_var(a)
    pos = np.clip(a.value, 0.0, None)
    out = Var(pos**p, (a,))

    def bw(g):
        grad = np.where(a.value > 0, p * np.where(a.value > 0, a.value, 1.0) ** (p - 1), 0.0)
        _accum(a, g * grad)

    out.bw = bw
    return out


def vsum(a, axis=None):
    a = as_var(a)
    out = Var(a.value.sum(axis=axis), (a,))

    def bw(g):
        if axis is None:
            _accum(a, np.broadcast_to(g, a.value.shape))
        else:
            _accum(a, np.broadcast_to(np.expand_dims(g, axis), a.value.shape))

    out.bw = bw
    return out


def vmean(a, axis=None):
    a = as_var(a)
    count = a.value.size if axis is None else a.value.shape[axis]
    return vsum(a, axis) * (1.0 / count)


def vmin(a, axis=-1):
    """Min along an axis; gradient flows to the first (lowest-index) argmin."""
    a = as_var(a)
    idx = np.argmin(a.value, axis=axis)
    out = Var(np.min(a.value, axis=axis), (a,))

    def bw(g):
        full = np.zeros_like(a.value)
        expanded = np.expand_dims(idx, axis)
        np.put_along_axis(full, expanded, np.expand_dims(g, axis), axis=axis)
        _accum(a, full)

    out.bw = bw
    return out


def concat(vars_, axis=-1):
    vars_ = [as_var(v) for v in vars_]
    out = Var(np.concatenate([v.value for v in vars_], axis=axis), tuple(vars_))
    sizes = [v.value.shape[axis] for v in vars_]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for v, lo, hi in zip(vars_, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis if axis >= 0 else g.ndim + axis] = slice(lo, hi)
            _accum(v, g[tuple(sl)])

    out.bw = bw
    return out


def repeat_rows(a, times):
    """Repeat each row `times` times (axis 0); backward sums per group."""
    a = as_var(a)
    out = Var(np.repeat(a.value, times, axis=0), (a,))

    def bw(g):
        _accum(a, g.reshape(a.value.shape[0], times, *a.value.shape[1:]).sum(axis=1))

    out.bw = bw
    return out


def reshape(a, shape):
    a = as_var(a)
    out = Var(a.value.reshape(shape), (a,))
    out.bw = lambda g: _accum(a, g.reshape(a.value.shape))
    return out


def backward(root):
    """Accumulate gradients of a scalar root into every reachable Var."""
    if root.value.size != 1:
        raise ValueError("backward expects a scalar output")
    order = []
    seen = set()

    def visit(v):
        if id(v) in seen:
            return
        seen.add(id(v))
        for p in v.parents:
            visit(p)
        order.append(v)

    visit(root)
    root.grad = np.ones_like(root.value)
    for v in reversed(order):
        if v.bw is not None and v.grad is not None:
            v.bw(v.grad)
