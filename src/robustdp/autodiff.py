"""Minimal reverse-mode tape over numpy arrays.

Just enough machinery to differentiate rectifier networks composed with
the minimax training objectives: broadcast-aware arithmetic, matmul,
relu/tanh, axis reductions, min along an axis with ties resolved to the
lowest index (whose subgradient convention the tests rely on), and one
fused node for a whole network forward (`mlp`).

Only trainable Vars are taped.  `Var(x)` is a trainable leaf; `const` and
`as_var` make constant leaves.  An op keeps an edge to a parent only when
that parent requires a gradient, and an op whose parents are all constant
is itself a constant with no parents and no backward closure.  So frozen
parameters, data and whatever is computed from them alone build no tape,
and no backward step computes a parameter gradient nobody reads.
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
    "mlp",
    "backward",
]


class Var:
    """A tape value; requires_grad is off only for constant leaves."""

    __slots__ = ("value", "grad", "parents", "bw", "requires_grad")

    def __init__(self, value, parents=(), bw=None, requires_grad=True):
        self.value = np.asarray(value, dtype=float)
        self.grad = None
        self.parents = parents
        self.bw = bw
        self.requires_grad = requires_grad

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


def const(x):
    return Var(x, requires_grad=False)


def as_var(x):
    return x if isinstance(x, Var) else const(x)


def _op(value, *edges):
    """The output Var of an op.  Each edge is (parent, vjp), where vjp maps
    the output's gradient to that parent's; edges into constants are
    dropped, and with none left the output is a constant."""
    live = [(p, vjp) for p, vjp in edges if p.requires_grad]
    if not live:
        return const(value)

    def bw(g):
        for p, vjp in live:
            _accum(p, vjp(g))

    return Var(value, tuple(p for p, _ in live), bw)


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
    return _op(a.value + b.value, (a, lambda g: g), (b, lambda g: g))


def _neg(a):
    return _op(-a.value, (a, lambda g: -g))


def _mul(a, b):
    return _op(a.value * b.value, (a, lambda g: g * b.value), (b, lambda g: g * a.value))


def _recip(a):
    return _op(1.0 / a.value, (a, lambda g: -g / a.value**2))


def _matmul(a, b):
    return _op(a.value @ b.value,
               (a, lambda g: g @ b.value.T), (b, lambda g: a.value.T @ g))


def _powi(a, p):
    return _op(a.value**p, (a, lambda g: g * p * a.value ** (p - 1)))


def _getitem(a, idx):
    def vjp(g):
        full = np.zeros_like(a.value)
        np.add.at(full, idx, g)
        return full

    return _op(a.value[idx], (a, vjp))


def exp(a):
    a = as_var(a)
    e = np.exp(a.value)
    return _op(e, (a, lambda g: g * e))


def log(a):
    a = as_var(a)
    return _op(np.log(a.value), (a, lambda g: g / a.value))


def relu(a):
    a = as_var(a)
    # np.maximum is one pass; np.where with a scalar is several times slower
    return _op(np.maximum(a.value, 0.0), (a, lambda g: g * (a.value > 0)))


def tanh(a):
    a = as_var(a)
    th = np.tanh(a.value)
    return _op(th, (a, lambda g: g * (1.0 - th**2)))


def absolute(a):
    a = as_var(a)
    return _op(np.abs(a.value), (a, lambda g: g * np.sign(a.value)))


def pow_pos(a, p):
    """max(x, 0)^p with subgradient 0 at and below the kink.

    Safe for fractional p < 1 where the one-sided derivative blows up at
    zero: the gradient mask is applied before the power is evaluated.
    """
    a = as_var(a)
    pos = np.clip(a.value, 0.0, None)

    def vjp(g):
        grad = np.where(a.value > 0, p * np.where(a.value > 0, a.value, 1.0) ** (p - 1), 0.0)
        return g * grad

    return _op(pos**p, (a, vjp))


def vsum(a, axis=None):
    a = as_var(a)

    def vjp(g):
        if axis is None:
            return np.broadcast_to(g, a.value.shape)
        return np.broadcast_to(np.expand_dims(g, axis), a.value.shape)

    return _op(a.value.sum(axis=axis), (a, vjp))


def vmean(a, axis=None):
    a = as_var(a)
    count = a.value.size if axis is None else a.value.shape[axis]
    return vsum(a, axis) * (1.0 / count)


def vmin(a, axis=-1):
    """Min along an axis; gradient flows to the first (lowest-index) argmin."""
    a = as_var(a)
    idx = np.argmin(a.value, axis=axis)

    def vjp(g):
        full = np.zeros_like(a.value)
        expanded = np.expand_dims(idx, axis)
        np.put_along_axis(full, expanded, np.expand_dims(g, axis), axis=axis)
        return full

    return _op(np.min(a.value, axis=axis), (a, vjp))


def concat(vars_, axis=-1):
    vars_ = [as_var(v) for v in vars_]
    value = np.concatenate([v.value for v in vars_], axis=axis)
    axis = axis if axis >= 0 else value.ndim + axis
    offsets = np.cumsum([0] + [v.value.shape[axis] for v in vars_])

    def part(lo, hi):
        sl = (slice(None),) * axis + (slice(lo, hi),)
        return lambda g: g[sl]

    return _op(value, *((v, part(lo, hi))
                        for v, lo, hi in zip(vars_, offsets[:-1], offsets[1:])))


def repeat_rows(a, times):
    """Repeat each row `times` times (axis 0); backward sums per group."""
    a = as_var(a)
    return _op(
        np.repeat(a.value, times, axis=0),
        (a, lambda g: g.reshape(a.value.shape[0], times, *a.value.shape[1:]).sum(axis=1)),
    )


def reshape(a, shape):
    a = as_var(a)
    return _op(a.value.reshape(shape), (a, lambda g: g.reshape(a.value.shape)))


def mlp(x, weights, biases, in_scale=None, box=None):
    """A whole rectifier network as one tape node.

    The forward is `mlp_forward`.  With a trainable parameter the backward
    keeps one activation per layer (the relu mask is post > 0, the same
    test as pre > 0) and computes weight and bias gradients only for the
    parameters that require them; a frozen net whose input needs a
    gradient keeps only its relu masks, and one needing no gradient keeps
    nothing.  The gradient is carried into the input only when the input
    needs it.  Every gradient is bit-identical to the same network composed
    of the elementwise ops above.  weights and biases are Vars; x is a Var
    or an array.
    """
    x = as_var(x)
    params = [p for wb in zip(weights, biases) for p in wb]
    parents = tuple(p for p in params if p.requires_grad)
    keep = "acts" if parents else "masks" if x.requires_grad else None
    out, saved, th = mlp_forward(
        x.value, [w.value for w in weights], [b.value for b in biases], in_scale, box, keep
    )
    if x.requires_grad:
        parents += (x,)
    if not parents:
        return const(out)
    last = len(weights) - 1

    def bw(g):
        if box is not None:
            g = g * 0.5 * (box[1] - box[0]) * (1.0 - th**2)
        for i in range(last, -1, -1):
            if i < last:  # g is the buffer the step below wrote
                np.multiply(g, saved[i + 1] > 0 if keep == "acts" else saved[i], out=g)
            w, b = weights[i], biases[i]
            if w.requires_grad:
                _accum(w, saved[i].T @ g)
            if b.requires_grad:
                _accum(b, g)
            if i > 0 or x.requires_grad:
                # the gradient in layer i's input; _accum copies what it keeps
                g = np.matmul(g, w.value.T, out=_buffer(("grad", i), (len(g), w.shape[0])))
        if x.requires_grad:
            _accum(x, g if in_scale is None else g * in_scale)

    return Var(out, parents, bw)


# Scratch arrays of the frozen forward and of the mlp backward, one per
# (role, layer) slot.  A slot's array is replaced by a larger one when a
# call needs more room, so memory stays at one array per slot, as large as
# the largest call.  Every use writes a view in full before reading it and
# no view outlives the call, so nothing is shared between successive
# calls.  Calls from several threads at once would share the arrays;
# nothing in the package runs networks concurrently.
_buffers = {}


def _buffer(slot, shape):
    """A C-contiguous (rows, cols) float view into the slot's array."""
    size = shape[0] * shape[1]
    buf = _buffers.get(slot)
    if buf is None or buf.size < size:
        buf = _buffers[slot] = np.empty(size)
    return buf[:size].reshape(shape)


def mlp_forward(x, weights, biases, in_scale=None, box=None, keep=None):
    """The network on arrays: per layer z = h @ W; z += b, then relu in
    place on every layer but the last; then, with box = (low, high), the
    squash low + (high - low) * (tanh(z) + 1) / 2.

    keep names what a backward will read.  "acts" keeps the scaled input
    and each hidden post-activation (a net with trainable parameters).
    Otherwise the scaled input and hidden layers are written into reused
    module buffers (`_buffer`), the same BLAS calls into `out=` arrays, so
    a frozen forward allocates only its output; "masks" keeps each hidden
    layer's relu mask as booleans (a frozen net whose input needs a
    gradient), and None keeps nothing.  Returns the output, the kept list
    and tanh(z) of the last layer (None without a box)."""
    reuse = keep != "acts"
    if in_scale is None:
        h = x
    else:
        h = np.multiply(x, in_scale, out=_buffer(("in", 0), x.shape) if reuse else None)
    saved = [] if reuse else [h]
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        hidden = reuse and i < last
        z = np.matmul(h, w, out=_buffer(("hidden", i), (len(h), w.shape[1])) if hidden else None)
        z += b
        if i < last:
            np.maximum(z, 0.0, out=z)
            if keep is not None:
                saved.append(z if keep == "acts" else z > 0)
        h = z
    th = None
    if box is not None:
        th = np.tanh(h)
        h = box[0] + (box[1] - box[0]) * (th + 1.0) * 0.5
    return h, saved, th


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
