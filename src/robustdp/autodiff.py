"""Minimal reverse-mode tape over numpy arrays.

Just enough machinery to differentiate rectifier networks composed with
the minimax training objectives: broadcast-aware arithmetic, matmul, exp,
the positive-part power, axis reductions, min along an axis with ties
resolved to the lowest index (whose subgradient convention the tests rely
on), and two fused nodes: a whole network forward (`mlp`) and the W_q
dual's inner minimum min_j {psi_j + lam c_ij} (`dual_min`).  A network
with a trainable parameter runs in one call; a frozen one runs on
zero-padded tiles of exactly TILE rows, so each of its rows gives the same
bits whatever the number of rows it is called with.  The dual's minimum
streams over tiles of at most DUAL_TILE costs and keeps one value per row.

Only trainable Vars are taped.  `Var(x)` is a trainable leaf; `const` and
`as_var` make constant leaves.  An op keeps an edge to a parent only when
that parent requires a gradient, and an op whose parents are all constant
is itself a constant with no parents and no backward closure.  So frozen
parameters, data and whatever is computed from them alone build no tape,
and no backward step computes a parameter gradient nobody reads.
`backward` consumes the graph it differentiates: leaves keep their
gradients, and a consumed graph cannot be differentiated again.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Var",
    "const",
    "as_var",
    "exp",
    "pow_pos",
    "vsum",
    "vmean",
    "vmin",
    "concat",
    "repeat_rows",
    "reshape",
    "mlp",
    "dual_min",
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

    def __pow__(self, p):
        return _powi(self, p)

    def __getitem__(self, idx):
        return _getitem(self, idx)


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
    needs it.  weights and biases are Vars; x is a Var or an array.

    The backward follows the forward's rows: a trainable net's is one call
    (its weight gradients are sums over all rows anyway), a frozen net's
    runs every product g W^T on zero-padded TILE-row tiles, so a row's
    input gradient depends on that row alone.  Either way every gradient
    is bit-identical to the same network composed of the elementwise ops
    above, run on the same rows.
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
        if keep == "acts":
            masks = [a > 0 for a in saved[1:]]
            gx = _layers_backward(g, weights, biases, masks, [None] * len(weights), saved,
                                  x.requires_grad)
        else:
            gx = np.empty(x.shape)
            g_out = _buffer(("grad", last + 1), (TILE, g.shape[1]))
            into = [_buffer(("grad", i), (TILE, w.shape[0])) for i, w in enumerate(weights)]
            for s in range(0, len(g), TILE):
                sl = slice(s, s + TILE)
                gt = _layers_backward(_pad(g_out, g[sl]), weights, biases,
                                      [mask[sl] for mask in saved], into)
                gx[sl] = gt[: len(gx[sl])]
        if x.requires_grad:
            _accum(x, gx if in_scale is None else gx * in_scale)

    return Var(out, parents, bw)


def _layers_backward(gt, weights, biases, masks, into, acts=None, into_input=True):
    """Carry the gradient gt in a net's output down its layers, and into its
    input when into_input; the product g W_i^T is written into into[i], a
    new array where that is None.  masks[i] is hidden layer i's relu mask on
    gt's first len(masks[i]) rows (the rest is padding).  acts, each layer's
    input, are given when a parameter is trainable, and then gt holds every
    row; otherwise gt is a TILE-row tile."""
    last = len(weights) - 1
    for i in range(last, -1, -1):
        if i < last:  # gt is the product the step above made
            rows = gt[: len(masks[i])]
            np.multiply(rows, masks[i], out=rows)
        w, b = weights[i], biases[i]
        if acts is not None and w.requires_grad:
            _accum(w, acts[i].T @ gt)
        if acts is not None and b.requires_grad:
            _accum(b, gt)
        if i > 0 or into_input:
            gt = np.matmul(gt, w.value.T, out=into[i])
    return gt


def dual_min(psi, lam, x, z, cost):
    """min along the last axis of psi + lam * cost(x, z) as one tape node, the
    W_q dual's inner minimum min_j {psi_j + lam c_ij} over points x (..., m, d)
    and z (..., n, d), with vmin's first-index argmin.

    cost(x, z, out=None) gives the ground costs (..., m, n) of its points,
    written into out when given.  The forward streams over tiles of x's rows
    (axis -2), each of at least one row and, where rows allow, at most
    DUAL_TILE elements of cost (times d): it writes the tile's costs into a
    reused buffer, then multiplies by lam and adds psi in place, and keeps
    only each row's argmin and minimum, and when lam needs a gradient the
    cost there, which cost gives again on the picked pairs (x_i, z_idx).  No
    (..., m, n) array is built.  Every entry goes through the operations of
    the composed ops vmin(psi + lam * const(cost(x, z))), so the values are
    theirs bit for bit.  The backward scatters the gradients without the
    dense (..., m, n) arrays of the composed vjps, bit-identical to them (see
    _unbroadcast_picked).  With no trainable input it returns a constant and
    keeps nothing.  psi and lam are Vars, arrays or floats, and may vary
    along the rows; they broadcast to the costs' shape.
    """
    psi, lam = as_var(psi), as_var(lam)
    m, n = x.shape[-2], z.shape[-2]
    full = np.broadcast_shapes(psi.shape, lam.shape, x.shape[:-2] + (m, n),
                               z.shape[:-2] + (m, n))
    x = np.broadcast_to(x, full[:-2] + x.shape[-2:])
    rows = max(1, DUAL_TILE // max(1, math.prod(full[:-2]) * n * x.shape[-1]))
    idx = np.empty(full[:-1], dtype=np.intp)
    out = np.empty(full[:-1])
    for s in range(0, m, rows):
        sl = (..., slice(s, s + rows), slice(None))
        xt = x[sl]
        total = cost(xt, z, out=_buffer(("dual", 0), xt.shape[:-1] + (n,)))
        np.multiply(_rows(lam.value, sl), total, out=total)
        total += _rows(psi.value, sl)
        at = np.argmin(total, axis=-1)[..., None]
        idx[sl[:-1]] = at[..., 0]
        out[sl[:-1]] = np.take_along_axis(total, at, axis=-1)[..., 0]
    parents = tuple(p for p in (psi, lam) if p.requires_grad)
    if not parents:
        return const(out)
    if lam.requires_grad:
        picked_z = np.take_along_axis(np.broadcast_to(z, full[:-2] + z.shape[-2:]),
                                      idx[..., None], axis=-2)
        picked = cost(x[..., None, :], picked_z[..., None, :])[..., 0, 0]

    def bw(g):
        if psi.requires_grad:
            _accum(psi, _unbroadcast_picked(g, idx, full, psi.shape))
        if lam.requires_grad:
            _accum(lam, _unbroadcast_picked(g * picked, idx, full, lam.shape))

    return Var(out, parents, bw)


def _rows(a, sl):
    """A tile's rows sl of an operand of dual_min, which is sliced only when
    it varies along the rows."""
    return a[sl] if a.ndim >= 2 and a.shape[-2] != 1 else a


def _unbroadcast_picked(values, idx, full, shape):
    """The first sum _unbroadcast(G, shape) makes of the array G of shape
    full that holds values (..., m) at the last-axis positions idx (..., m)
    and zeros elsewhere, without building G; _accum makes the sums that
    remain.

    numpy sums an axis that is not the last one in ascending order (the last
    axis, of length n > 1, stays its inner loop), and np.add.at adds the
    values into zeros in that order; the zeros add nothing, and neither sum
    can give -0.0.  A sum over the last axis meets one value per cell, and
    with no sum (shape is full) the result is G, up to the sign of a zero.
    With n = 1, G is the values themselves and numpy may sum another axis
    pairwise, so G is handed on whole."""
    if full[-1] == 1:
        return np.ascontiguousarray(values, dtype=float).reshape(full)
    pos = list(np.indices(values.shape, sparse=True)) + [idx]
    out_shape = list(full)
    if len(full) > len(shape):
        del out_shape[0], pos[0]
    else:
        for i, s in enumerate(shape):
            if s == 1 and full[i] != 1:
                out_shape[i], pos[i] = 1, 0
                break
    out = np.zeros(out_shape)
    np.add.at(out, tuple(pos), values)
    return out


# Scratch arrays, one per slot: ("in", 0), ("hidden", layer) and ("bias",
# layer) of a frozen mlp forward and ("grad", layer) of a frozen mlp
# backward (the gradient in that layer's input; layer = depth holds the
# output's), each one TILE-row tile, and ("dual", 0) of the dual_min
# forward, one row tile of at most DUAL_TILE costs (unless a single row is
# longer).  A slot's array is replaced by a larger one when a call needs
# more room, so memory stays at one array per slot, as large as the
# largest use.  Every use writes a view in full before reading it and no
# view outlives the call, so nothing is shared between successive calls.
# Calls from several threads at once would share the arrays; nothing in
# the package runs networks concurrently.
_buffers = {}


def _buffer(slot, shape):
    """A C-contiguous float view of the given shape into the slot's array."""
    size = math.prod(shape)
    buf = _buffers.get(slot)
    if buf is None or buf.size < size:
        buf = _buffers[slot] = np.empty(size)
    return buf[:size].reshape(shape)


# Elements per tile of the dual_min forward: its one buffer, ("dual", 0),
# is at most this large (512 KiB), and so is a tile's difference array at
# d >= 2.  Each MB of tile is about 2 % of robust-t5's peak RSS (46.1 MB
# here, 46.6 MB at 2**17), and each tile costs a few numpy calls: the
# benchmark's training calls, (48, 48, 64), take 3 tiles of 21 rows.
DUAL_TILE = 2**16

# Rows per tile of a frozen network node.  Every tile is exactly this high
# (the last one zero-padded), so each product has one shape per layer and
# OpenBLAS one kernel for it, whatever the call's height: a row's result
# depends on that row alone.  At 512 rows the forward's (512, 32) x (32, n)
# products stay on the small-matrix kernel (m n k <= 100^3; 1,024 rows take
# the blocked one, which is slower here), and a 512 x 32 float tile, 128
# KiB, stays in a core's L2 cache from layer to layer.
TILE = 512


def _pad(buf, rows, scale=None):
    """buf, a TILE-row buffer, holding rows (at most TILE of them), times
    scale when given, and zeros below them."""
    if scale is None:
        buf[: len(rows)] = rows
    else:
        np.multiply(rows, scale, out=buf[: len(rows)])
    buf[len(rows):] = 0.0
    return buf


def mlp_forward(x, weights, biases, in_scale=None, box=None, keep=None):
    """The network on arrays: the input times in_scale, then per layer
    z = h @ W; z += b, then relu in place on every layer but the last; then,
    with box = (low, high), the squash low + (high - low) * (tanh(z) + 1) / 2.

    keep names what a backward will read.  "acts" (a net with trainable
    parameters) runs every row in one call and keeps the scaled input and
    each hidden post-activation.  Otherwise the net is frozen and runs on
    zero-padded TILE-row tiles of reused buffers (`_buffer`), so it
    allocates only its output, and a row's output depends on that row
    alone; on more than one tile each bias is added from a contiguous
    tile-shaped block of copies, which is faster than its broadcast.
    "masks" keeps each hidden layer's relu mask in a boolean array (a
    frozen net whose input needs a gradient), and None keeps nothing.
    Returns the output, the kept list and tanh(z) of the last layer (None
    without a box)."""
    last = len(weights) - 1
    if keep == "acts":
        h = x if in_scale is None else x * in_scale
        saved = [h]
        for i, (w, b) in enumerate(zip(weights, biases)):
            h = h @ w
            h += b
            if i < last:
                np.maximum(h, 0.0, out=h)
                saved.append(h)
        out = h
    else:
        m = len(x)
        out = np.empty((m, weights[-1].shape[1]))
        saved = [np.empty((m, w.shape[1]), dtype=bool) for w in weights[:-1]] if keep else []
        if m > TILE:
            blocks = [_buffer(("bias", i), (TILE, len(b))) for i, b in enumerate(biases)]
            for block, b in zip(blocks, biases):
                block[...] = b
        else:
            blocks = [b[None] for b in biases]  # added by broadcast
        h0 = _buffer(("in", 0), (TILE, x.shape[1]))
        hidden = [_buffer(("hidden", i), (TILE, w.shape[1])) for i, w in enumerate(weights)]
        for s in range(0, m, TILE):
            sl = slice(s, s + TILE)
            rows = len(out[sl])
            h = _pad(h0, x[sl], in_scale)
            for i, w in enumerate(weights):
                h = np.matmul(h, w, out=hidden[i])
                z = h[:rows]  # the padding rows stay 0 and take no bias
                z += blocks[i][:rows]
                if i < last:
                    np.maximum(z, 0.0, out=z)
                    if keep:
                        np.greater(z, 0.0, out=saved[i][sl])
            out[sl] = z
    th = None
    if box is not None:
        th = np.tanh(out)
        out = box[0] + (box[1] - box[0]) * (th + 1.0) * 0.5
    return out, saved, th


def backward(root):
    """Accumulate gradients of a scalar root into every reachable leaf.

    The graph is consumed: leaves keep their gradients, and each op node
    keeps its value but drops its gradient, closure and parents once its
    closure has run, so a consumed graph cannot be differentiated again (a
    later backward that reaches it raises ValueError).  The nodes run in the
    reverse of the depth-first post-order from the root, built on an
    explicit stack, so a tape of any depth runs."""
    if root.value.size != 1:
        raise ValueError("backward expects a scalar output")
    order, seen, stack = [], {id(root)}, [(root, iter(_parents(root)))]
    while stack:
        v, rest = stack[-1]
        for p in rest:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append((p, iter(_parents(p))))
                break
        else:
            stack.pop()
            order.append(v)
    root.grad = np.ones_like(root.value)
    while order:
        v = order.pop()
        if v.parents:
            v.bw(v.grad)
            v.grad = v.bw = v.parents = None


def _parents(v):
    """An op node's parents; a consumed one's (parents None) raises."""
    if v.parents is None:
        raise ValueError("backward reached a node of a graph a previous backward consumed; "
                         "build the graph again to differentiate it again")
    return v.parents
