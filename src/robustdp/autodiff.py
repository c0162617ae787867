"""Minimal reverse-mode tape over numpy arrays.

Just enough machinery to differentiate rectifier networks composed with
the minimax training objectives: broadcast-aware arithmetic, matmul, exp,
the positive-part power, axis reductions, min along an axis with ties
resolved to the lowest index (whose subgradient convention the tests rely
on), and two fused nodes: a whole network forward (`mlp`) and the W_q
dual's inner minimum min_j {psi_j + lam c_ij} (`dual_min`).  The network
node runs its layers over row tiles of TILE rows, so a tile's activations
stay in cache, and picks the tile height so that every tiled product gives
the bits of the untiled call.

Only trainable Vars are taped.  `Var(x)` is a trainable leaf; `const` and
`as_var` make constant leaves.  An op keeps an edge to a parent only when
that parent requires a gradient, and an op whose parents are all constant
is itself a constant with no parents and no backward closure.  So frozen
parameters, data and whatever is computed from them alone build no tape,
and no backward step computes a parameter gradient nobody reads.
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

    The backward of a frozen net runs its hidden layers over row tiles, as
    the forward does (`_tiles`).  Two products stay whole.  A trainable net
    keeps one tile, because its weight gradients are sums over all rows.
    The input-layer product g W_0^T is one call on the full (M, width)
    gradient of layer 0, held in a reused buffer: with an input two columns
    wide, OpenBLAS rounds it by another kernel on TILE-row tiles than on the
    whole call (see `_tiles_agree`), and tiling it would make every tile
    taller.
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
        m = len(g)
        if keep == "acts":
            tiles = [slice(0, m)]
        else:
            tiles = _tiles(m, [(w.shape[1], w.shape[0], True) for w in weights[1:]])
        # the gradient in layer 1's input, whole for the input-layer product
        g1 = g if last == 0 else _buffer(("grad", 1), (m, weights[0].shape[1]))
        for sl in tiles:
            gt = g[sl]
            for i in range(last, -1, -1):
                if i < last:  # gt is the buffer the step above wrote
                    np.multiply(gt, saved[i + 1][sl] > 0 if keep == "acts" else saved[i][sl],
                                out=gt)
                w, b = weights[i], biases[i]
                if w.requires_grad:
                    _accum(w, saved[i].T @ gt)
                if b.requires_grad:
                    _accum(b, gt)
                if i > 0:
                    into = g1[sl] if i == 1 else _buffer(("grad", i), (len(gt), w.shape[0]))
                    gt = np.matmul(gt, w.value.T, out=into)
        if x.requires_grad:
            # _accum copies what it keeps
            g = np.matmul(g1, weights[0].value.T, out=_buffer(("grad", 0), x.shape))
            _accum(x, g if in_scale is None else g * in_scale)

    return Var(out, parents, bw)


def dual_min(psi, lam, cost):
    """min along the last axis of psi + lam * cost as one tape node, the W_q
    dual's inner minimum min_j {psi_j + lam c_ij}, with vmin's first-index
    argmin.

    The forward writes lam * cost, then + psi, into a reused buffer: the
    values of the composed ops vmin(psi + lam * const(cost)).  The backward
    keeps only the argmin and the costs at it, and scatters the gradients
    without the dense (..., m, n) arrays of the composed vjps, bit-identical
    to them (see _unbroadcast_picked).  With no trainable input it returns a
    constant and keeps nothing.  psi and lam are Vars, arrays or floats;
    cost is an array.
    """
    psi, lam = as_var(psi), as_var(lam)
    full = np.broadcast_shapes(psi.shape, lam.shape, cost.shape)
    total = np.multiply(lam.value, cost, out=_buffer(("dual", 0), full))
    total += psi.value
    idx = np.argmin(total, axis=-1)[..., None]
    out = np.take_along_axis(total, idx, axis=-1)[..., 0]  # a copy, not a view
    parents = tuple(p for p in (psi, lam) if p.requires_grad)
    if not parents:
        return const(out)
    if lam.requires_grad:
        picked = np.take_along_axis(np.broadcast_to(cost, full), idx, axis=-1)[..., 0]

    def bw(g):
        if psi.requires_grad:
            _accum(psi, _unbroadcast_picked(g, idx, full, psi.shape))
        if lam.requires_grad:
            _accum(lam, _unbroadcast_picked(g * picked, idx, full, lam.shape))

    return Var(out, parents, bw)


def _unbroadcast_picked(values, idx, full, shape):
    """The first sum _unbroadcast(G, shape) makes of the array G of shape
    full that holds values (..., m) at the last-axis positions idx and zeros
    elsewhere, without building G; _accum makes the sums that remain.

    numpy sums an axis that is not the last one in ascending order (the last
    axis, of length n > 1, stays its inner loop), and np.add.at adds the
    values into zeros in that order; the zeros add nothing, and neither sum
    can give -0.0.  A sum over the last axis meets one value per cell, and
    with no sum (shape is full) the result is G, up to the sign of a zero.
    With n = 1, G is the values themselves and numpy may sum another axis
    pairwise, so G is handed on whole."""
    if full[-1] == 1:
        return np.ascontiguousarray(values, dtype=float).reshape(full)
    pos = list(np.indices(values.shape, sparse=True)) + [idx[..., 0]]
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


# Scratch arrays, one per slot: ("in", 0), ("hidden", layer) and
# ("bias", layer) of the mlp forward, ("grad", layer) of the mlp backward,
# and ("dual", 0) of the dual_min forward.  ("hidden", i), ("bias", i) and
# ("grad", i) for i >= 2 hold one row tile; ("in", 0), ("grad", 0) and
# ("grad", 1) hold every row of a call.  A slot's array is replaced by a
# larger one when a call needs more room, so memory stays at one array per
# slot, as large as the largest call.  Every use writes a view in full
# before reading it and no view outlives the call, so nothing is shared
# between successive calls.  Calls from several threads at once would share
# the arrays; nothing in the package runs networks concurrently.
_buffers = {}


def _buffer(slot, shape):
    """A C-contiguous float view of the given shape into the slot's array."""
    size = math.prod(shape)
    buf = _buffers.get(slot)
    if buf is None or buf.size < size:
        buf = _buffers[slot] = np.empty(size)
    return buf[:size].reshape(shape)


# Rows per tile of the network node: a 512 x 32 float tile is 128 KiB, so a
# tile's activations stay in a core's L2 cache from layer to layer.
TILE = 512


def _tiles(m, products):
    """The row slices an m-row network call runs over, for the products
    (k, n, transposed) of its tile loop, each an (m, k) array times a (k, n)
    one, held transposed or not.  Tiles are h rows high, h the least
    multiple of TILE at which `_tiles_agree` holds for every product; they
    start at multiples of h and the last one takes the remainder, so none
    is shorter than h unless the call is, and a call of fewer than 2 h rows
    is one tile."""
    h = TILE
    while m >= 2 * h and not all(_tiles_agree(m, h, *p) for p in products):
        h += TILE
    return _slices(m, h)


def _slices(m, h):
    n = max(m // h, 1)
    return [slice(i * h, m if i == n - 1 else (i + 1) * h) for i in range(n)]


# (m, h, k, n, transposed) -> whether h-row tiles give an m-row product's bits
_agree = {}


def _tiles_agree(m, h, k, n, transposed):
    """Whether the product of an (m, k) and a (k, n) array (the second held
    transposed or not) gives the same bits on the tiles of `_slices(m, h)`
    as in one call, checked once per shape on seeded probe data.

    A BLAS may pick its kernel by the size of a product.  OpenBLAS 0.3.31
    with SkylakeX kernels sends m n k <= 100^3 (and, for a transposed right
    factor, also m n <= 1200 with k >= 32) to a small-matrix kernel that
    rounds some shapes differently: (m, 32) x (32, 33), or (m, 32) x
    (2, 32)^T.  Its row results do not otherwise depend on the row count or
    on a tile's place, so one probe per shape settles every call of it."""
    key = (m, h, k, n, transposed)
    if key not in _agree:
        rng = np.random.default_rng(0)
        a = rng.normal(size=(m, k))
        w = rng.normal(size=(n, k)).T if transposed else rng.normal(size=(k, n))
        whole = a @ w
        _agree[key] = all(np.array_equal(a[sl] @ w, whole[sl]) for sl in _slices(m, h))
    return _agree[key]


def mlp_forward(x, weights, biases, in_scale=None, box=None, keep=None):
    """The network on arrays: per layer z = h @ W; z += b, then relu in
    place on every layer but the last; then, with box = (low, high), the
    squash low + (high - low) * (tanh(z) + 1) / 2.

    Every layer runs over the row tiles of `_tiles`, tile by tile, so a
    tile's hidden layers stay in cache; a call of fewer than 2 TILE rows is
    one tile.  With more than one tile each bias is added from a contiguous
    tile-shaped block of copies, which is faster than its broadcast.

    keep names what a backward will read.  "acts" keeps the scaled input
    and each hidden post-activation (a net with trainable parameters),
    written tile by tile into whole arrays.  Otherwise the scaled input and
    hidden layers are written into reused module buffers (`_buffer`), the
    hidden ones one tile high, so a frozen forward allocates only its
    output; "masks" keeps each hidden layer's relu mask in a boolean array
    (a frozen net whose input needs a gradient), and None keeps nothing.
    Returns the output, the kept list and tanh(z) of the last layer (None
    without a box)."""
    acts = keep == "acts"
    if in_scale is None:
        h0 = x
    else:
        h0 = np.multiply(x, in_scale, out=None if acts else _buffer(("in", 0), x.shape))
    m, last = len(x), len(weights) - 1
    tiles = _tiles(m, [(*w.shape, False) for w in weights])
    height = m - tiles[-1].start  # the tallest tile
    widths = [w.shape[1] for w in weights]
    if acts:
        hidden = [np.empty((m, n)) for n in widths[:-1]]
        saved = [h0] + hidden
    else:
        hidden = [_buffer(("hidden", i), (height, n)) for i, n in enumerate(widths[:-1])]
        saved = [np.empty((m, n), dtype=bool) for n in widths[:-1]] if keep else []
    out = np.empty((m, widths[-1]))
    if len(tiles) == 1:
        blocks = [b[None] for b in biases]  # added by broadcast
    else:
        blocks = [_buffer(("bias", i), (height, len(b))) for i, b in enumerate(biases)]
        for block, b in zip(blocks, biases):
            block[...] = b
    for sl in tiles:
        h = h0[sl]
        for i, w in enumerate(weights):
            z = out[sl] if i == last else hidden[i][sl] if acts else hidden[i][: len(h)]
            np.matmul(h, w, out=z)
            z += blocks[i][: len(h)]
            if i < last:
                np.maximum(z, 0.0, out=z)
                if keep == "masks":
                    np.greater(z, 0.0, out=saved[i][sl])
            h = z
    th = None
    if box is not None:
        th = np.tanh(out)
        out = box[0] + (box[1] - box[0]) * (th + 1.0) * 0.5
    return out, saved, th


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
    del visit  # visit's closure holds visit itself, and through order the tape
    root.grad = np.ones_like(root.value)
    for v in reversed(order):
        if v.bw is not None and v.grad is not None:
            v.bw(v.grad)
