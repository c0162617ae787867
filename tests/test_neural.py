import gc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    absolute,
    composed_dual_inner_min,
    composed_forward_var,
    exact_policy,
    kernel_weighted_states_loop,
    per_candidate_objective,
    per_path_rollout,
    primal_ball_lp,
    relu,
    tanh,
)
from robustdp import ambiguity as amb
from robustdp import autodiff as ad
from robustdp import dp
from robustdp import neural as nn
from robustdp.controls import ConstantSet
from robustdp.measures import DiscreteMeasure, LocalSpace

SPACE = LocalSpace(1, 1.0)


# -- forward -------------------------------------------------------------------


def test_zero_weights_output_is_final_bias():
    net = nn.Mlp(3, 2, hidden_layers=2, hidden_units=4)
    net.set_parameters([np.zeros_like(p) for p in net.parameters()])
    net.biases[-1] = np.array([1.5, -0.5])
    out = net.forward(np.ones(3))
    assert np.allclose(out, [1.5, -0.5])


def test_identity_single_linear_layer():
    net = nn.Mlp(2, 2, hidden_layers=0, hidden_units=1)
    net.set_parameters([np.eye(2), np.zeros(2)])
    x = np.array([0.3, -0.7])
    assert np.allclose(net.forward(x), x)


def test_forward_deterministic():
    net = nn.Mlp(4, 3, rng=np.random.default_rng(1))
    x = np.random.default_rng(2).normal(size=(5, 4))
    assert np.array_equal(net.forward(x), net.forward(x))


def test_forward_shape_mismatch():
    net = nn.Mlp(4, 3)
    with pytest.raises(ValueError):
        net.forward(np.ones(5))


def test_squash_keeps_output_in_box():
    net = nn.Mlp(2, 2, rng=np.random.default_rng(0), out_box=([-1.0, 0.0], [1.0, 2.0]))
    out = net.forward(np.random.default_rng(1).normal(size=(100, 2)) * 50)
    assert np.all(out[:, 0] >= -1) and np.all(out[:, 0] <= 1)
    assert np.all(out[:, 1] >= 0) and np.all(out[:, 1] <= 2)


# -- gradients -------------------------------------------------------------------


def jitter_biases(net, rng):
    # zero-initialized biases put freshly dead units exactly on relu kinks,
    # where subgradients and central differences legitimately disagree;
    # gradient checks are specified away from ties
    for i in range(len(net.biases)):
        net.biases[i] = net.biases[i] + rng.normal(0.0, 0.05, net.biases[i].shape)
    return net


def fd_check(net, loss_tape, loss_np, n_coords=4, h=1e-5):
    grads = nn.grad(net, loss_tape)
    params0 = [p.copy() for p in net.parameters()]
    rng = np.random.default_rng(0)
    worst = 0.0
    for pi, p in enumerate(params0):
        flat = p.ravel()
        for _ in range(min(n_coords, flat.size)):
            j = int(rng.integers(flat.size))
            pp = [q.copy() for q in params0]
            pp[pi].ravel()[j] += h
            pm = [q.copy() for q in params0]
            pm[pi].ravel()[j] -= h
            net.set_parameters(pp)
            up = loss_np(net)
            net.set_parameters(pm)
            dn = loss_np(net)
            fd = (up - dn) / (2 * h)
            an = grads[pi].ravel()[j]
            worst = max(worst, abs(fd - an) / max(abs(fd), 1e-6))
    net.set_parameters(params0)
    return worst


def test_linear_net_quadratic_loss_analytic():
    net = nn.Mlp(3, 1, hidden_layers=0, hidden_units=1, rng=np.random.default_rng(3))
    X = np.random.default_rng(4).normal(size=(8, 3))
    y = np.random.default_rng(5).normal(size=8)

    def tape(apply_fn):
        return ad.vmean((ad.reshape(apply_fn(X), (-1,)) - ad.const(y)) ** 2)

    grads = nn.grad(net, tape)
    w, b = net.parameters()
    resid = X @ w[:, 0] + b[0] - y
    gw = 2 * X.T @ resid / len(y)
    gb = 2 * resid.mean()
    assert np.allclose(grads[0][:, 0], gw, rtol=1e-10)
    assert grads[1][0] == pytest.approx(gb, rel=1e-10)


def test_random_net_finite_difference():
    rng = np.random.default_rng(6)
    net = jitter_biases(nn.Mlp(4, 2, hidden_layers=3, hidden_units=6, rng=rng), rng)
    X = np.random.default_rng(7).normal(size=(10, 4))

    def tape(apply_fn):
        out = apply_fn(X)
        return ad.vmean(absolute(out)) + ad.vmean(out**2)

    def loss_np(net):
        out = net.forward(X)
        return np.abs(out).mean() + (out**2).mean()

    assert fd_check(net, tape, loss_np) < 1e-4


def test_constant_loss_zero_gradient():
    net = nn.Mlp(2, 1)

    def tape(apply_fn):
        return ad.const(np.array(3.0)) + 0.0 * ad.vmean(apply_fn(np.ones((2, 2))))

    grads = nn.grad(net, tape)
    assert all(np.allclose(g, 0.0) for g in grads)


def test_gradient_through_min_over_measures():
    rng = np.random.default_rng(8)
    net = jitter_biases(nn.Mlp(2, 1, hidden_layers=2, hidden_units=5, rng=rng), rng)
    blocks = [rng.normal(size=(6, 2)) for _ in range(3)]

    def tape(apply_fn):
        per_k = [ad.reshape(ad.vmean(ad.reshape(apply_fn(b), (-1,))), (1,)) for b in blocks]
        return ad.vmin(ad.concat(per_k, axis=0), axis=0)

    def loss_np(net):
        return min(net.forward(b)[:, 0].mean() for b in blocks)

    assert fd_check(net, tape, loss_np) < 1e-4


def test_gradient_through_dual_objective():
    rng = np.random.default_rng(9)
    net = jitter_biases(nn.Mlp(1, 1, hidden_layers=2, hidden_units=5, rng=rng), rng)
    z = rng.uniform(-1, 1, size=(7, 1))
    x = rng.uniform(-1, 1, size=(5, 1))
    lam = 0.7

    def tape(apply_fn):
        psi_z = ad.reshape(apply_fn(z), (1, -1))
        dist = np.linalg.norm(x[:, None, :] - z[None, :, :], axis=-1)
        return ad.vmean(ad.vmin(psi_z + lam * ad.const(dist), axis=1)) - lam * 0.04

    def loss_np(net):
        psi_z = net.forward(z)[:, 0]
        dist = np.linalg.norm(x[:, None, :] - z[None, :, :], axis=-1)
        return np.min(psi_z[None, :] + lam * dist, axis=1).mean() - lam * 0.04

    assert fd_check(net, tape, loss_np) < 1e-4


def test_nan_loss_raises():
    net = nn.Mlp(2, 1)

    def tape(apply_fn):
        return ad.vmean(apply_fn(np.ones((1, 2)))) * ad.const(np.nan)

    with pytest.raises(FloatingPointError):
        nn.grad(net, tape)


# -- the fused network node and constant pruning ----------------------------------


def _tape_grads(forward, net, x, x_trainable, p_trainable, upstream):
    """Output, parameter gradients and input gradient of sum(upstream * net(x))."""
    xv = ad.Var(x) if x_trainable else x
    pv = [ad.Var(p) if p_trainable else ad.const(p) for p in net.parameters()]
    out = forward(net, xv, pv)
    ad.backward(ad.vsum(out * ad.const(upstream)))
    return out.value, [p.grad for p in pv], xv.grad if x_trainable else None


def _padded_tape_grads(net, x, x_trainable, upstream):
    """_tape_grads of the composed oracle on a frozen net, run on each
    zero-padded TILE-row block of x (upstream padded with zeros), the real
    rows kept: the rows a frozen network node computes on."""
    outs, grads = [], []
    for s in range(0, len(x), ad.TILE):
        rows = len(x[s:s + ad.TILE])

        def pad(a):
            return np.vstack([a[s:s + ad.TILE], np.zeros((ad.TILE - rows, a.shape[1]))])

        out, _, gx = _tape_grads(composed_forward_var, net, pad(x), x_trainable, False,
                                 pad(upstream))
        outs.append(out[:rows])
        grads.append(gx[:rows] if x_trainable else None)
    return (np.vstack(outs), [None] * len(net.parameters()),
            np.vstack(grads) if x_trainable else None)


def _mlp_case(seed, in_dim, hidden, out_dim, width, boxed, scaled):
    """A random net with nonzero biases, and the rng that drew it."""
    rng = np.random.default_rng(seed)
    box = (rng.uniform(-2, 0, out_dim), rng.uniform(0.1, 2, out_dim)) if boxed else None
    scale = rng.uniform(0.2, 3.0, in_dim) if scaled else None
    net = nn.Mlp(in_dim, out_dim, hidden, width, rng, out_box=box, in_scale=scale)
    net.biases = [rng.normal(0.0, 0.3, b.shape) for b in net.biases]
    return net, rng


# call heights: any up to 3 TILE + 17 rows, and a multiple of TILE plus 0-15
HEIGHTS = st.one_of(st.integers(1, 3 * ad.TILE + 17),
                    st.builds(lambda k, r: k * ad.TILE + r, st.integers(1, 3), st.integers(0, 15)))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 3), st.integers(0, 3), st.integers(1, 2),
       st.integers(1, 40), st.booleans(), st.booleans(), st.booleans(), st.booleans(),
       st.lists(HEIGHTS, min_size=1, max_size=3))
def test_fused_node_equals_composed_oracle(seed, in_dim, hidden, out_dim, width, boxed, scaled,
                                           x_trainable, p_trainable, heights):
    # repeated calls at changing heights, one row tile or several: a frozen
    # net's forward and every backward write reused buffers, grown when a
    # call needs more room.  A trainable net runs as one call, a frozen one
    # on zero-padded TILE-row blocks, and each oracle does the same.
    net, rng = _mlp_case(seed, in_dim, hidden, out_dim, width, boxed, scaled)
    for rows in heights:
        x = rng.normal(size=(rows, in_dim))
        upstream = rng.normal(size=(len(x), out_dim))
        upstream[rng.random(upstream.shape) < 0.2] = -0.0  # exact zeros, signed

        fused = _tape_grads(lambda n, xv, pv: n.forward_var(xv, pv), net, x, x_trainable,
                            p_trainable, upstream)
        frozen = _padded_tape_grads(net, x, x_trainable, upstream)
        oracle = frozen
        if p_trainable:
            oracle = _tape_grads(composed_forward_var, net, x, x_trainable, True, upstream)
        assert fused[0].tobytes() == oracle[0].tobytes()
        assert net.forward(x).tobytes() == net.forward_var(x).value.tobytes()
        assert net.forward(x).tobytes() == frozen[0].tobytes()
        for got, want in zip(fused[1] + [fused[2]], oracle[1] + [oracle[2]]):
            assert (got is None) == (want is None)
            assert got is None or got.tobytes() == want.tobytes()
        assert all((g is not None) == p_trainable for g in fused[1])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3), st.integers(0, 3), st.integers(1, 2),
       st.integers(1, 40), st.booleans(), st.booleans(), HEIGHTS)
def test_frozen_rows_are_batch_invariant(seed, in_dim, hidden, out_dim, width, boxed, scaled,
                                         rows):
    # a frozen net's output row, and the input gradient of its forward_var
    # node, depend on that row alone: a call of any height, a sub-batch and a
    # single-row call give the same bits
    net, rng = _mlp_case(seed, in_dim, hidden, out_dim, width, boxed, scaled)
    x = rng.normal(size=(rows, in_dim))
    upstream = rng.normal(size=(rows, out_dim))

    def run(lo, hi):
        xv = ad.Var(x[lo:hi])
        ad.backward(ad.vsum(net.forward_var(xv) * ad.const(upstream[lo:hi])))
        return net.forward(x[lo:hi]), xv.grad

    out, gx = run(0, rows)
    lo = int(rng.integers(0, rows))
    hi = int(rng.integers(lo + 1, rows + 1))
    sub_out, sub_gx = run(lo, hi)
    assert sub_out.tobytes() == out[lo:hi].tobytes()
    assert sub_gx.tobytes() == gx[lo:hi].tobytes()
    for i in rng.choice(rows, size=min(rows, 5), replace=False):
        one_out, one_gx = run(i, i + 1)
        assert one_out.tobytes() == out[i:i + 1].tobytes()
        assert one_gx.tobytes() == gx[i:i + 1].tobytes()


def _padded_forward_var(net, x):
    """The composed oracle of a frozen net as one tape expression: each
    zero-padded TILE-row block of x through composed_forward_var, the real
    rows kept (the rows of _padded_tape_grads)."""
    x = ad.as_var(x)
    outs = []
    for s in range(0, x.shape[0], ad.TILE):
        block = x[s:s + ad.TILE]
        rows = block.shape[0]
        pad = ad.const(np.zeros((ad.TILE - rows, x.shape[1])))
        outs.append(composed_forward_var(net, ad.concat([block, pad], axis=0))[:rows])
    return ad.concat(outs, axis=0)


def test_three_frozen_nodes_of_one_net_in_one_tape():
    # the per-candidate layout of Algorithm 1's objective (its oracle in
    # conftest): one frozen value net on three blocks of continuation rows
    # in one tape, their means, then the least mean.  The middle block is
    # two row tiles high.
    rng = np.random.default_rng(8)
    net = nn.Mlp(3, 1, 3, 16, rng, in_scale=[1.0, 0.5, 2.0])
    net.biases = [rng.normal(0.0, 0.3, b.shape) for b in net.biases]
    b, ns = 5, (40, 230, 40)
    blocks = [rng.normal(size=(b * n, 2)) for n in ns]
    a0 = rng.normal(size=(b, 1))
    runs = []
    for forward in (lambda x: net.forward_var(x), lambda x: _padded_forward_var(net, x)):
        a = ad.Var(a0)
        means = []
        for n, data in zip(ns, blocks):
            x = ad.concat([ad.const(data), ad.repeat_rows(a, n)], axis=1)
            means.append(ad.reshape(ad.vmean(ad.reshape(forward(x), (b, n)), axis=1), (1, b)))
        obj = ad.vmean(ad.vmin(ad.concat(means, axis=0), axis=0))
        ad.backward(obj)
        runs.append((obj.value, [m.value for m in means], a.grad))
    (obj, means, grad), (obj_o, means_o, grad_o) = runs
    assert np.array_equal(obj, obj_o) and np.array_equal(grad, grad_o)
    assert all(np.array_equal(m, mo) for m, mo in zip(means, means_o))
    assert np.any(grad != 0.0)


def test_constant_expression_has_no_parents():
    a, b = ad.const(np.ones((2, 3))), ad.as_var(np.arange(3.0))
    net = nn.Mlp(3, 1, 1, 4)
    exprs = [relu(a * b + 1.0) @ np.ones((3, 1)), ad.vmin(ad.concat([a, a]), axis=0),
             net.forward_var(a), ad.exp(ad.reshape(ad.vsum(a, axis=1), (1, 2)))]
    for e in exprs:
        assert e.parents == () and e.bw is None and not e.requires_grad
    assert ad.Var(1.0).requires_grad  # a Var made directly is a trainable leaf


def test_backward_leaves_no_reference_cycle():
    # a tape is freed when its last name goes, without the cycle collector,
    # so its arrays do not wait for a collection that may come much later
    gc.disable()
    try:
        value = np.ones(3)
        ref = weakref.ref(value)
        x = ad.Var(value)
        root = ad.vsum(relu(x) * 2.0)
        ad.backward(root)
        del x, root, value
        assert ref() is None
    finally:
        gc.enable()


def test_frozen_net_parameters_receive_no_grad():
    rng = np.random.default_rng(3)
    net = nn.Mlp(2, 1, 2, 4, rng, in_scale=[0.5, 2.0])
    frozen = [ad.const(p) for p in net.parameters()]
    x = ad.Var(rng.normal(size=(5, 2)))
    ad.backward(ad.vmean(net.forward_var(x, frozen)))
    assert all(p.grad is None for p in frozen)
    assert x.grad is not None and x.grad.shape == (5, 2)


def test_frozen_net_input_gradient_equals_oracle_tape():
    # the next-stage value of the trainers: a frozen net on data concatenated
    # with a repeated trainable action, against the padded-tile oracle of a
    # frozen node
    rng = np.random.default_rng(4)
    net = nn.Mlp(3, 1, 3, 6, rng, in_scale=[1.0, 0.5, 2.0])
    net.biases = [rng.normal(0.0, 0.3, b.shape) for b in net.biases]
    data = rng.normal(size=(12, 2))
    a0 = rng.normal(size=(4, 1))
    grads = []
    for forward in (lambda x: net.forward_var(x), lambda x: _padded_forward_var(net, x)):
        a = ad.Var(a0)
        x = ad.concat([ad.const(data), ad.repeat_rows(a, 3)], axis=1)
        ad.backward(ad.vmean(tanh(forward(x))))
        grads.append(a.grad)
    assert np.array_equal(grads[0], grads[1])


def test_backprop_zeros_for_unused_parameters():
    def fresh():
        return [ad.Var(np.array([1.5, -2.0])), ad.Var(np.ones((2, 2))), ad.Var(np.array(3.0))]

    pvars = fresh()
    grads = nn._backprop(ad.vsum(pvars[0] * pvars[0]), pvars)
    assert np.array_equal(grads[0], [3.0, -4.0])
    assert np.array_equal(grads[1], np.zeros((2, 2))) and np.array_equal(grads[2], 0.0)
    grads = nn._backprop(ad.const(np.array(2.0)) * 1.0, fresh())
    assert [g.shape for g in grads] == [(2,), (2, 2), ()] and not any(g.any() for g in grads)


# -- Adam ------------------------------------------------------------------------


def test_adam_zero_gradient_no_move():
    net = nn.Mlp(2, 1)
    params = net.parameters()
    before = [p.copy() for p in params]
    state = nn.AdamState.init(params)
    nn.adam_step(state, params, [np.zeros_like(p) for p in params])
    assert all(np.array_equal(a, b) for a, b in zip(params, before))


def test_adam_first_step_is_lr_signed():
    params = [np.array([1.0, -2.0])]
    state = nn.AdamState.init(params, lr=0.05)
    g = np.array([3.0, -0.2])
    nn.adam_step(state, params, [g])
    # bias correction makes m_hat/sqrt(v_hat) = sign(g) on step one
    assert np.allclose(params[0], [1.0 - 0.05, -2.0 + 0.05], atol=1e-6)


def test_adam_decreases_convex_quadratic():
    params = [np.array([2.0])]
    state = nn.AdamState.init(params, lr=0.1)
    vals = []
    for _ in range(2):
        vals.append(params[0][0] ** 2)
        nn.adam_step(state, params, [2 * params[0]])
    assert params[0][0] ** 2 < vals[0]


# -- dual inner value --------------------------------------------------------------


def test_dual_exact_representation_at_zero_radius():
    ref = DiscreteMeasure([[-0.4], [0.1], [0.6]], [0.2, 0.5, 0.3])
    psi = lambda z: np.sin(3 * np.atleast_2d(z)[:, 0])
    z_grid = np.vstack([ref.support, np.linspace(-1, 1, 9)[:, None]])
    val = amb.dual_inner_value(psi, ref, 0.0, 1, 1e6, z_grid)
    expect = float(ref.weights @ np.sin(3 * ref.support[:, 0]))
    assert val == pytest.approx(expect, abs=1e-6)


def test_dual_constant_psi():
    ref = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
    val = amb.dual_inner_value(lambda z: np.full(len(np.atleast_2d(z)), 2.0),
                               ref, 0.3, 1, 1.5, np.array([[0.0], [1.0]]))
    assert val == pytest.approx(2.0 - 1.5 * 0.3)


def test_dual_requires_positive_lambda_and_grid():
    ref = DiscreteMeasure.dirac([0.0])
    with pytest.raises(ValueError):
        amb.dual_inner_value(lambda z: np.zeros(1), ref, 0.1, 1, 0.0, [[0.0]])
    with pytest.raises(ValueError):
        amb.dual_inner_value(lambda z: np.zeros(0), ref, 0.1, 1, 1.0, np.zeros((0, 1)))


def test_dual_propagates_errors_of_psi():
    ref = DiscreteMeasure.dirac([0.0])
    z = np.array([[0.0], [0.5]])

    def broken(pts):
        raise KeyError("psi failed")

    with pytest.raises(KeyError):
        amb.dual_inner_value(broken, ref, 0.1, 1, 1.0, z)
    # one value for the whole stack is an error, not a retry point by point
    with pytest.raises(ValueError):
        amb.dual_inner_value(lambda pts: 0.0, ref, 0.1, 1, 1.0, z)


def test_w2_dual_by_hand():
    # one atom at 0, psi(z) = z, q = 2, eps = 0.3: the ball minimum moves the
    # atom to -0.3; the dual -1/(4 lam) - 0.09 lam is tight at lam = 5/3.  The
    # cost lam ||x - z|| gave -0.09 at lam = 1, above the primal.
    ref = DiscreteMeasure.dirac([0.0])
    z = np.linspace(-1.0, 1.0, 21)[:, None]
    psi = lambda pts: pts[:, 0]
    primal, _ = primal_ball_lp(z[:, 0], ref, z, 0.3, 2)
    assert primal == pytest.approx(-0.3, abs=1e-9)
    assert amb.dual_inner_value(psi, ref, 0.3, 2, 1.0, z) <= primal
    assert amb.dual_inner_value(psi, ref, 0.3, 2, 5.0 / 3.0, z) == pytest.approx(-0.3)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([1, 2, 3]), st.integers(1, 2),
       st.integers(1, 5), st.booleans(), st.booleans())
def test_weak_duality_against_primal_lp(seed, q, d, n, lattice, at_threshold):
    # The grid-ball infimum equals the primal LP, and the dual at every
    # lambda lies below it.  A lattice z ties costs, and integer psi ties
    # values; atoms may sit off the grid; eps is the smallest radius whose
    # ball holds a grid measure, or larger.
    # Points are multiples of 1/32.  HiGHS keeps the LP's budget only to its
    # feasibility tolerance; with an atom ~1e-3 from a grid point, that
    # slack moved the LP's value by up to 0.5 at the threshold.
    rng = np.random.default_rng(seed)
    draw = lambda k: np.round(rng.uniform(-1, 1, (k, d)) * 32) / 32
    support = draw(n)
    if lattice:
        axis = np.linspace(-1, 1, 5)
        z = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), -1).reshape(-1, d)
        if rng.random() < 0.5:
            support = rng.choice(axis, size=(n, d))
        psi_vals = rng.integers(-2, 3, len(z)).astype(float)
    else:
        z = np.vstack([support[: rng.integers(0, n + 1)], draw(8)])
        psi_vals = rng.normal(size=len(z))
    ref = DiscreteMeasure(support, rng.dirichlet(np.ones(n)))
    cost = np.linalg.norm(support[:, None] - z[None], axis=-1) ** q
    base = ref.weights @ cost.min(axis=1)
    if at_threshold:
        eps = base ** (1.0 / q)
        while eps**q < base:
            eps = np.nextafter(eps, np.inf)
    else:
        eps = (base + rng.uniform(0.01, 0.6) ** q) ** (1.0 / q)
    primal, lam_star = primal_ball_lp(psi_vals, ref, z, eps, q)
    assert abs(amb.ball_infimum(psi_vals, ref, z, eps, q) - primal) <= 1e-9
    for lam in np.append(np.geomspace(1e-3, 1e3, 31), max(lam_star, 1e-6)):
        dual = amb.dual_inner_value(lambda pts: psi_vals, ref, eps, q, lam, z)
        assert dual <= primal + 1e-9, (lam, dual, primal)


# -- inner objectives against plain-numpy oracles ---------------------------------


def psi_numpy(omega_flat, prefix, a):
    """A next value that reads the path, the past actions and the action,
    on the path flattened to (N, t d) and the past actions side by side."""
    return (np.tanh(3.0 * omega_flat.sum(axis=1)) + prefix.sum(axis=1)
            + (a * omega_flat[:, -1:]).sum(axis=1))


def psi_tape(omega_b, past, a_rep, nxt):
    """psi_numpy as the trainer calls it: paths (b, t, d) continued by
    each of their next states nxt (b, n, d), past actions a list of (b, m_s)
    arrays, the action a Var repeated n times per row; a Var (b, n)."""
    b, n, d = nxt.shape
    omega = np.concatenate([np.repeat(omega_b, n, axis=0), nxt.reshape(b * n, 1, d)], axis=1)
    omega_flat = omega.reshape(b * n, -1)
    prefix = np.concatenate([np.zeros((b * n, 0))] + [np.repeat(p, n, axis=0) for p in past],
                            axis=1)
    const = np.tanh(3.0 * omega_flat.sum(axis=1)) + prefix.sum(axis=1)
    value = ad.const(const) + ad.vsum(a_rep * ad.const(omega_flat[:, -1:]), axis=1)
    return ad.reshape(value, (b, n))


def sampled_set_oracle(a, omega_b, past, blocks):
    """min over candidates of the Monte Carlo mean of the next value."""
    b, t, d = omega_b.shape
    n_mc = blocks[0].shape[1]
    prefix = np.concatenate([np.zeros((b, 0))] + past, axis=1)
    per_k = []
    for blk in blocks:
        omega_next = np.concatenate(
            [np.repeat(omega_b.reshape(b, t * d), n_mc, axis=0), blk.reshape(b * n_mc, d)],
            axis=1,
        )
        vals = psi_numpy(omega_next, np.repeat(prefix, n_mc, axis=0), np.repeat(a, n_mc, axis=0))
        per_k.append(vals.reshape(b, n_mc).mean(axis=1))
    return np.min(np.stack(per_k), axis=0)


def dual_oracle(a, omega_b, past, states, z, lam, eps, q):
    """mean_i min_j {psi(z_j) + lam ||x_i - z_j||^q} - lam eps^q, per path."""
    b, t, d = omega_b.shape
    n_z = z.shape[0]
    prefix = np.concatenate([np.zeros((b, 0))] + past, axis=1)
    omega_next = np.concatenate(
        [np.repeat(omega_b.reshape(b, t * d), n_z, axis=0), np.tile(z, (b, 1))], axis=1
    )
    psi_z = psi_numpy(omega_next, np.repeat(prefix, n_z, axis=0),
                      np.repeat(a, n_z, axis=0)).reshape(b, 1, n_z)
    dist = np.linalg.norm(states[:, :, None, :] - z[None, None, :, :], axis=-1)
    return np.min(psi_z + lam * dist**q, axis=2).mean(axis=1) - lam * eps**q


def toy_problem(t, d):
    return SimpleNamespace(horizon=t + 1, local_space=LocalSpace(d, 1.0))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 2), st.integers(1, 2), st.integers(1, 4),
       st.integers(1, 5), st.integers(1, 4))
def test_sampled_set_objective_matches_oracle(seed, t, d, b, n_mc, n_cands):
    rng = np.random.default_rng(seed)
    ref = DiscreteMeasure(rng.uniform(-1, 1, (3, d)), rng.dirichlet(np.ones(3)))
    kern = amb.FiniteSet([amb.ConstantKernel(ref)] * n_cands)
    inner = nn._SampledSetMin(toy_problem(t, d), [kern] * (t + 1), nn.TrainConfig(), rng)
    omega_b = rng.uniform(-1, 1, (b, t, d))
    past = [rng.uniform(-1, 1, (b, 2)) for _ in range(t)]
    a = rng.uniform(-1, 1, (b, 1))
    blocks = [rng.uniform(-1, 1, (b, n_mc, d)) for _ in range(n_cands)]
    got = inner.objective(t, psi_tape, ad.Var(a), omega_b, past, blocks, [])
    np.testing.assert_allclose(got.value, sampled_set_oracle(a, omega_b, past, blocks),
                               rtol=0, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3), st.integers(0, 2),
       st.sampled_from([4, 8, 32, 33, 35]), st.booleans(), st.booleans(), st.integers(1, 8),
       st.integers(1, 139))
def test_one_call_objective_equals_per_candidate_oracle(seed, k, t, width, tied, at_horizon,
                                                        b, n_mc):
    # Algorithm 1's objective runs psi once over all K blocks, the oracle once
    # per block: the value and the action gradient agree bit for bit, through
    # the hedging feature step and a frozen value net over one row tile or
    # several, or through the terminal objective, for blocks of any size.
    from robustdp import hedging as hg

    rng = np.random.default_rng(seed)
    hp = hg.HedgingProblem(d=1, horizon=t + 1 if at_horizon else t + 2, return_bound=0.07,
                           payoff=hg.CallPayoff(1.0))
    ref = amb.ConstantKernel(DiscreteMeasure([[-0.02], [0.01], [0.03]], [0.3, 0.5, 0.2]))
    prob = hg.make_control_problem(hp, [amb.Singleton(ref)] * hp.horizon)
    prob.net_inputs = "features"
    scale = nn._input_scale(prob, t + 1)
    net = nn.Mlp(len(scale), 1, 2, width, rng, in_scale=scale)
    net.biases = [rng.normal(0.0, 0.3, b.shape) for b in net.biases]
    psi = nn._next_value(prob, t + 1, net)
    omega_b = rng.uniform(-0.07, 0.07, (b, t, 1))
    past = [rng.uniform(-1, 1, (b, spec.dim)) for spec in prob.action_specs[:t]]
    blocks = [rng.uniform(-0.07, 0.07, (b, n_mc, 1)) for _ in range(k)]
    if tied:
        blocks[-1] = blocks[0].copy()  # equal means: vmin takes the first
    a0 = rng.uniform(-1, 1, (b, prob.action_specs[t].dim))
    inner = nn._SampledSetMin(prob, prob.kernels, nn.TrainConfig(), rng)
    runs = []
    for objective in (lambda a: inner.objective(t, psi, a, omega_b, past, blocks, []),
                      lambda a: per_candidate_objective(psi, a, omega_b, past, blocks)):
        a = ad.Var(a0)
        out = objective(a)
        ad.backward(ad.vmean(out))
        runs.append((out.value.tobytes(), a.grad.tobytes()))
    assert runs[0] == runs[1]
    # a few rows may meet only dead relus; such a draw counts as no example
    assume(np.any(a.grad != 0.0))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 2), st.integers(1, 2), st.integers(1, 4),
       st.integers(1, 5), st.integers(1, 6), st.floats(-3.0, 3.0), st.integers(1, 3))
def test_dual_objective_matches_oracle(seed, t, d, b, n_mc, n_z, raw, q):
    rng = np.random.default_rng(seed)
    eps = float(rng.uniform(0.0, 0.5))
    ref = DiscreteMeasure(rng.uniform(-1, 1, (3, d)), rng.dirichlet(np.ones(3)))
    ball = amb.WassersteinBall(amb.ConstantKernel(ref), amb.ConstantRadius(eps), q)
    inner = nn._WassersteinDual(toy_problem(t, d), [ball] * (t + 1),
                                nn.TrainConfig(dual_grid=n_z))
    omega_b = rng.uniform(-1, 1, (b, t, d))
    past = [rng.uniform(-1, 1, (b, 2)) for _ in range(t)]
    a = rng.uniform(-1, 1, (b, 1))
    states, z = inner.draw(t, omega_b, n_mc, rng)
    assert states.shape == (b, n_mc, d) and z.shape == (n_z, d)
    got = inner.objective(t, psi_tape, ad.Var(a), omega_b, past, (states, z),
                          [ad.Var(np.array([raw]))])
    expect = dual_oracle(a, omega_b, past, states, z, np.exp(raw), eps, q)
    np.testing.assert_allclose(got.value, expect, rtol=0, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 2), st.integers(1, 6), st.integers(1, 8),
       st.floats(-3.0, 3.0), st.integers(1, 3))
def test_dual_objective_on_reference_atoms_is_exact_dual(seed, d, n_atoms, n_z, raw, q):
    # one empty path whose states are the atoms of a uniform reference: the
    # trainer's dual is the exact solver's dual at the same lambda
    rng = np.random.default_rng(seed)
    eps = float(rng.uniform(0.0, 0.5))
    ref = DiscreteMeasure(rng.uniform(-1, 1, (n_atoms, d)), np.full(n_atoms, 1.0 / n_atoms))
    ball = amb.WassersteinBall(amb.ConstantKernel(ref), amb.ConstantRadius(eps), q)
    inner = nn._WassersteinDual(toy_problem(0, d), [ball], nn.TrainConfig())
    z = rng.uniform(-1, 1, (n_z, d))
    f = lambda pts: np.tanh(3.0 * np.atleast_2d(pts).sum(axis=1))
    psi = lambda omega_b, past, a_rep, nxt: ad.const(f(nxt[0])[None])
    got = inner.objective(0, psi, ad.Var(np.zeros((1, 1))), np.zeros((1, 0, d)),
                          [], (ref.support[None], z), [ad.Var(np.array([raw]))])
    expect = amb.dual_inner_value(f, ref, eps, q, float(np.exp(raw)), z)
    assert got.value.shape == (1,)
    assert abs(got.value[0] - expect) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([1, 2, 3]), st.integers(1, 3), st.booleans(),
       st.booleans())
def test_dual_inner_min_equals_composed_ops(seed, q, d, tied, large):
    # bit for bit: the value and the psi and lambda gradients on Algorithm
    # 2's shapes (b, n_mc, d) x (n_z, d), and the value on the numpy
    # caller's arrays and float lambda.  Lattice points, a repeated z and
    # integer psi make ties, where the first-index rule of vmin decides.
    # The large sizes reach Algorithm 2's (48, 48, 64), where numpy's sums
    # over z are pairwise and a reordered lambda gradient would show.
    rng = np.random.default_rng(seed)
    if large:
        b, n_mc, n_z = int(rng.integers(1, 51)), int(rng.integers(1, 51)), int(rng.integers(1, 71))
    else:
        b, n_mc, n_z = (int(k) for k in rng.integers(1, 5, size=3))
    if tied:
        x = rng.integers(-2, 3, (b, n_mc, d)) / 2.0
        z = rng.integers(-2, 3, (n_z, d)) / 2.0
        z = np.vstack([z, z[:1]])
        psi = rng.integers(-2, 3, (b, 1, n_z + 1)).astype(float)
    else:
        x, z = rng.uniform(-1, 1, (b, n_mc, d)), rng.uniform(-1, 1, (n_z, d))
        psi = rng.normal(size=(b, 1, n_z))
    raw, weights = rng.normal(size=1), rng.normal(size=(b, n_mc))
    bits = []
    for f in (amb.dual_inner_min, composed_dual_inner_min):
        psi_v, raw_v = ad.Var(psi), ad.Var(raw)
        out = f(psi_v, ad.exp(raw_v), x, z, q)
        ad.backward(ad.vsum(out * ad.const(weights)))
        plain = f(psi[0, 0], float(np.exp(raw[0])), x[0], z, q).value
        bits.append([a.tobytes() for a in (out.value, psi_v.grad, raw_v.grad, plain)])
    assert bits[0] == bits[1]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([1, 2, 3]), st.integers(1, 2))
def test_dual_min_tapes_do_not_share_the_buffer(seed, q, d):
    # dual_min writes every forward into one reused buffer: two tapes built
    # before either backward, then run backward in reverse order, must each
    # give the composed oracle's gradients, and a forward on arrays alone is
    # a constant with the oracle's value.
    rng = np.random.default_rng(seed)
    shapes = [(int(rng.integers(1, 9)), int(rng.integers(1, 9)), int(rng.integers(1, 12)))
              for _ in range(2)]
    draws = [(rng.normal(size=(b, 1, n_z)), rng.normal(size=1), rng.uniform(-1, 1, (b, n_mc, d)),
              rng.uniform(-1, 1, (n_z, d)), rng.normal(size=(b, n_mc)))
             for b, n_mc, n_z in shapes]

    def tape(f, psi, raw, x, z, w):
        psi_v, raw_v = ad.Var(psi), ad.Var(raw)
        out = f(psi_v, ad.exp(raw_v), x, z, q)
        return out, ad.vsum(out * ad.const(w)), psi_v, raw_v

    fused = [tape(amb.dual_inner_min, *draw) for draw in draws]
    for _, root, _, _ in reversed(fused):
        ad.backward(root)
    for (out, _, psi_v, raw_v), draw in zip(fused, draws):
        expect, oracle, psi_o, raw_o = tape(composed_dual_inner_min, *draw)
        ad.backward(oracle)
        assert out.value.tobytes() == expect.value.tobytes()
        assert psi_v.grad.tobytes() == psi_o.grad.tobytes()
        assert raw_v.grad.tobytes() == raw_o.grad.tobytes()
    psi, raw, x, z, _ = draws[0]
    plain = amb.dual_inner_min(psi, float(np.exp(raw[0])), x, z, q)
    assert not plain.requires_grad and plain.parents == ()
    expect = composed_dual_inner_min(psi, float(np.exp(raw[0])), x, z, q).value
    assert plain.value.tobytes() == expect.tobytes()


# -- training --------------------------------------------------------------------


def quadratic_problem(target=0.3):
    ref = DiscreteMeasure([[-0.5], [0.5]], [0.5, 0.5])
    kern = amb.Singleton(amb.ConstantKernel(ref))

    def terminal(omega, actions):
        return -(actions[0][:, 0] - target) ** 2 + 0.1 * omega[:, 0, 0]

    def terminal_tape(omega, actions):
        a = ad.as_var(actions[0])
        return ad.reshape(-(a - target) ** 2, (-1,)) + ad.const(0.1 * omega[:, 0, 0])

    return dp.ControlProblem(
        1, SPACE, terminal, [ConstantSet(low=[-1.0], high=[1.0], resolution=41)], [kern],
        terminal_tape=terminal_tape,
    )


FAST = nn.TrainConfig(iter_a=600, iter_psi=1, n_mc=32, batch_size=16, seed=11,
                      hidden_layers=3, hidden_units=16, eval_mc=2000, lr=3e-3)


def test_algorithm1_matches_analytic_argmax():
    prob = quadratic_problem()
    res = nn.train_algorithm1(prob, config=FAST)
    a0 = res.policy.act(0, np.zeros((1, 0, 1)), [])[0]
    assert abs(a0[0] - 0.3) < 0.05
    assert abs(res.value_estimate) < 0.02


def test_algorithm1_seed_determinism():
    prob = quadratic_problem()
    r1 = nn.train_algorithm1(prob, config=FAST)
    r2 = nn.train_algorithm1(prob, config=FAST)
    for p, q in zip(r1.action_nets[0].parameters(), r2.action_nets[0].parameters()):
        assert np.array_equal(p, q)
    assert r1.value_estimate == r2.value_estimate


def test_algorithm2_seed_determinism():
    from robustdp import hedging as hg

    hp = hg.HedgingProblem(d=1, horizon=2, return_bound=0.1, payoff=hg.CallPayoff(1.0))
    ref = DiscreteMeasure([[-0.05], [0.0], [0.05]], [0.3, 0.4, 0.3])
    ball = amb.WassersteinBall(amb.ConstantKernel(ref), amb.ConstantRadius(0.01))
    prob = hg.make_control_problem(hp, [ball] * 2)
    cfg = nn.TrainConfig(iter_a=20, iter_psi=60, n_mc=8, batch_size=8, hidden_layers=2,
                         hidden_units=8, eval_mc=64, dual_grid=8, seed=5)
    r1 = nn.train_algorithm2(prob, config=cfg)
    r2 = nn.train_algorithm2(prob, config=cfg)
    assert r1.value_estimate == r2.value_estimate
    assert r1.lambdas == r2.lambdas
    assert r1.log == r2.log
    nets1 = r1.action_nets + r1.value_nets[:2]
    nets2 = r2.action_nets + r2.value_nets[:2]
    for n1, n2 in zip(nets1, nets2):
        for p, q in zip(n1.parameters(), n2.parameters()):
            assert np.array_equal(p, q)


@pytest.mark.parametrize("train", [nn.train_algorithm1, nn.train_algorithm2])
def test_nan_objective_raises(train):
    prob = quadratic_problem()
    ref = DiscreteMeasure([[-0.5], [0.5]], [0.5, 0.5])
    prob.kernels = [amb.WassersteinBall(amb.ConstantKernel(ref), amb.ConstantRadius(0.1))]
    terminal_tape = prob.terminal_tape
    prob.terminal_tape = lambda omega, actions: terminal_tape(omega, actions) * np.nan
    with pytest.raises(FloatingPointError):
        train(prob, config=FAST)


def test_single_measure_training_is_nonrobust():
    # a FiniteSet holding only the reference trains identically to the
    # singleton route given the same seed stream structure
    prob = quadratic_problem()
    res_single = nn.train_algorithm1(prob, config=FAST)
    ref = DiscreteMeasure([[-0.5], [0.5]], [0.5, 0.5])
    prob2 = quadratic_problem()
    prob2.kernels = [amb.FiniteSet([amb.ConstantKernel(ref)])]
    res_set = nn.train_algorithm1(prob2, config=FAST)
    a1 = res_single.policy.act(0, np.zeros((1, 0, 1)), [])[0]
    a2 = res_set.policy.act(0, np.zeros((1, 0, 1)), [])[0]
    assert abs(a1[0] - a2[0]) < 0.05


def test_policy_outputs_admissible():
    prob = quadratic_problem()
    res = nn.train_algorithm1(prob, config=FAST)
    spec = prob.action_specs[0]
    a = res.policy.act(0, np.zeros((1, 0, 1)), [])[0]
    assert spec.contains(np.zeros((0, 1)), a)


def test_algorithm2_requires_ball_kernels():
    prob = quadratic_problem()
    with pytest.raises(ValueError):
        nn.train_algorithm2(prob, config=FAST)


def test_algorithm2_zero_radius_matches_algorithm1():
    prob = quadratic_problem()
    ref = DiscreteMeasure([[-0.5], [0.5]], [0.5, 0.5])
    ball = amb.WassersteinBall(amb.ConstantKernel(ref), amb.ConstantRadius(0.0))
    prob2 = quadratic_problem()
    prob2.kernels = [ball]
    res1 = nn.train_algorithm1(prob, config=FAST)
    res2 = nn.train_algorithm2(prob2, config=FAST)
    a1 = res1.policy.act(0, np.zeros((1, 0, 1)), [])[0]
    a2 = res2.policy.act(0, np.zeros((1, 0, 1)), [])[0]
    assert abs(a1[0] - a2[0]) < 0.06
    assert abs(res1.value_estimate - res2.value_estimate) < 0.05


def test_algorithm2_value_below_nonrobust():
    # inf over a ball containing the center cannot beat the center value
    prob_ball = quadratic_problem()
    ref = DiscreteMeasure([[-0.5], [0.5]], [0.5, 0.5])
    prob_ball.kernels = [
        amb.WassersteinBall(amb.ConstantKernel(ref), amb.ConstantRadius(0.3))
    ]
    res_ball = nn.train_algorithm2(prob_ball, config=FAST)
    res_plain = nn.train_algorithm1(quadratic_problem(), config=FAST)
    assert res_ball.value_estimate <= res_plain.value_estimate + 0.03


# -- serialization ------------------------------------------------------------------


def test_net_text_round_trip():
    net = nn.Mlp(3, 2, hidden_layers=2, hidden_units=4,
                 rng=np.random.default_rng(3), out_box=([-1, -1], [1, 1]))
    text = nn.net_to_text(net)
    back = nn.net_from_text(text)
    x = np.random.default_rng(4).normal(size=(5, 3))
    assert np.allclose(net.forward(x), back.forward(x), atol=1e-15)
    assert nn.net_to_text(back) == text


@pytest.mark.parametrize("in_dim", [0, 1, 3])
@pytest.mark.parametrize("scaled", [False, True])
def test_net_text_round_trip_any_input_width(in_dim, scaled):
    # stage-0 nets have no inputs: their in_scale and first weight row are empty
    net = nn.Mlp(in_dim, 2, hidden_layers=2, hidden_units=4,
                 rng=np.random.default_rng(in_dim), out_box=([-0.5, -1], [0.5, 1]),
                 in_scale=np.linspace(0.5, 2.0, in_dim) if scaled else None)
    text = nn.net_to_text(net)
    back = nn.net_from_text(text)
    x = np.random.default_rng(5).normal(size=(4, in_dim))
    assert np.array_equal(net.forward(x), back.forward(x))
    assert nn.net_to_text(back) == text


def _corrupt_dumps():
    text = nn.net_to_text(nn.Mlp(2, 1, hidden_layers=1, hidden_units=3))
    lines = text.splitlines()
    return {
        "empty": "",
        "bad header": text.replace("robustdp-mlp v1", "robustdp-mlp v9"),
        "bad sizes": text.replace("sizes 2 3 1", "sizes two 3 1"),
        "truncated": "\n".join(lines[:-2]) + "\n",
        "short row": "\n".join(lines[:4] + [lines[4].rsplit(" ", 1)[0]] + lines[5:]),
        "non-numeric": "\n".join(lines[:-1] + ["x"]),
        "non-finite": "\n".join(lines[:-2] + ["nan " + lines[-2].split(" ", 1)[1], lines[-1]]),
        "trailing": text + "1 2 3\n",
    }


@pytest.mark.parametrize("case", sorted(_corrupt_dumps()))
def test_net_from_text_rejects_malformed_dump(case):
    with pytest.raises(ValueError):
        nn.net_from_text(_corrupt_dumps()[case])


@pytest.mark.parametrize("net_inputs", ["both", "features"])
def test_policy_for_rebuilds_trained_hedging_policy(net_inputs):
    # nets read back from text and paired with the problem as a NeuralPolicy
    # act as trained, including the hedging features the trainer fed them
    from robustdp import hedging as hg

    hp = hg.HedgingProblem(d=1, horizon=2, return_bound=0.1, payoff=hg.CallPayoff(1.0))
    ref = DiscreteMeasure([[-0.05], [0.0], [0.05]], [0.3, 0.4, 0.3])
    prob = hg.make_control_problem(hp, [amb.Singleton(amb.ConstantKernel(ref))] * 2)
    prob.net_inputs = net_inputs
    cfg = nn.TrainConfig(iter_a=3, iter_psi=3, n_mc=4, batch_size=4, hidden_layers=1,
                         hidden_units=4, eval_mc=8, seed=2)
    res = nn.train_algorithm1(prob, config=cfg)
    nets = [nn.net_from_text(nn.net_to_text(net)) for net in res.action_nets]
    loaded = nn.NeuralPolicy(prob, nets)
    omega = np.random.default_rng(3).uniform(-0.1, 0.1, size=(5, 2, 1))
    trained = dp.rollout(res.policy, omega)
    for a, b in zip(trained, dp.rollout(loaded, omega)):
        assert np.array_equal(a, b)
    past = [trained[0][:1]]
    assert np.array_equal(res.policy.act(1, omega[:1], past), loaded.act(1, omega[:1], past))


def random_policy(kind, T, d, rng):
    """A hedging problem and a policy of the given kind on it, acting on
    returns in [-0.1, 0.1]^d.  "exact" is the solver's TabularPolicy on a
    3-point grid, "delta" a Black-Scholes hedge whose premium and deltas
    meet the bounds, and "neural-*" random stage nets (0 to 2 hidden layers)
    fed both inputs or the features alone; unsquashed nets overshoot the
    action box, so the clip is exercised too."""
    from robustdp import hedging as hg

    hp = hg.HedgingProblem(d=d, horizon=T, return_bound=0.1, payoff=hg.BasketPayoff(d),
                           a_bound=0.9, b_bound=0.05)
    ref = amb.ConstantKernel(DiscreteMeasure(rng.uniform(-0.1, 0.1, (3, d)),
                                             rng.dirichlet(np.ones(3))))
    prob = hg.make_control_problem(hp, [amb.Singleton(ref)] * T, action_resolution=3)
    if kind == "exact":
        return prob, exact_policy(prob, hp.space.grid(3))
    if kind == "delta":
        return prob, hg.bs_delta_hedge(hp, rng.choice([0.05, 0.25, 0.8]),
                                       rng.choice([0.8, 1.0, 1.2]))
    prob.net_inputs = kind.split("-")[1]
    squash, layers = rng.random() < 0.5, int(rng.integers(0, 3))
    nets = [
        nn.Mlp(len(nn._input_scale(prob, t)), spec.dim, layers, 4, rng,
               out_box=(spec.low, spec.high) if squash else None,
               in_scale=nn._input_scale(prob, t))
        for t, spec in enumerate(prob.action_specs)
    ]
    return prob, nn.NeuralPolicy(prob, nets)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["exact", "delta", "neural-both",
                                                "neural-features"]),
       st.integers(1, 3), st.integers(1, 2), st.integers(1, 5))
def test_rollout_matches_per_path_actions(seed, kind, T, d, n):
    # dp.rollout on n paths against n single-row act calls, for every
    # policy type: the rows are bit-identical (a frozen net's output row
    # depends on that row alone).
    if kind in ("exact", "delta"):
        d = 1
    rng = np.random.default_rng(seed)
    prob, policy = random_policy(kind, T, d, rng)
    omega = rng.uniform(-0.1, 0.1, size=(n, T, d))
    rows = per_path_rollout(policy, omega)
    for t, (batch, spec) in enumerate(zip(dp.rollout(policy, omega), prob.action_specs)):
        assert batch.shape == rows[t].shape == (n, spec.dim)
        assert batch.tobytes() == rows[t].tobytes()
        assert np.all((spec.low <= batch) & (batch <= spec.high))


def reference_kernel(kind, wrap, d, rng):
    history = rng.uniform(-0.1, 0.1, (6, d))
    ref = {
        "constant": lambda: amb.ConstantKernel(
            DiscreteMeasure(history[:4], rng.dirichlet(np.ones(4)))),
        "kernel_weighted": lambda: amb.KernelWeighted(history, beta=50.0),
        "adaptive": lambda: amb.AdaptiveEmpirical(history),
    }[kind]()
    if wrap == "singleton":
        return amb.Singleton(ref)
    if wrap == "ball":
        return amb.WassersteinBall(ref, amb.ConstantRadius(0.01))
    other = amb.ConstantKernel(DiscreteMeasure(history[4:], [0.5, 0.5]))
    return amb.FiniteSet([ref, other])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["constant", "kernel_weighted", "adaptive"]),
       st.sampled_from(["singleton", "ball", "finite_set"]), st.integers(1, 2),
       st.integers(0, 3), st.integers(1, 5))
def test_reference_paths_draw_atoms_of_the_center(seed, kind, wrap, d, t, batch):
    rng = np.random.default_rng(seed)
    kernels = [reference_kernel(kind, wrap, d, rng) for _ in range(t)]
    omega = nn._sample_paths_reference(kernels, t, batch, rng, d)
    assert omega.shape == (batch, t, d)
    for i in range(batch):
        for s in range(t):
            support = kernels[s].center(omega[i, :s]).support
            assert np.any(np.all(support == omega[i, s], axis=1)), (i, s)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 300), st.booleans(), st.integers(1, 40),
       st.integers(1, 40))
def test_draw_states_are_choice_draws(seed, n, uniform, batch, n_mc):
    # the draws and the RNG state after them are those of rng.choice(p=...)
    rng = np.random.default_rng(seed)
    if uniform:
        w = np.full(n, 1.0 / n)
    else:
        w = rng.dirichlet(np.ones(n))
        w[rng.random(n) < 0.3] = 0.0  # exact zeros, atoms never drawn
        w[int(rng.integers(n))] += 1.0
        w /= w.sum()
    m = DiscreteMeasure(rng.normal(size=(n, 2)), w)
    r_new, r_old = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    got = nn._draw_states(m, batch, n_mc, r_new)
    want = m.support[r_old.choice(m.n_atoms, size=(batch, n_mc), p=m.weights)]
    assert np.array_equal(got, want)
    assert r_new.bit_generator.state == r_old.bit_generator.state


def test_choice_indices_at_cdf_boundaries():
    # a draw starts at its bucket's guess and steps against the cdf; draws
    # on, just below and just above every cdf value, every k/n and every
    # bucket midpoint must land where the search of rng.choice puts them,
    # for uniform weights and for weights with exact zeros (atoms never drawn)
    rng = np.random.default_rng(0)
    for n in range(1, 301):
        w = rng.dirichlet(np.ones(n))
        w[rng.random(n) < 0.3] = 0.0
        w[int(rng.integers(n))] += 1.0
        for weights in (np.full(n, 1.0 / n), w / w.sum()):
            cdf = np.cumsum(weights)
            cdf /= cdf[-1]
            edges = np.concatenate([cdf, np.arange(n + 1) / n, (np.arange(n) + 0.5) / n, [0.0]])
            u = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
            u = u[(u >= 0.0) & (u < 1.0)]
            got = nn._choice_indices(weights, u)
            assert np.array_equal(got, cdf.searchsorted(u, "right")), n
            assert np.all(weights[got] > 0.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 3), st.integers(1, 2), st.integers(1, 6),
       st.integers(1, 20), st.sampled_from([0.5, 50.0, 5e4]))
def test_kernel_weighted_draws_equal_per_path_choice_loop(seed, t, d, b, n_mc, beta):
    # one random block over all paths is the stream of one choice per path;
    # a large beta gives weights that underflow to exact zeros
    rng = np.random.default_rng(seed)
    ref = amb.KernelWeighted(rng.uniform(-0.1, 0.1, (t + 1 + int(rng.integers(1, 12)), d)),
                             beta=beta)
    omega_b = rng.uniform(-0.1, 0.1, (b, t, d))
    r_new, r_old = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    got = nn._reference_states(amb.Singleton(ref), omega_b, n_mc, r_new)
    assert np.array_equal(got, kernel_weighted_states_loop(ref, omega_b, n_mc, r_old))
    assert r_new.bit_generator.state == r_old.bit_generator.state


def test_reference_path_sampling_trains_on_a_finite_set():
    from robustdp import hedging as hg

    hp = hg.HedgingProblem(d=1, horizon=2, return_bound=0.1, payoff=hg.CallPayoff(1.0))
    refs = [amb.ConstantKernel(DiscreteMeasure([[-0.05], [0.05]], w))
            for w in ([0.5, 0.5], [0.3, 0.7])]
    prob = hg.make_control_problem(hp, [amb.FiniteSet(refs)] * 2)
    cfg = nn.TrainConfig(iter_a=3, iter_psi=3, n_mc=4, batch_size=4, hidden_layers=1,
                         hidden_units=4, eval_mc=8, path_sampling="reference")
    res = nn.train_algorithm1(prob, config=cfg)
    assert np.isfinite(res.value_estimate)


@pytest.mark.parametrize("net_inputs, feature_tape, match", [
    ("feature", True, "'feature'"),
    ("path", True, "'path'"),
    ("features", False, "feature_tape"),
])
def test_bad_net_inputs_rejected(net_inputs, feature_tape, match):
    prob = quadratic_problem()
    prob.net_inputs = net_inputs
    if feature_tape:
        prob.feature_tape = lambda t, omega_b, past, a, nxt: ad.const(
            np.zeros((nxt.shape[0] * nxt.shape[1], 1)))
    with pytest.raises(ValueError, match=match):
        nn.train_algorithm1(prob, config=FAST)
    with pytest.raises(ValueError, match=match):
        nn.NeuralPolicy(prob, [])


def test_bad_path_sampling_rejected():
    with pytest.raises(ValueError, match="path_sampling"):
        nn.TrainConfig(path_sampling="refernce")


def test_log_csv_header():
    csv_text = nn.log_to_csv([(0, "action", 1, 0.5, 1.2)])
    assert csv_text.splitlines()[0] == "stage,phase,iteration,objective,lambda"
