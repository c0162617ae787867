import itertools
import math
from types import SimpleNamespace

import numpy as np
from scipy.optimize import linprog

from robustdp import ambiguity as amb
from robustdp import autodiff as ad
from robustdp import dp
from robustdp.controls import ConstantSet
from robustdp.measures import DiscreteMeasure, LocalSpace, w_q_discrete


def dense_lp_coupling(mu, nu, q):
    """Oracle: the optimal plan and distance from the transport LP with
    dense marginal constraints, one m*n row per constraint."""
    m, n = mu.n_atoms, nu.n_atoms
    diff = mu.support[:, None, :] - nu.support[None, :, :]
    cost = np.linalg.norm(diff, axis=-1) ** q
    if m == 1:
        plan = nu.weights[None, :].copy()
        return plan, float((plan * cost).sum()) ** (1.0 / q)
    if n == 1:
        plan = mu.weights[:, None].copy()
        return plan, float((plan * cost).sum()) ** (1.0 / q)

    # one row constraint is redundant and dropped to keep the LP full rank
    a_eq = []
    b_eq = []
    for i in range(m - 1):
        row = np.zeros((m, n))
        row[i, :] = 1.0
        a_eq.append(row.ravel())
        b_eq.append(mu.weights[i])
    for j in range(n):
        col = np.zeros((m, n))
        col[:, j] = 1.0
        a_eq.append(col.ravel())
        b_eq.append(nu.weights[j])
    res = linprog(
        cost.ravel(),
        A_eq=np.array(a_eq),
        b_eq=np.array(b_eq),
        bounds=(0, None),
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    plan = np.clip(res.x.reshape(m, n), 0.0, None)
    return plan, float((plan * cost).sum()) ** (1.0 / q)


def relu(a):
    """Tape rectifier max(x, 0), subgradient 0 at the kink."""
    a = ad.as_var(a)
    return ad._op(np.maximum(a.value, 0.0), (a, lambda g: g * (a.value > 0)))


def tanh(a):
    a = ad.as_var(a)
    th = np.tanh(a.value)
    return ad._op(th, (a, lambda g: g * (1.0 - th**2)))


def absolute(a):
    a = ad.as_var(a)
    return ad._op(np.abs(a.value), (a, lambda g: g * np.sign(a.value)))


def composed_forward_var(net, x, params=None):
    """Oracle: the tape forward of an Mlp composed of elementwise ops, one
    node per input scaling, matmul, bias add, relu and squash step."""
    h = ad.as_var(x)
    if net.in_scale is not None:
        h = h * ad.const(net.in_scale)
    if params is None:
        params = [ad.const(p) for p in net.parameters()]
    last = len(net.weights) - 1
    for i in range(len(net.weights)):
        h = h @ params[2 * i] + params[2 * i + 1]
        if i < last:
            h = relu(h)
    if net.out_low is not None:
        span = net.out_high - net.out_low
        h = ad.const(net.out_low) + ad.const(span) * (tanh(h) + 1.0) * 0.5
    return h


def kr_dual_check(mu, nu):
    """Oracle: W_1 from the dual, maximize sum f_i (mu_i - nu_i) over
    potentials f restricted to the joint support, subject to the pairwise
    Lipschitz constraints |f_i - f_j| <= ||x_i - x_j||.

    On finite supports strong duality holds, so this equals w_q_discrete
    with q = 1 up to solver tolerance.
    """
    points = np.vstack([mu.support, nu.support])
    signed = np.concatenate([mu.weights, -nu.weights])
    k = points.shape[0]
    dists = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=-1)

    rows, rhs = [], []
    for i in range(k):
        for j in range(i + 1, k):
            row = np.zeros(k)
            row[i], row[j] = 1.0, -1.0
            rows.append(row)
            rhs.append(dists[i, j])
            rows.append(-row)
            rhs.append(dists[i, j])
    # fix the gauge f_0 = 0 (objective is invariant to constants)
    a_eq = np.zeros((1, k))
    a_eq[0, 0] = 1.0
    res = linprog(
        -signed,
        A_ub=np.array(rows),
        b_ub=np.array(rhs),
        A_eq=a_eq,
        b_eq=[0.0],
        bounds=(None, None),
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"KR dual LP failed: {res.message}")
    return float(-res.fun)


def primal_ball_lp(psi_vals, reference, z_grid, eps, q=1):
    """Oracle: min E_nu[psi] over measures nu supported on z_grid with
    W_q(reference, nu) <= eps, as an explicit transport LP: the coupling
    cost sum pi_ij ||x_i - z_j||^q is at most eps^q.

    Variables are the coupling entries pi(x_i, z_j); returns the optimal
    value and the dual multiplier of the cost constraint (the lambda at
    which the Lagrangian dual is tight).
    """
    z = np.atleast_2d(z_grid)
    n_ref, n_z = reference.n_atoms, z.shape[0]
    cost = np.linalg.norm(
        reference.support[:, None, :] - z[None, :, :], axis=-1
    ) ** q
    c = np.tile(np.asarray(psi_vals, dtype=float), n_ref)
    a_eq = np.zeros((n_ref, n_ref * n_z))
    for i in range(n_ref):
        a_eq[i, i * n_z : (i + 1) * n_z] = 1.0
    res = linprog(
        c,
        A_ub=cost.ravel()[None, :],
        b_ub=[eps**q],
        A_eq=a_eq,
        b_eq=reference.weights,
        bounds=(0, None),
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"ball LP failed: {res.message}")
    lam = float(-res.ineqlin.marginals[0]) if res.ineqlin.marginals.size else 0.0
    return float(res.fun), lam


def random_tabular_instance(rng, max_horizon=3, enum_guard=200_000):
    """Random tiny max-min instance whose brute force stays enumerable.

    Grids, action sets, and candidate counts are drawn at the spec's
    acceptance maxima (T <= 3, |grid| <= 4, |actions| <= 3, <= 3 measures)
    subject to the enumeration guard, so T = 3 draws get binary grids.
    """
    while True:
        horizon = int(rng.integers(1, max_horizon + 1))
        n_grid = int(rng.integers(2, 5)) if horizon <= 2 else 2
        n_actions = int(rng.integers(2, 4)) if horizon <= 2 else 2
        n_measures = int(rng.integers(1, 4))
        n_policies = 1
        n_selections = 1
        nodes = sum(n_grid**t for t in range(horizon))
        n_policies = n_actions**nodes
        n_selections = n_measures**nodes
        if n_policies * n_selections <= enum_guard:
            break

    space = LocalSpace(1, 1.0)
    g = np.sort(rng.uniform(-1.0, 1.0, size=n_grid))[:, None]
    acts = np.sort(rng.uniform(-1.0, 1.0, size=n_actions))[:, None]
    coefs = rng.normal(size=(horizon, 4))

    def terminal(omega, actions, c=coefs):
        total = np.zeros(len(omega))
        for t, a in enumerate(actions):
            a, w = a[:, 0], omega[:, t, 0]
            total += (
                c[t, 0] * a * w
                + c[t, 1] * np.abs(a - w)
                + c[t, 2] * w
                + c[t, 3] * a * a
            )
        return total

    kernels = []
    for _ in range(horizon):
        refs = []
        for _ in range(n_measures):
            k = int(rng.integers(1, n_grid + 1))
            pts = g[rng.choice(n_grid, size=k, replace=False)]
            refs.append(
                amb.ConstantKernel(DiscreteMeasure(pts, rng.dirichlet(np.ones(k))))
            )
        kernels.append(amb.FiniteSet(refs))

    problem = dp.ControlProblem(
        horizon, space, terminal, [ConstantSet(points=acts)] * horizon, kernels
    )
    candidates = dp.build_candidates(problem, g, dp.sampler_from_kernel(1))
    return problem, g, candidates


def _prefix_keys(grids, node):
    """All action-index tuples for the stages strictly before len(node)."""
    ranges = [range(len(grids[(s, node[:s])])) for s in range(len(node))]
    return itertools.product(*ranges)


def dict_backward_induction(problem, local_grid, candidates, dual_bound=False):
    """Oracle: backward induction on dict tables keyed by (node, action key),
    one terminal call on a batch of one and one Python loop per entry.

    Returns a namespace with the value, the dict tables psi, j, argmin and
    argmax, chosen (action index per node of the optimal policy), composed
    (worst-case measure per node along it) and dual_lower_bound.
    """
    T = problem.horizon
    n = len(local_grid)
    grids = dp._action_grids(problem, local_grid)

    psi = [dict() for _ in range(T + 1)]
    jt = [dict() for _ in range(T)]
    argmax = [dict() for _ in range(T)]
    argmin = [dict() for _ in range(T)]
    psi_low = [dict() for _ in range(T + 1)] if dual_bound else None

    for node in itertools.product(range(n), repeat=T):
        omega = local_grid[list(node)]
        for akey in _prefix_keys(grids, node):
            val = dp._terminal_at(problem, omega, dp._actions_from_key(grids, node, akey))
            if math.isnan(val):
                raise ValueError("terminal utility returned NaN")
            psi[T][(node, akey)] = val
            if dual_bound:
                psi_low[T][(node, akey)] = val

    snap_cache = {}

    def snapped(t, node, ci, m):
        key = (t, node, ci)
        if key not in snap_cache:
            snap_cache[key] = [dp.nearest_index(local_grid, x) for x in m.support]
        return snap_cache[key]

    for t in range(T - 1, -1, -1):
        for node in itertools.product(range(n), repeat=t):
            cands = candidates[(t, node)]
            agrid = grids[(t, node)]
            kernel = problem.kernels[t]
            path = local_grid[list(node)]
            for ak in _prefix_keys(grids, node):
                best_psi = None
                best_ai = None
                for ai in range(len(agrid)):
                    fk = ak + (ai,)
                    best_j = None
                    best_ci = None
                    for ci, m in enumerate(cands):
                        idx = snapped(t, node, ci, m)
                        val = 0.0
                        for w, gi in zip(m.weights, idx):
                            val += w * psi[t + 1][(node + (gi,), fk)]
                        if best_j is None or val < best_j:
                            best_j, best_ci = val, ci
                    jt[t][(node, fk)] = best_j
                    argmin[t][(node, fk)] = best_ci
                    if best_psi is None or best_j > best_psi:
                        best_psi, best_ai = best_j, ai
                psi[t][(node, ak)] = best_psi
                argmax[t][(node, ak)] = best_ai

                if dual_bound:
                    eps = (
                        kernel.eps(path)
                        if isinstance(kernel, amb.WassersteinBall)
                        else 0.0
                    )
                    use_dual = isinstance(kernel, amb.WassersteinBall) and eps > 0
                    low_best = None
                    for ai in range(len(agrid)):
                        fk = ak + (ai,)
                        if use_dual:
                            ref = kernel.center(path)
                            # each grid point takes its nearest node's value
                            psi_vals = [
                                psi_low[t + 1][(node + (dp.nearest_index(local_grid, z),), fk)]
                                for z in local_grid
                            ]
                            low = amb.ball_infimum(
                                psi_vals, ref, local_grid, eps, kernel.order
                            )
                        else:
                            low = None
                            for ci, m in enumerate(cands):
                                idx = snapped(t, node, ci, m)
                                val = sum(
                                    w * psi_low[t + 1][(node + (gi,), fk)]
                                    for w, gi in zip(m.weights, idx)
                                )
                                low = val if low is None else min(low, val)
                        low_best = low if low_best is None else max(low_best, low)
                    psi_low[t][(node, ak)] = low_best

    chosen = [dict() for _ in range(T)]
    chosen[0][()] = argmax[0][((), ())]
    for t in range(1, T):
        for node in itertools.product(range(n), repeat=t):
            ak = tuple(chosen[s][node[:s]] for s in range(t))
            chosen[t][node] = argmax[t][(node, ak)]
    composed = [dict() for _ in range(T)]
    for t in range(T):
        for node in itertools.product(range(n), repeat=t):
            fk = tuple(chosen[s][node[:s]] for s in range(t + 1))
            composed[t][node] = candidates[(t, node)][argmin[t][(node, fk)]]
    return SimpleNamespace(
        value=psi[0][((), ())],
        psi=psi,
        j=jt,
        argmin=argmin,
        argmax=argmax,
        chosen=chosen,
        composed=composed,
        dual_lower_bound=psi_low[0][((), ())] if dual_bound else None,
    )


def dict_serialize_tables(psi, j):
    """Oracle: the value-table text written straight from dict tables."""
    lines = ["robustdp-valuetable v1"]
    for label, tables in (("PSI", psi), ("J", j)):
        for t, table in enumerate(tables):
            for (node, akey), val in sorted(table.items()):
                node_s = ",".join(map(str, node))
                akey_s = ",".join(map(str, akey))
                lines.append(f"{label} {t} [{node_s}] [{akey_s}] {val:.17g}")
    return "\n".join(lines) + "\n"


def table_dict(result, tables, t):
    """The valid entries of the stage-t array table of a SolveResult as the
    dict {(node, action key): value} that the dict solver builds.  Tables
    laid out as psi (2-D) take keys of length t, as J (3-D) of length t+1."""
    n = len(result.local_grid)
    width = t + (np.ndim(tables[t]) == 3)
    mask = result.valid[width][:: n ** (width - t)]
    radices = [table.shape[2] for table in result.j_tables]
    nodes = list(itertools.product(range(n), repeat=t))
    keys = list(itertools.product(*map(range, radices[:width])))
    flat = np.asarray(tables[t]).reshape(len(nodes), len(keys))
    return {
        (nodes[u], keys[p]): flat[u, p].item() for u, p in zip(*np.nonzero(mask))
    }


def per_candidate_objective(psi, a, omega_b, past, blocks):
    """Oracle: Algorithm 1's objective with one psi call per candidate block,
    the per-path least candidate mean of psi as a Var (b,): each block's
    next states continue every path under the action repeated n_mc times."""
    b, n_mc = blocks[0].shape[:2]
    a_rep = ad.repeat_rows(a, n_mc)
    means = [ad.reshape(ad.vmean(psi(omega_b, past, a_rep, blk), axis=1), (1, b))
             for blk in blocks]
    return ad.vmin(ad.concat(means, axis=0), axis=0)


def norm_cost_matrix(x, z, q):
    """Oracle: the ground costs ||x_i - z_j||^q (..., m, n) as the norm of the
    differences of x (..., m, d) and z (..., n, d), to the q-th power."""
    return np.linalg.norm(x[..., :, None, :] - z[..., None, :, :], axis=-1) ** q


def composed_dual_inner_min(psi_z, lam, x, z, q):
    """Oracle: the W_q dual's inner minimum as composed tape ops, the norm of
    the differences, its q-th power, psi_z + lam * cost and vmin over z."""
    return ad.vmin(ad.as_var(psi_z) + lam * ad.const(norm_cost_matrix(x, z, q)), axis=-1)


def kernel_weighted_weights_loop(ref, path):
    """Oracle: a KernelWeighted reference's successor weights along one path
    (t, d), one window at a time."""
    t, n = path.shape[0], ref.history.shape[0]
    flat = path.ravel()
    logits = np.empty(n - t)
    for s in range(t, n):
        window = ref.history[s - t : s].ravel()
        logits[s - t] = -ref.beta * float(np.sum((window - flat) ** 2))
    logits -= logits.max()
    w = np.exp(logits)
    return w / w.sum()


def constant_states_choice(measure, b, n_mc, rng):
    """Oracle: ConstantKernel draws (b, n_mc, d) from one rng.choice call
    over the measure's weights."""
    return measure.support[rng.choice(measure.n_atoms, size=(b, n_mc), p=measure.weights)]


def adaptive_states_loop(ref, omega_b, n_mc, rng):
    """Oracle: AdaptiveEmpirical draws (b, n_mc, d) with one rng.integers
    call per path over the atoms of that path's measure ref(path)."""
    out = []
    for path in omega_b:
        m = ref(path)
        out.append(m.support[rng.integers(0, m.n_atoms, size=n_mc)])
    return np.stack(out)


def kernel_weighted_states_loop(ref, omega_b, n_mc, rng):
    """Oracle: KernelWeighted reference draws (b, n_mc, d) with one
    rng.choice call per path, over the window weights of that path."""
    hist = ref.history
    n = hist.shape[0]
    b, t, d = omega_b.shape
    windows = np.stack([hist[s - t : s].ravel() for s in range(t, n)])
    flat = omega_b.reshape(b, t * d)
    logits = -ref.beta * ((windows[None, :, :] - flat[:, None, :]) ** 2).sum(-1)
    logits -= logits.max(axis=1, keepdims=True)
    w = np.exp(logits)
    w /= w.sum(axis=1, keepdims=True)
    out = np.empty((b, n_mc, d))
    atoms = hist[t:n]
    for i in range(b):
        out[i] = atoms[rng.choice(n - t, size=n_mc, p=w[i])]
    return out


def full_path_wealth_tape(prices, actions):
    """Oracle: the wealth Var (N,) after the stage actions at the prices
    (N, T+1, d), from the price increments of the whole path."""
    incr = np.diff(prices, axis=1)
    a0 = ad.as_var(actions[0])
    wealth = ad.reshape(a0[:, 0:1], (-1,))
    deltas = [a0[:, 1:]] + [ad.as_var(a) for a in actions[1:]]
    for j, dl in enumerate(deltas):
        wealth = wealth + ad.vsum(dl * ad.const(incr[:, j, :]), axis=1)
    return wealth


def full_path_features(problem, t, omega, actions):
    """Oracle: the hedging features at stage t (price displacement and
    wealth) from the whole paths omega (N, t, d), prices rebuilt by cumprod."""
    from robustdp.hedging import prices_from_returns

    C = problem.return_bound
    if t == 0:
        return ad.const(np.zeros((omega.shape[0], 0)))
    prices = prices_from_returns(omega, problem.s0)
    s_t = (prices[:, -1, :] - problem.s0) / C
    w_feat = ad.reshape(full_path_wealth_tape(prices, actions), (-1, 1)) * (1.0 / (4.0 * C))
    return ad.concat([ad.const(s_t), w_feat], axis=1)


def exact_policy(problem, grid):
    """The exact solver's TabularPolicy on a grid, each node's reference
    measure its one candidate."""
    cands = dp.build_candidates(problem, grid, dp.sampler_from_kernel(1))
    return dp.backward_induction_exact(problem, grid, cands).policy


def per_path_rollout(policy, omega):
    """Oracle of dp.rollout: single-row act calls, path by path and stage
    by stage, each path fed its own past actions; the rows are stacked into
    rollout's list of T arrays (N, m_t)."""
    per_path = []
    for i in range(len(omega)):
        actions = []
        for t in range(omega.shape[1]):
            actions.append(policy.act(t, omega[i : i + 1], actions))
        per_path.append(actions)
    return [np.concatenate([acts[t] for acts in per_path]) for t in range(omega.shape[1])]


def bounds_tree_paths(inp, depth):
    """Oracle: the stage-`depth` paths of the true kernels' tree, rebuilt
    from the root after a dimension probe, once per level read."""
    paths = [np.zeros((0, inp.true_kernels[0](np.zeros((0, 1))).dimension))]
    for t in range(depth):
        nxt = []
        for p in paths:
            m = inp.true_kernels[t](p)
            for x in m.support:
                nxt.append(np.vstack([p, x[None, :]]))
        paths = nxt
    return paths


def bounds_mu_recursion(kind, inp):
    """Oracle for bounds.mu_recursion: every (s, t) level walks the tree
    from the root and reads each child's value by its path key."""
    T, alpha = inp.horizon, inp.alpha
    tables, s0 = [], np.zeros(T)
    for s in range(T):
        level = {}

        def leaf(path):
            if kind == "err":
                true_m = inp.true_kernels[s](path)
                ref_m = inp.ref_kernels[s](path)
                return w_q_discrete(true_m, ref_m, 1) ** alpha
            return float(inp.radius[s](path)) ** alpha

        level[s] = {amb.path_key(p): leaf(p) for p in bounds_tree_paths(inp, s)}
        for t in range(s - 1, -1, -1):
            level[t] = {}
            for p in bounds_tree_paths(inp, t):
                m = inp.true_kernels[t](p)
                val = 0.0
                for w, x in zip(m.weights, m.support):
                    val += w * level[t + 1][amb.path_key(np.vstack([p, x[None, :]]))]
                level[t][amb.path_key(p)] = val
        tables.append(level)
        s0[s] = level[0][amb.path_key(bounds_tree_paths(inp, 0)[0])]
    return tables, s0


def bounds_in_ball_error(inp):
    """Oracle: the message for the first tree node, stage by stage, where
    the true kernel leaves the reference's W_1 ball, or None."""
    for t in range(inp.horizon):
        for p in bounds_tree_paths(inp, t):
            dist = w_q_discrete(inp.ref_kernels[t](p), inp.true_kernels[t](p), 1)
            eps = float(inp.radius[t](p))
            if dist > eps + 1e-9:
                return (f"true kernel leaves the ball at stage {t}, "
                        f"path {amb.path_key(p)}: distance {dist} > radius {eps}")
    return None


def nonconsuming_backward(root):
    """Oracle: reverse mode that leaves the graph as it found it, a recursive
    post-order from the root, then every node's closure in reverse order."""
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


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def _around(points):
    """Each point and its two float neighbours."""
    p = np.asarray(points, dtype=float)
    return np.concatenate([p, np.nextafter(p, -np.inf), np.nextafter(p, np.inf)])


# normal.ndtr switches from erf to erfc at |x| = 1, to the exp branch at
# sqrt(2), from P/Q to R/S at 8 sqrt(2), and underflows to 0 or 1 beyond about
# 37.5 / 38.5
NDTR_EDGES = _around([0.0, 1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), 37.5, 37.52,
                      38.4, 38.47, 38.5, 40.0, 1e300])
NDTR_EDGES = np.concatenate([NDTR_EDGES, -NDTR_EDGES, [math.inf, -math.inf, math.nan,
                                                       -math.nan, 5e-324, -5e-324]])
# normal.ndtri: the centre ends at exp(-2) and 1 - exp(-2); the tails switch
# from P1/Q1 to P2/Q2 at exp(-32); 0 and 1 give -inf and inf, the rest is nan
NDTRI_EDGES = np.concatenate([
    _around([math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0), 1.0 - math.exp(-32.0),
             0.5, 1e-300]),
    [0.0, -0.0, 1.0, 5e-324, 2.2250738585072014e-308, 1.0 - 2.0**-53, 1.0 + 2.0**-52,
     -5e-324, -1.0, 2.0, math.inf, -math.inf, math.nan, -math.nan],
])
