"""Exact max-min solver on fully discretized instances.

Backward induction over the path tree: at each node the adversary picks
the candidate measure minimizing the expected continuation value, then the
controller picks the action maximizing that worst case.  A brute-force
enumeration over all tabular policies and adversary selections serves as
the oracle the solver is tested against.  Both read the objective through
the one batched ControlProblem.terminal, the oracle on batches of one.

Paths are tuples of indices into a finite local grid; candidate measures
with off-grid atoms are snapped to the nearest grid point (lowest index on
ties) for continuation lookups, so solver and oracle share one convention.

The solver keeps one array per stage and table.  Nodes and action keys
become mixed-radix ids (see SolveResult), action grids of different sizes
are padded to the largest one of their stage, and each candidate's snapped
support becomes (index, weight) arrays built once.  The terminal layer is
one call of the problem's batched terminal; a stage step gathers
the child values, adds them atom by atom in support order (the order of
the scalar sum, so values are bit-identical to it), then takes the
first-index argmin over candidates and argmax over real actions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .ambiguity import (
    WassersteinBall,
    ball_infimum,
    sample_measures,
    membership,
)
from .measures import cost_matrix, moment

__all__ = [
    "ControlProblem",
    "TabularPolicy",
    "WorstCaseKernel",
    "SolveResult",
    "build_candidates",
    "sampler_from_kernel",
    "pool_sampler",
    "backward_induction_exact",
    "brute_force_value",
    "evaluate_policy",
    "rollout",
    "holder_constant_recursion",
    "nearest_index",
    "serialize_tables",
]


@dataclass
class ControlProblem:
    """Finite-horizon max-min control problem.

    terminal(omega, actions) is the objective Psi of every solver: on
    paths omega (N, T, d) with actions[t] of shape (N, m_t) it returns (N,)
    values, each row depending on that row alone.  The exact solver makes
    one call for its terminal layer, the oracles batches of one.
    holder, when supplied, carries the declared regularity data
    {"L_psi", "alpha", "C_psi"} consumed by the bounds module.
    The neural trainers read terminal_tape(omega, actions), the same
    objective as a tape Var (N,), and two network-input fields: the step
    feature_tape of neural._continuation, when supplied, and net_inputs,
    "both" (path, actions and features) or "features" (features alone).
    """

    horizon: int
    local_space: object
    terminal: object
    action_specs: list
    kernels: list
    growth_p: int = 0
    holder: dict = None
    growth_c_p: list = None
    terminal_tape: object = None
    feature_tape: object = None
    net_inputs: str = "both"

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if len(self.action_specs) != self.horizon:
            raise ValueError("need one action spec per stage")
        if len(self.kernels) != self.horizon:
            raise ValueError("need one ambiguity kernel per stage")
        for k in self.kernels:
            if isinstance(k, WassersteinBall) and k.order <= self.growth_p:
                raise ValueError(
                    f"ball order {k.order} must exceed growth exponent {self.growth_p}"
                )
        if self.holder is not None:
            alpha = self.holder.get("alpha", 1.0)
            if not 0.0 < alpha <= 1.0:
                raise ValueError("Holder exponent must lie in (0, 1]")


def nearest_index(local_grid, x):
    """Index of the grid point closest to x; lowest index wins ties."""
    return int(_nearest_rows(local_grid, np.asarray(x, dtype=float).reshape(1, -1))[0])


def _nearest_rows(local_grid, points):
    """nearest_index of every row of points (N, d) at once."""
    return np.argmin(cost_matrix(points, local_grid, 1), axis=1)


def sampler_from_kernel(n_measures):
    """The sampler sample_measures(kernel, path, n_measures, rng): n_measures
    candidates from a ball, the center of a singleton, a finite set's members."""
    return lambda kernel, path, rng: sample_measures(kernel, path, n_measures, rng)


def pool_sampler(pool):
    """Candidates = center plus every pool measure inside the ball.

    Because the admitted subset grows with the radius, robust values built
    from one fixed pool are exactly monotone in the radius.
    """

    def sampler(kernel, path, rng):
        out = [kernel.center(path)]
        for m in pool:
            ok, _ = membership(kernel, path, m)
            if ok:
                out.append(m)
        return out

    return sampler


def build_candidates(problem, local_grid, sampler, rng=None):
    """Materialize the candidate-measure dict (t, node) -> [measures], the
    list at a node being sampler(kernel, path, rng).

    Sampling happens once, in deterministic node order, so the same dict
    feeds both the solver and the brute-force oracle.
    """
    n = len(local_grid)
    out = {}
    for t in range(problem.horizon):
        for node in itertools.product(range(n), repeat=t):
            path = local_grid[list(node)]
            cands = sampler(problem.kernels[t], path, rng)
            if not cands:
                raise ValueError(f"empty candidate set at stage {t}, node {node}")
            if problem.growth_c_p is not None:
                cap = problem.growth_c_p[t] * (
                    1.0
                    + sum(
                        np.linalg.norm(p) ** problem.growth_p for p in path
                    )
                )
                for m in cands:
                    if moment(m, problem.growth_p) > cap + 1e-9:
                        raise ValueError(
                            f"candidate at stage {t} violates the moment bound"
                        )
            out[(t, node)] = cands
    return out


class TabularPolicy:
    """The exact solver's optimal policy, one lookup table per stage.

    stage_actions[t] is an (n^t, m_t) array whose row u is the action at
    the grid node of mixed-radix id u (see SolveResult).  act snaps each
    stage column of the paths to its nearest grid point (lowest index on
    ties), looks up that node's action and clamps it with the action set's
    clamp into the set at the real path; the past actions are not read."""

    def __init__(self, local_grid, stage_actions, action_specs):
        self.local_grid = local_grid
        self.stage_actions = stage_actions
        self.action_specs = action_specs

    def act(self, t, omega, past):
        """Stage-t actions (N, m_t) along paths omega (N, >= t, d)."""
        u = np.zeros(len(omega), dtype=np.intp)
        for s in range(t):
            u = u * len(self.local_grid) + _nearest_rows(self.local_grid, omega[:, s])
        spec = self.action_specs[t]
        return np.stack([
            spec.clamp(path, a) for path, a in zip(omega[:, :t], self.stage_actions[t][u])
        ])


def rollout(policy, omega):
    """Stage actions of a policy along full paths omega (N, T, d), as a
    list of T arrays (N, m_t).

    This is the one stage loop over policies.  Every policy has one method,
    act(t, omega, past): the stage-t actions (N, m_t) along paths omega
    (N, >= t, d) after the past actions past, a list of t arrays (N, m_s);
    it reads only the first t columns of omega."""
    omega = np.asarray(omega, dtype=float)
    actions = []
    for t in range(omega.shape[1]):
        actions.append(policy.act(t, omega, actions))
    return actions


class WorstCaseKernel:
    """The adversary's side of the solution.

    argmin_tables[t] (n^t, P_t, K_t), laid out as the J tables (see
    SolveResult), holds the index of the minimizing candidate at every
    node, action key and stage-t action.  measure(t, path) is the composed
    worst case along the optimal policy: it snaps each row of path (t, d)
    to its nearest grid point (lowest index on ties) and returns that
    node's minimizing measure."""

    def __init__(self, local_grid, argmin_tables, composed):
        self.local_grid = local_grid
        self.argmin_tables = argmin_tables
        self.composed = composed  # [t][node] -> measure (optimal-policy path)

    def measure(self, t, path):
        path = np.asarray(path, dtype=float).reshape(t, self.local_grid.shape[1])
        node = tuple(nearest_index(self.local_grid, x) for x in path)
        return self.composed[t][node]


@dataclass
class SolveResult:
    """Solution of the discretized problem.

    psi_tables[t] has shape (n^t, P_t) and j_tables[t] shape (n^t, P_t, K_t):
    a row is a node (i_0, ..., i_{t-1}) of grid indices, with mixed-radix
    id sum_s i_s n^(t-1-s); a column is an action key (a_0, ..., a_{t-1}),
    with radices K_s, the largest stage-s action grid over nodes.  Where an
    action grid is smaller than K_s the key is padding: valid[t] (n^t, P_t)
    marks the entries that exist, and the J entries of stage t are valid
    exactly where valid[t + 1][::n] is.  Padded entries hold arbitrary
    numbers.  argmax_tables[t] (n^t, P_t) is the controller's action index
    after every action key; worst_case.argmin_tables holds the adversary's.
    dual_lower_bound (None unless solved with dual_bound=True) is the exact
    grid-ball value: the same recursion with each Wasserstein ball of
    positive radius searched over every measure on the local grid inside
    it.
    """

    value: float
    psi_tables: list
    j_tables: list
    policy: TabularPolicy
    worst_case: WorstCaseKernel
    action_grids: dict
    local_grid: object
    dual_lower_bound: float = None
    chosen_idx: list = field(default_factory=list)
    valid: list = field(default_factory=list)
    argmax_tables: list = field(default_factory=list)


def _action_grids(problem, local_grid):
    """grids[(t, node)] = finite action list at that node."""
    n = len(local_grid)
    grids = {}
    for t in range(problem.horizon):
        for node in itertools.product(range(n), repeat=t):
            path = local_grid[list(node)]
            grids[(t, node)] = problem.action_specs[t].grid(path)
    return grids


def _actions_from_key(grids, node, akey):
    return [grids[(s, node[:s])][akey[s]] for s in range(len(akey))]


def _stage_actions(grids, t, n):
    """Stage-t action grids zero-padded to (n^t, K_t, m_t), and the number
    of real actions per node (n^t,)."""
    rows = [grids[(t, node)] for node in itertools.product(range(n), repeat=t)]
    counts = np.array([len(r) for r in rows])
    out = np.zeros((len(rows), counts.max(), rows[0].shape[1]))
    for u, r in enumerate(rows):
        out[u, : len(r)] = r
    return out, counts


def _snapped_supports(local_grid, cands_by_node):
    """Candidates of one stage as (n^t, C, L) arrays: the grid index each
    atom snaps to, its weight, and whether the atom exists.  Short supports
    and short candidate lists are padded with weight 0 and live False."""
    C = max(len(cands) for cands in cands_by_node)
    L = max(m.n_atoms for cands in cands_by_node for m in cands)
    shape = (len(cands_by_node), C, L)
    idx = np.zeros(shape, dtype=np.intp)
    w = np.zeros(shape)
    live = np.zeros(shape, dtype=bool)
    for u, cands in enumerate(cands_by_node):
        for c, m in enumerate(cands):
            idx[u, c, : m.n_atoms] = _nearest_rows(local_grid, m.support)
            w[u, c, : m.n_atoms] = m.weights
            live[u, c, : m.n_atoms] = True
    return idx, w, live


def _candidate_min(child, idx, w, live):
    """Adversary step: expected child value of every candidate, then the
    minimum over candidates and its lowest index.

    child is (n^t, n, Q), the next-stage table with rows split into parent
    node and last grid index.  Atoms are added one position at a time in
    support order, as the scalar sum  0.0 + w_0 psi_0 + w_1 psi_1 + ...,
    so every value is bit-identical to that loop; a padded atom adds +0.0
    even where its gathered value is infinite.  Returns (n^t, Q) values and
    indices."""
    rows = np.arange(len(child))[:, None]
    acc = np.zeros(idx.shape[:2] + child.shape[2:])  # (n^t, C, Q)
    for l in range(idx.shape[2]):
        term = w[:, :, l, None] * child[rows, idx[:, :, l]]
        acc += np.where(live[:, :, l, None], term, 0.0)
    acc[~live[:, :, 0]] = np.inf
    best = np.argmin(acc, axis=1)
    return np.take_along_axis(acc, best[:, None], axis=1)[:, 0], best


def _controller_max(j, counts):
    """Controller step on (n^t, P_t, K_t) values: the maximum over each
    node's real actions and its lowest index."""
    real = np.arange(j.shape[2]) < counts[:, None, None]
    best = np.argmax(np.where(real, j, -np.inf), axis=2)
    return np.take_along_axis(j, best[..., None], axis=2)[..., 0], best


def _terminal_layer(problem, local_grid, stage, valid):
    """psi_T on its (n^T, P_T) layout: one terminal call on the valid
    entries, zeros on padding."""
    T = problem.horizon
    n = len(local_grid)
    u, p = np.nonzero(valid)
    nodes = np.stack(np.unravel_index(u, (n,) * T), axis=1)
    keys = np.unravel_index(p, [acts.shape[1] for acts, _ in stage])
    omega = local_grid[nodes]  # (N, T, d)
    actions = [acts[u // n ** (T - s), keys[s]] for s, (acts, _) in enumerate(stage)]
    vals = np.asarray(problem.terminal(omega, actions), dtype=float)
    if np.isnan(vals).any():
        raise ValueError("terminal utility returned NaN")
    psi = np.zeros(valid.shape)
    psi[u, p] = vals
    return psi


def _terminal_at(problem, path, actions):
    """The objective on one path (T, d) after its stage actions (m_t,), as
    a batch of one."""
    return float(problem.terminal(path[None], [np.reshape(a, (1, -1)) for a in actions])[0])


def _dual_lower(problem, local_grid, t, child, low, valid_j):
    """Replace the candidate minimum by the exact infimum over the grid ball
    (ball_infimum: measures on the local grid within the stage-t Wasserstein
    ball) at every valid entry of a node whose radius is positive (in place
    on low, (n^t, Q))."""
    kernel = problem.kernels[t]
    if not isinstance(kernel, WassersteinBall):
        return
    n = len(local_grid)
    # psi is evaluated on local_grid itself; each of its points takes the
    # value of its nearest grid node
    snap = _nearest_rows(local_grid, local_grid)
    for u, node in enumerate(itertools.product(range(n), repeat=t)):
        path = local_grid[list(node)]
        eps = kernel.eps(path)
        if not eps > 0:
            continue
        ref = kernel.center(path)
        for q in np.flatnonzero(valid_j[u]):
            low[u, q] = ball_infimum(child[u, snap, q], ref, local_grid, eps, kernel.order)


def backward_induction_exact(problem, local_grid, candidates, dual_bound=False):
    """Solve the discretized max-min problem by backward induction.

    candidates is the dict produced by build_candidates.  Ties in both the
    adversary argmin and the controller argmax resolve to the lowest
    index, making results bit-reproducible.  With dual_bound=True a
    parallel recursion replaces each Wasserstein-ball minimum of positive
    radius by the exact infimum over measures on the local grid inside the
    ball (ambiguity.ball_infimum); dual_lower_bound is then the grid-ball
    robust value, reported alongside the sampled-set value.  It raises
    ValueError where such a ball holds no grid measure.
    The tables are arrays laid out as described on SolveResult.
    """
    T = problem.horizon
    n = len(local_grid)
    grids = _action_grids(problem, local_grid)
    stage = [_stage_actions(grids, t, n) for t in range(T)]

    valid = [np.ones((1, 1), dtype=bool)]
    for acts, counts in stage:
        real = np.arange(acts.shape[1]) < counts[:, None]
        v = valid[-1][:, :, None] & real[:, None, :]
        valid.append(np.repeat(v.reshape(len(counts), -1), n, axis=0))

    psi = [None] * (T + 1)
    jt = [None] * T
    argmin = [None] * T
    argmax = [None] * T
    psi[T] = _terminal_layer(problem, local_grid, stage, valid[T])
    psi_low = psi.copy() if dual_bound else None

    for t in range(T - 1, -1, -1):
        nodes = itertools.product(range(n), repeat=t)
        snapped = _snapped_supports(local_grid, [candidates[(t, nd)] for nd in nodes])
        acts, counts = stage[t]
        shape = (n**t, -1, acts.shape[1])
        j, best = _candidate_min(psi[t + 1].reshape(n**t, n, -1), *snapped)
        jt[t] = j.reshape(shape)
        argmin[t] = best.reshape(shape)
        psi[t], argmax[t] = _controller_max(jt[t], counts)
        if dual_bound:
            child = psi_low[t + 1].reshape(n**t, n, -1)
            low, _ = _candidate_min(child, *snapped)
            _dual_lower(problem, local_grid, t, child, low, valid[t + 1][::n])
            psi_low[t] = _controller_max(low.reshape(shape), counts)[0]

    # compose the optimal policy and the worst-case kernel along it
    chosen = [dict() for _ in range(T)]
    stage_actions = []
    composed = [dict() for _ in range(T)]
    prefix = np.zeros(1, dtype=np.intp)  # action-key id chosen along each node
    for t in range(T):
        rows = np.arange(n**t)
        ai = argmax[t][rows, prefix]
        ci = argmin[t][rows, prefix, ai]
        stage_actions.append(stage[t][0][rows, ai])
        for u, node in enumerate(itertools.product(range(n), repeat=t)):
            chosen[t][node] = int(ai[u])
            composed[t][node] = candidates[(t, node)][ci[u]]
        prefix = np.repeat(prefix * jt[t].shape[2] + ai, n)

    policy = TabularPolicy(local_grid, stage_actions, problem.action_specs)
    worst = WorstCaseKernel(local_grid, argmin, composed)
    return SolveResult(
        value=float(psi[0][0, 0]),
        psi_tables=psi,
        j_tables=jt,
        policy=policy,
        worst_case=worst,
        action_grids=grids,
        local_grid=local_grid,
        dual_lower_bound=float(psi_low[0][0, 0]) if dual_bound else None,
        chosen_idx=chosen,
        valid=valid,
        argmax_tables=argmax,
    )


def _policy_nodes(T, n):
    out = []
    for t in range(T):
        out.extend((t, node) for node in itertools.product(range(n), repeat=t))
    return out


def brute_force_value(problem, local_grid, candidates, guard=10_000_000):
    """Oracle: explicit max over all tabular policies of the worst case.

    For each enumerated policy the adversary minimum is computed exactly
    by nodewise recursion; whenever there are at most 800 measurable
    selections, the minimum for the maximizing policy is also
    recomputed by full enumeration over selections (which may depend on
    path and all actions so far) and the two must agree to 1e-12.
    """
    T = problem.horizon
    n = len(local_grid)
    grids = _action_grids(problem, local_grid)
    nodes = _policy_nodes(T, n)

    n_policies = 1
    n_selections = 1
    for t, node in nodes:
        n_policies *= len(grids[(t, node)])
        n_selections *= len(candidates[(t, node)])
    if n_policies * n_selections > guard:
        raise ValueError(
            f"instance too large to enumerate: {n_policies} policies x "
            f"{n_selections} selections exceeds the guard {guard}"
        )

    term_cache = {}

    def terminal_value(node, akey):
        key = (node, akey)
        if key not in term_cache:
            term_cache[key] = _terminal_at(
                problem, local_grid[list(node)], _actions_from_key(grids, node, akey)
            )
        return term_cache[key]

    snap = {}

    def snap_support(t, node, ci):
        key = (t, node, ci)
        if key not in snap:
            m = candidates[(t, node)][ci]
            snap[key] = [nearest_index(local_grid, x) for x in m.support]
        return snap[key]

    def worst_case(policy_map):
        memo = {}

        def rec(t, node, akey):
            if t == T:
                return terminal_value(node, akey)
            if (t, node) in memo:
                return memo[(t, node)]
            fk = akey + (policy_map[(t, node)],)
            best = None
            for ci, m in enumerate(candidates[(t, node)]):
                idx = snap_support(t, node, ci)
                val = 0.0
                for w, gi in zip(m.weights, idx):
                    val += w * rec(t + 1, node + (gi,), fk)
                if best is None or val < best:
                    best = val
            memo[(t, node)] = best
            return best

        return rec(0, (), ())

    best_val = None
    best_policy = None
    for combo in itertools.product(
        *[range(len(grids[key])) for key in nodes]
    ):
        policy_map = dict(zip(nodes, combo))
        val = worst_case(policy_map)
        if best_val is None or val > best_val:
            best_val, best_policy = val, policy_map

    if n_selections <= 800:
        def expectation(policy_map, selection_map):
            memo = {}

            def rec(t, node, akey):
                if t == T:
                    return terminal_value(node, akey)
                if (t, node) in memo:
                    return memo[(t, node)]
                fk = akey + (policy_map[(t, node)],)
                ci = selection_map[(t, node)]
                m = candidates[(t, node)][ci]
                val = 0.0
                for w, gi in zip(m.weights, snap_support(t, node, ci)):
                    val += w * rec(t + 1, node + (gi,), fk)
                memo[(t, node)] = val
                return val

            return rec(0, (), ())

        enumerated = min(
            expectation(best_policy, dict(zip(nodes, sel)))
            for sel in itertools.product(
                *[range(len(candidates[key])) for key in nodes]
            )
        )
        if abs(enumerated - best_val) > 1e-12:
            raise AssertionError(
                "nodewise and enumerated adversary values disagree: "
                f"{best_val} vs {enumerated}"
            )
    return best_val


def evaluate_policy(problem, policy, selection, local_grid):
    """Expected terminal value of a policy under a measure selection.

    The policy acts through its act(t, omega, past) (see rollout) on one
    path at a time.  selection(t, path, actions_so_far) must return the
    stage-t transition measure (actions_so_far includes the stage-t action,
    matching the adversary's information).  The support tree is enumerated
    on the local grid; batched Monte Carlo values are
    neural.mc_policy_values.
    """
    T = problem.horizon

    def rec(t, node, actions):
        path = local_grid[list(node)]
        if t == T:
            return _terminal_at(problem, path, actions)
        a = policy.act(t, path[None], [p[None] for p in actions])[0]
        acts = actions + [a]
        m = selection(t, path, acts)
        val = 0.0
        for w, x in zip(m.weights, m.support):
            gi = nearest_index(local_grid, x)
            val += w * rec(t + 1, node + (gi,), acts)
        return val

    return rec(0, (), [])


def holder_constant_recursion(problem, l_p=None, c_p=None, l_a=None):
    """Back-propagated growth and Holder constants per stage.

    C_t = 2^(T-t) * C_psi * prod_{s=t..T-1} C_{P,s} and
    L_t = 2^(T-t) * L_psi * prod_{s=t..T-1} max(L_{A,s}^alpha + L_{P,s}^alpha, 1).
    Stage constants default to the declared ones on the problem's specs
    and kernels; missing declarations raise.
    """
    if problem.holder is None:
        raise ValueError("problem carries no declared Holder data")
    T = problem.horizon
    L_psi = problem.holder["L_psi"]
    alpha = problem.holder.get("alpha", 1.0)
    C_psi = problem.holder.get("C_psi", 1.0)
    if l_a is None:
        l_a = [spec.lipschitz for spec in problem.action_specs]
    if l_p is None:
        l_p = [k.declared_lipschitz() for k in problem.kernels]
    if c_p is None:
        c_p = problem.growth_c_p or [1.0] * T
    if any(v is None for v in l_p):
        raise ValueError("a kernel has no declared Lipschitz constant")
    C_t = []
    L_t = []
    for t in range(T + 1):
        c = 2.0 ** (T - t) * C_psi
        l = 2.0 ** (T - t) * L_psi
        for s in range(t, T):
            c *= c_p[s]
            l *= max(l_a[s] ** alpha + l_p[s] ** alpha, 1.0)
        C_t.append(c)
        L_t.append(l)
    return {"C_psi_t": C_t, "L_psi_t": L_t, "alpha": alpha}


def serialize_tables(result):
    """Versioned text dump of the value tables: stage, node, key, value.

    Lines run over the valid entries in id order, which is the sorted order
    of their (node, key) tuples."""
    n = len(result.local_grid)
    radices = [table.shape[2] for table in result.j_tables]
    lines = ["robustdp-valuetable v1"]
    for label, tables, extra in (("PSI", result.psi_tables, 0), ("J", result.j_tables, 1)):
        for t, table in enumerate(tables):
            width = t + extra
            nodes = [
                ",".join(map(str, node))
                for node in itertools.product(range(n), repeat=t)
            ]
            keys = [
                ",".join(map(str, key))
                for key in itertools.product(*map(range, radices[:width]))
            ]
            u, p = np.nonzero(result.valid[width][:: n**extra])
            vals = table.reshape(len(nodes), len(keys))[u, p]
            lines += [
                f"{label} {t} [{nodes[i]}] [{keys[k]}] {v:.17g}"
                for i, k, v in zip(u.tolist(), p.tolist(), vals.tolist())
            ]
    return "\n".join(lines) + "\n"
