"""Exact max-min solver on fully discretized instances.

Backward induction over the path tree: at each node the adversary picks
the candidate measure minimizing the expected continuation value, then the
controller picks the action maximizing that worst case.  A brute-force
enumeration over all tabular policies and adversary selections serves as
the oracle the solver is tested against.

Paths are tuples of indices into a finite local grid; candidate measures
with off-grid atoms are snapped to the nearest grid point (lowest index on
ties) for continuation lookups, so solver and oracle share one convention.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .ambiguity import (
    FiniteSet,
    Singleton,
    WassersteinBall,
    dual_inner_value,
    sample_measures,
    membership,
)
from .controls import clamp_to, grid
from .measures import moment

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

    terminal(omega, actions) evaluates the objective on a full path
    (array of shape (T, d)) and the list of per-stage action vectors.
    holder, when supplied, carries the declared regularity data
    {"L_psi", "alpha", "C_psi"} consumed by the bounds module.
    """

    horizon: int
    local_space: object
    terminal: object
    action_specs: list
    kernels: list
    growth_p: int = 0
    holder: dict = None
    growth_c_p: list = None
    name: str = ""

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
    d = np.linalg.norm(local_grid - np.asarray(x, dtype=float), axis=1)
    return int(np.argmin(d))


def sampler_from_kernel(n_measures):
    """Sampler drawing n_measures candidates via sample_measures."""

    def sampler(kernel, path, t, rng):
        if isinstance(kernel, Singleton):
            return [kernel.center(path)]
        if isinstance(kernel, FiniteSet):
            return kernel.evaluate_all(path)
        return sample_measures(kernel, path, n_measures, rng)

    return sampler


def pool_sampler(pool):
    """Candidates = center plus every pool measure inside the ball.

    Because the admitted subset grows with the radius, robust values built
    from one fixed pool are exactly monotone in the radius.
    """

    def sampler(kernel, path, t, rng):
        out = [kernel.center(path)]
        for m in pool:
            ok, _ = membership(kernel, path, m)
            if ok:
                out.append(m)
        return out

    return sampler


def build_candidates(problem, local_grid, sampler, rng=None):
    """Materialize the candidate-measure dict (t, node) -> [measures].

    Sampling happens once, in deterministic node order, so the same dict
    feeds both the solver and the brute-force oracle.
    """
    n = len(local_grid)
    out = {}
    for t in range(problem.horizon):
        for node in itertools.product(range(n), repeat=t):
            path = local_grid[list(node)]
            cands = sampler(problem.kernels[t], path, t, rng)
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
    """Per-stage lookup on the path grid; off-grid paths snap to the
    nearest node and the returned action is clamped into the actual set."""

    def __init__(self, local_grid, stage_actions, action_specs):
        self.local_grid = local_grid
        self.stage_actions = stage_actions  # list of {node: action vector}
        self.action_specs = action_specs

    def action(self, t, path, past_actions=None):
        path = np.asarray(path, dtype=float).reshape(t, self.local_grid.shape[1])
        node = tuple(nearest_index(self.local_grid, x) for x in path)
        a = self.stage_actions[t][node]
        return clamp_to(self.action_specs[t], path, a)

    def __call__(self, t, path, past_actions=None):
        return self.action(t, path, past_actions)


def rollout(policy, omega):
    """Stage actions of a policy along full paths omega (N, T, d), as a
    list of T arrays (N, m_t).

    A policy with actions_batch(omega) acts on all paths at once; any
    other is asked action(t, path[:t], actions so far) path by path."""
    omega = np.asarray(omega, dtype=float)
    if hasattr(policy, "actions_batch"):
        return policy.actions_batch(omega)
    T = omega.shape[1]
    per_path = []
    for path in omega:
        actions = []
        for t in range(T):
            actions.append(np.atleast_1d(policy.action(t, path[:t], actions)))
        per_path.append(actions)
    return [np.stack([acts[t] for acts in per_path]) for t in range(T)]


class WorstCaseKernel:
    """Adversary selector: (stage, node, actions-so-far key) -> measure."""

    def __init__(self, local_grid, candidates, argmin_tables, composed):
        self.local_grid = local_grid
        self.candidates = candidates
        self.argmin_tables = argmin_tables  # [t][(node, akey)] -> index
        self.composed = composed  # [t][node] -> measure (optimal-policy path)

    def index_for(self, t, node, akey):
        return self.argmin_tables[t][(node, akey)]

    def measure_for(self, t, node, akey):
        return self.candidates[(t, node)][self.index_for(t, node, akey)]

    def measure(self, t, path):
        path = np.asarray(path, dtype=float).reshape(t, self.local_grid.shape[1])
        node = tuple(nearest_index(self.local_grid, x) for x in path)
        return self.composed[t][node]


@dataclass
class SolveResult:
    value: float
    psi_tables: list
    j_tables: list
    policy: TabularPolicy
    worst_case: WorstCaseKernel
    action_grids: dict
    local_grid: object
    dual_lower_bound: float = None
    chosen_idx: list = field(default_factory=list)


def _action_grids(problem, local_grid):
    """grids[(t, node)] = finite action list at that node."""
    n = len(local_grid)
    grids = {}
    for t in range(problem.horizon):
        for node in itertools.product(range(n), repeat=t):
            path = local_grid[list(node)]
            grids[(t, node)] = grid(problem.action_specs[t], path)
    return grids


def _prefix_keys(grids, node):
    """All action-index tuples for the stages strictly before len(node)."""
    ranges = [range(len(grids[(s, node[:s])])) for s in range(len(node))]
    return itertools.product(*ranges)


def _actions_from_key(grids, node, akey):
    return [grids[(s, node[:s])][akey[s]] for s in range(len(akey))]


def backward_induction_exact(
    problem, local_grid, candidates, dual_bound=False, lambda_grid=None
):
    """Solve the discretized max-min problem by backward induction.

    candidates is the dict produced by build_candidates.  Ties in both the
    adversary argmin and the controller argmax resolve to the lowest
    index, making results bit-reproducible.  With dual_bound=True a
    parallel recursion replaces each Wasserstein-ball minimum by the dual
    value on the local grid, yielding a certified lower bound on the
    grid-ball robust value (reported alongside the sampled-set value).
    """
    T = problem.horizon
    n = len(local_grid)
    grids = _action_grids(problem, local_grid)

    psi = [dict() for _ in range(T + 1)]
    jt = [dict() for _ in range(T)]
    argmax = [dict() for _ in range(T)]
    argmin = [dict() for _ in range(T)]
    psi_low = [dict() for _ in range(T + 1)] if dual_bound else None
    if dual_bound and lambda_grid is None:
        lambda_grid = np.geomspace(1e-3, 1e4, 31)

    # terminal layer: direct evaluation
    for node in itertools.product(range(n), repeat=T):
        omega = local_grid[list(node)]
        for akey in _prefix_keys(grids, node):
            val = float(problem.terminal(omega, _actions_from_key(grids, node, akey)))
            if math.isnan(val):
                raise ValueError("terminal utility returned NaN")
            psi[T][(node, akey)] = val
            if dual_bound:
                psi_low[T][(node, akey)] = val

    snap_cache = {}

    def snapped(t, node, ci, m):
        key = (t, node, ci)
        if key not in snap_cache:
            snap_cache[key] = [nearest_index(local_grid, x) for x in m.support]
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
                        # strict comparisons: exact ties keep the lowest index
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
                        if isinstance(kernel, WassersteinBall)
                        else 0.0
                    )
                    use_dual = isinstance(kernel, WassersteinBall) and eps > 0
                    low_best = None
                    for ai in range(len(agrid)):
                        fk = ak + (ai,)
                        if use_dual:
                            ref = kernel.center(path)
                            cont = np.array(
                                [
                                    psi_low[t + 1][(node + (j,), fk)]
                                    for j in range(n)
                                ]
                            )
                            low = max(
                                dual_inner_value(
                                    lambda z, c=cont: c[
                                        nearest_index(local_grid, z)
                                    ],
                                    ref,
                                    eps,
                                    kernel.order,
                                    lam,
                                    local_grid,
                                )
                                for lam in lambda_grid
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

    value = psi[0][((), ())]

    # compose the optimal policy and the worst-case kernel along it
    chosen = [dict() for _ in range(T)]
    chosen[0][()] = argmax[0][((), ())]
    for t in range(1, T):
        for node in itertools.product(range(n), repeat=t):
            ak = tuple(chosen[s][node[:s]] for s in range(t))
            chosen[t][node] = argmax[t][(node, ak)]
    stage_actions = [
        {
            node: grids[(t, node)][chosen[t][node]]
            for node in itertools.product(range(n), repeat=t)
        }
        for t in range(T)
    ]
    composed = [dict() for _ in range(T)]
    for t in range(T):
        for node in itertools.product(range(n), repeat=t):
            fk = tuple(chosen[s][node[:s]] for s in range(t + 1))
            composed[t][node] = candidates[(t, node)][argmin[t][(node, fk)]]

    policy = TabularPolicy(local_grid, stage_actions, problem.action_specs)
    worst = WorstCaseKernel(local_grid, candidates, argmin, composed)
    return SolveResult(
        value=value,
        psi_tables=psi,
        j_tables=jt,
        policy=policy,
        worst_case=worst,
        action_grids=grids,
        local_grid=local_grid,
        dual_lower_bound=psi_low[0][((), ())] if dual_bound else None,
        chosen_idx=chosen,
    )


def _policy_nodes(T, n):
    out = []
    for t in range(T):
        out.extend((t, node) for node in itertools.product(range(n), repeat=t))
    return out


def brute_force_value(
    problem, local_grid, candidates, guard=10_000_000, enumerate_limit=800
):
    """Oracle: explicit max over all tabular policies of the worst case.

    For each enumerated policy the adversary minimum is computed exactly
    by nodewise recursion; whenever the number of measurable selections is
    below enumerate_limit, the minimum for the maximizing policy is also
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
            omega = local_grid[list(node)]
            term_cache[key] = float(
                problem.terminal(omega, _actions_from_key(grids, node, akey))
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

    if n_selections <= enumerate_limit:
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


def evaluate_policy(
    problem,
    policy,
    selection,
    local_grid=None,
    mode="exact",
    n_samples=None,
    rng=None,
):
    """Expected terminal value of a policy under a measure selection.

    selection(t, path, actions_so_far) must return the stage-t transition
    measure (actions_so_far includes the stage-t action, matching the
    adversary's information).  Exact mode enumerates the support tree on
    the local grid; mc mode samples paths and reports (mean, stderr).
    """
    T = problem.horizon

    if mode == "exact":
        if local_grid is None:
            raise ValueError("exact evaluation needs the local grid")

        def rec(t, node, actions):
            path = local_grid[list(node)]
            if t == T:
                return float(problem.terminal(path, actions))
            a = np.atleast_1d(policy(t, path, actions))
            acts = actions + [a]
            m = selection(t, path, acts)
            val = 0.0
            for w, x in zip(m.weights, m.support):
                gi = nearest_index(local_grid, x)
                val += w * rec(t + 1, node + (gi,), acts)
            return val

        return rec(0, (), [])

    if mode == "mc":
        if rng is None or n_samples is None:
            raise ValueError("mc evaluation needs rng and n_samples")
        vals = np.empty(n_samples)
        for i in range(n_samples):
            path = np.zeros((0, problem.local_space.dimension))
            actions = []
            for t in range(T):
                a = np.atleast_1d(policy(t, path, actions))
                actions.append(a)
                m = selection(t, path, actions)
                k = rng.choice(m.n_atoms, p=m.weights)
                path = np.vstack([path, m.support[k][None, :]])
            vals[i] = problem.terminal(path, actions)
        return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n_samples))

    raise ValueError(f"unknown mode {mode!r}")


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
    """Versioned text dump of the value tables: stage, node, key, value."""
    lines = ["robustdp-valuetable v1"]
    for t, table in enumerate(result.psi_tables):
        for (node, akey), val in sorted(table.items()):
            node_s = ",".join(map(str, node))
            akey_s = ",".join(map(str, akey))
            lines.append(f"PSI {t} [{node_s}] [{akey_s}] {val:.17g}")
    for t, table in enumerate(result.j_tables):
        for (node, akey), val in sorted(table.items()):
            node_s = ",".join(map(str, node))
            akey_s = ",".join(map(str, akey))
            lines.append(f"J {t} [{node_s}] [{akey_s}] {val:.17g}")
    return "\n".join(lines) + "\n"
