"""Upper bounds on value-function gaps under model misspecification.

Three certified bounds, each a weighted sum of backward-averaged stage
quantities: the stability bound on |V_true - V_reference| in terms of the
stagewise W_1 estimation errors, and the robust-vs-non-robust bounds (one
for Wasserstein balls, one for parameter balls) in terms of the stagewise
radii.  All constants enter symbolically from declared Lipschitz/Holder
data; nothing is fitted, so a dominance check against measured solver
gaps audits the theorem rather than the calibration.

Each public call builds the true kernels' support tree once (`_tree`), so
every true kernel runs once per node; `bounds_report` always computes both
Wasserstein-side bounds, stability and W_1 ball, from one tree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .ambiguity import path_key
from .measures import w_q_discrete

__all__ = [
    "BoundsInput",
    "BoundsReport",
    "mu_recursion",
    "stability_bound",
    "wasserstein_gap_bound",
    "parametric_gap_bound",
    "bounds_report",
]


@dataclass
class BoundsInput:
    """Declared data feeding the bounds.

    true_kernels/ref_kernels map paths to discrete measures per stage;
    radius gives the stage radius schedules.  The per-stage constants are
    indexed by stage (entries at u = 0 are unused by the products).  For
    the parametric case supply theta maps, their Lipschitz constants, and
    the family's measure-Lipschitz constant per stage.
    """

    horizon: int
    true_kernels: list = None
    ref_kernels: list = None
    radius: list = None
    L_psi: float = 1.0
    alpha: float = 1.0
    L_A: list = None
    L_Phat: list = None
    L_eps: list = None
    # parametric extras
    L_Ptheta: list = None
    L_thetahat: list = None
    theta_true: list = None
    theta_hat: list = None

    def __post_init__(self):
        T = self.horizon
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if self.L_A is None:
            self.L_A = [0.0] * T
        if self.L_Phat is None:
            self.L_Phat = [0.0] * T
        if self.L_eps is None:
            self.L_eps = (
                [r.lipschitz for r in self.radius] if self.radius else [0.0] * T
            )
        for name in ("L_A", "L_Phat", "L_eps"):
            if any(v < 0 for v in getattr(self, name)):
                raise ValueError(f"{name} entries must be nonnegative")


def _tree(inp):
    """Stages 0..T-1 of the true kernels' support tree: tree[t] lists the
    stage-t nodes as (path, true measure) pairs, and each node's children
    come next in tree[t + 1] in its support order (a repeated atom repeats
    a child).  The root's measure is the dimension probe's."""
    root = inp.true_kernels[0](np.zeros((0, 1)))
    tree = [[(np.zeros((0, root.dimension)), root)]]
    for t in range(1, inp.horizon):
        paths = [np.vstack([p, x[None, :]]) for p, m in tree[-1] for x in m.support]
        tree.append([(p, inp.true_kernels[t](p)) for p in paths])
    return tree


def mu_recursion(kind, inp):
    """Backward-averaged stage quantities.

    kind "err": mu_{s,s} = d_W1(true_s, ref_s)^alpha on stage-s paths;
    kind "eps": mu_{s,s} = radius_s^alpha.  Interior levels average under
    the true kernel: mu_{s,t} = E_true_t[mu_{s,t+1}].  Returns (tables,
    mu_{s,0} vector); tables[s][t] maps path keys to values.
    """
    if kind not in ("err", "eps"):
        raise ValueError("kind must be 'err' or 'eps'")
    return _mu(kind, inp, _tree(inp))


def _mu(kind, inp, tree):
    """mu_recursion on a built tree, each level averaged from its children."""
    alpha = inp.alpha

    def leaf(s, path, true_m):
        if kind == "eps":
            return float(inp.radius[s](path)) ** alpha
        dist = w_q_discrete(true_m, inp.ref_kernels[s](path), 1)
        if not np.isfinite(dist):
            raise ValueError("infinite stage distance")
        return dist**alpha

    keys = [[path_key(p) for p, _ in nodes] for nodes in tree]
    tables = []
    s0 = np.zeros(inp.horizon)
    for s in range(inp.horizon):
        vals = [leaf(s, p, m) for p, m in tree[s]]
        level = {s: dict(zip(keys[s], vals))}
        for t in range(s - 1, -1, -1):
            children = iter(vals)
            vals = []
            for _, m in tree[t]:
                val = 0.0
                for w in m.weights:
                    val += w * next(children)
                vals.append(val)
            level[t] = dict(zip(keys[t], vals))
        tables.append(level)
        s0[s] = vals[0]
    return tables, s0


def _weighted_sum(inp, stage_factor, mu_s0, prefactor):
    T = inp.horizon
    total = 0.0
    for s in range(T):
        prod = 1.0
        for u in range(s + 1, T):
            prod *= max(stage_factor(u), 1.0)
        total += 2.0 ** (T - (s + 1)) * prod * mu_s0[s]
    return prefactor * total


def stability_bound(inp, mu_err_s0=None):
    """Bound on |V_true - V_reference| from stagewise estimation errors."""
    if mu_err_s0 is None:
        _, mu_err_s0 = mu_recursion("err", inp)
    a = inp.alpha
    return _weighted_sum(
        inp,
        lambda u: inp.L_A[u] ** a + inp.L_Phat[u] ** a,
        mu_err_s0,
        inp.L_psi,
    )


def _wasserstein(inp, tree, mu_eps_s0):
    """The W_1-ball bound, once the true kernel is in the ball at every node."""
    for t, nodes in enumerate(tree):
        for p, true_m in nodes:
            ref_m = inp.ref_kernels[t](p)
            eps = float(inp.radius[t](p))
            dist = w_q_discrete(ref_m, true_m, 1)
            if dist > eps + 1e-9:
                raise ValueError(
                    f"true kernel leaves the ball at stage {t}, "
                    f"path {path_key(p)}: distance {dist} > radius {eps}"
                )
    a = inp.alpha
    return _weighted_sum(
        inp,
        lambda u: inp.L_A[u] ** a + (inp.L_Phat[u] + inp.L_eps[u]) ** a,
        mu_eps_s0,
        2.0**a * inp.L_psi,
    )


def wasserstein_gap_bound(inp):
    """Bound on V_true - V_robust for W_1-ball ambiguity.

    Requires the true kernel to lie inside the ball at every tree node
    (checked in W_1; violations name the node).  The gap itself is nonnegative
    under that hypothesis, which callers assert against measured values.
    """
    tree = _tree(inp)
    return _wasserstein(inp, tree, _mu("eps", inp, tree)[1])


def parametric_gap_bound(inp, mu_eps_s0=None):
    """Bound on V_true - V_robust for parameter-ball ambiguity.

    theta_true is checked at every node of the true kernels' tree; without
    true kernels only the root exists, so a horizon above 1 is refused."""
    if inp.L_Ptheta is None or inp.L_thetahat is None:
        raise ValueError("parametric bound needs L_Ptheta and L_thetahat")
    if inp.true_kernels is None and inp.theta_true is not None and inp.horizon > 1:
        raise ValueError("checking theta_true at stages >= 1 needs the true kernels' tree")
    tree = [[(np.zeros((0, 1)), None)]] if inp.true_kernels is None else _tree(inp)
    if inp.theta_true is not None:
        for t, nodes in enumerate(tree):
            for p, _ in nodes:
                gap = float(np.linalg.norm(np.atleast_1d(inp.theta_true[t](p))
                                           - np.atleast_1d(inp.theta_hat[t](p))))
                eps = float(inp.radius[t](p))
                if gap > eps + 1e-9:
                    raise ValueError(
                        f"true parameter leaves the ball at stage {t}, "
                        f"path {path_key(p)}: gap {gap} > radius {eps}"
                    )
    if mu_eps_s0 is None:
        if inp.true_kernels is None:
            raise ValueError("need true kernels or precomputed mu_eps")
        _, mu_eps_s0 = _mu("eps", inp, tree)
    a = inp.alpha
    return _weighted_sum(
        inp,
        lambda u: inp.L_A[u] ** a
        + (inp.L_Ptheta[u] * (inp.L_thetahat[u] + inp.L_eps[u])) ** a,
        [inp.L_Ptheta[s] ** a * mu_eps_s0[s] for s in range(inp.horizon)],
        2.0**a * inp.L_psi,
    )


@dataclass
class BoundsReport:
    horizon: int
    alpha: float
    mu_err: list
    mu_eps: list
    mu_err_s0: list
    mu_eps_s0: list
    stability: float
    wasserstein: float
    measured: dict
    dominance: dict

    def to_json(self):
        def tablify(levels):
            return [{str(t): {repr(k): v for k, v in tab.items()}
                     for t, tab in level.items()} for level in levels]

        # "parametric" and "allowance" are constants of schema 1: the
        # report has no parametric bound and no discretization allowance,
        # and the keys stay so that bounds.json keeps its bytes
        return json.dumps({
            "schema_version": 1,
            "horizon": self.horizon,
            "alpha": self.alpha,
            "mu_err_tables": tablify(self.mu_err),
            "mu_eps_tables": tablify(self.mu_eps),
            "mu_err_s0": self.mu_err_s0,
            "mu_eps_s0": self.mu_eps_s0,
            "bounds": {"stability": self.stability, "wasserstein": self.wasserstein,
                       "parametric": None},
            "measured": self.measured,
            "allowance": 0.0,
            "dominance": self.dominance,
        }, indent=2, sort_keys=True)


def bounds_report(inp, measured):
    """The stability and Wasserstein bounds and their mu tables from one tree,
    with three dominance flags against measured = {"stability_gap":
    |V_true - V_ref|, "robust_gap": V_true - V_robust}: the stability gap
    within its bound, the robust gap nonnegative and within its bound."""
    tree = _tree(inp)
    mu_err, err_s0 = _mu("err", inp, tree)
    mu_eps, eps_s0 = _mu("eps", inp, tree)
    stability = stability_bound(inp, err_s0)
    wasserstein = _wasserstein(inp, tree, eps_s0)
    dominance = {
        "stability": bool(abs(measured["stability_gap"]) <= stability + 1e-9),
        "robust_nonnegative": bool(measured["robust_gap"] >= -1e-9),
        "robust": bool(measured["robust_gap"] <= wasserstein + 1e-9),
    }
    return BoundsReport(inp.horizon, inp.alpha, mu_err, mu_eps, err_s0.tolist(),
                        eps_s0.tolist(), stability, wasserstein, dict(measured),
                        dominance)
