"""Upper bounds on value-function gaps under model misspecification.

Three certified bounds, each a weighted sum of backward-averaged stage
quantities: the stability bound on |V_true - V_reference| in terms of the
stagewise W_1 estimation errors, and the robust-vs-non-robust bounds (one
for Wasserstein balls, one for parameter balls) in terms of the stagewise
radii.  All constants enter symbolically from declared Lipschitz/Holder
data; nothing is fitted, so a dominance check against measured solver
gaps audits the theorem rather than the calibration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

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


def _tree_paths(inp, depth):
    """All paths of the given length reachable under the true kernels."""
    paths = [np.zeros((0, _dim(inp)))]
    for t in range(depth):
        nxt = []
        for p in paths:
            m = inp.true_kernels[t](p)
            for x in m.support:
                nxt.append(np.vstack([p, x[None, :]]))
        paths = nxt
    return paths


def _dim(inp):
    m = inp.true_kernels[0](np.zeros((0, 1)))
    return m.dimension


def mu_recursion(kind, inp):
    """Backward-averaged stage quantities.

    kind "err": mu_{s,s} = d_W1(true_s, ref_s)^alpha on stage-s paths;
    kind "eps": mu_{s,s} = radius_s^alpha.  Interior levels average under
    the true kernel: mu_{s,t} = E_true_t[mu_{s,t+1}].  Returns (tables,
    mu_{s,0} vector); tables[s][t] maps path keys to values.
    """
    if kind not in ("err", "eps"):
        raise ValueError("kind must be 'err' or 'eps'")
    T = inp.horizon
    alpha = inp.alpha
    tables = []
    s0 = np.zeros(T)
    for s in range(T):
        level = {}

        def leaf(path):
            if kind == "err":
                true_m = inp.true_kernels[s](path)
                ref_m = inp.ref_kernels[s](path)
                dist = w_q_discrete(true_m, ref_m, 1)
                if not np.isfinite(dist):
                    raise ValueError("infinite stage distance")
                return dist**alpha
            return float(inp.radius[s](path)) ** alpha

        level[s] = {path_key(p): leaf(p) for p in _tree_paths(inp, s)}
        for t in range(s - 1, -1, -1):
            level[t] = {}
            for p in _tree_paths(inp, t):
                m = inp.true_kernels[t](p)
                val = 0.0
                for w, x in zip(m.weights, m.support):
                    val += w * level[t + 1][path_key(np.vstack([p, x[None, :]]))]
                level[t][path_key(p)] = val
        tables.append(level)
        s0[s] = level[0][path_key(np.zeros((0, _dim(inp))))]
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


def _check_true_in_ball(inp, order):
    T = inp.horizon
    for t in range(T):
        for p in _tree_paths(inp, t):
            true_m = inp.true_kernels[t](p)
            ref_m = inp.ref_kernels[t](p)
            eps = float(inp.radius[t](p))
            dist = w_q_discrete(ref_m, true_m, order)
            if dist > eps + 1e-9:
                raise ValueError(
                    f"true kernel leaves the ball at stage {t}, "
                    f"path {path_key(p)}: distance {dist} > radius {eps}"
                )


def wasserstein_gap_bound(inp, order=1, mu_eps_s0=None):
    """Bound on V_true - V_robust for Wasserstein-ball ambiguity.

    Requires the true kernel to lie inside the ball at every tree node
    (checked; violations name the node).  The gap itself is nonnegative
    under that hypothesis, which callers assert against measured values.
    """
    _check_true_in_ball(inp, order)
    if mu_eps_s0 is None:
        _, mu_eps_s0 = mu_recursion("eps", inp)
    a = inp.alpha
    return _weighted_sum(
        inp,
        lambda u: inp.L_A[u] ** a + (inp.L_Phat[u] + inp.L_eps[u]) ** a,
        mu_eps_s0,
        2.0**a * inp.L_psi,
    )


def parametric_gap_bound(inp, mu_eps_s0=None):
    """Bound on V_true - V_robust for parameter-ball ambiguity."""
    if inp.L_Ptheta is None or inp.L_thetahat is None:
        raise ValueError("parametric bound needs L_Ptheta and L_thetahat")
    if inp.theta_true is not None:
        for t in range(inp.horizon):
            paths = (
                _tree_paths(inp, t)
                if inp.true_kernels is not None
                else [np.zeros((0, 1))] if t == 0 else []
            )
            for p in paths:
                gap = float(
                    np.linalg.norm(
                        np.atleast_1d(inp.theta_true[t](p))
                        - np.atleast_1d(inp.theta_hat[t](p))
                    )
                )
                eps = float(inp.radius[t](p))
                if gap > eps + 1e-9:
                    raise ValueError(
                        f"true parameter leaves the ball at stage {t}, "
                        f"path {path_key(p)}: gap {gap} > radius {eps}"
                    )
    if mu_eps_s0 is None:
        if inp.true_kernels is not None:
            _, mu_eps_s0 = mu_recursion("eps", inp)
        else:
            raise ValueError("need true kernels or precomputed mu_eps")
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
    mu_err: list = None
    mu_eps: list = None
    mu_err_s0: list = None
    mu_eps_s0: list = None
    stability: float = None
    wasserstein: float = None
    parametric: float = None
    measured: dict = field(default_factory=dict)
    allowance: float = 0.0
    dominance: dict = field(default_factory=dict)

    def to_json(self):
        def tablify(levels):
            if levels is None:
                return None
            return [
                {
                    str(t): {repr(k): v for k, v in tab.items()}
                    for t, tab in level.items()
                }
                for level in levels
            ]

        return json.dumps(
            {
                "schema_version": 1,
                "horizon": self.horizon,
                "alpha": self.alpha,
                "mu_err_tables": tablify(self.mu_err),
                "mu_eps_tables": tablify(self.mu_eps),
                "mu_err_s0": self.mu_err_s0,
                "mu_eps_s0": self.mu_eps_s0,
                "bounds": {
                    "stability": self.stability,
                    "wasserstein": self.wasserstein,
                    "parametric": self.parametric,
                },
                "measured": self.measured,
                "allowance": self.allowance,
                "dominance": self.dominance,
            },
            indent=2,
            sort_keys=True,
        )


def bounds_report(inp, which=("stability",), measured=None, allowance=0.0):
    """Assemble bounds plus dominance checks against measured gaps.

    measured may contain "stability_gap" = |V_true - V_ref|,
    "robust_gap" = V_true - V_robust.  The allowance (for discretized
    solves) is added to each bound before comparing.
    """
    report = BoundsReport(horizon=inp.horizon, alpha=inp.alpha,
                          allowance=allowance)
    if "stability" in which or "wasserstein" in which:
        if inp.true_kernels is not None:
            if "stability" in which:
                report.mu_err, err_s0 = mu_recursion("err", inp)
                report.mu_err_s0 = err_s0.tolist()
                report.stability = stability_bound(inp, err_s0)
            if "wasserstein" in which:
                report.mu_eps, eps_s0 = mu_recursion("eps", inp)
                report.mu_eps_s0 = eps_s0.tolist()
                report.wasserstein = wasserstein_gap_bound(inp, mu_eps_s0=eps_s0)
    if "parametric" in which:
        if report.mu_eps_s0 is None:
            report.mu_eps, eps_s0 = mu_recursion("eps", inp)
            report.mu_eps_s0 = eps_s0.tolist()
        report.parametric = parametric_gap_bound(
            inp, mu_eps_s0=np.asarray(report.mu_eps_s0)
        )
    measured = measured or {}
    report.measured = dict(measured)
    if "stability_gap" in measured and report.stability is not None:
        report.dominance["stability"] = bool(
            abs(measured["stability_gap"]) <= report.stability + allowance + 1e-9
        )
    if "robust_gap" in measured:
        bound = (
            report.wasserstein
            if report.wasserstein is not None
            else report.parametric
        )
        report.dominance["robust_nonnegative"] = bool(
            measured["robust_gap"] >= -1e-9
        )
        if bound is not None:
            report.dominance["robust"] = bool(
                measured["robust_gap"] <= bound + allowance + 1e-9
            )
    return report
