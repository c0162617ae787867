import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import bounds_in_ball_error, bounds_mu_recursion, bounds_tree_paths
from robustdp import ambiguity as amb
from robustdp import bounds as bd
from robustdp import dp
from robustdp.controls import ConstantSet
from robustdp.measures import DiscreteMeasure, LocalSpace

G2 = np.array([[-0.5], [0.5]])
SPACE = LocalSpace(1, 1.0)


def constant_input(true_ws, ref_ws, eps, T, **kw):
    trues = [amb.ConstantKernel(DiscreteMeasure(G2, w)) for w in true_ws]
    refs = [amb.ConstantKernel(DiscreteMeasure(G2, w)) for w in ref_ws]
    return bd.BoundsInput(
        horizon=T,
        true_kernels=trues,
        ref_kernels=refs,
        radius=[amb.ConstantRadius(eps)] * T,
        L_psi=kw.get("L_psi", 1.0),
        alpha=kw.get("alpha", 1.0),
        L_A=[0.0] * T,
        L_Phat=[0.0] * T,
    )


def test_mu_err_zero_for_identical_kernels():
    inp = constant_input([[0.3, 0.7]] * 2, [[0.3, 0.7]] * 2, 0.1, 2)
    _, s0 = bd.mu_recursion("err", inp)
    assert np.allclose(s0, 0.0)
    assert bd.stability_bound(inp) == 0.0


def test_mu_eps_constant_radius():
    inp = constant_input([[0.3, 0.7]] * 3, [[0.3, 0.7]] * 3, 0.25, 3)
    _, s0 = bd.mu_recursion("eps", inp)
    assert np.allclose(s0, 0.25)


def test_mu_err_hand_double_sum():
    # path-dependent stage-1 true kernel: mu_{1,0} is an explicit double sum
    true0 = DiscreteMeasure(G2, [0.3, 0.7])
    ref0 = DiscreteMeasure(G2, [0.5, 0.5])
    t1 = {
        amb.path_key(np.array([[-0.5]])): DiscreteMeasure(G2, [0.8, 0.2]),
        amb.path_key(np.array([[0.5]])): DiscreteMeasure(G2, [0.1, 0.9]),
    }
    r1 = {
        amb.path_key(np.array([[-0.5]])): DiscreteMeasure(G2, [0.6, 0.4]),
        amb.path_key(np.array([[0.5]])): DiscreteMeasure(G2, [0.3, 0.7]),
    }
    inp = bd.BoundsInput(
        horizon=2,
        true_kernels=[amb.ConstantKernel(true0), amb.TabularKernel(t1)],
        ref_kernels=[amb.ConstantKernel(ref0), amb.TabularKernel(r1)],
        radius=[amb.ConstantRadius(0.0)] * 2,
        L_psi=1.0,
        alpha=1.0,
    )
    _, s0 = bd.mu_recursion("err", inp)
    # distances: atoms 1 apart, so W1 = |dw| of the first atom
    d_at_minus = abs(0.8 - 0.6)
    d_at_plus = abs(0.1 - 0.3)
    hand = 0.3 * d_at_minus + 0.7 * d_at_plus
    assert s0[1] == pytest.approx(hand, abs=1e-12)
    assert s0[0] == pytest.approx(abs(0.3 - 0.5), abs=1e-12)


def test_stability_single_stage_formula():
    inp = constant_input([[0.3, 0.7]], [[0.5, 0.5]], 0.0, 1, L_psi=2.5)
    # T = 1: bound = L_psi * d_W1(true_0, ref_0)^alpha
    assert bd.stability_bound(inp) == pytest.approx(2.5 * 0.2, abs=1e-12)


def test_wasserstein_bound_zero_radius():
    inp = constant_input([[0.3, 0.7]] * 2, [[0.3, 0.7]] * 2, 0.0, 2)
    assert bd.wasserstein_gap_bound(inp) == 0.0


def test_wasserstein_bound_single_stage_two_l_eps():
    inp = constant_input([[0.4, 0.6]], [[0.5, 0.5]], 0.2, 1, L_psi=1.5)
    # T = 1, alpha = 1: bound = 2 L_psi eps
    assert bd.wasserstein_gap_bound(inp) == pytest.approx(2 * 1.5 * 0.2)


def test_wasserstein_bound_linear_in_radius():
    a = constant_input([[0.45, 0.55]], [[0.5, 0.5]], 0.2, 1)
    b = constant_input([[0.45, 0.55]], [[0.5, 0.5]], 0.4, 1)
    assert bd.wasserstein_gap_bound(b) == pytest.approx(
        2 * bd.wasserstein_gap_bound(a)
    )


def test_wasserstein_membership_violation_names_node():
    inp = constant_input([[0.0, 1.0]], [[1.0, 0.0]], 0.05, 1)
    with pytest.raises(ValueError, match="stage 0"):
        bd.wasserstein_gap_bound(inp)


def test_mu_monotone_under_enlargement():
    small = constant_input([[0.4, 0.6]] * 2, [[0.5, 0.5]] * 2, 0.1, 2)
    large = constant_input([[0.2, 0.8]] * 2, [[0.5, 0.5]] * 2, 0.1, 2)
    _, s_small = bd.mu_recursion("err", small)
    _, s_large = bd.mu_recursion("err", large)
    assert np.all(s_large >= s_small - 1e-12)


# -- one tree walk ------------------------------------------------------------------


def tree_input(seed, d, kinds, eps0, alpha=1.0):
    """BoundsInput with path-dependent true kernels (tabular or kernel-
    weighted per stage, as `kinds` says), tabular reference kernels and a
    path-dependent radius, all on a 2-3 point grid.  The stage-0 true
    measure repeats an atom, so the tree has repeated children."""
    rng = np.random.default_rng(seed)
    grid = rng.integers(-4, 5, size=(int(rng.integers(2, 4)), d)) / 4.0
    history = grid[rng.integers(0, len(grid), size=len(kinds) + 2)]
    trues, refs, paths = [], [], [np.zeros((0, d))]
    for t, kind in enumerate(kinds):
        keys = list(dict.fromkeys(amb.path_key(p) for p in paths))
        if kind == "weighted":
            trues.append(amb.KernelWeighted(history, float(rng.uniform(0.5, 4.0))))
        else:
            table = {}
            for key in keys:
                k = int(rng.integers(1, 4))
                idx = [0, 0, 1] if t == 0 else rng.integers(0, len(grid), k)
                table[key] = DiscreteMeasure(grid[idx], rng.dirichlet(np.ones(len(idx))))
            trues.append(amb.TabularKernel(table))
        refs.append(amb.TabularKernel(
            {key: DiscreteMeasure(grid, rng.dirichlet(np.ones(len(grid)))) for key in keys}))
        paths = [np.vstack([p, x[None, :]]) for p in paths for x in trues[t](p).support]
    T = len(kinds)
    return bd.BoundsInput(
        horizon=T, true_kernels=trues, ref_kernels=refs,
        radius=[lambda p: eps0 + 0.25 * float(np.abs(p).sum())] * T,
        alpha=alpha, L_eps=[0.0] * T)


def listed(tables):
    return [[(t, list(tab.items())) for t, tab in level.items()] for level in tables]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]),
       st.lists(st.sampled_from(["tabular", "weighted"]), max_size=2),
       st.floats(0.0, 1.5), st.sampled_from([1.0, 0.5]))
def test_one_tree_walk_equals_per_level_oracle(seed, d, kinds, eps0, alpha):
    inp = tree_input(seed, d, ["tabular", *kinds], eps0, alpha)
    for kind in ("err", "eps"):
        tables, s0 = bd.mu_recursion(kind, inp)
        want_tables, want_s0 = bounds_mu_recursion(kind, inp)
        assert listed(tables) == listed(want_tables)
        assert s0.tobytes() == want_s0.tobytes()
    want = bounds_in_ball_error(inp)
    if want is None:
        # L_A = L_Phat = L_eps = 0, so every stage factor is 1
        total, T = 0.0, inp.horizon
        for s, mu in enumerate(bounds_mu_recursion("eps", inp)[1]):
            total += 2.0 ** (T - (s + 1)) * 1.0 * mu
        assert bd.wasserstein_gap_bound(inp) == 2.0**alpha * 1.0 * total
    else:
        with pytest.raises(ValueError) as err:
            bd.wasserstein_gap_bound(inp)
        assert str(err.value) == want


class CountingKernel:
    def __init__(self, kernel):
        self.kernel, self.calls = kernel, 0

    def __call__(self, path):
        self.calls += 1
        return self.kernel(path)


@pytest.mark.parametrize("seed", range(4))
def test_each_public_call_runs_every_true_kernel_once_per_node(seed):
    inp = tree_input(seed, 2, ["tabular", "weighted", "tabular"], 10.0)
    nodes = [len(bounds_tree_paths(inp, t)) for t in range(3)]
    assert nodes[1] == 3  # the repeated stage-0 atom gives a repeated child
    inp.true_kernels = [CountingKernel(k) for k in inp.true_kernels]
    inp.L_Ptheta, inp.L_thetahat = [1.0] * 3, [1.0] * 3
    inp.theta_true = inp.theta_hat = [lambda p: np.zeros(1)] * 3
    calls = {
        "mu err": lambda: bd.mu_recursion("err", inp),
        "mu eps": lambda: bd.mu_recursion("eps", inp),
        "wasserstein": lambda: bd.wasserstein_gap_bound(inp),
        "parametric": lambda: bd.parametric_gap_bound(inp),
        "report": lambda: bd.bounds_report(inp, {"stability_gap": 0.0, "robust_gap": 0.0}),
    }
    for name, call in calls.items():
        for k in inp.true_kernels:
            k.calls = 0
        call()
        assert [k.calls for k in inp.true_kernels] == nodes, name


# -- dominance on solved instances ------------------------------------------------


def linear_terminal(omega, actions):
    return sum(-np.abs(a[:, 0] - omega[:, t, 0]) for t, a in enumerate(actions))


ACTS = ConstantSet(points=[[-0.5], [0.0], [0.5]])


def solve_value(kernels, pool=None, T=2):
    prob = dp.ControlProblem(T, SPACE, linear_terminal, [ACTS] * T, kernels)
    sampler = dp.pool_sampler(pool) if pool else dp.sampler_from_kernel(1)
    cands = dp.build_candidates(prob, G2, sampler)
    return dp.backward_induction_exact(prob, G2, cands).value


def test_dominance_on_solved_wasserstein_instance():
    rng = np.random.default_rng(0)
    for _ in range(5):
        w_ref0, w_ref1 = rng.dirichlet([4, 4]), rng.dirichlet([4, 4])
        eps = float(rng.uniform(0.05, 0.3))
        shift0 = rng.uniform(-eps, eps) / 2
        shift1 = rng.uniform(-eps, eps) / 2
        w_true0 = w_ref0 + np.array([shift0, -shift0])
        w_true1 = w_ref1 + np.array([shift1, -shift1])
        inp = constant_input([w_true0, w_true1], [w_ref0, w_ref1], eps, 2)
        v_true = solve_value(
            [amb.Singleton(k) for k in inp.true_kernels]
        )
        v_ref = solve_value([amb.Singleton(k) for k in inp.ref_kernels])
        pool = [k.measure for k in inp.true_kernels] + [
            k.measure for k in inp.ref_kernels
        ]
        v_rob = solve_value(
            [
                amb.WassersteinBall(k, amb.ConstantRadius(eps))
                for k in inp.ref_kernels
            ],
            pool,
        )
        assert abs(v_true - v_ref) <= bd.stability_bound(inp) + 1e-9
        gap = v_true - v_rob
        assert gap >= -1e-12
        assert gap <= bd.wasserstein_gap_bound(inp) + 1e-9


# -- parametric ------------------------------------------------------------------


def exp_abs_moment(a, theta):
    """E|a - X| for X ~ Exp(1/theta) (Dirac at zero when theta = 0)."""
    if theta == 0.0:
        return abs(a)
    return a - theta + 2 * theta * math.exp(-a / theta)


def test_parametric_bound_single_stage_formula():
    fam = amb.ExponentialFamily()
    inp = bd.BoundsInput(
        horizon=1,
        radius=[amb.ConstantRadius(0.3)],
        L_psi=1.0,
        alpha=1.0,
        L_Ptheta=[fam.lipschitz],
        L_thetahat=[1.0],
        theta_true=[lambda p: np.array([1.1])],
        theta_hat=[lambda p: np.array([1.0])],
    )
    bound = bd.parametric_gap_bound(inp, mu_eps_s0=np.array([0.3]))
    assert bound == pytest.approx(2 * 1.0 * 0.3)


def test_parametric_bound_dominates_closed_form_solve():
    fam = amb.ExponentialFamily()
    rng = np.random.default_rng(3)
    a_grid = np.linspace(0.0, 3.0, 61)
    for _ in range(5):
        theta_hat = float(rng.uniform(0.5, 1.5))
        eps = float(rng.uniform(0.05, 0.4))
        theta_true = theta_hat + float(rng.uniform(-eps, eps))
        theta_grid = np.unique(
            np.concatenate(
                [np.linspace(theta_hat - eps, theta_hat + eps, 41),
                 [theta_true, theta_hat]]
            ).clip(0.0)
        )
        theta_grid = theta_grid[np.abs(theta_grid - theta_hat) <= eps + 1e-12]
        v_true = max(-exp_abs_moment(a, theta_true) for a in a_grid)
        v_rob = max(
            min(-exp_abs_moment(a, th) for th in theta_grid) for a in a_grid
        )
        gap = v_true - v_rob
        inp = bd.BoundsInput(
            horizon=1,
            radius=[amb.ConstantRadius(eps)],
            L_psi=1.0,
            alpha=1.0,
            L_Ptheta=[fam.lipschitz],
            L_thetahat=[1.0],
            theta_true=[lambda p, v=theta_true: np.array([v])],
            theta_hat=[lambda p, v=theta_hat: np.array([v])],
        )
        bound = bd.parametric_gap_bound(inp, mu_eps_s0=np.array([eps]))
        assert gap >= -1e-12
        assert gap <= bound + 1e-9


def test_parametric_membership_violation():
    inp = bd.BoundsInput(
        horizon=1,
        radius=[amb.ConstantRadius(0.1)],
        L_psi=1.0,
        alpha=1.0,
        L_Ptheta=[1.0],
        L_thetahat=[1.0],
        theta_true=[lambda p: np.array([2.0])],
        theta_hat=[lambda p: np.array([1.0])],
    )
    with pytest.raises(ValueError, match="stage 0"):
        bd.parametric_gap_bound(inp, mu_eps_s0=np.array([0.1]))


def test_parametric_theta_check_past_stage_0_needs_true_kernels():
    # a stage-1 true parameter far outside the ball: without the true kernels
    # there is no stage-1 node to check it at, so the bound is refused
    inp = bd.BoundsInput(
        horizon=2,
        radius=[amb.ConstantRadius(0.1)] * 2,
        L_Ptheta=[1.0] * 2,
        L_thetahat=[1.0] * 2,
        theta_true=[lambda p: np.array([1.0]), lambda p: np.array([5.0])],
        theta_hat=[lambda p: np.array([1.0])] * 2,
    )
    with pytest.raises(ValueError, match="stages >= 1 needs the true kernels' tree"):
        bd.parametric_gap_bound(inp, mu_eps_s0=np.array([0.1, 0.1]))
    inp.true_kernels = [amb.ConstantKernel(DiscreteMeasure(G2, [0.5, 0.5]))] * 2
    with pytest.raises(ValueError, match="leaves the ball at stage 1"):
        bd.parametric_gap_bound(inp)


# -- report ------------------------------------------------------------------------


def test_report_json_contains_tables_and_dominance():
    inp = constant_input([[0.45, 0.55]] * 2, [[0.5, 0.5]] * 2, 0.2, 2)
    rep = bd.bounds_report(inp, {"stability_gap": 0.01, "robust_gap": 0.1})
    data = json.loads(rep.to_json())
    assert data["mu_err_tables"] is not None
    assert data["mu_eps_tables"] is not None
    assert data["dominance"]["stability"] is True
    assert data["dominance"]["robust"] is True
    assert data["bounds"]["stability"] >= 0.0
