import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    dict_backward_induction,
    dict_serialize_tables,
    random_tabular_instance,
    table_dict,
)
from robustdp import ambiguity as amb
from robustdp import dp
from robustdp.controls import BallSet, BoxSet, ConstantSet, clamp_to
from robustdp.measures import DiscreteMeasure, LocalSpace

SPACE = LocalSpace(1, 1.0)
PM_ACTIONS = ConstantSet(points=[[-1.0], [1.0]])
GRID3 = np.array([[-1.0], [0.0], [1.0]])


@pytest.mark.parametrize("kind", ["wasserstein", "parametric", "singleton", "finite"])
def test_sampler_from_kernel_is_sample_measures(kind):
    # one candidate dispatch: the same measures and the same rng stream
    ref = amb.ConstantKernel(DiscreteMeasure([[-0.5], [0.5]], [0.3, 0.7]))
    other = amb.ConstantKernel(DiscreteMeasure.dirac([0.0]))
    kernel = {
        "wasserstein": amb.WassersteinBall(ref, amb.ConstantRadius(0.2), 2, space=SPACE),
        "parametric": amb.ParametricBall(amb.NormalDiagFamily(1), amb.ConstantRadius(0.1),
                                         theta0=[0.0, 0.2], n_atoms=5),
        "singleton": amb.Singleton(ref),
        "finite": amb.FiniteSet([ref, other, ref]),
    }[kind]
    r1, r2 = np.random.default_rng(5), np.random.default_rng(5)
    got = dp.sampler_from_kernel(4)(kernel, np.zeros((0, 1)), r1)
    expect = amb.sample_measures(kernel, np.zeros((0, 1)), 4, r2)
    assert len(got) == {"singleton": 1, "finite": 3}.get(kind, 4)
    assert [(m.support.tobytes(), m.weights.tobytes()) for m in got] == [
        (m.support.tobytes(), m.weights.tobytes()) for m in expect]
    assert r1.bit_generator.state == r2.bit_generator.state


def bilinear(omega, actions):
    return actions[0][:, 0] * omega[:, 0, 0]


def solve(problem, grid, candidates=None, **kw):
    if candidates is None:
        candidates = dp.build_candidates(problem, grid, dp.sampler_from_kernel(1))
    return dp.backward_induction_exact(problem, grid, candidates, **kw)


def test_single_stage_singleton_value_zero():
    prob = dp.ControlProblem(
        1, SPACE, bilinear, [PM_ACTIONS],
        [amb.Singleton(amb.ConstantKernel(DiscreteMeasure.dirac([0.0])))],
    )
    assert solve(prob, GRID3).value == pytest.approx(0.0, abs=1e-15)


def test_single_stage_adversary_flips_sign():
    kern = amb.FiniteSet(
        [
            amb.ConstantKernel(DiscreteMeasure.dirac([-1.0])),
            amb.ConstantKernel(DiscreteMeasure.dirac([1.0])),
        ]
    )
    prob = dp.ControlProblem(1, SPACE, bilinear, [PM_ACTIONS], [kern])
    cands = dp.build_candidates(prob, GRID3, dp.sampler_from_kernel(1))
    # 2x2 payoff matrix: max_a min_w a*w = -1
    payoff = {
        (a, w): a * w for a in (-1.0, 1.0) for w in (-1.0, 1.0)
    }
    oracle = max(min(payoff[(a, -1.0)], payoff[(a, 1.0)]) for a in (-1.0, 1.0))
    assert oracle == -1.0
    assert solve(prob, GRID3, cands).value == pytest.approx(-1.0, abs=1e-15)
    assert dp.brute_force_value(prob, GRID3, cands) == pytest.approx(-1.0)


def test_oracle_equivalence_randomized():
    rng = np.random.default_rng(42)
    for _ in range(12):
        prob, g, cands = random_tabular_instance(rng)
        res = dp.backward_induction_exact(prob, g, cands)
        oracle = dp.brute_force_value(prob, g, cands)
        assert res.value == pytest.approx(oracle, abs=1e-12)


def ragged_instance(rng):
    """Random tiny instance with what the padded array tables must handle.

    Stage action sets alternate at random between finite lists and 2-D
    BallSets clipped to [-1, 1]^2, whose grids keep 3 to 5 of 9 points
    depending on the path.  Nodes get 1 to 3 candidates of 1 to 12 atoms,
    sometimes a repeated candidate (an exact argmin tie); atoms lie on grid
    points, on midpoints (a snapping tie) or anywhere; terminal coefficients
    in {-1, 0, 1} make actions tie.  Kernels are Wasserstein balls (radius
    0 or 0.3) or singletons, which only the dual-bound recursion reads.
    """
    horizon = int(rng.integers(1, 4))
    n_grid = int(rng.integers(2, 6 - horizon))
    pool = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    g = np.sort(rng.choice(pool, size=n_grid, replace=False))[:, None]
    mids = 0.5 * (g[1:] + g[:-1])
    coefs = rng.integers(-1, 2, size=(horizon, 4)).astype(float)

    def terminal(omega, actions, c=coefs):
        total = np.zeros(len(omega))
        for t, a in enumerate(actions):
            w = omega[:, t, 0]
            total += (
                c[t, 0] * a[:, 0] * w + c[t, 1] * np.abs(a[:, -1] - w) + c[t, 2] * w
                + c[t, 3] * a[:, 0] * a[:, -1]
            )
        return total

    specs = []
    for _ in range(horizon):
        if rng.random() < 0.5:
            k = int(rng.integers(1, 4))
            specs.append(ConstantSet(points=np.sort(rng.uniform(-1, 1, (k, 1)), axis=0)))
        else:
            spec = BallSet(
                lambda path: np.array([0.6 * path[:, 0].sum(), 0.8]), 1.0,
                amb.ConstantRadius(0.5), dim=2,
                ambient_low=np.array([-1.0, -1.0]), ambient_high=np.array([1.0, 1.0]),
            )
            spec.resolution = 3
            specs.append(spec)

    def draw_measure():
        k = int(rng.integers(1, 5 if rng.random() < 0.8 else 13))
        source = rng.integers(0, 3, size=k)
        pts = np.where(
            source[:, None] == 0, g[rng.integers(0, n_grid, k)],
            np.where(
                source[:, None] == 1, mids[rng.integers(0, n_grid - 1, k)],
                rng.uniform(-1, 1, (k, 1)),
            ),
        )
        w = np.full(k, 1.0 / k) if rng.random() < 0.5 else rng.dirichlet(np.ones(k))
        return DiscreteMeasure(pts, w)

    def sampler(kernel, path, rng_):
        out = [draw_measure()]
        for _ in range(int(rng.integers(0, 3))):
            out.append(out[-1] if rng.random() < 0.3 else draw_measure())
        return out

    ref = amb.ConstantKernel(DiscreteMeasure(g, np.full(n_grid, 1.0 / n_grid)))
    kernels = [
        amb.WassersteinBall(ref, amb.ConstantRadius(float(rng.choice([0.0, 0.3]))))
        if rng.random() < 0.5 else amb.Singleton(ref)
        for _ in range(horizon)
    ]
    problem = dp.ControlProblem(horizon, SPACE, terminal, specs, kernels)
    return problem, g, dp.build_candidates(problem, g, sampler)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_array_solver_equals_dict_oracle(seed):
    prob, g, cands = ragged_instance(np.random.default_rng(seed))
    res = dp.backward_induction_exact(prob, g, cands, dual_bound=True)
    oracle = dict_backward_induction(prob, g, cands, dual_bound=True)
    T = prob.horizon
    for t in range(T + 1):
        assert table_dict(res, res.psi_tables, t) == oracle.psi[t]
    for t in range(T):
        assert table_dict(res, res.j_tables, t) == oracle.j[t]
        assert table_dict(res, res.worst_case.argmin_tables, t) == oracle.argmin[t]
        for (node, fk), ci in oracle.argmin[t].items():
            assert res.worst_case.index_for(t, node, fk) == ci
        assert table_dict(res, res.argmax_tables, t) == oracle.argmax[t]
        for node, m in oracle.composed[t].items():
            assert res.worst_case.composed[t][node] is m
    assert res.chosen_idx == oracle.chosen
    assert res.value == oracle.value
    assert res.dual_lower_bound == oracle.dual_lower_bound
    assert dp.serialize_tables(res) == dict_serialize_tables(oracle.psi, oracle.j)

    sizes = [
        (len(res.action_grids[(t, node)]), len(cands[(t, node)]))
        for t in range(T) for node in itertools.product(range(len(g)), repeat=t)
    ]
    if np.prod([a * c for a, c in sizes]) <= 20_000:
        assert dp.brute_force_value(prob, g, cands) == pytest.approx(res.value, abs=1e-12)


def test_value_table_invariants():
    rng = np.random.default_rng(5)
    prob, g, cands = random_tabular_instance(rng, max_horizon=2)
    res = dp.backward_induction_exact(prob, g, cands)
    T = prob.horizon
    # terminal layer equals direct evaluation
    for (node, akey), val in table_dict(res, res.psi_tables, T).items():
        omega = g[list(node)]
        acts = [res.action_grids[(s, node[:s])][akey[s]] for s in range(T)]
        assert val == pytest.approx(dp._terminal_at(prob, omega, acts), abs=1e-12)
    # interior layers equal the max over stored J entries
    for t in range(T):
        j_table = table_dict(res, res.j_tables, t)
        for (node, akey), val in table_dict(res, res.psi_tables, t).items():
            n_act = len(res.action_grids[(t, node)])
            js = [j_table[(node, akey + (ai,))] for ai in range(n_act)]
            assert val == pytest.approx(max(js), abs=1e-12)


def test_worst_case_kernel_attains_stage_minimum():
    rng = np.random.default_rng(6)
    prob, g, cands = random_tabular_instance(rng, max_horizon=2)
    res = dp.backward_induction_exact(prob, g, cands)
    for t in range(prob.horizon):
        j_table = table_dict(res, res.j_tables, t)
        psi_next = table_dict(res, res.psi_tables, t + 1)
        argmin = table_dict(res, res.worst_case.argmin_tables, t)
        for (node, fk), ci in argmin.items():
            assert j_table[(node, fk)] <= min(
                j_table[(node, fk)] for _ in [0]
            ) + 1e-15
            # chosen index is the lowest achieving the minimum
            vals = []
            for cj, m in enumerate(cands[(t, node)]):
                idx = [dp.nearest_index(g, x) for x in m.support]
                vals.append(
                    sum(
                        w * psi_next[(node + (gi,), fk)]
                        for w, gi in zip(m.weights, idx)
                    )
                )
            assert vals[ci] == pytest.approx(min(vals), abs=1e-12)
            assert all(vals[j] > vals[ci] - 1e-15 for j in range(ci))


def enumerate_selections(prob, g, cands):
    nodes = []
    for t in range(prob.horizon):
        nodes.extend((t, n) for n in itertools.product(range(len(g)), repeat=t))
    for combo in itertools.product(*[range(len(cands[k])) for k in nodes]):
        sel = dict(zip(nodes, combo))

        def selection(t, path, actions, sel=sel):
            node = tuple(dp.nearest_index(g, x) for x in path)
            return cands[(t, node)][sel[(t, node)]]

        yield selection


def enumerate_policies(prob, g, grids):
    nodes = []
    for t in range(prob.horizon):
        nodes.extend((t, n) for n in itertools.product(range(len(g)), repeat=t))
    for combo in itertools.product(*[range(len(grids[k])) for k in nodes]):
        pol = dict(zip(nodes, combo))
        stage_actions = [
            np.array([grids[(t, node)][pol[(t, node)]]
                      for node in itertools.product(range(len(g)), repeat=t)])
            for t in range(prob.horizon)
        ]
        yield pol, dp.TabularPolicy(g, stage_actions, prob.action_specs)


def test_saddle_inequalities_and_equality_chain():
    rng = np.random.default_rng(7)
    prob, g, cands = random_tabular_instance(rng, max_horizon=2, enum_guard=20_000)
    res = dp.backward_induction_exact(prob, g, cands)

    # value of the optimal policy under every enumerated adversary >= value
    worst_seen = np.inf
    for selection in enumerate_selections(prob, g, cands):
        v = dp.evaluate_policy(prob, res.policy, selection, local_grid=g)
        worst_seen = min(worst_seen, v)
        assert v >= res.value - 1e-12
    # ... with the worst one attaining it (equality chain, middle term)
    assert worst_seen == pytest.approx(res.value, abs=1e-12)

    # optimal policy under the composed worst-case kernel: E_P*[psi(a*)] = value
    def pstar(t, path, actions):
        return res.worst_case.measure(t, path)

    assert dp.evaluate_policy(prob, res.policy, pstar, local_grid=g) == pytest.approx(
        res.value, abs=1e-12
    )

    # every policy against the selector rebuilt for it stays below the value
    for pol_map, policy in enumerate_policies(prob, g, res.action_grids):
        def rebuilt(t, path, actions, pol_map=pol_map):
            node = tuple(dp.nearest_index(g, x) for x in path)
            fk = tuple(pol_map[(s, node[:s])] for s in range(t + 1))
            return res.worst_case.measure_for(t, node, fk)

        v = dp.evaluate_policy(prob, policy, rebuilt, local_grid=g)
        assert v <= res.value + 1e-12


def test_monotone_in_candidate_sets():
    rng = np.random.default_rng(8)
    prob, g, cands = random_tabular_instance(rng, max_horizon=2)
    extra = DiscreteMeasure(g, np.full(len(g), 1.0 / len(g)))
    bigger = {k: v + [extra] for k, v in cands.items()}
    v_small = dp.backward_induction_exact(prob, g, cands).value
    v_big = dp.backward_induction_exact(prob, g, bigger).value
    assert v_big <= v_small + 1e-12


def test_zero_radius_ball_equals_singleton():
    ref = DiscreteMeasure(GRID3, [0.2, 0.5, 0.3])
    pool = [DiscreteMeasure(GRID3, w) for w in ([0.5, 0.25, 0.25], [0.1, 0.1, 0.8])]

    def terminal(omega, actions):
        return actions[0][:, 0] * omega[:, 0, 0] - np.abs(actions[1][:, 0] - omega[:, 1, 0])

    def build(kern):
        return dp.ControlProblem(2, SPACE, terminal, [PM_ACTIONS] * 2, [kern] * 2)

    ball = amb.WassersteinBall(amb.ConstantKernel(ref), amb.ConstantRadius(0.0))
    single = amb.Singleton(amb.ConstantKernel(ref))
    p_ball = build(ball)
    p_single = build(single)
    c_ball = dp.build_candidates(p_ball, GRID3, dp.pool_sampler(pool))
    c_single = dp.build_candidates(p_single, GRID3, dp.sampler_from_kernel(1))
    r_ball = dp.backward_induction_exact(p_ball, GRID3, c_ball)
    r_single = dp.backward_induction_exact(p_single, GRID3, c_single)
    assert r_ball.value == r_single.value
    assert r_ball.chosen_idx == r_single.chosen_idx


def test_radius_monotonicity_with_pool():
    rng = np.random.default_rng(9)
    ref = DiscreteMeasure(GRID3, [0.3, 0.4, 0.3])
    pool = [
        DiscreteMeasure(GRID3, rng.dirichlet(np.ones(3))) for _ in range(6)
    ]

    def terminal(omega, actions):
        return -np.abs(actions[0][:, 0] - omega[:, 0, 0])

    values = []
    for eps in (0.0, 0.01, 0.05, 0.1):
        ball = amb.WassersteinBall(amb.ConstantKernel(ref), amb.ConstantRadius(eps))
        prob = dp.ControlProblem(1, SPACE, terminal, [PM_ACTIONS], [ball])
        cands = dp.build_candidates(prob, GRID3, dp.pool_sampler(pool))
        values.append(dp.backward_induction_exact(prob, GRID3, cands).value)
    assert all(a >= b for a, b in zip(values, values[1:]))


def action_spec(kind):
    """A 1-D action set of each kind TabularPolicy clamps into; the ball and
    the box move with a weighted path sum, so clamping at an off-grid path
    moves their actions."""
    def shift(path):
        return 0.3 * (np.arange(1, len(path) + 1) @ path[:, 0])

    if kind == "box":
        return ConstantSet(low=[-0.5], high=[0.5], resolution=3)
    if kind == "points":
        return ConstantSet(points=[[-1.0], [0.3], [1.0]])
    if kind == "ball":
        spec = BallSet(lambda path: np.array([shift(path)]), 0.9, amb.ConstantRadius(0.5),
                       dim=1, ambient_low=np.array([-1.0]), ambient_high=np.array([1.0]))
    else:
        spec = BoxSet([lambda path: shift(path) - 0.4], [lambda path: shift(path) + 0.4],
                      lipschitz=0.9)
    spec.resolution = 3
    return spec


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.lists(st.sampled_from(["box", "points", "ball", "boxset"]), min_size=1, max_size=3))
def test_tabular_act_is_nearest_node_lookup_then_clamp(seed, kinds):
    # off-grid paths: each stage action is the solver's choice at the
    # nearest grid node (SolveResult.chosen_idx into action_grids), clamped
    # into the set at the real path.  Stage t's payoff weighs the earlier
    # returns unequally, so the optimal action depends on their order.
    rng = np.random.default_rng(seed)
    T = len(kinds)
    coefs = rng.normal(size=(T, 3))

    def terminal(omega, actions):
        w = omega[:, :, 0]
        return sum(
            c[0] * a[:, 0] * w[:, t] + c[1] * np.abs(a[:, 0] - w[:, t])
            + c[2] * a[:, 0] * (w[:, :t] @ np.arange(1, t + 1))
            for t, (c, a) in enumerate(zip(coefs, actions))
        )

    ref = amb.ConstantKernel(DiscreteMeasure(GRID3, rng.dirichlet(np.ones(3))))
    specs = [action_spec(kind) for kind in kinds]
    prob = dp.ControlProblem(T, SPACE, terminal, specs, [amb.Singleton(ref)] * T)
    res = solve(prob, GRID3)
    omega = rng.uniform(-1.0, 1.0, size=(6, T, 1))
    for t, got in enumerate(dp.rollout(res.policy, omega)):
        want = []
        for path in omega[:, :t]:
            node = tuple(dp.nearest_index(GRID3, x) for x in path)
            a = res.action_grids[(t, node)][res.chosen_idx[t][node]]
            want.append(clamp_to(specs[t], path, a))
        assert got.tobytes() == np.stack(want).tobytes()


def test_evaluate_policy_dirac_telescopes():
    def terminal(omega, actions):
        return omega[:, :, 0].sum(axis=1)

    kern = amb.Singleton(amb.ConstantKernel(DiscreteMeasure.dirac([1.0])))
    prob = dp.ControlProblem(2, SPACE, terminal, [PM_ACTIONS] * 2, [kern] * 2)

    policy = dp.TabularPolicy(GRID3, [np.ones((1, 1)), np.ones((3, 1))], [PM_ACTIONS] * 2)

    def selection(t, path, actions):
        return DiscreteMeasure.dirac([1.0])

    v = dp.evaluate_policy(prob, policy, selection, local_grid=GRID3)
    assert v == pytest.approx(2.0, abs=1e-12)


def test_brute_force_guard():
    rng = np.random.default_rng(10)
    prob, g, cands = random_tabular_instance(rng, max_horizon=2)
    with pytest.raises(ValueError):
        dp.brute_force_value(prob, g, cands, guard=1)


def test_holder_recursion_examples():
    ref = DiscreteMeasure.dirac([0.0])
    kern = amb.WassersteinBall(
        amb.ConstantKernel(ref), amb.ConstantRadius(0.1), 1
    )

    def terminal(omega, actions):
        return np.zeros(len(omega))

    prob = dp.ControlProblem(
        2, SPACE, terminal, [PM_ACTIONS] * 2, [kern] * 2,
        holder={"L_psi": 3.0, "alpha": 1.0, "C_psi": 2.0},
    )
    # stage constants 0.5 + 0.5 <= 1: L_{T-2} = 4 L_psi
    out = dp.holder_constant_recursion(prob, l_p=[0.5, 0.5], l_a=[0.5, 0.5], c_p=[1.0, 1.0])
    assert out["L_psi_t"][0] == pytest.approx(4 * 3.0)
    assert out["L_psi_t"][2] == pytest.approx(3.0)  # t = T unchanged
    assert out["C_psi_t"][2] == pytest.approx(2.0)
    assert out["C_psi_t"][0] == pytest.approx(2.0**2 * 2.0)  # all C_P = 1


def test_refinement_convergence():
    ref = DiscreteMeasure([[-0.63], [0.21], [0.55]], [0.3, 0.4, 0.3])
    kern = amb.Singleton(amb.ConstantKernel(ref))

    def terminal(omega, actions):
        return -np.abs(actions[0][:, 0] - omega[:, 0, 0]) + 0.5 * omega[:, 0, 0]

    prob = dp.ControlProblem(1, SPACE, terminal, [PM_ACTIONS], [kern])

    def value_at(n):
        g = SPACE.grid(n)
        cands = dp.build_candidates(prob, g, dp.sampler_from_kernel(1))
        return dp.backward_induction_exact(prob, g, cands).value

    paths = ref.support[:, None, :]
    exact = max(float(ref.weights @ terminal(paths, [np.full((len(paths), 1), a)]))
                for a in (-1.0, 1.0))
    errs = [abs(value_at(n) - exact) for n in (5, 17, 65)]
    assert errs[2] <= errs[0] + 1e-12
    assert errs[2] < 0.02


def test_dual_lower_bound_reported():
    ref = DiscreteMeasure(GRID3, [0.3, 0.4, 0.3])
    pool = [DiscreteMeasure(GRID3, w) for w in ([0.6, 0.2, 0.2], [0.2, 0.2, 0.6])]

    def terminal(omega, actions):
        return -np.abs(actions[0][:, 0] - omega[:, 0, 0])

    ball = amb.WassersteinBall(amb.ConstantKernel(ref), amb.ConstantRadius(0.2))
    prob = dp.ControlProblem(1, SPACE, terminal, [PM_ACTIONS], [ball])
    cands = dp.build_candidates(prob, GRID3, dp.pool_sampler(pool))
    res = dp.backward_induction_exact(prob, GRID3, cands, dual_bound=True)
    assert res.dual_lower_bound is not None
    assert res.dual_lower_bound <= res.value + 1e-9


def test_empty_grid_ball_raises():
    # one atom halfway between two grid points: moving it onto the grid
    # costs 0.5, so a smaller ball holds no grid measure; at radius 0.5 the
    # two cheapest points tie and the lower psi is taken
    ref = DiscreteMeasure.dirac([0.5])
    assert amb.ball_infimum([0.0, 2.0, 1.0], ref, GRID3, 0.5, 1) == 1.0
    with pytest.raises(ValueError, match="holds no measure"):
        amb.ball_infimum([0.0, 2.0, 1.0], ref, GRID3, 0.4, 1)
    ball = amb.WassersteinBall(amb.ConstantKernel(ref), amb.ConstantRadius(0.4))
    prob = dp.ControlProblem(1, SPACE, bilinear, [PM_ACTIONS], [ball])
    with pytest.raises(ValueError, match="holds no measure"):
        solve(prob, GRID3, dual_bound=True)


def test_dual_bound_tight_for_singleton():
    ref = DiscreteMeasure(GRID3, [0.3, 0.4, 0.3])
    kern = amb.Singleton(amb.ConstantKernel(ref))

    prob = dp.ControlProblem(1, SPACE, bilinear, [PM_ACTIONS], [kern])
    cands = dp.build_candidates(prob, GRID3, dp.sampler_from_kernel(1))
    res = dp.backward_induction_exact(prob, GRID3, cands, dual_bound=True)
    assert res.dual_lower_bound == pytest.approx(res.value, abs=1e-12)


def test_moment_guard():
    ref = DiscreteMeasure(GRID3, [0.3, 0.4, 0.3])
    kern = amb.Singleton(amb.ConstantKernel(ref))

    def terminal(omega, actions):
        return np.zeros(len(omega))

    prob = dp.ControlProblem(
        1, SPACE, terminal, [PM_ACTIONS], [kern],
        growth_p=2, growth_c_p=[0.1],
    )
    with pytest.raises(ValueError):
        dp.build_candidates(prob, GRID3, dp.sampler_from_kernel(1))


def test_order_must_exceed_growth():
    ref = DiscreteMeasure.dirac([0.0])
    ball = amb.WassersteinBall(amb.ConstantKernel(ref), amb.ConstantRadius(0.1), 1)
    with pytest.raises(ValueError):
        dp.ControlProblem(1, SPACE, bilinear, [PM_ACTIONS], [ball], growth_p=1)


def test_table_serialization_snapshot():
    rng = np.random.default_rng(11)
    prob, g, cands = random_tabular_instance(rng, max_horizon=2)
    res = dp.backward_induction_exact(prob, g, cands)
    text = dp.serialize_tables(res)
    assert text.splitlines()[0] == "robustdp-valuetable v1"
    res2 = dp.backward_induction_exact(prob, g, cands)
    assert dp.serialize_tables(res2) == text
