"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Oracles are enumeration, quadrature, closed forms, and linear
programs; trained-network criteria use reduced (but seeded) budgets and
state their tolerances inline.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from conftest import (
    absolute,
    dense_lp_coupling,
    kr_dual_check,
    primal_ball_lp,
    random_tabular_instance,
)
from robustdp import ambiguity as amb
from robustdp import autodiff as ad
from robustdp import bounds as bd
from robustdp import dp
from robustdp import hedging as hg
from robustdp import neural as nn
from robustdp.measures import DiscreteMeasure, LocalSpace, w_q_discrete


def report(num, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# -- criteria 1 & 2: DPP oracle equivalence and saddle checks ---------------------


@pytest.fixture(scope="module")
def oracle_runs():
    rng = np.random.default_rng(20240201)
    runs = []
    start = time.time()
    for _ in range(50):
        prob, g, cands = random_tabular_instance(rng)
        res = dp.backward_induction_exact(prob, g, cands)
        oracle = dp.brute_force_value(prob, g, cands)
        runs.append((prob, g, cands, res, oracle))
    return runs, time.time() - start


def test_criterion_1_oracle_equivalence(oracle_runs):
    runs, elapsed = oracle_runs
    worst = max(abs(res.value - oracle) for _, _, _, res, oracle in runs)
    ok = worst <= 1e-12 and elapsed < 10.0
    report(1, "DPP oracle equivalence", ok,
           f"{len(runs)} instances, max |solver-oracle| = {worst:.2e}, "
           f"runtime {elapsed:.2f}s < 10s")


def _policy_worst_case(prob, g, cands, res):
    """inf over measurable adversary selections of E[psi(a*)], exactly."""
    T = prob.horizon
    chosen = res.chosen_idx
    memo = {}

    def rec(t, node):
        if t == T:
            akey = tuple(chosen[s][node[:s]] for s in range(T))
            omega = g[list(node)]
            acts = [res.action_grids[(s, node[:s])][akey[s]] for s in range(T)]
            return dp._terminal_at(prob, omega, acts)
        if (t, node) in memo:
            return memo[(t, node)]
        best = None
        for m in cands[(t, node)]:
            val = 0.0
            for w, x in zip(m.weights, m.support):
                gi = dp.nearest_index(g, x)
                val += w * rec(t + 1, node + (gi,))
            best = val if best is None or val < best else best
        memo[(t, node)] = best
        return best

    return rec(0, ())


def test_criterion_2_saddle_chain(oracle_runs):
    runs, _ = oracle_runs
    worst = 0.0
    for prob, g, cands, res, oracle in runs:
        inf_over_p = _policy_worst_case(prob, g, cands, res)

        def pstar(t, path, actions):
            return res.worst_case.measure(t, path)

        at_pstar = dp.evaluate_policy(prob, res.policy, pstar, local_grid=g)
        worst = max(
            worst,
            abs(oracle - inf_over_p),
            abs(inf_over_p - at_pstar),
            abs(at_pstar - res.value),
        )
    ok = worst <= 1e-12
    report(2, "saddle equality chain", ok,
           f"max deviation across the three-way chain = {worst:.2e}")


# -- criterion 3: Wasserstein correctness ------------------------------------------


def test_criterion_3_wasserstein_correctness():
    rng = np.random.default_rng(3)

    def rand_measure(d, max_atoms=5):
        n = int(rng.integers(1, max_atoms + 1))
        return DiscreteMeasure(
            rng.uniform(-2, 2, (n, d)), rng.dirichlet(np.ones(n))
        )

    worst_1d = worst_kr = worst_metric = 0.0
    for i in range(100):
        mu, nu = rand_measure(1), rand_measure(1)
        q = 1 + i % 2
        worst_1d = max(
            worst_1d,
            abs(w_q_discrete(mu, nu, q) - dense_lp_coupling(mu, nu, q)[1]),
        )
        if i < 40:
            worst_kr = max(
                worst_kr, abs(kr_dual_check(mu, nu) - w_q_discrete(mu, nu, 1))
            )
    for i in range(100):
        d = 2 + i % 2
        mu, nu, rho = rand_measure(d, 4), rand_measure(d, 4), rand_measure(d, 4)
        dxy, dyx = w_q_discrete(mu, nu, 1), w_q_discrete(nu, mu, 1)
        tri = w_q_discrete(mu, rho, 1) + w_q_discrete(rho, nu, 1) - dxy
        worst_metric = max(
            worst_metric, abs(dxy - dyx), -tri, w_q_discrete(mu, mu, 1)
        )
    ok = worst_1d <= 1e-9 and worst_kr <= 1e-9 and worst_metric <= 1e-9
    report(3, "Wasserstein correctness", ok,
           f"1d-vs-LP {worst_1d:.2e}, KR-dual {worst_kr:.2e}, "
           f"metric axioms {worst_metric:.2e}")


# -- criterion 4: closed-form family distances --------------------------------------


def test_criterion_4_family_closed_forms():
    exp_fam = amb.ExponentialFamily()
    worst_exp = 0.0
    for r in (1, 2):
        for t1, t2 in [(1.0, 3.0), (0.0, 1.0), (0.4, 2.2), (0.0, 0.7)]:
            integrand = lambda u: abs((t1 - t2) * math.log1p(-u)) ** r
            val, _ = quad(integrand, 0.0, 1.0, limit=300)
            worst_exp = max(
                worst_exp, abs(exp_fam.distance([t1], [t2], r) - val ** (1.0 / r))
            )
    nf = amb.NormalDiagFamily(1)
    worst_norm = 0.0
    for (m1, s1), (m2, s2) in [
        ((0.0, 1.0), (0.0, 2.0)),
        ((0.3, 0.8), (-0.2, 1.4)),
        ((1.0, 0.5), (1.0, 2.0)),
    ]:
        integrand = lambda u: ((m1 - m2) + (s1 - s2) * norm.ppf(u)) ** 2
        val, _ = quad(integrand, 0.0, 1.0, limit=300)
        worst_norm = max(
            worst_norm,
            abs(nf.distance([m1, s1], [m2, s2], 2) - math.sqrt(val)),
        )
    ok = worst_exp <= 1e-6 and worst_norm <= 1e-4
    report(4, "closed-form family distances", ok,
           f"exponential quantile-integral gap {worst_exp:.2e} (tol 1e-6), "
           f"normal W2 gap {worst_norm:.2e} (tol 1e-4)")


# -- criterion 5: duality gap --------------------------------------------------------


def test_criterion_5_duality_gap():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        ref = DiscreteMeasure(
            rng.uniform(-1, 1, (n, 1)), rng.dirichlet(np.ones(n))
        )
        z = np.vstack([ref.support, rng.uniform(-1, 1, (16, 1))])
        psi_vals = rng.normal(size=len(z))

        def psi(pts, z=z, v=psi_vals):
            pts = np.atleast_2d(pts)
            return np.array(
                [v[int(np.argmin(np.linalg.norm(z - p, axis=1)))] for p in pts]
            )

        eps = float(rng.uniform(0.02, 0.4))
        primal, lam_star = primal_ball_lp(psi_vals, ref, z, eps)
        lam_grid = np.concatenate(
            [np.geomspace(1e-4, 50.0, 120), [max(lam_star, 1e-6)]]
        )
        dual = max(amb.dual_inner_value(psi, ref, eps, 1, l, z) for l in lam_grid)
        assert dual <= primal + 1e-9  # weak duality, always
        worst = max(worst, primal - dual)
    ok = worst <= 1e-3
    report(5, "duality gap", ok,
           f"max primal-dual gap over 20 instances = {worst:.2e} (tol 1e-3)")


# -- criterion 6: gluing transport ---------------------------------------------------


def test_criterion_6_gluing_transport():
    rng = np.random.default_rng(6)
    worst_member = worst_move = -np.inf
    for i in range(100):
        q = 1 + i % 2
        d = 1 + i % 2
        n = int(rng.integers(1, 4))
        ref1 = DiscreteMeasure(rng.uniform(-1, 1, (n, d)), rng.dirichlet(np.ones(n)))
        ref2 = DiscreteMeasure(rng.uniform(-1, 1, (n, d)), rng.dirichlet(np.ones(n)))
        eps1 = float(rng.uniform(0.05, 0.5))
        eps2 = float(rng.uniform(0.0, 0.5))
        ball = amb.WassersteinBall(
            amb.ConstantKernel(ref1), amb.ConstantRadius(eps1), q
        )
        mu1 = amb.sample_measures(ball, np.zeros((0, d)), 2, rng)[1]
        mu2, lam, _ = amb.transport_between_balls(
            mu1, ref1, eps1, ref2, eps2, q, return_details=True
        )
        worst_member = max(worst_member, w_q_discrete(ref2, mu2, q) - eps2)
        bound = w_q_discrete(ref1, ref2, q) + lam * w_q_discrete(ref1, mu1, q)
        worst_move = max(worst_move, w_q_discrete(mu1, mu2, q) - bound)
    ok = worst_member <= 1e-9 and worst_move <= 1e-9
    report(6, "gluing transport", ok,
           f"max membership excess {worst_member:.2e}, "
           f"max distance-bound excess {worst_move:.2e} (tol 1e-9)")


# -- criterion 7: monotonicity and degeneracy ----------------------------------------


def test_criterion_7_monotonicity():
    rng = np.random.default_rng(7)
    space = LocalSpace(1, 1.0)
    g = np.array([[-1.0], [0.0], [1.0]])
    from robustdp.controls import ConstantSet

    acts = ConstantSet(points=[[-1.0], [0.0], [1.0]])
    violations = 0
    for _ in range(10):
        ref = DiscreteMeasure(g, rng.dirichlet(np.ones(3)))
        pool = [DiscreteMeasure(g, rng.dirichlet(np.ones(3))) for _ in range(8)]
        coefs = rng.normal(size=3)

        def terminal(omega, actions, c=coefs):
            a, w = actions[0][:, 0], omega[:, 0, 0]
            return c[0] * a * w + c[1] * np.abs(a - w) + c[2] * w

        values = []
        for eps in (0.0, 0.01, 0.05, 0.1):
            ball = amb.WassersteinBall(
                amb.ConstantKernel(ref), amb.ConstantRadius(eps)
            )
            prob = dp.ControlProblem(1, space, terminal, [acts], [ball])
            cands = dp.build_candidates(prob, g, dp.pool_sampler(pool))
            values.append(dp.backward_induction_exact(prob, g, cands).value)
        if not all(a >= b for a, b in zip(values, values[1:])):
            violations += 1
        single = amb.Singleton(amb.ConstantKernel(ref))
        prob_s = dp.ControlProblem(1, space, terminal, [acts], [single])
        cands_s = dp.build_candidates(prob_s, g, dp.sampler_from_kernel(1))
        if values[0] != dp.backward_induction_exact(prob_s, g, cands_s).value:
            violations += 1
    ok = violations == 0
    report(7, "radius monotonicity & degeneracy", ok,
           f"{violations} violations over 10 instances (exact comparisons)")


# -- criterion 8: Theorem bound audits -----------------------------------------------


def exp_abs_moment(a, theta):
    if theta == 0.0:
        return abs(a)
    return a - theta + 2 * theta * math.exp(-a / theta)


def test_criterion_8_bound_audits():
    rng = np.random.default_rng(8)
    space = LocalSpace(1, 1.0)
    g = np.array([[-0.5], [0.5]])
    from robustdp.controls import ConstantSet

    acts = ConstantSet(points=[[-0.5], [0.0], [0.5]])
    failures = []

    # 12 Wasserstein/tabular instances, T = 2, solved exactly on the grid
    for i in range(12):
        eps = float(rng.uniform(0.05, 0.3))
        refs, trues = [], []
        for _ in range(2):
            w_ref = rng.dirichlet([4.0, 4.0])
            shift = float(rng.uniform(-eps, eps)) / 2.0
            w_true = np.clip(w_ref + np.array([shift, -shift]), 0.01, 0.99)
            w_true /= w_true.sum()
            refs.append(amb.ConstantKernel(DiscreteMeasure(g, w_ref)))
            trues.append(amb.ConstantKernel(DiscreteMeasure(g, w_true)))

        def terminal(omega, actions):
            return sum(-np.abs(a[:, 0] - omega[:, t, 0]) for t, a in enumerate(actions))

        def solve(kernels, pool=None):
            prob = dp.ControlProblem(2, space, terminal, [acts] * 2, kernels)
            sampler = dp.pool_sampler(pool) if pool else dp.sampler_from_kernel(1)
            cands = dp.build_candidates(prob, g, sampler)
            return dp.backward_induction_exact(prob, g, cands).value

        v_true = solve([amb.Singleton(k) for k in trues])
        v_ref = solve([amb.Singleton(k) for k in refs])
        pool = [k.measure for k in trues] + [k.measure for k in refs]
        v_rob = solve(
            [amb.WassersteinBall(k, amb.ConstantRadius(eps)) for k in refs],
            pool,
        )
        inp = bd.BoundsInput(
            horizon=2, true_kernels=trues, ref_kernels=refs,
            radius=[amb.ConstantRadius(eps)] * 2,
            L_psi=1.0, alpha=1.0, L_A=[0.0] * 2, L_Phat=[0.0] * 2,
        )
        # tabular instances are grid-native, so no mesh allowance is due
        if abs(v_true - v_ref) > bd.stability_bound(inp) + 1e-9:
            failures.append((i, "stability"))
        gap = v_true - v_rob
        if gap < -1e-9 or gap > bd.wasserstein_gap_bound(inp) + 1e-9:
            failures.append((i, "wasserstein"))

    # 8 parametric instances, T = 1, exponential family in closed form
    fam = amb.ExponentialFamily()
    a_grid = np.linspace(0.0, 3.0, 61)
    for i in range(8):
        theta_hat = float(rng.uniform(0.5, 1.5))
        eps = float(rng.uniform(0.05, 0.4))
        theta_true = theta_hat + float(rng.uniform(-eps, eps))
        theta_grid = np.unique(
            np.concatenate(
                [
                    np.linspace(theta_hat - eps, theta_hat + eps, 41),
                    [theta_true, theta_hat],
                ]
            ).clip(0.0)
        )
        theta_grid = theta_grid[np.abs(theta_grid - theta_hat) <= eps + 1e-12]
        v_true = max(-exp_abs_moment(a, theta_true) for a in a_grid)
        v_rob = max(
            min(-exp_abs_moment(a, th) for th in theta_grid) for a in a_grid
        )
        inp = bd.BoundsInput(
            horizon=1, radius=[amb.ConstantRadius(eps)], L_psi=1.0, alpha=1.0,
            L_Ptheta=[fam.lipschitz], L_thetahat=[1.0],
            theta_true=[lambda p, v=theta_true: np.array([v])],
            theta_hat=[lambda p, v=theta_hat: np.array([v])],
        )
        bound = bd.parametric_gap_bound(inp, mu_eps_s0=np.array([eps]))
        gap = v_true - v_rob
        if gap < -1e-9 or gap > bound + 1e-9:
            failures.append((i, "parametric"))

    ok = not failures
    report(8, "value-gap bound audits", ok,
           f"20 instances (12 Wasserstein, 8 parametric), violations: {failures}")


# -- criterion 9: gradient checks ----------------------------------------------------


def test_criterion_9_gradient_checks():
    rng = np.random.default_rng(9)
    worst = 0.0
    checked = 0
    for trial in range(20):
        in_dim = int(rng.integers(1, 5))
        out_dim = int(rng.integers(1, 3))
        net = nn.Mlp(in_dim, out_dim, hidden_layers=int(rng.integers(1, 4)),
                     hidden_units=int(rng.integers(4, 9)), rng=rng)
        for i in range(len(net.biases)):
            net.biases[i] = net.biases[i] + rng.normal(0, 0.05, net.biases[i].shape)
        kind = trial % 3
        if kind == 0:
            X = rng.normal(size=(8, in_dim))

            def tape(apply_fn, X=X):
                out = apply_fn(X)
                return ad.vmean(absolute(out)) + ad.vmean(out**2)

            def loss_np(net, X=X):
                out = net.forward(X)
                return np.abs(out).mean() + (out**2).mean()

        elif kind == 1:
            blocks = [rng.normal(size=(6, in_dim)) for _ in range(3)]

            def tape(apply_fn, blocks=blocks):
                per_k = [
                    ad.reshape(ad.vmean(ad.reshape(apply_fn(b), (-1,))), (1,))
                    for b in blocks
                ]
                return ad.vmin(ad.concat(per_k, axis=0), axis=0)

            def loss_np(net, blocks=blocks):
                return min(net.forward(b).reshape(-1).mean() for b in blocks)

        else:
            z = rng.uniform(-1, 1, size=(7, in_dim))
            x = rng.uniform(-1, 1, size=(5, in_dim))
            lam = float(rng.uniform(0.3, 2.0))
            eps = 0.1
            dist = np.linalg.norm(x[:, None, :] - z[None, :, :], axis=-1)

            def tape(apply_fn, z=z, dist=dist, lam=lam):
                psi_z = ad.reshape(apply_fn(z)[:, 0:1], (1, -1))
                inner = ad.vmin(psi_z + lam * ad.const(dist), axis=1)
                return ad.vmean(inner) - lam * eps

            def loss_np(net, z=z, dist=dist, lam=lam):
                psi_z = net.forward(z)[:, 0]
                return np.min(psi_z[None, :] + lam * dist, axis=1).mean() - lam * eps

        grads = nn.grad(net, tape)
        params0 = [p.copy() for p in net.parameters()]
        h = 1e-5
        for pi, p in enumerate(params0):
            flat = p.ravel()
            for _ in range(min(3, flat.size)):
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
                checked += 1
        net.set_parameters(params0)
    ok = worst < 1e-4
    report(9, "gradient checks", ok,
           f"{checked} coordinates over 20 nets, max relative error "
           f"{worst:.2e} (tol 1e-4)")


# -- criterion 10: neural vs exact ---------------------------------------------------


@pytest.mark.slow
def test_criterion_10_neural_vs_exact():
    start = time.time()
    space = LocalSpace(1, 1.0)
    from robustdp.controls import ConstantSet

    def terminal(omega, actions):
        a0, a1 = actions[0][:, 0], actions[1][:, 0]
        w1, w2 = omega[:, 0, 0], omega[:, 1, 0]
        return -0.5 * (a0 - w1) ** 2 - (a1 - w1 * w2) ** 2 + 0.3 * w2

    def terminal_tape(omega, actions):
        a0 = ad.reshape(ad.as_var(actions[0]), (-1,))
        a1 = ad.reshape(ad.as_var(actions[1]), (-1,))
        w1, w2 = omega[:, 0, 0], omega[:, 1, 0]
        return (
            -0.5 * (a0 - ad.const(w1)) ** 2
            - (a1 - ad.const(w1 * w2)) ** 2
            + ad.const(0.3 * w2)
        )

    # value range over the compact domain, for the stated tolerance
    ws = np.linspace(-1, 1, 15)
    points = np.array(list(itertools.product(ws, ws, (-1, 0, 1), (-1, 0, 1))))
    samples = terminal(points[:, :2, None], [points[:, 2:3], points[:, 3:4]])
    tol = 0.05 * (samples.max() - samples.min())

    cfg = nn.TrainConfig(iter_a=400, iter_psi=600, n_mc=48, batch_size=32,
                         seed=7, hidden_layers=3, hidden_units=24, lr=2e-3,
                         dual_grid=64, eval_mc=4000)

    # Algorithm 1 against the exact solver on the shared candidate sets
    atoms = np.array([[-0.8], [-0.3], [0.2], [0.7]])
    rng = np.random.default_rng(100)
    kernels = [
        amb.FiniteSet(
            [
                amb.ConstantKernel(DiscreteMeasure(atoms, rng.dirichlet(np.ones(4))))
                for _ in range(3)
            ]
        )
        for _ in range(2)
    ]
    spec = ConstantSet(low=[-1.0], high=[1.0], resolution=81)
    prob1 = dp.ControlProblem(2, space, terminal, [spec] * 2, kernels,
                              terminal_tape=terminal_tape)
    cands = dp.build_candidates(prob1, atoms, dp.sampler_from_kernel(3))
    exact1 = dp.backward_induction_exact(prob1, atoms, cands).value
    res1 = nn.train_algorithm1(prob1, config=cfg)
    diff1 = abs(res1.value_estimate - exact1)

    # Algorithm 2 against the exact grid-ball recursion: 41 grid points,
    # 21 actions per stage
    ref = DiscreteMeasure(np.array([[-0.6], [-0.1], [0.4]]), [0.3, 0.4, 0.3])
    eps = 0.08
    ball = amb.WassersteinBall(amb.ConstantKernel(ref), amb.ConstantRadius(eps), 1)
    spec2 = ConstantSet(low=[-1.0], high=[1.0], resolution=21)
    prob2 = dp.ControlProblem(2, space, terminal, [spec2] * 2, [ball] * 2,
                              terminal_tape=terminal_tape)

    # oracle self-check: the grid-ball infimum equals the primal LP
    zg = np.linspace(-1, 1, 41)[:, None]
    probe_psi = np.sin(3 * zg[:, 0])
    lp_val, _ = primal_ball_lp(probe_psi, ref, zg, eps)
    assert abs(amb.ball_infimum(probe_psi, ref, zg, eps, 1) - lp_val) <= 1e-9

    cands2 = dp.build_candidates(prob2, zg, dp.sampler_from_kernel(1))
    exact2 = dp.backward_induction_exact(
        prob2, zg, cands2, dual_bound=True).dual_lower_bound
    res2 = nn.train_algorithm2(prob2, config=cfg)
    diff2 = abs(res2.value_estimate - exact2)

    elapsed = time.time() - start
    ok = diff1 <= tol and diff2 <= tol and elapsed < 300
    report(10, "neural vs exact", ok,
           f"alg1 |{res1.value_estimate:+.4f} - {exact1:+.4f}| = {diff1:.4f}, "
           f"alg2 |{res2.value_estimate:+.4f} - {exact2:+.4f}| = {diff2:.4f} "
           f"(tol {tol:.4f}), runtime {elapsed:.0f}s < 300s")


# -- criterion 11: hedging sanity ---------------------------------------------------


@pytest.mark.slow
def test_criterion_11_hedging_sanity():
    rng = np.random.default_rng(2020)
    C, sigma, T = 0.07, 0.25, 10
    hist, clipped = hg.simulate_gbm_returns(250, 1, sigma, bound=C, rng=rng)
    assert clipped < 1e-4
    prob_h = hg.HedgingProblem(d=1, horizon=T, return_bound=C,
                               payoff=hg.CallPayoff(1.0),
                               a_bound=1.1, b_bound=0.15)
    ref = amb.ConstantKernel(
        DiscreteMeasure.empirical(hist.values, space=prob_h.space)
    )

    cp_nr = hg.make_control_problem(prob_h, [amb.Singleton(ref)] * T)
    cp_nr.net_inputs = "features"
    cfg = nn.TrainConfig(iter_a=400, iter_psi=1600, n_mc=96, batch_size=96,
                         seed=5, hidden_layers=3, hidden_units=32, lr=3e-3,
                         lr_decay=0.02, eval_mc=2000,
                         path_sampling="reference", warm_start=True)
    res_nr = nn.train_algorithm1(cp_nr, config=cfg)

    eps = 0.004
    ball = amb.WassersteinBall(ref, amb.ConstantRadius(eps), 1, space=prob_h.space)
    cp_r = hg.make_control_problem(prob_h, [ball] * T)
    cp_r.net_inputs = "features"
    cfg_r = nn.TrainConfig(iter_a=150, iter_psi=400, n_mc=48, batch_size=48,
                           seed=6, n_measures=3, hidden_layers=3, hidden_units=32,
                           lr=3e-3, lr_decay=0.05, eval_mc=2000,
                           path_sampling="reference", warm_start=True)
    res_r = nn.train_algorithm1(cp_r, config=cfg_r)

    vol_est = hg.estimate_annual_vol(hist)
    delta = hg.bs_delta_hedge(prob_h, vol_est, 1.0)
    test, _ = hg.simulate_gbm_returns(300, 1, sigma, bound=C,
                                      rng=np.random.default_rng(777))
    rep = hg.backtest(prob_h, {"trained": res_nr.policy, "delta": delta}, test)
    m_tr = rep.summary["trained"]["prospect"]["mean"]
    m_dl = rep.summary["delta"]["prospect"]["mean"]
    rel = abs(m_tr - m_dl) / m_dl

    # in-model robust comparison on the shared sampled measure sets, with
    # common random numbers: element 0 of each set is the reference
    shared = res_r.candidate_sets
    vals_rob = nn.mc_policy_values(cp_r, res_r.policy, shared, 4000,
                                   np.random.default_rng(99))
    vals_nr = nn.mc_policy_values(cp_r, res_nr.policy, shared, 4000,
                                  np.random.default_rng(99))
    robust_value = min(vals_rob)
    inclusion_exact = robust_value <= vals_rob[0]
    robust_below_nonrobust = robust_value <= vals_nr[0]

    ok = rel <= 0.25 and inclusion_exact and robust_below_nonrobust
    report(11, "hedging sanity", ok,
           f"trained mean prospect {m_tr:.5f} vs delta {m_dl:.5f} "
           f"(rel {rel:.3f}, tol 0.25); robust value {robust_value:.5f} <= "
           f"reference values {vals_rob[0]:.5f}/{vals_nr[0]:.5f}")


# -- criterion 12: adaptive radii ----------------------------------------------------


PINNED_H_090 = 0.4993412011465305  # seeded MC oracle, 1e5 paths x 1e3 steps


def _multidim_reference(d, C, n, alpha):
    h = -(-d // 2)
    diam = 2 * C * d**0.5
    g = diam / (n ** (1.0 / (2 * h)) - 1.0)
    half = C * d**0.5 / 2
    acc = (half - g) + math.log(half / g) * diam * h
    for k in range(2, h + 1):
        binom = math.factorial(h) // (math.factorial(k) * math.factorial(h - k))
        acc += binom * diam**k * (half ** (1 - k) - g ** (1 - k)) / (1 - k)
    return 64.0 / (3 * alpha) * (g + acc / n**0.5)


def test_criterion_12_adaptive_radii():
    worst_md = 0.0
    for d, C, n in [(2, 0.1, 300), (3, 0.15, 1000), (5, 0.07, 2520), (4, 0.2, 50)]:
        worst_md = max(
            worst_md,
            abs(amb.adaptive_radius_multidim(d, C, n) - _multidim_reference(d, C, n, 0.9)),
        )
    h_default = amb.adaptive_radius_1d(0.9, 1) * 1.0  # N+t = 1 gives H itself
    rel = abs(h_default - PINNED_H_090) / PINNED_H_090
    ok = worst_md <= 1e-12 and rel <= 0.005
    report(12, "adaptive radii", ok,
           f"multidim term-by-term gap {worst_md:.2e} (tol 1e-12), "
           f"H^0.9 = {h_default:.6f} vs pinned {PINNED_H_090:.6f} "
           f"(rel {rel:.2e}, tol 5e-3)")


# -- criterion 13: backtest bookkeeping ----------------------------------------------


def test_criterion_13_backtest_bookkeeping():
    counts = {}
    for name, d, payoff in [
        ("asset_a", 1, hg.CallPayoff(1.0)),
        ("asset_b", 1, hg.CallPayoff(1.05)),
        ("basket", 2, hg.BasketPayoff(2)),
    ]:
        prob = hg.HedgingProblem(d=d, horizon=10, return_bound=0.2, payoff=payoff)
        series, _ = hg.simulate_gbm_returns(
            50, d, 0.2, bound=0.2, rng=np.random.default_rng(13)
        )

        class Zero:
            def act(self, t, omega, past):
                return np.zeros((len(omega), 1 + d if t == 0 else d))

        rep = hg.backtest(prob, {"zero": Zero()}, series)
        counts[name] = rep.summary["zero"]["abs"]["count"]
    ok = all(c == 40 for c in counts.values())
    report(13, "backtest bookkeeping", ok,
           f"50-day window, T=10 gives outcomes per instrument: {counts}")
