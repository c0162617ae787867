import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import norm

from conftest import (
    NDTR_EDGES,
    exact_policy,
    full_path_features,
    full_path_wealth_tape,
    per_path_rollout,
    same_bits,
)
from robustdp import autodiff as ad
from robustdp import dp, hedging as hg, neural as nn
from robustdp import ambiguity as amb
from robustdp.measures import DiscreteMeasure


def call_problem(T=1, C=0.2, **kw):
    return hg.HedgingProblem(
        d=1, horizon=T, return_bound=C, payoff=hg.CallPayoff(1.0), **kw
    )


# -- prospect loss ----------------------------------------------------------------


def test_loss_unit_values_at_defaults():
    assert hg.prospect_loss(0.0) == 0.0
    assert hg.prospect_loss(1.0) == pytest.approx(1.0)
    assert hg.prospect_loss(-1.0) == pytest.approx(2.25)


def test_loss_negative_side_identity():
    xs = np.linspace(0, 3, 25)
    assert np.allclose(hg.prospect_loss(-xs), 2.25 * hg.prospect_loss(xs))


def test_loss_param_validation():
    with pytest.raises(ValueError):
        hg.LossParams(a=1.2)
    with pytest.raises(ValueError):
        hg.LossParams(b=0.9)


@settings(max_examples=50, deadline=None)
@given(st.floats(-50, 50), st.floats(-50, 50))
def test_loss_positive_and_monotone(x, y):
    p = hg.LossParams()
    ux = hg.prospect_loss(x, p)
    assert ux >= 0.0
    if x != 0:
        assert ux > 0.0
    if 0 <= x < y:
        assert hg.prospect_loss(y, p) > ux


@settings(max_examples=50, deadline=None)
@given(st.floats(-5, 5), st.floats(-5, 5))
def test_loss_holder_bound(x, y):
    # |U(x) - U(y)| <= (1 + b) |x - y|^a
    p = hg.LossParams()
    lhs = abs(hg.prospect_loss(x, p) - hg.prospect_loss(y, p))
    assert lhs <= (1 + p.b) * abs(x - y) ** p.a + 1e-12


# -- objective --------------------------------------------------------------------


def test_objective_perfect_static_hedge():
    prob = call_problem(T=2)
    path = np.array([[0.05], [-0.03]])
    prices = hg.prices_from_returns(path, prob.s0)
    payoff = float(prob.payoff(prices))
    actions = [np.array([payoff, 0.0]), np.array([0.0])]
    assert hg.hedging_objective(prob, path, actions) == pytest.approx(0.0, abs=1e-15)


def test_objective_atm_zero_move():
    prob = call_problem(T=1)
    assert hg.hedging_objective(
        prob, np.array([[0.0]]), [np.array([0.0, 0.0])]
    ) == pytest.approx(0.0)


def test_objective_hand_value():
    # T=1, w=0.1, delta=1, d0=0: wealth 0.1, payoff 0.1, error 0
    prob = call_problem(T=1)
    assert hg.hedging_objective(
        prob, np.array([[0.1]]), [np.array([0.0, 1.0])]
    ) == pytest.approx(0.0, abs=1e-15)


def test_objective_rejects_out_of_domain():
    prob = call_problem(T=1, C=0.05)
    with pytest.raises(ValueError):
        hg.hedging_objective(prob, np.array([[0.2]]), [np.array([0.0, 0.0])])
    with pytest.raises(ValueError):
        hg.hedging_objective(prob, np.array([[0.0]]), [np.array([0.0, 99.0])])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3), st.integers(1, 4), st.integers(1, 8))
def test_objective_on_a_batch_equals_per_path_calls(seed, d, T, n):
    rng = np.random.default_rng(seed)
    payoff = hg.CallPayoff(1.0) if d == 1 else hg.BasketPayoff(d)
    prob = hg.HedgingProblem(d=d, horizon=T, return_bound=0.1, payoff=payoff)
    paths = rng.uniform(-0.1, 0.1, size=(n, T, d))
    actions = [
        np.column_stack([rng.uniform(-1, 1, n), rng.uniform(-1.5, 1.5, (n, d))])
    ] + [rng.uniform(-1.5, 1.5, (n, d)) for _ in range(T - 1)]
    batch = hg.hedging_objective(prob, paths, actions)
    assert batch.shape == (n,)
    for i in range(n):
        single = hg.hedging_objective(prob, paths[i], [a[i] for a in actions])
        prices = hg.prices_from_returns(paths[i:i + 1], prob.s0)
        err = (full_path_wealth_tape(prices, [a[i:i + 1] for a in actions])
               - ad.const(prob.payoff(prices)))
        assert batch[i] == single == -hg.prospect_loss(err, prob.loss).value[0]


@pytest.mark.parametrize(
    "row, message",
    [
        (lambda p, a: p.__setitem__((2, 1, 0), 0.2), "return path leaves"),
        (lambda p, a: a[0].__setitem__((2, 0), 1.2), "stage-0 action outside"),
        (lambda p, a: a[0].__setitem__((2, 1), -1.6), "stage-0 action outside"),
        (lambda p, a: a[1].__setitem__((2, 0), 1.6), "position outside bounds"),
    ],
)
def test_objective_batch_with_one_bad_row_raises(row, message):
    prob = call_problem(T=2, C=0.05)
    paths = np.zeros((4, 2, 1))
    actions = [np.zeros((4, 2)), np.zeros((4, 1))]
    row(paths, actions)
    with pytest.raises(ValueError, match=message):
        hg.hedging_objective(prob, paths, actions)
    with pytest.raises(ValueError, match=message):
        hg.hedging_objective(prob, paths[2], [a[2] for a in actions])
    assert hg.hedging_objective(prob, paths[1], [a[1] for a in actions]) == 0.0


def test_self_financing_identity():
    rng = np.random.default_rng(1)
    prob = hg.HedgingProblem(d=2, horizon=6, return_bound=0.1,
                             payoff=hg.BasketPayoff(2))
    path = rng.uniform(-0.1, 0.1, size=(6, 2))
    actions = [np.concatenate([[0.3], rng.uniform(-1, 1, 2)])] + [
        rng.uniform(-1, 1, 2) for _ in range(5)
    ]
    w1 = hg._book(path[None], [a[None] for a in actions], prob.s0)[1].value[0]
    prices = hg.prices_from_returns(path, prob.s0)
    deltas = [actions[0][1:]] + actions[1:]
    w2 = actions[0][0] + sum(
        float(d @ (prices[j + 1] - prices[j])) for j, d in enumerate(deltas)
    )
    assert w1 == pytest.approx(w2, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3), st.integers(1, 4), st.integers(1, 6))
def test_wealth_on_a_batch_equals_per_path_calls(seed, d, T, n):
    rng = np.random.default_rng(seed)
    paths = rng.uniform(-0.1, 0.1, size=(n, T, d))
    actions = [rng.uniform(-1, 1, size=(n, 1 + d))] + [
        rng.uniform(-1, 1, size=(n, d)) for _ in range(T - 1)
    ]
    s0 = rng.uniform(0.5, 2.0, size=d)
    batch = hg._book(paths, actions, s0)[1].value
    assert batch.shape == (n,)
    for i in range(n):
        assert batch[i] == hg._book(paths[i:i + 1], [a[i:i + 1] for a in actions], s0)[1].value[0]


def test_holder_audit_on_difference_quotients():
    prob = call_problem(T=2, C=0.1)
    hd = hg.holder_data(prob)
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(200):
        p1 = rng.uniform(-0.1, 0.1, size=(2, 1))
        p2 = rng.uniform(-0.1, 0.1, size=(2, 1))
        a1 = [np.array([rng.uniform(-1, 1), rng.uniform(-1.5, 1.5)]),
              rng.uniform(-1.5, 1.5, 1)]
        a2 = [np.array([rng.uniform(-1, 1), rng.uniform(-1.5, 1.5)]),
              rng.uniform(-1.5, 1.5, 1)]
        num = abs(
            hg.hedging_objective(prob, p1, a1) - hg.hedging_objective(prob, p2, a2)
        )
        den = sum(
            np.linalg.norm(p1[i] - p2[i]) ** hd["alpha"] for i in range(2)
        ) + sum(np.linalg.norm(x - y) ** hd["alpha"] for x, y in zip(a1, a2))
        worst = max(worst, num / den)
    assert worst <= hd["L_psi"]


def test_batched_terminal_tape_matches_scalar():
    prob = call_problem(T=3)
    cp = hg.make_control_problem(prob, [amb.Singleton(
        amb.ConstantKernel(DiscreteMeasure.dirac([0.0])))] * 3)
    rng = np.random.default_rng(5)
    omega = rng.uniform(-0.2, 0.2, size=(4, 3, 1))
    actions = [rng.uniform(-0.5, 0.5, size=(4, 2))] + [
        rng.uniform(-0.5, 0.5, size=(4, 1)) for _ in range(2)
    ]
    batch = cp.terminal_tape(omega, actions).value
    for i in range(4):
        scalar = cp.terminal(omega[i], [a[i] for a in actions])
        assert batch[i] == pytest.approx(scalar, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 2), st.integers(1, 4), st.integers(1, 4),
       st.integers(1, 6))
def test_one_step_features_equal_full_path_formula(seed, d, T, b, n):
    # the continuation's features (prefix once per path, one book step per
    # row), the stage features and the terminal objective against the
    # whole-path formulas: values and the gradient in the stage action,
    # bit for bit, with s0 != 1 so that carrying prices would show
    rng = np.random.default_rng(seed)
    C = 0.2
    prob = hg.HedgingProblem(d=d, horizon=T, return_bound=C, payoff=hg.BasketPayoff(d),
                             s0=rng.uniform(0.5, 1.5, d))
    cp = hg.make_control_problem(prob, [amb.Singleton(
        amb.ConstantKernel(DiscreteMeasure.dirac(np.zeros(d))))] * T)
    cp.net_inputs = "features"
    omega = rng.uniform(-C, C, (b, T, d))
    nxt = rng.uniform(-C, C, (b, n, d))
    actions = [rng.uniform(-1, 1, (b, 1 + d))] + [rng.uniform(-1, 1, (b, d))
                                                  for _ in range(T - 1)]

    def value_and_grad(fn, t, reps):
        a = ad.Var(actions[t])
        out = fn(ad.repeat_rows(a, reps))
        up = np.random.default_rng(seed + t).normal(size=out.shape)
        ad.backward(ad.vsum(out * ad.const(up)))
        return out.value, a.grad

    for t in range(T):
        omega_b, past = omega[:, :t], actions[:t]
        extended = np.concatenate(
            [np.repeat(omega_b, n, axis=0), nxt.reshape(b * n, 1, d)], axis=1)
        past_rep = [np.repeat(p, n, axis=0) for p in past]
        got = value_and_grad(lambda a: nn._continuation(cp, t, omega_b, past, a, nxt), t, n)
        want = value_and_grad(
            lambda a: full_path_features(prob, t + 1, extended, past_rep + [a]), t, n)
        for g, w in zip(got, want):
            assert np.array_equal(g, w), t
        got = value_and_grad(
            lambda a: nn._stage_input_tape(cp, t + 1, omega[:, :t + 1], past + [a]), t, 1)
        want = value_and_grad(
            lambda a: full_path_features(prob, t + 1, omega[:, :t + 1], past + [a]), t, 1)
        for g, w in zip(got, want):
            assert np.array_equal(g, w), t

    def terminal_oracle(acts):
        prices = hg.prices_from_returns(omega, prob.s0)
        err = full_path_wealth_tape(prices, acts) - ad.const(prob.payoff(prices))
        return -hg.prospect_loss(err, prob.loss)

    got = value_and_grad(lambda a: cp.terminal_tape(omega, actions[:-1] + [a]), T - 1, 1)
    want = value_and_grad(lambda a: terminal_oracle(actions[:-1] + [a]), T - 1, 1)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["both", "features"]), st.integers(1, 2),
       st.integers(0, 3), st.integers(1, 4), st.integers(1, 6))
def test_continuation_equals_one_next_state_per_repeated_path(seed, net_inputs, d, t, b, n):
    # the net input of b paths with n next states each (the prefix once per
    # path) against that of the b n repeated paths with one next state each:
    # values and the gradient in the stage action, bit for bit
    rng = np.random.default_rng(seed)
    prob = hg.HedgingProblem(d=d, horizon=t + 1, return_bound=0.2, payoff=hg.BasketPayoff(d),
                             s0=rng.uniform(0.5, 1.5, d))
    cp = hg.make_control_problem(prob, [amb.Singleton(
        amb.ConstantKernel(DiscreteMeasure.dirac(np.zeros(d))))] * prob.horizon)
    cp.net_inputs = net_inputs
    omega_b = rng.uniform(-0.2, 0.2, (b, t, d))
    nxt = rng.uniform(-0.2, 0.2, (b, n, d))
    past = [rng.uniform(-1, 1, (b, spec.dim)) for spec in cp.action_specs[:t]]
    a0 = rng.uniform(-1, 1, (b, cp.action_specs[t].dim))
    up = rng.normal(size=b * n)

    def value_and_grad(omega, acts, states):
        a = ad.Var(a0)
        out = nn._continuation(cp, t, omega, acts, ad.repeat_rows(a, n), states)
        ad.backward(ad.vsum(out * ad.const(up[:, None])))
        return out.value, a.grad

    got = value_and_grad(omega_b, past, nxt)
    want = value_and_grad(np.repeat(omega_b, n, axis=0), [np.repeat(p, n, axis=0) for p in past],
                          nxt.reshape(b * n, 1, d))
    for g, w in zip(got, want):
        assert (g.shape, g.tobytes()) == (w.shape, w.tobytes())


# -- Black-Scholes baseline ----------------------------------------------------------


CDF_INPUTS = st.one_of(st.floats(-12.0, 12.0), st.floats(), st.sampled_from(NDTR_EDGES.tolist()))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(CDF_INPUTS, hnp.arrays(float, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0),
                              elements=CDF_INPUTS))
def test_norm_cdf_is_scipy_norm_cdf(x, xs):
    # the delta hedge's cdf on every branch, on scalars and on 0-d, empty and
    # 2-D arrays
    assert same_bits(hg.ndtr(x), norm.cdf(x))
    assert same_bits(hg.ndtr(xs), norm.cdf(xs))


def test_delta_deep_in_the_money():
    prob = call_problem(T=252)
    pol = hg.bs_delta_hedge(prob, 0.2, 1.0)
    assert pol._delta(5.0, 0.5) == pytest.approx(1.0, abs=1e-6)


def test_delta_atm_short_maturity():
    prob = call_problem(T=252)
    pol = hg.bs_delta_hedge(prob, 0.2, 1.0)
    tau = 1e-4
    assert pol._delta(1.0, tau) == pytest.approx(
        norm.cdf(0.2 * math.sqrt(tau) / 2), abs=1e-9
    )


def test_delta_one_year_atm():
    prob = call_problem(T=252)
    pol = hg.bs_delta_hedge(prob, 0.2, 1.0)
    a0 = pol.act(0, np.zeros((1, 0, 1)), [])[0]
    assert a0[1] == pytest.approx(norm.cdf(0.1), abs=1e-9)


def test_delta_expiry_indicator():
    prob = call_problem(T=1)
    pol = hg.bs_delta_hedge(prob, 0.2, 1.0)
    assert pol._delta(1.2, 0.0) == 1.0
    assert pol._delta(0.8, 0.0) == 0.0


def test_delta_requires_positive_vol():
    with pytest.raises(ValueError):
        hg.bs_delta_hedge(call_problem(), 0.0, 1.0)


# -- volatility estimate ---------------------------------------------------------------


def test_vol_constant_series_flagged():
    series = hg.ReturnSeries([f"{i:03d}" for i in range(5)], np.zeros((5, 1)))
    with pytest.warns(UserWarning):
        assert hg.estimate_annual_vol(series) == 0.0


def test_vol_alternating_series():
    n = 504
    vals = np.tile([[0.01], [-0.01]], (n // 2, 1))
    series = hg.ReturnSeries([f"{i:04d}" for i in range(n)], vals)
    # closed form: sample sd = 0.01 * sqrt(n/(n-1))
    expect = 0.01 * math.sqrt(n / (n - 1)) * math.sqrt(252)
    assert hg.estimate_annual_vol(series) == pytest.approx(expect, rel=1e-12)
    assert hg.estimate_annual_vol(series) == pytest.approx(0.1587, abs=5e-4)


def test_vol_recovers_gbm_parameter():
    series, _ = hg.simulate_gbm_returns(
        4000, 1, 0.24, rng=np.random.default_rng(8)
    )
    assert hg.estimate_annual_vol(series) == pytest.approx(0.24, rel=0.05)


# -- data containers ----------------------------------------------------------------


def test_series_requires_chronological_dates():
    with pytest.raises(ValueError):
        hg.ReturnSeries(["2020-01-02", "2020-01-01"], np.zeros((2, 1)))


def test_series_bound_validation_names_row():
    series = hg.ReturnSeries(["a", "b", "c"], [[0.01], [0.5], [0.0]])
    with pytest.raises(ValueError, match="row 1"):
        series.validate_bound(0.1)


def test_gbm_clipping_reported():
    series, clipped = hg.simulate_gbm_returns(
        3000, 1, 0.2, bound=0.08, rng=np.random.default_rng(0)
    )
    assert clipped < 1e-4
    assert np.abs(series.values).max() <= 0.08


# -- backtest ---------------------------------------------------------------------


class ZeroPolicy:
    def __init__(self, prob):
        self.prob = prob

    def act(self, t, omega, past):
        return np.zeros((len(omega), 1 + self.prob.d if t == 0 else self.prob.d))


def backtest_oracle(problem, policies, series):
    """The per-window backtest: every policy acts window by window and
    stage by stage through single-row act calls, each window's wealth
    comes from its whole-path price increments, and each error is scored
    on its own."""
    T = problem.horizon
    outcomes = {name: {"error": [], "abs": [], "prospect": []} for name in policies}
    for s in range(len(series) - T):
        path = series.values[s : s + T][None]
        prices = hg.prices_from_returns(path, problem.s0)
        for name, policy in policies.items():
            wealth = full_path_wealth_tape(prices, per_path_rollout(policy, path)).value
            err = wealth - problem.payoff(prices)
            outcomes[name]["error"].append(err)
            outcomes[name]["abs"].append(np.abs(err))
            outcomes[name]["prospect"].append(hg.prospect_loss(err, problem.loss))
    return {name: {k: np.concatenate(v) for k, v in rec.items()}
            for name, rec in outcomes.items()}


def trained_hedge_policy(prob, net_inputs, seed=2):
    ref = amb.ConstantKernel(DiscreteMeasure([[-0.05], [0.0], [0.05]], [0.3, 0.4, 0.3]))
    cp = hg.make_control_problem(prob, [amb.Singleton(ref)] * prob.horizon)
    cp.net_inputs = net_inputs
    cfg = nn.TrainConfig(iter_a=5, iter_psi=5, n_mc=4, batch_size=4, hidden_layers=1,
                         hidden_units=4, eval_mc=8, seed=seed)
    return nn.train_algorithm1(cp, config=cfg).policy


@pytest.mark.parametrize("which", ["delta", "zero", "exact", "trained-both",
                                   "trained-features"])
def test_backtest_matches_per_window_oracle(which):
    prob = call_problem(T=4, C=0.2)
    if which == "delta":
        policy = hg.bs_delta_hedge(prob, 0.25, 1.0)
    elif which == "zero":
        policy = ZeroPolicy(prob)
    elif which == "exact":
        ref = amb.ConstantKernel(DiscreteMeasure([[-0.05], [0.0], [0.05]], [0.3, 0.4, 0.3]))
        cp = hg.make_control_problem(prob, [amb.Singleton(ref)] * 4, action_resolution=3)
        policy = exact_policy(cp, prob.space.grid(3))
    else:
        policy = trained_hedge_policy(prob, which.split("-")[1])
    series, _ = hg.simulate_gbm_returns(30, 1, 0.3, bound=0.2,
                                        rng=np.random.default_rng(11))
    rep = hg.backtest(prob, {which: policy}, series)
    oracle = backtest_oracle(prob, {which: policy}, series)[which]
    for metric in ("error", "abs", "prospect"):
        got = rep.outcomes[which][metric]
        assert len(got) == len(oracle[metric]) == 26
        assert got.tobytes() == oracle[metric].tobytes()
    assert rep.summary[which]["abs"]["count"] == rep.summary[which]["prospect"]["count"] == 26


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 6), st.sampled_from([0.05, 0.25, 0.8]),
       st.sampled_from([0.8, 1.0, 1.2]))
def test_delta_actions_batch_matches_per_path_loop(seed, T, vol, strike):
    prob = call_problem(T=T, C=0.2, a_bound=0.9, b_bound=0.05)
    policy = hg.bs_delta_hedge(prob, vol, strike)
    omega = np.random.default_rng(seed).uniform(-0.2, 0.2, size=(40, T, 1))
    batch = dp.rollout(policy, omega)
    loop = per_path_rollout(policy, omega)
    assert [a.shape for a in batch] == [a.shape for a in loop]
    for got, want in zip(batch, loop):
        assert np.array_equal(got, want)


def test_backtest_zero_payoff_zero_policy():
    prob = hg.HedgingProblem(
        d=1, horizon=5, return_bound=0.2,
        payoff=hg.CustomPayoff(lambda prices: np.zeros(prices.shape[:-2]), 1.0),
    )
    series, _ = hg.simulate_gbm_returns(30, 1, 0.2, bound=0.2,
                                        rng=np.random.default_rng(3))
    rep = hg.backtest(prob, {"zero": ZeroPolicy(prob)}, series)
    assert rep.summary["zero"]["abs"]["max"] == 0.0


def test_backtest_window_count():
    prob = call_problem(T=10)
    series, _ = hg.simulate_gbm_returns(50, 1, 0.2, bound=0.2,
                                        rng=np.random.default_rng(4))
    rep = hg.backtest(prob, {"zero": ZeroPolicy(prob)}, series)
    assert rep.summary["zero"]["abs"]["count"] == 40


def test_backtest_insufficient_data():
    prob = call_problem(T=10)
    series, _ = hg.simulate_gbm_returns(8, 1, 0.2, bound=0.2,
                                        rng=np.random.default_rng(4))
    with pytest.raises(ValueError):
        hg.backtest(prob, {"zero": ZeroPolicy(prob)}, series)


def test_delta_hedge_beats_misspecified_vol():
    # correctly specified delta hedge vs sigma off by a factor 2
    prob = call_problem(T=10, C=0.2)
    series, _ = hg.simulate_gbm_returns(400, 1, 0.2, bound=0.2,
                                        rng=np.random.default_rng(9))
    rep = hg.backtest(
        prob,
        {
            "true_vol": hg.bs_delta_hedge(prob, 0.2, 1.0),
            "double_vol": hg.bs_delta_hedge(prob, 0.4, 1.0),
        },
        series,
    )
    assert (
        rep.summary["true_vol"]["abs"]["mean"]
        < rep.summary["double_vol"]["abs"]["mean"]
    )


def test_backtest_outputs_stable():
    prob = call_problem(T=5)
    series, _ = hg.simulate_gbm_returns(40, 1, 0.2, bound=0.2,
                                        rng=np.random.default_rng(10))
    pol = {"delta": hg.bs_delta_hedge(prob, 0.2, 1.0)}
    rep1 = hg.backtest(prob, pol, series)
    rep2 = hg.backtest(prob, pol, series)
    assert rep1.to_csv() == rep2.to_csv()
    assert rep1.to_json() == rep2.to_json()
