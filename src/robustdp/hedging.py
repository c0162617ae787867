"""Asymmetric-loss hedging of derivatives on d assets.

Returns (not prices) are the canonical state: the local space is the box
[-C, C]^d and prices are reconstructed as S_t = S_0 * prod(1 + r_k) on
demand.  The stage objective handed to the solvers is minus the prospect
loss of the terminal hedging error of a self-financing strategy (initial
cash d_0 plus per-stage positions Delta_t within configured bounds).  One
book (`_book`) carries that strategy's wealth and one `prospect_loss`
scores its error, as tape Vars: the trainers differentiate them, and the
exact solver and the backtest read their values on constant actions,
which build no tape.  The Black-Scholes delta takes its normal cdf from
`normal.ndtr`, scipy's values without scipy's import.
"""

from __future__ import annotations

import functools
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .controls import ConstantSet
from .dp import ControlProblem, rollout
from .measures import LocalSpace
from .normal import ndtr

__all__ = [
    "LossParams",
    "prospect_loss",
    "CallPayoff",
    "BasketPayoff",
    "CustomPayoff",
    "HedgingProblem",
    "ReturnSeries",
    "prices_from_returns",
    "hedging_objective",
    "make_control_problem",
    "holder_data",
    "bs_delta_hedge",
    "BSDeltaPolicy",
    "estimate_annual_vol",
    "simulate_gbm_returns",
    "backtest",
    "BacktestReport",
]

TRADING_DAYS = 252  # a year: GBM steps, volatility annualization, BS expiry


@dataclass(frozen=True)
class LossParams:
    """Prospect-loss shape: x^a on gains, b * (-x)^a on losses.

    Defaults are the experimental estimates a = 0.88, b = 2.25."""

    a: float = 0.88
    b: float = 2.25

    def __post_init__(self):
        if not 0.0 < self.a < 1.0:
            raise ValueError("a must lie in (0, 1)")
        if self.b <= 1.0:
            raise ValueError("b must exceed 1")


def prospect_loss(x, params=LossParams()):
    """U(x) = x^a for x >= 0, b * (-x)^a for x < 0, elementwise on an array
    or a tape Var; a Var in gives a Var out, with subgradient 0 at x = 0."""
    v = ad.as_var(x)
    u = ad.pow_pos(v, params.a) + params.b * ad.pow_pos(-v, params.a)
    if isinstance(x, ad.Var):
        return u
    return float(u.value) if u.value.ndim == 0 else u.value


class CallPayoff:
    """(S_T - strike)^+ on a single asset (strike in S_0 = 1 units)."""

    holder_beta = 1.0

    def __init__(self, strike=1.0):
        self.strike = float(strike)

    def __call__(self, prices):
        # prices: (T+1, d) or batched (N, T+1, d)
        prices = np.asarray(prices, dtype=float)
        s_T = prices[..., -1, 0]
        return np.clip(s_T - self.strike, 0.0, None)


class BasketPayoff:
    """(sum_i w_i (S_T^i - strike_i))^+; defaults to equal weights and
    at-the-money strikes S_0."""

    holder_beta = 1.0

    def __init__(self, d, weights=None, strikes=None):
        self.d = d
        self.weights = (
            np.full(d, 1.0 / d) if weights is None else np.asarray(weights, dtype=float)
        )
        self.strikes = (
            np.ones(d) if strikes is None else np.asarray(strikes, dtype=float)
        )

    def __call__(self, prices):
        prices = np.asarray(prices, dtype=float)
        s_T = prices[..., -1, :]
        # one dot product per path: a matrix-vector product over a batch
        # can round differently from the same path alone when d >= 3
        basket = ((s_T - self.strikes)[..., None, :] @ self.weights[:, None])[..., 0, 0]
        return np.clip(basket, 0.0, None)


class CustomPayoff:
    def __init__(self, fn, holder_beta):
        if not 0.0 < holder_beta <= 1.0:
            raise ValueError("Holder exponent must lie in (0, 1]")
        self.fn = fn
        self.holder_beta = holder_beta

    def __call__(self, prices):
        return self.fn(np.asarray(prices, dtype=float))


@dataclass
class HedgingProblem:
    """d assets with S_0 normalized to 1, horizon T, returns in [-C, C]^d,
    positions |Delta| <= a_bound and initial cash |d_0| <= b_bound."""

    d: int
    horizon: int
    return_bound: float
    payoff: object
    loss: LossParams = field(default_factory=LossParams)
    a_bound: float = 1.5
    b_bound: float = 1.0
    s0: object = None

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if min(self.return_bound, self.a_bound, self.b_bound) <= 0:
            raise ValueError("bounds must be positive")
        if self.s0 is None:
            self.s0 = np.ones(self.d)
        else:
            self.s0 = np.asarray(self.s0, dtype=float)

    @property
    def space(self):
        return LocalSpace(self.d, self.return_bound)


@dataclass
class ReturnSeries:
    """Chronological simple returns, one d-vector per date."""

    dates: list
    values: object

    def __post_init__(self):
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if len(self.dates) != self.values.shape[0]:
            raise ValueError("one date per return row required")
        if list(self.dates) != sorted(self.dates):
            raise ValueError("returns must be in chronological order")

    def __len__(self):
        return self.values.shape[0]

    @property
    def d(self):
        return self.values.shape[1]

    def validate_bound(self, C):
        bad = np.nonzero(np.any(np.abs(self.values) > C, axis=1))[0]
        if bad.size:
            raise ValueError(
                f"return on {self.dates[bad[0]]} (row {bad[0]}) exceeds bound {C}"
            )

    def max_abs(self):
        return float(np.abs(self.values).max())


def prices_from_returns(returns, s0):
    """S_t = s0 * prod_{k<=t}(1 + r_k); supports (T, d) and (N, T, d)."""
    returns = np.asarray(returns, dtype=float)
    growth = np.cumprod(1.0 + returns, axis=-2)
    ones = np.ones(growth.shape[:-2] + (1,) + growth.shape[-1:])
    return s0 * np.concatenate([ones, growth], axis=-2)


def hedging_objective(problem, path, actions):
    """The stage objective: minus prospect loss of (wealth - payoff).

    One path (T, d) takes actions[t] of shape (m_t,) and gives a float;
    paths (N, T, d) take actions[t] of shape (N, m_t) and give (N,).  After
    the domain and bound checks it is the value of the trainers' terminal
    on constant actions.  A single path goes through the book as one row,
    so every row of a batch equals the call on its own path bit for bit,
    given a payoff whose rows do (the built-in ones do)."""
    path = np.asarray(path, dtype=float)
    paths = path.reshape(-1, problem.horizon, problem.d)
    acts = [np.asarray(a, dtype=float).reshape(len(paths), -1) for a in actions]
    if np.any(np.abs(paths) > problem.return_bound + 1e-9):
        raise ValueError("return path leaves the declared domain")
    if np.any(np.abs(acts[0][:, 0]) > problem.b_bound + 1e-9) or np.any(
        np.abs(acts[0][:, 1:]) > problem.a_bound + 1e-9
    ):
        raise ValueError("stage-0 action outside bounds")
    for a in acts[1:]:
        if np.any(np.abs(a) > problem.a_bound + 1e-9):
            raise ValueError("position outside bounds")
    out = _terminal(problem, paths, acts).value
    return float(out[0]) if path.ndim < 3 else out


def _book_step(growth, wealth, action, r, s0):
    """One step of the self-financing book, the one place where prices and
    wealth move.

    From the growth g_t = prod_{k<=t}(1 + r_k) (M, d) and the wealth W_t
    (a Var (M,), or None before stage 0, whose action carries the cash d_0
    ahead of its positions), the stage action (M, m_t), an array or a Var,
    and the next returns r (M, d) to g_{t+1} = g_t (1 + r) and
    W_{t+1} = W_t + Delta_t . (S_{t+1} - S_t), with S = s0 g.  So the
    terminal wealth is ((d_0 + p_0) + p_1) + ..., p_t the stage's gain.
    The growth is carried rather than the price: s0 (g_t (1 + r)) is what
    prices_from_returns gives, and S_t (1 + r) can differ in the last bit.
    Each row's bits depend on that row alone, so a batch of paths gives
    what each path gives as a batch of one."""
    a = ad.as_var(action)
    nxt = growth * (1.0 + r)
    if wealth is None:
        wealth, a = ad.reshape(a[:, 0:1], (-1,)), a[:, 1:]
    return nxt, wealth + ad.vsum(a * ad.const(s0 * nxt - s0 * growth), axis=1)


def _book(omega, actions, s0):
    """Growth (N, d) and wealth Var (N,) (None for no action) after the
    given stage actions along paths omega (N, >= t, d)."""
    growth, wealth = np.ones((omega.shape[0], omega.shape[2])), None
    for j, a in enumerate(actions):
        growth, wealth = _book_step(growth, wealth, a, omega[:, j], s0)
    return growth, wealth


def _hedging_error(problem, omega, actions):
    """Terminal wealth minus payoff along paths omega (N, T, d), a Var (N,)
    that is constant when the actions are."""
    payoff = problem.payoff(prices_from_returns(omega, problem.s0))
    return _book(omega, actions, problem.s0)[1] - ad.const(payoff)


def _terminal(problem, omega, actions):
    """Minus the prospect loss of the hedging error, a Var (N,): the total
    objective, differentiable in the actions."""
    return -prospect_loss(_hedging_error(problem, omega, actions), problem.loss)


def _feature_tape(problem):
    """Derived per-stage state fed to the networks besides the raw path:
    normalized price displacement and running wealth.  Both are measurable
    functions of (path, past actions), so the networks remain maps of the
    same arguments; the value function of this problem is Markov in them,
    which is what makes the stage regressions learnable.

    Returns the step feature_tape(t, omega_b (b, t, d), past, a,
    nxt (b, n, d)): the features at stage t+1 of every path of omega_b
    extended by each of its n next returns under the stage action a (b n
    rows).  It runs the book once per path over the prefix and one
    _book_step per row, the incremental state of Buehler et al., Deep
    hedging (2019).  neural._continuation places it beside the path and
    the actions, or alone; the features of whole paths are its n = 1 case
    (neural._stage_input_tape), and stage 0 has none."""
    C, s0 = problem.return_bound, problem.s0

    def step(t, omega_b, past, a, nxt):
        b, n, d = nxt.shape
        growth, wealth = _book(omega_b, past, s0)
        if wealth is not None:
            wealth = ad.repeat_rows(wealth, n)
        growth, wealth = _book_step(np.repeat(growth, n, axis=0), wealth, a,
                                    nxt.reshape(b * n, d), s0)
        w_feat = ad.reshape(wealth, (-1, 1)) * (1.0 / (4.0 * C))
        return ad.concat([ad.const((s0 * growth - s0) / C), w_feat], axis=1)

    return step


def make_control_problem(problem, kernels, action_resolution=5):
    """Wrap the hedging instance as a ControlProblem for the solvers."""
    specs = [
        ConstantSet(
            low=[-problem.b_bound] + [-problem.a_bound] * problem.d,
            high=[problem.b_bound] + [problem.a_bound] * problem.d,
            resolution=action_resolution,
        )
    ] + [
        ConstantSet(
            low=[-problem.a_bound] * problem.d,
            high=[problem.a_bound] * problem.d,
            resolution=action_resolution,
        )
        for _ in range(problem.horizon - 1)
    ]
    return ControlProblem(
        horizon=problem.horizon,
        local_space=problem.space,
        terminal=functools.partial(hedging_objective, problem),
        action_specs=specs,
        kernels=kernels,
        holder=holder_data(problem),
        terminal_tape=functools.partial(_terminal, problem),
        feature_tape=_feature_tape(problem),
    )


def holder_data(problem):
    """Safe (not tight) declared Holder constants for the objective.

    The hedging error is Lipschitz on the compact domain with constant at
    most L below; composing with the a-Holder prospect loss gives
    |dPsi| <= (1 + b) * (L * D)^a <= (1 + b) L^a * sum(D_i^a)."""
    C = problem.return_bound
    T = problem.horizon
    d = problem.d
    s_max = float(np.max(problem.s0)) * (1.0 + C) ** T
    l_payoff = problem.payoff.holder_beta
    l_actions = max(1.0, s_max * C * math.sqrt(d))
    l_omega = (2.0 * problem.a_bound * d * T + d * T) * s_max / max(1.0 - C, 1e-9)
    lip = max(l_actions, l_omega)
    alpha = problem.loss.a * l_payoff
    f_max = (
        problem.b_bound
        + problem.a_bound * d * T * s_max * C
        + s_max * d
    )
    return {
        "L_psi": (1.0 + problem.loss.b) * lip**problem.loss.a,
        "alpha": alpha,
        "C_psi": (1.0 + problem.loss.b) * (1.0 + f_max),
    }


# ---------------------------------------------------------------------------
# Black-Scholes baseline
# ---------------------------------------------------------------------------


class BSDeltaPolicy:
    """Delta hedge with zero interest rate: holds N(d_1) units, cash set to
    the initial premium.  At expiry the delta degenerates to the moneyness
    indicator.  A policy in the sense of dp.rollout: act(t, omega, past)."""

    def __init__(self, problem, annual_vol, strike):
        if problem.d != 1:
            raise ValueError("delta hedge implemented for a single asset")
        if annual_vol <= 0:
            raise ValueError("volatility must be positive")
        self.problem = problem
        self.sigma = float(annual_vol)
        self.strike = float(strike)

    def _delta(self, s, tau):
        """N(d_1) at the prices s (an array) with tau years to expiry; at
        expiry the moneyness indicator."""
        s = np.asarray(s, dtype=float)
        if tau <= 0:
            return (s > self.strike).astype(float)
        d1 = (np.log(s / self.strike) + 0.5 * self.sigma**2 * tau) / (
            self.sigma * math.sqrt(tau)
        )
        return ndtr(d1)

    def premium(self):
        s = float(self.problem.s0[0])
        tau = self.problem.horizon / TRADING_DAYS
        d1 = (math.log(s / self.strike) + 0.5 * self.sigma**2 * tau) / (
            self.sigma * math.sqrt(tau)
        )
        d2 = d1 - self.sigma * math.sqrt(tau)
        return float(s * ndtr(d1) - self.strike * ndtr(d2))

    def act(self, t, omega, past):
        """Stage-t actions (N, m_t) along paths omega (N, >= t, 1): the
        delta at the price S_t clipped to the position bound, after the
        clipped premium at t = 0; the past actions are not read."""
        prices = prices_from_returns(omega[:, :t], self.problem.s0)[:, t, 0]
        a = self.problem.a_bound
        delta = np.clip(self._delta(prices, (self.problem.horizon - t) / TRADING_DAYS), -a, a)
        if t > 0:
            return delta[:, None]
        d0 = np.clip(self.premium(), -self.problem.b_bound, self.problem.b_bound)
        return np.stack([np.full_like(delta, d0), delta], axis=1)


def bs_delta_hedge(problem, annual_vol, strike):
    return BSDeltaPolicy(problem, annual_vol, strike)


def estimate_annual_vol(series):
    """Sample standard deviation of daily returns, annualized by sqrt(days)."""
    values = series.values if isinstance(series, ReturnSeries) else np.atleast_2d(series)
    if values.shape[0] < 2:
        raise ValueError("need at least 2 observations")
    sd = values.std(axis=0, ddof=1) * math.sqrt(TRADING_DAYS)
    if np.any(sd == 0.0):
        warnings.warn("constant return series: zero volatility estimate")
    return float(sd[0]) if sd.shape[0] == 1 else sd


def simulate_gbm_returns(n_days, d, annual_vol, annual_drift=0.0, bound=None, rng=None):
    """Daily simple returns from geometric Brownian motion, TRADING_DAYS
    a year, dated "000000", "000001", ...

    Log returns are Gaussian with the usual drift correction; simple
    returns are clipped into [-bound, bound] when a bound is given and the
    clip fraction is reported (acceptance demands it stay below 1e-4).
    """
    rng = rng or np.random.default_rng(0)
    dt = 1.0 / TRADING_DAYS
    sig = np.broadcast_to(np.asarray(annual_vol, dtype=float), (d,))
    mu = np.broadcast_to(np.asarray(annual_drift, dtype=float), (d,))
    g = rng.normal(
        (mu - 0.5 * sig**2) * dt, sig * math.sqrt(dt), size=(n_days, d)
    )
    r = np.expm1(g)
    clipped = 0.0
    if bound is not None:
        clipped = float(np.mean(np.abs(r) > bound))
        r = np.clip(r, -bound, bound)
    dates = [f"{i:06d}" for i in range(n_days)]
    return ReturnSeries(dates, r), clipped


# ---------------------------------------------------------------------------
# backtest harness
# ---------------------------------------------------------------------------


def _stats(values):
    values = np.asarray(values, dtype=float)
    return {
        "count": int(values.size),
        "mean": float(values.mean()),
        "std": float(values.std(ddof=1)) if values.size > 1 else 0.0,
        "min": float(values.min()),
        "25%": float(np.percentile(values, 25)),
        "50%": float(np.percentile(values, 50)),
        "75%": float(np.percentile(values, 75)),
        "max": float(values.max()),
    }


@dataclass
class BacktestReport:
    horizon: int
    outcomes: dict  # policy -> {"error": (n,), "abs": (n,), "prospect": (n,)} arrays
    summary: dict  # policy -> {"abs": stats, "prospect": stats}

    def to_json(self):
        return json.dumps(
            {
                "schema_version": 1,
                "horizon": self.horizon,
                "summary": self.summary,
            },
            indent=2,
            sort_keys=True,
        )

    def to_csv(self):
        lines = ["policy,metric,stat,value"]
        for policy in sorted(self.summary):
            for metric in ("abs", "prospect"):
                for stat, val in self.summary[policy][metric].items():
                    lines.append(f"{policy},{metric},{stat},{val:.17g}")
        return "\n".join(lines) + "\n"


def backtest(problem, policies, series):
    """Roll a fresh hedge from every start date in the series.

    Each start consumes the next T returns, so a series of length n yields
    n - T windows, stacked into one paths array (n - T, T, d) along which
    every policy acts through dp.rollout, one act(t, omega, past) call per
    stage over all windows at once.  The errors come from the book the
    solvers use.  Records per policy the raw hedging error, its absolute
    value and the prospect loss, one array each in window order, with
    summary statistics.
    """
    T = problem.horizon
    if len(series) < T + 1:
        raise ValueError("series shorter than one hedge window")
    paths = np.stack([series.values[s : s + T] for s in range(len(series) - T)])
    outcomes = {}
    for name, policy in policies.items():
        err = _hedging_error(problem, paths, rollout(policy, paths)).value
        outcomes[name] = {"error": err, "abs": np.abs(err),
                          "prospect": prospect_loss(err, problem.loss)}
    summary = {
        name: {
            "abs": _stats(rec["abs"]),
            "prospect": _stats(rec["prospect"]),
        }
        for name, rec in outcomes.items()
    }
    return BacktestReport(horizon=T, outcomes=outcomes, summary=summary)
