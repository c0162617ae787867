"""Asymmetric-loss hedging of derivatives on d assets.

Returns (not prices) are the canonical state: the local space is the box
[-C, C]^d and prices are reconstructed as S_t = S_0 * prod(1 + r_k) on
demand.  The stage objective handed to the solvers is minus the prospect
loss of the terminal hedging error of a self-financing strategy (initial
cash d_0 plus per-stage positions Delta_t within configured bounds).
scipy is imported inside `_norm_cdf` only, on the first Black-Scholes
delta: nothing else here uses it, and its import would add about a second
to every process.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .controls import ConstantSet
from .dp import ControlProblem, rollout
from .measures import LocalSpace

__all__ = [
    "LossParams",
    "prospect_loss",
    "CallPayoff",
    "BasketPayoff",
    "CustomPayoff",
    "HedgingProblem",
    "ReturnSeries",
    "prices_from_returns",
    "wealth_from_returns",
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
    """U(x) = x^a for x >= 0, b * (-x)^a for x < 0 (vectorized)."""
    x = np.asarray(x, dtype=float)
    pos = np.clip(x, 0.0, None) ** params.a
    neg = params.b * np.clip(-x, 0.0, None) ** params.a
    out = pos + neg
    return float(out) if out.ndim == 0 else out


def _prospect_loss_tape(x, params):
    return ad.pow_pos(x, params.a) + params.b * ad.pow_pos(-x, params.a)


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


def wealth_from_returns(returns, actions, s0):
    """Terminal value d_0 + (p_0 + p_1 + ...) of the self-financing
    strategy, with p_t = Delta_t . (S_{t+1} - S_t).

    One path (T, d) takes actions[t] of shape (m_t,) and gives a float;
    paths (N, T, d) take actions[t] of shape (N, m_t) and give (N,)."""
    prices = prices_from_returns(returns, s0)
    incr = np.diff(prices, axis=-2)
    a0 = np.atleast_1d(np.asarray(actions[0], dtype=float))
    deltas = [a0[..., 1:]] + [np.atleast_1d(np.asarray(a, dtype=float)) for a in actions[1:]]
    return a0[..., 0] + sum(
        (dl[..., None, :] @ incr[..., j, :, None])[..., 0, 0] for j, dl in enumerate(deltas)
    )


def hedging_objective(problem, path, actions):
    """The stage objective: minus prospect loss of (wealth - payoff).

    One path (T, d) takes actions[t] of shape (m_t,) and gives a float;
    paths (N, T, d) take actions[t] of shape (N, m_t) and give (N,), each
    equal bit for bit to the call on its own path when the payoff is (the
    built-in ones are).  The loss powers are taken on Python floats for
    that reason: numpy's vectorized power on an array can differ from the
    scalar one in the last bit."""
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
    prices = prices_from_returns(paths, problem.s0)
    err = wealth_from_returns(paths, acts, problem.s0) - problem.payoff(prices)
    a = problem.loss.a
    powers = np.array([x**a for x in np.abs(err).tolist()])
    out = -np.where(err >= 0, powers, problem.loss.b * powers)
    return float(out[0]) if path.ndim < 3 else out


def _book_step(growth, wealth, action, r, s0):
    """One step of the self-financing book, the one place where the tape
    moves prices and wealth.

    From the growth g_t = prod_{k<=t}(1 + r_k) (M, d) and the wealth W_t
    (a Var (M,), or None before stage 0, whose action carries the cash d_0
    ahead of its positions), the stage action (M, m_t), an array or a Var,
    and the next returns r (M, d) to g_{t+1} = g_t (1 + r) and
    W_{t+1} = W_t + Delta_t . (S_{t+1} - S_t), with S = s0 g.  The growth is
    carried rather than the price: s0 (g_t (1 + r)) is what
    prices_from_returns gives, and S_t (1 + r) can differ in the last bit."""
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


def _terminal_tape(problem):
    """Batched, tape-differentiable total objective for the trainers."""

    def terminal(omega, actions):
        omega = np.asarray(omega, dtype=float)
        payoff = np.asarray(problem.payoff(prices_from_returns(omega, problem.s0)), dtype=float)
        err = _book(omega, actions, problem.s0)[1] - ad.const(payoff)
        return -_prospect_loss_tape(err, problem.loss)

    return terminal


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
    hedging (2019).  The features of whole paths are its n = 1 case
    (neural._stage_features); stage 0 has none."""
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


def make_control_problem(problem, kernels, action_resolution=5, holder=None):
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

    def terminal(omega, actions):
        return hedging_objective(problem, omega, actions)

    cp = ControlProblem(
        horizon=problem.horizon,
        local_space=problem.space,
        terminal=terminal,
        terminal_batch=terminal,
        action_specs=specs,
        kernels=kernels,
        growth_p=0,
        holder=holder if holder is not None else holder_data(problem),
    )
    cp.terminal_tape = _terminal_tape(problem)
    cp.feature_tape = _feature_tape(problem)
    return cp


def holder_data(problem):
    """Safe (not tight) declared Holder constants for the objective.

    The hedging error is Lipschitz on the compact domain with constant at
    most L below; composing with the a-Holder prospect loss gives
    |dPsi| <= (1 + b) * (L * D)^a <= (1 + b) L^a * sum(D_i^a)."""
    C = problem.return_bound
    T = problem.horizon
    d = problem.d
    s_max = float(np.max(problem.s0)) * (1.0 + C) ** T
    l_payoff = getattr(problem.payoff, "holder_beta", 1.0)
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


def _norm_cdf(x):
    """Standard normal cdf; `ndtr` is what scipy.stats.norm.cdf computes,
    bit for bit, without its argument checks."""
    from scipy.special import ndtr

    return ndtr(x)


class BSDeltaPolicy:
    """Delta hedge with zero interest rate: holds N(d_1) units, cash set to
    the initial premium.  At expiry the delta degenerates to the moneyness
    indicator."""

    def __init__(self, problem, annual_vol, strike, day_count=252):
        if problem.d != 1:
            raise ValueError("delta hedge implemented for a single asset")
        if annual_vol <= 0:
            raise ValueError("volatility must be positive")
        self.problem = problem
        self.sigma = float(annual_vol)
        self.strike = float(strike)
        self.day_count = int(day_count)

    def _delta(self, s, tau):
        """N(d_1) at the prices s (an array) with tau years to expiry; at
        expiry the moneyness indicator."""
        s = np.asarray(s, dtype=float)
        if tau <= 0:
            return (s > self.strike).astype(float)
        d1 = (np.log(s / self.strike) + 0.5 * self.sigma**2 * tau) / (
            self.sigma * math.sqrt(tau)
        )
        return _norm_cdf(d1)

    def premium(self):
        s = float(self.problem.s0[0])
        tau = self.problem.horizon / self.day_count
        d1 = (math.log(s / self.strike) + 0.5 * self.sigma**2 * tau) / (
            self.sigma * math.sqrt(tau)
        )
        d2 = d1 - self.sigma * math.sqrt(tau)
        return float(s * _norm_cdf(d1) - self.strike * _norm_cdf(d2))

    def _stage(self, t, prices):
        """Stage-t actions (N, m_t) at the prices S_t (N,): the delta
        clipped to the position bound, after the clipped premium at t = 0."""
        a = self.problem.a_bound
        delta = np.clip(self._delta(prices, (self.problem.horizon - t) / self.day_count), -a, a)
        if t > 0:
            return delta[:, None]
        d0 = np.clip(self.premium(), -self.problem.b_bound, self.problem.b_bound)
        return np.stack([np.full_like(delta, d0), delta], axis=1)

    def action(self, t, path, past_actions=None):
        path = np.asarray(path, dtype=float).reshape(1, t, 1)
        return self._stage(t, prices_from_returns(path, self.problem.s0)[:, t, 0])[0]

    def actions_batch(self, omega):
        """The actions of `action` along all paths omega (N, T, 1) at
        once, one _stage call per stage (see dp.rollout)."""
        prices = prices_from_returns(omega, self.problem.s0)[..., 0]
        return [self._stage(t, prices[:, t]) for t in range(omega.shape[1])]

    def __call__(self, t, path, past_actions=None):
        return self.action(t, path, past_actions)


def bs_delta_hedge(problem, annual_vol, strike, day_count=252):
    return BSDeltaPolicy(problem, annual_vol, strike, day_count)


def estimate_annual_vol(series, trading_days=252):
    """Sample standard deviation of daily returns, annualized by sqrt(days)."""
    values = series.values if isinstance(series, ReturnSeries) else np.atleast_2d(series)
    if values.shape[0] < 2:
        raise ValueError("need at least 2 observations")
    sd = values.std(axis=0, ddof=1) * math.sqrt(trading_days)
    if np.any(sd == 0.0):
        warnings.warn("constant return series: zero volatility estimate")
    return float(sd[0]) if sd.shape[0] == 1 else sd


def simulate_gbm_returns(
    n_days,
    d,
    annual_vol,
    annual_drift=0.0,
    trading_days=252,
    bound=None,
    rng=None,
    start_label=0,
):
    """Daily simple returns from geometric Brownian motion.

    Log returns are Gaussian with the usual drift correction; simple
    returns are clipped into [-bound, bound] when a bound is given and the
    clip fraction is reported (acceptance demands it stay below 1e-4).
    """
    rng = rng or np.random.default_rng(0)
    dt = 1.0 / trading_days
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
    dates = [f"{start_label + i:06d}" for i in range(n_days)]
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
    every policy acts through dp.rollout.  Records per policy the raw
    hedging error, its absolute value and the prospect loss, one array
    each in window order, with summary statistics.
    """
    T = problem.horizon
    if len(series) < T + 1:
        raise ValueError("series shorter than one hedge window")
    paths = np.stack([series.values[s : s + T] for s in range(len(series) - T)])
    payoff = np.asarray(problem.payoff(prices_from_returns(paths, problem.s0)), dtype=float)
    outcomes = {}
    for name, policy in policies.items():
        err = wealth_from_returns(paths, rollout(policy, paths), problem.s0) - payoff
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
