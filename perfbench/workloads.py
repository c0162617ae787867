"""The benchmark workloads: inputs made from a seed, one operation, checks.

Each workload is a closed loop with one client: `run()` is called again only
after the previous call returned, with identical inputs, so every call must
reproduce the first call's output digest.

* exact-t3  -- `robustdp.cli.main(["solve-exact", ...])` on a generated CSV
  and config: exact backward induction over sampled Wasserstein-ball
  candidates.  The only workload where `dp` works; it runs OT at moderate
  size and never touches `neural` or `autodiff`.
* hedge-t5  -- non-robust Algorithm 1 with hedging features, then a
  backtest of the trained and Black-Scholes delta policies.  Tape, MLP and
  feature map carry it, with zero transport LPs.
* robust-t5 -- Algorithm 1 on a Wasserstein ball (sampled candidate sets,
  dense transport LPs), Algorithm 2 (dual, no LPs), then Monte Carlo values
  of both policies on Algorithm 1's shared candidate sets.

Inputs (synthetic GBM returns, configs, seeds of the trainers) come only
from the workload seed; the package receives nothing else.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from robustdp import ambiguity as amb
from robustdp import cli
from robustdp import dp
from robustdp import hedging as hg
from robustdp import neural as nn
from robustdp.measures import DiscreteMeasure
from tracing import Patches

# Shared market: daily returns of one asset with 25 % annual volatility,
# clipped to +-7 %, which a GBM path exceeds with probability ~1e-5.
VOL = 0.25
BOUND = 0.07
EPS = 0.004  # Wasserstein radius (q = 1) of the robust workloads

SIZES = {
    "exact-t3": dict(days=75, train_fraction=0.8, horizon=3, grid_points=5,
                     resolution=3, n_measures=3),
    "hedge-t5": dict(history=250, test=335, horizon=5, iter_a=15, iter_psi=45,
                     n_mc=96, batch=96, eval_mc=2000),
    "robust-t5": dict(history=200, horizon=5, iter_a=15, iter_psi=30, n_mc=48,
                      batch=48, eval_mc=2000, n_measures=3, dual_grid=64,
                      mc_paths=2000),
}


def gbm_returns(rng, n_days):
    """(n_days, 1) daily simple returns of a driftless GBM, clipped."""
    dt = 1.0 / 252
    g = rng.normal(-0.5 * VOL**2 * dt, VOL * math.sqrt(dt), size=(n_days, 1))
    return np.clip(np.expm1(g), -BOUND, BOUND)


def _seeds(seed, k):
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(k)]


def _series(values, start=0):
    return hg.ReturnSeries([f"{start + i:06d}" for i in range(len(values))], values)


def digest_text(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _finite(*xs):
    return all(math.isfinite(float(x)) for x in xs)


class Workload:
    """run() -> output; check(output) and check_first(output) -> failures."""

    problems = ()  # control problems whose tape attributes tracing wraps

    @staticmethod
    def counts(out):
        """Per-call counts the tracer cannot see, from the output."""
        return {}

    @staticmethod
    def check_first(out):
        """Checks too costly for every call; made on the first output."""
        return []


# ---------------------------------------------------------------------------
# exact-t3
# ---------------------------------------------------------------------------


class ExactT3(Workload):
    name = "exact-t3"

    def __init__(self, seed, workdir):
        sz = SIZES[self.name]
        data_seed, cli_seed = _seeds(seed, 2)
        returns = gbm_returns(np.random.default_rng(data_seed), sz["days"])
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        csv_path = self.workdir / "returns.csv"
        csv_path.write_text(
            "date,r_1\n" + "".join(f"{i:06d},{r:.17g}\n" for i, r in enumerate(returns[:, 0]))
        )
        config = {
            "seed": cli_seed,
            "problem": {"dimension": 1, "horizon": sz["horizon"], "return_bound": BOUND,
                        "payoff": {"kind": "call", "strike": 1.0}},
            "data": {"csv": str(csv_path), "train_fraction": sz["train_fraction"]},
            "ambiguity": {"kind": "wasserstein", "order": 1,
                          "radius": {"kind": "constant", "value": EPS},
                          "reference": {"kind": "empirical"}},
            "controls": {"resolution": sz["resolution"]},
            "solver": {"grid_points": sz["grid_points"], "n_measures": sz["n_measures"]},
        }
        self.config_path = self.workdir / "config.json"
        self.config_path.write_text(json.dumps(config, indent=2, sort_keys=True))
        self.out_dir = self.workdir / "out"

    def run(self):
        captured = {}

        def capture(solve):
            def wrapper(problem, local_grid, candidates, *args, **kwargs):
                result = solve(problem, local_grid, candidates, *args, **kwargs)
                captured.update(problem=problem, grid=local_grid,
                                candidates=candidates, result=result)
                return result

            return wrapper

        patches = Patches()
        patches.wrap_everywhere(dp.backward_induction_exact, capture)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["solve-exact", "--config", str(self.config_path),
                                 "--out", str(self.out_dir)])
        finally:
            patches.restore()
        if code != 0:
            raise RuntimeError(f"solve-exact exited with {code}")
        captured["table"] = (self.out_dir / "value_table.txt").read_text()
        captured["value_json"] = (self.out_dir / "value.json").read_text()
        return captured

    @staticmethod
    def digest(out):
        return digest_text(out["table"] + out["value_json"])

    @staticmethod
    def counts(out):
        entries = sum(1 for line in out["table"].splitlines()
                      if line.startswith(("PSI ", "J ")))
        return {"dp.table_entries": entries}

    @staticmethod
    def check(out):
        res, prob, grid = out["result"], out["problem"], out["grid"]
        errors = []
        written = json.loads(out["value_json"])["value"]
        if not _finite(res.value) or written != res.value:
            errors.append(f"value.json {written!r} != solver value {res.value!r}")

        # evaluate_policy snaps each atom to the grid and recurses once per
        # atom, (atoms)^T leaves; the same measure pushed onto the grid
        # first gives the same sum up to rounding with (grid points)^T.
        pushed = {}

        def pstar(t, path, actions):
            m = res.worst_case.measure(t, path)
            if id(m) not in pushed:
                idx = [dp.nearest_index(grid, x) for x in m.support]
                w = np.bincount(idx, weights=m.weights, minlength=len(grid))
                keep = np.flatnonzero(w)
                pushed[id(m)] = DiscreteMeasure(grid[keep], w[keep])
            return pushed[id(m)]

        at_pstar = dp.evaluate_policy(prob, res.policy, pstar, local_grid=grid)
        if not abs(at_pstar - res.value) <= 1e-12:
            errors.append(f"saddle chain: value {res.value!r} vs policy "
                          f"under its worst case {at_pstar!r}")
        return errors

    @staticmethod
    def check_first(out):
        """Every sampled candidate lies in its Wasserstein ball."""
        prob, grid = out["problem"], out["grid"]
        errors = []
        seen = set()
        for (t, node), cands in sorted(out["candidates"].items()):
            path = grid[list(node)]
            for ci, m in enumerate(cands):
                if (t, id(m)) in seen:
                    continue  # the ball is the same at every node of a stage
                seen.add((t, id(m)))
                ok, slack = amb.membership(prob.kernels[t], path, m)
                if not ok:
                    errors.append(f"candidate {ci} at stage {t} node {node} "
                                  f"outside the ball (slack {slack:.3g})")
        return errors


# ---------------------------------------------------------------------------
# hedging problems shared by hedge-t5 and robust-t5
# ---------------------------------------------------------------------------


def _hedging_problem(horizon):
    return hg.HedgingProblem(d=1, horizon=horizon, return_bound=BOUND,
                             payoff=hg.CallPayoff(1.0), a_bound=1.1, b_bound=0.15)


def _train_config(sz, seed, **extra):
    return nn.TrainConfig(iter_a=sz["iter_a"], iter_psi=sz["iter_psi"], n_mc=sz["n_mc"],
                          batch_size=sz["batch"], seed=seed, hidden_layers=3,
                          hidden_units=32, lr=3e-3, eval_mc=sz["eval_mc"],
                          path_sampling="reference", warm_start=True, **extra)


class HedgeT5(Workload):
    name = "hedge-t5"

    def __init__(self, seed, workdir=None):
        sz = SIZES[self.name]
        hist_seed, test_seed, self.train_seed = _seeds(seed, 3)
        history = _series(gbm_returns(np.random.default_rng(hist_seed), sz["history"]))
        self.test = _series(gbm_returns(np.random.default_rng(test_seed), sz["test"]),
                            start=sz["history"])
        self.hp = _hedging_problem(sz["horizon"])
        ref = amb.ConstantKernel(DiscreteMeasure.empirical(history.values, space=self.hp.space))
        self.problem = hg.make_control_problem(self.hp, [amb.Singleton(ref)] * sz["horizon"])
        self.problem.net_inputs = "features"
        self.config = _train_config(sz, self.train_seed, lr_decay=0.02)
        self.delta = hg.bs_delta_hedge(self.hp, hg.estimate_annual_vol(history), 1.0)
        self.problems = (self.problem,)

    def run(self):
        res = nn.train_algorithm1(self.problem, config=self.config,
                                  rng=np.random.default_rng(self.train_seed))
        report = hg.backtest(self.hp, {"trained": res.policy, "delta": self.delta}, self.test)
        return {"value": res.value_estimate, "report": report,
                "windows": len(self.test) - self.hp.horizon}

    @staticmethod
    def digest(out):
        return digest_text(f"value_estimate {out['value']:.17g}\n" + out["report"].to_csv())

    @staticmethod
    def counts(out):
        return {"hedging.backtest_windows": out["windows"]}

    @staticmethod
    def check(out):
        errors = []
        if not _finite(out["value"]):
            errors.append(f"value estimate {out['value']!r} not finite")
        for name, summary in sorted(out["report"].summary.items()):
            for metric, stats in sorted(summary.items()):
                if stats["count"] != out["windows"]:
                    errors.append(f"{name} {metric}: {stats['count']} outcomes, "
                                  f"expected {out['windows']}")
                if not _finite(*stats.values()):
                    errors.append(f"{name} {metric}: non-finite summary")
                elif stats["min"] < 0:
                    errors.append(f"{name} {metric}: negative loss {stats['min']!r}")
        return errors


class RobustT5(Workload):
    name = "robust-t5"

    def __init__(self, seed, workdir=None):
        sz = SIZES[self.name]
        self.sz = sz
        hist_seed, self.seed1, self.seed2, self.mc_seed = _seeds(seed, 4)
        history = gbm_returns(np.random.default_rng(hist_seed), sz["history"])
        hp = _hedging_problem(sz["horizon"])
        ref = amb.ConstantKernel(DiscreteMeasure.empirical(history, space=hp.space))
        ball = amb.WassersteinBall(ref, amb.ConstantRadius(EPS), 1, space=hp.space)
        self.problem = hg.make_control_problem(hp, [ball] * sz["horizon"])
        self.problem.net_inputs = "features"
        self.config1 = _train_config(sz, self.seed1, lr_decay=0.05,
                                     n_measures=sz["n_measures"])
        self.config2 = _train_config(sz, self.seed2, lr_decay=0.05,
                                     dual_grid=sz["dual_grid"])
        self.problems = (self.problem,)

    def run(self):
        res1 = nn.train_algorithm1(self.problem, config=self.config1,
                                   rng=np.random.default_rng(self.seed1))
        res2 = nn.train_algorithm2(self.problem, config=self.config2,
                                   rng=np.random.default_rng(self.seed2))
        shared = res1.candidate_sets
        per_policy = {
            name: nn.mc_policy_values(self.problem, res.policy, shared, self.sz["mc_paths"],
                                      np.random.default_rng(self.mc_seed))
            for name, res in (("algorithm1", res1), ("algorithm2", res2))
        }
        return {"estimates": {"algorithm1": res1.value_estimate,
                              "algorithm2": res2.value_estimate},
                "lambdas": list(res2.lambdas), "values": per_policy,
                "n_measures": self.sz["n_measures"]}

    @staticmethod
    def digest(out):
        lines = [f"estimate {k} {v:.17g}" for k, v in sorted(out["estimates"].items())]
        lines += [f"lambda {t} {v:.17g}" for t, v in enumerate(out["lambdas"])]
        for name, vals in sorted(out["values"].items()):
            lines += [f"value {name} {k} {v:.17g}" for k, v in enumerate(vals)]
        return digest_text("\n".join(lines) + "\n")

    @staticmethod
    def check(out):
        errors = []
        if not _finite(*out["estimates"].values(), *out["lambdas"]):
            errors.append("non-finite value estimate or lambda")
        for name, vals in sorted(out["values"].items()):
            if len(vals) != out["n_measures"] or not _finite(*vals):
                errors.append(f"{name}: per-candidate values {vals!r}")
                continue
            if max(vals) > 0:
                errors.append(f"{name}: positive value {max(vals)!r} of a "
                              "minus-loss objective")
        return errors


WORKLOADS = {w.name: w for w in (ExactT3, HedgeT5, RobustT5)}
