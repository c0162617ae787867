"""Batch command surface: config parsing, data ingestion, artifacts.

Subcommands: solve-exact, train, evaluate, hedge-backtest, bounds,
oracle-check.  Everything is driven by a JSON config plus one master seed
(named substreams derive from it), and identical config + seed produce
byte-identical output files.  Errors surface as machine-readable JSON on
stderr with a nonzero exit status.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import zlib
from pathlib import Path

import numpy as np

from . import ambiguity as amb
from . import bounds as bd
from . import dp
from . import hedging as hg
from . import neural as nn
from .controls import ConstantSet
from .measures import DiscreteMeasure, LocalSpace

__all__ = ["main", "ingest_returns", "parse_config", "substream", "ConfigError"]


class ConfigError(ValueError):
    pass


def parse_config(text):
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    _get(cfg, "seed", int, minimum=0)
    return cfg


def _get(cfg, dotted, typ=None, default=..., minimum=None, above=None):
    """The value at a dotted config path, type-checked (ints pass as floats,
    NaN and +-Infinity do not) and range-checked: at least minimum, and more
    than above.  A missing key gives the default (None makes a key optional)
    and without one is an error, as is a section on the path that is not an
    object."""
    node = cfg
    parts = dotted.split(".")
    for i, part in enumerate(parts):
        if not isinstance(node, dict):
            raise ConfigError(
                f"{'.'.join(parts[:i])}: expected object, got {type(node).__name__}")
        if part not in node:
            if default is ...:
                raise ConfigError(f"{dotted}: missing required field")
            return default
        node = node[part]
    if typ in (int, float) and isinstance(node, bool):
        raise ConfigError(f"{dotted}: expected {typ.__name__}")
    if typ is float and isinstance(node, int):
        node = float(node)
    if typ is not None and not isinstance(node, typ):
        raise ConfigError(f"{dotted}: expected {typ.__name__}, got {type(node).__name__}")
    if typ is float and not math.isfinite(node):
        raise ConfigError(f"{dotted}: expected a finite number, got {node}")
    if minimum is not None and node < minimum:
        raise ConfigError(f"{dotted}: expected at least {minimum}, got {node}")
    if above is not None and not node > above:
        raise ConfigError(f"{dotted}: expected more than {above}, got {node}")
    return node


def _fraction(cfg, dotted, default):
    """A float strictly between 0 and 1 at a dotted config path."""
    value = _get(cfg, dotted, float, default=default, above=0)
    if not value < 1:
        raise ConfigError(f"{dotted}: expected less than 1, got {value}")
    return value


def _finite_list(cfg, dotted, length):
    """An optional list of `length` finite numbers at a dotted config path."""
    vals = _get(cfg, dotted, list, default=None)
    if vals is not None and not (
        len(vals) == length
        and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                and math.isfinite(v) for v in vals)
    ):
        raise ConfigError(f"{dotted}: expected a list of {length} finite numbers")
    return vals


def substream(master_seed, name):
    """Independent generator derived from the master seed and a label."""
    return np.random.default_rng(
        np.random.SeedSequence([int(master_seed), zlib.crc32(name.encode())])
    )


def ingest_returns(csv_path, expected_d):
    """Parse a `date,r_1,...,r_d` CSV into a chronological ReturnSeries.

    Malformed rows and non-finite returns are reported with their line
    number.  The return bound is not checked here: the series'
    validate_bound does that, naming the first row out of range.
    """
    path = Path(csv_path)
    if not path.exists():
        raise ConfigError(f"data file not found: {csv_path}")
    dates, rows = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{csv_path}: empty file") from None
        if len(header) != expected_d + 1:
            raise ConfigError(
                f"{csv_path}: header has {len(header)} columns, expected "
                f"{expected_d + 1}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != expected_d + 1:
                raise ConfigError(f"{csv_path}:{lineno}: wrong column count")
            try:
                values = [float(v) for v in row[1:]]
            except ValueError:
                raise ConfigError(
                    f"{csv_path}:{lineno}: non-numeric return"
                ) from None
            if not all(map(math.isfinite, values)):
                raise ConfigError(f"{csv_path}:{lineno}: non-finite return")
            rows.append(values)
            dates.append(row[0])
    if not rows:
        raise ConfigError(f"{csv_path}: no data rows")
    return hg.ReturnSeries(dates, np.array(rows))


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _build_hedging(cfg, d, return_bound):
    if _get(cfg, "problem.kind", str, default="hedging") != "hedging":
        raise ConfigError("problem.kind: expected 'hedging'")
    kind = _get(cfg, "problem.payoff.kind", str)
    if kind == "call":
        payoff = hg.CallPayoff(
            _get(cfg, "problem.payoff.strike", float, default=1.0))
    elif kind == "basket":
        payoff = hg.BasketPayoff(
            d, _finite_list(cfg, "problem.payoff.weights", d),
            _finite_list(cfg, "problem.payoff.strikes", d),
        )
    else:
        raise ConfigError("problem.payoff.kind: expected 'call' or 'basket'")
    return hg.HedgingProblem(
        d=d,
        horizon=_get(cfg, "problem.horizon", int, minimum=1),
        return_bound=return_bound,
        payoff=payoff,
        loss=hg.LossParams(
            _fraction(cfg, "problem.loss.a", 0.88),
            _get(cfg, "problem.loss.b", float, default=2.25, above=1),
        ),
        a_bound=_get(cfg, "problem.bounds.position", float, default=1.5, above=0),
        b_bound=_get(cfg, "problem.bounds.cash", float, default=1.0, above=0),
    )


def _load_problem_and_series(cfg, seed):
    """Build the hedging problem and its data together.

    When the config omits return_bound, C defaults to the maximum absolute
    historical return of the ingested CSV; synthetic data needs an
    explicit bound to clip against.
    """
    d = _get(cfg, "problem.dimension", int, minimum=1)
    bound = _get(cfg, "problem.return_bound", float, default=None, above=0)
    csv_path = _get(cfg, "data.csv", str, default=None)
    if csv_path is not None:
        series = ingest_returns(csv_path, d)
        if bound is None:
            bound = series.max_abs()
        series.validate_bound(bound)
    else:
        if _get(cfg, "data.synthetic", dict, default=None) is None:
            raise ConfigError("data: need either data.csv or data.synthetic")
        if bound is None:
            raise ConfigError("problem.return_bound: required for synthetic data")
        series, clipped = hg.simulate_gbm_returns(
            _get(cfg, "data.synthetic.days", int, default=300, minimum=1),
            d,
            _get(cfg, "data.synthetic.annual_vol", float, default=0.2, minimum=0),
            _get(cfg, "data.synthetic.annual_drift", float, default=0.0),
            bound=bound,
            rng=substream(seed, "synthetic-data"),
        )
        if clipped > 1e-4:
            raise ConfigError(f"problem.return_bound: clipping probability {clipped} too high")
    return _build_hedging(cfg, d, bound), series


def _build_radius(cfg, hp, n_history):
    kind = _get(cfg, "ambiguity.radius.kind", str, default="constant")
    if kind == "constant":
        return amb.ConstantRadius(
            _get(cfg, "ambiguity.radius.value", float, default=0.0, minimum=0))
    if kind == "adaptive":
        return amb.AdaptiveRadius(
            hp.d, hp.return_bound, n_history,
            alpha=_fraction(cfg, "ambiguity.radius.alpha", 0.9),
            n_paths=_get(cfg, "ambiguity.radius.n_paths", int, default=100_000, minimum=1),
            n_steps=_get(cfg, "ambiguity.radius.n_steps", int, default=1000, minimum=1),
        )
    raise ConfigError("ambiguity.radius.kind: expected 'constant' or 'adaptive'")


def _build_reference(cfg, hp, history):
    kind = _get(cfg, "ambiguity.reference.kind", str, default="empirical")
    space = hp.space
    if kind == "empirical":
        return amb.ConstantKernel(DiscreteMeasure.empirical(history, space=space))
    if kind == "kernel_weighted":
        beta = _get(cfg, "ambiguity.reference.beta", float, default=500.0, above=0)
        return amb.KernelWeighted(history, beta=beta, space=space)
    if kind == "adaptive":
        return amb.AdaptiveEmpirical(history, space=space)
    raise ConfigError(
        "ambiguity.reference.kind: expected 'empirical', 'kernel_weighted', or 'adaptive'"
    )


def _build_kernels(cfg, hp, history):
    kind = _get(cfg, "ambiguity.kind", str, default="singleton")
    radius = _build_radius(cfg, hp, len(history))
    reference = _build_reference(cfg, hp, history)
    if kind == "singleton":
        kernels = [amb.Singleton(reference)] * hp.horizon
    elif kind == "wasserstein":
        order = _get(cfg, "ambiguity.order", int, default=1, minimum=1)
        kernels = [
            amb.WassersteinBall(reference, radius, order, space=hp.space)
        ] * hp.horizon
    else:
        raise ConfigError("ambiguity.kind: expected 'singleton' or 'wasserstein'")
    return kernels


def _split_series(cfg, series):
    split = _fraction(cfg, "data.train_fraction", 0.8)
    n_train = max(2, int(len(series) * split))
    train = hg.ReturnSeries(series.dates[:n_train], series.values[:n_train])
    test = hg.ReturnSeries(series.dates[n_train:], series.values[n_train:])
    return train, test


def _write(out_dir, name, text):
    path = Path(out_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return path


def _json_text(obj):
    def pythonize(o):
        if isinstance(o, (np.bool_,)):
            return bool(o)
        if isinstance(o, np.integer):
            return int(o)
        if isinstance(o, (np.floating,)):
            return float(o)
        if isinstance(o, np.ndarray):
            return o.tolist()
        raise TypeError(f"not JSON serializable: {type(o)}")

    return json.dumps(obj, indent=2, sort_keys=True, default=pythonize,
                      allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# synthetic tabular instances (oracle-check / solve-exact / bounds)
# ---------------------------------------------------------------------------


def _tiny_instance(rng, horizon, n_grid, n_actions, n_measures):
    space = LocalSpace(1, 1.0)
    g = np.sort(rng.uniform(-1.0, 1.0, size=n_grid))[:, None]
    acts = np.sort(rng.uniform(-1.0, 1.0, size=n_actions))[:, None]
    coefs = rng.normal(size=(horizon, 3))

    def terminal(omega, actions):
        total = np.zeros(len(omega))
        for t, a in enumerate(actions):
            a, w = a[:, 0], omega[:, t, 0]
            total += coefs[t, 0] * a * w + coefs[t, 1] * np.abs(a - w) + coefs[t, 2] * w
        return total

    kernels = []
    for _ in range(horizon):
        refs = []
        for _ in range(n_measures):
            k = int(rng.integers(1, n_grid + 1))
            pts = g[rng.choice(n_grid, size=k, replace=False)]
            refs.append(amb.ConstantKernel(DiscreteMeasure(pts, rng.dirichlet(np.ones(k)))))
        kernels.append(amb.FiniteSet(refs))
    prob = dp.ControlProblem(
        horizon, space, terminal, [ConstantSet(points=acts)] * horizon, kernels
    )
    return prob, g


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_oracle_check(cfg, out_dir, seed):
    rng = substream(seed, "oracle-check")
    results = []
    for i in range(_get(cfg, "oracle.instances", int, default=10, minimum=1)):
        horizon = int(rng.integers(1, 3))
        prob, g = _tiny_instance(
            rng,
            horizon=horizon,
            n_grid=int(rng.integers(2, 4)),
            n_actions=int(rng.integers(2, 4)),
            n_measures=int(rng.integers(1, 4)),
        )
        cands = dp.build_candidates(prob, g, dp.sampler_from_kernel(1))
        solved = dp.backward_induction_exact(prob, g, cands)
        oracle = dp.brute_force_value(prob, g, cands)
        gap = abs(solved.value - oracle)
        results.append({"instance": i, "horizon": horizon,
                        "solver": solved.value, "oracle": oracle, "gap": gap})
        print(f"instance {i}: solver {solved.value:+.12f} "
              f"oracle {oracle:+.12f} gap {gap:.2e}")
    worst = max(r["gap"] for r in results)
    ok = worst < 1e-12
    _write(out_dir, "oracle_check.json",
           _json_text({"schema_version": 1, "results": results,
                       "max_gap": worst, "pass": ok}))
    print(f"max gap {worst:.2e}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_solve_exact(cfg, out_dir, seed):
    hp, series = _load_problem_and_series(cfg, seed)
    train, _ = _split_series(cfg, series)
    kernels = _build_kernels(cfg, hp, train.values)
    resolution = _get(cfg, "controls.resolution", int, default=3, minimum=1)
    grid_points = _get(cfg, "solver.grid_points", int, default=3, minimum=1)
    problem = hg.make_control_problem(hp, kernels, action_resolution=resolution)
    local_grid = hp.space.grid(grid_points)
    n_meas = _get(cfg, "solver.n_measures", int, default=3, minimum=1)
    cands = dp.build_candidates(
        problem, local_grid, dp.sampler_from_kernel(n_meas),
        substream(seed, "measure-sampling"),
    )
    result = dp.backward_induction_exact(problem, local_grid, cands)
    _write(out_dir, "value_table.txt", dp.serialize_tables(result))
    _write(out_dir, "value.json", _json_text({
        "schema_version": 1,
        "value": result.value,
        "dual_lower_bound": result.dual_lower_bound,
        "grid_points": grid_points,
        "action_resolution": resolution,
    }))
    print(f"robust value {result.value:+.12f}")
    return 0


def _train_config(cfg, seed):
    """TrainConfig from solver.train, each field checked alone (none depends on
    another) and named by its config path; the seed is the top-level one.
    warm_start is not a field here: the CLI's nets read the path and past
    actions, so no stage net has its successor's shape to start from."""
    given = _get(cfg, "solver.train", dict, default={})
    defaults = {f.name: f.default for f in dataclasses.fields(nn.TrainConfig)
                if f.name not in ("seed", "warm_start")}
    kwargs = {}
    for key in given:
        if key not in defaults:
            raise ConfigError(f"solver.train.{key}: unknown field (expected one "
                              f"of {', '.join(sorted(defaults))})")
        kwargs[key] = _get(cfg, f"solver.train.{key}", type(defaults[key]))
        try:
            nn.TrainConfig(**{key: kwargs[key]})
        except ValueError as exc:
            raise ConfigError(f"solver.train.{key}: {exc}") from None
    return nn.TrainConfig(seed=seed, **kwargs)


def cmd_train(cfg, out_dir, seed):
    hp, series = _load_problem_and_series(cfg, seed)
    train_series, _ = _split_series(cfg, series)
    kernels = _build_kernels(cfg, hp, train_series.values)
    problem = hg.make_control_problem(hp, kernels)
    tcfg = _train_config(cfg, seed)
    algo = _get(cfg, "solver.kind", str, default="algorithm1")
    rng = substream(seed, "training")
    if algo == "algorithm1":
        result = nn.train_algorithm1(problem, config=tcfg, rng=rng)
    elif algo == "algorithm2":
        if not isinstance(kernels[0], amb.WassersteinBall):
            raise ConfigError("ambiguity.kind: algorithm2 needs 'wasserstein'")
        result = nn.train_algorithm2(problem, config=tcfg, rng=rng)
    else:
        raise ConfigError("solver.kind: expected 'algorithm1' or 'algorithm2'")
    for t, net in enumerate(result.action_nets):
        _write(out_dir, f"action_net_{t}.txt", nn.net_to_text(net))
    # no phase trains the stage-0 value net: the stage-0 value is the estimate
    for t in range(1, problem.horizon):
        _write(out_dir, f"value_net_{t}.txt", nn.net_to_text(result.value_nets[t]))
    _write(out_dir, "training_log.csv", nn.log_to_csv(result.log))
    _write(out_dir, "train.json", _json_text({
        "schema_version": 1,
        "algorithm": algo,
        "value_estimate": result.value_estimate,
        "lambdas": result.lambdas,
    }))
    print(f"value estimate {result.value_estimate:+.8f}")
    return 0


def _load_policy(out_dir, hp):
    """The policy `train` wrote to out_dir, fed the inputs it was trained on.

    Net inputs depend on the hedging instance, not on the ambiguity set,
    so a point-mass kernel stands in for the configured one.  A net whose
    input or output width is not the stage's is refused by name."""
    problem = hg.make_control_problem(hp, [amb.Singleton(
        amb.ConstantKernel(DiscreteMeasure.dirac(np.zeros(hp.d))))] * hp.horizon)
    nets = []
    for t in range(hp.horizon):
        path = Path(out_dir) / f"action_net_{t}.txt"
        if not path.exists():
            raise ConfigError(f"missing trained network {path}")
        try:
            net = nn.net_from_text(path.read_text())
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
        widths = (len(nn._input_scale(problem, t)), problem.action_specs[t].dim)
        if (net.in_dim, net.sizes[-1]) != widths:
            raise ConfigError(f"{path}: stage {t} needs input and output widths "
                              f"{widths}, got {(net.in_dim, net.sizes[-1])}")
        nets.append(net)
    return nn.NeuralPolicy(problem, nets)


def cmd_evaluate(cfg, out_dir, seed):
    """Monte Carlo values of the trained policy on as many candidates as train
    trained against: solver.train.n_measures, not solve-exact's solver.n_measures."""
    hp, series = _load_problem_and_series(cfg, seed)
    train_series, _ = _split_series(cfg, series)
    kernels = _build_kernels(cfg, hp, train_series.values)
    problem = hg.make_control_problem(hp, kernels)
    n_paths = _get(cfg, "evaluate.paths", int, default=2000, minimum=1)
    n = _train_config(cfg, seed).n_measures
    rng = substream(seed, "evaluation")
    cands = {t: k.candidates(t, hp.d, n, rng) for t, k in enumerate(kernels)}
    policy = _load_policy(out_dir, hp)
    values = nn.mc_policy_values(problem, policy, cands, n_paths, rng)
    _write(out_dir, "evaluate.json", _json_text({
        "schema_version": 1,
        "per_candidate": values,
        "reference_value": values[0],
        "robust_value": min(values),
        "paths": n_paths,
    }))
    print(f"reference value {values[0]:+.8f}, robust value {min(values):+.8f}")
    return 0


def cmd_hedge_backtest(cfg, out_dir, seed):
    hp, series = _load_problem_and_series(cfg, seed)
    train_series, test_series = _split_series(cfg, series)
    policies = {}
    if hp.d == 1 and isinstance(hp.payoff, hg.CallPayoff):
        vol = hg.estimate_annual_vol(train_series)
        policies["black_scholes"] = hg.bs_delta_hedge(hp, vol, hp.payoff.strike)
    nets_dir = Path(out_dir)
    if (nets_dir / "action_net_0.txt").exists():
        policies["trained"] = _load_policy(out_dir, hp)
    if not policies:
        raise ConfigError("no policies available for the backtest")
    report = hg.backtest(hp, policies, test_series)
    _write(out_dir, "backtest.csv", report.to_csv())
    _write(out_dir, "backtest.json", report.to_json())
    for name in sorted(report.summary):
        stats = report.summary[name]["prospect"]
        print(f"{name}: n={stats['count']} mean prospect loss {stats['mean']:.6f}")
    return 0


def cmd_bounds(cfg, out_dir, seed):
    rng = substream(seed, "bounds")
    g = np.array([[-0.5], [0.5]])
    space = LocalSpace(1, 1.0)
    eps = _get(cfg, "bounds.radius", float, default=0.2, minimum=0)
    horizon = _get(cfg, "bounds.horizon", int, default=2, minimum=1)

    refs, trues = [], []
    for _ in range(horizon):
        w_ref = rng.dirichlet(np.ones(2) * 4.0)
        shift = rng.uniform(-0.5, 0.5) * eps
        w_true = np.clip(w_ref + np.array([shift, -shift]), 0.01, 0.99)
        w_true /= w_true.sum()
        refs.append(amb.ConstantKernel(DiscreteMeasure(g, w_ref)))
        trues.append(amb.ConstantKernel(DiscreteMeasure(g, w_true)))

    def terminal(omega, actions):
        return sum(-np.abs(a[:, 0] - omega[:, t, 0]) for t, a in enumerate(actions))

    acts = ConstantSet(points=[[-0.5], [0.0], [0.5]])

    def solve(kernels, pool=None):
        prob = dp.ControlProblem(horizon, space, terminal, [acts] * horizon, kernels)
        sampler = dp.pool_sampler(pool) if pool else dp.sampler_from_kernel(1)
        cands = dp.build_candidates(prob, g, sampler, rng)
        return dp.backward_induction_exact(prob, g, cands).value

    v_true = solve([amb.Singleton(k) for k in trues])
    v_ref = solve([amb.Singleton(k) for k in refs])
    pool = [k.measure for k in trues] + [k.measure for k in refs]
    v_rob = solve(
        [amb.WassersteinBall(k, amb.ConstantRadius(eps)) for k in refs], pool
    )
    inp = bd.BoundsInput(
        horizon=horizon,
        true_kernels=trues,
        ref_kernels=refs,
        radius=[amb.ConstantRadius(eps)] * horizon,
        L_psi=1.0,
        alpha=1.0,
        L_A=[0.0] * horizon,
        L_Phat=[0.0] * horizon,
    )
    report = bd.bounds_report(
        inp, {"stability_gap": abs(v_true - v_ref), "robust_gap": v_true - v_rob})
    _write(out_dir, "bounds.json", report.to_json() + "\n")
    ok = all(report.dominance.values())
    print(f"stability gap {abs(v_true - v_ref):.6f} <= bound {report.stability:.6f}")
    print(f"robust gap {v_true - v_rob:.6f} <= bound {report.wasserstein:.6f}")
    print("dominance: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


COMMANDS = {
    "oracle-check": cmd_oracle_check,
    "solve-exact": cmd_solve_exact,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "hedge-backtest": cmd_hedge_backtest,
    "bounds": cmd_bounds,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="robustdp",
        description="robust stochastic control experiments, config-driven",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="JSON config path")
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed (overrides config)")
    parser.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)

    try:
        if args.config is not None:
            cfg = parse_config(Path(args.config).read_text())
        else:
            cfg = {"seed": 0}
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed: expected at least 0, got {args.seed}")
        seed = args.seed if args.seed is not None else _get(cfg, "seed", int)
        out_dir = (
            args.out
            or os.environ.get("ROBUSTDP_OUT")
            or _get(cfg, "out", str, default="robustdp-out")
        )
        return COMMANDS[args.command](cfg, out_dir, seed)
    except (ConfigError, ValueError, KeyError, OSError, FloatingPointError) as exc:
        sys.stderr.write(
            json.dumps({"error": str(exc), "command": args.command}) + "\n"
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
