import ast
import contextlib
import hashlib
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import robustdp
from robustdp import cli, dp
from robustdp.measures import DiscreteMeasure


BASE_CONFIG = {
    "seed": 9,
    "problem": {
        "kind": "hedging",
        "horizon": 2,
        "dimension": 1,
        "return_bound": 0.1,
        "payoff": {"kind": "call", "strike": 1.0},
        "bounds": {"position": 1.0, "cash": 0.5},
    },
    "ambiguity": {
        "kind": "wasserstein",
        "order": 1,
        "radius": {"kind": "constant", "value": 0.01},
        "reference": {"kind": "empirical"},
    },
    "controls": {"resolution": 3},
    "solver": {"kind": "exact", "grid_points": 3, "n_measures": 2},
    "data": {"synthetic": {"days": 80, "annual_vol": 0.3}},
}


def write_config(tmp_path, cfg=None, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg or BASE_CONFIG))
    return str(path)


def write_csv(tmp_path, n=40, d=1, seed=0, name="returns.csv"):
    rng = np.random.default_rng(seed)
    lines = ["date," + ",".join(f"r_{i+1}" for i in range(d))]
    for i in range(n):
        vals = ",".join(f"{v:.6f}" for v in rng.normal(0, 0.01, d))
        lines.append(f"2020-01-{i:03d},{vals}")
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# -- ingestion -----------------------------------------------------------------


def test_ingest_round_trip(tmp_path):
    path = write_csv(tmp_path, n=3)
    series = cli.ingest_returns(path, 1)
    assert len(series) == 3
    raw = [float(l.split(",")[1]) for l in Path(path).read_text().splitlines()[1:]]
    assert np.allclose(series.values[:, 0], raw)


def test_ingest_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(cli.ConfigError):
        cli.ingest_returns(str(path), 1)


def test_ingest_malformed_row_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("date,r_1\n2020-01-01,0.01\n2020-01-02,oops\n")
    with pytest.raises(cli.ConfigError, match=":3"):
        cli.ingest_returns(str(path), 1)


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_ingest_rejects_non_finite_return_naming_line(tmp_path, value):
    path = tmp_path / "bad.csv"
    path.write_text(f"date,r_1\n2020-01-01,0.01\n2020-01-02,{value}\n2020-01-03,0.02\n")
    with pytest.raises(cli.ConfigError, match=r"bad\.csv:3: non-finite return"):
        cli.ingest_returns(str(path), 1)


def test_ingest_bound_violation(tmp_path):
    path = tmp_path / "oob.csv"
    path.write_text("date,r_1\n2020-01-01,0.01\n2020-01-02,0.9\n")
    with pytest.raises(ValueError, match="row 1"):
        cli.ingest_returns(str(path), 1, bound=0.1)


# -- config handling ----------------------------------------------------------


def test_config_round_trip_idempotent():
    text = json.dumps(BASE_CONFIG)
    once = cli.serialize_config(cli.parse_config(text))
    twice = cli.serialize_config(cli.parse_config(once))
    assert once == twice


def test_config_requires_seed():
    with pytest.raises(cli.ConfigError, match="seed"):
        cli.parse_config("{}")


def test_config_type_errors_name_path():
    with pytest.raises(cli.ConfigError, match="problem.horizon"):
        cfg = dict(BASE_CONFIG, problem=dict(BASE_CONFIG["problem"], horizon="x"))
        cli.cmd_solve_exact(cfg, "unused", 0)


def test_substreams_are_independent_and_stable():
    a1 = cli.substream(7, "training").normal(size=3)
    a2 = cli.substream(7, "training").normal(size=3)
    b = cli.substream(7, "sampling").normal(size=3)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


# -- subcommands ----------------------------------------------------------------


def test_oracle_check_passes(tmp_path, capsys):
    rc = cli.main(["oracle-check", "--seed", "3", "--out", str(tmp_path / "o")])
    assert rc == 0
    data = json.loads((tmp_path / "o" / "oracle_check.json").read_text())
    assert data["pass"] is True
    assert data["max_gap"] < 1e-12


def test_solve_exact_reproducible_bytes(tmp_path):
    cfg = write_config(tmp_path)
    rc1 = cli.main(["solve-exact", "--config", cfg, "--out", str(tmp_path / "a")])
    rc2 = cli.main(["solve-exact", "--config", cfg, "--out", str(tmp_path / "b")])
    assert rc1 == rc2 == 0
    for name in ("value.json", "value_table.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


def test_solve_exact_t4_five_points(tmp_path, monkeypatch):
    cfg = dict(
        BASE_CONFIG,
        problem=dict(BASE_CONFIG["problem"], horizon=4),
        solver=dict(BASE_CONFIG["solver"], grid_points=5, n_measures=3),
    )
    captured = {}
    solve = dp.backward_induction_exact

    def capture(problem, local_grid, candidates, *args, **kwargs):
        result = solve(problem, local_grid, candidates, *args, **kwargs)
        captured.update(problem=problem, grid=local_grid, result=result)
        return result

    monkeypatch.setattr(dp, "backward_induction_exact", capture)
    path = write_config(tmp_path, cfg)
    for run in ("a", "b"):
        out = str(tmp_path / run)
        assert cli.main(["solve-exact", "--config", path, "--out", out]) == 0
    for name in ("value.json", "value_table.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    # action radices 9 (cash x position), 3, 3, 3 on 5 grid points: PSI
    # entries sum_t 5^t P_t with P = 1, 9, 27, 81, 243, J entries
    # sum_t 5^t P_{t+1}
    lines = (tmp_path / "a" / "value_table.txt").read_text().splitlines()
    P = [1, 9, 27, 81, 243]
    assert sum(l.startswith("PSI ") for l in lines) == sum(5**t * P[t] for t in range(5))
    assert sum(l.startswith("J ") for l in lines) == sum(5**t * P[t + 1] for t in range(4))

    # saddle chain: the optimal policy under its composed worst case, each
    # measure pushed onto the grid first, gives back the value
    res, prob, grid = captured["result"], captured["problem"], captured["grid"]
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
    assert at_pstar == pytest.approx(res.value, abs=1e-12)
    assert json.loads((tmp_path / "a" / "value.json").read_text())["value"] == res.value


def test_solve_exact_zero_radius_matches_singleton(tmp_path):
    cfg_ball = dict(
        BASE_CONFIG,
        ambiguity={
            "kind": "wasserstein",
            "order": 1,
            "radius": {"kind": "constant", "value": 0.0},
            "reference": {"kind": "empirical"},
        },
    )
    cfg_single = dict(
        BASE_CONFIG,
        ambiguity={"kind": "singleton", "reference": {"kind": "empirical"}},
    )
    p1 = write_config(tmp_path, cfg_ball, "ball.json")
    p2 = write_config(tmp_path, cfg_single, "single.json")
    cli.main(["solve-exact", "--config", p1, "--out", str(tmp_path / "ball")])
    cli.main(["solve-exact", "--config", p2, "--out", str(tmp_path / "single")])
    v1 = json.loads((tmp_path / "ball" / "value.json").read_text())["value"]
    v2 = json.loads((tmp_path / "single" / "value.json").read_text())["value"]
    assert v1 == v2


def test_train_and_evaluate_and_backtest(tmp_path):
    cfg = dict(
        BASE_CONFIG,
        ambiguity={"kind": "singleton", "reference": {"kind": "empirical"}},
        solver={
            "kind": "algorithm1",
            "train": {
                "iter_a": 30,
                "iter_psi": 30,
                "n_mc": 16,
                "batch_size": 8,
                "hidden_layers": 2,
                "hidden_units": 8,
                "eval_mc": 200,
            },
        },
        data={"synthetic": {"days": 120, "annual_vol": 0.3}},
    )
    path = write_config(tmp_path, cfg)
    out = str(tmp_path / "run")
    assert cli.main(["train", "--config", path, "--out", out]) == 0
    assert (Path(out) / "action_net_0.txt").exists()
    assert not (Path(out) / "value_net_0.txt").exists()
    assert (Path(out) / "value_net_1.txt").exists()
    assert (Path(out) / "training_log.csv").exists()
    assert cli.main(["evaluate", "--config", path, "--out", out]) == 0
    eval_data = json.loads((Path(out) / "evaluate.json").read_text())
    assert eval_data["robust_value"] <= eval_data["reference_value"] + 1e-12
    assert cli.main(["hedge-backtest", "--config", path, "--out", out]) == 0
    report = json.loads((Path(out) / "backtest.json").read_text())
    assert "trained" in report["summary"]
    assert "black_scholes" in report["summary"]


@pytest.mark.parametrize("kind", ["algorithm1", "algorithm2"])
def test_train_logs_value_regression_loss(tmp_path, kind):
    train = {"iter_a": 3, "iter_psi": 60, "n_mc": 4, "batch_size": 4, "hidden_layers": 1,
             "hidden_units": 4, "eval_mc": 8, "n_measures": 2, "dual_grid": 4}
    cfg = dict(BASE_CONFIG, solver={"kind": kind, "train": train})
    out = tmp_path / "run"
    assert cli.main(["train", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    rows = [line.split(",") for line in
            (out / "training_log.csv").read_text().splitlines()[1:]]
    value_rows = [row for row in rows if row[1] == "value"]
    assert [(row[0], row[2]) for row in value_rows] == [("1", "0"), ("1", "50")]
    assert all(np.isfinite(float(row[3])) for row in value_rows)


# sha256 of every artifact of two tiny training runs, recorded with numpy
# 2.4.6 on Python 3.11.7 (other numpy or BLAS builds may round differently).
# Change them only together with a change that moves trained numbers on
# purpose, and say by how much.
TINY_TRAIN = {"iter_a": 8, "iter_psi": 60, "n_mc": 4, "batch_size": 4,
              "hidden_layers": 1, "hidden_units": 4, "eval_mc": 8,
              "n_measures": 2, "dual_grid": 4}
PINNED_RUNS = {
    "algorithm1": (
        dict(BASE_CONFIG, problem=dict(BASE_CONFIG["problem"], horizon=3),
             solver={"kind": "algorithm1", "train": dict(
                 TINY_TRAIN, path_sampling="reference", warm_start=True,
                 lr_decay=0.5)}),
        {
            "action_net_0.txt": "eb0e535a705541784730a247b49604ba78951fdb468840bd884d0b7a122df941",
            "action_net_1.txt": "66cf55ea1b882a09593d31f51d389521e162a87d6fe4323e6f8535ac26d62139",
            "action_net_2.txt": "b9bb5e3ed7d96de2e319b5f9fc004d861c369f7b9ba237a69ead6c510b5d75a3",
            "backtest.csv": "d73816fcb47e8116b5cd48fc6293b00d14473328a20cec1da9cb06ba5a565f2a",
            "train.json": "30b7d1f761fd06495ca1059cddbada1472bdf67a37ed8a329f95bba80e9c28fc",
            "training_log.csv": "3f266767e64ae4ae61e4ad11588fd72649a22e4f9c0db07514ef38871a239755",
            "value_net_1.txt": "ea1da7d9f65d8cc988883ef75cc24ce5356b4862ad152a1431823650869fa048",
            "value_net_2.txt": "65cacbfc454d07ebcd6939230f0ebd31e72c9e09ef7b00f3a844e76591cdf972",
        },
    ),
    "algorithm2": (
        dict(BASE_CONFIG, solver={"kind": "algorithm2", "train": TINY_TRAIN}),
        {
            "action_net_0.txt": "33ade9049f2130f36412aa0f9fd7b9b7bc8f067753469115ac513f6f9672d5b9",
            "action_net_1.txt": "06067cf2237f72fbab6473e314305e04602347ebef02b924f9b737c97256f297",
            "train.json": "ba4a1227eecb6f5c6f041e42703dcdf959169464d4e9159c71f8a73d1b6826e5",
            "training_log.csv": "5f75ed923ba750ebfa195963a732310a0743cff2f02c1f226e0011fc62c27fb6",
            "value_net_1.txt": "c6d58468221afd65022aaac48459a78490a79ed083a593df37030e2dd48d7046",
        },
    ),
}


@pytest.mark.parametrize("kind", sorted(PINNED_RUNS))
def test_train_artifacts_are_pinned(tmp_path, kind):
    cfg, expected = PINNED_RUNS[kind]
    path, out = write_config(tmp_path, cfg), tmp_path / "run"
    assert cli.main(["train", "--config", path, "--out", str(out)]) == 0
    if "backtest.csv" in expected:
        assert cli.main(["hedge-backtest", "--config", path, "--out", str(out)]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in expected}
    assert digests == expected


# sha256 of the artifacts of the exact solver's commands: solve-exact on
# BASE_CONFIG, and the synthetic instances of oracle-check and bounds on
# seed 3, recorded as PINNED_RUNS were.
PINNED_EXACT_RUNS = {
    "solve-exact": {
        "value.json": "6fb3230766f93af711330f85a9f744af7fd89b76715d3b50dd082a022b49fef1",
        "value_table.txt": "0782242a4688ebc762213e0fc2d2c87f4ad0f1e36ea62ec313fb715642dc5a55",
    },
    "oracle-check": {
        "oracle_check.json": "7814ec278e10c7f5290e3edf127789810f61f5361b4381d53ddaed7a9d0de91d",
    },
    "bounds": {
        "bounds.json": "a03f5912fb6278300c3653ef716dcbf52db32cae93cb3d2ed78f5ec92d909635",
    },
}


@pytest.mark.parametrize("command", sorted(PINNED_EXACT_RUNS))
def test_exact_artifacts_are_pinned(tmp_path, command):
    expected = PINNED_EXACT_RUNS[command]
    flags = (["--config", write_config(tmp_path)] if command == "solve-exact"
             else ["--seed", "3"])
    out = tmp_path / "run"
    assert cli.main([command, *flags, "--out", str(out)]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in expected}
    assert digests == expected


@pytest.mark.parametrize("train, named", [
    ({"iters": 3}, "solver.train.iters"),
    ({"seed": 3}, "solver.train.seed"),
    ({"iter_a": "3"}, "solver.train.iter_a"),
    ({"lr": True}, "solver.train.lr"),
    ({"path_sampling": "refernce"}, "path_sampling"),
    ({"eval_mc": 0}, "eval_mc"),
    ({"hidden_units": 0}, "hidden_units"),
    ({"hidden_layers": -1}, "hidden_layers"),
    ({"lr": -1}, "lr"),
    ({"lr": 0.0}, "lr"),
    ({"lr_decay": 0}, "lr_decay"),
    ({"lr_decay": 2.0}, "lr_decay"),
])
def test_bad_train_config_is_json_error(tmp_path, capsys, train, named):
    cfg = dict(BASE_CONFIG, solver={"kind": "algorithm1", "train": train})
    rc = cli.main(["train", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "run")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert named in err["error"] and err["command"] == "train"
    assert err["error"].startswith(f"solver.train.{next(iter(train))}:")


def test_algorithm2_without_a_ball_names_the_ambiguity_kind(tmp_path, capsys):
    cfg = dict(BASE_CONFIG, ambiguity={"kind": "singleton"},
               solver={"kind": "algorithm2", "train": {"iter_a": 1, "iter_psi": 1}})
    rc = cli.main(["train", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "run")])
    assert rc == 1
    assert "ambiguity.kind" in json.loads(capsys.readouterr().err)["error"]


def test_corrupt_network_is_json_error(tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir()
    for t in range(BASE_CONFIG["problem"]["horizon"]):
        (out / f"action_net_{t}.txt").write_text("robustdp-mlp v1\nsizes 0 4 2\n")
    rc = cli.main(["evaluate", "--config", write_config(tmp_path), "--out", str(out)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert "action_net_0.txt" in err["error"] and "truncated" in err["error"]


def test_diverging_training_is_json_error(tmp_path, capsys):
    cfg = dict(BASE_CONFIG, solver={"kind": "algorithm1",
                                    "train": dict(TINY_TRAIN, lr=1e300)})
    rc = cli.main(["train", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "run")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["command"] == "train"
    assert err["error"].startswith("training diverged at stage 1, value phase")


@pytest.mark.parametrize("kind, horizon, message", [
    ("algorithm1", 2, "training diverged at stage "),
    # one stage: no value phase follows the action phase, so only the
    # stage-0 value estimate can show that its last step diverged
    ("algorithm2", 1, "training diverged at stage 0, action phase"),
])
def test_diverged_training_writes_no_network(tmp_path, capsys, kind, horizon, message):
    cfg = dict(BASE_CONFIG, problem=dict(BASE_CONFIG["problem"], horizon=horizon),
               solver={"kind": kind, "train": {"iter_a": 1, "iter_psi": 1, "lr": 1e300}})
    rc = cli.main(["train", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "run")])
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["error"].startswith(message)
    assert not list(tmp_path.glob("**/*_net_*.txt"))


def test_non_finite_network_is_json_error(tmp_path, capsys):
    # a NaN weight in a trained dump: evaluate exits 1 and writes no
    # evaluate.json, which would hold a bare NaN
    cfg = dict(BASE_CONFIG, solver={"kind": "algorithm1", "train": TINY_MUTATED_TRAIN})
    path, out = write_config(tmp_path, cfg), tmp_path / "run"
    assert cli.main(["train", "--config", path, "--out", str(out)]) == 0
    net = out / "action_net_1.txt"
    lines = net.read_text().splitlines()
    lines[-2] = "nan " + lines[-2].split(" ", 1)[1]
    net.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(["evaluate", "--config", path, "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert "action_net_1.txt" in err["error"] and "non-finite" in err["error"]
    assert not (out / "evaluate.json").exists()


def mutated(cfg, dotted, value):
    """A deep copy of cfg with the value at a dotted path set, sections
    created as needed."""
    cfg = json.loads(json.dumps(cfg))
    *parents, leaf = dotted.split(".")
    node = cfg
    for part in parents:
        node = node.setdefault(part, {})
    node[leaf] = value
    return cfg


@pytest.mark.parametrize("dotted, value", [
    ("data.train_fraction", "0.5"),
    ("problem.loss.a", "x"),
    ("data.synthetic.annual_vol", [1]),
    ("data.synthetic", "x"),
    ("ambiguity.radius.value", float("inf")),
    ("ambiguity.radius.value", float("nan")),
    ("problem.return_bound", float("nan")),
    ("data.synthetic.annual_vol", float("nan")),
    ("problem.return_bound", float("inf")),
    ("problem.bounds.position", float("inf")),
    ("data.synthetic.days", 0),
    ("solver.grid_points", 0),
    ("ambiguity.order", 0),
    ("ambiguity.radius.value", -1),
    ("controls.resolution", 0),
    ("data.synthetic.annual_vol", -1),
    ("problem.bounds.cash", 0),
    ("problem.bounds.position", -1),
    ("problem.horizon", 0),
    ("problem.return_bound", 0),
    ("seed", -1),
    ("solver.n_measures", 0),
    ("solver.kind", "x"),
    ("solver.kind", True),
])
def test_wrongly_typed_config_key_is_json_error(tmp_path, capsys, dotted, value):
    cfg = mutated(BASE_CONFIG, dotted, value)
    rc = cli.main(["solve-exact", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "run")])
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert dotted in err["error"] and err["command"] == "solve-exact"


@pytest.mark.parametrize("dotted, value", [
    ("problem.payoff.weights", [1.0]),
    ("problem.payoff.weights", ["x", "y"]),
    ("problem.payoff.weights", [0.5, float("nan")]),
    ("problem.payoff.strikes", [1.0, 1.0, 1.0]),
])
def test_bad_basket_vector_is_json_error(tmp_path, capsys, dotted, value):
    cfg = mutated(BASE_CONFIG, "problem.dimension", 2)
    cfg = mutated(cfg, "problem.payoff", {"kind": "basket"})
    cfg = mutated(cfg, dotted, value)
    rc = cli.main(["solve-exact", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "run")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert dotted in err["error"] and "2 finite numbers" in err["error"]


@pytest.mark.parametrize("command, dotted, value", [
    ("solve-exact", "ambiguity.radius.n_paths", 0),
    ("solve-exact", "ambiguity.radius.n_steps", -3),
    ("solve-exact", "ambiguity.radius.alpha", 1.5),
    ("solve-exact", "ambiguity.radius.alpha", 0),
    ("solve-exact", "ambiguity.reference.beta", -1),
    ("solve-exact", "problem.loss.a", 1.5),
    ("solve-exact", "problem.loss.b", 0.5),
    ("solve-exact", "data.train_fraction", 1),
    ("evaluate", "evaluate.paths", 0),
    ("evaluate", "evaluate.paths", -1),
    ("oracle-check", "oracle.instances", 0),
    ("bounds", "bounds.horizon", 0),
    ("bounds", "bounds.radius", -0.5),
])
def test_out_of_range_optional_key_is_json_error(tmp_path, capsys, command, dotted, value):
    # keys BASE_CONFIG leaves out, set out of range on a config that reads
    # them: the radius and reference keys under their adaptive and
    # kernel-weighted kinds
    cfg = mutated(BASE_CONFIG, "ambiguity.radius", {"kind": "adaptive"})
    cfg = mutated(cfg, "ambiguity.reference", {"kind": "kernel_weighted"})
    rc = cli.main([command, "--config", write_config(tmp_path, mutated(cfg, dotted, value)),
                   "--out", str(tmp_path / "run")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert dotted in err["error"] and err["command"] == command


def _leaves(cfg, prefix=""):
    for key, val in cfg.items():
        if isinstance(val, dict):
            yield from _leaves(val, f"{prefix}{key}.")
        else:
            yield prefix + key


MISSING = object()
TINY_MUTATED_TRAIN = dict(TINY_TRAIN, iter_a=1, iter_psi=1)
MUTATED_RUNS = {"solve-exact": BASE_CONFIG} | {
    kind: dict(BASE_CONFIG, solver={"kind": kind, "train": TINY_MUTATED_TRAIN})
    for kind in ("algorithm1", "algorithm2")}
MUTATED_LEAVES = [(run, dotted) for run, cfg in MUTATED_RUNS.items()
                  for dotted in sorted(_leaves(cfg))]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(MUTATED_LEAVES),
       st.sampled_from(["x", True, 0, -1, float("nan"), float("inf"),
                        float("-inf"), [1], MISSING]))
def test_mutated_config_exits_with_json_error_or_solves(case, value):
    # solve-exact on BASE_CONFIG, or train with either algorithm on a tiny
    # solver.train, with one leaf replaced or removed: exit 0, or exit 1
    # with one JSON error line last on stderr that names the leaf; an
    # uncaught exception fails the test
    run, dotted = case
    command = "solve-exact" if run == "solve-exact" else "train"
    cfg = json.loads(json.dumps(MUTATED_RUNS[run]))
    if value is MISSING:
        *parents, leaf = dotted.split(".")
        node = cfg
        for part in parents:
            node = node[part]
        del node[leaf]
    else:
        cfg = mutated(cfg, dotted, value)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main([command, "--config", str(path), "--out", f"{tmp}/run"])
    if rc != 0:
        assert rc == 1
        assert dotted in json.loads(err.getvalue().splitlines()[-1])["error"]


def test_unknown_problem_kind_is_json_error(tmp_path, capsys):
    cfg = dict(BASE_CONFIG, problem=dict(BASE_CONFIG["problem"], kind="portfolio"))
    rc = cli.main(["solve-exact", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "run")])
    assert rc == 1
    assert "problem.kind" in json.loads(capsys.readouterr().err)["error"]


def test_bounds_command(tmp_path):
    rc = cli.main(["bounds", "--seed", "5", "--out", str(tmp_path / "b")])
    assert rc == 0
    data = json.loads((tmp_path / "b" / "bounds.json").read_text())
    assert all(data["dominance"].values())


def test_error_is_machine_readable(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = cli.main(["train", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    parsed = json.loads(err)
    assert "error" in parsed and parsed["command"] == "train"


def test_negative_seed_flag_is_json_error(tmp_path, capsys):
    rc = cli.main(["solve-exact", "--config", write_config(tmp_path), "--seed", "-1",
                   "--out", str(tmp_path / "run")])
    assert rc == 1
    assert "--seed" in json.loads(capsys.readouterr().err)["error"]


def test_out_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("ROBUSTDP_OUT", str(tmp_path / "env_out"))
    rc = cli.main(["oracle-check", "--seed", "1"])
    assert rc == 0
    assert (tmp_path / "env_out" / "oracle_check.json").exists()


# -- exports and import cost -------------------------------------------------------


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(robustdp.__path__)))
def test_every_export_resolves(name):
    # a name deleted from a module must leave its __all__ too
    module = importlib.import_module(f"robustdp.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", sorted(
    p.name for p in Path(robustdp.__file__).parent.glob("*.py")))
def test_every_import_is_used(name):
    # a name a module imports and never reads is a dead dependency
    tree = ast.parse((Path(robustdp.__file__).parent / name).read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0]: node.lineno for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name: node.lineno for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {n: line for n, line in imported.items() if n not in used} == {}


def test_every_private_definition_is_used():
    # a private module-level function or class that nothing in the package
    # names outside its own body is dead code
    trees = {p.name: ast.parse(p.read_text())
             for p in Path(robustdp.__file__).parent.glob("*.py")}

    def names(node):
        return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))]

    counts = {}
    for tree in trees.values():
        for name in names(tree):
            counts[name] = counts.get(name, 0) + 1
    unused = [f"{module}:{node.name}" for module, tree in sorted(trees.items())
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name.startswith("_") and not node.name.startswith("__")
              and counts.get(node.name, 0) == names(node).count(node.name)]
    assert unused == []


SCIPY_GUARD = """
import importlib, json, pkgutil, sys
import numpy as np
import robustdp

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

for mod in pkgutil.iter_modules(robustdp.__path__):
    importlib.import_module("robustdp." + mod.name)
from robustdp import cli, dp, hedging as hg

rc = cli.main(["solve-exact", "--config", sys.argv[1], "--out", sys.argv[2]])
after_solve = scipy_modules()
prob = hg.HedgingProblem(d=1, horizon=3, return_bound=0.1, payoff=hg.CallPayoff(1.0))
policy = hg.bs_delta_hedge(prob, 0.2, 1.0)
dp.rollout(policy, np.zeros((4, 3, 1)))
print(json.dumps({"rc": rc, "after_solve": after_solve, "after_delta": scipy_modules()}))
"""


def test_scipy_is_imported_only_where_it_computes(tmp_path):
    # a fresh interpreter: this one has scipy loaded through conftest.py
    src = str(Path(robustdp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_GUARD, write_config(tmp_path), str(tmp_path / "run")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["rc"] == 0
    assert seen["after_solve"] == []
    assert "scipy.special" in seen["after_delta"]
    assert not any(m.startswith(("scipy.stats", "scipy.optimize"))
                   for m in seen["after_delta"])
