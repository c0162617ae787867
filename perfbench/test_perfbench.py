"""Self-tests of the benchmark: span arithmetic, patch hygiene, metric names,
and that a perturbed output fails its check.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import copy
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from robustdp.measures import DiscreteMeasure  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _tree(spans):
    """A Tracer filled with (name, start, end, parent) tuples."""
    tr = tracing.Tracer()
    for name, start, end, parent in spans:
        tr.names.append(name)
        tr.starts.append(start)
        tr.ends.append(end)
        tr.parents.append(parent)
    return tr


def test_self_time_on_nested_spans():
    tr = _tree([
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.leaf", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("trace.b", 6.0, 7.0, 3),  # tracer work inside b
    ])
    net, self_time = tr.net_and_self()
    assert net == pytest.approx([9.0, 3.0, 1.0, 3.0, 1.0])
    assert self_time[:4] == pytest.approx([3.0, 2.0, 1.0, 3.0])
    assert sum(self_time[:4]) == pytest.approx(net[0])


def test_tail_is_highest_percentile_with_ten_beyond():
    assert tracing.tail_percentile(19) == 50.0
    assert tracing.tail_percentile(100) == 90.0
    assert tracing.tail_percentile(999) == 90.0
    assert tracing.tail_percentile(1000) == 99.0
    assert tracing.percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5


def _tiny(monkeypatch, name, **sizes):
    monkeypatch.setitem(workloads.SIZES, name, {**workloads.SIZES[name], **sizes})


@pytest.fixture
def tiny_exact(monkeypatch, tmp_path):
    _tiny(monkeypatch, "exact-t3", days=12, horizon=2, grid_points=3, n_measures=2)
    return workloads.ExactT3(7, tmp_path)


@pytest.fixture
def tiny_hedge(monkeypatch):
    _tiny(monkeypatch, "hedge-t5", history=30, test=12, horizon=2, iter_a=2,
          iter_psi=2, n_mc=4, batch=4, eval_mc=16)
    return workloads.HedgeT5(7)


@pytest.fixture
def tiny_robust(monkeypatch):
    _tiny(monkeypatch, "robust-t5", history=12, horizon=2, iter_a=2, iter_psi=2,
          n_mc=4, batch=4, eval_mc=16, dual_grid=4, mc_paths=32)
    return workloads.RobustT5(7)


def test_wrappers_record_and_restore(tiny_robust):
    from robustdp import ambiguity, autodiff, dp, hedging, measures, neural

    owners = [measures, ambiguity, dp, autodiff, neural, hedging]
    before = [dict(vars(m)) for m in owners]
    forward = neural.Mlp.__dict__["forward"]
    problem = tiny_robust.problem
    tapes = (problem.feature_tape, problem.terminal_tape)

    tr = tracing.Tracer()
    patches = tracing.install_layer_wrappers(tr, [problem])
    assert measures.optimal_coupling is not before[0]["optimal_coupling"]
    assert ambiguity.optimal_coupling is measures.optimal_coupling
    assert dp.sample_measures is not before[2]["sample_measures"]
    out = tiny_robust.run()
    patches.restore()

    for mod, saved in zip(owners, before):
        assert vars(mod).keys() == saved.keys()
        assert all(vars(mod)[k] is v for k, v in saved.items()), mod.__name__
    assert neural.Mlp.__dict__["forward"] is forward
    assert (problem.feature_tape, problem.terminal_tape) == tapes
    layer = tracing.layer_metrics(tr, tiny_robust.counts(out))
    assert layer["measures.ot_calls"] == 2 * (3 - 1)  # sampled candidates, 2 stages
    assert layer["autodiff.backward_calls"] > layer["neural.grad_calls"] > 0
    assert layer["hedging.features_calls"] > 0
    assert tiny_robust.check(out) == []


def test_metric_names_match_the_contract():
    e2e = [m["name"] for m in BENCH["end_to_end"]]
    layer = [m["name"] for m in BENCH["per_layer"]]
    for name in e2e + layer + [w["name"] for w in BENCH["workloads"]]:
        assert NAME_RE.fullmatch(name), name
    assert len(set(e2e + layer)) == len(e2e + layer)
    assert set(w["name"] for w in BENCH["workloads"]) == set(workloads.WORKLOADS)
    assert set(layer) == set(tracing.LAYER_MOVES)

    tr = _tree([("measures.ot", 0.0, 1.0, -1)])
    per_iter = [tracing.layer_metrics(tr)]
    combined = tracing.combine_iterations(per_iter, [1000.0], [], 0.0)
    assert set(combined) == set(layer)
    calls = [{"wall": 1.0}]
    assert set(run.end_to_end_values(calls, [0.5], 100.0, 0)) == set(e2e)
    assert "setup_s" in e2e and max(m["bound"] for m in BENCH["end_to_end"]) == next(
        m["bound"] for m in BENCH["end_to_end"] if m["name"] == "setup_s")


def test_exact_check_catches_a_perturbed_value(tiny_exact):
    out = tiny_exact.run()
    assert tiny_exact.check(out) == tiny_exact.check_first(out) == []
    assert tiny_exact.counts(out)["dp.table_entries"] > 0
    assert tiny_exact.digest(tiny_exact.run()) == tiny_exact.digest(out)

    written = json.loads(out["value_json"])
    written["value"] += 1e-9
    assert tiny_exact.check(dict(out, value_json=json.dumps(written)))
    res = copy.copy(out["result"])
    res.value += 1e-9
    assert len(tiny_exact.check(dict(out, result=res))) == 2
    key, cands = next(iter(out["candidates"].items()))
    far = DiscreteMeasure(cands[0].support + 0.01, cands[0].weights)  # W_1 = 0.01
    bad = {**out["candidates"], key: cands + [far]}
    assert len(tiny_exact.check_first(dict(out, candidates=bad))) == 1


def test_hedge_check_catches_perturbed_outputs(tiny_hedge):
    out = tiny_hedge.run()
    assert tiny_hedge.check(out) == []
    assert out["windows"] == 12 - 2
    assert tiny_hedge.check(dict(out, windows=out["windows"] + 1))
    assert tiny_hedge.check(dict(out, value=math.nan))
    assert tiny_hedge.digest(dict(out, value=out["value"] * (1 + 1e-15))) != \
        tiny_hedge.digest(out)


def test_robust_check_catches_perturbed_outputs(tiny_robust):
    out = tiny_robust.run()
    assert tiny_robust.check(out) == []
    vals = out["values"]["algorithm1"]
    for bad in ([math.nan] + vals[1:], vals[:1], [abs(v) + 1.0 for v in vals]):
        perturbed = dict(out, values=dict(out["values"], algorithm1=bad))
        assert tiny_robust.check(perturbed), bad
    assert np.isfinite(out["estimates"]["algorithm2"])
