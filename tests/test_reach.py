"""Which package functions the commands reach.

test_every_package_function_is_reached_or_allowlisted runs the fixed list
of `cli.main` calls in `cli_runs` under `sys.setprofile`, records every
function of `src/robustdp/` that ran, and compares the functions that none
of the calls reached with ALLOWLIST, by equality.

Reading a failure.  The message lists two sets of `module.qualname` keys
(nested functions as `outer.<locals>.inner`):
- "add": functions that no command reaches and the allowlist does not
  name.  Reach each from a command (extend `cli_runs` with a CLI run that
  exercises it), delete it, or, if it must stay, add it with a reason.
- "remove": allowlisted functions that a command now reaches, or that no
  longer exist.  Delete their entries.

A valid reason says why the function stays although no command runs it,
and names one of:
- the acceptance criterion (tests/test_acceptance.py) that checks it;
- the benchmark's exact-t3 check (perfbench/workloads.py), which rebuilds
  the saddle chain of criterion 2;
- the ROADMAP item that will wire it into a command;
- a paper object that the unit tests check and no command uses yet.
Code that none of these names and that only tests read is dead: delete it.
"""

import ast
import sys
from pathlib import Path

import robustdp
from robustdp import cli
from test_cli import (
    BASE_CONFIG,
    PINNED_RUNS,
    SOLVE_EXACT_VARIANTS,
    TINY_MUTATED_TRAIN,
    basket_config,
    mutated,
    write_config,
)

PACKAGE = Path(robustdp.__file__).resolve().parent

# train and evaluate drawing next states along each path: Algorithm 1 on a
# ball's two-copy members and on a singleton's reference, Algorithm 2 on its
# ball's reference, around the two path-dependent references
PATH_DRAW_RUNS = {
    f"{kind}-{ambiguity}-{reference}": mutated(
        dict(BASE_CONFIG, solver={"kind": kind, "train": TINY_MUTATED_TRAIN},
             evaluate={"paths": 64}),
        "ambiguity", dict(BASE_CONFIG["ambiguity"], kind=ambiguity,
                          reference={"kind": reference}))
    for kind, ambiguity, reference in (("algorithm1", "wasserstein", "kernel_weighted"),
                                       ("algorithm1", "singleton", "kernel_weighted"),
                                       ("algorithm2", "wasserstein", "adaptive"))
}


def cli_runs(tmp_path):
    """(output directory name, argv) of every command run, in order; a
    trained run's evaluate and hedge-backtest read its nets from its
    directory."""

    def config(name, cfg):
        return ["--config", write_config(tmp_path, cfg, f"{name}.json")]

    runs = [("base", ["solve-exact", *config("base", BASE_CONFIG)])]
    for kind, (cfg, _) in sorted(PINNED_RUNS.items()):
        commands = ["train", "evaluate", "hedge-backtest"] if kind == "algorithm1" else ["train"]
        runs += [(kind, [command, *config(kind, cfg)]) for command in commands]
    runs += [(command, [command, "--seed", "3"]) for command in ("oracle-check", "bounds")]
    for name, build in sorted(SOLVE_EXACT_VARIANTS.items()):
        runs.append((name, ["solve-exact", *config(name, build(tmp_path))]))
    runs.append(("basket", ["solve-exact", *config("basket", basket_config(tmp_path))]))
    runs += [(name, [command, *config(name, cfg)]) for name, cfg in PATH_DRAW_RUNS.items()
             for command in ("train", "evaluate")]
    return runs


def package_functions():
    """{(file, first line): "module.qualname"} of every def in the package,
    methods and nested functions included; a lambda is an expression, not
    a def.  The first line is a decorated function's first decorator line,
    as in its code object's co_firstlineno."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first)] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path, f"{path.stem}.")
    return found


FAMILY = "parametric family (criteria 4, 8); ROADMAP item 5 puts the parametric ball in the CLI"
PARAMETRIC_BALL = "ROADMAP item 5 puts the parametric ball in the CLI"
GLUING = "gluing transport (criterion 6)"
GAP_BOUND = "gap bounds (criterion 8)"
SADDLE = "saddle chain (criterion 2 and the benchmark's exact-t3 check)"
TAPE = "tape operator (criterion 9): the composed-operator oracles of the fused tape nodes"
UNIT = "unit-tested paper object with no command"
FINITE_SET = UNIT + " (the CLI tests membership only in balls)"
ALLOWLIST = {
    "ambiguity.ExponentialFamily.__init__": FAMILY,
    "ambiguity.ExponentialFamily.discretize": FAMILY,
    "ambiguity.ExponentialFamily.distance": FAMILY,
    "ambiguity.ExponentialFamily.estimate": FAMILY,
    "ambiguity.ExponentialFamily.estimator_lipschitz": FAMILY,
    "ambiguity.ExponentialFamily.project": FAMILY,
    "ambiguity.FiniteSet.center": FINITE_SET,
    "ambiguity.FiniteSet.distance": FINITE_SET,
    "ambiguity.FiniteSet.declared_lipschitz": UNIT + " (lipschitz_audit of a finite set)",
    "ambiguity.FiniteSet.eps": FINITE_SET,
    "ambiguity.FiniteSet.witnesses": UNIT + " (lipschitz_audit of a finite set)",
    "ambiguity.NormalDiagFamily.__init__": FAMILY,
    "ambiguity.NormalDiagFamily.discretize": FAMILY,
    "ambiguity.NormalDiagFamily.distance": FAMILY,
    "ambiguity.NormalDiagFamily.estimate": FAMILY,
    "ambiguity.NormalDiagFamily.estimator_lipschitz": FAMILY,
    "ambiguity.NormalDiagFamily.project": FAMILY,
    "ambiguity.NormalDiagFamily.split": FAMILY,
    "ambiguity.ParametricBall.center": PARAMETRIC_BALL,
    "ambiguity.ParametricBall.center_theta": PARAMETRIC_BALL,
    "ambiguity.ParametricBall.declared_lipschitz": PARAMETRIC_BALL,
    "ambiguity.ParametricBall.distance": PARAMETRIC_BALL,
    "ambiguity.ParametricBall.eps": PARAMETRIC_BALL,
    "ambiguity.ParametricBall.sample": PARAMETRIC_BALL,
    "ambiguity.ParametricBall.witnesses": PARAMETRIC_BALL,
    "ambiguity.TabularKernel.__call__": UNIT,
    "ambiguity.TabularKernel.__init__": UNIT,
    "ambiguity.WassersteinBall.witnesses": GLUING + ", as lipschitz_audit's witnesses",
    "ambiguity.ball_infimum": "exact grid-ball minimum (criteria 5, 10); ROADMAP item 6 "
                              "gives it a CLI switch",
    "ambiguity.dual_inner_value": "W_q dual objective (criterion 5)",
    "ambiguity.lipschitz_audit": UNIT,
    "ambiguity.transport_between_balls": GLUING,
    "ambiguity.v_lambda": GLUING,
    "autodiff.Var.__matmul__": TAPE,
    "autodiff.Var.__radd__": TAPE,
    "autodiff.Var.__truediv__": TAPE,
    "autodiff._matmul": TAPE,
    "autodiff._recip": TAPE,
    "bounds.mu_recursion": GAP_BOUND + ": stability_bound's default mu_err",
    "bounds.parametric_gap_bound": GAP_BOUND + "; ROADMAP item 5 writes it to bounds.json",
    "bounds.wasserstein_gap_bound": GAP_BOUND,
    "controls.BallSet.__init__": UNIT,
    "controls.BallSet.bounds_at": UNIT,
    "controls.BallSet.center": UNIT,
    "controls.BallSet.clamp": UNIT,
    "controls.BallSet.contains_rows": UNIT,
    "controls.BallSet.dim": UNIT,
    "controls.BoxSet.__init__": UNIT,
    "controls.BoxSet.bounds_at": UNIT,
    "controls.BoxSet.clamp": UNIT,
    "controls.BoxSet.contains_rows": UNIT,
    "controls.BoxSet.dim": UNIT,
    "controls.ConstantSet.clamp": SADDLE + ": TabularPolicy.act",
    "controls._ActionSet.contains": SADDLE + ": ConstantSet.clamp on a finite action set",
    "dp.TabularPolicy.act": SADDLE,
    "dp.WorstCaseKernel.measure": SADDLE,
    "dp._dual_lower": "grid-ball lower bound (criterion 10); ROADMAP item 6 gives it a CLI switch",
    "dp.evaluate_policy": SADDLE,
    "dp.evaluate_policy.<locals>.rec": SADDLE,
    "dp.holder_constant_recursion": UNIT,
    "measures.moment": UNIT,
    "neural.Mlp.set_parameters": "feature-input training only (warm_start), which no command "
                                 "sets; criterion 9",
    "normal.ndtri": FAMILY + ": NormalDiagFamily.discretize's quantiles",
}


def test_every_package_function_is_reached_or_allowlisted(tmp_path, capsys):
    seen = set()

    def record(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    profiler = sys.getprofile()
    for name, argv in cli_runs(tmp_path):
        sys.setprofile(record)
        try:
            rc = cli.main([*argv, "--out", str(tmp_path / name)])
        finally:
            sys.setprofile(profiler)
        assert rc == 0, (argv, capsys.readouterr().err)
    files = {f: str(Path(f).resolve()) for f in {code.co_filename for code in seen}}
    reached = {(files[code.co_filename], code.co_firstlineno) for code in seen}
    unreached = {q for key, q in package_functions().items() if key not in reached}
    add = sorted(unreached - set(ALLOWLIST))
    remove = sorted(set(ALLOWLIST) - unreached)
    assert unreached == set(ALLOWLIST), f"add: {add}\nremove: {remove}"
