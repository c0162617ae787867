"""Spans recorded from outside the package, and the per-layer metrics.

The benchmark never edits `robustdp`.  It measures a layer by replacing the
module attributes that callers look up (for example `ambiguity` binds
`optimal_coupling` at import, so both `measures.optimal_coupling` and
`ambiguity.optimal_coupling` are wrapped) with timing wrappers, and puts the
originals back afterwards.  Spans are held in memory until the run ends.

Span names are the metric prefixes: a span called "measures.ot" feeds
`measures.ot_calls`, `measures.ot_s` and so on.  Work the tracer does for
itself (counting tape nodes) runs inside spans named "trace.*"; their time
is taken out of every enclosing span, so it shows only as overhead.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
from contextlib import contextmanager

_clock = time.perf_counter

TAIL_PERCENTILES = (99.9, 99.0, 90.0)


class Tracer:
    """Spans as (name, start, end, parent index), in start order."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counts = {}
        self._stack = []

    @contextmanager
    def span(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(_clock())
        self.ends.append(None)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.ends[idx] = _clock()

    def count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    def net_and_self(self):
        """Per span: duration without tracer work, and self time.

        Self time is the net duration minus the union of the intervals its
        (non-tracer) child spans cover, clipped to the parent interval.
        """
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        overhead = [0.0] * n
        children = [[] for _ in range(n)]
        for i in range(n - 1, -1, -1):
            p = self.parents[i]
            if p < 0:
                continue
            if self.names[i].startswith("trace."):
                overhead[p] += dur[i]
            else:
                overhead[p] += overhead[i]
                children[p].append(i)
        net = [dur[i] - overhead[i] for i in range(n)]
        self_time = []
        for i in range(n):
            covered = _union_length(
                [(self.starts[c], self.ends[c]) for c in children[i]],
                self.starts[i], self.ends[i],
            )
            inner_overhead = sum(overhead[c] for c in children[i])
            own_trace = overhead[i] - inner_overhead
            self_time.append(dur[i] - own_trace - covered)
        return net, self_time


def _union_length(intervals, lo, hi):
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def tail_percentile(n_samples):
    """Highest listed percentile with at least ten samples beyond it; the
    median when there are fewer than twenty samples."""
    for p in TAIL_PERCENTILES:
        if n_samples * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def percentile(values, p):
    """Linear-interpolated percentile of a non-empty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# patching module attributes
# ---------------------------------------------------------------------------


class Patches:
    """Replace attributes and put the originals back on restore()."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_everywhere(self, func, make_wrapper):
        """Wrap `func` under every name a robustdp module binds it to."""
        wrapper = make_wrapper(func)
        for modname, mod in list(sys.modules.items()):
            if mod is None or modname.split(".")[0] != "robustdp":
                continue
            for attr, val in list(vars(mod).items()):
                if val is func:
                    self.set(mod, attr, wrapper)
        return wrapper

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _timed(tracer, name, on_result=None, before=None):
    def make(func):
        def wrapper(*args, **kwargs):
            if before is not None:
                with tracer.span("trace." + name):
                    before(args, kwargs)
            with tracer.span(name):
                out = func(*args, **kwargs)
            if on_result is not None:
                on_result(args, out)
            return out

        return wrapper

    return make


def _tape_nodes(root):
    seen = {id(root)}
    stack = [root]
    while stack:
        v = stack.pop()
        for p in getattr(v, "parents", ()) or ():
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def install_layer_wrappers(tracer, problems=()):
    """Wrap every traced entry point; returns the Patches to restore."""
    from robustdp import ambiguity, autodiff, dp, hedging, measures, neural

    patches = Patches()

    def count_atoms(args, out):
        tracer.count("ambiguity.candidate_atoms", sum(m.n_atoms for m in out))

    def count_rows(args, out):
        x = args[1]
        rows = 1 if getattr(x, "ndim", 2) == 1 else len(x)
        tracer.count("neural.mlp_rows", rows)

    def count_tape(args, kwargs):
        root = args[0] if args else kwargs["root"]
        tracer.count("autodiff.tape_nodes", _tape_nodes(root))

    targets = [
        (measures, "optimal_coupling", _timed(tracer, "measures.ot")),
        (ambiguity, "sample_measures", _timed(tracer, "ambiguity.sample", count_atoms)),
        (dp, "build_candidates", _timed(tracer, "dp.build")),
        (dp, "backward_induction_exact", _timed(tracer, "dp.induction")),
        (autodiff, "backward", _timed(tracer, "autodiff.backward", before=count_tape)),
        (neural, "grad", _timed(tracer, "neural.grad")),
        (neural, "adam_step", _timed(tracer, "neural.adam")),
        (neural, "train_algorithm1", _timed(tracer, "neural.alg1")),
        (neural, "train_algorithm2", _timed(tracer, "neural.alg2")),
        (neural, "mc_policy_values", _timed(tracer, "neural.mc_values")),
        (hedging, "backtest", _timed(tracer, "hedging.backtest")),
    ]
    # a name a later version drops is skipped; its metrics then read 0
    for module, attr, make in targets:
        if hasattr(module, attr):
            patches.wrap_everywhere(getattr(module, attr), make)
    if "forward" in vars(neural.Mlp):
        patches.set(neural.Mlp, "forward",
                    _timed(tracer, "neural.mlp", count_rows)(neural.Mlp.forward))
    for problem in problems:
        for attr, name in (("feature_tape", "hedging.features"),
                           ("terminal_tape", "hedging.terminal")):
            if getattr(problem, attr, None) is not None:
                patches.set(problem, attr, _timed(tracer, name)(getattr(problem, attr)))
    return patches


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

LAYER_MOVES = {
    # per-layer metric: the end-to-end metric and workloads it should move
    "measures.ot_calls": "wall_s on exact-t3, robust-t5; 0 on hedge-t5",
    "measures.ot_s": "wall_s on exact-t3 (~70%), robust-t5",
    "measures.ot_ms_p50": "wall_s on exact-t3, robust-t5",
    "measures.ot_ms_tail": "wall_s and peak_rss_mb on robust-t5",
    "ambiguity.sample_calls": "wall_s on exact-t3, robust-t5",
    "ambiguity.sample_self_s": "wall_s on exact-t3, robust-t5",
    "ambiguity.candidate_atoms": "wall_s on exact-t3 (snapping, induction)",
    "dp.build_s": "wall_s on exact-t3",
    "dp.induction_s": "wall_s on exact-t3",
    "dp.table_entries": "wall_s on exact-t3; 0 elsewhere",
    "dp.us_per_entry": "wall_s on exact-t3",
    "autodiff.backward_calls": "wall_s on hedge-t5, robust-t5; 0 on exact-t3",
    "autodiff.backward_s": "wall_s on hedge-t5, robust-t5",
    "autodiff.tape_nodes": "wall_s on hedge-t5, robust-t5",
    "neural.alg1_s": "wall_s on hedge-t5, robust-t5",
    "neural.alg2_s": "wall_s on robust-t5",
    "neural.grad_calls": "wall_s on hedge-t5, robust-t5; 0 on exact-t3",
    "neural.step_ms_p50": "wall_s on hedge-t5",
    "neural.step_ms_tail": "wall_s on hedge-t5",
    "neural.mlp_rows": "wall_s on hedge-t5, robust-t5",
    "neural.mlp_rows_per_s": "wall_s on hedge-t5",
    "neural.adam_s": "wall_s on hedge-t5, robust-t5",
    "neural.train_self_s": "wall_s on hedge-t5, robust-t5",
    "neural.mc_values_s": "wall_s on robust-t5",
    "hedging.features_calls": "wall_s on hedge-t5, robust-t5",
    "hedging.features_s": "wall_s on hedge-t5, robust-t5",
    "hedging.terminal_s": "wall_s on hedge-t5, robust-t5",
    "hedging.backtest_s": "wall_s on hedge-t5",
    "hedging.backtest_ms_per_window": "wall_s on hedge-t5",
    "trace.overhead_s": "none: traced minus untraced wall_s",
}


def layer_metrics(tracer, extra_counts=None):
    """Per-layer values for one traced iteration (durations pooled later)."""
    net, self_time = tracer.net_and_self()
    by_name = {}
    for i, name in enumerate(tracer.names):
        by_name.setdefault(name, []).append(i)

    def total(name, values=net):
        return sum(values[i] for i in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    counts = dict(tracer.counts)
    counts.update(extra_counts or {})
    backward_calls = calls("autodiff.backward")
    mlp_s = total("neural.mlp")
    windows = counts.get("hedging.backtest_windows", 0)
    entries = counts.get("dp.table_entries", 0)
    return {
        "measures.ot_calls": calls("measures.ot"),
        "measures.ot_s": total("measures.ot"),
        "ambiguity.sample_calls": calls("ambiguity.sample"),
        "ambiguity.sample_self_s": total("ambiguity.sample", self_time),
        "ambiguity.candidate_atoms": counts.get("ambiguity.candidate_atoms", 0),
        "dp.build_s": total("dp.build"),
        "dp.induction_s": total("dp.induction"),
        "dp.table_entries": entries,
        "dp.us_per_entry": 1e6 * total("dp.induction") / entries if entries else 0.0,
        "autodiff.backward_calls": backward_calls,
        "autodiff.backward_s": total("autodiff.backward"),
        "autodiff.tape_nodes": (
            counts.get("autodiff.tape_nodes", 0) / backward_calls if backward_calls else 0.0
        ),
        "neural.alg1_s": total("neural.alg1"),
        "neural.alg2_s": total("neural.alg2"),
        "neural.grad_calls": calls("neural.grad"),
        "neural.mlp_rows": counts.get("neural.mlp_rows", 0),
        "neural.mlp_rows_per_s": counts.get("neural.mlp_rows", 0) / mlp_s if mlp_s else 0.0,
        "neural.adam_s": total("neural.adam"),
        "neural.train_self_s": total("neural.alg1", self_time) + total("neural.alg2", self_time),
        "neural.mc_values_s": total("neural.mc_values"),
        "hedging.features_calls": calls("hedging.features"),
        "hedging.features_s": total("hedging.features"),
        "hedging.terminal_s": total("hedging.terminal"),
        "hedging.backtest_s": total("hedging.backtest"),
        "hedging.backtest_ms_per_window": (
            1e3 * total("hedging.backtest") / windows if windows else 0.0
        ),
    }


def call_durations_ms(tracer, name):
    net, _ = tracer.net_and_self()
    return [1e3 * net[i] for i, n in enumerate(tracer.names) if n == name]


def combine_iterations(per_iter, ot_ms, step_ms, overhead_s):
    """Median over traced iterations; call percentiles over pooled calls."""
    out = {k: statistics.median(it[k] for it in per_iter) for k in per_iter[0]}
    for prefix, samples in (("measures.ot_ms", ot_ms), ("neural.step_ms", step_ms)):
        out[prefix + "_p50"] = percentile(samples, 50.0) if samples else 0.0
        out[prefix + "_tail"] = (
            percentile(samples, tail_percentile(len(samples))) if samples else 0.0
        )
    out["trace.overhead_s"] = overhead_s
    return out
