"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload exact-t3 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from `src/` of that
checkout and nowhere else.  One process runs one workload: it times the
set-up, calls the workload's operation again and again (a closed loop, one
client) for `--seconds` seconds of operation time, checks every output,
and prints

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json,
measured with no wrapper installed.  With `--trace 1` untraced and traced
calls alternate; the metrics are the per-layer ones, taken from the traced
calls, plus the tracing overhead (median traced minus median untraced
wall time).  A fuller record, with the host, the output digest and every
call's wall time, goes to `.perfbench/results/`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
SETUP_PROBES = 2  # fresh interpreters timing set-up, besides this process
# The workloads multiply small matrices; a second BLAS thread gains little
# and, on a shared two-core host, spin-waits for a busy core (a 10x slower
# hedge-t5 was seen).  One thread unless the caller sets otherwise.
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_package():
    """Import the workloads, and through them robustdp from ./src only."""
    src = ROOT / "src"
    if not (src / "robustdp" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no robustdp sources under {src}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import robustdp
    import workloads

    if Path(robustdp.__file__).resolve().parent != (src / "robustdp").resolve():
        sys.stderr.write(f"perfbench: robustdp imported from {robustdp.__file__}\n")
        raise SystemExit(2)
    return workloads


def timed_setup(name, seed, workdir):
    t0 = time.perf_counter()
    workloads = load_package()
    workload = workloads.WORKLOADS[name](seed, workdir)
    return workload, time.perf_counter() - t0


def probe_setups(name, seed):
    """Set-up times of fresh interpreters, one after another."""
    samples = []
    for k in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def host_info():
    import numpy
    import scipy

    commit = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    src_hash = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src_hash.update(path.relative_to(ROOT).as_posix().encode())
        src_hash.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": commit,
        "source_sha256": src_hash.hexdigest(),
    }


def run_loop(workload, seconds, trace):
    """Closed loop over workload.run(); returns (per-call records, first output).

    Each output is checked and digested right after its call, outside the
    timed region, and then dropped; only the first successful output is
    kept, for the expensive checks made after the loop.  A call starts only
    while the operation time so far plus half the mean call leaves the
    budget unspent; at least one call (two when tracing: one untraced, one
    traced) always runs.
    """
    from tracing import Tracer, install_layer_wrappers

    calls = []
    first = None
    spent = 0.0
    while True:
        traced = trace and len(calls) % 2 == 1
        tracer = Tracer() if traced else None
        gc.collect()  # every call starts from the same collector state
        patches = install_layer_wrappers(tracer, workload.problems) if traced else None
        out = None
        errors = []
        t0 = time.perf_counter()
        try:
            out = workload.run()
        except Exception:
            errors.append(traceback.format_exc())
        finally:
            wall = time.perf_counter() - t0
            if patches is not None:
                patches.restore()
        spent += wall
        call = {"wall": wall, "traced": traced, "errors": errors, "tracer": tracer,
                "digest": None, "counts": None}
        if out is not None:
            try:
                errors.extend(workload.check(out))
                call["digest"] = workload.digest(out)
                call["counts"] = workload.counts(out)
            except Exception:
                errors.append(traceback.format_exc())
            if first is None:
                first = (len(calls), out)
            elif call["digest"] != calls[first[0]]["digest"]:
                errors.append(f"digest {call['digest']} differs from the first call's")
        calls.append(call)
        if len(calls) >= (2 if trace else 1) and spent + 0.5 * spent / len(calls) >= seconds:
            return calls, first


def layer_results(calls):
    from tracing import call_durations_ms, combine_iterations, layer_metrics

    traced = [c for c in calls if c["traced"] and not c["errors"]]
    untraced = [c["wall"] for c in calls if not c["traced"]]
    if not traced:
        return None
    per_iter = [layer_metrics(c["tracer"], c["counts"]) for c in traced]
    ot_ms = [x for c in traced for x in call_durations_ms(c["tracer"], "measures.ot")]
    step_ms = [x for c in traced for x in call_durations_ms(c["tracer"], "neural.grad")]
    overhead = statistics.median(c["wall"] for c in traced) - statistics.median(untraced)
    return combine_iterations(per_iter, ot_ms, step_ms, overhead)


def end_to_end_values(calls, setup_samples, peak_rss_mb, failed):
    """The untraced metrics; pass_share is 1 - (failed calls / calls)."""
    return {
        "wall_s": statistics.median(c["wall"] for c in calls),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
        "pass_share": (len(calls) - failed) / len(calls),
    }


def main(argv=None):
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help="time import and set-up only, print it, exit")
    args = parser.parse_args(argv)
    for key in BLAS_ENV:
        os.environ.setdefault(key, "1")

    work = STATE / "work" / f"{args.workload}-seed{args.seed}"
    if args.probe_setup:
        _, setup_s = timed_setup(args.workload, args.seed, work / "probe")
        print(f"setup_s {setup_s!r}")
        return 0

    workload, setup_s = timed_setup(args.workload, args.seed, work / "main")
    setup_samples = [setup_s] + probe_setups(args.workload, args.seed)
    import workloads

    calls, first = run_loop(workload, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    digest = None
    if first is not None:
        idx, out = first
        digest = calls[idx]["digest"]
        try:
            calls[idx]["errors"].extend(workload.check_first(out))
        except Exception:
            calls[idx]["errors"].append(traceback.format_exc())
    failures = [c["errors"] for c in calls]
    failed = sum(1 for errs in failures if errs)
    attempted = len(calls)

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    if args.trace:
        values = layer_results(calls) or {}
        names = [m["name"] for m in bench["per_layer"]]
    else:
        values = end_to_end_values(calls, setup_samples, peak_rss_mb, failed)
        names = [m["name"] for m in bench["end_to_end"]]
    metrics = {n: {"value": values[n], "unit": units[n]} for n in names if n in values}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "sizes": workloads.SIZES[args.workload],
        "digest": digest, "walls_s": [c["wall"] for c in calls],
        "traced": [c["traced"] for c in calls], "setup_samples_s": setup_samples,
        "peak_rss_mb": peak_rss_mb, "failures": failures, "metrics": metrics,
        "host": host_info(),
    }
    if args.trace:
        from tracing import LAYER_MOVES

        record["layer_moves"] = LAYER_MOVES
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    out_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if args.trace:
        spans = [[(n, s, e, p) for n, s, e, p in zip(t.names, t.starts, t.ends, t.parents)]
                 for t in (c["tracer"] for c in calls if c["traced"])]
        out_path.with_suffix(".spans.json").write_text(json.dumps(spans) + "\n")

    for i, errs in enumerate(failures):
        for e in errs:
            sys.stderr.write(f"perfbench: call {i} failed: {e}\n")
    print(f"{args.workload} seed {args.seed}: {attempted} calls, {failed} failed, "
          f"digest {digest}")
    for n in names:
        if n in metrics:
            print(f"  {n:34s} {metrics[n]['value']:.6g} {metrics[n]['unit']}")
    print(json.dumps({"correct": failed == 0 and len(metrics) == len(names),
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
