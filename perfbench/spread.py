"""Run the benchmark over several seeds and report medians and spreads.

    python3 perfbench/spread.py --seeds 1-10 --sets 2
    python3 perfbench/spread.py --seeds 1 --workloads exact-t3,hedge-t5,robust-t5

For every workload and end-to-end metric it prints the values, the median,
and the spread: the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median.  A spread
above the metric's bound fails, and one above a third of it is flagged
(setup_s excepted from both).  With two sets of runs it also compares the
second median with the first against the bound, and checks that both sets
produced identical output digests seed by seed.  Runs are made one after
another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(bench, workload, seed, trace):
    cmd = list(bench["command"]) + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(bench["run_seconds"]),
                                    "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".perfbench" / "results" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record["digest"]


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    workloads = args.workloads.split(",")
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]

    runs = {}  # (set, workload) -> list of (seed, result, digest)
    for s in range(args.sets):
        for w in workloads:
            for seed in seeds:
                result, digest = run_once(bench, w, seed, args.trace)
                runs.setdefault((s, w), []).append((seed, result, digest))
                shown = ", ".join(f"{k}={v['value']:.6g}{v['unit']}"
                                  for k, v in result["metrics"].items())
                print(f"set {s + 1} {w} seed {seed}: correct={result['correct']} "
                      f"{result['failed']}/{result['attempted']} failed; {shown}", flush=True)

    ok = True
    summary = {}
    for w in workloads:
        for s in range(args.sets):
            rows = runs[(s, w)]
            if not all(r["correct"] for _, r, _ in rows):
                ok = False
                print(f"{w} set {s + 1}: some runs not correct")
            for m in metrics:
                vals = [r["metrics"][m["name"]]["value"] for _, r, _ in rows]
                med = statistics.median(vals)
                entry = {"values": vals, "median": med}
                line = f"{w} set {s + 1} {m['name']}: median {med:.6g} {m['unit']}"
                if len(vals) >= 2:
                    sp = spread(vals)
                    entry["spread"] = sp
                    line += f", spread {sp:.4f}"
                    if "bound" in m and m["name"] != "setup_s":
                        over = sp > m["bound"]
                        ok = ok and not over
                        note = ", OVER BOUND" if over else (
                            ", above a third of it" if sp > m["bound"] / 3 else "")
                        line += f" (bound {m['bound']}{note})"
                summary.setdefault(w, {}).setdefault(m["name"], []).append(entry)
                print(line)
        if args.sets == 2:
            a, b = runs[(0, w)], runs[(1, w)]
            same = [da == db for (_, _, da), (_, _, db) in zip(a, b)]
            print(f"{w}: digests identical across sets for {sum(same)}/{len(same)} seeds")
            ok = ok and all(same)
            for m in metrics:
                if "bound" not in m:
                    continue
                first, second = (e["median"] for e in summary[w][m["name"]])
                worse = (second - first) if m["better"] == "lower" else (first - second)
                share = worse / first if first else 0.0
                flag = share > m["bound"]
                ok = ok and not flag
                print(f"{w} {m['name']}: second median worse by {share:+.4f} "
                      f"(bound {m['bound']}){' EXCEEDED' if flag else ''}")
    out = ROOT / ".perfbench" / "spread.json"
    out.write_text(json.dumps({"seeds": seeds, "sets": args.sets, "trace": args.trace,
                               "summary": summary}, indent=2) + "\n")
    print("ALL WITHIN BOUNDS" if ok else "NOT STEADY OR NOT CORRECT")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
