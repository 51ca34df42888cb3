#!/usr/bin/env python3
"""Steadiness tool: runs one workload N times, each with another seed, and
prints the median, quartiles and spread of every metric.

    python3 perfbench/steady.py --workload relaxed --runs 10 [--seed0 1]
        [--seconds 10] [--trace 0] [--compare earlier.json] [--save runs.json]

Run it from the repository root. The spread of a metric is the distance
between its first and third quartile (statistics.quantiles(values, n=4))
as a share of its median. With --trace 0 each spread is checked against
the metric's bound in BENCHMARK.json (setup_s excepted); --compare checks
that this set's medians are not worse than an earlier --save'd set's by
more than the bound. The exit code is 1 if a run fails or a check does.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout + p.stderr)
        raise SystemExit(f"run with seed {seed} failed (exit {p.returncode})")
    for line in lines:
        if line.startswith("# host:"):
            print(f"seed {seed}: {line[2:]}", file=sys.stderr, flush=True)
    res = json.loads(lines[-1])
    if not res["correct"]:
        raise SystemExit(f"run with seed {seed} reported correct=false")
    return {k: v["value"] for k, v in res["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--compare")
    ap.add_argument("--save")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    defs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    runs = []
    for i in range(args.runs):
        runs.append(run_once(args.workload, args.seed0 + i, seconds, args.trace))
        print(f"run {i + 1}/{args.runs} done", file=sys.stderr, flush=True)
    if args.save:
        json.dump(runs, open(args.save, "w"))

    earlier = json.load(open(args.compare)) if args.compare else None
    ok = True
    print(f"{'metric':34} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8} {'bound':>6}  check")
    for name in runs[0]:
        vals = [r[name] for r in runs]
        q1, med, q3, sp = spread(vals)
        m = defs.get(name, {})
        bound = m.get("bound")
        notes = []
        if bound is not None and name != "setup_s" and sp > bound:
            notes.append("SPREAD > BOUND")
            ok = False
        elif bound is not None and name != "setup_s" and sp > bound / 3:
            notes.append("spread > bound/3")
        if earlier and bound is not None:
            prev = statistics.median(r[name] for r in earlier)
            worse = (med - prev) / prev if m["better"] == "lower" else (prev - med) / prev
            notes.append(f"vs earlier {worse:+.3f}")
            if worse > bound:
                notes.append("WORSE THAN BOUND")
                ok = False
        b = f"{bound:.3f}" if bound is not None else "-"
        print(f"{name:34} {q1:12.4f} {med:12.4f} {q3:12.4f} {sp:8.4f} {b:>6}  {' '.join(notes)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
