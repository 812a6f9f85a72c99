#!/usr/bin/env python3
"""Steadiness check: run each workload k times per set, with a new seed each
run, and say whether the figures are steady enough for BENCHMARK.json.

    python3 perfbench/steady.py --runs 10 --sets 2 [--workloads roster-seq,...]
                                [--seconds S] [--first-seed 1] [--out FILE]

For every end-to-end metric it prints the sample count, median, quartiles
(statistics.quantiles(values, n=4)) and the quartile spread as a share of
the median. A metric is steady when that spread is within its bound from
BENCHMARK.json (setup_s excepted) and, with two or more sets, when no later
set's median is worse than the first set's by more than the bound. Exits 1
when any check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"{workload} seed {seed}: correctness check failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def worse_by(first, later, better):
    change = (later - first) / first
    return change if better == "lower" else -change


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", help="write every sample and summary as JSON")
    args = ap.parse_args()
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    ok = True
    report = {}
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            samples = []
            for i in range(args.runs):
                seed = args.first_seed + s * args.runs + i
                samples.append(run_once(workload, seed, args.seconds, 0))
                print(f"  {workload} set {s} seed {seed} done", file=sys.stderr, flush=True)
            sets.append(samples)
        print(f"== {workload}: {args.sets} set(s) x {args.runs} runs, {args.seconds}s each")
        print(f"  {'metric':<16} {'set':>3} {'n':>3} {'median':>14} {'q1':>14} {'q3':>14}"
              f" {'spread':>8} {'bound':>6}  verdict")
        report[workload] = {}
        for name, m in metrics.items():
            sums = [summarize([r[name] for r in samples]) for samples in sets]
            report[workload][name] = {"sets": sums, "samples": [[r[name] for r in samples]
                                                                 for samples in sets]}
            for s, st in enumerate(sums):
                verdict = "ok"
                if name != "setup_s" and st["spread"] > m["bound"]:
                    verdict, ok = "SPREAD", False
                elif name != "setup_s" and st["spread"] > m["bound"] / 3:
                    verdict = "ok (above a third of the bound)"
                if s > 0:
                    drift = worse_by(sums[0]["median"], st["median"], m["better"])
                    if drift > m["bound"]:
                        verdict, ok = f"DRIFT {drift:+.3f}", False
                    else:
                        verdict += f", agrees with set 0 ({drift:+.3f})"
                print(f"  {name:<16} {s:>3} {st['n']:>3} {st['median']:>14.6g} {st['q1']:>14.6g}"
                      f" {st['q3']:>14.6g} {st['spread']:>8.4f} {m['bound']:>6}  {verdict}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
