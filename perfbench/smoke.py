#!/usr/bin/env python3
"""Smoke test of the campaign benchmark itself, at a tiny budget.

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json, and the supplementary sequential
workloads, it checks that
  * every end-to-end metric (--trace 0) and every per-layer metric
    (--trace 1) prints with its unit;
  * the deterministic figures repeat exactly for one seed: execs_to_cov, the
    coverage percentages, vm.dispatches_per_iter and every campaign's
    fingerprints, between two untraced runs, two traced runs, and between
    traced and untraced runs;
  * a deliberately corrupted replay is reported as a failure (exit code not
    0, "correct": false);
and that the benchmark refuses to run, without a result, in a directory that
holds only BENCHMARK.json and perfbench/. Exits 1 on the first failed check.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# 4000 executions give the lane engines two barriers, so periodic checkpoints
# are written.
TINY = ["--execs", "4000", "--seeds-per-model", "2", "--seconds", "1", "--setup-reps", "3"]
DETERMINISTIC = ["execs_to_cov", "decision_pct", "condition_pct", "mcdc_pct"]
SUPPLEMENTARY = ["roster-seq", "roster-short"]


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def run(workload, trace, details, *extra, cwd=ROOT, expect_ok=True):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--trace", str(trace), "--details", details, *TINY, *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if expect_ok and proc.returncode != 0:
        fail(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    return proc.returncode, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None)


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    work = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "smoke")
    os.makedirs(work, exist_ok=True)
    names =[w["name"] for w in bench["workloads"]]
    for w in names + [n for n in SUPPLEMENTARY if n not in names]:
        runs = {}
        for label, trace in (("a", 0), ("b", 0), ("ta", 1), ("tb", 1)):
            path = os.path.join(work, f"{w}-{label}.json")
            _, result = run(w, trace, path)
            if not result or set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{w}: last stdout line is not the result object")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                fail(f"{w} trace={trace}: {result}")
            wanted = bench["per_layer" if trace else "end_to_end"]
            for m in wanted:
                got = result["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    fail(f"{w} trace={trace}: metric {m['name']} missing or wrong unit: {got}")
            runs[label] = (result, json.load(open(path)))
        a, b = runs["a"][1], runs["b"][1]
        for name in DETERMINISTIC:
            if a["end_to_end"][name] != b["end_to_end"][name]:
                fail(f"{w}: {name} differs between runs of one seed")
        if runs["ta"][0]["metrics"]["vm.dispatches_per_iter"] != \
                runs["tb"][0]["metrics"]["vm.dispatches_per_iter"]:
            fail(f"{w}: vm.dispatches_per_iter differs between traced runs of one seed")
        ids = {label: [c["identity"] for c in d["campaigns"]] for label, (_, d) in runs.items()}
        if len({json.dumps(v) for v in ids.values()}) != 1:
            fail(f"{w}: campaign fingerprints differ between runs (traced or not) of one seed")
        code, result = run(w, 0, os.path.join(work, f"{w}-corrupt.json"), "--corrupt-replay",
                           expect_ok=False)
        if code == 0 or result is None or result["correct"] or result["failed"] < 1:
            fail(f"{w}: corrupted replay not reported (exit {code}, {result})")
        print(f"ok  {w}: metrics, units, determinism, corrupted-replay detection")

    # A directory with only the benchmark's own files cannot build the program.
    bare = os.path.join(work, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "roster-seq",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, env=env, timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("ok  bare directory refused without a result")
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
