#!/usr/bin/env python3
"""Serving benchmark entry point.

Builds the shipped server (`irs-cli`) and the load generator
(`perfbench/`, a crate of its own) from source, then runs one workload:

    python3 perfbench/run.py --workload read-wide --seed 1 --seconds 8 --trace 0

The last line of standard output is the run's JSON result. Build output
goes to standard error. Run it from the repository root.

Repeat mode runs one workload in two alternated sets of runs of one
build (A, B, A, B, ...) and prints, per metric and set, the median,
quartiles, (max - min) / median and the quartile spread, plus how far
set B's median moved from set A's, against the bounds in
BENCHMARK.json:

    python3 perfbench/run.py --workload ingest --seconds 8 --trace 0 --repeat 5
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target_dir):
    """Builds both binaries in release mode; returns their paths."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for manifest, extra in (
        (os.path.join(ROOT, "Cargo.toml"), ["--bin", "irs-cli"]),
        (os.path.join(HERE, "Cargo.toml"), []),
    ):
        cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest] + extra
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target_dir, "release")
    return os.path.join(release, "irs-cli"), os.path.join(release, "irs-perfbench")


def git_rev():
    """The checkout's commit, or "none" outside a git work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT,
            env=dict(os.environ, GIT_DIR=os.path.join(ROOT, ".git")),
            capture_output=True,
            text=True,
        )
    except OSError:
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def run_once(bench, server, args, seed, echo):
    cmd = [
        bench,
        "--workload", args.workload,
        "--seed", str(seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--server", server,
        "--work", os.path.join(ROOT, ".bench_runs"),
        "--rev", git_rev(),
    ]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if echo:
        sys.stdout.write(done.stdout)
    else:
        sys.stderr.write(done.stdout)
    if done.returncode != 0:
        return done.returncode, None
    return 0, json.loads(done.stdout.strip().splitlines()[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (max(values) - min(values)) / med, (q3 - q1) / med


def repeat(bench, server, args):
    bounds = {}
    spec = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(spec):
        with open(spec) as f:
            data = json.load(f)
        bounds = {m["name"]: (m["bound"], m["better"]) for m in data.get("end_to_end", [])}
    sets = {"A": [], "B": []}
    for i in range(args.repeat):
        for name in ("A", "B") if i % 2 == 0 else ("B", "A"):
            seed = args.seed + 2 * i + (0 if name == "A" else 1)
            code, result = run_once(bench, server, args, seed, echo=False)
            if result is None or not result["correct"] or result["failed"]:
                sys.exit(f"run with seed {seed} failed (exit {code})")
            sets[name].append(result)
            print(f"set {name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    print("metric: set median q1 q3 range/median iqr/median | B vs A (bound)")
    for metric in sets["A"][0]["metrics"]:
        meds = {}
        for name, runs in sets.items():
            vals = [r["metrics"][metric]["value"] for r in runs]
            med, q1, q3, rng, iqr = summary(vals)
            meds[name] = med
            print(f"{metric}: {name} {med:.6g} {q1:.6g} {q3:.6g} {rng:.3f} {iqr:.3f}")
        bound, better = bounds.get(metric, (None, "lower"))
        shift = (meds["B"] - meds["A"]) / meds["A"]
        worse = shift if better == "lower" else -shift
        verdict = "" if bound is None else (" ok" if worse <= bound else " OUT OF BOUND")
        print(f"{metric}: B vs A {shift:+.3f} (bound {bound}){verdict}")
    print("all runs: metric median iqr/median")
    for metric in sets["A"][0]["metrics"]:
        vals = [r["metrics"][metric]["value"] for runs in sets.values() for r in runs]
        med, _, _, _, iqr = summary(vals)
        bound, _ = bounds.get(metric, (None, None))
        flag = "" if bound is None or iqr <= bound else " SPREAD OVER BOUND"
        print(f"{metric}: {med:.6g} {iqr:.3f} (bound {bound}){flag}")
    failed = {n: sum(r["failed"] for r in runs) for n, runs in sets.items()}
    attempted = {n: sum(r["attempted"] for r in runs) for n, runs in sets.items()}
    print(f"failed/attempted: A {failed['A']}/{attempted['A']}, B {failed['B']}/{attempted['B']}")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=8)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0,
                   help="run two alternated sets of this many runs each")
    args = p.parse_args()
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    server, bench = build(os.path.abspath(target))
    if args.repeat:
        repeat(bench, server, args)
        return 0
    code, _ = run_once(bench, server, args, args.seed, echo=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
