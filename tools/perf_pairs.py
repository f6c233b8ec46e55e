#!/usr/bin/env python3
"""Compare the working tree against a git revision with interleaved benchmark pairs.

Run from the root of an ssba source tree:

    python3 tools/perf_pairs.py HEAD~1 service-soak --pairs 10 --seed-base 401

REV is exported with `git archive` into a temporary directory. Both sides'
perfbench/main.exe are built the way perfbench/run.py builds them: release
profile, dune cache off. The working tree builds into $CARGO_TARGET_DIR, or
.bench_build when that is unset; the exported tree builds inside its
temporary directory, which is removed afterwards.

Pair i runs both sides with seed S + i, for BENCHMARK.json's run_seconds and
with --trace 0; which side runs first alternates from pair to pair, so slow
drift in host load hits both sides alike. Any run whose result says
"correct": false fails the whole comparison.

For every end-to-end metric of BENCHMARK.json the summary gives each side's
median and quartiles, the ratio change/REV of the medians, how many pairs
the change wins (by the metric's "better"), and REV's spread: its quartile
distance over its median. A second table gives each pair's heap_peak_mb and
setup_s on both sides, seed by seed: heap_peak_mb can sit in one of two
modes by seed, and a mode flip on one side reads as a memory change in the
medians. Nothing is written under perfbench/.

--record FILE appends the comparison to FILE as one JSON line: REV's commit,
the commit the working tree is based on and whether it had uncommitted
changes, the workload, seeds, pairs, run length, the OCaml version, and per
metric both sides' median and quartiles, the ratio, the wins and the spread,
and per pair its seed and both sides' heap_peak_mb and setup_s. The
repository keeps these lines in perf_trajectory.jsonl.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
PER_PAIR = ("heap_peak_mb", "setup_s")


def build(root, build_dir):
    cmd = ["dune", "build", "--root", ".", "--build-dir", build_dir,
           "--profile", "release", "--cache", "disabled",
           "./perfbench/main.exe"]
    done = subprocess.run(cmd, cwd=root, stdout=sys.stderr,
                          timeout=BUILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.exit("perf_pairs: build failed in %s" % root)
    return os.path.join(root, build_dir, "default", "perfbench", "main.exe")


def run(root, exe, workload, seed, seconds):
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0",
           "--manifest", "BENCHMARK.json"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        sys.exit("perf_pairs: run failed in %s (seed %d)" % (root, seed))
    result = json.loads(lines[-1])
    if not result.get("correct"):
        sys.stderr.write(done.stderr)
        sys.exit("perf_pairs: \"correct\": false in %s (seed %d)"
                 % (root, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def git(*args):
    return subprocess.run(["git"] + list(args), capture_output=True,
                          text=True, check=True).stdout.strip()


def ocaml_version():
    try:
        return subprocess.run(["ocamlopt", "-version"], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def summarize(metrics, base, change):
    rows = []
    for m in metrics:
        name = m["name"]
        b = [r[name] for r in base]
        c = [r[name] for r in change]
        bq, cq = quartiles(b), quartiles(c)
        higher = m["better"] == "higher"
        rows.append({
            "metric": name,
            "better": m["better"],
            "base": {"median": bq[1], "q1": bq[0], "q3": bq[2]},
            "change": {"median": cq[1], "q1": cq[0], "q3": cq[2]},
            "ratio": cq[1] / bq[1] if bq[1] else None,
            "wins": sum(1 for x, y in zip(b, c)
                        if (y > x if higher else y < x)),
            "spread": (bq[2] - bq[0]) / bq[1] if bq[1] else None,
        })
    return rows


def per_pair(seeds, base, change):
    return [{"seed": seed,
             "base": {m: b.get(m) for m in PER_PAIR},
             "change": {m: c.get(m) for m in PER_PAIR}}
            for seed, b, c in zip(seeds, base, change)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the git revision to compare against")
    parser.add_argument("workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--record", metavar="FILE",
                        help="append the comparison to FILE as a JSON line")
    args = parser.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isfile("BENCHMARK.json")):
        sys.exit("perf_pairs: run from the root of an ssba source tree")
    with open("BENCHMARK.json") as f:
        manifest = json.load(f)
    if args.workload not in [w["name"] for w in manifest["workloads"]]:
        sys.exit("perf_pairs: unknown workload %s" % args.workload)
    seconds = manifest["run_seconds"]
    metrics = manifest["end_to_end"]

    here = os.getcwd()
    base_commit = git("rev-parse", args.rev)
    tmp = tempfile.mkdtemp(prefix="perf_pairs-")
    try:
        archive = subprocess.run(["git", "archive", args.rev],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        exe_change = build(here, os.environ.get("CARGO_TARGET_DIR")
                           or ".bench_build")
        exe_base = build(tmp, ".bench_build")

        base, change = [], []
        for i in range(args.pairs):
            seed = args.seed_base + i
            sides = [("base", tmp, exe_base), ("change", here, exe_change)]
            if i % 2 == 1:
                sides.reverse()
            for name, root, exe in sides:
                r = run(root, exe, args.workload, seed, seconds)
                (base if name == "base" else change).append(r)
            sys.stderr.write("pair %d/%d seed %d (%s first): %s\n" % (
                i + 1, args.pairs, seed, sides[0][0], "  ".join(
                    "%s %.4g -> %.4g" % (m["name"], base[-1][m["name"]],
                                         change[-1][m["name"]])
                    for m in metrics[:2])))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print("%s: %d pairs, seeds %d-%d, %ds runs, %s vs working tree" % (
        args.workload, args.pairs, args.seed_base,
        args.seed_base + args.pairs - 1, seconds, args.rev))
    print("%-20s %-40s %-40s %8s %6s %8s" % (
        "metric", "base median [q1-q3]", "change median [q1-q3]", "ratio",
        "wins", "spread"))
    rows = summarize(metrics, base, change)
    nan = float("nan")
    for row in rows:
        bq, cq = row["base"], row["change"]
        print("%-20s %-40s %-40s %8.4f %3d/%-2d %8.3f" % (
            row["metric"],
            "%.6g [%.6g-%.6g]" % (bq["median"], bq["q1"], bq["q3"]),
            "%.6g [%.6g-%.6g]" % (cq["median"], cq["q1"], cq["q3"]),
            nan if row["ratio"] is None else row["ratio"], row["wins"],
            args.pairs, nan if row["spread"] is None else row["spread"]))

    seeds = [args.seed_base + i for i in range(args.pairs)]
    pairs = per_pair(seeds, base, change)
    print("%-8s %-24s %-24s" % ("seed", "heap_peak_mb base/change",
                                "setup_s base/change"))
    for p in pairs:
        print("%-8d %-24s %-24s" % (p["seed"], "%.2f / %.2f" % (
            p["base"]["heap_peak_mb"], p["change"]["heap_peak_mb"]),
            "%.4f / %.4f" % (p["base"]["setup_s"], p["change"]["setup_s"])))

    if args.record:
        line = {
            "rev": base_commit,
            "head": git("rev-parse", "HEAD"),
            "dirty": git("status", "--porcelain", "--untracked-files=no") != "",
            "workload": args.workload,
            "seeds": [args.seed_base, args.seed_base + args.pairs - 1],
            "pairs": args.pairs,
            "run_seconds": seconds,
            "ocaml": ocaml_version(),
            "metrics": rows,
            "per_pair": pairs,
        }
        with open(args.record, "a") as f:
            f.write(json.dumps(line, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
