#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of an ssba source tree:

    python3 perfbench/run.py --workload agree-n61 --seed 111 --seconds 15 --trace 0

The executable is built with dune in the release profile (the dev profile's
-opaque runs about 25% slower) into $CARGO_TARGET_DIR, or .bench_build when
that is unset, with dune's shared cache off so nothing is written outside
the tree. Build output goes to stderr; the last line of stdout is the
benchmark's JSON result. With --trace 1 the coarse spans are written next
to the build as spans-<workload>-<seed>.jsonl.
"""

import argparse
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfbench: run from the root of an ssba source tree "
                 "(no dune-project and lib/ here)")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = ["dune", "build", "--root", ".", "--build-dir", build_dir,
             "--profile", "release", "--cache", "disabled",
             "./perfbench/main.exe"]
    try:
        done = subprocess.run(build, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: build timed out")
    if done.returncode != 0:
        sys.exit("perfbench: build failed")

    exe = os.path.join(build_dir, "default", "perfbench", "main.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--manifest", "BENCHMARK.json"]
    if args.trace == 1:
        cmd += ["--spans", os.path.join(
            build_dir, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
