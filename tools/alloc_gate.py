#!/usr/bin/env python3
"""Gate minor-heap allocation per benchmark op against committed values.

Run from the root of an ssba source tree:

    python3 tools/alloc_gate.py            # check; exit 1 on a move > 1%
    python3 tools/alloc_gate.py --update   # rewrite the file with new values

For each workload listed in tools/alloc_gate.txt this runs
`python3 perfbench/run.py --workload W --seed S --seconds 2 --trace 0` and
reads `minor_words_per_op` from its JSON result. Allocation is
deterministic for a fixed seed: the value does not depend on the run length
or on the host's speed, only on the code and the compiler. The check fails
when a value moves by more than 1% in either direction (a fall means the
file is stale and should be updated with the change that caused it) and
prints the new value.

The file records the OCaml version its values were measured with, then one
line per workload: its name, seed and value. Another compiler allocates
differently, so under any other OCaml version the check skips and says so.
"""

import argparse
import json
import os
import subprocess
import sys

VALUES = os.path.join("tools", "alloc_gate.txt")
TOLERANCE = 0.01
SECONDS = 2


def ocaml_version():
    return subprocess.run(["ocamlopt", "-version"], capture_output=True,
                          text=True, check=True).stdout.strip()


def load(path):
    version, rows = None, []
    with open(path) as f:
        for line in f:
            fields = line.split("#", 1)[0].split()
            if not fields:
                continue
            if fields[0] == "ocaml":
                version = fields[1]
            else:
                rows.append((fields[0], int(fields[1]), float(fields[2])))
    if version is None or not rows:
        sys.exit("alloc_gate: %s needs an `ocaml` line and workload lines"
                 % path)
    return version, rows


def measure(workload, seed):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("alloc_gate: %s seed %d: run failed" % (workload, seed))
    result = json.loads(lines[-1])
    if not result.get("correct"):
        sys.exit("alloc_gate: %s seed %d: \"correct\": false"
                 % (workload, seed))
    return result["metrics"]["minor_words_per_op"]["value"]


def write(path, version, rows):
    with open(path, "w") as f:
        f.write("# minor_words_per_op of perfbench's release build at a fixed"
                " seed.\n# Checked and rewritten by tools/alloc_gate.py.\n")
        f.write("ocaml %s\n" % version)
        for workload, seed, value in rows:
            f.write("%s %d %s\n" % (workload, seed, "%.15g" % value))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite %s with the measured values" % VALUES)
    args = parser.parse_args()
    if not (os.path.isfile("dune-project") and os.path.isfile(VALUES)):
        sys.exit("alloc_gate: run from the root of an ssba source tree")

    recorded, rows = load(VALUES)
    here = ocaml_version()
    if here != recorded and not args.update:
        print("alloc_gate: skipped: OCaml %s here, %s records OCaml %s"
              % (here, VALUES, recorded))
        return

    failed = 0
    measured = []
    for workload, seed, old in rows:
        new = measure(workload, seed)
        measured.append((workload, seed, new))
        move = (new - old) / old if old else float("inf")
        bad = abs(move) > TOLERANCE
        failed += bad
        print("%-13s seed %-4d %15.2f  recorded %15.2f  %+7.3f%%  %s"
              % (workload, seed, new, old, 100.0 * move,
                 "MOVED" if bad else "ok"))

    if args.update:
        write(VALUES, here, measured)
        print("alloc_gate: wrote %s (OCaml %s)" % (VALUES, here))
    elif failed:
        sys.exit("alloc_gate: %d workload(s) moved by more than %g%%; if the"
                 " change is intended, run with --update and commit %s"
                 % (failed, 100 * TOLERANCE, VALUES))


if __name__ == "__main__":
    main()
