#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 examples/perfbench/run.py --workload mail_local --seed 1 --seconds 10 --trace 0

It builds examples/perfbench/main.exe with dune (the first run builds the
whole simulator from source), runs one workload, forwards its report and
exits with the benchmark's exit code.  The last line printed is the JSON
result.  Traced runs (--trace 1) also write their spans under
perfbench-out/.
"""

import argparse
import os
import shutil
import subprocess
import sys

TARGET = "examples/perfbench/main.exe"
WORKLOADS = ("mail_local", "patch_nfs", "history_query")
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of a repository checkout "
              "(dune-project and lib/ not found)", file=sys.stderr)
        return 2
    dune = shutil.which("dune")
    if dune is None:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return 2
    build = subprocess.run([dune, "build", "--root", ".", "--display", "quiet", "./" + TARGET],
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        print("perfbench: build failed", file=sys.stderr)
        return 2

    os.makedirs("perfbench-out", exist_ok=True)
    trace_file = os.path.join("perfbench-out", "trace-%s-%d.tsv" % (args.workload, args.seed))
    cmd = [os.path.join("_build", "default", TARGET), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--trace-file", trace_file]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
