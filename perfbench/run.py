#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds N --trace 0|1

Run from the root of a checkout. The first run configures and builds
perfbench/ (the verifier libraries from src/ plus the benchmark binary) in
Release under $CARGO_TARGET_DIR (default .bench_build)/perfbench; later
runs only rebuild what changed. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. Arguments are passed to the
binary unchanged, which validates them (bad ones exit 2). With --trace 1
the spans are written to <build>/spans/<workload>-<seed>.jsonl.
"""

import os
import re
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))

    steps = []
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "--target", "rcfg_perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1

    args = sys.argv[1:]
    opts = dict(zip(args[::2], args[1::2]))
    if opts.get("--trace") == "1":
        tag = "%s-%s" % (opts.get("--workload", ""), opts.get("--seed", ""))
        if re.fullmatch(r"[A-Za-z0-9_.-]+", tag):
            spans = os.path.join(build, "spans")
            os.makedirs(spans, exist_ok=True)
            args += ["--spans", os.path.join(spans, tag + ".jsonl")]
    sys.stdout.flush()
    return subprocess.run([os.path.join(build, "rcfg_perfbench")] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
