#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <compact|ragged|wire|grouped> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
iatf library and the perfbench binary (Release) under $CARGO_TARGET_DIR
(default .bench_build)/perfbench; later runs only re-check the build.
Build output goes to stderr, so the last line of stdout is the binary's
JSON result. The exit code is the binary's: non-zero on any failed or
wrong request, on a build failure, or on a timeout (3 x --seconds plus
110 s for set-up and the traced run's layer probes).
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            sys.stderr.write(res.stdout)
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["compact", "ragged", "wire", "grouped"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not build(build_dir):
        return 1
    # A relative --out-dir keeps the Unix socket path short.
    out_dir = os.path.relpath(build_dir, ROOT)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", out_dir]
    timeout_s = 110 + 3 * args.seconds
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=timeout_s).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %.0f s\n" % timeout_s)
        return 1


if __name__ == "__main__":
    sys.exit(main())
