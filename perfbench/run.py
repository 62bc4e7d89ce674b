#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload fleet-zipf --seed 1 \
        --seconds 20 --trace 0

Run from the root of a SNAP-1 checkout.  The first run configures and
builds perfbench (and the sources it links) under the build directory
($CARGO_TARGET_DIR, default .bench_build); later runs only rebuild
what changed.  Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result.  See perfbench/metrics.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("fleet-zipf", "fleet-sessions")
RUN_TIMEOUT_S = 170


def source_digest(root):
    """Digest of every file the benchmark builds from."""
    h = hashlib.sha256()
    for top in ("src", "perfbench", "bench/bench_util.hh"):
        path = os.path.join(root, top)
        files = []
        if os.path.isfile(path):
            files = [path]
        for d, _, names in os.walk(path):
            files += [os.path.join(d, n) for n in names]
        for f in sorted(files):
            if "__pycache__" in f or f.endswith(".md"):
                continue
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def build(here, build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        gen = ["-G", "Ninja"] if subprocess.call(
            ["ninja", "--version"], stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL) == 0 else []
        subprocess.run(["cmake", "-S", here, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "snapbench", "-j", "4"],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "snapbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(root, target)
    out_dir = os.path.relpath(os.path.join(target, "perfbench-out"), root)
    build_dir = os.path.join(target, "perfbench")
    try:
        exe = build(here, build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    # Relative paths keep the unix socket names short.
    os.makedirs(os.path.join(root, out_dir), exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir, "--source-digest", source_digest(root)]
    try:
        return subprocess.run(cmd, cwd=root,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
