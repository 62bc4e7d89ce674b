#!/usr/bin/env python3
"""Interleaved A/B of the repository benchmark: a base revision against
the working tree.

    python3 scripts/perf_ab.py BASE [--pairs 4] [--seconds 20] \
        [--workloads fleet-zipf,fleet-sessions] [--layers]

Run from the root of a checkout.  BASE is any git revision; its files
are exported with `git archive` into .bench_build/perf_ab (in
.gitignore).  Each side is built through its own perfbench/run.py into
a separate target directory ($CARGO_TARGET_DIR), so the two builds
never share objects.

Per workload, pair i (i = 1..N) runs both sides with --seed i, one
after the other; the side that runs first alternates between pairs so
a drift of the host's speed does not favour either side.  The report
gives, per end-to-end metric, the median of each side, the base's
quartiles (a gain must exceed their distance), the median change/base
ratio and its range over the pairs, and how many pairs the change won.

With --layers, each workload then gets one traced run per side
(--trace 1, 4 s, seed 1).  It prints the machine layer's host cost per
side and checks that every simulated-time metric (sim.*) is identical
on both sides.  --pairs 0 runs only these.

Exit status: 0 when every run succeeded, 1 when a run failed or
reported a wrong answer or a simulated-time metric differed, 2 on a
usage error.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

METRICS = (
    ("setup_s", "lower"),
    ("throughput_qps", "higher"),
    ("latency_p50_ms", "lower"),
    ("cpu_ms_per_query", "lower"),
    ("sim_ms_per_query", "lower"),
    ("peak_rss_mb", "lower"),
)

LAYER_METRICS = ("machine.events_per_query", "machine.run_ms_p50",
                 "machine.ns_per_event")
LAYER_SECONDS = 4


def export_base(root, rev, dest):
    """Write the files of @p rev into @p dest (replacing it)."""
    if os.path.exists(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", root, "archive", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                   check=True)
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {rev} failed")


def run_side(checkout, target, workload, seed, seconds, trace=0):
    """One benchmark run; returns its parsed JSON result."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited "
                           f"{proc.returncode}")
    result = json.loads(lines[-1])
    if not result.get("correct") or result.get("failed", 0) != 0:
        raise RuntimeError(f"{checkout}: {workload} seed {seed}: wrong "
                           f"answers or failed requests")
    return result


def value(result, name):
    return result["metrics"][name]["value"]


def fmt(v):
    return f"{v:10.0f}" if abs(v) >= 1000 else f"{v:10.4g}"


def report(workload, pairs):
    print(f"\n{workload}: {len(pairs)} interleaved pairs "
          f"(base -> change, median; base quartiles; change/base "
          f"ratio median [min..max]; pairs won)")
    for name, better in METRICS:
        base = [value(b, name) for b, _ in pairs]
        change = [value(c, name) for _, c in pairs]
        ratios = [c / b if b else float("nan")
                  for b, c in zip(base, change)]
        won = sum((c > b) if better == "higher" else (c < b)
                  for b, c in zip(base, change))
        q1, _, q3 = (statistics.quantiles(base, n=4)
                     if len(base) > 1 else (base[0],) * 3)
        print(f"  {name:18s} {fmt(statistics.median(base))} -> "
              f"{fmt(statistics.median(change))}   "
              f"[{fmt(q1).strip()}..{fmt(q3).strip()}]   "
              f"x{statistics.median(ratios):.3f} "
              f"[{min(ratios):.3f}..{max(ratios):.3f}]   "
              f"{won}/{len(pairs)}")


def report_layers(workload, base, change):
    """Print the machine layer per side; return the names of the
    simulated-time metrics whose values differ."""
    print(f"\n{workload}: traced seed 1, {LAYER_SECONDS} s (base -> "
          f"change)")
    for name in LAYER_METRICS:
        b, c = value(base, name), value(change, name)
        ratio = f"x{c / b:.3f}" if b else ""
        print(f"  {name:26s} {fmt(b)} -> {fmt(c)}   {ratio}")
    sim = sorted(n for n in set(base["metrics"]) | set(change["metrics"])
                 if n.startswith("sim."))
    differ = [n for n in sim
              if base["metrics"].get(n) != change["metrics"].get(n)]
    print(f"  simulated-time metrics: {len(sim) - len(differ)} of "
          f"{len(sim)} identical" +
          (f"; DIFFER: {', '.join(differ)}" if differ else ""))
    return differ


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="git revision to compare against")
    ap.add_argument("--pairs", type=int, default=4)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--workloads", default="fleet-zipf,fleet-sessions")
    ap.add_argument("--layers", action="store_true",
                    help="add one traced run per side per workload")
    args = ap.parse_args()
    if args.pairs < (0 if args.layers else 1) or args.seconds < 1:
        ap.error("--pairs and --seconds must be >= 1 "
                 "(--pairs 0 only with --layers)")

    root = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                          stdout=subprocess.PIPE, text=True,
                          check=True).stdout.strip()
    work = os.path.join(root, ".bench_build", "perf_ab")
    base_tree = os.path.join(work, "base")
    sides = {
        "base": (base_tree, os.path.join(work, "target-base")),
        "change": (root, os.path.join(work, "target-change")),
    }
    sim_differs = False
    try:
        export_base(root, args.base, base_tree)
        for workload in args.workloads.split(","):
            # A 1 s run per side builds it and checks that it answers.
            for checkout, target in sides.values():
                run_side(checkout, target, workload, 1, 1)
            pairs = []
            for seed in range(1, args.pairs + 1):
                order = ("base", "change") if seed % 2 else \
                        ("change", "base")
                got = {}
                for side in order:
                    checkout, target = sides[side]
                    got[side] = run_side(checkout, target, workload,
                                         seed, args.seconds)
                    print(f"{workload} seed {seed} {side}: "
                          f"{value(got[side], 'throughput_qps'):.0f} "
                          f"req/s", file=sys.stderr)
                pairs.append((got["base"], got["change"]))
            if pairs:
                report(workload, pairs)
            if args.layers:
                traced = {side: run_side(checkout, target, workload, 1,
                                         LAYER_SECONDS, trace=1)
                          for side, (checkout, target) in sides.items()}
                if report_layers(workload, traced["base"],
                                 traced["change"]):
                    sim_differs = True
    except (RuntimeError, subprocess.CalledProcessError, OSError,
            ValueError, KeyError) as e:
        print(f"perf_ab.py: {e}", file=sys.stderr)
        return 1
    return 1 if sim_differs else 0


if __name__ == "__main__":
    sys.exit(main())
