#!/usr/bin/env python3
"""Benchmark of record for the replay stack.

Builds specbench (this directory's CMake package, which builds the
library from the repository's sources), runs one workload in a fresh
process, prints a readable report, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones, and the traced replays' spans are written under the build
directory. See NOTES.md for the workloads and what each metric means.

Usage (from the repository root):
    python3 specbench/run.py --workload replay-markov --seed 2001 \
        --seconds 20 --trace 0
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("replay-markov", "fleet-ppm", "flash-open")
END_TO_END = ("req_per_s", "setup_s", "peak_rss_mb", "sim.access_time_s",
              "sim.load_per_request")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "specbench")


def build(out_dir):
    """Configures (once) and builds the benchmark; output goes to stderr."""
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out_dir, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", out_dir, "-j", str(min(4, os.cpu_count() or 1))]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def git_provenance():
    """Commit and dirty flag, only when the checkout itself is a git repo."""
    if not os.path.exists(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return {"git_sha": "unavailable", "git_dirty": "unavailable"}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))

    def git(*args):
        r = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                           text=True, env=env)
        return r.stdout.strip() if r.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"git_sha": sha or "unavailable",
            "git_dirty": "unavailable" if status is None else bool(status)}


def fmt(value):
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report(out, trace):
    prov = out["provenance"]
    print(f"# specbench {out['workload']}  seed {prov['seed']:.0f}")
    print("provenance: " + ", ".join(f"{k}={fmt(v)}" for k, v in prov.items()))
    print("params: " + ", ".join(f"{k}={fmt(v)}" for k, v in out["params"].items()))
    rows = out["per_layer"] if trace else out["end_to_end"]
    title = "per-layer (traced pass)" if trace else "end-to-end (untraced)"
    print(f"{title}:")
    for name, m in rows.items():
        print(f"  {name:<32} {fmt(m['value']):>14} {m['unit']}")
    if trace:
        print("  (des.self_ns_per_event is run_until time minus its "
              "handle_request children,")
        print("   so it includes the PS link's completion callbacks)")
    samples = out["samples"]
    print(f"samples: {len(samples['replay_wall_s'])} untraced replays, "
          f"wall s {samples['replay_wall_s']}; setup s {samples['setup_s']}")
    bad = [k for k, v in out["checks"].items() if not v["ok"]]
    print(f"checks: {out['attempted']:.0f} replays checked, "
          f"{out['failed']:.0f} failed{': ' + ', '.join(bad) if bad else ''}")
    print(f"fingerprint {out['fingerprint']}  layer checksum "
          f"{out['layer_checksum']}  spans {out['spans']:.0f}"
          f" (dropped {out['spans_dropped']:.0f})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2001)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = build_dir()
    if not build(out_dir):
        log("specbench: build failed")
        return 1
    data_dir = os.path.join(out_dir, "data")
    os.makedirs(data_dir, exist_ok=True)
    cmd = [os.path.join(out_dir, "specbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--data-dir", data_dir]
    if args.trace:
        spans_dir = os.path.join(out_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"specbench: {args.workload} exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = run.stdout.strip().splitlines()
    if not lines:
        log(f"specbench: no output (exit code {run.returncode})")
        return 1
    out = json.loads(lines[-1])
    out["provenance"].update(git_provenance())
    report(out, args.trace)

    source = out["per_layer"] if args.trace else out["end_to_end"]
    names = source.keys() if args.trace else END_TO_END
    metrics = {n: {"value": source[n]["value"], "unit": source[n]["unit"]}
               for n in names}
    failed = int(out["failed"])
    correct = run.returncode == 0 and failed == 0
    print(json.dumps({"correct": correct, "attempted": int(out["attempted"]),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
