#!/usr/bin/env python3
"""Collects benchmark result sets: one record per (workload, seed).

    python3 benchmark/collect.py OUT [--repo DIR ...] [--seeds 1-10]
        [--workloads grid-solve,...] [--seconds 20] [--trace]

With one --repo (default: this checkout) the records go to OUT. With
several, each seed runs once per repo, alternating which goes first
(ABBA...), and repo k's records go to OUT/set<k> — the pairing
compare.py's pair rule expects. Pass the same repo twice to measure two
sets of one commit. Each run is `benchmark/run.sh` in that repo; its
record (build-bench/records/...) is copied next to the others.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["grid-solve", "sparse-100k", "serve-drift", "churn-repair"]


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_one(repo, workload, seed, seconds, trace, out_dir):
    cmd = ["bash", os.path.join(repo, "benchmark", "run.sh"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=repo, capture_output=True, text=True)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    print(f"{os.path.basename(out_dir)} {workload} seed={seed} "
          f"rc={proc.returncode} {last[0][:160]}", flush=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    name = f"{workload}-seed{seed}-trace{1 if trace else 0}.json"
    src = os.path.join(repo, "build-bench", "records", name)
    os.makedirs(out_dir, exist_ok=True)
    if os.path.exists(src):
        shutil.copy(src, os.path.join(out_dir, name))
    return proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out")
    ap.add_argument("--repo", action="append", default=[])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    repos = [os.path.abspath(r) for r in args.repo] or [os.path.dirname(HERE)]
    failures = 0
    for workload in args.workloads.split(","):
        for i, seed in enumerate(parse_seeds(args.seeds)):
            order = list(range(len(repos)))
            if i % 2 == 1:
                order.reverse()
            for k in order:
                out_dir = (os.path.join(args.out, f"set{k + 1}")
                           if len(repos) > 1 else args.out)
                failures += run_one(repos[k], workload, seed, args.seconds,
                                    args.trace, out_dir) != 0
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
