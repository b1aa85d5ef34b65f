#!/usr/bin/env python3
"""Alternated before/after benchmark pairs, written as a BENCH_*.json file.

Runs perfbench's end-to-end workloads on two checkouts of the repository
(the parent commit and the change), one seed per pair, alternating which
side runs first every pair, and records every metric's per-side values,
median and quartiles, and how many pairs the change won:

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --parent-rev bde823b --seeds 2001-2010 --seconds 30 \\
        --what "what changed" --out BENCH_example.json

Each checkout is built once into its own target directory (under
--build-root) by perfbench/run.py, which then runs the workload; a
failing run stops the script. Better is the direction BENCHMARK.json
declares for each metric.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(checkout, build_root, side, workload, seed, seconds):
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(build_root, side))
    cmd = [
        sys.executable, os.path.join(checkout, "perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if done.returncode != 0:
        sys.exit(f"bench_pairs: {side} {workload} seed {seed} failed (exit {done.returncode})")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result.get("correct"):
        sys.exit(f"bench_pairs: {side} {workload} seed {seed} gave a wrong result")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, result["failed"]


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": round(statistics.median(values), 4),
        "q1": round(q1, 4),
        "q3": round(q3, 4),
        "values": [round(v, 4) for v in values],
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--parent-rev", required=True, help="the parent commit's id, recorded")
    ap.add_argument("--workloads", default="mem-read,mem-churn")
    ap.add_argument("--seeds", required=True, help="first-last, one pair per seed")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--what", required=True, help="what the change is, recorded")
    ap.add_argument("--host", default=f"{os.cpu_count()}-CPU {platform.machine()} host")
    ap.add_argument("--build-root", default=os.path.join(ROOT, ".bench_build", "pairs"))
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    seeds = parse_seeds(args.seeds)
    doc = {
        "what": args.what,
        "parent": args.parent_rev,
        "how": f"perfbench's binary at --seconds {args.seconds} --trace 0, one build per "
               "commit, parent and change alternated (which side runs first flips every "
               "pair), one seed per pair, seeds not used in development "
               "(scripts/bench_pairs.py)",
        "host": args.host,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        got = {"parent": [], "change": []}
        failed = {"parent": 0, "change": 0}
        for i, seed in enumerate(seeds):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                values, nfailed = run(sides[side], args.build_root, side, workload, seed,
                                      args.seconds)
                got[side].append(values)
                failed[side] += nfailed
                print(f"{workload} seed {seed} {side}: "
                      f"find_p50_us {values['find_p50_us']:.3f} "
                      f"ops_per_s {values['ops_per_s']:.0f}", file=sys.stderr)
        metrics = {}
        for name in sorted(got["parent"][0]):
            p = [v[name] for v in got["parent"]]
            c = [v[name] for v in got["change"]]
            if better.get(name) == "higher":
                wins = sum(cv > pv for pv, cv in zip(p, c))
            else:
                wins = sum(cv < pv for pv, cv in zip(p, c))
            metrics[name] = {
                "parent": summary(p),
                "change": summary(c),
                "change_wins": wins,
                "pairs": len(seeds),
            }
        doc["workloads"][workload] = {"seeds": seeds, "failed": failed, "metrics": metrics}
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
