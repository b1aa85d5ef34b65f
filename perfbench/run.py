#!/usr/bin/env python3
"""Build and run the hash file's benchmark.

One run (the form BENCHMARK.json's command takes):

    python3 perfbench/run.py --workload mem-read --seed 1 --seconds 30 --trace 0

builds `ceh` (the repository's own workspace) and the benchmark package
in this directory, runs one workload from the seed, and prints two JSON
lines: the run's facts (environment, sample counts, ratio bases), then
the result with `correct`, `attempted`, `failed` and `metrics`. A wrong
result or any error exits non-zero without a result line.

Repeat mode runs one workload N times on one build, with seeds
seed .. seed+N-1, and prints each metric's median and quartile spread:

    python3 perfbench/run.py --workload tcp-churn --seed 1 --seconds 30 --repeat 10

Every process the benchmark starts runs in its own process group, which
is killed and waited for on every exit path. Build output goes to
$CARGO_TARGET_DIR (default .bench_build at the repository root), run
files to perfbench/work.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mem-read", "mem-churn", "tcp-churn")
# One run must end within 180 s; this leaves room to stop and clean up.
RUN_TIMEOUT_S = 170


def target_dir():
    # Cargo reads a relative CARGO_TARGET_DIR against its working directory;
    # both builds below run elsewhere, so fix it against this one.
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    """Build `ceh` with the repository's settings and the benchmark with its own."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    steps = [
        (["cargo", "build", "--release", "--offline", "-q", "-p", "ceh-cli", "--bin", "ceh"], ROOT),
        (["cargo", "build", "--release", "--offline", "-q"], HERE),
    ]
    for cmd, cwd in steps:
        if not os.path.isfile(os.path.join(cwd, "Cargo.toml")):
            sys.exit(f"run.py: no Cargo.toml in {cwd}: run from a checkout of the repository")
        done = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"run.py: build failed: {' '.join(cmd)}")
    return os.path.join(target_dir(), "release")


def stop_group(pgid):
    """Kill every process of group `pgid` and wait until none is left."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_once(bins, workload, seed, seconds, trace):
    """Run the benchmark once; return its stdout lines, or exit on failure."""
    cmd = [
        os.path.join(bins, "perfbench"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--ceh", os.path.join(bins, "ceh"),
        "--work", os.path.join(HERE, "work"),
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {workload} seed {seed} did not finish in {RUN_TIMEOUT_S} s")
    finally:
        stop_group(proc.pid)
        proc.wait()
    if proc.returncode != 0:
        sys.exit(f"run.py: {workload} seed {seed} failed (exit {proc.returncode})")
    lines = out.strip().splitlines()
    if len(lines) < 2:
        sys.exit("run.py: the benchmark printed no result")
    return lines


def spread(values):
    """Median, quartiles and (q3 - q1) / median, as statistics.quantiles gives them."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def repeat(bins, args):
    runs = []
    for i in range(args.repeat):
        lines = run_once(bins, args.workload, args.seed + i, args.seconds, args.trace)
        result = json.loads(lines[-1])
        runs.append(result)
        print(json.dumps({"seed": args.seed + i, "facts": json.loads(lines[-2]), "result": result}),
              file=sys.stderr, flush=True)
    names = sorted(runs[0]["metrics"])
    summary = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        summary[name] = dict(spread(values), unit=runs[0]["metrics"][name]["unit"], values=values)
        s = summary[name]
        print(f"{name:34} median {s['median']:14.6g} {s['unit']:6} "
              f"q1 {s['q1']:12.6g} q3 {s['q3']:12.6g} spread {s['spread']:7.2%}")
    print(json.dumps({"workload": args.workload, "runs": len(runs), "metrics": summary}))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0,
                   help="run N times with consecutive seeds and print each metric's spread")
    args = p.parse_args()
    # A termination request unwinds through the finally blocks that stop
    # the benchmark's processes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("run.py: terminated"))
    bins = build()
    if args.repeat:
        if args.repeat < 2:
            sys.exit("run.py: --repeat needs at least 2 runs")
        repeat(bins, args)
    else:
        for line in run_once(bins, args.workload, args.seed, args.seconds, args.trace):
            print(line)


if __name__ == "__main__":
    main()
