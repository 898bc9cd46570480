#!/usr/bin/env python3
"""A/B host-CPU comparison of two perfbench_workload binaries.

    python3 bench/ab_host_cpu.py --parent A/perfbench_workload \\
        --change B/perfbench_workload --workload store_commit \\
        --seeds 100 101 102 103 104 [--pairs 10] [--metric measured_s]

Build each binary from its own checkout, e.g. with
`python3 perfbench/run.py --workload store_commit --seconds 1`, which leaves
it at `.bench_build/perfbench/perfbench_workload`.

Runs --pairs (at least 10) pairs of one parent run and one change run on the
same seed, cycling through --seeds, and alternates which side goes first so
that drift in the host's load hits both sides alike. Every pair must agree
byte for byte on everything the run reports on the simulated clock (digest,
ops, derived, sim, both registry snapshots); one that does not, or a run
that fails, stops the script with exit status 1.

For the host metric (a key of the run's `host` object, lower is better;
`measured_s` is the per-run value behind the benchmark's `host_cpu_s`) it
prints every pair, each side's median and quartiles, and the share of pairs
the change won (ties count for neither side). A gain is claimed only when the change won
at least nine tenths of the pairs and the medians differ by more than the
parent's interquartile distance. The last line is one JSON object.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIM_KEYS = ("digest", "ops", "derived", "sim", "registry_before", "registry_after")
MIN_PAIRS = 10


def run_once(binary, workload, seed, out):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--out", str(out)]
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0 or not out.exists():
        sys.exit(f"{binary} --seed {seed} failed with status {proc.returncode}:\n"
                 f"{proc.stderr[-2000:]}")
    with open(out) as f:
        result = json.load(f)
    out.unlink()
    return result


def sim_clock(result):
    return json.dumps({k: result[k] for k in SIM_KEYS}, sort_keys=True, separators=(",", ":"))


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path, help="baseline perfbench_workload")
    ap.add_argument("--change", required=True, type=Path, help="changed perfbench_workload")
    ap.add_argument("--workload", required=True,
                    choices=("social_read", "social_write", "store_commit"))
    ap.add_argument("--seeds", required=True, type=int, nargs="+", help="run seeds, cycled")
    ap.add_argument("--pairs", type=int, default=MIN_PAIRS, help=f"at least {MIN_PAIRS}")
    ap.add_argument("--metric", default="measured_s", help="key of the run's host object")
    args = ap.parse_args()
    if args.pairs < MIN_PAIRS:
        ap.error(f"--pairs must be at least {MIN_PAIRS}")

    sides = {"parent": [], "change": []}
    wins = 0
    with tempfile.TemporaryDirectory(prefix="ab_host_cpu_") as tmp:
        for i in range(args.pairs):
            seed = args.seeds[i % len(args.seeds)]
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            results = {}
            for side in order:
                binary = args.parent if side == "parent" else args.change
                results[side] = run_once(binary, args.workload, seed, Path(tmp) / f"{side}.json")
            if sim_clock(results["parent"]) != sim_clock(results["change"]):
                sys.exit(f"pair {i} (seed {seed}): sim-clock results differ")
            a = results["parent"]["host"][args.metric]
            b = results["change"]["host"][args.metric]
            sides["parent"].append(a)
            sides["change"].append(b)
            wins += b < a
            print(f"pair {i:2d} seed {seed} {order[0]} first: parent {a:.4f} change {b:.4f} "
                  f"({(b - a) / a * 100:+.1f}%)", flush=True)

    stats = {side: summary(v) for side, v in sides.items()}
    for side, s in stats.items():
        print(f"{side:6s} {args.metric}: median {s['median']:.4f} "
              f"quartiles [{s['q1']:.4f}, {s['q3']:.4f}]")
    parent, change = stats["parent"], stats["change"]
    delta = change["median"] - parent["median"]
    gain = wins >= 0.9 * args.pairs and -delta > parent["q3"] - parent["q1"]
    print(f"change won {wins}/{args.pairs} pairs; median {delta / parent['median'] * 100:+.1f}% "
          f"of the parent's {parent['median']:.4f}; parent IQR {parent['q3'] - parent['q1']:.4f}; "
          f"gain {'claimed' if gain else 'not shown'}")
    print(json.dumps({"workload": args.workload, "metric": args.metric, "pairs": args.pairs,
                      "sim_identical": True, "change_wins": wins, "parent": parent,
                      "change": change, "gain": gain}))


if __name__ == "__main__":
    main()
