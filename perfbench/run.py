#!/usr/bin/env python3
"""Repo benchmark: builds the program from source and runs one workload.

    python3 perfbench/run.py --workload <social_read|social_write|store_commit>
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root. It configures and builds perfbench/ (the
program's libraries from src/ plus perfbench/workload.cpp) under
.bench_build/perfbench, then runs the workload as a number of child
processes, each a full run of fixed size on its own inputs derived from
--seed, and pools their results. The number of runs is --seconds over the
measured host CPU of one run on a 4-core 2.1 GHz x86-64 host (RUN_CPU_S), so
for a given --seconds the sim-clock results depend on the seed alone. One
more child repeats the first run that completed: its sim-clock results must
be byte-identical. With --trace 1 a further repeat of that run records
spans, and the per-layer metrics are printed instead of the end-to-end ones.
A crash is contained to its child and charged as failed ops.

The last line of standard output is one JSON object: correct, attempted,
failed, metrics. NOTES.md defines every workload and metric.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
BUILD_DIR = Path(".bench_build") / "perfbench"
WORKLOAD_BIN = BUILD_DIR / "perfbench_workload"
RESULTS_DIR = BUILD_DIR / "results"

WORKLOADS = ("social_read", "social_write", "store_commit")
# Measured host CPU s of one run's measured phase on the reference host
# (NOTES.md). An invocation pools round(--seconds / RUN_CPU_S) runs.
RUN_CPU_S = {"social_read": 1.8, "social_write": 2.7, "store_commit": 2.2}
DEFAULT_SEED = 1  # the held-out seed is 90210 (NOTES.md)
DEFAULT_SECONDS = 25  # run_seconds in BENCHMARK.json
DEADLINE_S = 165  # every child is stopped by then


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (SRC_DIR / "CMakeLists.txt").is_file():
        fail(f"program sources not found at {SRC_DIR}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log = BUILD_DIR / "build.log"
    with open(log, "w") as out:
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                shutil.rmtree(BUILD_DIR / "CMakeFiles", ignore_errors=True)
                (BUILD_DIR / "CMakeCache.txt").unlink(missing_ok=True)
                fail(f"cmake configure failed, see {log}")
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench_workload", "-j", jobs]
        if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
            fail(f"build failed, see {log}")


def run_count(workload, seconds):
    return max(1, round(seconds / RUN_CPU_S[workload]))


def run_seed(seed, k):
    """Input seed of the k-th run of an invocation."""
    return seed * 100 + k


def run_child(workload, seed, name, spans, deadline):
    """One full run in its own process. Returns its result dict, or a crash
    or error record that charges every planned op as attempted and failed."""
    out = RESULTS_DIR / f"{workload}-{name}.json"
    out.unlink(missing_ok=True)
    cmd = [str(WORKLOAD_BIN), "--workload", workload, "--seed", str(seed), "--out", str(out)]
    if spans:
        cmd += ["--spans", str(RESULTS_DIR / f"{workload}-{name}-spans.json")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        stdout, stderr = proc.communicate()
        return {"error": "timed out", "seed": seed, "planned_ops": planned(stdout)}
    if proc.returncode < 0:
        sig = signal.Signals(-proc.returncode).name
        return {"crashed": sig, "seed": seed, "planned_ops": planned(stdout),
                "stderr": stderr[-2000:]}
    if proc.returncode != 0 or not out.exists():
        return {"error": f"exit code {proc.returncode}: {stderr[-2000:]}", "seed": seed,
                "planned_ops": planned(stdout)}
    with open(out) as f:
        return json.load(f)


def planned(stdout):
    try:
        return int(json.loads(stdout.splitlines()[0])["planned_ops"])
    except (IndexError, ValueError, KeyError, TypeError):
        return 0


# ------------------------------------------------------------------ metrics

def ok(r):
    return "ops" in r


def canonical(r):
    """Everything a run reports on the sim clock, serialized for byte-wise
    comparison (a crash compares by its signal)."""
    if not ok(r):
        return r.get("crashed") or r.get("error")
    keep = {k: r[k] for k in ("digest", "ops", "derived", "sim", "registry_before",
                              "registry_after")}
    return json.dumps(keep, sort_keys=True, separators=(",", ":"))


def layer_key(name):
    """Registry name without its node prefix ("combo2/dsm/hits" -> "dsm/hits");
    cluster-wide names ("net/eth/...", "sim/...") have none."""
    head, _, rest = name.partition("/")
    return rest if head[-1:].isdigit() else name


def registry_delta(runs):
    """Counters and histogram sums/counts of the measured phases, summed over
    runs and nodes, keyed by layer_key."""
    out = {}
    for r in runs:
        before, after = r["registry_before"], r["registry_after"]
        for name, v in after["counters"].items():
            key = layer_key(name)
            out[key] = out.get(key, 0) + v - before["counters"].get(name, 0)
        for name, h in after["histograms"].items():
            key = layer_key(name)
            hb = before["histograms"].get(name, {"count": 0, "sum": 0})
            out[key + ".count"] = out.get(key + ".count", 0) + h["count"] - hb["count"]
            out[key + ".sum"] = out.get(key + ".sum", 0) + h["sum"] - hb["sum"]
    return out


def pooled_classes(runs):
    """Op classes over all runs: counts summed, latencies pooled."""
    out = {}
    for r in runs:
        for name, c in {**r["ops"], **r["derived"]}.items():
            p = out.setdefault(name, {"attempted": 0, "failed": 0, "lat_usec": []})
            p["attempted"] += c["attempted"]
            p["failed"] += c["failed"]
            p["lat_usec"] += c["lat_usec"]
    for p in out.values():
        p["lat_usec"].sort()
    return out


def rank(n, q):
    """Nearest rank (1-based) of the q-quantile of n samples."""
    return max(1, math.ceil(q * n))


def percentile_ms(cls, q):
    v = cls["lat_usec"]
    return v[rank(len(v), q) - 1] / 1e3 if v else float("nan")


def ratio(num, den):
    return num / den if den else 0.0


def median_host(children, key):
    return statistics.median(r["host"][key] for r in children)


def end_to_end(runs, children, classes):
    sims = [r["sim"] for r in runs]
    return {
        "setup_s": (median_host(children, "setup_s"), "s"),
        # The lowest, not the median: other tenants of the host only add CPU
        # time, and their share drifts from minute to minute (NOTES.md).
        "host_cpu_s": (min(r["host"]["measured_s"] for r in runs), "s"),
        "peak_rss_mb": (median_host(children, "peak_rss_mb"), "MB"),
        "read_p50_ms": (percentile_ms(classes["read"], 0.50), "ms"),
        "read_p99_ms": (percentile_ms(classes["read"], 0.99), "ms"),
        "post_p50_ms": (percentile_ms(classes["post"], 0.50), "ms"),
        "post_p99_ms": (percentile_ms(classes["post"], 0.99), "ms"),
        "commit_txn_per_sim_s": (
            ratio(sum(s["commits_ok"] for s in sims),
                  sum(s["commit_window_usec"] for s in sims) / 1e6), "1/s"),
        "commit_p50_ms": (percentile_ms(classes["commit"], 0.50), "ms"),
        "commit_p99_ms": (percentile_ms(classes["commit"], 0.99), "ms"),
    }


def per_layer(runs, children, classes, traced):
    d = registry_delta(runs)
    sim_us = sum(r["sim"]["measured_usec"] for r in runs)
    host_s = sum(r["host"]["measured_s"] for r in runs)
    cpus = sum(1 for n in runs[0]["registry_after"]["counters"] if n.endswith("/cpu/busy_usec"))
    hits = d.get("dsm/hits", 0)
    faults = d.get("dsm/read_faults", 0) + d.get("dsm/write_faults", 0)
    commits, aborts = d.get("txn/commits", 0), d.get("txn/aborts", 0)
    cache_hits, cache_misses = d.get("store/cache_hits", 0), d.get("store/cache_misses", 0)

    def mean_ms(h):
        return ratio(d.get(h + ".sum", 0), d.get(h + ".count", 0)) / 1e3

    m = {
        "sim.events": (d.get("sim/events_executed", 0), "count"),
        "sim.resumes": (d.get("sim/process_resumes", 0), "count"),
        "sim.spawned": (d.get("sim/processes_spawned", 0), "count"),
        "sim.events_per_host_s": (ratio(d.get("sim/events_executed", 0), host_s), "1/s"),
        "sim.cpu_busy_pct": (100 * ratio(d.get("cpu/busy_usec", 0), cpus * sim_us), "%"),
        "sim.context_switches": (d.get("cpu/context_switches", 0), "count"),
        "net.eth_busy_pct": (100 * ratio(d.get("net/eth/busy_usec", 0), sim_us), "%"),
        "net.eth_frames": (d.get("net/eth/frames_on_wire", 0), "count"),
        "net.eth_bytes": (d.get("net/eth/bytes_on_wire", 0), "B"),
        "net.ratp_txns": (d.get("ratp/transactions", 0), "count"),
        "net.ratp_retransmit_ratio": (
            ratio(d.get("ratp/retransmits", 0), d.get("ratp/transactions", 0)), "ratio"),
        "net.ratp_reply_cache_hits": (d.get("ratp/reply_cache_hits", 0), "count"),
        "net.ratp_timeouts": (d.get("ratp/timeouts", 0), "count"),
        "net.ratp_peer_deaths": (d.get("ratp/peer_deaths", 0), "count"),
        "net.ratp_mean_ms": (mean_ms("ratp/txn_latency_usec"), "ms"),
        "dsm.hit_ratio": (ratio(hits, hits + faults), "ratio"),
        "dsm.read_faults": (d.get("dsm/read_faults", 0), "count"),
        "dsm.write_faults": (d.get("dsm/write_faults", 0), "count"),
        "dsm.remote_fetches": (d.get("dsm/remote_fetches", 0), "count"),
        "dsm.invalidations": (d.get("dsm/invalidations", 0), "count"),
        "dsm.degrades": (d.get("dsm/degrades", 0), "count"),
        "dsm.fault_mean_ms": (mean_ms("dsm/fault_latency_usec"), "ms"),
        "consistency.commits": (commits, "count"),
        "consistency.aborts": (aborts, "count"),
        "consistency.commit_ratio": (ratio(commits, commits + aborts), "ratio"),
        "consistency.lock_waits": (d.get("txn/lock_waits", 0), "count"),
        "consistency.commit_mean_ms": (mean_ms("txn/commit_latency_usec"), "ms"),
        "store.wal_forces": (d.get("wal/forces", 0), "count"),
        "store.records_per_force": (
            ratio(d.get("wal/records_appended", 0), d.get("wal/forces", 0)), "ratio"),
        "store.cache_hit_ratio": (ratio(cache_hits, cache_hits + cache_misses), "ratio"),
        "store.disk_writes": (d.get("disk/writes", 0), "count"),
        "store.pages_written_back": (d.get("wal/pages_written_back", 0), "count"),
        "store.prepare_host_us": (traced["trace"].get("store.prepare_host_us", 0.0), "us"),
        "store.commit_host_us": (traced["trace"].get("store.commit_host_us", 0.0), "us"),
        "store.prepare_sim_mean_ms": (traced["trace"].get("store.prepare_sim_mean_ms", 0.0), "ms"),
        "sched.placements": (d.get("sched/placements", 0), "count"),
        "sched.gossip_reports": (d.get("sched/reports_sent", 0), "count"),
    }
    for op in ("read", "post", "follow", "register"):
        c = classes.get(op, {"attempted": 0, "failed": 0})
        m[f"load.{op}.issued"] = (c["attempted"], "count")
        m[f"load.{op}.ok"] = (c["attempted"] - c["failed"], "count")
        m[f"load.{op}.failed"] = (c["failed"], "count")
    # Per-layer, not end-to-end: one end-of-run observation per run, too
    # noisy from seed to seed for any bound BENCHMARK.json may set (NOTES.md).
    m["load.drain_s"] = (statistics.fmean(r["sim"]["drain_usec"] for r in runs) / 1e6, "s")
    m["app.build_host_s"] = (median_host(children, "build_s"), "s")
    m["app.warmup_host_s"] = (median_host(children, "warmup_s"), "s")
    # The traced run repeats a completed run; its untraced twins (that run
    # and its determinism repeat) give the baseline.
    twins = [r for r in children if r["seed"] == traced["seed"]]
    m["trace.overhead_cpu_s"] = (traced["host"]["measured_s"] - median_host(twins, "measured_s"),
                                 "s")
    m["trace.spans"] = (traced["trace"].get("spans", 0), "count")
    return m


# ------------------------------------------------------------------ main

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                    help="measured host CPU s to size the number of runs to")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    w = args.workload
    n_runs = run_count(w, args.seconds)
    if n_runs > 99 or not 0 <= run_seed(args.seed, n_runs) < 2**64:
        fail("--seed must be non-negative and below 2**64 / 100, --seconds at most "
             f"{99 * RUN_CPU_S[w]:g} for {w}")

    build()
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S

    distinct = [run_child(w, run_seed(args.seed, k), f"{args.seed}-{k}", False, deadline)
                for k in range(n_runs)]
    # Repeat the first run that completed (run 0 if none did), so that a
    # crash of run 0 still leaves a completed run to compare and trace.
    base = next((r for r in distinct if ok(r)), distinct[0])
    repeats = [run_child(w, base["seed"], f"{args.seed}-repeat", False, deadline)]
    if args.trace:
        repeats.append(run_child(w, base["seed"], f"{args.seed}-traced", True, deadline))

    runs = [r for r in distinct if ok(r)]
    lost = [r for r in distinct + repeats if not ok(r)]
    children = [r for r in distinct + repeats[:1] if ok(r)]
    traced = repeats[1] if args.trace and ok(repeats[1]) else None

    problems = []
    for r in lost:
        what = f"killed by {r['crashed']}" if "crashed" in r else f"failed: {r['error']}"
        charged = (f"; its {r['planned_ops']} planned ops count as attempted and failed"
                   if any(r is d for d in distinct) else "")
        print(f"# {'CRASH' if 'crashed' in r else 'RUN FAILED'}: run with seed {r['seed']} "
              f"{what}{charged}")
        if "error" in r:
            problems.append(f"run with seed {r['seed']} {what}")
    if any(canonical(r) != canonical(base) for r in repeats):
        problems.append("same-seed runs differ on the sim clock (determinism)")
    problems += [f"output check failed: {r['check']}" for r in runs + repeats
                 if ok(r) and not r["correct"]]
    if not runs:
        problems.append("no run completed")
    if args.trace and traced is None:
        problems.append("traced run did not complete")

    classes = pooled_classes(runs)
    attempted = sum(c["attempted"] for r in runs for c in r["ops"].values())
    failed = sum(c["failed"] for r in runs for c in r["ops"].values())
    for r in distinct:
        if not ok(r):
            attempted += r["planned_ops"]
            failed += r["planned_ops"]

    metrics = {}
    if runs:
        if not args.trace:
            metrics = end_to_end(runs, children, classes)
        elif traced is not None:
            metrics = per_layer(runs, children, classes, traced)
        print(f"# {w} seed={args.seed}: {len(runs)} of {n_runs} runs completed, "
              f"determinism repeat{'s' if len(repeats) > 1 else ''} of seed {base['seed']} "
              "compared")
        for r in runs:
            print(f"# check seed {r['seed']}: {r['check']}")
        for name, c in sorted(classes.items()):
            n = len(c["lat_usec"])
            print(f"# ops {name}: attempted={c['attempted']} failed={c['failed']} samples={n} "
                  f"p50={percentile_ms(c, 0.5):.3f}ms p99={percentile_ms(c, 0.99):.3f}ms "
                  f"beyond_p99={n - rank(n, 0.99) if n else 0}")
        for name, (value, unit) in metrics.items():
            print(f"# {name} = {value:.6g} {unit}")
    for p in problems:
        print(f"# PROBLEM: {p}")
    with open(RESULTS_DIR / f"{w}-{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump({"workload": w, "seed": args.seed, "trace": args.trace,
                   "runs": distinct + repeats, "problems": problems}, f)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
