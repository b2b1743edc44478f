#!/usr/bin/env python3
"""Sweep benchmark runner.

Builds the benchmark (the repository's dwarn library plus sweep_bench.cpp)
into .bench_build/, runs its self-test, then runs fresh-process repetitions
of one workload for --seconds seconds and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics from untraced repetitions.
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics (host times from the traced ones; the pool's schedule,
trace-cache counts and memory from the untraced ones; tracing overhead
from the two together). Metric names and units are BENCHMARK.json's.

Usage (from the repository root):
    python3 sweepbench/run.py --workload fig1 --seed 1 --seconds 20 --trace 0
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "sweepbench"
WORKLOADS = ("fig1", "seeds_paired", "fig1_icache")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Sections of a repetition's output that the per-layer metrics come from.
# Host times and main-thread phases come from traced repetitions; the pool's
# schedule, trace-cache traffic and memory from the untraced ones, which
# run the engine itself untouched by tracing; simulated statistics are
# identical in both (the digests prove it).
LAYER_SECTIONS = {"traced": ("host", "phases", "simulated"),
                  "untraced": ("engine", "trace_cache", "memory")}

# Keep whole repetitions inside the 180-second budget of one invocation.
TIME_LIMIT_S = 170.0
MIN_UNTRACED_REPS = 3


class BenchError(Exception):
    pass


def build():
    """Configure and build into .bench_build/; cmake's output goes to stderr."""
    jobs = str(len(os.sched_getaffinity(0)))
    for cmd in (
        ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "-j", jobs, "--target", "sweep_bench",
         "sweep_bench_selftest"],
        [str(BUILD / "sweep_bench_selftest")],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("build step failed: " + " ".join(cmd))


def run_rep(workload, seed, traced, timeout):
    out_dir = ROOT / ".bench_build" / "sweepbench-out" / f"{workload}-seed{seed}"
    cmd = [str(BUILD / "sweep_bench"), "--workload", workload, "--seed", str(seed),
           "--out", str(out_dir)]
    if traced:
        cmd.append("--traced")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"repetition exceeded {timeout:.0f} s") from e
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"sweep_bench exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def medians(reps, section):
    """Median over the repetitions of every value in one output section."""
    return {name: statistics.median(r[section][name] for r in reps) for name in reps[0][section]}


def per_layer(untraced, traced):
    values = {}
    for mode, reps in (("traced", traced), ("untraced", untraced)):
        for section in LAYER_SECTIONS[mode]:
            values.update(medians(reps, section))
    traced_s, untraced_s = (medians(reps, "end_to_end")["sweep_s"] for reps in (traced, untraced))
    values["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return values


def check(reps):
    """Problems with the outputs of every repetition, as readable lines."""
    problems = []
    for r in reps:
        if "error" in r:
            problems.append(f"{r['mode']} repetition threw: {r['error']}")
            continue
        if not r["written"]:
            problems.append(f"{r['mode']} repetition could not write its snapshot")
        if not r["split_ok"]:
            problems.append(f"{r['mode']} repetition: re-split fragments did not merge back to "
                            f"the snapshot bytes {r['split_error']}".rstrip())
        if r["mode"] == "traced" and not r["spans_written"]:
            problems.append("traced repetition could not write its spans")
    digests = {r.get("digest") for r in reps}
    if len(digests) != 1:
        problems.append(f"snapshot digests differ across repetitions: {sorted(map(str, digests))}")
    return problems


def fmt(v):
    return f"{v:.6g}"


def report(args, untraced, traced, metrics, problems, attempted, failed):
    first = untraced[0]
    s = first["settings"]
    print(f"sweepbench {args.workload}: seed base {args.seed}, {first['runs']} runs per sweep, "
          f"{len(untraced)} untraced + {len(traced)} traced repetitions")
    print(f"  settings: workers {s['workers']}, windows {s['warmup_insts']} warm-up + "
          f"{s['measure_insts']} measured insts, max_cycles {s['max_cycles']}, "
          f"machine {s['machine']}, trace cache {s['trace_cache']}, telemetry off")
    print(f"  snapshot digest {first.get('digest')} "
          f"({'all repetitions agree' if not problems else 'CHECK FAILED'})")
    ci = first.get("paired_ci", {})
    if ci.get("n"):
        print(f"  DWarn over ICOUNT, paired: {ci['mean']:+.2f}% "
              f"[{ci['lo']:+.2f}, {ci['hi']:+.2f}] 95% CI over {ci['n']} pairs")
    for name, m in metrics.items():
        print(f"  {name:34s} {fmt(m['value']):>12s} {m['unit']}")
    print(f"  {'fail_frac':34s} {fmt(failed / attempted):>12s} ({failed} of {attempted} runs)")
    if not problems and args.trace == 0:
        rss = medians(untraced, "memory")["peak_rss_mb"]
        print(f"  {'peak_rss_mb':34s} {fmt(rss):>12s} MiB")
        claims = len(first["claims"])
        print(f"  {'paper_gap_pp':34s} {fmt(first['simulated']['paper_gap_pp']):>12s} pp "
              f"(over {claims} paper claim{'' if claims == 1 else 's'})")
    elif not problems:
        tail = first["run_tail"]
        print(f"  engine.run_tail_s is p{tail['percentile']} of {tail['samples']} runs")
    for p in problems:
        print(f"  PROBLEM: {p}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 1 <= args.seed <= 1_000_000_000:
        ap.error("--seed must be in [1, 1e9]")

    try:
        build()
        start = time.monotonic()
        untraced, traced = [], []
        while True:
            want_traced = args.trace == 1 and len(traced) < len(untraced)
            elapsed = time.monotonic() - start
            t0 = time.monotonic()
            rep = run_rep(args.workload, args.seed, want_traced,
                          timeout=max(1.0, TIME_LIMIT_S - elapsed))
            last = time.monotonic() - t0
            (traced if want_traced else untraced).append(rep)
            elapsed = time.monotonic() - start
            enough = (len(untraced) >= MIN_UNTRACED_REPS if args.trace == 0
                      else untraced and traced)
            # Start another repetition only if it should end inside the
            # measuring time (and always inside the invocation's budget).
            if enough and elapsed + last > min(args.seconds, TIME_LIMIT_S):
                break
    except BenchError as e:
        print(f"sweepbench: {e}", file=sys.stderr)
        return 1

    reps = untraced + traced
    attempted = sum(r["runs"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    problems = check(reps)
    wanted = SPEC["end_to_end" if args.trace == 0 else "per_layer"]
    values = {}
    if not problems:
        values = medians(untraced, "end_to_end") if args.trace == 0 else per_layer(untraced, traced)
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            problems.append("metrics not reported: " + ", ".join(missing))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    report(args, untraced, traced, metrics, problems, attempted, failed)
    print(json.dumps({"correct": not problems and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
