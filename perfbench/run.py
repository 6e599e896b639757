#!/usr/bin/env python3
"""Build and run the repository benchmark.

One run:
    python3 perfbench/run.py --workload serve_mem --seed 1 --seconds 15 --trace 0

Noise report (repeats a workload over several seeds and prints each
metric's median, quartiles and sample counts; with --sets 2 it runs two
alternating sets and compares their medians against the bounds):
    python3 perfbench/run.py --noise --workload serve_mem --seeds 1,2,3,4,5 --sets 2

Self-test (the benchmark's unit tests plus one short traced run):
    python3 perfbench/run.py --selftest

The benchmark is built from the checkout's sources with CMake under
$CARGO_TARGET_DIR (default .bench_build), in a directory named after
the checkout's path, so checkouts sharing $CARGO_TARGET_DIR never build
each other's code. The last line of a run's standard output is the JSON
result; everything else on stdout starts with '#', and build output
goes to stderr.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Workloads that run by hand but are not in BENCHMARK.json: serve_churn's
# latencies ride on seeded post-flap recompute storms and spread between
# runs of identical code by more than any bound the benchmark may set.
HAND_RUN = ["serve_churn"]


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / f"perfbench-{hashlib.sha256(str(HERE).encode()).hexdigest()[:12]}"


def run_timeout(seconds: int, trace: int) -> float:
    """Seconds a run may take: set-up, warm-up and oracle work plus a
    multiple of the measured window (a traced run measures twice and
    replays, scales and simulates besides)."""
    return 60 + seconds * (8 if trace else 3)


def build(target: str) -> Path:
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target", target])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            # A failed configure must not leave a cache that skips it next time.
            if cmd[1] == "-S":
                (out / "CMakeCache.txt").unlink(missing_ok=True)
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return out / target


def run_once(binary: Path, workload: str, seed: int, seconds: int, trace: int, echo: bool):
    """Runs the benchmark binary; returns (exit code, result dict or None, detail dict or None)."""
    work = build_dir() / "work"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", str(work)]
    if trace:
        spans = build_dir() / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans / f"{workload}-{seed}.jsonl")]
    timeout = run_timeout(seconds, trace)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} seed {seed} exceeded {timeout} s", file=sys.stderr)
        return 1, None, None
    lines = proc.stdout.strip().splitlines()
    result = detail = None
    if lines and not lines[-1].startswith("#"):
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    for line in lines:
        if line.startswith("# detail "):
            detail = json.loads(line[len("# detail "):])
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    if result is None:
        return proc.returncode or 1, None, None
    return proc.returncode, result, detail


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def print_table(runs, bounds):
    """Prints each metric's median, quartiles and IQR / median over `runs`;
    returns the end-to-end medians by name."""
    print(f"{'metric':40s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'iqr/med':>8s} {'bound':>6s}")
    medians = {}
    for section in ("metrics", "detail"):
        names = []
        for _, result, detail in runs:
            src = result["metrics"] if section == "metrics" else detail["metrics"]
            names += [n for n in src if n not in names]
        if section == "detail":
            print("-- named figures (samples per run are printed by each run)")
        for name in names:
            src = [(r if section == "metrics" else d)["metrics"].get(name) for _, r, d in runs]
            values = [m["value"] for m in src if m is not None]
            if not values:
                continue
            med, q1, q3, rel = spread(values)
            bound = bounds.get(name) if section == "metrics" else None
            if section == "metrics":
                medians[name] = med
            print(f"{name:40s} {src[0]['unit']:6s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{rel:8.4f} {'' if bound is None else bound:>6}")
    return medians


def noise(args, config):
    """Runs the workload once per seed in each of --sets sets, the sets
    alternating seed by seed, and prints each set's spread. With two or
    more sets it also prints how far each later set's medians moved from
    the first set's, in the worse direction, against the bounds."""
    binary = build("perfbench")
    seeds = [int(s) for s in args.seeds.split(",")]
    sets = [[] for _ in range(args.sets)]
    for seed in seeds:
        for k, runs in enumerate(sets):
            code, result, detail = run_once(binary, args.workload, seed, args.seconds, args.trace, False)
            if result is None:
                sys.exit(f"perfbench: {args.workload} seed {seed} failed (exit {code})")
            runs.append((seed, result, detail or {"metrics": {}}))
            values = " ".join(f"{n}={v['value']:.6g}" for n, v in result["metrics"].items())
            print(f"# set {k + 1} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {values}", flush=True)
    metrics = {m["name"]: m for m in config["end_to_end"]}
    bounds = {name: m.get("bound") for name, m in metrics.items()}
    medians = []
    for k, runs in enumerate(sets):
        print(f"\nworkload {args.workload}, set {k + 1} of {args.sets}, {len(runs)} runs, "
              f"seeds {args.seeds}, {args.seconds} s each")
        medians.append(print_table(runs, bounds))
    if args.sets > 1:
        print(f"\nworkload {args.workload}: later sets against set 1 (share of set 1's median, "
              f"positive = worse)")
        for name, first in medians[0].items():
            m = metrics.get(name)
            if m is None or not first:
                continue
            sign = 1.0 if m["better"] == "lower" else -1.0
            moves = [sign * (later[name] - first) / first for later in medians[1:]]
            verdict = "ok" if all(x <= m["bound"] for x in moves) else "OUTSIDE BOUND"
            print(f"{name:40s} " + " ".join(f"{x:+8.4f}" for x in moves) +
                  f"  bound {m['bound']}  {verdict}")
    if not all(r["correct"] for runs in sets for _, r, _ in runs):
        sys.exit(3)


def selftest(config):
    test = build("perfbench_test")
    if subprocess.run([str(test)]).returncode != 0:
        sys.exit("perfbench: unit tests failed")
    binary = build("perfbench")
    for workload in ("serve_mem", "batch"):
        code, result, _ = run_once(binary, workload, 1, 2, 1, False)
        if result is None or not result["correct"]:
            sys.exit(f"perfbench: traced {workload} run failed (exit {code})")
        want = [m["name"] for m in config["per_layer"]]
        missing = [n for n in want if n not in result["metrics"]]
        if missing:
            sys.exit(f"perfbench: traced {workload} output lacks {missing}")
        print(f"# traced {workload}: all {len(want)} per-layer metrics present")


def main():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in config["workloads"]] + HAND_RUN
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=workloads)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=config["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--noise", action="store_true", help="repeat over --seeds and report spread")
    p.add_argument("--seeds", default="1,2,3,4,5")
    p.add_argument("--sets", type=int, default=1, help="with --noise: sets of runs, alternating")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if args.selftest:
        selftest(config)
        return
    if not args.workload:
        p.error("--workload is required")
    if args.noise:
        noise(args, config)
        return
    binary = build("perfbench")
    code, result, _ = run_once(binary, args.workload, args.seed, args.seconds, args.trace, True)
    sys.exit(code if result is not None else (code or 1))


if __name__ == "__main__":
    main()
