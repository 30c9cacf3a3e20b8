#!/usr/bin/env python3
"""Build and run the nextgov end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>
    python3 perfbench/run.py --seeds-report [--seconds <n>]
    python3 perfbench/run.py --selftest

The benchmark is a CMake package of its own (perfbench/CMakeLists.txt) that
builds the simulator library from the sources next to it. Builds and scratch
files go to .bench_build/ at the root of the checkout; the first run builds,
later runs only re-check. Build output goes to stderr, so the last line of
stdout is always the benchmark's JSON result.

--seeds-report runs every workload, untraced and traced, on the default seed
and on the held-out seed and prints the deterministic metrics side by side,
so a claim can be checked off the seed it was developed on.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SCRATCH = os.path.join(ROOT, ".bench_build", "scratch")
WORKLOADS = ("phone_deploy", "train_eval_sweep", "fleet_churn")
DEFAULT_SEED = 1
HELDOUT_SEED = 20200309


def build(target):
    """Configures (once) and builds `target`; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return None
    cmd = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(BUILD, target)


def run_binary(binary, workload, seed, seconds, trace, capture=False):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--scratch", SCRATCH]
    if capture:
        return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    return subprocess.run(cmd, cwd=ROOT)


def check_catalogue(binary):
    """BENCHMARK.json must list exactly the binary's metrics, in order."""
    listing = subprocess.run([binary, "--list-metrics"], stdout=subprocess.PIPE, text=True)
    built = {"end_to_end": [], "per_layer": []}
    for line in listing.stdout.splitlines():
        kind, name, unit, better, _ = line.split()
        built[kind].append((name, unit, better))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    status = 0
    for kind, metrics in built.items():
        listed = [(m["name"], m["unit"], m["better"]) for m in declared[kind]]
        if listed != metrics:
            print(f"BENCHMARK.json {kind} differs from the binary's catalogue", file=sys.stderr)
            status = 1
    return status


def seeds_report(binary, seconds):
    listing = subprocess.run([binary, "--list-metrics"], stdout=subprocess.PIPE, text=True)
    deterministic = {line.split()[1] for line in listing.stdout.splitlines()
                     if line.endswith("deterministic")}
    status = 0
    print(f"deterministic metrics, default seed {DEFAULT_SEED} vs held-out seed {HELDOUT_SEED}")
    for workload in WORKLOADS:
        rows = {}
        for seed in (DEFAULT_SEED, HELDOUT_SEED):
            for trace in (0, 1):
                proc = run_binary(binary, workload, seed, seconds, trace, capture=True)
                if proc.returncode != 0:
                    print(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
                    status = 1
                    continue
                metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
                for name, m in metrics.items():
                    if name in deterministic and m["value"] != 0:
                        rows.setdefault(name, {})[seed] = (m["value"], m["unit"])
        print(f"\n{workload}")
        for name, by_seed in rows.items():
            unit = next(iter(by_seed.values()))[1]
            values = "  ".join(f"{by_seed.get(s, (float('nan'),))[0]:>16.8g}"
                               for s in (DEFAULT_SEED, HELDOUT_SEED))
            print(f"  {name:<34} {values}  {unit}")
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seeds-report", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        tests = build("perfbench_tests")
        binary = build("perfbench")
        if tests is None or binary is None:
            return 1
        return subprocess.run([tests]).returncode or check_catalogue(binary)
    if not args.seeds_report and (args.workload is None or args.seed is None):
        parser.error("--workload and --seed are required")
    binary = build("perfbench")
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.makedirs(SCRATCH, exist_ok=True)
    if args.seeds_report:
        return seeds_report(binary, args.seconds)
    return run_binary(binary, args.workload, args.seed, args.seconds, args.trace).returncode


if __name__ == "__main__":
    sys.exit(main())
