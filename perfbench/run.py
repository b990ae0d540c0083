#!/usr/bin/env python3
"""erel's benchmark: builds erelbench from source, then runs one workload.

    python3 perfbench/run.py --workload fig11-full --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test          # every workload at smoke scale
    python3 perfbench/run.py --regen-reference    # rewrite reference_ipc.tsv

Run it from anywhere; it builds into .bench_build/ at the repository root.
The last line of a run's stdout is its JSON result; build output goes to
stderr. See README.md for the workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "erelbench")
BINARY = os.path.join(BUILD_DIR, "erelbench")
REFERENCE = os.path.join(HERE, "reference_ipc.tsv")
WORKLOADS = ("fig11-full", "fig11-sampled", "go-long", "daemon-sweep")


def build():
    """Configures once, then brings the build up to date."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   stdout=sys.stderr, check=True)


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest():
    """Hash of the simulator and benchmark sources, for checkouts without git."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def bench_command(workload, seed, seconds, trace):
    scratch = os.path.join(BUILD_ROOT, "scratch")
    spans = os.path.join(BUILD_ROOT, "spans")
    os.makedirs(scratch, exist_ok=True)
    os.makedirs(spans, exist_ok=True)
    return [BINARY, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--reference", REFERENCE, "--scratch", scratch,
            "--spans", os.path.join(spans, f"{workload}-seed{seed}.jsonl"),
            "--git-sha", git_sha(), "--source-digest", source_digest()]


def check_result(proc, expected):
    """Problems with one run's output, against BENCHMARK.json's metrics."""
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}"]
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return ["last line is not JSON"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("wrong result keys")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("outputs incorrect")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted < 1")
    units = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if units != expected:
        problems.append("metrics differ from BENCHMARK.json")
    return problems


def self_test():
    """Every workload, untraced and traced, at smoke scale."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        1: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = bench_command(workload, 1, 1, trace) + ["--smoke"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            problems = check_result(proc, expected[trace])
            print(f"{workload} trace={trace}: "
                  f"{'ok' if not problems else '; '.join(problems)}")
            failures += bool(problems)
    print("self-test passed" if failures == 0
          else f"self-test failed: {failures} run(s)")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--regen-reference", action="store_true")
    args = parser.parse_args()
    if not (args.workload or args.self_test or args.regen_reference):
        parser.error("give --workload, --self-test or --regen-reference")
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if args.regen_reference:
        return subprocess.run([BINARY, "--regen-reference", REFERENCE]).returncode
    if args.self_test:
        return self_test()
    cmd = bench_command(args.workload, args.seed, args.seconds, args.trace)
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
