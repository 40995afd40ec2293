#!/usr/bin/env python3
"""Build and run the solve-path and service benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all ...     # the four workloads in turn
    python3 perfbench/run.py --self-test

Builds perfbench/ (which compiles the library from ../src) into
.bench_build/perfbench, then runs perfbench_driver. Every run first keeps the
cores busy for a second, so that timings do not depend on how long the
machine sat idle before. An untraced run then starts
four set-up-only processes, so that setup_s is the median of five cold
starts (process start to the first timed operation). The last line of
standard output is perfbench_driver's JSON result; build output goes to
standard error.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
SCRATCH_DIR = ROOT / ".bench_build" / "run"
DRIVER = BUILD_DIR / "perfbench_driver"
WORKLOADS = ("paper-solve", "paper-faults", "stage1-wide", "service-stream")
COLD_SETUPS = 4
SPIN_S = 1.0  # busy cores before timing: idle virtual cores wake slowly
RUN_LIMIT_S = 170.0  # a run must end within 180 s once built


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a full checkout", 2)
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed", 3)
    compile_cmd = ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench_driver",
                   "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed", 3)


def metric_names(trace):
    """(name, unit) of every metric a run of this mode reports."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]
    except (OSError, ValueError, KeyError):
        return []


def failed_result(trace, attempted, failed, reason):
    print(f"FAILED: {reason}")
    metrics = {name: {"value": 0, "unit": unit} for name, unit in metric_names(trace)}
    print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                      "failed": max(failed, 1), "metrics": metrics}))


def driver_command(args, extra):
    return [str(DRIVER), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--instance-seed", str(args.instance_seed), "--scratch", str(SCRATCH_DIR), *extra]


def run_benchmark(args):
    deadline = time.monotonic() + RUN_LIMIT_S
    SCRATCH_DIR.mkdir(parents=True, exist_ok=True)
    subprocess.run([str(DRIVER), "--spin", str(SPIN_S)], check=True)
    setup_samples, attempted, failed, fingerprint = [], 0, 0, None
    if args.trace == 0:
        for _ in range(COLD_SETUPS):
            extra = ["--setup-only", "--t0-ns", str(time.monotonic_ns())]
            if fingerprint:
                extra += ["--expect-fingerprint", fingerprint]
            try:
                done = subprocess.run(driver_command(args, extra), capture_output=True, text=True,
                                      timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                failed_result(0, attempted + 1, failed + 1, "set-up process timed out")
                return
            line = next((l for l in done.stdout.splitlines() if l.startswith("setup ")), None)
            sys.stdout.write("".join(f"cold {l}\n" for l in done.stdout.splitlines()))
            if done.returncode != 0 or line is None:
                attempted, failed = attempted + 1, failed + 1
                continue
            _, seconds, fingerprint, ops, bad = line.split()
            setup_samples.append(seconds)
            attempted, failed = attempted + int(ops), failed + int(bad)
    extra = ["--t0-ns", str(time.monotonic_ns()), "--prior-attempted", str(attempted),
             "--prior-failed", str(failed)]
    if setup_samples:
        extra += ["--setup-samples", ",".join(setup_samples)]
    if fingerprint:
        extra += ["--expect-fingerprint", fingerprint]
    process = subprocess.Popen(driver_command(args, extra), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        failed_result(args.trace, attempted + 1, failed + 1, "run exceeded its time limit")
        return
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if process.returncode != 0 or not isinstance(result, dict):
        sys.stdout.write("".join(f"{l}\n" for l in lines))
        failed_result(args.trace, attempted + 1, failed + 1,
                      f"perfbench_driver exited with {process.returncode} and no result")
        return
    sys.stdout.write(out)


def self_test():
    """Runs the correctness-check self-test of perfbench_driver, then the
    operation cap twice: once on a solve that polls its cancel token, once
    on one that cannot."""
    SCRATCH_DIR.mkdir(parents=True, exist_ok=True)
    ok = subprocess.run([str(DRIVER), "--self-test", "--scratch", str(SCRATCH_DIR)]).returncode == 0
    cases = [("paper-solve", "5", "a cancellable solve over the cap is cancelled and counted"),
             ("stage1-wide", "0.2", "a solve stuck in code that never polls is abandoned")]
    for workload, grace, what in cases:
        started = time.monotonic()
        done = subprocess.run([str(DRIVER), "--workload", workload, "--seconds", "1",
                               "--op-cap", "0.05", "--op-grace", grace,
                               "--scratch", str(SCRATCH_DIR)],
                              capture_output=True, text=True, timeout=120)
        result = json.loads(done.stdout.splitlines()[-1])
        names = {name for name, _ in metric_names(0)}
        passed = (done.returncode == 0 and result["failed"] >= 1 and not result["correct"]
                  and names <= set(result["metrics"]))
        print(f"{'ok  ' if passed else 'FAIL'} {what} "
              f"({result['failed']} of {result['attempted']} failed, "
              f"{time.monotonic() - started:.1f} s)")
        ok = ok and passed
    print("run.py self-test passed" if ok else "run.py self-test FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--instance-seed", type=int, default=1,
                        help="stage1-wide's generated batch (default 1; held-out: 3)")
    parser.add_argument("--seconds", type=int, default=15, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    build()
    if args.self_test:
        sys.exit(self_test())
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        run_benchmark(argparse.Namespace(**{**vars(args), "workload": workload}))


if __name__ == "__main__":
    main()
