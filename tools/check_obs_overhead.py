#!/usr/bin/env python3
"""Flight-recorder overhead gate for CI.

Runs bench_micro_sim with the flight recorder disabled (CDSF_FLIGHT=0)
and with the shipping default (recorder on, CDSF_FLIGHT=1) in interleaved rounds. In each
round, every simulate-loop benchmark runs on both sides back to back,
alternating which side goes first, and the round's overhead is the ratio
of the two sides' median real_time. The verdict reads the median of the
per-round overheads, so host drift (a shared runner speeding up or
slowing down) hits both sides of a pair alike instead of landing on one
side. The recorder rides inside the hot
simulation loop, so its cost budget is part of the observability contract
(docs/observability.md): the recorder-on median may not regress more than
BUDGET over recorder-off. A NOISE allowance on top keeps shared CI runners
from flaking the gate; a genuine regression shows up far above
budget+noise.

Usage:
    python3 tools/check_obs_overhead.py [path/to/bench_micro_sim]

Exit status 0 when within budget, 1 on a budget violation or a benchmark
that fails to run. Requires only the Python standard library.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile

# The benchmark whose inner loop carries the recorder; the name must stay
# in sync with bench/bench_micro_sim.cpp and BENCH_baseline.json.
BENCH_FILTER = "BM_SimulateLoopApp3"
ROUNDS = 15
REPETITIONS = 1  # per side per round
BUDGET = 0.02  # documented recorder-on overhead budget (2%)
NOISE = 0.03   # CI-runner jitter allowance on top of the budget


def list_benches(binary: str) -> list:
    """Names of the benchmarks BENCH_FILTER selects, in run order."""
    listed = subprocess.run(
        [binary, f"--benchmark_filter={BENCH_FILTER}", "--benchmark_list_tests"],
        check=True, capture_output=True, text=True)
    return [line.strip() for line in listed.stdout.splitlines() if line.strip()]


def run_bench(binary: str, name: str, flight_off: bool) -> float:
    """Runs one benchmark and returns the median real_time (ns) of its
    repetitions."""
    # "0" and "1" have the same length, so both sides start with the same
    # environment size and hence the same initial stack layout.
    env = dict(os.environ)
    env["CDSF_FLIGHT"] = "0" if flight_off else "1"
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as out:
        out_path = out.name
    try:
        cmd = [
            binary,
            f"--benchmark_filter=^{name}$",
            f"--benchmark_repetitions={REPETITIONS}",
            "--benchmark_out_format=json",
            f"--benchmark_out={out_path}",
        ]
        subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
        with open(out_path, encoding="utf-8") as handle:
            doc = json.load(handle)
    finally:
        os.unlink(out_path)
    times = [float(bench["real_time"]) for bench in doc.get("benchmarks", [])
             if bench.get("run_type") == "iteration"]
    if not times:
        raise RuntimeError(f"no timing reported for {name}")
    return statistics.median(times)


def main(argv: list) -> int:
    binary = argv[1] if len(argv) > 1 else "build/bench/bench_micro_sim"
    if not os.path.exists(binary):
        print(f"check_obs_overhead: benchmark binary not found: {binary}",
              file=sys.stderr)
        return 1

    print(f"check_obs_overhead: {BENCH_FILTER}, {ROUNDS} interleaved rounds of "
          f"{REPETITIONS} repetitions per side, budget {BUDGET:.0%} + noise "
          f"allowance {NOISE:.0%}")
    # Both sides of every pair run on the same single core, so they share
    # its cache and clock instead of whichever cores the scheduler picks.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    names = list_benches(binary)
    ratios = {name: [] for name in names}  # per-round on/off median ratios
    for round_index in range(ROUNDS):
        order = (True, False) if round_index % 2 == 0 else (False, True)
        for name in names:
            median = {off: run_bench(binary, name, off) for off in order}
            base = median[True]
            ratios[name].append(median[False] / base if base > 0.0 else float("inf"))

    failed = False
    for name, series in ratios.items():
        overhead = statistics.median(series) - 1.0
        verdict = "ok" if overhead <= BUDGET + NOISE else "FAIL"
        rounds = " ".join(f"{ratio - 1.0:+.1%}" for ratio in series)
        print(f"  {name}: median overhead={overhead:+.2%} ({verdict}); "
              f"rounds {rounds}")
        if verdict == "FAIL":
            failed = True
    if not ratios:
        print(f"check_obs_overhead: no benchmark matched {BENCH_FILTER}",
              file=sys.stderr)
        failed = True

    if failed:
        print("check_obs_overhead: recorder overhead exceeds the "
              f"{BUDGET:.0%} budget (docs/observability.md)", file=sys.stderr)
        return 1
    print("check_obs_overhead: within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
