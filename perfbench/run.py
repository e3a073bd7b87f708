"""Benchmark of the fwt solver and simulator: one workload, one seed.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Starts the workload in fresh single-threaded processes (perfbench/worker.py),
checks every item's output, prints each metric with its unit and ends with
one JSON line: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 a
separate traced run gives the per-layer ones. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import REF_NOMINAL_S
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 3          # fresh processes whose set-up is timed; one also measures
TIME_LIMIT_S = 170.0       # a whole run, workers included
ONE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


class BenchError(Exception):
    pass


def spawn(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run a worker; return the monotonic start instant and its JSON result."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(ONE_THREAD)
    started = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {args} did not finish within the run's time limit")
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{stderr.strip()}")
    return started, json.loads(stdout.strip().splitlines()[-1])


def item_times(passes: list) -> list[float]:
    """Per item: median over passes of its time rescaled to the reference
    kernel's nominal speed."""
    scaled = [[REF_NOMINAL_S * t / r for t, r in zip(times, refs)] for times, refs in passes]
    return [statistics.median(samples) for samples in zip(*scaled)]


def tail(values: list[float]) -> tuple[float, float]:
    """Value with exactly ten items above it, and its percentile."""
    ordered = sorted(values)
    k = len(ordered) - 11
    if k < 0:
        raise BenchError(f"{len(ordered)} items are too few for a tail with ten beyond")
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(main: dict, setups: list[float]) -> tuple[dict, list[str]]:
    times = item_times(main["untraced"])
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(times), "s"),
        "item_p50_ms": (1e3 * statistics.median(times), "ms"),
        "item_tail_ms": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (main["peak_rss_kb"] / 1024.0, "MB"),
    }
    raw_walls = [sum(item_s) for item_s, _ in main["untraced"]]
    kernel = statistics.median(r for _, refs in main["untraced"] for r in refs)
    notes = [
        f"items per pass: {len(times)}; untraced passes: {len(raw_walls)}; "
        f"item_tail_ms is p{tail_pct:.1f} of the {len(times)} item times",
        "unscaled pass wall times (s): " + " ".join(f"{w:.4f}" for w in raw_walls),
        f"reference kernel: median {kernel:.6f} s, nominal {REF_NOMINAL_S} s",
        "set-up samples (s): " + " ".join(f"{s:.4f}" for s in setups),
    ]
    return metrics, notes


def _median_of(per_pass: list[dict], layer: str, key: str) -> float:
    return statistics.median(p.get(layer, {}).get(key, 0) for p in per_pass)


def per_layer(main: dict, imports: list[float], inputs: list[float]) -> dict:
    layers, counts = main["layers"], main["counts"][0]

    def time_of(layer):
        return _median_of(layers, layer, "self_s")

    def calls_of(layer):
        return layers[0].get(layer, {}).get("calls", 0)

    def count(layer, key):
        return counts.get(layer, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    oracle_s = time_of("mechanism.oracle")
    br_s = time_of("user_game.best_response_check")
    baseline_calls = calls_of("baseline.existing_equilibrium")
    solve_calls = calls_of("mechanism.solve")
    sim_s = time_of("sim.run")
    events = count("sim.run", "events")
    traced_wall = sum(item_times(main["traced"]))
    untraced_wall = sum(item_times(main["untraced"]))
    return {
        "mechanism.oracle_s": (oracle_s, "s"),
        "mechanism.oracle_cells": (count("mechanism.oracle", "cells"), "count"),
        "mechanism.oracle_cells_per_s": (
            ratio(count("mechanism.oracle", "cells"), oracle_s), "1/s"),
        "mechanism.solve_calls": (solve_calls, "count"),
        "mechanism.solve_us_per_call": (
            1e6 * ratio(time_of("mechanism.solve"), solve_calls), "us"),
        "user_game.sne_select_calls": (calls_of("user_game.sne_select"), "count"),
        "user_game.sne_select_s": (time_of("user_game.sne_select"), "s"),
        "user_game.br_s": (br_s, "s"),
        "user_game.br_points_per_s": (
            ratio(count("user_game.best_response_check", "points"), br_s), "1/s"),
        "baseline.calls": (baseline_calls, "count"),
        "baseline.s": (time_of("baseline.existing_equilibrium"), "s"),
        "baseline.iterations": (count("baseline.existing_equilibrium", "iterations"), "count"),
        "baseline.converged_frac": (
            ratio(count("baseline.existing_equilibrium", "converged"), baseline_calls), "1"),
        "checks.jain_calls": (calls_of("checks.jain_index"), "count"),
        "checks.jain_s": (time_of("checks.jain_index"), "s"),
        "checks.jain_elements": (count("checks.jain_index", "elements"), "count"),
        "checks.jain_bytes_computed": (8 * count("checks.jain_index", "elements"), "B"),
        "cli.sweep_points": (count("cli.sweep_rows", "points"), "count"),
        "cli.sweep_self_s": (time_of("cli.sweep_rows"), "s"),
        "cli.error_rows": (count("cli.sweep_rows", "error_rows"), "count"),
        "sim.run_s": (sim_s, "s"),
        "sim.replications": (count("sim.run", "replications"), "count"),
        "sim.events": (events, "count"),
        "sim.events_per_s": (ratio(events, sim_s), "1/s"),
        "sim.blocks_nonempty_frac": (
            ratio(count("sim.run", "blocks_nonempty"), count("sim.run", "blocks")), "1"),
        "sim.censored_frac": (
            ratio(count("sim.run", "censored"), count("sim.run", "generated")), "1"),
        "sim.users": (count("sim.run", "users"), "count"),
        "sim.ledger_bytes_computed": (count("sim.run", "ledger_bytes_computed"), "B"),
        "setup.import_s": (statistics.median(imports), "s"),
        "setup.inputs_s": (statistics.median(inputs), "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
    }


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "fwt" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {ROOT / 'src' / 'fwt'} is missing")
    deadline = time.monotonic() + TIME_LIMIT_S
    args = [workload, str(seed), repr(seconds), "1" if trace else "0"]
    started, main = spawn(args, deadline)
    processes = [(started, main)]
    for _ in range(SETUP_SAMPLES - 1):
        processes.append(spawn(args + ["--setup-only"], deadline))
    # set-up times at the reference kernel's nominal speed, like item times
    scaled = [[REF_NOMINAL_S * t / p["kernel_s"]
               for t in (p["ready"] - start, p["import_s"], p["inputs_s"])]
              for start, p in processes]
    setups, imports, inputs = (list(col) for col in zip(*scaled))

    if trace:
        metrics = per_layer(main, imports, inputs)
        notes = [f"traced passes: {len(main['traced'])}; untraced: {len(main['untraced'])}; "
                 f"spans written to {HERE.name}/out/"]
    else:
        metrics, notes = end_to_end(main, setups)
    for line in notes:
        print(line)
    attempted, failed = main["attempted"], main["failed"]
    print(f"failed_frac: {failed / attempted:.6g} ({failed} of {attempted} items)")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value!r} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
