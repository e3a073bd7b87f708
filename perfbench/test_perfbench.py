"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402
from spans import Tracer, layer_targets  # noqa: E402
from workloads import SIM_LONG_REPS, WORKLOADS, lemma1_rule  # noqa: E402

FWT = worker.import_fwt()
KERNEL = worker.ReferenceKernel()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _workload(name, seed=3, keep=None):
    workload = WORKLOADS[name](FWT, seed)
    if keep is not None:
        workload.items = workload.items[:keep]
    return workload


def _bench(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "sweep", "--seed", "0",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_metric_names_and_units_match_spec(trace, key):
    result = _bench(trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 80
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in SPEC[key]}


def _traced_counts(name, keep):
    workload = _workload(name, keep=keep)
    tracer = Tracer(FWT)
    with tracer.installed():
        worker.run_pass(workload, KERNEL, tracer)
    return {layer: dict(c) for layer, c in tracer.counts.items()}


@pytest.mark.parametrize("name,keep,layer,key", [
    ("certify", 1, "mechanism.oracle", "cells"),
    ("sim_long", 2, "sim.run", "events"),
    ("sim_wide", 2, "sim.run", "events"),
    ("sweep", None, "baseline.existing_equilibrium", "iterations"),
    ("sweep", None, "checks.jain_index", "elements"),
])
def test_exact_counts_repeat_at_one_seed(name, keep, layer, key):
    first = _traced_counts(name, keep)
    second = _traced_counts(name, keep)
    assert first[layer][key] > 0
    assert first == second


def test_oracle_cells_count_fee_pairs_times_grid_squared():
    counts = _traced_counts("certify", 1)
    gp = 50
    assert counts["mechanism.oracle"]["cells"] == gp * (gp - 1) // 2 * gp * gp


def _failures(workload, perturb=None):
    _, _, ok = worker.run_pass(workload, KERNEL, perturb=perturb)
    return [i for i, good in enumerate(ok) if not good]


def test_sweep_check_counts_a_perturbed_row():
    workload = _workload("sweep")
    assert _failures(workload) == []

    def lower_welfare(results):
        row = results[5][0]
        row["fwt_welfare"] = row["existing_welfare"] - 1e-6 * abs(row["existing_welfare"]) - 1e-12

    assert _failures(workload, lower_welfare) == [5]


def test_certify_check_counts_a_perturbed_draw():
    workload = _workload("certify", keep=1)
    assert _failures(workload) == []

    def wrong_case(results):
        results[0].case = 2

    assert _failures(workload, wrong_case) == [0]


def test_sim_checks_count_a_broken_ledger_and_a_biased_wait():
    workload = _workload("sim_long", keep=SIM_LONG_REPS)
    assert _failures(workload) == []

    def unbalanced_fees(results):
        results[2].fees_credited = [f + 1.0 for f in results[2].fees_credited]

    assert _failures(workload, unbalanced_fees) == [2]

    def slow_queue(results):
        for r in results:
            r.type_wait_mean = {t: 1.3 * w for t, w in r.type_wait_mean.items()}

    assert _failures(workload, slow_queue) == list(range(len(workload.items)))


def test_lemma1_rule_zero_wait_must_be_exact():
    assert lemma1_rule(0.0, [0.0, 0.0], 10.0)
    assert not lemma1_rule(0.0, [0.0, 1e-9], 10.0)


def _originals():
    return {(m.__name__, a): getattr(m, a) for m, a, _, _ in layer_targets(FWT)}


def test_functions_are_unwrapped_after_a_traced_pass():
    before = _originals()
    tracer = Tracer(FWT)
    with tracer.installed():
        # functools.wraps marks each wrapper with __wrapped__
        assert all(hasattr(f, "__wrapped__") for f in _originals().values())
        worker.run_pass(_workload("sweep", keep=3), KERNEL, tracer)
    assert _originals() == before
    assert not any(hasattr(f, "__wrapped__") for f in before.values())
    assert tracer.spans and all(span[4] is not None for span in tracer.spans)


def test_functions_are_unwrapped_when_a_traced_pass_raises():
    before = _originals()
    with pytest.raises(RuntimeError):
        with Tracer(FWT).installed():
            raise RuntimeError("item failed")
    assert _originals() == before


def test_self_time_excludes_child_spans():
    tracer = Tracer(FWT)
    tracer.spans = [("outer", 0.0, 10.0, -1, "a"), ("inner", 2.0, 5.0, 0, "a"),
                    ("inner", 6.0, 7.0, 0, "a")]
    assert tracer.self_times() == {0: 6.0, 1: 3.0, 2: 1.0}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
