"""The benchmark in `perfbench/` reaches the program through module
attributes: its tracer wraps them and its workloads call them. A renamed
or deleted name, argument or result field breaks only benchmark runs, so
check here that every such name still resolves and that a few items of
each workload run and pass the workload's own checks.
`perfbench/spans.py` and `perfbench/workloads.py` are loaded from their
files and only read."""
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import fwt
import fwt.checks
import fwt.cli
import fwt.mechanism
import fwt.model
import fwt.sim
import fwt.user_game

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# names the workloads call directly, outside the traced layers
WORKLOAD_NAMES = [
    (fwt.checks, "prop2_draws"),
    (fwt.checks, "lemma1_profiles"),
    (fwt.model, "TaxVector"),
    (fwt.sim, "SimConfig"),
    (fwt.user_game, "waiting_rate"),
]

# the arguments the tracer's count functions read by name
COUNTED_ARGUMENTS = {
    "unconstrained_optimum_oracle": "grid_points",
    "best_response_check": "grid",
    "jain_index": "payoffs",
    "run": "config",
}


# items run per workload: the first sweep point, the first certify draw,
# and two replications of the first simulated group (the Student-t rule
# needs one degree of freedom)
WORKLOAD_ITEMS = {"sweep": 1, "certify": 1, "sim_long": 2, "sim_wide": 2}


def _load(name):
    """The perfbench module `name`, registered once (dataclasses look their
    module up in `sys.modules`)."""
    key = f"perfbench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module
        spec.loader.exec_module(module)
    return sys.modules[key]


def test_benchmark_targets_resolve():
    targets = _load("spans").layer_targets(fwt)
    assert targets
    for module, attr, _, _ in targets:
        fn = getattr(module, attr, None)
        assert callable(fn), f"{module.__name__}.{attr}"
        if attr in COUNTED_ARGUMENTS:
            assert COUNTED_ARGUMENTS[attr] in inspect.signature(fn).parameters, attr
    for module, attr in WORKLOAD_NAMES:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    assert callable(getattr(fwt.model.TaxVector, "zero", None))


@pytest.mark.parametrize("name", sorted(WORKLOAD_ITEMS))
def test_workload_items_run_and_pass_their_checks(name):
    """Every call the workload makes and every result field its checks
    read, at seed 1."""
    workload = _load("workloads").WORKLOADS[name](fwt, 1)
    workload.items = workload.items[:WORKLOAD_ITEMS[name]]
    groups = {item.group for item in workload.items}
    assert len(groups) == 1, groups
    results = [item.call() for item in workload.items]
    assert workload.check_pass(results) == [True] * len(results)
