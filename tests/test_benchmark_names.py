"""The benchmark in `perfbench/` reaches the program through module
attributes: its tracer wraps them and its workloads call them. A renamed
or deleted name breaks only traced benchmark runs, so check here that
every such name still resolves. `perfbench/spans.py` is loaded from its
file and only read."""
import importlib.util
import inspect
from pathlib import Path

import fwt
import fwt.checks
import fwt.cli
import fwt.mechanism
import fwt.model
import fwt.sim
import fwt.user_game

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

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


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_targets_resolve():
    targets = _load_spans().layer_targets(fwt)
    assert targets
    for module, attr, _, _ in targets:
        fn = getattr(module, attr, None)
        assert callable(fn), f"{module.__name__}.{attr}"
        if attr in COUNTED_ARGUMENTS:
            assert COUNTED_ARGUMENTS[attr] in inspect.signature(fn).parameters, attr
    for module, attr in WORKLOAD_NAMES:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    assert callable(getattr(fwt.model.TaxVector, "zero", None))
