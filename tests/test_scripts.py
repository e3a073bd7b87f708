import csv
import importlib.util
import io
from dataclasses import replace
from pathlib import Path

import pytest

from fwt.cli import _PAPER_N_RANGE, _SWEEP_DEFAULTS, SWEEP_COLUMNS, sweep_rows
from fwt.model import SystemParams

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_evaluation_sweeps.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("run_evaluation_sweeps", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("flags", [[], ["--paper-scale"]], ids=["desk", "paper"])
def test_run_evaluation_sweeps_writes_sweep_rows(tmp_path, capsys, flags):
    """The script writes one CSV per axis, each the CSV of sweep_rows over
    the axis's default range (the paper-scale user range with the flag)."""
    script = _load_script()
    script.main(["--out-dir", str(tmp_path)] + flags)
    capsys.readouterr()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"sweep_{axis}.csv" for axis in _SWEEP_DEFAULTS)
    for axis, steps in script.STEPS.items():
        lo, hi = _PAPER_N_RANGE if axis == "n_users" and flags else _SWEEP_DEFAULTS[axis]
        params = SystemParams()
        if axis == "cost_ratio":
            params = replace(params, utility_high=4e-3, utility_low=2e-3)
        buf = io.StringIO(newline="")
        writer = csv.DictWriter(buf, fieldnames=SWEEP_COLUMNS, restval="")
        writer.writeheader()
        writer.writerows(sweep_rows(params, axis, lo, hi, steps))
        with (tmp_path / f"sweep_{axis}.csv").open(newline="") as fh:
            assert fh.read() == buf.getvalue()
