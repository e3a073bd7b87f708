import csv
import importlib.util
import io
import json
from dataclasses import fields, replace
from pathlib import Path

import pytest

from fwt.checks import lemma1_profiles, run_suite
from fwt.cli import _PAPER_N_RANGE, _SWEEP_DEFAULTS, SWEEP_COLUMNS, sweep_rows
from fwt.cli import main as fwt_main
from fwt.mechanism import optimal_mechanism, unconstrained_optimum_oracle
from fwt.model import FeeMenu, SystemParams, TaxVector
from fwt.sim import SimConfig, run
from fwt.user_game import sne_select

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("flags", [[], ["--paper-scale"]], ids=["desk", "paper"])
def test_run_evaluation_sweeps_writes_sweep_rows(tmp_path, capsys, flags):
    """The script writes one CSV per axis, each the CSV of sweep_rows over
    the axis's default range (the paper-scale user range with the flag)."""
    script = _load_script("run_evaluation_sweeps")
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


def test_snapshot_outputs_writes_one_file_per_command(tmp_path, capsys, monkeypatch):
    """With its command list cut to one solve and the two hetero commands
    that reach past `solve_hetero.json`'s no-generation case, one check
    suite, one oracle point, two Stage-II cases, one Lemma-1 profile, the
    taxed optimal mechanism at the defaults and two failing argv, the script
    writes the solve JSON as `fwt solve` prints it, a hetero simulation in
    which type H generates, a `cost_ratio` sweep whose rows all carry the
    hetero error, the suite's pass flag and detail
    lines, the repr of every field of the oracle's result, the repr of every
    field of the selected equilibrium or what its selection raised, the repr
    of every simulator report field but the event log, and each failing
    argv's exit code and last stderr line as `fwt.cli.main` gives them."""
    monkeypatch.syspath_prepend(str(SCRIPTS))
    script = _load_script("snapshot_outputs")
    hetero = [(name, argv) for name, argv in script.COMMANDS
              if name in ("simulate_hetero.json", "sweep_cost_ratio_free_storage.csv")]
    assert len(hetero) == 2
    monkeypatch.setattr(script, "COMMANDS", [("solve.json", ["solve"])] + hetero)
    monkeypatch.setattr(script, "CHECKS", ["corollary2"])
    failing = [["solve", "--param", "bogus=1"], ["solve", "--param", "impatience=1e-36"]]
    monkeypatch.setattr(script, "FAILING", failing)
    monkeypatch.setattr(script, "ORACLE_POINTS", [("defaults", SystemParams())])
    labels = [case[0] for case in script.STAGE2_CASES]
    assert len(set(labels)) == len(labels)
    outcomes = []
    for _, menu, tax, params in script.STAGE2_CASES:
        try:
            outcomes.append(sne_select(menu, tax, params).sne_kind.value)
        except ValueError as exc:
            outcomes.append(str(exc))
    assert {"HighFeeSNE", "LowFeeSNE", "NoGeneration"} < set(outcomes)
    assert any(o.startswith("rates must be nonnegative and finite") for o in outcomes)
    low_fee = FeeMenu(rho_high=1.0, rho_low=SystemParams().system_storage_per_byte)
    nan_case = next(case for case in script.STAGE2_CASES if case[0] == "NaN rates")
    monkeypatch.setattr(script, "STAGE2_CASES",
                        [("low fee", low_fee, TaxVector.zero(), SystemParams()), nan_case])
    label, params, menu, profile = lemma1_profiles()[0]
    mech = optimal_mechanism(SystemParams())
    taxed = "optimal mechanism, taxed, defaults"
    assert script.SIM_CASES[-2] == (taxed, SystemParams(), mech.menu, mech.tax,
                                    mech.outcome.profile)
    assert script.SIM_CASES[-1][1] == SystemParams(n_users_high=1000, n_users_low=1000)
    monkeypatch.setattr(script, "SIM_CASES", [(label, params, menu, TaxVector.zero(), profile),
                                              script.SIM_CASES[-2]])
    assert script.main(["--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "check_corollary2.txt", "exit_codes.txt", "oracle.txt", "sim.txt",
        "simulate_hetero.json", "simulate_hetero_events.csv", "solve.json", "stage2.txt",
        "sweep_cost_ratio_free_storage.csv"]
    simulated = json.loads((tmp_path / "simulate_hetero.json").read_text())
    assert simulated["type_wait_mean"]["H"] > 0
    rows = list(csv.DictReader(io.StringIO(
        (tmp_path / "sweep_cost_ratio_free_storage.csv").read_text())))
    assert [row["error"] for row in rows] == [
        "requires cost_high >= cost_low > 0, got (0.0, 0.0)"] * 3
    o = sne_select(low_fee, TaxVector.zero(), SystemParams())
    assert (tmp_path / "stage2.txt").read_text().splitlines() == [
        f"low fee: profile={o.profile!r} sne_kind={o.sne_kind!r} fee_used={o.fee_used!r} "
        f"waiting_rate_high={o.waiting_rate_high!r} waiting_rate_low={o.waiting_rate_low!r} "
        f"payoff_high={o.payoff_high!r} payoff_low={o.payoff_low!r}",
        "NaN rates: raised ValueError: rates must be nonnegative and finite, got "
        "RatePair(rate_high=0.0, rate_low=nan)"]
    report = run(SimConfig(params=params, menu=menu, tax=TaxVector.zero(), profile=profile,
                           horizon=200.0, seed=1, replications=3))
    taxed_report = run(SimConfig(params=SystemParams(), menu=mech.menu, tax=mech.tax,
                                 profile=mech.outcome.profile, horizon=200.0, seed=1,
                                 replications=3))
    lines = (tmp_path / "sim.txt").read_text().splitlines()
    assert [line.split("=")[0] for line in lines] == [
        f"{case}: {f.name}" for case in (label, taxed)
        for f in fields(report) if f.name != "events"]
    assert f"{label}: welfare_mean={report.welfare_mean!r}" in lines
    assert f"{label}: user_wait_mean={report.user_wait_mean.tolist()!r}" in lines
    assert f"{label}: type_wait_mean={report.type_wait_mean!r}" in lines
    assert report.included_high > 0 and report.included_low > 0
    assert f"{taxed}: taxes_paid={taxed_report.taxes_paid!r}" in lines
    assert all(t != 0.0 for t in taxed_report.taxes_paid)
    r = unconstrained_optimum_oracle(SystemParams(), 50)
    assert (tmp_path / "oracle.txt").read_text() == (
        f"defaults: welfare={r.welfare!r} fee={r.fee!r} q_high={r.q_high!r} "
        f"q_low={r.q_low!r} rate_high_type={r.rate_high_type!r} "
        f"rate_low_type={r.rate_low_type!r}\n")
    assert fwt_main(["solve"]) == 0
    assert (tmp_path / "solve.json").read_text() + "\n" == capsys.readouterr().out
    codes = []
    for argv in failing:
        code = fwt_main(argv)
        last = capsys.readouterr().err.splitlines()[-1]
        codes.append(f"fwt {' '.join(argv)}: exit {code}: {last}")
    assert codes == [
        "fwt solve --param bogus=1: exit 2: invalid input: unknown parameter 'bogus'",
        "fwt solve --param impatience=1e-36: exit 3: internal error: ZeroDivisionError: "
        "float division by zero"]
    assert (tmp_path / "exit_codes.txt").read_text().splitlines() == codes
    suite = run_suite("corollary2")
    assert (tmp_path / "check_corollary2.txt").read_text().splitlines() == (
        [f"passed: {suite.passed}"] + suite.details)
