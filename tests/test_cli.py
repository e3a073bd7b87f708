import csv
import io
import json
import math

import pytest

from fwt.checks import jain_index
from fwt.cli import SWEEP_COLUMNS, main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_jain_index_examples():
    assert jain_index([3.0, 3.0, 3.0]) == 1.0
    assert jain_index([1.0, 0.0]) == pytest.approx(0.5)
    assert math.isnan(jain_index([0.0, 0.0]))
    with pytest.raises(ValueError):
        jain_index([])


def test_solve_defaults(capsys):
    code, out, _ = run_cli(["solve"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["mechanism"]["case"] == 2
    assert doc["mechanism"]["rho_low"] == 5e-6
    assert doc["outcome"]["sne_kind"] == "LowFeeSNE"
    assert doc["sufficient_fee"]["satisfied"] is True
    assert doc["welfare"]["total"] > 0


def test_solve_param_override_and_validation(capsys):
    code, out, _ = run_cli(["solve", "--param", "impatience=1e-4"], capsys)
    assert code == 0
    code, _, err = run_cli(["solve", "--param", "block_rate=0"], capsys)
    assert code == 2
    assert "block_rate must be positive" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_solve_rejects_non_finite_param(value, capsys):
    code, out, err = run_cli(["solve", "--param", f"utility_low={value}"], capsys)
    assert code == 2
    assert out == ""
    assert "utility_low must be finite" in err


def test_solve_bad_param_syntax(capsys):
    code, _, err = run_cli(["solve", "--param", "nonsense"], capsys)
    assert code == 2


def test_solve_hetero_ratio(capsys):
    code, out, _ = run_cli(["solve", "--hetero", "ratio=10"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["mechanism"]["rho_low"] == pytest.approx(2.75e-5, rel=1e-12)


def test_solve_uniform_tax_split(capsys):
    code, out, _ = run_cli(["solve", "--tax-split", "uniform"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["mechanism"]["P_HH"] == doc["mechanism"]["P_HL"]


def test_solve_config_file(tmp_path, capsys):
    cfg = tmp_path / "params.cfg"
    cfg.write_text("impatience = 2e-4\nn_users_high = 50\n# comment\n")
    code, out, _ = run_cli(["solve", "--config", str(cfg)], capsys)
    assert code == 0
    code2, _, err = run_cli(["solve", "--config", str(tmp_path / "missing.cfg")],
                            capsys)
    assert code2 == 2


def test_sweep_gamma_csv(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(["sweep", "--axis", "gamma", "--steps", "4",
                          "--out", str(out_path)], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out_path.read_text())))
    assert len(rows) == 4
    assert list(rows[0]) == SWEEP_COLUMNS
    assert SWEEP_COLUMNS[-3:] == ["error", "existing_converged", "existing_cycle_len"]
    assert all(r["error"] == "" for r in rows)
    # the baseline reports how it ended: a fixed point is a 1-cycle
    for r in rows:
        assert r["existing_converged"] in ("True", "False")
        assert int(r["existing_cycle_len"]) >= 0
        assert (r["existing_converged"] == "True") == (r["existing_cycle_len"] == "1")
    # every row re-derivable: welfare positive, bound constant
    for r in rows:
        assert float(r["storage_bound"]) == 5e-6
        assert float(r["fwt_welfare"]) >= float(r["existing_welfare"]) - 1e-12


def test_sweep_rows_rederivable_by_solve(capsys):
    """Spot-check: sweep rows equal solve runs at those parameter points."""
    code, out, _ = run_cli(["sweep", "--axis", "r_high", "--steps", "5",
                            "--range", "1e-3:2e-3"], capsys)
    assert code == 0
    for row in csv.DictReader(io.StringIO(out)):
        code, out2, _ = run_cli(["solve", "--param", f"utility_high={row['value']}",
                                 "--param", f"utility_low={float(row['value'])/2}"],
                                capsys)
        doc = json.loads(out2)
        assert float(row["fwt_welfare"]) == pytest.approx(doc["welfare"]["total"],
                                                          rel=1e-12)
        assert float(row["fwt_payoff_h"]) == pytest.approx(
            doc["outcome"]["payoff"]["H"], rel=1e-12)

    code, out, _ = run_cli(["sweep", "--axis", "gamma", "--steps", "5"], capsys)
    for row in csv.DictReader(io.StringIO(out)):
        code, out2, _ = run_cli(["solve", "--param", f"impatience={row['value']}"],
                                capsys)
        doc = json.loads(out2)
        assert float(row["fwt_welfare"]) == pytest.approx(doc["welfare"]["total"],
                                                          rel=1e-12)


@pytest.mark.parametrize("bad", [
    ["--range", "oops"],
    ["--range", "0:nan"],
    ["--range", "0:inf"],
    ["--range=-inf:1e-3"],
    ["--steps", "0"],
    ["--steps", "-3"],
], ids=["syntax", "nan", "inf", "minus-inf", "zero-steps", "negative-steps"])
def test_sweep_bad_range(bad, capsys):
    code, out, err = run_cli(["sweep", "--axis", "gamma"] + bad, capsys)
    assert code == 2
    assert out == ""
    assert "invalid input" in err


def test_sweep_cost_ratio(capsys):
    code, out, _ = run_cli(["sweep", "--axis", "cost_ratio", "--steps", "3",
                            "--param", "utility_high=4e-3",
                            "--param", "utility_low=2e-3"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    bounds = [float(r["storage_bound"]) for r in rows]
    assert bounds[0] == pytest.approx(5e-6)
    assert bounds[-1] == pytest.approx(2.75e-5)
    # baseline play is ratio-independent
    fees = {r["existing_avg_fee"] for r in rows}
    assert len(fees) == 1


def test_sweep_payoffs_decrease_in_user_count(capsys):
    code, out, _ = run_cli(["sweep", "--axis", "n_users", "--steps", "5",
                            "--range", "100:1000"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    for key in ("fwt_payoff_h", "fwt_payoff_l", "existing_payoff_h"):
        vals = [float(r[key]) for r in rows]
        assert all(b < a for a, b in zip(vals, vals[1:])), key


def test_simulate_short_run(tmp_path, capsys):
    events = tmp_path / "events.csv"
    code, out, _ = run_cli(["simulate", "--horizon", "120", "--replications", "2",
                            "--seed", "5", "--events", str(events)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["replications"] == 2
    assert doc["fees_debited"] == doc["fees_credited"]
    assert events.read_text().startswith("time,event_type")


def test_simulate_deterministic(capsys):
    args = ["simulate", "--horizon", "100", "--replications", "2", "--seed", "3"]
    code1, out1, _ = run_cli(args, capsys)
    code2, out2, _ = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_check_corollary2_passes(capsys):
    code, out, _ = run_cli(["check", "corollary2"], capsys)
    assert code == 0
    assert out.startswith("PASS corollary2")


def test_check_miner_ne_small_budget(capsys):
    code, out, _ = run_cli(["check", "miner_ne", "--budget", "40"], capsys)
    assert code == 0
    assert "40/40 random pools passed" in out


def test_check_unknown_suite_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["check", "not_a_suite"])
