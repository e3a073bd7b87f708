import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings

import fwt.cli
import fwt.mechanism
from fwt.checks import SUITES, CheckResult, check_lemma1, criterion_grid, jain_index
from fwt.cli import SWEEP_COLUMNS, main, sweep_rows
from fwt.model import SystemParams, validate_params
from fwt.queue import InvariantError

from conftest import valid_params


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_jain_index_examples():
    assert jain_index([3.0, 3.0], [2, 5]) == 1.0
    assert jain_index([1.0, 0.0], [1, 1]) == pytest.approx(0.5)
    assert jain_index([2.0, 1.0], [1, 2]) == pytest.approx(16 / 18)
    assert math.isnan(jain_index([0.0, 0.0], [1, 1]))
    with pytest.raises(ValueError):
        jain_index([], [])
    with pytest.raises(ValueError):
        jain_index([1.0, 2.0], [1])


@pytest.mark.parametrize("argv", [
    ("n_users", 200, 200, 1), ("n_users", 537_000, 537_000, 1), ("gamma", 0.0, 0.0, 1),
    ("gamma", 1e-5, 1e-3, 7), ("r_high", 5e-4, 3e-3, 7)],
    ids=["200", "537000", "gamma0", "gamma", "r_high"])
def test_sweep_jain_at_most_one_and_near_exact(argv):
    """Each Jain column is at most 1 and within 1e-15 of the index computed
    exactly from the row's payoffs (NaN where every payoff is 0)."""
    params = SystemParams()
    for row in sweep_rows(params, *argv):
        assert row["error"] == ""
        if argv[0] == "n_users":
            n_h = n_l = round(argv[1] / 2)
        else:
            n_h, n_l = params.n_users_high, params.n_users_low
        for prefix in ("fwt", "existing"):
            u_h = Fraction(row[f"{prefix}_payoff_h"])
            u_l = Fraction(row[f"{prefix}_payoff_l"])
            jain = row[f"{prefix}_jain"]
            if u_h == u_l == 0:
                assert math.isnan(jain)
                continue
            total = n_h * u_h + n_l * u_l
            exact = total ** 2 / ((n_h + n_l) * (n_h * u_h ** 2 + n_l * u_l ** 2))
            assert jain <= 1.0, (argv, row)
            assert abs(Fraction(jain) - exact) <= Fraction(1, 10 ** 15) * exact, (argv, row)


@pytest.mark.parametrize("n_users", [0, 1])
def test_sweep_n_users_below_two_is_an_error_row(n_users):
    """A point that leaves a type without users lands in `error` under its
    own label; it is not solved at N = 2."""
    (row,) = sweep_rows(SystemParams(), "n_users", n_users, n_users, 1)
    assert row["value"] == n_users
    assert "n_users_high must be >= 1" in row["error"]
    assert "fwt_welfare" not in row


SOLVE_AND_SWEEP = pytest.mark.parametrize(
    "argv", [["solve"], ["sweep", "--axis", "gamma", "--steps", "2"]], ids=["solve", "sweep"])


@SOLVE_AND_SWEEP
@pytest.mark.parametrize("error", [InvariantError, ValueError, KeyError, ZeroDivisionError,
                                   OSError])
def test_internal_error_exits_3(capsys, monkeypatch, argv, error):
    """Any exception but `InvalidInput` is a fault of the program, even a
    `ValueError`, or an `OSError` away from --config and --out: exit 3 with
    one line naming its type, and a sweep stops instead of writing a row."""
    exc = error("negative square-root argument on an active branch")

    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(fwt.cli, "optimal_mechanism", broken)
    code, out, err = run_cli(argv, capsys)
    assert code == 3
    assert out == ""
    assert err == f"internal error: {error.__name__}: {exc}\n"


def test_sweep_point_fault_exits_3_with_nothing_on_stdout(capsys):
    """At gamma = 5e-37 the closed form cancels to a division by zero: the
    sweep stops with exit 3 instead of writing an `error` row."""
    code, out, err = run_cli(["sweep", "--axis", "gamma", "--range", "0:1e-36",
                              "--steps", "3"], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("internal error: ZeroDivisionError: ")
    assert len(err.splitlines()) == 1


@settings(max_examples=100, deadline=None)
@given(params=valid_params())
@example(params=SystemParams(impatience=1e-36))     # a ZeroDivisionError escaped: exit 1
@example(params=SystemParams(block_rate=1e308))     # the same
@example(params=SystemParams(mean_tx_size=1e-320))  # FeeMenu's ValueError read as exit 2
def test_solve_on_valid_params_is_a_result_or_an_internal_error(params):
    """Once `validate_params` accepts a point, `fwt solve` prints a result
    (exit 0) or reports a fault of the program in one line (exit 3): never
    a failed check (1), never invalid input (2), never a traceback."""
    assert validate_params(params) == []
    argv = ["solve"]
    for field in fields(SystemParams):
        if field.name != "mining_power":
            argv += ["--param", f"{field.name}={getattr(params, field.name)!r}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 3), (code, err.getvalue())
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert out.getvalue() == ""
        assert re.fullmatch(r"internal error: \w+: [^\n]*\n", err.getvalue())


@SOLVE_AND_SWEEP
def test_seed_rejected_where_nothing_is_random(capsys, argv):
    """--seed belongs to simulate and check; solve and sweep reject it."""
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "1"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "unrecognized arguments: --seed 1" in captured.err


@pytest.mark.parametrize("command", [["simulate"], ["check", "lemma1"]],
                         ids=["simulate", "check"])
@pytest.mark.parametrize("seed", ["-1", "1.5"])
def test_negative_or_fractional_seed_rejected(capsys, command, seed):
    assert run_cli(command + ["--seed", seed], capsys) == (
        2, "", "invalid input: --seed must be a non-negative integer\n")


def test_solve_defaults(capsys):
    code, out, _ = run_cli(["solve"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["mechanism"]["case"] == 2
    assert doc["mechanism"]["rho_low"] == 5e-6
    assert doc["outcome"]["sne_kind"] == "LowFeeSNE"
    assert doc["sufficient_fee"]["satisfied"] is True
    assert doc["welfare"]["total"] > 0


class _ClosedStdout(io.StringIO):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        super().__init__()
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


def test_closed_stdout_exits_141_silently(tmp_path, capsys, monkeypatch):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedStdout(fd))
        assert main(["solve"]) == 141
    finally:
        os.close(fd)
    assert capsys.readouterr().err == ""


def test_closed_pipe_exits_141_silently():
    """`fwt solve | head -c0`: the reader closes the pipe before the write,
    buffered or not; a flush failing at exit would print to stderr."""
    src = Path(__file__).resolve().parents[1] / "src"
    for unbuffered in ("1", ""):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED=unbuffered)
        proc = subprocess.Popen([sys.executable, "-m", "fwt.cli", "solve"], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert err == b""


def test_out_path_in_missing_directory_is_invalid_input(tmp_path, capsys):
    """An --out or --events path is the user's, checked where it is opened."""
    missing = str(tmp_path / "no" / "x")
    for argv in (["solve", "--out", missing],
                 ["simulate", "--horizon", "50", "--replications", "2", "--events", missing]):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("invalid input:")


@pytest.mark.parametrize("argv", [
    ["simulate", "--events", "{missing}"],
    ["simulate", "--out", "{missing}"],
    ["sweep", "--axis", "gamma", "--out", "{missing}"],
    ["check", "corollary2", "--out", "{missing}"],
], ids=["simulate-events", "simulate-out", "sweep", "check"])
def test_out_path_in_missing_directory_is_refused_before_the_work(tmp_path, capsys,
                                                                  monkeypatch, argv):
    """The path is checked before anything is solved or simulated, with the
    message that writing it would give."""
    def never(*args, **kwargs):
        raise AssertionError("ran the work before checking the output path")

    for name in ("run_sim", "optimal_mechanism", "sweep_rows", "run_suite"):
        monkeypatch.setattr(fwt.cli, name, never)
    missing = str(tmp_path / "no" / "x.csv")
    code, out, err = run_cli([a.replace("{missing}", missing) for a in argv], capsys)
    assert (code, out) == (2, "")
    assert err == f"invalid input: [Errno 2] No such file or directory: {missing!r}\n"


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
    assert run_cli(["solve", "--param", "nonsense"], capsys) == (
        2, "", "invalid input: override must be key=value, got 'nonsense'\n")


def test_solve_hetero_ratio(capsys):
    """Half of the miners at each tier: `ratio=10` prints, byte for byte,
    the solve at the mean storage cost 0.5 * 10 * C_s + 0.5 * C_s."""
    code, out, _ = run_cli(["solve", "--hetero", "ratio=10"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["mechanism"]["rho_low"] == pytest.approx(2.75e-5, rel=1e-12)
    c_s = SystemParams().storage_cost_per_byte
    mean = 0.5 * (10 * c_s) + 0.5 * c_s
    assert out == run_cli(["solve", "--param", f"storage_cost_per_byte={mean!r}"], capsys)[1]


@pytest.mark.parametrize("spec", ["cost_low=1e-9", "ratio=2,split=0.5",
                                  "ratio=2,cost_low=1e-9", "ratio", "split=0.5", "ratio=abc",
                                  "ratio=nan", "ratio=-inf", "ratio=1e400"])
def test_hetero_takes_ratio_only(capsys, spec):
    """Anything but `ratio=` and a finite number is refused by the parser."""
    assert run_cli(["solve", "--hetero", spec], capsys) == (
        2, "", f"invalid input: --hetero takes ratio=<x>, got {spec!r}\n")


def test_hetero_overflowing_high_tier_is_refused_by_the_tier_check(capsys):
    """A finite ratio whose high tier overflows is refused where the tiers
    are formed, in `solve` and in a `cost_ratio` sweep row, not blamed on
    C_s once their mean is inf."""
    message = "requires a finite cost_high = ratio * cost_low, got 1e+308 * 2.0"
    c_s = ["--param", "storage_cost_per_byte=2"]
    assert run_cli(["solve", "--hetero", "ratio=1e308"] + c_s, capsys) == (
        2, "", f"invalid input: {message}\n")
    code, out, err = run_cli(["sweep", "--axis", "cost_ratio", "--range", "1:1e308",
                              "--steps", "2"] + c_s, capsys)
    assert (code, err) == (0, "")
    assert [row["error"] for row in csv.DictReader(io.StringIO(out))] == ["", message]


@pytest.mark.parametrize("ratio, params", [
    ("0.5", []), ("-1", []), ("inf", []), ("5", ["--param", "storage_cost_per_byte=0"])],
    ids=["below_one", "negative", "infinite", "free_storage"])
def test_hetero_invalid_input_reads_the_same_on_every_command(capsys, ratio, params):
    """A ratio below 1, a non-finite one, or C_s = 0 (no cheaper tier) gives
    one exit code and message through `solve` and `simulate`, and the same
    message in the `error` cell of a `cost_ratio` sweep row. An infinite
    ratio makes no row: `--range` takes finite bounds only."""
    code, out, err = run_cli(["solve", "--hetero", f"ratio={ratio}"] + params, capsys)
    assert (code, out) == (2, "") and err.startswith("invalid input: ")
    assert run_cli(["simulate", "--hetero", f"ratio={ratio}"] + params, capsys) == (
        code, out, err)
    sweep_code, sweep_out, sweep_err = run_cli(
        ["sweep", "--axis", "cost_ratio", f"--range={ratio}:{ratio}", "--steps", "1"] + params,
        capsys)
    if ratio == "inf":
        assert (sweep_code, sweep_out, sweep_err) == (
            2, "", "invalid input: bad --range 'inf:inf', bounds must be finite\n")
        return
    assert (sweep_code, sweep_err) == (0, "")
    (row,) = csv.DictReader(io.StringIO(sweep_out))
    assert f"invalid input: {row['error']}\n" == err


def test_param_overrides_config_key(tmp_path, capsys):
    cfg = tmp_path / "params.cfg"
    cfg.write_text("impatience = 2e-4\n")
    code, out, _ = run_cli(["solve", "--config", str(cfg), "--param", "impatience=1e-4"],
                           capsys)
    assert code == 0
    assert out == run_cli(["solve", "--param", "impatience=1e-4"], capsys)[1]
    assert out != run_cli(["solve", "--config", str(cfg)], capsys)[1]


def test_param_and_config_keys_combine(tmp_path, capsys):
    cfg = tmp_path / "params.cfg"
    cfg.write_text("impatience = 2e-4\n")
    code, out, _ = run_cli(["solve", "--config", str(cfg), "--param", "n_users_high=50"],
                           capsys)
    assert code == 0
    both = run_cli(["solve", "--param", "impatience=2e-4", "--param", "n_users_high=50"],
                   capsys)[1]
    assert out == both
    assert out != run_cli(["solve", "--config", str(cfg)], capsys)[1]
    assert out != run_cli(["solve", "--param", "n_users_high=50"], capsys)[1]


@pytest.mark.parametrize("config, param, message", [
    ("impatience = 2e-4\n", "nonsense", "override must be key=value, got 'nonsense'"),
    (None, "bogus=1", "unknown parameter 'bogus'"),
    ("bogus = 1\n", None, "unknown parameter 'bogus'"),
    ("bogus = 1\n", "impatience=1e-4", "unknown parameter 'bogus'"),
    (None, "impatience=abc", "could not convert string to float: 'abc'"),
    ("impatience = abc\n", None, "could not convert string to float: 'abc'"),
], ids=["param_no_equals_with_config", "param_unknown_key",
        "config_unknown_key", "config_unknown_key_with_param", "param_bad_value",
        "config_bad_value"])
def test_parameter_sources_reject_bad_items(tmp_path, capsys, config, param, message):
    argv = ["solve"]
    if config is not None:
        cfg = tmp_path / "params.cfg"
        cfg.write_text(config)
        argv += ["--config", str(cfg)]
    if param is not None:
        argv += ["--param", param]
    assert run_cli(argv, capsys) == (2, "", f"invalid input: {message}\n")


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


def test_unreadable_config_is_invalid_input(tmp_path, capsys):
    """A --config file that is missing, a directory or not UTF-8 text is the
    user's mistake, reported where the file is opened."""
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"impatience = \xff\n")
    for path in (tmp_path / "missing.cfg", tmp_path, binary):
        code, out, err = run_cli(["solve", "--config", str(path)], capsys)
        assert (code, out) == (2, ""), path
        assert err.startswith("invalid input:") and len(err.splitlines()) == 1, err


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


@pytest.mark.parametrize("argv", [
    ["--axis", "gamma", "--paper-scale", "--steps", "2"],
    ["--axis", "n_users", "--paper-scale", "--range", "50:60"],
], ids=["other-axis", "with-range"])
def test_sweep_paper_scale_misuse_rejected(argv, capsys):
    """--paper-scale sets the n_users range, so it is invalid on another
    axis or next to --range instead of being ignored."""
    code, out, err = run_cli(["sweep"] + argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("invalid input:")


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


def test_sweep_cost_ratio_below_one_is_an_error_row(capsys):
    """A ratio below 1 is a point's invalid input: it lands in `error`, as
    the message alone, and the sweep exits 0."""
    code, out, err = run_cli(["sweep", "--axis", "cost_ratio", "--range", "0.5:2",
                              "--steps", "2"], capsys)
    assert (code, err) == (0, "")
    low, high = csv.DictReader(io.StringIO(out))
    assert low["error"] == "requires cost_high >= cost_low > 0, got (2.5e-10, 5e-10)"
    assert low["fwt_welfare"] == ""
    assert high["error"] == "" and float(high["fwt_welfare"]) > 0


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


@pytest.mark.parametrize("horizon", ["inf", "0", "nan"])
def test_simulate_rejects_bad_horizon(capsys, horizon):
    code, out, err = run_cli(["simulate", "--horizon", horizon, "--replications", "1"],
                             capsys)
    assert code == 2
    assert out == ""
    assert "horizon" in err


@pytest.mark.parametrize("option, value, message", [
    ("--warmup", "0.9", "warmup must be in [0, 0.5]"),
    ("--warmup", "nan", "warmup must be in [0, 0.5]"),
    ("--replications", "0", "need at least one replication"),
], ids=["warmup-0.9", "warmup-nan", "replications-0"])
def test_simulate_options_checked_by_sim_config_are_invalid_input(capsys, option, value,
                                                                   message):
    """`SimConfig` checks these options for the CLI, so they stay exit 2."""
    assert run_cli(["simulate", option, value], capsys) == (
        2, "", f"invalid input: {message}\n")


def test_simulate_deterministic(capsys):
    args = ["simulate", "--horizon", "100", "--replications", "2", "--seed", "3"]
    code1, out1, _ = run_cli(args, capsys)
    code2, out2, _ = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("tax_split", ["fairness", "uniform"])
@pytest.mark.parametrize("argv", [
    ["solve"], ["solve", "--hetero", "ratio=5"], ["sweep", "--axis", "gamma", "--steps", "1"],
    ["simulate", "--horizon", "50", "--replications", "2"]],
    ids=["solve", "solve_hetero", "sweep", "simulate"])
def test_one_stage_two_solve_per_point(capsys, monkeypatch, argv, tax_split):
    """The mechanism's own solve is the only Stage-II solve of a point (the
    sweep is a one-point `sweep_rows`)."""
    calls = []
    sne_select = fwt.mechanism.sne_select
    monkeypatch.setattr(fwt.mechanism, "sne_select",
                        lambda *args: calls.append(args) or sne_select(*args))
    code, _, _ = run_cli(argv + ["--tax-split", tax_split], capsys)
    assert code == 0
    assert len(calls) == 1


def test_check_corollary2_passes(capsys):
    code, out, _ = run_cli(["check", "corollary2"], capsys)
    assert code == 0
    assert out.startswith("PASS corollary2")


@pytest.mark.parametrize("fail", [False, True], ids=["passing", "failing"])
def test_check_lemma1_prints_verdict_and_suite_details(capsys, monkeypatch, fail):
    """`fwt check lemma1` prints `PASS|FAIL lemma1 (<s>s)`, then the suite's
    detail lines indented by two spaces, and exits 1 exactly on FAIL. The
    failing case replaces the suite by a failed one, so its exit 1 does not
    rest on a chance miss of the simulator."""
    if fail:
        suite = CheckResult(passed=False, details=["BAD profile [H]: measured off"])
        monkeypatch.setitem(SUITES, "lemma1", (lambda **kw: suite, "replications", "seed"))
    else:
        suite = check_lemma1(replications=2, seed=0)
    code, out, _ = run_cli(["check", "lemma1", "--budget", "2", "--seed", "0"], capsys)
    status, *details = out.splitlines()
    verdict = "PASS" if suite.passed else "FAIL"
    assert re.fullmatch(rf"{verdict} lemma1 \(\d+\.\ds\)", status), status
    assert details == ["  " + d for d in suite.details]
    assert code == (0 if suite.passed else 1)


def test_check_miner_ne_small_budget(capsys):
    code, out, _ = run_cli(["check", "miner_ne", "--budget", "40", "--seed", "3"], capsys)
    assert code == 0
    assert "40/40 random pools passed" in out


def test_check_unknown_suite_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["check", "not_a_suite"])


@pytest.mark.parametrize("argv", [
    ["miner_ne", "--budget", "-1"],
    ["miner_ne", "--budget", "0"],
    ["prop2", "--budget", "1"],     # a one-fee grid holds no menu
    ["user_ne", "--budget", "1"],   # one NoGeneration point certifies nothing
    ["lemma1", "--budget", "1"],    # one replication forms no interval
    ["fairness", "--budget", "1"],  # one point, where nobody generates
], ids=["negative", "zero", "one_fee", "one_user_ne_point", "one_replication",
        "one_fairness_point"])
def test_check_rejects_degenerate_budget(capsys, argv):
    code, out, err = run_cli(["check"] + argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("invalid input:")


@pytest.mark.parametrize("suite, option", [
    ("user_ne", "seed"),
    ("fairness", "seed"),
    ("corollary2", "seed"),
    ("corollary2", "budget"),
])
def test_check_rejects_option_the_suite_ignores(capsys, suite, option):
    """A suite that draws no random numbers takes no --seed, and corollary2
    has no sample budget: the option would change nothing, so it is an
    input error rather than a silent no-op, even at its former default."""
    value = {"seed": "0", "budget": "7"}[option]
    assert run_cli(["check", suite, f"--{option}", value], capsys) == (
        2, "", f"invalid input: check suite {suite!r} takes no {option}\n")


def _key_paths(doc, prefix=""):
    """Leaf key paths in document order; a list is one leaf, `key[length]`."""
    for key, value in doc.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from _key_paths(value, path + ".")
        elif isinstance(value, list):
            yield f"{path}[{len(value)}]"
        else:
            yield path


SOLVE_KEY_PATHS = [
    "mechanism.rho_high", "mechanism.rho_low", "mechanism.P_HH", "mechanism.P_HL",
    "mechanism.P_LH", "mechanism.P_LL", "mechanism.q_H", "mechanism.q_L",
    "mechanism.case", "mechanism.negative_entries",
    "outcome.sne_kind", "outcome.fee_used",
    "outcome.rates.H.rate_high", "outcome.rates.H.rate_low",
    "outcome.rates.L.rate_high", "outcome.rates.L.rate_low",
    "outcome.waiting_rate.H", "outcome.waiting_rate.L", "outcome.payoff.H", "outcome.payoff.L",
    "welfare.total", "welfare.user_sum", "welfare.miner_sum", "welfare.payoff_high",
    "welfare.payoff_low", "welfare.avg_fee_per_byte",
    "sufficient_fee.avg_fee_per_byte", "sufficient_fee.bound", "sufficient_fee.satisfied",
]

SIMULATE_KEY_PATHS = [
    "replications", "horizon", "warmup",
    "user_wait_mean[200]", "user_wait_ci[200]", "user_payoff_mean[200]", "user_payoff_ci[200]",
    "type_wait_mean.H", "type_wait_mean.L", "type_wait_ci.H", "type_wait_ci.L",
    "type_payoff_mean.H", "type_payoff_mean.L", "type_payoff_ci.H", "type_payoff_ci.L",
    "welfare_mean", "welfare_ci",
    "fees_debited[2]", "fees_credited[2]", "taxes_paid[2]", "taxes_received[2]",
    "blocks_total[2]", "blocks_empty[2]",
    "tx_counts.included_high", "tx_counts.included_low",
    "tx_counts.generated_high", "tx_counts.generated_low",
    "censored.count", "censored.wait",
]


def test_output_shapes(tmp_path, capsys):
    """The key paths of the solve and simulate JSON, in order, and the
    headers of the event-log and sweep CSVs."""
    code, out, _ = run_cli(["solve"], capsys)
    assert code == 0
    assert list(_key_paths(json.loads(out))) == SOLVE_KEY_PATHS
    events = tmp_path / "events.csv"
    code, out, _ = run_cli(["simulate", "--replications", "2", "--horizon", "200",
                            "--events", str(events)], capsys)
    assert code == 0
    assert list(_key_paths(json.loads(out))) == SIMULATE_KEY_PATHS
    assert events.read_text().splitlines()[0] == (
        "time,event_type,user_id,tx_index,fee_per_byte,block_id,winner_miner")
    code, out, _ = run_cli(["sweep", "--axis", "gamma", "--steps", "1"], capsys)
    assert code == 0
    assert out.splitlines()[0] == (
        "axis,value,fwt_avg_fee,existing_avg_fee,storage_bound,"
        "fwt_welfare,existing_welfare,improvement_pct,"
        "fwt_payoff_h,fwt_payoff_l,existing_payoff_h,existing_payoff_l,"
        "fwt_jain,existing_jain,error,existing_converged,existing_cycle_len")


# The solve JSON fields that may hold a non-finite number (README, "Solve JSON").
SOLVE_NON_FINITE = {"outcome.waiting_rate.H", "outcome.waiting_rate.L",
                    "welfare.avg_fee_per_byte", "sufficient_fee.avg_fee_per_byte"}


def _non_finite_paths(doc, prefix=""):
    if isinstance(doc, list):
        for value in doc:
            yield from _non_finite_paths(value, f"{prefix}[].")
    elif isinstance(doc, dict):
        for key, value in doc.items():
            yield from _non_finite_paths(value, f"{prefix}{key}.")
    elif isinstance(doc, float) and not math.isfinite(doc):
        yield prefix[:-1]


def _solve_cases():
    def argv(p, *extra):
        return ["solve", *extra] + [
            arg for name in ("impatience", "utility_high", "utility_low", "n_users_high")
            for arg in ("--param", f"{name}={getattr(p, name)!r}")]

    cases = [(argv(p), p) for p in criterion_grid(8)]
    d = SystemParams()
    cases += [
        (argv(replace(d, impatience=0.0)), replace(d, impatience=0.0)),
        (argv(replace(d, utility_high=5e-4, utility_low=2.5e-4)),
         replace(d, utility_high=5e-4, utility_low=2.5e-4)),
        (argv(d, "--tax-split", "uniform"), d),
        (argv(d, "--hetero", "ratio=5"), d),
    ]
    return cases


def test_solve_json_non_finite_only_in_documented_fields(capsys):
    """Every non-finite number of a solve JSON sits in a documented field,
    under its documented condition: the average fee is NaN exactly when
    nobody generates, and a wait is Infinity only where the queue carries
    mu or more."""
    seen = set()
    for argv, p in _solve_cases():
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        doc = json.loads(out)
        paths = set(_non_finite_paths(doc))
        assert paths <= SOLVE_NON_FINITE, (argv, paths)
        nobody = doc["outcome"]["sne_kind"] == "NoGeneration"
        assert math.isnan(doc["welfare"]["avg_fee_per_byte"]) == nobody
        assert math.isnan(doc["sufficient_fee"]["avg_fee_per_byte"]) == nobody
        rates = doc["outcome"]["rates"]
        load = sum(n * (rates[t]["rate_high"] + rates[t]["rate_low"])
                   for t, n in (("H", p.n_users_high), ("L", p.n_users_low)))
        for t in ("H", "L"):
            if math.isinf(doc["outcome"]["waiting_rate"][t]):
                assert load >= p.block_rate, argv
        seen |= paths
    assert seen == SOLVE_NON_FINITE


# The sweep CSV columns that may hold NaN (README, "Sweep CSV").
SWEEP_NON_FINITE = {"fwt_avg_fee", "fwt_jain", "existing_avg_fee", "existing_jain",
                    "improvement_pct"}


def test_sweep_csv_non_finite_only_in_documented_fields(capsys):
    """The FWT columns are NaN only where nobody generates, the baseline's
    only where it sends nothing, and no other column is ever non-finite."""
    seen = set()
    for argv in (["--axis", "r_high", "--range", "1e-6:3e-3", "--steps", "7"],
                 ["--axis", "cost_ratio", "--steps", "4"],
                 ["--axis", "gamma", "--steps", "3", "--param", "impatience=0"]):
        code, out, _ = run_cli(["sweep"] + argv, capsys)
        assert code == 0
        for row in csv.DictReader(io.StringIO(out)):
            assert row["error"] == ""
            nums = {k: float(v) for k, v in row.items()
                    if k not in ("axis", "error", "existing_converged")}
            paths = {k for k, v in nums.items() if not math.isfinite(v)}
            assert paths <= SWEEP_NON_FINITE, (argv, row)
            assert all(math.isnan(nums[k]) for k in paths)
            if nums["fwt_payoff_h"] != 0.0 or nums["fwt_payoff_l"] != 0.0:
                assert not paths & {"fwt_avg_fee", "fwt_jain"}, row
            if nums["existing_welfare"] != 0.0:
                assert not paths & {"existing_avg_fee", "existing_jain",
                                    "improvement_pct"}, row
            seen |= paths
    assert seen == SWEEP_NON_FINITE


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_table_names(intro):
    """The backquoted names in the first column of the README's table that
    follows the line starting with `intro`."""
    lines = README.read_text().split(intro, 1)[1].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    names = set()
    for line in lines[start + 2:]:        # past the header and the rule
        if not line.startswith("|"):
            break
        names |= set(re.findall(r"`([^`]+)`", line.split("|")[1]))
    return names


def test_readme_documents_the_declared_fields():
    """The README's sweep-column block is SWEEP_COLUMNS, and its tables of
    non-finite fields name exactly the fields the tests above allow."""
    block = README.read_text().split("Sweep CSV columns", 1)[1].split("```")[1]
    assert [name.strip() for name in block.split(",")] == SWEEP_COLUMNS
    assert _readme_table_names("Numbers in the sweep CSV are finite") == SWEEP_NON_FINITE
    assert _readme_table_names("Numbers are finite except in these fields") == SOLVE_NON_FINITE


# The simulate JSON fields that are NaN at --replications 1 (README,
# "Simulate JSON"); every other field is always finite.
SIMULATE_ONE_REPLICATION_NAN = {
    "user_wait_ci.[]", "user_payoff_ci.[]", "type_wait_ci.H", "type_wait_ci.L",
    "type_payoff_ci.H", "type_payoff_ci.L", "welfare_ci"}


@pytest.mark.parametrize("replications", [1, 2])
def test_simulate_json_non_finite_only_in_documented_fields(capsys, replications):
    for extra in ([], ["--param", "impatience=0"],
                  ["--param", "utility_high=5e-4", "--param", "utility_low=2.5e-4"]):
        code, out, _ = run_cli(["simulate", "--horizon", "200", "--replications",
                                str(replications)] + extra, capsys)
        assert code == 0
        doc = json.loads(out)
        paths = set(_non_finite_paths(doc))
        if replications == 1:
            assert paths == SIMULATE_ONE_REPLICATION_NAN, extra
            for key in ("user_wait_ci", "user_payoff_ci"):
                assert all(math.isnan(v) for v in doc[key])
        else:
            assert paths == set(), extra
