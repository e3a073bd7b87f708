"""Command-line harness: solve / sweep / simulate / check.

Machine-readable output only (JSON and CSV). Exit codes: 0 success, 1 a
failed check, 2 `InvalidInput`, 3 any other exception (one stderr line
`internal error: <Type>: <message>`), and 141 (128 + SIGPIPE, as a shell
reports it) when the reader of stdout closed it early.
"""
from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import math
import os
import sys
import time
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from .baseline import existing_equilibrium
from .checks import SUITES, jain_index, run_suite
from .mechanism import (
    induced_outcome,  # not called here: perfbench's tracer wraps this name in fwt.cli
    optimal_mechanism,
    optimal_mechanism_hetero,
    social_welfare,
    sufficient_fee_check,
)
from .model import InvalidInput, SystemParams, params_from_mapping, parse_config, require_valid
from .sim import SimConfig, run as run_sim

__all__ = ["main", "jain_index"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2
EXIT_INTERNAL = 3
EXIT_BROKEN_PIPE = 141


def _load_params(args) -> SystemParams:
    """The config file's lines, then each `--param key=value` (last wins)."""
    try:
        mapping = parse_config(Path(args.config).read_text()) if args.config else {}
    except (OSError, UnicodeError) as exc:
        raise InvalidInput(exc) from None
    for item in args.param or []:
        if "=" not in item:
            raise InvalidInput(f"override must be key=value, got {item!r}")
        key, value = item.split("=", 1)
        mapping[key.strip()] = value.strip()
    return require_valid(params_from_mapping(mapping))


class _Seed(argparse.Action):
    """`--seed`, an action: argparse makes a `type`'s ValueError a usage error."""

    def __call__(self, parser, namespace, text, option_string=None):
        if not text.isdecimal():
            raise InvalidInput("--seed must be a non-negative integer")
        setattr(namespace, self.dest, int(text))


def _parse_hetero(spec: str) -> float:
    """Parse `ratio=X`, a finite X: the high tier costs X times `storage_cost_per_byte`."""
    key, _, value = spec.partition("=")
    try:
        ratio = float(value) if key.strip() == "ratio" else math.nan
    except ValueError:
        ratio = math.nan
    if not math.isfinite(ratio):
        raise InvalidInput(f"--hetero takes ratio=<x>, got {spec!r}")
    return ratio


def _csv_text(header: list[str], rows) -> str:
    """Every CSV output: the header line, then one line per row."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit(payload: str, out: str | None):
    if out:
        try:
            Path(out).write_text(payload)
        except OSError as exc:
            raise InvalidInput(exc) from None
    else:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")
        sys.stdout.flush()      # a closed stdout raises here, not at exit


def _solve_point(params: SystemParams, tax_split: str, cost_ratio: float | None):
    """The mechanism and the params it was solved against (hetero: mean cost)."""
    if cost_ratio is not None:
        return optimal_mechanism_hetero(params, cost_ratio, tax_split=tax_split)
    return optimal_mechanism(params, tax_split=tax_split), params


def _outcome_doc(outcome) -> dict:
    """The selected equilibrium, nested per type `H` and `L`."""
    profile = outcome.profile
    return {
        "sne_kind": outcome.sne_kind.value,
        "fee_used": outcome.fee_used,
        "rates": {"H": asdict(profile.rates_high_type), "L": asdict(profile.rates_low_type)},
        "waiting_rate": {"H": outcome.waiting_rate_high, "L": outcome.waiting_rate_low},
        "payoff": {"H": outcome.payoff_high, "L": outcome.payoff_low},
    }


def cmd_solve(args) -> int:
    params = _load_params(args)
    cost_ratio = _parse_hetero(args.hetero) if args.hetero else None
    mech, p_eff = _solve_point(params, args.tax_split, cost_ratio)
    avg_fee, fee_ok = sufficient_fee_check(mech.outcome, p_eff)
    taxes = {name.upper(): value for name, value in asdict(mech.tax).items()}  # P_HH, ...
    doc = {
        "mechanism": {
            "rho_high": mech.menu.rho_high,
            "rho_low": mech.menu.rho_low,
            **taxes,
            "q_H": mech.q_high,
            "q_L": mech.q_low,
            "case": mech.case,
            # negative entries are subsidies; legal, but worth surfacing
            "negative_entries": any(e < 0 for e in taxes.values()),
        },
        "outcome": _outcome_doc(mech.outcome),
        "welfare": asdict(social_welfare(mech.outcome, mech.menu, mech.tax, p_eff)),
        "sufficient_fee": {
            "avg_fee_per_byte": avg_fee,
            "bound": p_eff.system_storage_per_byte,
            "satisfied": fee_ok,
        },
    }
    _emit(json.dumps(doc, indent=2, allow_nan=True), args.out)
    return EXIT_OK


_SWEEP_DEFAULTS = {
    "gamma": (1e-5, 1e-3),
    "r_high": (5e-4, 3e-3),
    "n_users": (50, 500),
    "cost_ratio": (1.0, 10.0),
}
_PAPER_N_RANGE = (153_000, 537_000)

SWEEP_COLUMNS = [
    "axis", "value",
    "fwt_avg_fee", "existing_avg_fee", "storage_bound",
    "fwt_welfare", "existing_welfare", "improvement_pct",
    "fwt_payoff_h", "fwt_payoff_l", "existing_payoff_h", "existing_payoff_l",
    "fwt_jain", "existing_jain", "error",
    "existing_converged", "existing_cycle_len",
]


def sweep_rows(params: SystemParams, axis: str, lo: float, hi: float, steps: int,
               tax_split: str = "fairness"):
    """One CSV row per sweep point; a point's invalid input lands in `error`,
    and any other exception stops the sweep."""
    values = np.linspace(lo, hi, steps)
    rows = []
    for value in values:
        row = {"axis": axis, "value": float(value), "error": ""}
        try:
            cost_ratio = None
            p = params
            if axis == "gamma":
                p = replace(params, impatience=float(value))
            elif axis == "r_high":
                # evaluation keeps the 2:1 utility ratio
                p = replace(params, utility_high=float(value),
                            utility_low=float(value) / 2.0)
            elif axis == "n_users":
                half = int(round(value / 2.0))
                p = replace(params, n_users_high=half, n_users_low=half)
            elif axis == "cost_ratio":
                cost_ratio = float(value)
            else:
                raise ValueError(f"unknown axis {axis!r}")

            mech, p_eff = _solve_point(p, tax_split, cost_ratio)
            welfare = social_welfare(mech.outcome, mech.menu, mech.tax, p_eff)
            bound = p_eff.system_storage_per_byte
            # baseline miners accept at the cheapest miner's threshold;
            # welfare still charges true (possibly hetero-averaged) storage,
            # which without hetero is p's own
            existing = existing_equilibrium(p, system_cost_per_byte=bound)

            counts = (p_eff.n_users_high, p_eff.n_users_low)
            improvement = math.nan
            if existing.welfare != 0.0:
                improvement = 100.0 * (welfare.total - existing.welfare) / abs(existing.welfare)
            row.update({
                "fwt_avg_fee": welfare.avg_fee_per_byte,
                "existing_avg_fee": existing.avg_fee_per_byte,
                "storage_bound": bound,
                "fwt_welfare": welfare.total,
                "existing_welfare": existing.welfare,
                "improvement_pct": improvement,
                "fwt_payoff_h": welfare.payoff_high,
                "fwt_payoff_l": welfare.payoff_low,
                "existing_payoff_h": existing.payoff_high,
                "existing_payoff_l": existing.payoff_low,
                "fwt_jain": jain_index((welfare.payoff_high, welfare.payoff_low), counts),
                "existing_jain": jain_index((existing.payoff_high, existing.payoff_low),
                                            counts),
                "existing_converged": existing.converged,
                "existing_cycle_len": existing.cycle_len,
            })
        except InvalidInput as exc:
            row["error"] = str(exc)
        rows.append(row)
    return rows


def cmd_sweep(args) -> int:
    params = _load_params(args)
    if args.paper_scale and (args.axis != "n_users" or args.range):
        raise InvalidInput("--paper-scale sets the n_users range: it needs --axis n_users "
                           "and no --range")
    lo, hi = _PAPER_N_RANGE if args.paper_scale else _SWEEP_DEFAULTS[args.axis]
    if args.range:
        try:
            lo, hi = map(float, args.range.split(":", 1))
        except ValueError:
            raise InvalidInput(f"bad --range {args.range!r}, expected lo:hi") from None
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise InvalidInput(f"bad --range {args.range!r}, bounds must be finite")
    if args.steps < 1:
        raise InvalidInput(f"--steps must be at least 1, got {args.steps}")
    rows = sweep_rows(params, args.axis, lo, hi, args.steps,
                      tax_split=args.tax_split)
    _emit(_csv_text(SWEEP_COLUMNS, ([row.get(c, "") for c in SWEEP_COLUMNS] for row in rows)),
          args.out)
    return EXIT_OK


EVENT_COLUMNS = ["time", "event_type", "user_id", "tx_index", "fee_per_byte",
                 "block_id", "winner_miner"]

# SimReport fields written one level down: field -> (group, key)
_SIM_NESTED = {
    **{name: ("tx_counts", name)
       for name in ("included_high", "included_low", "generated_high", "generated_low")},
    "censored_count_total": ("censored", "count"),
    "censored_wait_total": ("censored", "wait"),
}


def _simulate_doc(report) -> dict:
    """`SimReport`'s fields in order, arrays as lists, without the event
    log; a group sits where its first field does."""
    doc = {}
    for field in fields(report):
        if field.name == "events":
            continue
        value = getattr(report, field.name)
        if isinstance(value, np.ndarray):
            value = value.tolist()
        if field.name in _SIM_NESTED:
            group, key = _SIM_NESTED[field.name]
            doc.setdefault(group, {})[key] = value
        else:
            doc[field.name] = value
    return doc


def cmd_simulate(args) -> int:
    params = _load_params(args)
    cost_ratio = _parse_hetero(args.hetero) if args.hetero else None
    mech, p_eff = _solve_point(params, args.tax_split, cost_ratio)
    horizon = 1e5 / p_eff.block_rate if args.horizon is None else args.horizon
    config = SimConfig(
        params=p_eff, menu=mech.menu, tax=mech.tax, profile=mech.outcome.profile,
        horizon=horizon, seed=args.seed, warmup=args.warmup,
        replications=args.replications, log_events=bool(args.events))
    report = run_sim(config)
    if args.events:
        _emit(_csv_text(EVENT_COLUMNS, report.events), args.events)
    _emit(json.dumps(_simulate_doc(report), indent=2, allow_nan=True), args.out)
    return EXIT_OK


def cmd_check(args) -> int:
    start = time.perf_counter()
    result = run_suite(args.suite, budget=args.budget, seed=args.seed)
    status = "PASS" if result.passed else "FAIL"
    lines = [f"{status} {args.suite} ({time.perf_counter() - start:.1f}s)"]
    lines += ["  " + d for d in result.details]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if result.passed else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fwt",
        description="Fee-and-waiting-tax mechanism solver and simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value parameter file")
        p.add_argument("--param", action="append", metavar="K=V",
                       help="parameter override (repeatable)")
        p.add_argument("--out", help="write output to this path instead of stdout")
        p.add_argument("--tax-split", choices=["fairness", "uniform"],
                       default="fairness", dest="tax_split")

    p_solve = sub.add_parser("solve", help="optimal mechanism + induced equilibrium")
    common(p_solve)
    p_solve.add_argument("--hetero", metavar="ratio=X",
                         help="two-tier miner storage costs")
    p_solve.set_defaults(fn=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="CSV parameter sweep vs the baseline")
    common(p_sweep)
    p_sweep.add_argument("--axis", required=True, choices=list(_SWEEP_DEFAULTS))
    p_sweep.add_argument("--range", help="lo:hi (defaults per axis)")
    p_sweep.add_argument("--steps", type=int, default=20)
    p_sweep.add_argument("--paper-scale", action="store_true", dest="paper_scale",
                         help="use the full evaluation user-count range "
                              "(--axis n_users, without --range)")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_sim = sub.add_parser("simulate", help="Monte Carlo run at the solved SNE")
    common(p_sim)
    p_sim.add_argument("--hetero", metavar="ratio=X")
    p_sim.add_argument("--seed", action=_Seed, default=0)
    p_sim.add_argument("--horizon", type=float, default=None)
    p_sim.add_argument("--replications", type=int, default=10)
    p_sim.add_argument("--warmup", type=float, default=0.1)
    p_sim.add_argument("--events", help="dump first replication's event log CSV here")
    p_sim.set_defaults(fn=cmd_simulate)

    p_check = sub.add_parser("check", help="run an oracle suite")
    p_check.add_argument("suite", choices=sorted(SUITES))
    p_check.add_argument("--budget", type=int, default=None,
                         help="suite-specific sample budget")
    p_check.add_argument("--seed", action=_Seed, default=None,
                         help="seed of a suite that draws random numbers")
    p_check.add_argument("--out")
    p_check.set_defaults(fn=cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for path in (args.out, getattr(args, "events", None)):  # refused before the work
            if path and not Path(path).parent.is_dir():
                raise InvalidInput(FileNotFoundError(errno.ENOENT, "No such file or directory",
                                                     path))
        return args.fn(args)
    except InvalidInput as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except BrokenPipeError:
        # The reader of stdout is gone (`fwt solve | head -1`): not an input
        # error. Point stdout at devnull so that the flush at exit cannot
        # raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except Exception as exc:    # a fault of the program, not of its input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
