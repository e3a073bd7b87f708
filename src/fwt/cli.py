"""Command-line harness: solve / sweep / simulate / check.

Machine-readable output only (JSON and CSV); exit codes are 0 for success,
1 for a failed check, 2 for invalid input.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .baseline import existing_equilibrium
from .checks import SUITES, jain_index, run_suite
from .mechanism import (
    induced_outcome,
    optimal_mechanism,
    optimal_mechanism_hetero,
    social_welfare,
    sufficient_fee_check,
)
from .model import (
    HeteroCostParams,
    SystemParams,
    apply_overrides,
    params_from_mapping,
    parse_config,
    validate_params,
)
from .sim import SimConfig, event_log_to_csv, run as run_sim

__all__ = ["main", "jain_index"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2


def _load_params(args) -> SystemParams:
    if getattr(args, "config", None):
        text = Path(args.config).read_text()
        params = params_from_mapping(parse_config(text))
    else:
        params = SystemParams()
    overrides = getattr(args, "param", None) or []
    if overrides:
        params = apply_overrides(params, overrides)
    errors = validate_params(params)
    if errors:
        raise InvalidInput("; ".join(errors))
    return params


class InvalidInput(Exception):
    """Signals exit code 2 with a validation report."""


def _parse_hetero(spec: str, params: SystemParams) -> HeteroCostParams:
    """Parse `ratio=10[,cost_low=5e-10][,split=0.5]`."""
    fields = {}
    for item in spec.split(","):
        if "=" not in item:
            raise InvalidInput(f"bad --hetero entry {item!r}")
        k, v = item.split("=", 1)
        fields[k.strip()] = float(v)
    cost_low = fields.pop("cost_low", params.storage_cost_per_byte)
    split = fields.pop("split", 0.5)
    ratio = fields.pop("ratio", None)
    if fields:
        raise InvalidInput(f"unknown --hetero keys {sorted(fields)}")
    if ratio is None:
        raise InvalidInput("--hetero requires ratio=<x>")
    return HeteroCostParams(cost_low=cost_low, cost_high=ratio * cost_low, split=split)


def _emit(payload: str, out: str | None):
    if out:
        Path(out).write_text(payload)
    else:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")


def _solve_point(params: SystemParams, tax_split: str,
                 hetero: HeteroCostParams | None):
    """Mechanism, induced outcome and welfare; hetero swaps in mean cost."""
    if hetero is not None:
        mech, p_eff = optimal_mechanism_hetero(params, hetero, tax_split=tax_split)
    else:
        mech, p_eff = optimal_mechanism(params, tax_split=tax_split), params
    outcome = induced_outcome(mech, p_eff)
    welfare = social_welfare(outcome, mech.menu, mech.tax, p_eff)
    avg_fee, fee_ok = sufficient_fee_check(outcome, mech.menu, p_eff)
    return mech, p_eff, outcome, welfare, avg_fee, fee_ok


def cmd_solve(args) -> int:
    params = _load_params(args)
    hetero = _parse_hetero(args.hetero, params) if args.hetero else None
    mech, p_eff, outcome, welfare, avg_fee, fee_ok = _solve_point(
        params, args.tax_split, hetero)
    doc = {
        "mechanism": mech.to_json_dict(),
        "outcome": outcome.to_json_dict(),
        "welfare": welfare.to_json_dict(),
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
               tax_split: str = "fairness", fee_grid_points: int = 200):
    """One CSV row per sweep point; per-point failures land in `error`."""
    values = np.linspace(lo, hi, steps)
    rows = []
    for value in values:
        row = {"axis": axis, "value": float(value), "error": ""}
        try:
            hetero = None
            p = params
            if axis == "gamma":
                p = replace(params, impatience=float(value))
            elif axis == "r_high":
                # evaluation keeps the 2:1 utility ratio
                p = replace(params, utility_high=float(value),
                            utility_low=float(value) / 2.0)
            elif axis == "n_users":
                half = max(1, int(round(value / 2.0)))
                p = replace(params, n_users_high=half, n_users_low=half)
            elif axis == "cost_ratio":
                hetero = HeteroCostParams(
                    cost_low=params.storage_cost_per_byte,
                    cost_high=float(value) * params.storage_cost_per_byte)
            else:
                raise ValueError(f"unknown axis {axis!r}")

            mech, p_eff, outcome, welfare, avg_fee, _ = _solve_point(
                p, tax_split, hetero)
            bound = p_eff.system_storage_per_byte
            # baseline miners accept at the cheapest miner's threshold;
            # welfare still charges true (possibly hetero-averaged) storage
            existing = existing_equilibrium(
                p, fee_grid_points=fee_grid_points,
                system_cost_per_byte=bound if hetero is not None else None)

            n_h, n_l = p_eff.n_users_high, p_eff.n_users_low
            fwt_payoffs = [outcome.payoff_high] * n_h + [outcome.payoff_low] * n_l
            ex_payoffs = [existing.payoff_high] * n_h + [existing.payoff_low] * n_l
            improvement = math.nan
            if existing.welfare != 0.0:
                improvement = 100.0 * (welfare.total - existing.welfare) / abs(existing.welfare)
            row.update({
                "fwt_avg_fee": avg_fee,
                "existing_avg_fee": existing.avg_fee_per_byte,
                "storage_bound": bound,
                "fwt_welfare": welfare.total,
                "existing_welfare": existing.welfare,
                "improvement_pct": improvement,
                "fwt_payoff_h": outcome.payoff_high,
                "fwt_payoff_l": outcome.payoff_low,
                "existing_payoff_h": existing.payoff_high,
                "existing_payoff_l": existing.payoff_low,
                "fwt_jain": jain_index(fwt_payoffs),
                "existing_jain": jain_index(ex_payoffs),
                "existing_converged": existing.converged,
                "existing_cycle_len": existing.cycle_len,
            })
        except Exception as exc:  # per-point failure, sweep continues
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return rows


def cmd_sweep(args) -> int:
    params = _load_params(args)
    if args.axis == "n_users" and args.paper_scale:
        lo, hi = _PAPER_N_RANGE
    else:
        lo, hi = _SWEEP_DEFAULTS[args.axis]
    if args.range:
        try:
            lo_s, hi_s = args.range.split(":", 1)
            lo, hi = float(lo_s), float(hi_s)
        except ValueError:
            raise InvalidInput(f"bad --range {args.range!r}, expected lo:hi")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise InvalidInput(f"bad --range {args.range!r}, bounds must be finite")
    if args.steps < 1:
        raise InvalidInput(f"--steps must be at least 1, got {args.steps}")
    rows = sweep_rows(params, args.axis, lo, hi, args.steps,
                      tax_split=args.tax_split)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=SWEEP_COLUMNS, restval="")
    writer.writeheader()
    writer.writerows(rows)
    _emit(buf.getvalue(), args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    params = _load_params(args)
    hetero = _parse_hetero(args.hetero, params) if args.hetero else None
    mech, p_eff, outcome, _, _, _ = _solve_point(params, args.tax_split, hetero)
    horizon = args.horizon if args.horizon else 1e5 / p_eff.block_rate
    config = SimConfig(
        params=p_eff, menu=mech.menu, tax=mech.tax, profile=outcome.profile,
        horizon=horizon, seed=args.seed, warmup=args.warmup,
        replications=args.replications, log_events=bool(args.events))
    report = run_sim(config)
    if args.events:
        Path(args.events).write_text(event_log_to_csv(report.events or []))
    _emit(json.dumps(report.to_json_dict(), indent=2, allow_nan=True), args.out)
    return EXIT_OK


def cmd_check(args) -> int:
    result = run_suite(args.suite, budget=args.budget, seed=args.seed)
    lines = [result.summary()] + ["  " + d for d in result.details]
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
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tax-split", choices=["fairness", "uniform"],
                       default="fairness", dest="tax_split")

    p_solve = sub.add_parser("solve", help="optimal mechanism + induced equilibrium")
    common(p_solve)
    p_solve.add_argument("--hetero", metavar="ratio=X[,cost_low=Y][,split=Z]",
                         help="two-tier miner storage costs")
    p_solve.set_defaults(fn=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="CSV parameter sweep vs the baseline")
    common(p_sweep)
    p_sweep.add_argument("--axis", required=True,
                         choices=["gamma", "r_high", "n_users", "cost_ratio"])
    p_sweep.add_argument("--range", help="lo:hi (defaults per axis)")
    p_sweep.add_argument("--steps", type=int, default=20)
    p_sweep.add_argument("--paper-scale", action="store_true", dest="paper_scale",
                         help="use the full evaluation user-count range")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_sim = sub.add_parser("simulate", help="Monte Carlo run at the solved SNE")
    common(p_sim)
    p_sim.add_argument("--hetero", metavar="ratio=X[,cost_low=Y][,split=Z]")
    p_sim.add_argument("--horizon", type=float, default=None)
    p_sim.add_argument("--replications", type=int, default=10)
    p_sim.add_argument("--warmup", type=float, default=0.1)
    p_sim.add_argument("--events", help="dump first replication's event log CSV here")
    p_sim.set_defaults(fn=cmd_simulate)

    p_check = sub.add_parser("check", help="run an oracle suite")
    p_check.add_argument("suite", choices=sorted(SUITES))
    p_check.add_argument("--budget", type=int, default=None,
                         help="suite-specific sample budget")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--out")
    p_check.set_defaults(fn=cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InvalidInput as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ValueError, KeyError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
