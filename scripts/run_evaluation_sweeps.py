#!/usr/bin/env python3
"""Reproduce the evaluation sweeps as CSV tables.

Writes one CSV per axis (impatience, high-type utility, user count,
storage-cost ratio) comparing the optimal mechanism against the untaxed
baseline: average fee-per-byte vs the storage bound, welfare, improvement,
per-type payoffs and fairness. Desk-scale user counts by default;
--paper-scale restores the full evaluation range on the user-count axis
(closed forms are O(1) in N, so this is still instant).
"""
import argparse
import csv
from dataclasses import replace
from pathlib import Path

from fwt.cli import _PAPER_N_RANGE, _SWEEP_DEFAULTS, SWEEP_COLUMNS, sweep_rows
from fwt.model import SystemParams

STEPS = {"gamma": 20, "r_high": 20, "n_users": 10, "cost_ratio": 10}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out")
    parser.add_argument("--paper-scale", action="store_true")
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    base = SystemParams()
    for axis, steps in STEPS.items():
        lo, hi = _SWEEP_DEFAULTS[axis]
        params = base
        if axis == "n_users" and args.paper_scale:
            lo, hi = _PAPER_N_RANGE
        if axis == "cost_ratio":
            # keep the generating case alive under the fattened storage bound
            params = replace(base, utility_high=4e-3, utility_low=2e-3)
        rows = sweep_rows(params, axis, lo, hi, steps)
        path = out_dir / f"sweep_{axis}.csv"
        with path.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS, restval="")
            writer.writeheader()
            writer.writerows(rows)
        ok = sum(1 for r in rows if not r["error"])
        print(f"{path}: {ok}/{len(rows)} points")


if __name__ == "__main__":
    main()
