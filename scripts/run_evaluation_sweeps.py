#!/usr/bin/env python3
"""Reproduce the evaluation sweeps as CSV tables.

Writes one CSV per axis (impatience, high-type utility, user count,
storage-cost ratio) comparing the optimal mechanism against the untaxed
baseline: average fee-per-byte vs the storage bound, welfare, improvement,
per-type payoffs and fairness. Each table is one `fwt sweep` over the
axis's default range. Desk-scale user counts by default; --paper-scale
restores the full evaluation range on the user-count axis (closed forms
are O(1) in N, so this is still instant).
"""
import argparse
import sys
from pathlib import Path

from fwt.cli import main as fwt_main

STEPS = {"gamma": 20, "r_high": 20, "n_users": 10, "cost_ratio": 10}
# keep the generating case alive under the fattened storage bound
COST_RATIO_PARAMS = ["--param", "utility_high=4e-3", "--param", "utility_low=2e-3"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out")
    parser.add_argument("--paper-scale", action="store_true")
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for axis, steps in STEPS.items():
        path = out_dir / f"sweep_{axis}.csv"
        cmd = ["sweep", "--axis", axis, "--steps", str(steps), "--out", str(path)]
        if args.paper_scale and axis == "n_users":
            cmd.append("--paper-scale")
        if axis == "cost_ratio":
            cmd += COST_RATIO_PARAMS
        code = fwt_main(cmd)
        if code:
            return code
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
