#!/usr/bin/env python3
"""Cross-validate the closed forms against the discrete-event simulator.

Runs the Lemma-1 waiting-time suite (`fwt check lemma1`, including the
hand-computable two-class point) and prints its lines, then simulates the
optimal mechanism's equilibrium at the evaluation defaults, comparing
measured welfare and per-type payoffs against the analytic values. Exits 1
when the Lemma-1 suite fails.
"""
import argparse
import math
import sys

from fwt.checks import check_lemma1
from fwt.mechanism import induced_outcome, optimal_mechanism, social_welfare
from fwt.model import SystemParams
from fwt.sim import SimConfig, run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--replications", type=int, default=10)
    parser.add_argument("--horizon", type=float, default=None)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.replications < 2:
        parser.error(f"--replications must be at least 2, got {args.replications}")
    if args.horizon is not None and not (math.isfinite(args.horizon) and args.horizon > 0):
        parser.error(f"--horizon must be positive and finite, got {args.horizon}")
    if args.seed < 0:
        parser.error(f"--seed must be a non-negative integer, got {args.seed}")

    lemma1 = check_lemma1(replications=args.replications, horizon=args.horizon,
                          seed=args.seed)
    for line in lemma1.details:
        print(line)

    params = SystemParams()
    mech = optimal_mechanism(params)
    out = induced_outcome(mech, params)
    analytic = social_welfare(out, mech.menu, mech.tax, params)
    horizon = 1e5 / params.block_rate if args.horizon is None else args.horizon
    cfg = SimConfig(params=params, menu=mech.menu, tax=mech.tax,
                    profile=out.profile, seed=args.seed, horizon=horizon,
                    replications=args.replications)
    report = run(cfg)
    print(f"welfare: analytic={analytic.total:.6g} "
          f"simulated={report.welfare_mean:.6g} +/- {report.welfare_ci:.2g}")
    print(f"payoff H: analytic={out.payoff_high:.6g} "
          f"simulated={report.type_payoff_mean['H']:.6g}")
    print(f"payoff L: analytic={out.payoff_low:.6g} "
          f"simulated={report.type_payoff_mean['L']:.6g}")
    return 0 if lemma1.passed else 1


if __name__ == "__main__":
    sys.exit(main())
