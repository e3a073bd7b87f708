"""Workload inputs, the items each pass runs, and their correctness checks.

Every workload is a fixed list of items built from the seed. A pass runs
the whole list once; `check_pass` then marks each item's result good or
bad. Items reach the program through module attributes (`fwt.cli.sweep_rows`,
`fwt.sim.run`, ...) at call time, so the tracer's wrappers see them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable

# A pass holds at least 25 items, so that the tail percentile (the item
# with ten items beyond it) sits above the median.
SIM_LONG_REPS = 6        # replications per Lemma-1 profile in one pass
SIM_WIDE_REPS = 25       # replications of the N = 2000 equilibrium per pass
SIM_WIDE_USERS = 1000    # per type
SIM_WIDE_HORIZON = 1333.0
CERTIFY_CASES = (12, 13)  # prop2 draws forced into Theorem-3 case 1 and case 2
ORACLE_GRID = 50
BR_GRID = 101
HAND_VALUE = 1.0 / 13.0 + 15.0 / 143.0
# Confidence of the Student-t interval in the Lemma-1 rule. At 95% a type
# check whose mean misses the 2% band fails by chance one time in twenty,
# and a campaign makes hundreds of them; at 99.99% chance failures stay out
# while a simulator that drops one block in twenty still fails.
LEMMA1_CONFIDENCE = 0.9999
LEMMA1_TOLERANCE = 0.02


@dataclass
class Item:
    """One timed call; `group` ties items that are checked together."""

    ident: str
    call: Callable[[], Any]
    group: str = ""
    expect: Any = None


class Workload:
    name = ""

    def __init__(self, fwt, seed: int):
        self.fwt = fwt
        self.seed = seed
        self.items = self.build()

    def build(self) -> list[Item]:
        raise NotImplementedError

    def check_pass(self, results: list) -> list[bool]:
        return [self.check(item, r) for item, r in zip(self.items, results)]

    def check(self, item: Item, result) -> bool:
        raise NotImplementedError


# --- sweep --------------------------------------------------------------------

# The axes of scripts/run_evaluation_sweeps.py plus the paper-scale n_users
# axis. The list does not depend on the seed.
SWEEP_AXES = [
    ("gamma", 1e-5, 1e-3, 20, None),
    ("r_high", 5e-4, 3e-3, 20, None),
    ("n_users", 50, 500, 10, None),
    ("cost_ratio", 1.0, 10.0, 10, (4e-3, 2e-3)),
    ("n_users", 153_000, 537_000, 20, None),
]


class Sweep(Workload):
    name = "sweep"

    def build(self):
        import numpy as np
        cli = self.fwt.cli
        base = self.fwt.model.SystemParams()
        items = []
        for axis, lo, hi, steps, utilities in SWEEP_AXES:
            params = base
            if utilities is not None:
                params = replace(base, utility_high=utilities[0],
                                 utility_low=utilities[1])
            for value in np.linspace(lo, hi, steps):
                v = float(value)
                items.append(Item(
                    ident=f"{axis}={v:g}",
                    call=lambda p=params, a=axis, v=v: cli.sweep_rows(p, a, v, v, 1)))
        return items

    def check(self, item, result):
        (row,) = result
        if row["error"]:
            return False
        fee = row["fwt_avg_fee"]
        fee_ok = math.isnan(fee) or fee >= row["storage_bound"]
        ex = row["existing_welfare"]
        welfare_ok = row["fwt_welfare"] >= ex - 1e-9 * abs(ex)
        return fee_ok and welfare_ok


# --- certify ------------------------------------------------------------------

@dataclass
class CertifyResult:
    case: int
    welfare: float
    oracle_welfare: float
    deviation: Any


class Certify(Workload):
    name = "certify"

    def build(self):
        n_case1, n_case2 = CERTIFY_CASES
        draws = self.fwt.checks.prop2_draws(self.seed, n_case1=n_case1, n_case2=n_case2)
        return [Item(ident=f"draw{i}", call=lambda p=p: self._certify(p),
                     expect=1 if i < n_case1 else 2)
                for i, p in enumerate(draws)]

    def _certify(self, params):
        mechanism = self.fwt.mechanism
        mech = mechanism.optimal_mechanism(params)
        outcome = mechanism.induced_outcome(mech, params)
        welfare = mechanism.social_welfare(outcome, mech.menu, mech.tax, params).total
        oracle = mechanism.unconstrained_optimum_oracle(params, grid_points=ORACLE_GRID)
        deviation = self.fwt.user_game.best_response_check(
            outcome, mech.menu, mech.tax, params, grid=BR_GRID)
        return CertifyResult(mech.case, welfare, oracle.welfare, deviation)

    def check(self, item, result):
        gap = abs(result.welfare - result.oracle_welfare)
        scale = max(abs(result.welfare), abs(result.oracle_welfare))
        gap_ok = gap <= 0.01 * scale or scale < 1e-15
        return gap_ok and result.deviation is None and result.case == item.expect


# --- simulator ----------------------------------------------------------------

@dataclass
class SimCase:
    """One simulated profile: the config template and its analytic waits."""

    label: str
    config: Any
    analytic: dict


class _SimWorkload(Workload):
    reps = 1

    def cases(self) -> list[SimCase]:
        raise NotImplementedError

    def build(self):
        import numpy as np
        cases = self.cases()
        children = np.random.SeedSequence(self.seed).spawn(len(cases) * self.reps)
        items = []
        for c, case in enumerate(cases):
            for r in range(self.reps):
                item_seed = int(children[c * self.reps + r].generate_state(1, np.uint64)[0])
                config = replace(case.config, seed=item_seed, replications=1)
                items.append(Item(ident=f"{case.label}#{r}",
                                  call=lambda cfg=config: self.fwt.sim.run(cfg),
                                  group=case.label, expect=case))
        return items

    def check_pass(self, results):
        from scipy import stats
        # fees and taxes are transfers: both sides of the ledger match exactly
        ok = [r.fees_debited == r.fees_credited and r.taxes_paid == r.taxes_received
              for r in results]
        groups: dict[str, list[int]] = {}
        for i, item in enumerate(self.items):
            groups.setdefault(item.group, []).append(i)
        for members in groups.values():
            case = self.items[members[0]].expect
            reps = len(members)
            half_t = stats.t.ppf(0.5 + LEMMA1_CONFIDENCE / 2.0, reps - 1)
            for t in ("H", "L"):
                waits = [results[i].type_wait_mean[t] for i in members]
                if not lemma1_rule(case.analytic[t], waits, half_t):
                    for i in members:
                        ok[i] = False
        return ok


def lemma1_rule(analytic: float, waits: list[float], half_t: float) -> bool:
    """validate_lemma1's rule over replications: within 2% or the t-interval."""
    n = len(waits)
    mean = math.fsum(waits) / n
    if analytic == 0.0:
        return all(w == 0.0 for w in waits)
    sd = math.sqrt(math.fsum((w - mean) ** 2 for w in waits) / (n - 1))
    ci = half_t * sd / math.sqrt(n)
    err = abs(mean - analytic)
    return err <= LEMMA1_TOLERANCE * abs(analytic) or err <= ci


def _sim_case(fwt, label, params, menu, tax, profile, horizon) -> SimCase:
    analytic = {t: fwt.user_game.waiting_rate(t, profile, menu, params) for t in ("H", "L")}
    config = fwt.sim.SimConfig(params=params, menu=menu, tax=tax, profile=profile,
                               horizon=horizon)
    return SimCase(label, config, analytic)


class SimLong(_SimWorkload):
    name = "sim_long"
    reps = SIM_LONG_REPS

    def cases(self):
        zero = self.fwt.model.TaxVector.zero()
        cases = []
        for i, (_, params, menu, profile) in enumerate(self.fwt.checks.lemma1_profiles()):
            cases.append(_sim_case(self.fwt, f"profile{i}", params, menu, zero, profile,
                                   1e5 / params.block_rate))
        return cases

    def check_pass(self, results):
        ok = super().check_pass(results)
        # profile 0 is the hand-computable two-user point
        hand = self.items[0].expect.analytic
        hand_ok = all(abs(hand[t] - HAND_VALUE) <= 1e-12 for t in ("H", "L"))
        return [o and (hand_ok or item.group != "profile0")
                for o, item in zip(ok, self.items)]


class SimWide(_SimWorkload):
    name = "sim_wide"
    reps = SIM_WIDE_REPS

    def cases(self):
        params = replace(self.fwt.model.SystemParams(), n_users_high=SIM_WIDE_USERS,
                         n_users_low=SIM_WIDE_USERS)
        mechanism = self.fwt.mechanism
        mech = mechanism.optimal_mechanism(params)
        outcome = mechanism.induced_outcome(mech, params)
        return [_sim_case(self.fwt, "wide", params, mech.menu, mech.tax, outcome.profile,
                          SIM_WIDE_HORIZON)]


WORKLOADS = {w.name: w for w in (Sweep, Certify, SimLong, SimWide)}
