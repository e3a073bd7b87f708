"""Acceptance gate: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the pass/fail lines;
tolerances and sample budgets are fixed here, not calibrated elsewhere.
"""
import math
import time
from dataclasses import replace

import numpy as np

from fwt.baseline import existing_equilibrium
from fwt.checks import (
    check_corollary2,
    check_fairness,
    check_miner_ne,
    check_prop2,
    check_user_ne,
    criterion_grid,
    lemma1_profiles,
    validate_lemma1,
)
from fwt.cli import sweep_rows
from fwt.mechanism import (
    induced_outcome,
    optimal_mechanism,
    social_welfare,
    sufficient_fee_check,
)
from fwt.model import SystemParams, TaxVector
from fwt.sim import SimConfig, run as run_sim


def _report(num: int, name: str, passed: bool, detail: str = ""):
    line = f"[criterion {num}] {'PASS' if passed else 'FAIL'} {name}"
    if detail:
        line += f" :: {detail}"
    print(line)
    assert passed, line


def test_criterion_1_sufficient_fee_guarantee():
    """Induced average fee covers system storage cost at every grid point,
    with the closed inequality evaluated exactly."""
    start = time.perf_counter()
    grid = criterion_grid(20)
    violations = []
    for params in grid:
        mech = optimal_mechanism(params)
        out = induced_outcome(mech, params)
        _, ok = sufficient_fee_check(out, params)
        if not ok:
            violations.append(params)
    elapsed = time.perf_counter() - start
    _report(1, "sufficient fee over 20x20 grid", not violations and elapsed < 10.0,
            f"{len(grid) - len(violations)}/{len(grid)} points, {elapsed:.1f}s")


def test_criterion_2_unconstrained_optimum():
    start = time.perf_counter()
    result = check_prop2(grid_points=50, seed=17, rel_tol=0.01)
    elapsed = time.perf_counter() - start
    _report(2, "closed-form welfare equals grid optimum within 1%",
            result.passed and elapsed < 300.0,
            f"{elapsed:.1f}s; " + result.details[0])


def test_criterion_3_waiting_time_oracle():
    hand_value = 1.0 / 13.0 + 15.0 / 143.0
    per_profile = []
    all_ok = True
    saw_hand_value = False
    for i, (label, params, menu, profile) in enumerate(lemma1_profiles()):
        start = time.perf_counter()
        results = validate_lemma1(params, menu, profile, tolerance=0.02,
                                  replications=10, seed=100 + i)
        elapsed = time.perf_counter() - start
        ok = all(r.passed for r in results) and elapsed < 120.0
        all_ok = all_ok and ok
        per_profile.append(f"{label}: {'ok' if ok else 'BAD'} ({elapsed:.0f}s)")
        if any(abs(r.analytic - hand_value) < 1e-12 for r in results):
            saw_hand_value = True
    _report(3, "simulator matches waiting-time formulas within 2%",
            all_ok and saw_hand_value and len(per_profile) >= 5,
            "; ".join(per_profile))


def test_criterion_4_equilibrium_certification():
    start = time.perf_counter()
    miner = check_miner_ne(budget=1000, seed=5)
    user = check_user_ne(points_per_axis=5, grid=101)
    elapsed = time.perf_counter() - start
    _report(4, "miner NE at eps=0 (1000 pools) + user SNE grid certification",
            miner.passed and user.passed and elapsed < 300.0,
            f"{elapsed:.1f}s; {miner.details[0]}; {user.details[0]}")


def test_criterion_5_fairness_index():
    result = check_fairness(points=20, tol=1e-9)
    _report(5, "Jain index 1 under the optimal mechanism", result.passed,
            result.details[0])


def test_criterion_6_tax_ordering_flip():
    result = check_corollary2(step=1e-6)
    _report(6, "tax ordering flips exactly at the delta threshold",
            result.passed, "; ".join(result.details))


def test_criterion_7_qualitative_evaluation():
    params = SystemParams()
    notes = []
    ok = True

    # (a) mechanism welfare dominates the baseline at every sweep point
    sweeps = {
        "gamma": sweep_rows(params, "gamma", 1e-5, 1e-3, 10),
        "r_high": sweep_rows(params, "r_high", 5e-4, 3e-3, 10),
        "n_users": sweep_rows(params, "n_users", 50, 400, 8),
        "cost_ratio": sweep_rows(
            replace(params, utility_high=4e-3, utility_low=2e-3),
            "cost_ratio", 1.0, 10.0, 10),
    }
    dominated = True
    for name, rows in sweeps.items():
        for row in rows:
            if row["error"]:
                dominated = False
                notes.append(f"{name}: error {row['error']}")
                continue
            slack = 1e-9 * max(1.0, abs(row["existing_welfare"]))
            if row["fwt_welfare"] < row["existing_welfare"] - slack:
                dominated = False
                notes.append(f"{name}@{row['value']:g}: welfare regression")
    ok = ok and dominated
    notes.append(f"welfare dominance at all sweep points: {dominated}")

    # (b) baseline fee directions; the impatience direction emerges in the
    # participation-capped regime (see baseline notes), utility direction
    # over the evaluation range
    fee_step = (2 * params.utility_high / params.mean_tx_size) / 199
    gamma_fees = [existing_equilibrium(replace(params, impatience=float(g))
                                       ).avg_fee_per_byte
                  for g in np.geomspace(4e-3, 1.6e-2, 10)]
    gamma_dir = all(b <= a + fee_step for a, b in zip(gamma_fees, gamma_fees[1:]))
    rh_fees = [r["existing_avg_fee"] for r in sweeps["r_high"]]
    rh_dir = all(b >= a - fee_step for a, b in zip(rh_fees, rh_fees[1:]))
    ok = ok and gamma_dir and rh_dir
    notes.append(f"existing fee falls in impatience (capped regime): {gamma_dir}")
    notes.append(f"existing fee rises in high-type utility: {rh_dir}")

    # (c) baseline indifferent to the storage-cost ratio; mechanism tracks
    # the averaged hetero bound wherever it induces generation
    ratio_rows = sweeps["cost_ratio"]
    existing_const = len({r["existing_avg_fee"] for r in ratio_rows}) == 1
    tracks = all(
        math.isnan(r["fwt_avg_fee"]) or r["fwt_avg_fee"] == r["storage_bound"]
        for r in ratio_rows)
    generating_rows = [r for r in ratio_rows if not math.isnan(r["fwt_avg_fee"])]
    ok = ok and existing_const and tracks and generating_rows
    notes.append(f"existing fee constant in cost ratio: {existing_const}; "
                 f"mechanism fee pinned to hetero bound: {tracks}")

    # (d) a region where the baseline underpays storage and the mechanism does not
    gap_rows = [r for r in sweeps["gamma"]
                if not math.isnan(r["existing_avg_fee"])
                and r["existing_avg_fee"] < r["storage_bound"]
                and r["fwt_avg_fee"] >= r["storage_bound"]]
    ok = ok and bool(gap_rows)
    notes.append(f"insufficiency gap rows: {len(gap_rows)}")

    # informational only: improvement magnitudes depend on the surrogate
    for name in ("gamma", "r_high", "cost_ratio"):
        vals = [r["improvement_pct"] for r in sweeps[name]
                if not r["error"] and not math.isnan(r["improvement_pct"])]
        if vals:
            notes.append(f"mean improvement over baseline [{name}]: "
                         f"{np.mean(vals):.1f}% (informational)")

    _report(7, "qualitative evaluation properties", ok, "; ".join(notes))


def test_criterion_8_conservation_suite():
    # simulator: exact transfer conservation per replication
    params = replace(SystemParams(), n_users_high=3, n_users_low=3)
    mech = optimal_mechanism(params)
    out = induced_outcome(mech, params)
    cfg = SimConfig(params=params, menu=mech.menu, tax=mech.tax,
                    profile=out.profile, horizon=500.0, seed=77, replications=4)
    report = run_sim(cfg)
    fees_exact = report.fees_debited == report.fees_credited
    taxes_exact = report.taxes_paid == report.taxes_received

    # analytic: welfare invariant to tax-entry shuffles at fixed row sums
    base = SystemParams()
    mech = optimal_mechanism(base)
    out = induced_outcome(mech, base)
    w0 = social_welfare(out, mech.menu, mech.tax, base).total
    invariant = True
    rng = np.random.default_rng(4)
    for _ in range(5):
        t1, t2 = rng.uniform(-1e-5, 1e-5, 2)
        shuffled = TaxVector(
            p_hh=mech.tax.p_hh + base.n_users_low * t1,
            p_hl=mech.tax.p_hl - (base.n_users_high - 1) * t1,
            p_lh=mech.tax.p_lh + (base.n_users_low - 1) * t2,
            p_ll=mech.tax.p_ll - base.n_users_high * t2,
        )
        w = social_welfare(out, mech.menu, shuffled, base).total
        invariant = invariant and abs(w - w0) <= 1e-12
    _report(8, "fee/tax conservation exact; welfare tax-invariant",
            fees_exact and taxes_exact and invariant,
            f"fees_exact={fees_exact} taxes_exact={taxes_exact} "
            f"welfare_invariant={invariant}")
