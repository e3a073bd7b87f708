"""Oracle suites driven by both the CLI `check` command and the test suite.

Each suite certifies one analytic result against an independent check:
brute-force deviation search for the miner and user equilibria, the Monte
Carlo simulator for the waiting-time formulas, a grid search for the
mechanism's optimality, and direct recomputation for the fairness and
tax-ordering claims.
"""
from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, replace

import numpy as np

from .mechanism import (
    induced_outcome,
    optimal_mechanism,
    social_welfare,
    tax_comparison,
    unconstrained_optimum_oracle,
)
from .miner_game import PendingTx, TxPool, check_miner_nash, equilibrium_selection
from .model import FeeMenu, RatePair, StrategyProfile, SystemParams, TaxVector
from .sim import SimConfig, run as run_sim
from .user_game import best_response_check, sne_select, waiting_rate

__all__ = [
    "CheckResult",
    "jain_index",
    "check_miner_ne",
    "check_user_ne",
    "Lemma1Result",
    "validate_lemma1",
    "check_lemma1",
    "check_prop2",
    "check_fairness",
    "check_corollary2",
    "run_suite",
    "SUITES",
]

TABLE_DEFAULTS = SystemParams()


def jain_index(payoffs, counts) -> float:
    """Jain's fairness index (sum u)^2 / (N sum u^2) of N users, counts[i] of
    whom get payoffs[i]; NaN when every payoff is 0. It is computed as
    1 - sum_{i<j} c_i c_j (u_i - u_j)^2 / (N sum c u^2) (Lagrange's
    identity), so rounding cannot take it above 1."""
    if len(payoffs) == 0 or len(payoffs) != len(counts):
        raise ValueError("jain_index needs one user count per payoff, and a payoff")
    denom = sum(counts) * sum(c * u * u for u, c in zip(payoffs, counts))
    if denom == 0.0:
        return math.nan
    spread = sum(counts[i] * counts[j] * (payoffs[i] - payoffs[j]) ** 2
                 for i in range(len(payoffs)) for j in range(i))
    return 1.0 - spread / denom


@dataclass
class CheckResult:
    """A suite's verdict and its detail lines, one finding each."""
    passed: bool
    details: list[str]


# --- miner equilibrium -------------------------------------------------------

def _random_pool(rng: np.random.Generator, params: SystemParams) -> TxPool:
    """Random pool of 1 to 20 transactions with uniform sizes and fee
    ties/below-threshold mixes.

    Sizes are held at the mean: with heterogeneous sizes the fee-per-byte
    priority rule is not payoff-optimal against arbitrary-singleton
    deviations (see tests), so the equilibrium property is certified on
    the uniform-size pools where the two orderings coincide.
    """
    n_tx = int(rng.integers(1, 21))
    c_s = params.storage_cost_per_byte
    fees = c_s * rng.uniform(0.0, 3.0, n_tx)
    # inject exact fee ties to exercise the gen-time tie-break
    for i in range(1, n_tx):
        if rng.random() < 0.25:
            fees[i] = fees[int(rng.integers(0, i))]
    gen_times = rng.uniform(0.0, 100.0, n_tx)
    txs = [
        PendingTx(user_id=int(i % 7), tx_index=int(i), size_bytes=params.mean_tx_size,
                  fee_per_byte=float(fees[i]), gen_time=float(gen_times[i]))
        for i in range(n_tx)
    ]
    return TxPool(txs)


def _random_miner_params(rng: np.random.Generator) -> SystemParams:
    m = int(rng.integers(1, 9))
    alpha = rng.uniform(0.1, 1.0, m)
    alpha /= alpha.sum()
    alpha[-1] = 1.0 - math.fsum(alpha[:-1])
    return replace(TABLE_DEFAULTS, n_miners=m, mining_power=tuple(alpha))


def check_miner_ne(budget: int = 1000, seed: int = 0) -> CheckResult:
    """Theorem-1 profile survives exhaustive unilateral deviations, eps=0."""
    rng = np.random.default_rng(seed)
    details = []
    failures = 0
    for i in range(budget):
        params = _random_miner_params(rng)
        pool = _random_pool(rng, params)
        sel = equilibrium_selection(pool, params)
        # Corollary-1 threshold: included iff top fee clears C_s
        top_fee = max(t.fee_per_byte for t in pool)
        threshold_ok = (sel is not None) == (top_fee >= params.storage_cost_per_byte)
        dev = check_miner_nash([sel] * params.n_miners, pool, params)
        if dev is not None or not threshold_ok:
            failures += 1
            if len(details) < 5:
                details.append(f"pool {i}: deviation={dev} threshold_ok={threshold_ok}")
    details.insert(0, f"{budget - failures}/{budget} random pools passed at eps=0")
    return CheckResult(failures == 0, details)


# --- user equilibrium --------------------------------------------------------

def user_ne_sweep_points(points_per_axis: int = 5) -> list[tuple[float, float, float]]:
    gammas = np.geomspace(1e-5, 1e-3, points_per_axis)
    r_highs = np.linspace(5e-4, 3e-3, points_per_axis)
    rho_low = TABLE_DEFAULTS.system_storage_per_byte
    rho_highs = rho_low * np.geomspace(1.2, 16.0, points_per_axis)
    return [(float(g), float(r), float(rh))
            for g in gammas for r in r_highs for rh in rho_highs]


def check_user_ne(points_per_axis: int = 5, grid: int = 101) -> CheckResult:
    """Every selected SNE survives a grid best-response search."""
    if points_per_axis < 2:
        raise ValueError(f"points_per_axis must be at least 2 (one point is a "
                         f"NoGeneration equilibrium), got {points_per_axis}")

    details = []
    failures = 0
    kinds = set()
    points = user_ne_sweep_points(points_per_axis)
    for gamma, r_high, rho_high in points:
        params = replace(TABLE_DEFAULTS, impatience=gamma,
                         utility_high=r_high, utility_low=r_high / 2.0)
        menu = FeeMenu(rho_high=rho_high, rho_low=params.system_storage_per_byte)
        outcome = sne_select(menu, TaxVector.zero(), params)
        kinds.add(outcome.sne_kind.value)
        dev = best_response_check(outcome, menu, TaxVector.zero(), params, grid=grid)
        if dev is not None:
            failures += 1
            if len(details) < 5:
                details.append(
                    f"gamma={gamma:g} R_H={r_high:g} rho_high={rho_high:g}: {dev}")
    details.insert(0, f"{len(points) - failures}/{len(points)} sweep points certified "
                      f"(kinds seen: {sorted(kinds)})")
    return CheckResult(failures == 0, details)


# --- Lemma 1 vs simulator -----------------------------------------------------

def lemma1_profiles() -> list[tuple[str, SystemParams, FeeMenu, StrategyProfile]]:
    """Stable profiles covering both queue classes and asymmetric loads."""
    base = replace(TABLE_DEFAULTS, n_users_high=1, n_users_low=1)
    c_s = base.storage_cost_per_byte
    both_ok = FeeMenu(rho_high=4.0 * c_s, rho_low=2.0 * c_s)
    high_only = FeeMenu(rho_high=2.0 * c_s, rho_low=0.25 * c_s)
    cases = [
        ("two users, both classes (hand value 1/13 + 15/143)",
         base, both_ok,
         StrategyProfile(RatePair(1.0, 1.0), RatePair(1.0, 1.0))),
        ("two users, high class only",
         base, high_only,
         StrategyProfile(RatePair(1.0, 0.0), RatePair(1.0, 0.0))),
        ("one active user, high class",
         base, both_ok,
         StrategyProfile(RatePair(2.0, 0.0), RatePair(0.0, 0.0))),
        ("asymmetric types, both classes",
         replace(TABLE_DEFAULTS, n_users_high=2, n_users_low=2), both_ok,
         StrategyProfile(RatePair(0.5, 1.0), RatePair(0.25, 0.5))),
    ]
    table2 = TABLE_DEFAULTS
    mech = optimal_mechanism(table2)
    cases.append(("optimal-mechanism SNE at evaluation defaults",
                  table2, mech.menu, mech.outcome.profile))
    return cases


@dataclass(frozen=True)
class Lemma1Result:
    user_type: str
    analytic: float
    measured: float
    ci_half: float
    passed: bool


def validate_lemma1(params: SystemParams, menu: FeeMenu, profile: StrategyProfile,
                    tolerance: float = 0.02, replications: int = 10,
                    horizon: float | None = None, seed: int = 0) -> list[Lemma1Result]:
    """Compare simulator waiting rates to the analytic formulas per type.

    Pass when the analytic value lies inside the 95% interval or within the
    relative tolerance. Requires a strictly stable profile (finite waits)
    and at least two replications, so that the interval exists.
    """
    if replications < 2:
        raise ValueError(f"replications must be at least 2 to form a Student-t "
                         f"interval, got {replications}")
    if horizon is None:
        horizon = 1e5 / params.block_rate
    analytic = {t: waiting_rate(t, profile, menu, params) for t in ("H", "L")}
    if any(math.isinf(v) for v in analytic.values()):
        raise ValueError("validate_lemma1 requires a strictly stable profile")
    config = SimConfig(params=params, menu=menu, tax=TaxVector.zero(),
                       profile=profile, horizon=horizon, seed=seed,
                       replications=replications)
    report = run_sim(config)
    results = []
    for t in ("H", "L"):
        a = analytic[t]
        m = report.type_wait_mean[t]
        ci = report.type_wait_ci[t]
        if a == 0.0:
            passed = m == 0.0
        else:
            passed = abs(m - a) <= tolerance * abs(a) or abs(m - a) <= ci
        results.append(Lemma1Result(user_type=t, analytic=a, measured=m,
                                    ci_half=ci, passed=passed))
    return results


def check_lemma1(replications: int = 10, horizon: float | None = None,
                 seed: int = 0) -> CheckResult:
    """Simulator waiting rates match the closed forms at stable profiles."""
    details = []
    all_ok = True
    for i, (label, params, menu, profile) in enumerate(lemma1_profiles()):
        results = validate_lemma1(params, menu, profile, replications=replications,
                                  horizon=horizon, seed=seed + i)
        ok = all(r.passed for r in results)
        all_ok = all_ok and ok
        for r in results:
            details.append(
                f"{'ok ' if r.passed else 'BAD'} {label} [{r.user_type}]: "
                f"analytic={r.analytic:.6g} measured={r.measured:.6g} "
                f"ci=+/-{r.ci_half:.2g}")
    return CheckResult(all_ok, details)


# --- Proposition 2 (mechanism optimality) -------------------------------------

def prop2_draws(seed: int = 0, n_case1: int = 5, n_case2: int = 5) -> list[SystemParams]:
    """Random parameter draws forced into each Theorem-3 case."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(n_case1 + n_case2):
        gamma = float(rng.uniform(1e-5, 5e-4))
        n_h = int(rng.integers(3, 120))
        n_l = int(rng.integers(3, 120))
        p = replace(TABLE_DEFAULTS, impatience=gamma, n_users_high=n_h, n_users_low=n_l)
        threshold = p.system_storage_per_byte * p.mean_tx_size + gamma / p.block_rate
        if len(draws) < n_case1:
            r_high = threshold * float(rng.uniform(0.2, 0.999))
        else:
            r_high = threshold * float(rng.uniform(1.3, 4.0))
        draws.append(replace(p, utility_high=r_high,
                             utility_low=r_high * float(rng.uniform(0.4, 1.0))))
    return draws


def check_prop2(grid_points: int = 50, seed: int = 0,
                rel_tol: float = 0.01) -> CheckResult:
    """Theorem-3 welfare matches the unconstrained grid optimum within 1%."""
    details = []
    passed = 0
    draws = prop2_draws(seed)
    for i, params in enumerate(draws):
        mech = optimal_mechanism(params)
        w3 = social_welfare(mech.outcome, mech.menu, mech.tax, params).total
        oracle = unconstrained_optimum_oracle(params, grid_points=grid_points)
        gap = abs(w3 - oracle.welfare)
        scale = max(abs(w3), abs(oracle.welfare))
        # a NaN oracle welfare fails too, also at a draw whose theorem welfare is 0
        ok = math.isfinite(gap) and (gap <= rel_tol * scale or scale < 1e-15)
        passed += ok
        details.append(
            f"{'ok ' if ok else 'BAD'} draw {i} case {mech.case}: "
            f"theorem={w3:.6g} oracle={oracle.welfare:.6g} gap={gap:.2g}")
    details.insert(0, f"{passed}/{len(draws)} draws within {rel_tol:.0%} "
                      f"at {grid_points} points per axis")
    return CheckResult(passed == len(draws), details)


# --- fairness -----------------------------------------------------------------

def criterion_grid(points: int = 20) -> list[SystemParams]:
    """The evaluation grid: impatience x high-type utility, defaults elsewhere."""
    gammas = np.linspace(1e-5, 1e-3, points)
    r_highs = np.linspace(5e-4, 3e-3, points)
    return [
        replace(TABLE_DEFAULTS, impatience=float(g),
                utility_high=float(r), utility_low=float(r) / 2.0)
        for g in gammas for r in r_highs
    ]


def check_fairness(points: int = 20, tol: float = 1e-9) -> CheckResult:
    """Per-user payoffs under the optimal mechanism have Jain index 1.

    No-generation points yield identically zero payoffs (Jain undefined);
    they count as trivially fair since all payoffs are equal.
    """
    if points < 2:
        raise ValueError(f"points must be at least 2 (the one point is a "
                         f"no-generation point), got {points}")

    details = []
    failures = 0
    degenerate = 0
    grid = criterion_grid(points)
    for params in grid:
        # re-solved, not mech.outcome, so that a wrong entry split shows
        outcome = induced_outcome(optimal_mechanism(params, tax_split="fairness"), params)
        j = jain_index((outcome.payoff_high, outcome.payoff_low),
                       (params.n_users_high, params.n_users_low))
        if math.isnan(j):
            if outcome.payoff_high == outcome.payoff_low == 0.0:
                degenerate += 1
                continue
            failures += 1
            continue
        if abs(j - 1.0) > tol:
            failures += 1
            if len(details) < 5:
                details.append(
                    f"gamma={params.impatience:g} R_H={params.utility_high:g}: "
                    f"jain={j!r}")
    details.insert(0, f"{len(grid) - failures}/{len(grid)} grid points at Jain=1 "
                      f"({degenerate} all-zero no-generation points)")
    return CheckResult(failures == 0, details)


# --- Corollary 2 (tax ordering) -------------------------------------------------

def check_corollary2(step: float = 1e-6) -> CheckResult:
    """The sign of q_H - q_L flips exactly where R_H - R_L crosses delta,
    over R_L from R_H down to R_H - 2e-5 in steps of `step`."""
    params = replace(TABLE_DEFAULTS, impatience=5e-4)
    r_high = params.utility_high
    n_steps = int(round(2e-5 / step))
    r_lows = r_high - step * np.arange(0, n_steps + 1)
    sign_q = []
    sign_delta = []
    for r_low in r_lows:
        p = replace(params, utility_low=float(r_low))
        cmp = tax_comparison(p)
        sign_q.append(cmp.q_high - cmp.q_low < 0)
        sign_delta.append(r_high - r_low < cmp.delta)
    # the two predicates must agree pointwise and both must flip in-range
    agree = all(a == b for a, b in zip(sign_q, sign_delta))
    flipped = (True in sign_q) and (False in sign_q)
    flip_q = next((i for i in range(1, len(sign_q)) if sign_q[i] != sign_q[i - 1]), None)
    flip_d = next((i for i in range(1, len(sign_delta))
                   if sign_delta[i] != sign_delta[i - 1]), None)
    return CheckResult(agree and flipped and flip_q == flip_d, [
        f"predicates agree at all {len(r_lows)} points: {agree}",
        f"sign flip within swept range: {flipped} "
        f"(q at step {flip_q}, delta at step {flip_d}, step={step:g})"])


# each suite's keyword defaults are the options it takes: a suite without a
# `seed` draws no random numbers, and corollary2 has no sample budget
SUITES = {
    "miner_ne": lambda budget=1000, seed=0: check_miner_ne(budget=budget, seed=seed),
    "user_ne": lambda budget=5: check_user_ne(points_per_axis=budget),
    "lemma1": lambda budget=10, seed=0: check_lemma1(replications=budget, seed=seed),
    "prop2": lambda budget=50, seed=0: check_prop2(grid_points=budget, seed=seed),
    "fairness": lambda budget=20: check_fairness(points=budget),
    "corollary2": lambda: check_corollary2(),
}


def run_suite(name: str, budget: int | None = None, seed: int | None = None) -> CheckResult:
    """Run one suite; `budget` (at least 1) replaces its sample budget and
    `seed` its seed. An option the suite does not take is a `ValueError`."""
    if name not in SUITES:
        raise KeyError(f"unknown check suite {name!r}; choose from {sorted(SUITES)}")
    options = {key: value for key, value in (("budget", budget), ("seed", seed))
               if value is not None}
    ignored = options.keys() - inspect.signature(SUITES[name]).parameters.keys()
    if ignored:
        raise ValueError(f"check suite {name!r} takes no {' or '.join(sorted(ignored))}")
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    return SUITES[name](**options)
