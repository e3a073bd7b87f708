"""Stage-I mechanism design: optimal fee menu and waiting-tax vector.

The designer maximizes social welfare subject to every generating user's
average fee-per-byte covering the system-wide storage cost per byte. The
closed-form optimum has two cases keyed on whether the high type's on-chain
utility clears total storage plus baseline waiting cost; a brute-force grid
search over one shared fee and the tax row sums (without the sufficient-fee
constraint) serves as the optimality oracle. The Stage-II equilibrium
depends on the tax entries only through their row sums, so it is solved
once per mechanism and carried with it; a split rule moves the entries and
the payoffs only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import (FeeMenu, HeteroCostParams, SneKind, SystemParams, TaxVector,
                    require_valid)
from .queue import by_role, split_roles, welfare_rate
from .user_game import SneOutcome, _rates_at, sne_select, user_payoff

__all__ = [
    "Mechanism",
    "WelfareBreakdown",
    "OracleResult",
    "TaxComparison",
    "optimal_mechanism",
    "optimal_mechanism_hetero",
    "induced_outcome",
    "sufficient_fee_check",
    "social_welfare",
    "unconstrained_optimum_oracle",
    "tax_comparison",
]


@dataclass(frozen=True)
class Mechanism:
    """A fee menu plus waiting-tax vector with its per-type row sums, and the
    equilibrium they induce (solved at the uniform split; payoffs under `tax`)."""

    menu: FeeMenu
    tax: TaxVector
    q_high: float
    q_low: float
    case: int  # 1 or 2
    outcome: SneOutcome


def _make_menu(rho_high: float, rho_low: float) -> FeeMenu:
    # degenerate-gamma guard: keep the menu strictly ordered
    if rho_high <= rho_low:
        rho_high = math.nextafter(rho_low, math.inf)
    return FeeMenu(rho_high=rho_high, rho_low=rho_low)


def _case2(params: SystemParams) -> tuple[float, float, float, float, float] | None:
    """Theorem 3's case: None at or below the boundary R_H <= storage +
    gamma/mu (case 1), else (g1, g2, x, q_high, q_low): the optimal per-user
    rates of H and L, the capacity x = mu - n_H g1 - n_L g2 they leave
    unused, and the tax row sums that price the waiting externality. One
    storage value per transaction, (M C_s) sbar, serves all of them, and g1
    is clamped at 0 against rounding just above the boundary.
    """
    mu = params.block_rate
    gamma = params.impatience
    n_h, n_l = params.n_users_high, params.n_users_low
    storage = params.system_storage_per_byte * params.mean_tx_size
    if params.utility_high <= storage + gamma / mu:
        return None
    cap = mu / (n_h + n_l)
    margin_h = params.utility_high - storage
    margin_l = params.utility_low - storage
    g1 = min(cap, max(0.0, (mu - math.sqrt(gamma * mu / margin_h)) / n_h))
    if params.utility_low <= storage + gamma * (n_h + n_l) ** 2 / (n_l**2 * mu):
        g2 = 0.0
    else:
        g2 = cap - math.sqrt(gamma * mu / margin_l) / n_l
    x = mu - n_h * g1 - n_l * g2
    if gamma == 0.0:    # no waiting externality to price
        return g1, g2, x, 0.0, 0.0
    return (g1, g2, x, margin_h - gamma * (x + g1) / (x * x),
            margin_l - gamma * (x + g2) / (x * x))


def _split_entries(uniform: TaxVector, outcome: SneOutcome, params: SystemParams,
                   method: str) -> TaxVector:
    """Tax entries with the row sums of `uniform`, whose equilibrium is `outcome`.

    The row sums pin only two of the four entries. `uniform` splits each
    row evenly over the N-1 counterparts. `fairness` additionally shifts
    weight between own-type and cross-type entries (a null-space move that
    preserves both row sums) until type-H and type-L per-user payoffs are
    equal, which drives the Jain index to 1. Falls back to the uniform
    split when no transfer instrument exists (e.g. the only generating type
    has a single user).
    """
    if method == "uniform":
        return uniform
    if method != "fairness":
        raise ValueError(f"unknown tax split {method!r}")

    n_h, n_l, n = params.n_users_high, params.n_users_low, params.n_users
    lam_h = outcome.profile.rates_high_type.total
    lam_l = outcome.profile.rates_low_type.total
    d0 = outcome.payoff_high - outcome.payoff_low
    k1 = lam_h * (n_h - 1) * n
    k2 = lam_l * (n_l - 1) * n
    norm = k1 * k1 + k2 * k2
    if norm == 0.0:
        return uniform
    t1 = -d0 * k1 / norm
    t2 = -d0 * k2 / norm
    return TaxVector(
        p_hh=uniform.p_hh + n_l * t1,
        p_hl=uniform.p_hl - (n_h - 1) * t1,
        p_lh=uniform.p_lh + (n_l - 1) * t2,
        p_ll=uniform.p_ll - n_h * t2,
    )


def optimal_mechanism(params: SystemParams, tax_split: str = "fairness") -> Mechanism:
    """Welfare-maximizing mechanism under the sufficient-fee constraint.

    Case 1 (low utilities): fees are set high enough that nobody generates
    and tax row sums are zero. Case 2: the low fee exactly covers system
    storage cost per byte, the high fee is priced out of use, and row sums
    internalize the waiting externality at the optimal rates.
    """
    require_valid(params)
    mu = params.block_rate
    gamma = params.impatience
    sbar = params.mean_tx_size
    rho_low = params.system_storage_per_byte  # M * C_s
    case2 = _case2(params)
    if case2 is None:
        menu = _make_menu(rho_low + gamma / (sbar * mu), rho_low)
        q_high = q_low = 0.0
        case = 1
    else:
        menu = _make_menu(params.utility_high / sbar - gamma / (sbar * mu), rho_low)
        q_high, q_low = case2[3:]
        case = 2
    n = params.n_users
    uniform = TaxVector(q_high / (n - 1), q_high / (n - 1), q_low / (n - 1), q_low / (n - 1))
    outcome = sne_select(menu, uniform, params)
    tax = _split_entries(uniform, outcome, params, tax_split)
    if tax is not uniform:
        outcome = replace(outcome, payoff_high=user_payoff("H", outcome, menu, tax, params),
                          payoff_low=user_payoff("L", outcome, menu, tax, params))
    return Mechanism(menu=menu, tax=tax, q_high=q_high, q_low=q_low, case=case,
                     outcome=outcome)


def optimal_mechanism_hetero(params: SystemParams, hc: HeteroCostParams,
                             tax_split: str = "fairness") -> tuple[Mechanism, SystemParams]:
    """Optimal mechanism under two-tier miner storage costs.

    Identical to the homogeneous problem with the per-miner cost replaced
    by the across-miner average: within the feasible fee region every miner
    accepts, so equilibria are unchanged. Returns the mechanism together
    with the effective params it was solved against.
    """
    params_eff = replace(params, storage_cost_per_byte=hc.mean_cost)
    return optimal_mechanism(params_eff, tax_split=tax_split), params_eff


def induced_outcome(mech: Mechanism, params: SystemParams) -> SneOutcome:
    """Stage-II equilibrium re-solved under the mechanism's final entries:
    an independent check of `mech.outcome`, whose rates it matches up to
    the rounding of the entries' row sums."""
    return sne_select(mech.menu, mech.tax, params)


# --- sufficient fee ----------------------------------------------------------

def sufficient_fee_check(outcome: SneOutcome, params: SystemParams) -> tuple[float, bool]:
    """Fee-per-byte the generating users pay and whether it covers total
    system storage cost per byte.

    A selected equilibrium sends every user at one fee, `fee_used`, so that
    fee is every generating user's average. With nobody generating the
    check is vacuously true and the fee is NaN.
    """
    if outcome.sne_kind is SneKind.NO_GENERATION:
        return math.nan, True
    return outcome.fee_used, outcome.fee_used >= params.system_storage_per_byte


# --- social welfare -----------------------------------------------------------

@dataclass(frozen=True)
class WelfareBreakdown:
    """Social welfare split into user and miner sides."""

    total: float
    user_sum: float
    miner_sum: float
    payoff_high: float
    payoff_low: float
    avg_fee_per_byte: float


def social_welfare(outcome: SneOutcome, menu: FeeMenu, tax: TaxVector,
                   params: SystemParams) -> WelfareBreakdown:
    """Sum of all users' and miners' time-average payoffs.

    Fees and taxes are transfers: the total equals on-chain utility minus
    total storage cost minus waiting cost, independent of the tax vector at
    fixed generation rates.
    """
    sbar = params.mean_tx_size
    u_h = user_payoff("H", outcome, menu, tax, params)
    u_l = user_payoff("L", outcome, menu, tax, params)
    user_sum = params.n_users_high * u_h + params.n_users_low * u_l

    # a selected outcome sends everyone at fee_used, a fee the miners accept
    load = sum(outcome.profile.aggregate(params))
    miner_sum = (sbar * (load * outcome.fee_used)
                 - params.system_storage_per_byte * sbar * load)

    avg_fee, _ = sufficient_fee_check(outcome, params)
    return WelfareBreakdown(
        total=user_sum + miner_sum,
        user_sum=user_sum,
        miner_sum=miner_sum,
        payoff_high=u_h,
        payoff_low=u_l,
        avg_fee_per_byte=avg_fee,
    )


# --- unconstrained optimum oracle ----------------------------------------------

@dataclass(frozen=True)
class OracleResult:
    """Best grid point of the fee and tax-row-sum welfare search: the fee
    everyone uses, the row sums and the per-user rates there."""

    welfare: float
    fee: float
    q_high: float
    q_low: float
    rate_high_type: float
    rate_low_type: float


def unconstrained_optimum_oracle(params: SystemParams,
                                 grid_points: int = 50) -> OracleResult:
    """Grid-maximize welfare over one fee and the tax row sums, ignoring the
    sufficient-fee constraint.

    Welfare depends on the tax vector only through the two row sums, and
    the selected equilibrium of any menu puts everyone at one fee, so no
    menu beats the best "everyone uses fee f" point: the search is over a
    fee on [0, 1.5*R_H/sbar] and both row sums on [-R_H, R_H]. When C_s > 0
    the fee 0 is refused, so menu (f, 0) realises that point; at C_s = 0
    it bounds every menu's welfare from above.

    The table W[f, cell] holds the welfare when everyone uses fee f, with
    zero rates at a refused fee. The winner is the first maximum in
    (fee, cell) order, so a NaN cell becomes the welfare and surfaces in
    the caller's check.
    """
    require_valid(params)
    if grid_points < 2:
        raise ValueError(f"grid_points must be at least 2 (a one-point fee axis "
                         f"holds only fee 0), got {grid_points}")
    r_h, r_l = params.utility_high, params.utility_low
    sbar = params.mean_tx_size

    fee_grid = np.linspace(0.0, 1.5 * r_h / sbar, grid_points)
    q_grid = np.linspace(-r_h, r_h, grid_points)
    qh, ql = np.meshgrid(q_grid, q_grid, indexing="ij")
    b_is_high, h_b, h_s, n_b, n_s = split_roles(
        (r_h - qh).ravel(), (r_l - ql).ravel(), params.n_users_high, params.n_users_low)

    welfare = np.empty((grid_points, h_b.size))
    for f, fee in enumerate(fee_grid.tolist()):
        pi_b, pi_s = _rates_at(h_b, h_s, fee, n_b, n_s, params)
        lam_h, lam_l = by_role(b_is_high, pi_b, pi_s)
        welfare[f] = welfare_rate(lam_h, lam_l, params, params.system_storage_per_byte)

    f, k = np.unravel_index(int(np.argmax(welfare)), welfare.shape)
    cell = slice(k, k + 1)
    pi_b, pi_s = _rates_at(h_b[cell], h_s[cell], float(fee_grid[f]), n_b[cell],
                           n_s[cell], params)
    lam_h, lam_l = by_role(b_is_high[k], pi_b[0], pi_s[0])
    return OracleResult(
        welfare=float(welfare[f, k]),
        fee=float(fee_grid[f]),
        q_high=float(qh.flat[k]),
        q_low=float(ql.flat[k]),
        rate_high_type=float(lam_h),
        rate_low_type=float(lam_l),
    )


# --- waiting-tax comparison ------------------------------------------------------

@dataclass(frozen=True)
class TaxComparison:
    """Corollary-style ordering of total waiting-tax rates."""

    delta: float
    q_high: float
    q_low: float

    @property
    def low_type_pays_more(self) -> bool:
        return self.q_high < self.q_low


def tax_comparison(params: SystemParams) -> TaxComparison:
    """Threshold delta on R_H - R_L at which the tax ordering flips.

    Only defined in the generating case; the low-utility type pays the
    larger total waiting tax exactly when R_H - R_L < delta.
    """
    require_valid(params)
    case2 = _case2(params)
    if case2 is None:
        raise ValueError("tax comparison requires the generating case "
                         "(R_H above the storage-plus-waiting threshold)")
    g1, g2, x, q_high, q_low = case2
    return TaxComparison(delta=params.impatience * (g1 - g2) / (x * x),
                         q_high=q_high, q_low=q_low)
