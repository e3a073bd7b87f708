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

from .model import FeeMenu, InvalidInput, SneKind, SystemParams, TaxVector, require_valid
from .queue import InvariantError, by_role, split_roles, welfare_rate
from .user_game import (SneOutcome, _both_rates, _only_b_rates, _type_rates, sne_select,
                        user_payoff)

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

# fee rows of the welfare table evaluated together: at 50 points the
# both-types temporaries of 5 rows stay in cache, where 4, 10 or all 50 rows
# ran slower
_FEE_BLOCK = 5


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


def optimal_mechanism_hetero(params: SystemParams, cost_ratio: float,
                             tax_split: str = "fairness") -> tuple[Mechanism, SystemParams]:
    """Optimal mechanism under two-tier miner storage costs: half of the
    miners at `storage_cost_per_byte`, half at `cost_ratio` times it.

    Identical to the homogeneous problem with the per-miner cost replaced
    by the across-miner average: within the feasible fee region every miner
    accepts, so equilibria are unchanged. Returns the mechanism together
    with the effective params it was solved against.
    """
    cost_low = params.storage_cost_per_byte
    cost_high = cost_ratio * cost_low
    if not (cost_high >= cost_low > 0):
        raise InvalidInput(
            f"requires cost_high >= cost_low > 0, got ({cost_high}, {cost_low})")
    if math.isinf(cost_high):
        raise InvalidInput(f"requires a finite cost_high = ratio * cost_low, "
                           f"got {cost_ratio!r} * {cost_low!r}")
    params_eff = replace(params, storage_cost_per_byte=0.5 * cost_high + 0.5 * cost_low)
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


def _welfare_table(params: SystemParams,
                   grid_points: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The oracle's fee axis on [0, 1.5*R_H/sbar], row-sum axis on
    [-R_H, R_H] and table W[f, cell]: the welfare when everyone uses fee f,
    with zero rates at a refused fee, at the row sums (q[i], q[j]) of
    cell = i * grid_points + j.

    Each Stage-II branch is evaluated over the grid it varies on. Nobody
    generating and only B generating depend on the fee and B's own row sum
    alone, so `_only_b_rates` and the welfare there are evaluated once on
    the (fee x 2*gp row-sum) plane, whose first gp columns have B = H and
    the rest B = L. Each cell gathers its entry, and whether S joins, through
    one fee-independent index. `_both_rates` and its welfare then run only on
    the cells that take that branch, `_FEE_BLOCK` fee rows at a time.
    """
    r_h, r_l = params.utility_high, params.utility_low
    n_h, n_l = params.n_users_high, params.n_users_low
    scb = params.system_storage_per_byte
    gp = grid_points
    fee_grid = np.linspace(0.0, 1.5 * r_h / params.mean_tx_size, gp)
    q_grid = np.linspace(-r_h, r_h, gp)
    n_cells = gp * gp
    plane_h = np.concatenate([r_h - q_grid, r_l - q_grid])
    plane_b_is_high = np.arange(2 * gp) < gp
    plane_n_b, plane_n_s = by_role(plane_b_is_high, float(n_h), float(n_l))
    i, j = np.divmod(np.arange(n_cells), gp)
    b_is_high, h_b, h_s, n_b, n_s = split_roles(plane_h[i], plane_h[gp + j], float(n_h),
                                                float(n_l))
    b_column = np.where(b_is_high, i, gp + j)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        active, pi_b, threshold = _only_b_rates(plane_h, fee_grid[:, None], plane_n_b,
                                                plane_n_s, params)
        # a refused fee supports no generation
        active &= (fee_grid >= params.storage_cost_per_byte)[:, None]
        pi_b = np.where(active, pi_b, 0.0)
        # S sends 0 on the plane, and its n*0*a welfare term adds exactly
        plane_welfare = welfare_rate(*by_role(plane_b_is_high, pi_b, 0.0), params, scb)

        table = np.empty((gp, n_cells))
        for start in range(0, gp, _FEE_BLOCK):
            rows = slice(start, start + _FEE_BLOCK)
            block = table[rows]
            np.take(plane_welfare[rows], b_column, axis=1, out=block)
            both = np.flatnonzero(np.take(active[rows], b_column, axis=1)
                                  & ~(h_s <= np.take(threshold[rows], b_column, axis=1)))
            f, c = np.divmod(both, n_cells)
            pi_b, pi_s = _both_rates(h_b[c], h_s[c], fee_grid[rows][f], n_b[c], n_s[c],
                                     params, True)
            block.reshape(-1)[both] = welfare_rate(*by_role(b_is_high[c], pi_b, pi_s),
                                                   params, scb)
    return fee_grid, q_grid, table


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

    The table W[f, cell] (`_welfare_table`) holds the welfare when everyone
    uses fee f. Its branches split unevenly: over the 3,125,000 cells of
    `prop2_draws(1, 12, 13)` at 50 points, 2.0% sit at a refused fee, 25.8%
    have nobody generating, 43.1% only B and 29.1% both types. So the table
    is evaluated branch by branch, over the grid each branch varies on.
    The winner is the first maximum in (fee, cell) order, so a NaN cell
    becomes the welfare and surfaces in the caller's check. Its rates are
    solved again in floats through `_type_rates` from its own row sums, and
    an `InvariantError` is raised unless their welfare is the table's entry.
    """
    require_valid(params)
    if grid_points < 2:
        raise InvalidInput(f"grid_points must be at least 2 (a one-point fee axis "
                           f"holds only fee 0), got {grid_points}")
    fee_grid, q_grid, table = _welfare_table(params, grid_points)

    f, k = np.unravel_index(int(np.argmax(table)), table.shape)
    i, j = divmod(int(k), grid_points)
    fee, q_high, q_low = float(fee_grid[f]), float(q_grid[i]), float(q_grid[j])
    lam_h, lam_l = _type_rates(params.utility_high - q_high, params.utility_low - q_low,
                               fee, params)
    welfare = float(welfare_rate(lam_h, lam_l, params, params.system_storage_per_byte))
    if not np.array_equal(welfare, table[f, k], equal_nan=True):
        raise InvariantError(f"welfare table entry {float(table[f, k])!r} at fee row {f}, "
                             f"cell {k} is not its rates' welfare {welfare!r}")
    # nobody generating is +0.0, not -0.0
    return OracleResult(welfare=float(table[f, k]) + 0.0, fee=fee, q_high=q_high, q_low=q_low,
                        rate_high_type=lam_h, rate_low_type=lam_l)


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
