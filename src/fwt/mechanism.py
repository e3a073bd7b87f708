"""Stage-I mechanism design: optimal fee menu and waiting-tax vector.

The designer maximizes social welfare subject to every generating user's
average fee-per-byte covering the system-wide storage cost per byte. The
closed-form optimum has two cases keyed on whether the high type's on-chain
utility clears total storage plus baseline waiting cost; a brute-force grid
search over menus and tax row sums (without the sufficient-fee constraint)
serves as the optimality oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import FeeMenu, HeteroCostParams, SystemParams, TaxVector, require_valid
from .queue import by_role, split_roles, welfare_rate
from .user_game import (
    SneOutcome,
    _delta,
    _pi_rates,
    net_utilities,
    sne_select,
    user_payoff,
    with_payoffs,
)

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
    """A fee menu plus waiting-tax vector with its per-type row sums."""

    menu: FeeMenu
    tax: TaxVector
    q_high: float
    q_low: float
    case: int  # 1 or 2

    def to_json_dict(self) -> dict:
        entries = (self.tax.p_hh, self.tax.p_hl, self.tax.p_lh, self.tax.p_ll)
        return {
            "rho_high": self.menu.rho_high,
            "rho_low": self.menu.rho_low,
            "P_HH": self.tax.p_hh,
            "P_HL": self.tax.p_hl,
            "P_LH": self.tax.p_lh,
            "P_LL": self.tax.p_ll,
            "q_H": self.q_high,
            "q_L": self.q_low,
            "case": self.case,
            # negative entries are subsidies; legal, but worth surfacing
            "negative_entries": any(e < 0 for e in entries),
        }


def _make_menu(rho_high: float, rho_low: float) -> FeeMenu:
    # degenerate-gamma guard: keep the menu strictly ordered
    if rho_high <= rho_low:
        rho_high = math.nextafter(rho_low, math.inf)
    return FeeMenu(rho_high=rho_high, rho_low=rho_low)


def _case2_rates(params: SystemParams) -> tuple[float, float]:
    """Welfare-optimal per-user generation rates (g1 for H, g2 for L)."""
    mu = params.block_rate
    gamma = params.impatience
    n_h, n_l = params.n_users_high, params.n_users_low
    storage = params.n_miners * params.mean_tx_size * params.storage_cost_per_byte
    cap = mu / (n_h + n_l)
    g1 = min(cap, (mu - math.sqrt(gamma * mu / (params.utility_high - storage))) / n_h)
    low_threshold = storage + gamma * (n_h + n_l) ** 2 / (n_l**2 * mu)
    if params.utility_low <= low_threshold:
        g2 = 0.0
    else:
        g2 = cap - math.sqrt(gamma * mu / (params.utility_low - storage)) / n_l
    return g1, g2


def _split_entries(q_high: float, q_low: float, menu: FeeMenu,
                   params: SystemParams, method: str) -> TaxVector:
    """Choose individual tax entries consistent with the given row sums.

    The row sums pin only two of the four entries. `uniform` splits each
    row evenly over the N-1 counterparts. `fairness` additionally shifts
    weight between own-type and cross-type entries (a null-space move that
    preserves both row sums) until type-H and type-L per-user payoffs are
    equal, which drives the Jain index to 1. Falls back to the uniform
    split when no transfer instrument exists (e.g. the only generating type
    has a single user).
    """
    n_h, n_l = params.n_users_high, params.n_users_low
    n = n_h + n_l
    base_h = q_high / (n - 1)
    base_l = q_low / (n - 1)
    uniform = TaxVector(p_hh=base_h, p_hl=base_h, p_lh=base_l, p_ll=base_l)
    if method == "uniform":
        return uniform
    if method != "fairness":
        raise ValueError(f"unknown tax split {method!r}")

    outcome = sne_select(net_utilities(params, uniform), menu, params)
    lam_h = outcome.profile.rates_high_type.total
    lam_l = outcome.profile.rates_low_type.total
    u_h = user_payoff("H", outcome, menu, uniform, params)
    u_l = user_payoff("L", outcome, menu, uniform, params)
    d0 = u_h - u_l
    k1 = lam_h * (n_h - 1) * n
    k2 = lam_l * (n_l - 1) * n
    norm = k1 * k1 + k2 * k2
    if norm == 0.0:
        return uniform
    t1 = -d0 * k1 / norm
    t2 = -d0 * k2 / norm
    return TaxVector(
        p_hh=base_h + n_l * t1,
        p_hl=base_h - (n_h - 1) * t1,
        p_lh=base_l + (n_l - 1) * t2,
        p_ll=base_l - n_h * t2,
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
    threshold = rho_low * sbar + gamma / mu

    if params.utility_high <= threshold:
        menu = _make_menu(rho_low + gamma / (sbar * mu), rho_low)
        q_high = q_low = 0.0
        case = 1
        tax = _split_entries(q_high, q_low, menu, params, tax_split)
    else:
        menu = _make_menu(params.utility_high / sbar - gamma / (sbar * mu), rho_low)
        g1, g2 = _case2_rates(params)
        x = mu - params.n_users_high * g1 - params.n_users_low * g2
        if gamma == 0.0:
            q_high = params.utility_high - rho_low * sbar
            q_low = params.utility_low - rho_low * sbar
        else:
            q_high = params.utility_high - rho_low * sbar - gamma * (x + g1) / (x * x)
            q_low = params.utility_low - rho_low * sbar - gamma * (x + g2) / (x * x)
        case = 2
        tax = _split_entries(q_high, q_low, menu, params, tax_split)
    return Mechanism(menu=menu, tax=tax, q_high=q_high, q_low=q_low, case=case)


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
    """Stage-II equilibrium induced by a mechanism, with payoffs filled."""
    outcome = sne_select(net_utilities(params, mech.tax), mech.menu, params)
    return with_payoffs(outcome, mech.menu, mech.tax, params)


# --- sufficient fee ----------------------------------------------------------

def sufficient_fee_check(outcome: SneOutcome, menu: FeeMenu, params: SystemParams,
                         system_cost_per_byte: float | None = None) -> tuple[float, bool]:
    """Average fee-per-byte across generating users and whether every
    generating user's average covers total system storage cost per byte.

    Users generating nothing are exempt; with nobody generating the check
    is vacuously true and the average is NaN. Single-class averages return
    the class fee exactly so the boundary case compares exactly.
    """
    bound = (params.system_storage_per_byte
             if system_cost_per_byte is None else system_cost_per_byte)

    def type_avg(rates) -> float | None:
        if rates.total == 0.0:
            return None
        if rates.rate_high == 0.0:
            return menu.rho_low
        if rates.rate_low == 0.0:
            return menu.rho_high
        return ((rates.rate_high * menu.rho_high + rates.rate_low * menu.rho_low)
                / rates.total)

    ok = True
    per_type: list[tuple[float, float]] = []
    for user_type, count in (("H", params.n_users_high), ("L", params.n_users_low)):
        rates = outcome.profile.rates_for(user_type)
        avg = type_avg(rates)
        if avg is None:
            continue
        ok = ok and (avg >= bound)
        per_type.append((avg, count * rates.total))
    if not per_type:
        return math.nan, True
    if len({avg for avg, _ in per_type}) == 1:
        # common class fee: return it exactly, no weighted-mean roundoff
        return per_type[0][0], ok
    weighted = sum(avg * rate for avg, rate in per_type)
    total_rate = sum(rate for _, rate in per_type)
    return weighted / total_rate, ok


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

    def to_json_dict(self) -> dict:
        return {
            "total": self.total,
            "user_sum": self.user_sum,
            "miner_sum": self.miner_sum,
            "payoff_high": self.payoff_high,
            "payoff_low": self.payoff_low,
            "avg_fee_per_byte": self.avg_fee_per_byte,
        }


def social_welfare(outcome: SneOutcome, menu: FeeMenu, tax: TaxVector,
                   params: SystemParams,
                   system_cost_per_byte: float | None = None) -> WelfareBreakdown:
    """Sum of all users' and miners' time-average payoffs.

    Fees and taxes are transfers: the total equals on-chain utility minus
    total storage cost minus waiting cost, independent of the tax vector at
    fixed generation rates.
    """
    scb = (params.system_storage_per_byte
           if system_cost_per_byte is None else system_cost_per_byte)
    c_s = params.storage_cost_per_byte
    sbar = params.mean_tx_size
    u_h = user_payoff("H", outcome, menu, tax, params)
    u_l = user_payoff("L", outcome, menu, tax, params)
    user_sum = params.n_users_high * u_h + params.n_users_low * u_l

    agg1, agg2 = outcome.profile.aggregate(params)
    incl = (agg1 if menu.rho_high >= c_s else 0.0) + (agg2 if menu.rho_low >= c_s else 0.0)
    fee_inflow = sbar * ((agg1 * menu.rho_high if menu.rho_high >= c_s else 0.0)
                         + (agg2 * menu.rho_low if menu.rho_low >= c_s else 0.0))
    miner_sum = fee_inflow - scb * sbar * incl

    avg_fee, _ = sufficient_fee_check(outcome, menu, params, system_cost_per_byte=scb)
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
    """Best grid point of the tax-row-sum welfare search."""

    welfare: float
    menu: FeeMenu
    q_high: float
    q_low: float
    rate_high_type: float
    rate_low_type: float


def unconstrained_optimum_oracle(params: SystemParams,
                                 grid_points: int = 50) -> OracleResult:
    """Grid-maximize welfare over menus and tax row sums, ignoring the
    sufficient-fee constraint.

    Welfare depends on the tax vector only through the two row sums, so the
    search space is four-dimensional: both fees on [0, 1.5*R_H/sbar] and
    both row sums on [-R_H, R_H]. A menu is a pair fee[i] > fee[j] of the
    ascending fee axis.

    The search makes one Stage-II solve per fee, not per menu. At each
    row-sum cell the selected equilibrium puts everyone at one fee, so the
    cell's welfare is that of "everyone uses fee f", and which fee is used
    depends on the menu only through per-fee quantities: nobody generates
    when rho_H < C_s; everyone uses rho_H when rho_L < C_s <= rho_H; with
    both fees accepted, everyone uses rho_H exactly when the high-fee
    attractiveness delta at the rho_L rates exceeds sbar*rho_H (never when
    gamma = 0). Two tables over the fee axis therefore carry the search:
    W[f], the welfare when everyone uses fee f (zero rates when f < C_s),
    and D[f], that delta (+inf when f < C_s, so a refused rho_L defers to
    rho_H; -inf when gamma = 0). Menu (i, j) has welfare
    where(D[j] > sbar*fee[i], W[i], W[j]). The tables hold the same arrays
    a per-menu solve computes and every selection is elementwise, so each
    menu's welfare is bitwise that of solving it on its own.

    The winner is the first maximum in (i, j, cell) order; a menu whose
    welfare holds a NaN is skipped, as its argmax lands on the NaN.
    """
    require_valid(params)
    r_h, r_l = params.utility_high, params.utility_low
    gamma = params.impatience
    sbar = params.mean_tx_size
    c_s = params.storage_cost_per_byte

    fee_grid = np.linspace(0.0, 1.5 * r_h / sbar, grid_points)
    q_grid = np.linspace(-r_h, r_h, grid_points)
    qh, ql = np.meshgrid(q_grid, q_grid, indexing="ij")
    b_is_high, h_b, h_s, n_b, n_s = split_roles(
        (r_h - qh).ravel(), (r_l - ql).ravel(), params.n_users_high, params.n_users_low)

    def rates_at(fee: float):
        """Per-user rates (pi_B, pi_S) when everyone uses this fee."""
        if fee < c_s:
            return np.zeros(h_b.shape), np.zeros(h_b.shape)
        return _pi_rates(h_b, h_s, fee, n_b, n_s, params)

    welfare = np.empty((grid_points, h_b.size))
    delta = np.empty((grid_points, h_b.size))
    for f, fee in enumerate(fee_grid.tolist()):
        pi_b, pi_s = rates_at(fee)
        lam_h, lam_l = by_role(b_is_high, pi_b, pi_s)
        welfare[f] = welfare_rate(lam_h, lam_l, params, params.system_storage_per_byte)
        if fee < c_s:
            delta[f] = np.inf
        elif gamma == 0.0:
            # waiting is free, so nobody pays the higher fee
            delta[f] = -np.inf
        else:
            delta[f] = _delta(h_b, h_s, pi_b, pi_s, fee, n_b, n_s, params)

    best_w = -math.inf
    best = None
    for i in range(1, grid_points):
        # rows j < i: the welfare of menu (fee[i], fee[j]) at every cell
        block = np.where(delta[:i] > sbar * fee_grid[i], welfare[i], welfare[:i])
        k = block.argmax(axis=1)
        w = block[np.arange(i), k]
        j = int(np.argmax(np.where(np.isnan(w), -np.inf, w)))
        if w[j] > best_w:
            best_w = float(w[j])
            best = (i, j, int(k[j]))
    assert best is not None
    i, j, k = best
    used = i if delta[j, k] > sbar * fee_grid[i] else j
    pi_b, pi_s = rates_at(float(fee_grid[used]))
    lam_h, lam_l = by_role(b_is_high[k], pi_b[k], pi_s[k])
    return OracleResult(
        welfare=best_w,
        menu=FeeMenu(rho_high=float(fee_grid[i]), rho_low=float(fee_grid[j])),
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
    mu = params.block_rate
    gamma = params.impatience
    sbar = params.mean_tx_size
    storage = params.n_miners * sbar * params.storage_cost_per_byte
    if params.utility_high <= storage + gamma / mu:
        raise ValueError("tax comparison requires the generating case "
                         "(R_H above the storage-plus-waiting threshold)")
    g1, g2 = _case2_rates(params)
    x = mu - params.n_users_high * g1 - params.n_users_low * g2
    delta = gamma * (g1 - g2) / (x * x)
    mech = optimal_mechanism(params, tax_split="uniform")
    return TaxComparison(delta=delta, q_high=mech.q_high, q_low=mech.q_low)
