"""Stage-II transaction generation: waiting times, SNE rates, payoffs.

Per-user waiting over the fee-priority queue of `fwt.queue`, the
symmetric-equilibrium generation rates, the high-fee/low-fee equilibrium
selection with its waits and payoffs, and a grid best-response oracle that
certifies the closed forms. The per-fee cores accept numpy arrays so the
mechanism grid oracle can evaluate thousands of points per call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    FeeMenu,
    RatePair,
    SneKind,
    StrategyProfile,
    SystemParams,
    TaxVector,
)
from .queue import _checked_sqrt, by_role, own_rate, sojourn, split_roles

__all__ = [
    "SneOutcome",
    "UserDeviation",
    "waiting_rate",
    "sne_select",
    "user_payoff",
    "best_response_check",
]

# --- waiting time ----------------------------------------------------------

def _accumulated_wait_rate(l1, l2, agg1, agg2, high_ok: bool, low_ok: bool, mu: float):
    """Time-average accumulated waiting of one user, extended reals.

    l1/l2 are the user's own rates at the high/low fee, agg1/agg2 the
    system-wide rates including this user. high_ok/low_ok say whether each
    fee class clears the miners' acceptance threshold. Each class adds the
    user's rate times the class sojourn: nothing without own traffic, inf
    when the class is refused or saturated. Scalar or array; numpy result.
    """
    l1 = np.asarray(l1, dtype=float)
    l2 = np.asarray(l2, dtype=float)
    agg1 = np.asarray(agg1, dtype=float)
    tot = agg1 + agg2
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = np.where(high_ok & (agg1 < mu), l1 * sojourn(mu, 0.0, agg1), np.inf)
        t2 = np.where(low_ok & (agg1 < mu) & (tot < mu),
                      l2 * sojourn(mu, agg1, tot), np.inf)
        return np.where(l1 > 0, t1, 0.0) + np.where(l2 > 0, t2, 0.0)


def waiting_rate(user_type: str, profile: StrategyProfile, menu: FeeMenu,
                 params: SystemParams) -> float:
    """Time-average waiting accumulated per unit time by one user.

    Returns math.inf when the user generates transactions that are never
    included or when the relevant class is saturated.
    """
    own = profile.rates_for(user_type)
    agg1, agg2 = profile.aggregate(params)
    c_s = params.storage_cost_per_byte
    return float(_accumulated_wait_rate(
        own.rate_high, own.rate_low, agg1, agg2,
        menu.rho_high >= c_s, menu.rho_low >= c_s, params.block_rate,
    ))


# --- SNE generation rates ---------------------------------------------------

def _pi_rates(h_b, h_s, rho: float, n_b, n_s, params: SystemParams):
    """Equilibrium per-user rates (pi_B, pi_S) at a single active fee.

    Three branches: nobody generates, only type B generates, both types
    generate. Scalar or array inputs for h_b/h_s/n_b/n_s; array outputs.
    """
    gamma = params.impatience
    mu = params.block_rate
    sbar = params.mean_tx_size
    h_b = np.asarray(h_b, dtype=float)
    h_s = np.asarray(h_s, dtype=float)
    n_b = np.asarray(n_b, dtype=float)
    n_s = np.asarray(n_s, dtype=float)

    s_rho = sbar * rho
    cap = mu / (n_b + n_s)
    margin_b = h_b - s_rho
    margin_s = h_s - s_rho

    if gamma == 0.0:
        # waiting is costless: users with positive margin generate at the cap
        pi_b = np.where(margin_b > 0, cap, 0.0)
        pi_s = np.where(margin_s > 0, cap, 0.0)
        return pi_b, pi_s

    cond_none = h_b <= s_rho + gamma / mu
    active = ~cond_none

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        only_b = np.minimum(own_rate(n_b, margin_b, gamma, mu, active), cap)
        cond_only_b = active & (h_s <= s_rho + gamma / (mu - n_b * only_b))
        cond_both = active & ~cond_only_b

        # both-types residual capacity from the joint first-order conditions
        d = n_b * margin_b + n_s * margin_s
        n_tot = n_b + n_s
        arg2 = gamma**2 * (n_tot - 1.0) ** 2 + 4.0 * gamma * mu * d
        root2 = _checked_sqrt(arg2, cond_both)
        x_both = (gamma * (n_tot - 1.0) + root2) / (2.0 * d)
        kb = margin_b * x_both - gamma
        ks = margin_s * x_both - gamma
        both_b = np.minimum(cap, (mu - x_both) * kb / (n_b * kb + n_s * ks))

        pi_b = np.where(cond_none, 0.0, np.where(cond_only_b, only_b, both_b))
        pi_b = np.maximum(pi_b, 0.0)

        pi_s_both = own_rate(n_s, margin_s, gamma, mu - n_b * pi_b, cond_both)
        pi_s = np.where(cond_both, pi_s_both, 0.0)
        pi_s = np.maximum(pi_s, 0.0)

    return pi_b, pi_s


def _delta(h_b, h_s, pi_b, pi_s, rho_low: float, n_b, n_s, params: SystemParams):
    """High-fee attractiveness threshold, computed at the low-fee SNE rates.

    Per type this is the per-transaction value of jumping to the (empty)
    high-fee queue; the high-fee equilibrium is selected when it exceeds
    the high fee itself. Two algebraically-equivalent-at-interior forms
    are combined: the utility-based expression alone overstates the jump
    value when the user's rate is capped (slack first-order condition) and
    understates it for non-generating users, so each type takes the
    pointwise minimum, which equals the marginal jump value in every
    branch.
    """
    gamma = params.impatience
    mu = params.block_rate
    s_rho = params.mean_tx_size * rho_low
    lam = n_b * pi_b + n_s * pi_s
    with np.errstate(divide="ignore", invalid="ignore"):
        x = mu - lam
        common = gamma * (2.0 * mu - lam) / (mu * x * x)
        raw_b = h_b - gamma / mu - pi_b * common
        raw_s = h_s - gamma / mu - pi_s * common
        sub_b = s_rho + gamma * (lam - pi_b) / (mu * x)
        sub_s = s_rho + gamma * (lam - pi_s) / (mu * x)
    term_b = np.minimum(raw_b, sub_b)
    term_s = np.minimum(raw_s, sub_s)
    return np.maximum(term_b, term_s)


def _rates_at(h_b, h_s, fee: float, n_b, n_s, params: SystemParams):
    """Per-user rates (pi_B, pi_S) when everyone uses this fee; array-capable.

    A fee below C_s is never included, so it supports no generation.
    """
    if fee < params.storage_cost_per_byte:
        zeros = np.zeros(h_b.shape)
        return zeros, zeros
    return _pi_rates(h_b, h_s, fee, n_b, n_s, params)


# --- equilibrium selection ---------------------------------------------------

@dataclass(frozen=True)
class SneOutcome:
    """Selected symmetric equilibrium with per-type waits and payoffs."""

    profile: StrategyProfile
    sne_kind: SneKind
    fee_used: float
    waiting_rate_high: float
    waiting_rate_low: float
    payoff_high: float
    payoff_low: float


def sne_select(menu: FeeMenu, tax: TaxVector, params: SystemParams) -> SneOutcome:
    """Pick the Stage-II equilibrium for the menu under the tax (whose row
    sums alone set the rates): high-fee SNE when the waiting-time advantage
    beats the extra fee, low-fee SNE otherwise; payoffs use the waits here.

    Everyone sends at one fee, `fee_used`: rho_H exactly when it is
    accepted and either rho_L is refused or, with waiting costly, the
    high-fee attractiveness delta at the rho_L rates exceeds sbar*rho_H. A
    refused rho_L gets zero rates from `_rates_at`, so any positive rate
    sits at an accepted fee.
    """
    q_h, q_l = tax.row_sums(params)
    b_is_high, h_b, h_s, n_b, n_s = split_roles(params.utility_high - q_h,
                                                params.utility_low - q_l,
                                                params.n_users_high, params.n_users_low)
    c_s = params.storage_cost_per_byte
    pi_b, pi_s = _rates_at(h_b, h_s, menu.rho_low, n_b, n_s, params)
    high = menu.rho_high >= c_s and (
        menu.rho_low < c_s
        or (params.impatience > 0.0
            and bool(_delta(h_b, h_s, pi_b, pi_s, menu.rho_low, n_b, n_s, params)
                     > params.mean_tx_size * menu.rho_high)))
    if high:
        pi_b, pi_s = _pi_rates(h_b, h_s, menu.rho_high, n_b, n_s, params)
    lam_h, lam_l = (float(x) for x in by_role(b_is_high, pi_b, pi_s))
    if high:
        kind = SneKind.HIGH_FEE
        rates_h, rates_l = RatePair(lam_h, 0.0), RatePair(lam_l, 0.0)
    else:
        kind = SneKind.LOW_FEE
        rates_h, rates_l = RatePair(0.0, lam_h), RatePair(0.0, lam_l)
    if lam_h == 0.0 and lam_l == 0.0:
        kind = SneKind.NO_GENERATION
    profile = StrategyProfile(rates_high_type=rates_h, rates_low_type=rates_l)
    wait_h = waiting_rate("H", profile, menu, params)
    wait_l = waiting_rate("L", profile, menu, params)
    return SneOutcome(
        profile=profile,
        sne_kind=kind,
        fee_used=menu.rho_high if high else menu.rho_low,
        waiting_rate_high=wait_h,
        waiting_rate_low=wait_l,
        payoff_high=_payoff("H", profile, wait_h, menu, tax, params),
        payoff_low=_payoff("L", profile, wait_l, menu, tax, params),
    )


# --- payoffs -----------------------------------------------------------------

def _payoff_before_inflow(user_type: str, l1, l2, wait, menu: FeeMenu, tax: TaxVector,
                          params: SystemParams):
    """On-chain utility of one user's included transactions less their fee,
    tax outflow and the user's waiting cost. Scalar or array.

    l1/l2 are the user's own rates at the high/low fee and `wait` its
    accumulated waiting rate (`_accumulated_wait_rate`) at those rates.
    """
    c_s = params.storage_cost_per_byte
    sbar = params.mean_tx_size
    gamma = params.impatience
    incl_hi = menu.rho_high >= c_s
    incl_lo = menu.rho_low >= c_s
    r_n = params.utility_high if user_type == "H" else params.utility_low
    q_h, q_l = tax.row_sums(params)
    q_out = q_h if user_type == "H" else q_l

    util = 0.0
    if incl_hi:
        util = util + l1 * (r_n - sbar * menu.rho_high - q_out)
    if incl_lo:
        util = util + l2 * (r_n - sbar * menu.rho_low - q_out)
    if gamma == 0.0:
        return util
    return util - gamma * wait


def _payoff(user_type: str, profile: StrategyProfile, wait: float, menu: FeeMenu,
            tax: TaxVector, params: SystemParams) -> float:
    """Time-average payoff of one user of the type under a selected
    profile, given its wait: `_payoff_before_inflow` plus the tax inflow
    from every other user's transactions, all of them included because a
    selected profile sends only at an accepted fee."""
    own = profile.rates_for(user_type)
    payoff = _payoff_before_inflow(user_type, own.rate_high, own.rate_low, wait,
                                   menu, tax, params)

    lam_h = profile.rates_high_type.total
    lam_l = profile.rates_low_type.total
    n_h, n_l = params.n_users_high, params.n_users_low
    if user_type == "H":
        inflow = (n_h - 1) * lam_h * tax.p_hh + n_l * lam_l * tax.p_lh
    else:
        inflow = n_h * lam_h * tax.p_hl + (n_l - 1) * lam_l * tax.p_ll

    return payoff + inflow


def user_payoff(user_type: str, outcome: SneOutcome, menu: FeeMenu,
                tax: TaxVector, params: SystemParams) -> float:
    """Time-average payoff of one user of the given type.

    Includes on-chain utility, fee and tax outflow on the user's included
    transactions, waiting cost, and tax inflow from every other user's
    included transactions. The wait is the outcome's, so `menu` must be the
    menu the outcome was selected at; `tax` may differ from its tax.
    """
    wait = outcome.waiting_rate_high if user_type == "H" else outcome.waiting_rate_low
    return _payoff(user_type, outcome.profile, wait, menu, tax, params)


# --- best-response oracle -----------------------------------------------------

@dataclass(frozen=True)
class UserDeviation:
    """A profitable unilateral rate deviation found by best_response_check."""

    user_type: str
    rate_high: float
    rate_low: float
    gain: float
    sne_payoff: float


def best_response_check(outcome: SneOutcome, menu: FeeMenu, tax: TaxVector,
                        params: SystemParams, grid: int = 101) -> UserDeviation | None:
    """Grid-certify that no single user gains by deviating from the SNE.

    Sweeps one deviating user's (rate_high, rate_low) over the feasible
    triangle at the given per-axis resolution while everyone else holds the
    SNE profile. Returns None when no grid point beats the SNE payoff by
    more than 1e-9 * max(1, |payoff|).
    """
    cap = params.max_rate_per_user
    xs = np.linspace(0.0, cap, grid)
    g1, g2 = np.meshgrid(xs, xs, indexing="ij")
    feasible = g1 + g2 <= cap * (1.0 + 1e-12)

    c_s = params.storage_cost_per_byte
    agg1, agg2 = outcome.profile.aggregate(params)
    for user_type in ("H", "L"):
        own = outcome.profile.rates_for(user_type)
        # the crowd holds the SNE profile; the deviator's own rates replace
        # one user of this type, and its tax inflow does not depend on them
        o1 = agg1 - own.rate_high
        o2 = agg2 - own.rate_low

        def payoff(l1, l2):
            wait = _accumulated_wait_rate(l1, l2, o1 + l1, o2 + l2, menu.rho_high >= c_s,
                                          menu.rho_low >= c_s, params.block_rate)
            return _payoff_before_inflow(user_type, l1, l2, wait, menu, tax, params)

        u0 = float(payoff(own.rate_high, own.rate_low))
        if math.isfinite(u0):
            tol = 1e-9 * max(1.0, abs(u0))
        else:
            # infinitely bad base point: any finite improvement counts
            tol = 0.0
        u = payoff(g1, g2)
        u = np.where(feasible, u, -np.inf)
        idx = np.unravel_index(int(np.nanargmax(u)), u.shape)
        gain = float(u[idx]) - u0
        if gain > tol:
            return UserDeviation(
                user_type=user_type,
                rate_high=float(g1[idx]),
                rate_low=float(g2[idx]),
                gain=gain,
                sne_payoff=u0,
            )
    return None
