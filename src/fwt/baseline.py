"""Surrogate for the untaxed incumbent protocol used in comparisons.

Minimal model consistent with the staged game: no waiting tax, miners
accept any fee-per-byte covering a single miner's storage cost, and
higher-fee transactions preempt lower-fee ones in the queue. Each user
type picks one fee level from a grid plus a generation rate; the
equilibrium is found by deterministic round-robin best response. Only
qualitative directions of this baseline are meaningful; its exact welfare
numbers are a modeling choice, not a reproduction target.

A best response needs at most three of the grid's fees: the lowest one,
the rival's fee and the fee one step above it. Fees below the rival's all
see the same queue, as do fees above it, and within each group the lowest
fee pays best (proof in `_best_response`). These are the moves of
Edgeworth-cycle pricing (Maskin & Tirole 1988): drop to the lowest fee,
match the rival, or outbid it by one step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import SystemParams, require_valid
from .queue import own_rate_float, sojourn, welfare_rate

__all__ = ["ExistingOutcome", "existing_equilibrium", "verify_existing"]

FEE_GRID_POINTS = 200
MAX_ITERS = 300


@dataclass(frozen=True)
class ExistingOutcome:
    """Converged (or best-cycle) state of the no-tax fee competition."""

    fee_high_type: float
    fee_low_type: float
    rate_high_type: float
    rate_low_type: float
    payoff_high: float
    payoff_low: float
    avg_fee_per_byte: float
    welfare: float
    converged: bool
    iterations: int
    cycle_len: int  # 1 at a fixed point, k on a k-cycle, 0 if MAX_ITERS ran out


def _fee_grid(params: SystemParams) -> np.ndarray:
    lo = params.storage_cost_per_byte
    hi = 2.0 * params.utility_high / params.mean_tx_size
    return np.linspace(lo, max(hi, lo * (1 + 1e-9)), FEE_GRID_POINTS)


def _best_response(r_n: float, n_own: int, other_fi: int, other_load: float,
                   grid: np.ndarray, params: SystemParams):
    """Best (fee index, rate, payoff) for one user type against the other
    type's play, lowest fee on ties.

    The other type sends the total rate `other_load` = L at fee index
    `other_fi` = j. At each fee the rate is the within-type symmetric fixed
    point: every one of the n_own users optimizes against its n_own - 1
    peers plus the other type's traffic. This is the single-fee rate root
    with the class capacity shrunk by higher-fee traffic, which scales the
    waiting cost by mu/(mu - above).

    Only the fee indices 0, j and j + 1 can win. The grid splits into three
    runs: i < j sees (above, same) = (L, 0), i = j sees (0, L), i > j sees
    (0, 0). Within a run only the margin m = r_n - sbar*fee changes, and it
    falls as i rises. The payoff there is 0 where m <= 0 or the run has no
    capacity, and otherwise strictly increasing in m:
    - uncapped, it is gamma' lam^2 / x^2 with gamma' = gamma mu/(mu - above),
      where x, the capacity the type leaves unused, falls and the rate
      lam = (free - x)/n_own rises as m rises (0 once x >= free);
    - at the cap it is cap (m - gamma W), with the wait W fixed;
    - at gamma = 0 it is min(free, cap) m.
    So along a run the payoff is positive and strictly falling, then 0, and
    the first maximum over the grid sits at a run's first index. The scan
    takes the runs in index order and keeps only a strictly larger payoff,
    so it returns that first maximum, index 0 when every payoff is 0.

    Where m * free is within rounding of gamma', the rate is a few ulps and
    the computed payoff can fall below 0. The scan then walks on along the
    run to its first payoff >= 0, as a search over the whole grid would.
    """
    mu = params.block_rate
    gamma = params.impatience
    cap = params.max_rate_per_user
    best = None
    for start, stop, above, same in ((0, other_fi, other_load, 0.0),
                                     (other_fi, other_fi + 1, 0.0, other_load),
                                     (other_fi + 1, len(grid), 0.0, 0.0)):
        mu1 = mu - above          # capacity above my class
        free = mu1 - same         # class capacity left before my type's load
        for i in range(start, stop):
            margin = r_n - params.mean_tx_size * float(grid[i])
            lam = 0.0
            if margin > 0 and mu1 > 0 and free > 0:
                if gamma == 0.0:
                    lam = min(free, cap)
                else:
                    g = gamma * mu / mu1
                    lam = min(max(own_rate_float(n_own, margin, g, g * g, free), 0.0), cap)
            payoff = _payoff(n_own, lam, above, same, margin, params)
            if best is None or payoff > best[2]:
                best = (i, lam, payoff)
            if payoff >= 0.0:
                break
    return best


def _payoff(n_own: int, lam: float, above: float, same: float, margin: float,
            params: SystemParams) -> float:
    """Payoff of one user of a type whose n_own users each send `lam` at a
    fee with net `margin` = r_n - sbar*fee, with `above` and `same` the
    other type's load in the higher fee classes and in this fee's class;
    0 without traffic, and a class loaded to mu or past it waits forever."""
    if lam == 0.0:
        return 0.0
    mu = params.block_rate
    gamma = params.impatience
    if gamma == 0.0:
        return lam * margin
    through = above + same + n_own * lam
    wait_per_tx = sojourn(mu, above, through) if through < mu else math.inf
    return lam * margin - gamma * lam * wait_per_tx


def _state_metrics(state, grid, params: SystemParams, system_cost_per_byte: float):
    """Payoffs, welfare and rate-weighted average fee of a state."""
    fi_h, lam_h, fi_l, lam_l = state
    n_h, n_l = params.n_users_high, params.n_users_low

    def payoff(r_n, n_own, fi, lam, other_fi, other_rate):
        above = other_rate if other_fi > fi else 0.0
        same = other_rate if other_fi == fi else 0.0
        return _payoff(n_own, lam, above, same, r_n - params.mean_tx_size * grid[fi], params)

    u_h = payoff(params.utility_high, n_h, fi_h, lam_h, fi_l, n_l * lam_l)
    u_l = payoff(params.utility_low, n_l, fi_l, lam_l, fi_h, n_h * lam_h)

    welfare = float(welfare_rate(lam_h, lam_l, params, system_cost_per_byte))

    total = n_h * lam_h + n_l * lam_l
    if total == 0.0:
        avg_fee = math.nan
    else:
        avg_fee = (n_h * lam_h * grid[fi_h] + n_l * lam_l * grid[fi_l]) / total
    return u_h, u_l, welfare, float(avg_fee)


def existing_equilibrium(params: SystemParams,
                         system_cost_per_byte: float | None = None) -> ExistingOutcome:
    """Round-robin best-response equilibrium of the no-tax fee game.

    Starts from (fee = C_s, rate = mu/N) for both types and stops at the
    first revisited state. A fixed point is a cycle of length 1 and sets
    converged=True; on a longer cycle, returns the cycle's best-welfare
    state with converged=False. cycle_len is the cycle's length, 0 if
    MAX_ITERS ran out.
    """
    require_valid(params)
    grid = _fee_grid(params)
    n_h, n_l = params.n_users_high, params.n_users_low
    cap = params.max_rate_per_user
    scb = (params.system_storage_per_byte
           if system_cost_per_byte is None else system_cost_per_byte)

    state = (0, cap, 0, cap)
    seen: dict[tuple, int] = {}   # state -> visit index, in visit order
    for iterations in range(1, MAX_ITERS + 1):
        seen[state] = len(seen)
        fi_h, lam_h, _ = _best_response(
            params.utility_high, n_h, state[2], n_l * state[3], grid, params)
        fi_l, lam_l, _ = _best_response(
            params.utility_low, n_l, fi_h, n_h * lam_h, grid, params)
        state = (fi_h, lam_h, fi_l, lam_l)
        if state in seen:
            # a cycle, of length 1 at a fixed point: keep its best-welfare state
            cycle = list(seen)[seen[state]:]
            cycle_len = len(cycle)
            welfare = welfare_rate(np.array([s[1] for s in cycle]),
                                   np.array([s[3] for s in cycle]), params, scb)
            state = cycle[int(np.argmax(welfare))]
            break
    else:
        cycle_len = 0

    u_h, u_l, welfare, avg_fee = _state_metrics(state, grid, params, scb)
    fi_h, lam_h, fi_l, lam_l = state
    return ExistingOutcome(
        fee_high_type=float(grid[fi_h]),
        fee_low_type=float(grid[fi_l]),
        rate_high_type=lam_h,
        rate_low_type=lam_l,
        payoff_high=u_h,
        payoff_low=u_l,
        avg_fee_per_byte=avg_fee,
        welfare=welfare,
        converged=cycle_len == 1,
        iterations=iterations,
        cycle_len=cycle_len,
    )


def verify_existing(outcome: ExistingOutcome, params: SystemParams,
                    eps: float = 1e-9) -> bool:
    """Check the outcome is a best-response fixed point on the fee grid."""
    grid = _fee_grid(params)
    n_h, n_l = params.n_users_high, params.n_users_low
    fi_h = int(np.argmin(np.abs(grid - outcome.fee_high_type)))
    fi_l = int(np.argmin(np.abs(grid - outcome.fee_low_type)))
    lam_h, lam_l = outcome.rate_high_type, outcome.rate_low_type
    bi_h, bl_h, _ = _best_response(params.utility_high, n_h, fi_l, n_l * lam_l, grid, params)
    if bi_h != fi_h or abs(bl_h - lam_h) > eps * max(1.0, lam_h):
        return False
    bi_l, bl_l, _ = _best_response(params.utility_low, n_l, fi_h, n_h * lam_h, grid, params)
    if bi_l != fi_l or abs(bl_l - lam_l) > eps * max(1.0, lam_l):
        return False
    return True
