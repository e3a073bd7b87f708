"""Surrogate for the untaxed incumbent protocol used in comparisons.

Minimal model consistent with the staged game: no waiting tax, miners
accept any fee-per-byte covering a single miner's storage cost, and
higher-fee transactions preempt lower-fee ones in the queue. Each user
type picks one fee level from a grid plus a generation rate; the
equilibrium is found by deterministic round-robin best response. Only
qualitative directions of this baseline are meaningful; its exact welfare
numbers are a modeling choice, not a reproduction target.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import SystemParams, require_valid
from .queue import own_rate, sojourn, welfare_rate

__all__ = ["ExistingOutcome", "existing_equilibrium", "verify_existing"]


@dataclass(frozen=True)
class ExistingOutcome:
    """Converged (or best-cycle) state of the no-tax fee competition."""

    fee_high_type: float
    fee_low_type: float
    rate_high_type: float
    rate_low_type: float
    waiting_rate_high: float
    waiting_rate_low: float
    payoff_high: float
    payoff_low: float
    avg_fee_per_byte: float
    welfare: float
    converged: bool
    iterations: int
    fee_grid_points: int
    cycle_len: int  # 1 at a fixed point, k on a k-cycle, 0 if max_iters ran out

    def to_json_dict(self) -> dict:
        return {
            "sne_kind": "Existing",
            "fee_used": {"H": self.fee_high_type, "L": self.fee_low_type},
            "rates": {
                "H": {"rate_high": self.rate_high_type, "rate_low": 0.0},
                "L": {"rate_high": self.rate_low_type, "rate_low": 0.0},
            },
            "waiting_rate": {"H": self.waiting_rate_high, "L": self.waiting_rate_low},
            "payoff": {"H": self.payoff_high, "L": self.payoff_low},
            "avg_fee_per_byte": self.avg_fee_per_byte,
            "converged": self.converged,
        }


def _fee_grid(params: SystemParams, points: int) -> np.ndarray:
    lo = params.storage_cost_per_byte
    hi = 2.0 * params.utility_high / params.mean_tx_size
    return np.linspace(lo, max(hi, lo * (1 + 1e-9)), points)


def _best_response(r_n: float, n_own: int, other_fi: int, other_load: float,
                   grid: np.ndarray, params: SystemParams):
    """Best (fee index, rate) for one user type against the other type's play.

    The other type sends the total rate `other_load` at fee index
    `other_fi`. For each candidate fee the rate is the within-type
    symmetric fixed point: every one of the n_own users individually
    optimizes against its n_own - 1 peers playing the same rate plus the
    other type's traffic. This is the same rate root as the single-fee
    equilibrium, with the class capacity shrunk by higher-fee traffic,
    which scales the waiting cost by mu/(mu - above). The
    payoff-maximizing fee wins, lowest fee on ties.
    """
    mu = params.block_rate
    gamma = params.impatience
    sbar = params.mean_tx_size
    cap = params.max_rate_per_user
    above = np.zeros(len(grid))
    above[:other_fi] = other_load
    same = np.zeros(len(grid))
    same[other_fi] = other_load

    margin = r_n - sbar * grid
    mu1 = mu - above          # capacity above my class
    free = mu1 - same         # class capacity left before my type's load
    valid = (margin > 0) & (mu1 > 0) & (free > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        if gamma == 0.0:
            lam = np.where(valid, np.minimum(np.maximum(free, 0.0), cap), 0.0)
            payoff = np.where(valid, lam * margin, 0.0)
        else:
            lam = own_rate(n_own, margin, gamma * mu / mu1, free, valid)
            lam = np.where(valid, np.minimum(np.maximum(lam, 0.0), cap), 0.0)
            wait_per_tx = sojourn(mu, above, above + same + n_own * lam)
            cost = np.where(lam > 0, gamma * lam * wait_per_tx, 0.0)
            payoff = np.where(valid, lam * margin - cost, 0.0)
    best = int(np.argmax(payoff))
    return best, float(lam[best]), float(payoff[best])


def _state_metrics(state, grid, params: SystemParams, system_cost_per_byte: float):
    """Waits, payoffs, welfare and rate-weighted average fee of a state."""
    fi_h, lam_h, fi_l, lam_l = state
    mu = params.block_rate
    gamma = params.impatience
    sbar = params.mean_tx_size
    n_h, n_l = params.n_users_high, params.n_users_low

    def wait_per_tx(fi, own_group_rate, other_fi, other_rate):
        above = other_rate if other_fi > fi else 0.0
        through = above + own_group_rate + (other_rate if other_fi == fi else 0.0)
        return sojourn(mu, above, through) if through < mu else math.inf

    w_h = wait_per_tx(fi_h, n_h * lam_h, fi_l, n_l * lam_l)
    w_l = wait_per_tx(fi_l, n_l * lam_l, fi_h, n_h * lam_h)

    def payoff(r_n, fee, lam, w):
        if lam == 0.0:
            return 0.0
        cost = 0.0 if gamma == 0.0 else gamma * lam * w
        return lam * (r_n - sbar * fee) - cost

    u_h = payoff(params.utility_high, grid[fi_h], lam_h, w_h)
    u_l = payoff(params.utility_low, grid[fi_l], lam_l, w_l)

    welfare = float(welfare_rate(lam_h, lam_l, params, system_cost_per_byte))

    total = n_h * lam_h + n_l * lam_l
    if total == 0.0:
        avg_fee = math.nan
    else:
        avg_fee = (n_h * lam_h * grid[fi_h] + n_l * lam_l * grid[fi_l]) / total
    return w_h, w_l, u_h, u_l, welfare, float(avg_fee)


def existing_equilibrium(params: SystemParams, fee_grid_points: int = 200,
                         max_iters: int = 300,
                         system_cost_per_byte: float | None = None) -> ExistingOutcome:
    """Round-robin best-response equilibrium of the no-tax fee game.

    Starts from (fee = C_s, rate = mu/N) for both types. On a best-response
    cycle, returns the best-welfare state of the cycle with converged=False
    and the cycle's length in cycle_len.
    """
    require_valid(params)
    grid = _fee_grid(params, fee_grid_points)
    n_h, n_l = params.n_users_high, params.n_users_low
    cap = params.max_rate_per_user
    scb = (params.system_storage_per_byte
           if system_cost_per_byte is None else system_cost_per_byte)

    state = (0, cap, 0, cap)
    seen: dict[tuple, int] = {state: 0}
    history = [state]
    cycle_len = 0
    iterations = 0
    for it in range(1, max_iters + 1):
        iterations = it
        fi_h, lam_h, fi_l, lam_l = state
        fi_h, lam_h, _ = _best_response(
            params.utility_high, n_h, fi_l, n_l * lam_l, grid, params)
        bi_l, bl_l, _ = _best_response(
            params.utility_low, n_l, fi_h, n_h * lam_h, grid, params)
        new_state = (fi_h, lam_h, bi_l, bl_l)
        if new_state == state:
            cycle_len = 1
            break
        if new_state in seen:
            # cycle: keep the best-welfare state on it
            start = seen[new_state]
            cycle = history[start:]
            cycle_len = len(cycle)
            welfare = welfare_rate(np.array([s[1] for s in cycle]),
                                   np.array([s[3] for s in cycle]), params, scb)
            state = cycle[int(np.argmax(welfare))]
            break
        seen[new_state] = len(history)
        history.append(new_state)
        state = new_state

    w_h, w_l, u_h, u_l, welfare, avg_fee = _state_metrics(state, grid, params, scb)
    fi_h, lam_h, fi_l, lam_l = state
    return ExistingOutcome(
        fee_high_type=float(grid[fi_h]),
        fee_low_type=float(grid[fi_l]),
        rate_high_type=lam_h,
        rate_low_type=lam_l,
        waiting_rate_high=w_h,
        waiting_rate_low=w_l,
        payoff_high=u_h,
        payoff_low=u_l,
        avg_fee_per_byte=avg_fee,
        welfare=welfare,
        converged=cycle_len == 1,
        iterations=iterations,
        fee_grid_points=fee_grid_points,
        cycle_len=cycle_len,
    )


def verify_existing(outcome: ExistingOutcome, params: SystemParams,
                    eps: float = 1e-9) -> bool:
    """Check the outcome is a best-response fixed point on its own grid."""
    grid = _fee_grid(params, outcome.fee_grid_points)
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
