"""The Stage-II queue: preemptive-priority M/M/1 waits, rates and welfare.

The miners' fee-priority rule makes the pending pool a preemptive-priority
M/M/1 queue served at the block rate mu. A fee class with load above it
Lambda_<k, and Lambda_<=k counting itself, has the mean sojourn
T_k = mu / ((mu - Lambda_<k) (mu - Lambda_<=k)) (Kleinrock, Queueing
Systems Vol. 2, 1976); by Little's law all traffic together accumulates
Lambda / (mu - Lambda) waiting per unit time, whatever the order.

The formulas take floats or numpy arrays. `sojourn` and `own_rate` are
bare arithmetic: callers mask the entries where they do not apply, such as
refused or saturated classes. Type B is the user type with the bigger net
utility, type S the other one.
"""
from __future__ import annotations

import numpy as np

__all__ = ["sojourn", "welfare_rate", "own_rate", "by_role", "split_roles"]

_SQRT_TOL = 1e-15


def sojourn(mu, above, through):
    """Mean sojourn of a fee class with load `above` in the higher classes
    and `through` up to and including itself; finite only for through < mu."""
    return mu / ((mu - above) * (mu - through))


def welfare_rate(lam_h, lam_l, params, system_cost_per_byte):
    """Social welfare per unit time of the per-user rates (lam_h, lam_l).

    On-chain utility less system storage cost, sum n*lam*(R - scb*sbar),
    less gamma times the total wait load/(mu - load), infinite at or past
    saturation. Fees and taxes are transfers and cancel.
    """
    n_h, n_l = params.n_users_high, params.n_users_low
    sbar = params.mean_tx_size
    gamma = params.impatience
    value = (n_h * lam_h * (params.utility_high - system_cost_per_byte * sbar)
             + n_l * lam_l * (params.utility_low - system_cost_per_byte * sbar))
    if gamma == 0.0:
        return value
    mu = params.block_rate
    load = np.asarray(n_h * lam_h + n_l * lam_l, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        wait = np.where(load < mu, load / (mu - load), np.inf)
    return value - gamma * wait


def _checked_sqrt(arg, selected):
    """sqrt with tiny-negative clamping; beyond-tolerance negatives on a
    selected branch indicate a branch-selection bug and raise."""
    arg = np.asarray(arg, dtype=float)
    if (selected & (arg < -_SQRT_TOL)).any():
        raise ValueError("negative square-root argument on an active branch")
    return np.sqrt(np.maximum(arg, 0.0))


def own_rate(n, margin, gamma, free, selected):
    """Per-user rate of n symmetric users sharing the capacity `free`.

    The capacity x they leave unused is the positive root of
    n*margin*x^2 - gamma*(n - 1)*x - gamma*free = 0, and each user sends
    (free - x)/n. The square root is checked on the `selected` entries.
    """
    root = _checked_sqrt(
        gamma**2 * (n - 1.0) ** 2 + 4.0 * n * margin * gamma * free, selected)
    return free / n - (gamma * (n - 1.0) + root) / (2.0 * margin * n**2)


def by_role(b_is_high, x_high, x_low):
    """(x_B, x_S) from a per-type pair (x_H, x_L). The swap is its own
    inverse, so the same call maps (x_B, x_S) back to (x_H, x_L)."""
    return np.where(b_is_high, x_high, x_low), np.where(b_is_high, x_low, x_high)


def split_roles(h_high, h_low, n_high, n_low):
    """(b_is_high, h_B, h_S, n_B, n_S) from the per-type net utilities and
    user counts; ties resolve to B = H."""
    b_is_high = h_high >= h_low
    h_b, h_s = by_role(b_is_high, h_high, h_low)
    n_b, n_s = by_role(b_is_high, n_high, n_low)
    return b_is_high, h_b, h_s, n_b, n_s
