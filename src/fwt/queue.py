"""The Stage-II queue: preemptive-priority M/M/1 waits, rates and welfare.

The miners' fee-priority rule makes the pending pool a preemptive-priority
M/M/1 queue served at the block rate mu. A fee class with load above it
Lambda_<k, and Lambda_<=k counting itself, has the mean sojourn
T_k = mu / ((mu - Lambda_<k) (mu - Lambda_<=k)) (Kleinrock, Queueing
Systems Vol. 2, 1976); by Little's law all traffic together accumulates
Lambda / (mu - Lambda) waiting per unit time, whatever the order.

Array kernels serve the grids, float kernels one point. `sojourn` and
`own_rate` take floats or arrays and are bare arithmetic: callers mask the
entries where they do not apply, such as refused or saturated classes.
`own_rate_float` is the same root in Python floats, bit for bit, with
numpy's results at a zero divisor, a NaN or a tie (`_div`, `_minimum`,
`_maximum`). Its caller squares gamma as the array call would: `g * g`
for an array gamma (the baseline), `gamma ** 2`, C pow, for a float one
(Stage II); the two differ in the last bit at rare gammas. Type B is the
user type with the bigger net utility, type S the other one.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["InvariantError", "sojourn", "welfare_rate", "own_rate", "own_rate_float",
           "by_role", "split_roles"]

_SQRT_TOL = 1e-15


class InvariantError(RuntimeError):
    """An internal invariant failed: a bug in the program, not bad input."""


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


def _div(a, b):
    """a / b in floats, as numpy divides: +-inf or NaN where b is zero."""
    if b != 0.0:
        return a / b
    return math.nan if a == 0.0 or a != a else math.copysign(math.inf, a * math.copysign(1, b))


def _minimum(a, b):
    """np.minimum of two floats: NaN if either is NaN, b of two equal."""
    return a if a < b or a != a else b


def _maximum(a, b):
    """np.maximum of two floats: NaN if either is NaN, b of two equal."""
    return a if a > b or a != a else b


def _checked_sqrt(arg, selected):
    """sqrt with tiny-negative clamping; beyond-tolerance negatives on a
    selected branch indicate a branch-selection bug and raise."""
    arg = np.asarray(arg, dtype=float)
    if (selected & (arg < -_SQRT_TOL)).any():
        raise InvariantError("negative square-root argument on an active branch")
    return np.sqrt(np.maximum(arg, 0.0))


def _checked_sqrt_float(arg):
    """`_checked_sqrt` of one selected float."""
    if arg < -_SQRT_TOL:
        raise InvariantError("negative square-root argument on an active branch")
    return math.sqrt(_maximum(arg, 0.0))


def own_rate(n, margin, gamma, free, selected):
    """Per-user rate of n symmetric users sharing the capacity `free`.

    The capacity x they leave unused is the positive root of
    n*margin*x^2 - gamma*(n - 1)*x - gamma*free = 0, and each user sends
    (free - x)/n. The square root is checked on the `selected` entries.
    """
    root = _checked_sqrt(
        gamma**2 * (n - 1.0) ** 2 + 4.0 * n * margin * gamma * free, selected)
    return free / n - (gamma * (n - 1.0) + root) / (2.0 * margin * n**2)


def own_rate_float(n, margin, gamma, gamma_sq, free):
    """`own_rate` at one selected point, for Python floats and an int n,
    bit for bit where its gamma squares to `gamma_sq`."""
    root = _checked_sqrt_float(gamma_sq * (n - 1.0) ** 2 + 4.0 * n * margin * gamma * free)
    return free / n - _div(gamma * (n - 1.0) + root, 2.0 * margin * n**2)


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
