"""Earlier forms of program code, kept as references for the current one.

Each function is program code as it stood before a simplification, so a
test can assert that the simplified code gives the same numbers.
"""
import math
from fractions import Fraction

import numpy as np

import fwt.user_game as user_game
from fwt.mechanism import OracleResult
from fwt.model import FeeMenu
from fwt.queue import _checked_sqrt, by_role, own_rate, split_roles, welfare_rate


def stage2_rates_core(h_high, h_low, menu, params):
    """The Stage-II choice as written before `sne_select` solved one fee at
    a time: per-type rates and the use-rho_H flag, array-capable, on
    `pi_rates_all_branches` and `delta`.
    """
    c_s = params.storage_cost_per_byte
    b_is_high, h_b, h_s, n_b, n_s = split_roles(h_high, h_low, params.n_users_high,
                                                params.n_users_low)

    shape = h_b.shape
    if menu.rho_high < c_s:
        pi_b = np.zeros(shape)
        pi_s = np.zeros(shape)
        use_high = np.zeros(shape, dtype=bool)
    elif menu.rho_low < c_s:
        pi_b, pi_s = pi_rates_all_branches(h_b, h_s, menu.rho_high, n_b, n_s, params)
        use_high = np.ones(shape, dtype=bool)
    else:
        pib_lo, pis_lo = pi_rates_all_branches(h_b, h_s, menu.rho_low, n_b, n_s, params)
        if params.impatience == 0.0:
            use_high = np.zeros(shape, dtype=bool)
        else:
            delta = delta_array(h_b, h_s, pib_lo, pis_lo, menu.rho_low, n_b, n_s, params)
            use_high = delta > params.mean_tx_size * menu.rho_high
        if np.any(use_high):
            pib_hi, pis_hi = pi_rates_all_branches(h_b, h_s, menu.rho_high, n_b, n_s, params)
            pi_b = np.where(use_high, pib_hi, pib_lo)
            pi_s = np.where(use_high, pis_hi, pis_lo)
        else:
            pi_b, pi_s = pib_lo, pis_lo

    lam_h, lam_l = by_role(b_is_high, pi_b, pi_s)
    return lam_h, lam_l, use_high


def delta_array(h_b, h_s, pi_b, pi_s, rho_low, n_b, n_s, params):
    """`user_game._delta` as it stood before it ran on Python floats: the
    high-fee attractiveness threshold at the low-fee rates, array-capable."""
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


def pi_rates_all_branches(h_b, h_s, rho, n_b, n_s, params):
    """`user_game._pi_rates` as it stood before it composed two branch
    kernels: all three branches computed in every entry, then selected,
    with gamma = 0 solved on its own path."""
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
        pi_b = np.where(margin_b > 0, cap, 0.0)
        pi_s = np.where(margin_s > 0, cap, 0.0)
        return pi_b, pi_s

    cond_none = h_b <= s_rho + gamma / mu
    active = ~cond_none

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        only_b = np.minimum(own_rate(n_b, margin_b, gamma, mu, active), cap)
        cond_only_b = active & (h_s <= s_rho + gamma / (mu - n_b * only_b))
        cond_both = active & ~cond_only_b

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


def pair_loop_oracle(params, grid_points):
    """The welfare grid oracle as a search over fee pairs: one Stage-II
    solve per menu fee[i] > fee[j] of the ascending fee axis, the first
    maximum in (i, j, cell) order, menus whose welfare holds a NaN skipped.

    Returns the winner as an `OracleResult` whose `fee` is the fee the
    winning menu's equilibrium uses at the winning cell.
    """
    r_h, r_l = params.utility_high, params.utility_low
    mu, gamma, sbar = params.block_rate, params.impatience, params.mean_tx_size
    n_h, n_l = params.n_users_high, params.n_users_low
    scb = params.system_storage_per_byte
    fee_grid = np.linspace(0.0, 1.5 * r_h / sbar, grid_points)
    q_grid = np.linspace(-r_h, r_h, grid_points)
    qh, ql = np.meshgrid(q_grid, q_grid, indexing="ij")
    margin_h = r_h - scb * sbar
    margin_l = r_l - scb * sbar
    best_w, best = -math.inf, None
    for i in range(1, grid_points):
        for j in range(i):
            menu = FeeMenu(rho_high=float(fee_grid[i]), rho_low=float(fee_grid[j]))
            lam_h, lam_l, use_high = stage2_rates_core(r_h - qh, r_l - ql, menu, params)
            lam = n_h * lam_h + n_l * lam_l
            if gamma == 0.0:
                wait_cost = 0.0
            else:
                with np.errstate(divide="ignore", invalid="ignore"):
                    wait_cost = gamma * np.where(lam > 0, lam / (mu - lam), 0.0)
            welfare = n_h * lam_h * margin_h + n_l * lam_l * margin_l - wait_cost
            k = int(np.argmax(welfare))
            w = float(welfare.flat[k])
            if w > best_w:
                best_w = w
                fee = menu.rho_high if use_high.flat[k] else menu.rho_low
                best = OracleResult(
                    welfare=w, fee=fee,
                    q_high=float(qh.flat[k]), q_low=float(ql.flat[k]),
                    rate_high_type=float(np.asarray(lam_h).flat[k]),
                    rate_low_type=float(np.asarray(lam_l).flat[k]))
    return best


def fee_loop_welfare_table(params, grid_points):
    """The welfare grid oracle's table W[f, cell] as one Stage-II solve per
    fee: every row-sum cell through `pi_rates_all_branches`, all three
    branches in every cell, and zero rates at a refused fee."""
    r_h, r_l = params.utility_high, params.utility_low
    fee_grid = np.linspace(0.0, 1.5 * r_h / params.mean_tx_size, grid_points)
    q_grid = np.linspace(-r_h, r_h, grid_points)
    qh, ql = np.meshgrid(q_grid, q_grid, indexing="ij")
    b_is_high, h_b, h_s, n_b, n_s = split_roles(
        (r_h - qh).ravel(), (r_l - ql).ravel(), params.n_users_high, params.n_users_low)

    welfare = np.empty((grid_points, h_b.size))
    for f, fee in enumerate(fee_grid.tolist()):
        if fee < params.storage_cost_per_byte:
            pi_b = pi_s = np.zeros(h_b.shape)
        else:
            pi_b, pi_s = pi_rates_all_branches(h_b, h_s, fee, n_b, n_s, params)
        lam_h, lam_l = by_role(b_is_high, pi_b, pi_s)
        welfare[f] = welfare_rate(lam_h, lam_l, params, params.system_storage_per_byte)
    return welfare


def sufficient_fee_check(outcome, menu, params):
    """The fee check as a rate-weighted mean of each generating type's
    average over both fee classes, each type checked on its own."""
    def type_avg(rates):
        if rates.total == 0.0:
            return None
        if rates.rate_high == 0.0:
            return menu.rho_low
        if rates.rate_low == 0.0:
            return menu.rho_high
        return ((rates.rate_high * menu.rho_high + rates.rate_low * menu.rho_low)
                / rates.total)

    ok = True
    per_type = []
    for user_type, count in (("H", params.n_users_high), ("L", params.n_users_low)):
        rates = outcome.profile.rates_for(user_type)
        avg = type_avg(rates)
        if avg is None:
            continue
        ok = ok and (avg >= params.system_storage_per_byte)
        per_type.append((avg, count * rates.total))
    if not per_type:
        return float("nan"), True
    if len({avg for avg, _ in per_type}) == 1:
        return per_type[0][0], ok
    weighted = sum(avg * rate for avg, rate in per_type)
    total_rate = sum(rate for _, rate in per_type)
    return weighted / total_rate, ok


def miner_sum(outcome, menu, params):
    """Miners' welfare with the acceptance rule applied class by class:
    fees on the included classes less their system storage cost."""
    c_s = params.storage_cost_per_byte
    sbar = params.mean_tx_size
    agg1, agg2 = outcome.profile.aggregate(params)
    incl = (agg1 if menu.rho_high >= c_s else 0.0) + (agg2 if menu.rho_low >= c_s else 0.0)
    fee_inflow = sbar * ((agg1 * menu.rho_high if menu.rho_high >= c_s else 0.0)
                         + (agg2 * menu.rho_low if menu.rho_low >= c_s else 0.0))
    return fee_inflow - params.system_storage_per_byte * sbar * incl


def payoff(user_type, profile, wait, menu, tax, params):
    """One user's payoff with the tax inflow from every other user's
    transactions counted class by class, at the accepted fees only."""
    own = profile.rates_for(user_type)
    result = user_game._payoff_before_inflow(user_type, own.rate_high, own.rate_low, wait,
                                             menu, tax, params)

    c_s = params.storage_cost_per_byte
    incl_hi = menu.rho_high >= c_s
    incl_lo = menu.rho_low >= c_s
    rates_h = profile.rates_high_type
    rates_l = profile.rates_low_type
    incl_h_tot = (rates_h.rate_high if incl_hi else 0.0) + (rates_h.rate_low if incl_lo else 0.0)
    incl_l_tot = (rates_l.rate_high if incl_hi else 0.0) + (rates_l.rate_low if incl_lo else 0.0)
    n_h, n_l = params.n_users_high, params.n_users_low
    if user_type == "H":
        inflow = (n_h - 1) * incl_h_tot * tax.p_hh + n_l * incl_l_tot * tax.p_lh
    else:
        inflow = n_h * incl_h_tot * tax.p_hl + (n_l - 1) * incl_l_tot * tax.p_ll
    return result + inflow


def poisson_arrivals(seed_seq, rates, horizon):
    """The simulator's arrival draw before every process came from one
    generator: process i draws from its own PCG64 on child i of
    `seed_seq.spawn`, its exponential gaps by the inverse CDF in chunks sized
    by its expected count, until a time passes the horizon. Returns the
    times concatenated in process order and each process's count."""
    streams = []
    for child, rate in zip(seed_seq.spawn(len(rates)), rates):
        gen = np.random.Generator(np.random.PCG64(child))
        expected = rate * horizon
        chunk = max(64, int(expected + 6.0 * np.sqrt(expected) + 16))
        times = np.zeros(1)
        while rate > 0.0 and times[-1] <= horizon:
            times = np.concatenate(
                [times, times[-1] + np.cumsum(-np.log1p(-gen.random(chunk)) / rate)])
        streams.append(times[1:][times[1:] <= horizon])
    return np.concatenate(streams), np.array([len(t) for t in streams])


def one_generator_poisson_arrivals(gen, rates, horizon):
    """The simulator's arrival draw as one expression over fresh arrays,
    before it ran in one buffer: every count, one run of exponential gaps
    for all processes, and each process's partial sums over its total.
    Returns the times concatenated in process order and each count."""
    counts = gen.poisson(np.asarray(rates, dtype=float) * horizon)
    sums = np.cumsum(-np.log1p(-gen.random(int(counts.sum()) + len(counts))))
    ends = np.cumsum(counts + 1) - 1        # each process's extra gap
    before = np.repeat(np.concatenate(([0.0], sums[ends[:-1]])), counts)
    total = np.repeat(sums[ends], counts) - before
    return (np.delete(sums, ends) - before) / total * horizon, counts


def _fifo_served_slots(arrivals, blocks):
    """The FIFO walk over the blocks a class may use: the positions in
    `blocks` of the blocks that serve the arrivals, in arrival order."""
    served = np.searchsorted(blocks, arrivals, side="right")
    k = np.arange(len(arrivals))
    np.subtract(served, k, out=served)
    np.maximum.accumulate(served, out=served)
    np.add(served, k, out=served)
    return served[:np.searchsorted(served, len(blocks))]


def per_block_serve(times, cls, block_times, menu, params):
    """The simulator's class loop before it worked on arrival-sized arrays
    alone: a transaction per block in an array over the blocks, each class
    walked over the times of the blocks still free, which are then deleted.
    Returns what `fwt.sim._serve` returns: the serving blocks in block
    order, their transactions and the unserved ones."""
    c_s = params.storage_cost_per_byte
    n_blocks = len(block_times)
    served_tx = np.full(n_blocks, -1)
    unserved = []
    free = np.arange(n_blocks)
    for c, rho in enumerate((menu.rho_high, menu.rho_low)):
        fifo = np.flatnonzero(cls == c)
        fifo = fifo[np.argsort(times[fifo], kind="stable")]   # ties in user order
        served = (_fifo_served_slots(times[fifo], block_times[free]) if rho >= c_s
                  else free[:0])
        served_tx[free[served]] = fifo[:len(served)]
        unserved.append(fifo[len(served):])
        free = np.delete(free, served)
    block = np.flatnonzero(served_tx >= 0)      # serving blocks in block order
    return block, served_tx[block], np.concatenate(unserved)


def pairwise_tax_total(included, n_users_high, tax):
    """The tax total of a replication as its explicit multiset: for every
    ordered pair (u, v) of distinct users, the double fl(k_u * P[type u][type
    v]) that u pays v, with k_u u's inclusion count and users 0 ..
    n_users_high - 1 of type H. The N(N - 1) amounts are summed exactly as
    fractions and rounded once."""
    entry = {("H", "H"): tax.p_hh, ("H", "L"): tax.p_hl,
             ("L", "H"): tax.p_lh, ("L", "L"): tax.p_ll}
    kind = ["H" if u < n_users_high else "L" for u in range(len(included))]
    total = Fraction(0)
    for u, k in enumerate(included):
        for v in range(len(included)):
            if v != u:
                total += Fraction(float(k) * entry[kind[u], kind[v]])
    return float(total)
