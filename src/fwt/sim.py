"""Monte Carlo simulator of the full pipeline.

Poisson per-user-per-class transaction arrivals, exponential block
inter-arrival times, and the equilibrium selection rule (highest
fee-per-byte, earliest generation, included only when the fee covers a
single miner's per-byte storage cost) applied at every block instant.
Serves as the independent oracle for the waiting-time formulas, user
payoffs and welfare.

Method: every block includes one transaction and each fee class is FIFO,
so each class is a Lindley reflected walk over its arrivals: an arrival
leaves on the later of the first free slot after it and the slot after its
predecessor's, a running maximum that `_fifo_served` takes over the
arrivals alone. The high class runs on every block; the low class runs on
the free slots, the blocks the high class left empty. A slot is counted by
binary search among the high class's blocks, so no array runs over the
blocks: every array of a replication but the block times is the size of
its arrivals. The two classes' blocks are then merged into block order, in
which every per-user sum is taken. A class whose fee is below the storage
cost is never served, and its arrivals stay pending until the horizon
(censored). Tie rule: a block sees only the transactions generated
strictly before it, and equal generation times queue in user order.

Transfer totals: the fee and tax ledgers cover the post-warm-up window, as
the payoffs and the inclusion counts do, and each total is correctly
rounded. A type-a user with k inclusions pays the same amount to every
other type-t user, so the tax total is taken over a histogram of the
users' inclusion counts, one term per type, count and payee type, and the
fee total over the two classes' counts. Each term is a double times an
integer; a double is an integer over a power of two, so `_exact_sum` adds
every term exactly in one Python integer over the largest denominator and
rounds once.

Confidence intervals: each mean over replications carries a 95% Student-t
half-width. The t quantile is computed here with the math module and numpy
alone (`_t_quantile`: the closed-form t distribution function for integer
degrees of freedom, inverted by Newton's method), which keeps the import of
a statistics library off every process's start-up.

Reproducibility: the root seed spawns one seed sequence per replication,
and each replication draws everything from one generator on it, in a fixed
order: the block process, the arrivals of every user and class, and last
the block winners. The independent Poisson processes share the generator:
each draws a Poisson count and, given it, uniform order statistics
(`_poisson_arrivals`), which is their law whatever generator they come
from. A seed gives the same bytes on every run, but a change in the number
of users moves every draw after the blocks. The winners are drawn only in
the first replication, the one whose event log is reported (no other
output reads them), and after everything else, so logging moves no other
output. All exponential draws use the inverse CDF.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .model import FeeMenu, InvalidInput, RatePair, StrategyProfile, SystemParams, TaxVector

__all__ = [
    "SimConfig",
    "SimReport",
    "run",
]


@dataclass(frozen=True)
class SimConfig:
    params: SystemParams
    menu: FeeMenu
    tax: TaxVector
    profile: StrategyProfile
    horizon: float
    seed: int = 0
    warmup: float = 0.1          # fraction of horizon discarded
    replications: int = 10
    # optional per-user override (deviation experiments); length N
    per_user_rates: tuple[RatePair, ...] | None = None
    log_events: bool = False

    def __post_init__(self):
        if not 0 < self.horizon < math.inf:
            raise InvalidInput("horizon must be positive and finite")
        if not (0.0 <= self.warmup <= 0.5):
            raise InvalidInput("warmup must be in [0, 0.5]")
        if self.replications < 1:
            raise InvalidInput("need at least one replication")
        if (self.per_user_rates is not None
                and len(self.per_user_rates) != self.params.n_users):
            raise InvalidInput("per_user_rates must have one entry per user")

    def user_rates(self) -> np.ndarray:
        """Rates (at rho_high, at rho_low), one row per user."""
        if self.per_user_rates is not None:
            pairs, repeats = self.per_user_rates, 1
        else:
            pairs = (self.profile.rates_high_type, self.profile.rates_low_type)
            repeats = [self.params.n_users_high, self.params.n_users_low]
        rates = np.array([(r.rate_high, r.rate_low) for r in pairs], dtype=float)
        return np.repeat(rates, repeats, axis=0)


def _poisson_arrivals(gen: np.random.Generator, rates,
                      horizon: float) -> tuple[np.ndarray, np.ndarray]:
    """Arrival times on [0, horizon] of independent Poisson processes.

    Process i has a Poisson(rates[i] * horizon) count and, given its count
    n, the sorted uniform times of n points. Those are drawn as the Renyi
    representation: n + 1 exponential gaps (inverse CDF), whose first n
    partial sums over their total are the uniform order statistics. One
    draw and one running sum serve every process, in one buffer. Returns
    the times concatenated in process order and each process's count.
    """
    counts = gen.poisson(np.asarray(rates, dtype=float) * horizon)
    sums = gen.random(int(counts.sum()) + len(counts))
    np.negative(sums, out=sums)
    np.log1p(sums, out=sums)
    np.negative(sums, out=sums)
    np.cumsum(sums, out=sums)
    if len(counts) == 1:
        # the block process: (x - 0.0) / (t - 0.0) is x / t bit for bit,
        # without the mask and the two repeats below, one entry per block each
        times = sums[:-1]
        times /= sums[-1]
    else:
        ends = np.cumsum(counts + 1) - 1        # each process's extra gap
        starts = np.concatenate(([0.0], sums[ends[:-1]]))
        gap = np.ones(len(sums), dtype=bool)
        gap[ends] = False
        times = sums[gap]
        times -= np.repeat(starts, counts)
        times /= np.repeat(sums[ends] - starts, counts)
    # the ratio is at most 1 after rounding, so no time passes the horizon
    times *= horizon
    return times, counts


def _fifo_served(arrivals: np.ndarray, blocks: np.ndarray,
                 taken: np.ndarray) -> np.ndarray:
    """Indices of the blocks that serve a FIFO class, one transaction each.

    `arrivals` and `blocks` are sorted times, and `taken` holds the sorted
    indices of the blocks that serve another class; the class runs on the
    other, free, blocks, and the i-th returned block serves the i-th
    arrival. A block sees only the arrivals strictly before it. With J_i
    the first block after arrival i, F_i = J_i - (taken blocks before J_i)
    is the first free slot after it, and arrival i is served in free slot
    S_i = max(F_i, S_{i-1} + 1) = i + max_{j<=i} (F_j - j), Lindley's
    reflected walk over the arrivals. S is strictly increasing, so the
    served arrivals are the prefix with S_i below the number of free slots.
    Free slot k is block k + #{m : taken[m] - m <= k}, taken[m] - m being
    the number of free blocks before taken block m.
    """
    slot = np.searchsorted(blocks, arrivals, side="right")
    # the taken blocks below J, counted as those <= J - 1: on the many equal
    # J of a busy class numpy's right search runs up to five times faster
    # than its left one
    slot -= np.searchsorted(taken, slot - 1, side="right")
    k = np.arange(len(arrivals))
    slot -= k
    np.maximum.accumulate(slot, out=slot)
    slot += k
    slot = slot[:np.searchsorted(slot, len(blocks) - len(taken))]
    slot += np.searchsorted(taken - np.arange(len(taken)), slot, side="right")
    return slot


def _serve(times: np.ndarray, cls: np.ndarray, block_times: np.ndarray,
           menu: FeeMenu, params: SystemParams):
    """Run the fee classes (0 = high, 1 = low) over the blocks, highest fee
    first, each on the blocks the classes before it left free.

    Each class queues its arrivals by time. A sort that is not stable
    gives the stable order whenever the times are distinct, so the stable
    sort runs only on a tie, where it keeps user order. Returns the serving
    blocks in block order, the transaction each serves and the transactions
    never served (class by class, each in queue order).
    """
    block = tx = np.empty(0, dtype=np.intp)     # served so far, in block order
    unserved = []
    c_s = params.storage_cost_per_byte
    for c, rho in enumerate((menu.rho_high, menu.rho_low)):
        fifo = np.flatnonzero(cls == c)
        queued = times[fifo]
        order = np.argsort(queued)
        arrivals = queued[order]
        if np.any(arrivals[1:] == arrivals[:-1]):
            order = np.argsort(queued, kind="stable")
            arrivals = queued[order]
        fifo = fifo[order]
        served = (_fifo_served(arrivals, block_times, block) if rho >= c_s
                  else block[:0])
        unserved.append(fifo[len(served):])
        # merge the two disjoint, sorted block lists into block order
        at = np.searchsorted(served, block)
        block, tx = np.insert(served, at, block), np.insert(fifo[:len(served)], at, tx)
    return block, tx, np.concatenate(unserved)


def _exact_sum(values: list[float], weights: list[int]) -> float:
    """The correctly rounded sum of value * weight over finite floats and
    integer weights.

    Every finite double is an integer over a power of two, so with every
    numerator scaled to the largest denominator the sum is one integer over
    it, held exactly in a Python int (Kulisch's long accumulator), and the
    one division rounds it correctly, as `Fraction.__float__` does. NaN
    raises ValueError and an infinity OverflowError, as they do in
    `Fraction`.
    """
    ratios = [v.as_integer_ratio() for v in values]
    top = max((den for _, den in ratios), default=1)
    return sum(num * (top // den) * w for (num, den), w in zip(ratios, weights)) / top


@dataclass
class _RepResult:
    wait_rate: np.ndarray        # per user, post-warmup window
    payoff: np.ndarray           # per user
    welfare: float
    fees_total: float
    taxes_total: float
    blocks_total: int
    blocks_empty: int
    included: np.ndarray         # post-warmup inclusions, per class
    generated: np.ndarray        # per class
    censored_count: np.ndarray   # per user
    censored_wait: np.ndarray    # per user
    events: list | None


def _run_replication(config: SimConfig, gen: np.random.Generator,
                     log_events: bool) -> _RepResult:
    params = config.params
    menu = config.menu
    n = params.n_users
    mu = params.block_rate
    sbar = params.mean_tx_size
    c_s = params.storage_cost_per_byte
    horizon = config.horizon

    # the blocks, then process 2u + c for the arrivals of user u in class c
    # (0 = high fee, 1 = low fee); every transaction is exactly the mean size
    block_times, _ = _poisson_arrivals(gen, [mu], horizon)
    n_blocks = len(block_times)
    times, counts = _poisson_arrivals(gen, config.user_rates().ravel(), horizon)
    user, cls = np.divmod(np.repeat(np.arange(2 * n), counts), 2)

    serving, serving_tx, left = _serve(times, cls, block_times, menu, params)
    t_start = config.warmup * horizon
    window = horizon - t_start
    post = times[serving_tx] >= t_start
    block, tx = serving[post], serving_tx[post]
    payer = user[tx]
    incl_cnt = np.bincount(payer, minlength=n)
    wait_sum = np.bincount(payer, block_times[block] - times[tx], minlength=n)
    amount = sbar * np.where(cls[tx] == 0, menu.rho_high, menu.rho_low)
    fee_paid = np.bincount(payer, amount, minlength=n)

    left = left[times[left] >= t_start]
    censored_cnt = np.bincount(user[left], minlength=n).astype(float)
    censored_wait = np.bincount(user[left], horizon - times[left], minlength=n)

    # per-user payoffs over the stats window
    n_h = params.n_users_high
    is_high = np.arange(n) < n_h
    r_user = np.where(is_high, params.utility_high, params.utility_low)
    q_h, q_l = config.tax.row_sums(params)
    q_user = np.where(is_high, q_h, q_l)
    cnt_h_total = float(incl_cnt[:n_h].sum())
    cnt_l_total = float(incl_cnt[n_h:].sum())
    tax = config.tax
    inflow = np.where(
        is_high,
        (cnt_h_total - incl_cnt) * tax.p_hh + cnt_l_total * tax.p_lh,
        cnt_h_total * tax.p_hl + (cnt_l_total - incl_cnt) * tax.p_ll,
    )
    gamma = params.impatience
    payoff = (incl_cnt * (r_user - q_user) - fee_paid + inflow
              - gamma * wait_sum) / window
    wait_rate = wait_sum / window

    fee_window_total = float(fee_paid.sum())
    storage_total = params.n_miners * c_s * (sbar * len(tx))
    welfare = float(payoff.sum()) + (fee_window_total - storage_total) / window

    # Transfer totals over the window, each summed exactly in integers and
    # rounded once. A type-a user with k inclusions pays fl(k * P[a][t]) to
    # each of the n_t - [a = t] other type-t users, so the tax multiset holds
    # that amount hist_a[k] * (n_t - [a = t]) times, hist_a[k] being the
    # number of type-a users with k inclusions. Each fee class pays
    # fl(sbar * rho) per inclusion.
    n_type = (n_h, n - n_h)
    p_rows = ((tax.p_hh, tax.p_hl), (tax.p_lh, tax.p_ll))
    values, weights = [], []
    for a, counts_a in enumerate((incl_cnt[:n_h], incl_cnt[n_h:])):
        hist = np.bincount(counts_a)
        k = np.flatnonzero(hist)
        for t in (0, 1):
            values += (k * p_rows[a][t]).tolist()
            weights += (hist[k] * (n_type[t] - (a == t))).tolist()
    taxes_total = _exact_sum(values, weights)
    included = np.bincount(cls[tx], minlength=2)
    fees_total = _exact_sum([sbar * menu.rho_high, sbar * menu.rho_low], included.tolist())

    events = None
    if log_events:
        # drawn last, so that logging moves no other output
        power_cdf = np.cumsum(params.powers())
        winners = np.searchsorted(power_cdf, gen.random(n_blocks), side="right")
        winners = np.minimum(winners, params.n_miners - 1)
        served_tx = np.full(n_blocks, -1)
        served_tx[serving] = serving_tx
        events = _event_log(block_times, winners, times, user, cls, served_tx,
                            (menu.rho_high, menu.rho_low))
    return _RepResult(
        wait_rate=wait_rate,
        payoff=payoff,
        welfare=welfare,
        fees_total=fees_total,
        taxes_total=taxes_total,
        blocks_total=n_blocks,
        blocks_empty=n_blocks - len(serving),
        included=included,
        generated=np.bincount(cls, minlength=2),
        censored_count=censored_cnt,
        censored_wait=censored_wait,
        events=events,
    )


def _event_log(block_times, winners, times, user, cls, served_tx, rho) -> list:
    """Rows (time, kind, user, tx_index, fee_per_byte, block_id, winner) in
    event order; at equal times a block precedes the arrivals."""
    # tx_index counts a user's arrivals in event order; each user's streams
    # are contiguous in `times`, high class first
    own = np.lexsort((times, user))
    tx_index = np.empty(len(times), dtype=np.int64)
    tx_index[own] = np.arange(len(own)) - np.searchsorted(user, user[own])
    n_blocks = len(block_times)
    when = np.concatenate([block_times, times])
    order = np.argsort(when, kind="stable")
    when, user, tx_index, cls = (when.tolist(), user.tolist(), tx_index.tolist(),
                                 cls.tolist())
    winners, served_tx = winners.tolist(), served_tx.tolist()
    events = []
    for k in order.tolist():
        if k < n_blocks:
            a = served_tx[k]
            if a < 0:
                events.append((when[k], "block", -1, -1, 0.0, k, winners[k]))
            else:
                events.append((when[k], "include", user[a], tx_index[a], rho[cls[a]],
                               k, winners[k]))
        else:
            a = k - n_blocks
            events.append((when[k], "gen", user[a], tx_index[a], rho[cls[a]], -1, -1))
    return events


def _t_central(u: float, dof: int) -> float:
    """P(|T| <= u * sqrt(dof)) for Student's t with integer `dof` >= 1.

    The finite series of Abramowitz & Stegun 26.7.3 (odd dof) and 26.7.4
    (even dof) in theta = atan(u). The powers cos^2k(theta) are taken as
    exp(k * log(cos^2 theta)) with log(cos^2 theta) = -log1p(u^2): repeated
    multiplication by a rounded cos^2 would compound its rounding error over
    the dof/2 terms.
    """
    odd = dof % 2
    n = dof // 2
    k = np.arange(1, n)
    coef = np.cumprod(np.concatenate(([1.0], (2 * k - 1 + odd) / (2 * k + odd))))[:n]
    series = float(np.sum(coef * np.exp(np.arange(n) * -math.log1p(u * u))))
    if odd:
        return (math.atan(u) + u / (1.0 + u * u) * series) * 2.0 / math.pi
    return u / math.sqrt(1.0 + u * u) * series


def _t_quantile(prob: float, dof: int) -> float:
    """Quantile of Student's t with integer `dof` >= 1, for 0.5 < prob < 1.

    Newton's method on u = t / sqrt(dof) against `_t_central`, from the
    normal quantile. The central probability is concave in u and the t
    quantile exceeds the normal one, so the iterates rise monotonically to
    the root.
    """
    target = 2.0 * prob - 1.0
    # d/du of the central probability is scale * (1 + u^2)^(-(dof + 1) / 2)
    scale = (2.0 * math.exp(math.lgamma((dof + 1) / 2) - math.lgamma(dof / 2))
             / math.sqrt(math.pi))
    u = NormalDist().inv_cdf(prob) / math.sqrt(dof)
    while True:
        slope = scale * (1.0 + u * u) ** (-(dof + 1) / 2)
        step = (target - _t_central(u, dof)) / slope
        u += step
        if step <= 1e-15 * u:
            return u * math.sqrt(dof)


def _mean_ci(values: np.ndarray, t_crit: float) -> tuple[np.ndarray, np.ndarray]:
    """Mean and t-interval half-width t_crit * s / sqrt(r) over the r
    replications on axis 0; NaN half-width when r < 2.

    `t_crit` is the 97.5% Student-t quantile with r - 1 degrees of freedom,
    computed once per run by `_t_quantile` (the closed-form t distribution
    function inverted by Newton's method).
    """
    values = np.asarray(values, dtype=float)
    r = values.shape[0]
    mean = values.mean(axis=0)
    if r < 2:
        return mean, np.full_like(np.asarray(mean, dtype=float), math.nan)
    return mean, t_crit * values.std(axis=0, ddof=1) / math.sqrt(r)


@dataclass
class SimReport:
    """Monte Carlo estimates with 95% confidence half-widths."""

    replications: int
    horizon: float
    warmup: float
    user_wait_mean: np.ndarray
    user_wait_ci: np.ndarray
    user_payoff_mean: np.ndarray
    user_payoff_ci: np.ndarray
    type_wait_mean: dict
    type_wait_ci: dict
    type_payoff_mean: dict
    type_payoff_ci: dict
    welfare_mean: float
    welfare_ci: float
    fees_debited: list[float]
    fees_credited: list[float]
    taxes_paid: list[float]
    taxes_received: list[float]
    blocks_total: list[int]
    blocks_empty: list[int]
    included_high: int
    included_low: int
    generated_high: int
    generated_low: int
    censored_count_total: float
    censored_wait_total: float
    events: list | None


def run(config: SimConfig) -> SimReport:
    """Run all replications and reduce to means with 95% intervals."""
    root = np.random.SeedSequence(config.seed)
    # only the first replication's event log is reported, so only it is built
    reps = [_run_replication(config, np.random.default_rng(child),
                             config.log_events and i == 0)
            for i, child in enumerate(root.spawn(config.replications))]

    n_h = config.params.n_users_high
    n_reps = config.replications
    t_crit = _t_quantile(0.975, n_reps - 1) if n_reps > 1 else math.nan
    wait = np.stack([r.wait_rate for r in reps])
    pay = np.stack([r.payoff for r in reps])
    wait_mean, wait_ci = _mean_ci(wait, t_crit)
    pay_mean, pay_ci = _mean_ci(pay, t_crit)

    def type_stats(per_rep: np.ndarray) -> tuple[dict, dict]:
        h = per_rep[:, :n_h].mean(axis=1)
        low = per_rep[:, n_h:].mean(axis=1)
        mh, ch = _mean_ci(h, t_crit)
        ml, cl = _mean_ci(low, t_crit)
        return ({"H": float(mh), "L": float(ml)}, {"H": float(ch), "L": float(cl)})

    tw_mean, tw_ci = type_stats(wait)
    tp_mean, tp_ci = type_stats(pay)
    welfare_mean, welfare_ci = _mean_ci(np.array([r.welfare for r in reps]), t_crit)

    fees = [r.fees_total for r in reps]
    taxes = [r.taxes_total for r in reps]
    included = sum(r.included for r in reps)
    generated = sum(r.generated for r in reps)
    events = reps[0].events
    return SimReport(
        replications=config.replications,
        horizon=config.horizon,
        warmup=config.warmup,
        user_wait_mean=wait_mean,
        user_wait_ci=wait_ci,
        user_payoff_mean=pay_mean,
        user_payoff_ci=pay_ci,
        type_wait_mean=tw_mean,
        type_wait_ci=tw_ci,
        type_payoff_mean=tp_mean,
        type_payoff_ci=tp_ci,
        welfare_mean=float(welfare_mean),
        welfare_ci=float(welfare_ci),
        # Every fee a user pays is credited to the block's winner and every
        # tax paid is received by a user, so each ledger's two sides are one
        # multiset of amounts, and the correctly rounded total of that
        # multiset is reported as both sides.
        fees_debited=fees,
        fees_credited=list(fees),
        taxes_paid=taxes,
        taxes_received=list(taxes),
        blocks_total=[r.blocks_total for r in reps],
        blocks_empty=[r.blocks_empty for r in reps],
        included_high=int(included[0]),
        included_low=int(included[1]),
        generated_high=int(generated[0]),
        generated_low=int(generated[1]),
        censored_count_total=float(sum(r.censored_count.sum() for r in reps)),
        censored_wait_total=float(sum(r.censored_wait.sum() for r in reps)),
        events=events,
    )
