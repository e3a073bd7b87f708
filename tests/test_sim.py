import ast
import dataclasses
import json
import math
from collections import deque
from contextlib import ExitStack
from dataclasses import replace
from unittest import mock
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from fwt import sim
from fwt.checks import lemma1_profiles, validate_lemma1
from fwt.miner_game import PendingTx, TxPool, equilibrium_selection
from fwt.model import FeeMenu, RatePair, StrategyProfile, SystemParams, TaxVector
from fwt.cli import EVENT_COLUMNS, _csv_text, _simulate_doc
from fwt.sim import SimConfig, _fifo_served, _t_quantile, run

import reference

TWO_USERS = replace(SystemParams(), n_users_high=1, n_users_low=1)
C_S = TWO_USERS.storage_cost_per_byte
BOTH_OK = FeeMenu(rho_high=4 * C_S, rho_low=2 * C_S)
HIGH_ONLY = FeeMenu(rho_high=2 * C_S, rho_low=0.25 * C_S)


def config(profile, horizon=400.0, seed=11, reps=3, menu=BOTH_OK, params=TWO_USERS,
           tax=None, **kw):
    return SimConfig(params=params, menu=menu, tax=tax or TaxVector.zero(),
                     profile=profile, horizon=horizon, seed=seed,
                     replications=reps, **kw)


def test_zero_rates_all_zero_report():
    report = run(config(StrategyProfile(RatePair(0, 0), RatePair(0, 0))))
    assert report.user_wait_mean.tolist() == [0.0, 0.0]
    assert report.user_payoff_mean.tolist() == [0.0, 0.0]
    assert report.welfare_mean == 0.0
    assert report.included_high == report.included_low == 0
    assert report.generated_high == report.generated_low == 0
    assert report.blocks_total == report.blocks_empty


def test_config_validation():
    prof = StrategyProfile(RatePair(0, 0), RatePair(0, 0))
    for horizon in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            config(prof, horizon=horizon)
    with pytest.raises(ValueError):
        SimConfig(params=TWO_USERS, menu=BOTH_OK, tax=TaxVector.zero(),
                  profile=prof, horizon=1.0, warmup=0.9)
    with pytest.raises(ValueError):
        SimConfig(params=TWO_USERS, menu=BOTH_OK, tax=TaxVector.zero(),
                  profile=prof, horizon=1.0, per_user_rates=(RatePair(0, 0),))


def test_same_seed_bit_identical():
    prof = StrategyProfile(RatePair(1.0, 1.0), RatePair(1.0, 1.0))
    tax = TaxVector(1e-5, -2e-6, 3e-6, 4e-5)
    a = _simulate_doc(run(config(prof, tax=tax)))
    b = _simulate_doc(run(config(prof, tax=tax)))
    assert json.dumps(a, allow_nan=True) == json.dumps(b, allow_nan=True)
    c = _simulate_doc(run(config(prof, tax=tax, seed=12)))
    assert json.dumps(a, allow_nan=True) != json.dumps(c, allow_nan=True)


def test_fee_and_tax_conservation_exact():
    prof = StrategyProfile(RatePair(1.0, 1.0), RatePair(1.0, 1.0))
    tax = TaxVector(1.5e-5, -2e-6, 3e-6, 4.5e-5)
    report = run(config(prof, tax=tax, reps=4))
    assert report.fees_debited == report.fees_credited
    assert report.taxes_paid == report.taxes_received
    assert all(f > 0 for f in report.fees_debited)


def test_fee_total_covers_the_window():
    """The fee ledger counts the post-warm-up inclusions, like the tax
    ledger, the payoffs and `included_*`: each fee class pays sbar * rho per
    transaction included from the window."""
    prof = StrategyProfile(RatePair(1.0, 1.0), RatePair(1.0, 1.0))
    report = run(config(prof, reps=1, warmup=0.3))
    sbar = TWO_USERS.mean_tx_size
    fees = ([sbar * BOTH_OK.rho_high] * report.included_high
            + [sbar * BOTH_OK.rho_low] * report.included_low)
    assert report.fees_debited == report.fees_credited == [math.fsum(fees)]


def test_two_class_waiting_matches_hand_value():
    prof = StrategyProfile(RatePair(1.0, 1.0), RatePair(1.0, 1.0))
    results = validate_lemma1(TWO_USERS, BOTH_OK, prof, replications=6,
                              horizon=3000.0, seed=3)
    expected = 1.0 / 13.0 + 15.0 / 143.0
    for r in results:
        assert r.analytic == pytest.approx(expected, rel=1e-12)
        assert r.passed


def test_high_class_only_waiting():
    prof = StrategyProfile(RatePair(1.0, 0.0), RatePair(1.0, 0.0))
    results = validate_lemma1(TWO_USERS, HIGH_ONLY, prof, replications=6,
                              horizon=3000.0, seed=5)
    for r in results:
        assert r.analytic == pytest.approx(1.0 / 13.0, rel=1e-12)
        assert r.passed


def test_priority_order_high_class_first():
    """H uses only the high class and L only the low class, so each type's
    wait names the class served first: under the reversed order H would
    wait mu*l1/((mu - l2)(mu - l1 - l2)) and L only l2/(mu - l2)."""
    prof = StrategyProfile(RatePair(1.0, 0.0), RatePair(0.0, 4.0))
    mu = TWO_USERS.block_rate
    analytic = {"H": 1.0 / (mu - 1.0), "L": mu * 4.0 / ((mu - 1.0) * (mu - 5.0))}
    reversed_order = {"H": mu * 1.0 / ((mu - 4.0) * (mu - 5.0)), "L": 4.0 / (mu - 4.0)}
    results = validate_lemma1(TWO_USERS, BOTH_OK, prof, replications=6,
                              horizon=3000.0, seed=7)
    for r in results:
        assert r.analytic == pytest.approx(analytic[r.user_type], rel=1e-12)
        assert abs(reversed_order[r.user_type] - r.analytic) > 0.1 * r.analytic
        assert r.passed, r


def test_lemma1_rejects_unstable_profiles():
    prof = StrategyProfile(RatePair(0.0, 1.0), RatePair(0.0, 1.0))
    with pytest.raises(ValueError):
        validate_lemma1(TWO_USERS, HIGH_ONLY, prof)


def test_lemma1_rejects_one_replication():
    """One replication forms no Student-t interval, so the rule is refused
    rather than left to the 2% band alone."""
    _, params, menu, profile = lemma1_profiles()[0]
    with pytest.raises(ValueError, match="replications must be at least 2"):
        validate_lemma1(params, menu, profile, replications=1, horizon=200.0)


def test_censoring_grows_for_never_included_class():
    """Below-threshold low-fee transactions pile up as censored waiting."""
    prof = StrategyProfile(RatePair(0.5, 0.5), RatePair(0.5, 0.5))
    short = run(config(prof, menu=HIGH_ONLY, horizon=300.0, reps=2))
    long = run(config(prof, menu=HIGH_ONLY, horizon=900.0, reps=2))
    assert short.included_low == 0 and long.included_low == 0
    assert short.censored_count_total > 0
    assert long.censored_count_total > 2 * short.censored_count_total
    # high class still served and measured
    assert long.included_high > 0


def test_per_user_override_deviation_measurement():
    """Asymmetric rates via per-user override: the deviator's waiting rate
    follows the asymmetric-profile formula used by the oracle."""
    p = replace(SystemParams(), n_users_high=2, n_users_low=1)
    base = RatePair(1.0, 0.5)
    dev = RatePair(0.25, 1.5)
    prof = StrategyProfile(base, base)
    cfg = SimConfig(params=p, menu=BOTH_OK, tax=TaxVector.zero(), profile=prof,
                    horizon=4000.0, seed=21, replications=6,
                    per_user_rates=(dev, base, base))
    report = run(cfg)
    agg1 = dev.rate_high + 2 * base.rate_high
    agg2 = dev.rate_low + 2 * base.rate_low
    mu = p.block_rate
    w_dev = (dev.rate_high / (mu - agg1)
             + mu * dev.rate_low / ((mu - agg1) * (mu - agg1 - agg2)))
    measured = report.user_wait_mean[0]
    assert measured == pytest.approx(w_dev, rel=0.05)


STABLE = StrategyProfile(RatePair(1.5, 1.0), RatePair(1.0, 1.5))
SATURATED = StrategyProfile(RatePair(6.0, 2.0), RatePair(3.0, 4.0))   # load = mu


def _whole_seconds(draw):
    """`draw` with every time rounded up to a whole second."""
    def rounded(gen, rates, horizon):
        times, counts = draw(gen, rates, horizon)
        return np.ceil(times), counts
    return rounded


@pytest.mark.parametrize("menu", [BOTH_OK, HIGH_ONLY], ids=["both", "high_only"])
@pytest.mark.parametrize("prof,tied", [
    (STABLE, False), (SATURATED, False), (STABLE, True), (SATURATED, True),
], ids=["stable", "saturated", "stable_tied", "saturated_tied"])
def test_block_priority_audit_and_selection_replay(monkeypatch, menu, prof, tied):
    """Replaying the event log: every included transaction is exactly the
    miner-game equilibrium selection for the pool standing at that block,
    and the per-user waits rebuilt from the log are the reported ones.

    Tied: every block and arrival time is rounded up to a whole second, so
    blocks and the arrivals of both users and classes share instants. A
    block then sees none of the arrivals at its own instant, and each class
    serves equal generation times in (user_id, tx_index) order, the
    selection's tie rule."""
    if tied:
        monkeypatch.setattr(sim, "_poisson_arrivals", _whole_seconds(sim._poisson_arrivals))
    cfg = config(prof, horizon=150.0, reps=1, menu=menu, log_events=True)
    report = run(cfg)
    events = report.events
    assert events is not None
    t_start = cfg.warmup * cfg.horizon
    pool: dict[tuple, PendingTx] = {}
    wait_sum = [0.0, 0.0]
    n_gens = [0, 0]
    n_includes = n_ties = 0
    for time, kind, user, tx_idx, fee, block_id, winner in events:
        if kind == "gen":
            # tx_index numbers each user's transactions in generation order
            assert tx_idx == n_gens[user]
            n_gens[user] += 1
            tx = PendingTx(user_id=user, tx_index=tx_idx, size_bytes=150.0,
                           fee_per_byte=fee, gen_time=time)
            pool[(user, tx_idx)] = tx
        elif kind == "include":
            expected = equilibrium_selection(TxPool(pool.values()), TWO_USERS)
            assert expected is not None
            assert (expected.user_id, expected.tx_index) == (user, tx_idx)
            # no pool transaction at the block instant beats the included fee
            top = max(t.fee_per_byte for t in pool.values())
            assert fee == top
            # another user's transaction of the same fee and generation time
            n_ties += any((t.fee_per_byte, t.gen_time) == (fee, pool[user, tx_idx].gen_time)
                          and t.user_id != user for t in pool.values())
            gen_time = pool.pop((user, tx_idx)).gen_time
            if gen_time >= t_start:
                wait_sum[user] += time - gen_time
            n_includes += 1
        elif kind == "block":
            # empty block: nothing eligible was pending
            eligible = [t for t in pool.values() if t.fee_per_byte >= C_S]
            assert not eligible
    assert n_includes > 50
    assert (n_ties > 0) == tied
    window = cfg.horizon - t_start
    assert report.user_wait_mean.tolist() == [w / window for w in wait_sum]
    # what is still pending at the horizon is censored, after the warm-up only
    left = [t.gen_time for t in pool.values() if t.gen_time >= t_start]
    assert report.censored_count_total == len(left)
    assert report.censored_wait_total == pytest.approx(
        math.fsum(cfg.horizon - t for t in left), rel=1e-12)


def _window_inclusions(report, cfg):
    """Per user, the inclusions in the event log of transactions generated
    after the warm-up."""
    t_start = cfg.warmup * cfg.horizon
    gen_time = {(e[2], e[3]): e[0] for e in report.events if e[1] == "gen"}
    included = [0] * cfg.params.n_users
    for e in report.events:
        if e[1] == "include" and gen_time[(e[2], e[3])] >= t_start:
            included[e[2]] += 1
    return included


def test_tax_total_matches_pairwise_sum():
    """The reported tax total is the correctly rounded sum over every
    ordered pair of distinct users of what the first pays the second."""
    p = replace(SystemParams(), n_users_high=3, n_users_low=4)
    tax = TaxVector(1.1e-5, -2.3e-6, 3.7e-6, 4.1e-5)
    rates = tuple(RatePair(0.3 * (i + 1), 0.5 * (7 - i)) for i in range(7))
    cfg = config(StrategyProfile(RatePair(0, 0), RatePair(0, 0)), params=p, tax=tax,
                 reps=1, warmup=0.3, per_user_rates=rates, log_events=True)
    report = run(cfg)
    included = _window_inclusions(report, cfg)
    kind = ["H"] * p.n_users_high + ["L"] * p.n_users_low
    entry = {"HH": tax.p_hh, "HL": tax.p_hl, "LH": tax.p_lh, "LL": tax.p_ll}
    pairwise = math.fsum(included[u] * entry[kind[u] + kind[v]]
                         for u in range(p.n_users) for v in range(p.n_users) if u != v)
    assert report.taxes_paid == report.taxes_received == [pairwise]


# both signs, zero and subnormal entries down to the smallest double, and
# magnitudes from 1e-12 to 1e2, whose exact sum a float running sum misses
_TAX_ENTRY = (st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308])
              | st.floats(-1e2, 1e2) | st.floats(1e-12, 1e-9) | st.floats(-1e-9, -1e-12))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_h=st.integers(1, 30), n_l=st.integers(1, 30),
       entries=st.tuples(_TAX_ENTRY, _TAX_ENTRY, _TAX_ENTRY, _TAX_ENTRY),
       horizon=st.floats(1.0, 20.0), warmup=st.sampled_from([0.0, 0.3]))
@example(seed=3, n_h=1, n_l=30, entries=(2.5, -1e-12, 5e-324, 7.0), horizon=10.0, warmup=0.3)
@example(seed=4, n_h=30, n_l=1, entries=(-3e-7, 1e2, -5e-324, 1.5), horizon=10.0, warmup=0.0)
@example(seed=5, n_h=1, n_l=1, entries=(1.0, 1.0, 1.0, 1.0), horizon=20.0, warmup=0.0)
def test_tax_total_matches_pairwise_fraction_reference(seed, n_h, n_l, entries, horizon,
                                                       warmup):
    """The reported tax total, bit for bit, against the exact sum of the
    explicit pairwise multiset (`reference.pairwise_tax_total`), with the
    post-warm-up inclusion counts read from the event log. Every user sends
    at one rate, 0.9 mu over all of them, so a user has a few inclusions
    and most counts repeat across many users; a type of one user pays no
    one of its own type."""
    params = replace(SystemParams(), n_users_high=n_h, n_users_low=n_l)
    rate = 0.45 * params.block_rate / params.n_users
    profile = StrategyProfile(RatePair(rate, rate), RatePair(rate, rate))
    tax = TaxVector(*entries)
    cfg = config(profile, horizon=horizon, seed=seed, reps=1, params=params, tax=tax,
                 warmup=warmup, log_events=True)
    report = run(cfg)
    want = reference.pairwise_tax_total(_window_inclusions(report, cfg), n_h, tax)
    assert _bits(report.taxes_paid[0]) == _bits(want)
    assert report.taxes_received == report.taxes_paid


def _reference_fifo_served(arrivals, blocks, taken=frozenset()):
    """Event by event: each block that another class has not taken serves
    the head of the queue of arrivals strictly before it."""
    queue, served, i = deque(), [], 0
    for k, t in enumerate(blocks):
        while i < len(arrivals) and arrivals[i] < t:
            queue.append(i)
            i += 1
        if queue and k not in taken:
            queue.popleft()
            served.append(k)
    return served


_int_times = st.lists(st.integers(0, 12), max_size=30).map(
    lambda xs: np.array(sorted(xs), dtype=float))


@settings(max_examples=400, deadline=None)
@given(arrivals=_int_times, blocks=_int_times, taken_bits=st.integers(0, 2**30 - 1))
@example(arrivals=np.array([], dtype=float), blocks=np.array([1.0, 2.0]), taken_bits=0)
@example(arrivals=np.array([1.0, 2.0]), blocks=np.array([], dtype=float), taken_bits=0)
@example(arrivals=np.array([5.0, 6.0, 7.0]), blocks=np.array([1.0, 2.0, 4.0]), taken_bits=0)
@example(arrivals=np.array([0.0, 1.0, 1.0, 2.0, 3.0]), blocks=np.array([2.0, 4.0]),
         taken_bits=0)
@example(arrivals=np.array([3.0, 3.0, 3.0]), blocks=np.array([1.0, 3.0, 3.0, 4.0, 5.0]),
         taken_bits=0)
@example(arrivals=np.array([0.0, 1.0]), blocks=np.array([1.0, 2.0, 3.0]), taken_bits=0b111)
@example(arrivals=np.array([0.0, 0.0, 1.0, 2.0]), blocks=np.array([1.0, 1.0, 2.0, 3.0, 4.0]),
         taken_bits=0b01011)
def test_fifo_served_matches_queue_with_ties(arrivals, blocks, taken_bits):
    """Integer times make arrivals fall on block instants: such a block
    never serves the arrival at its own instant. Bit k of `taken_bits`
    gives block k to another class. The examples: no arrivals, no blocks,
    every arrival after the last block, more arrivals than blocks, every
    arrival on one block instant, every block taken, and taken blocks
    between and on the arrivals' instants."""
    taken = [k for k in range(len(blocks)) if taken_bits >> k & 1]
    served = _fifo_served(arrivals, blocks, np.array(taken, dtype=np.intp))
    assert served.tolist() == _reference_fifo_served(arrivals.tolist(), blocks.tolist(),
                                                     set(taken))


# both classes served, the low class refused, both refused, the low fee
# exactly the storage cost
_MENUS = [BOTH_OK, HIGH_ONLY, FeeMenu(rho_high=0.5 * C_S, rho_low=0.25 * C_S),
          FeeMenu(rho_high=2 * C_S, rho_low=C_S)]


def _bits(value):
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return repr(value)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_h=st.integers(1, 20), n_l=st.integers(1, 20),
       menu=st.sampled_from(_MENUS), load=st.sampled_from([0.3, 0.9, 1.0, 1.5]),
       per_user=st.booleans(), taxed=st.booleans(),
       warmup=st.sampled_from([0.0, 0.1, 0.5]), horizon=st.floats(2.0, 40.0),
       tied=st.booleans(), log_events=st.booleans())
@example(seed=1, n_h=20, n_l=20, menu=BOTH_OK, load=1.0, per_user=True, taxed=True,
         warmup=0.5, horizon=40.0, tied=True, log_events=True)
@example(seed=2, n_h=1, n_l=1, menu=HIGH_ONLY, load=1.5, per_user=False, taxed=False,
         warmup=0.0, horizon=40.0, tied=False, log_events=False)
def test_replication_matches_per_block_reference(seed, n_h, n_l, menu, load, per_user,
                                                 taxed, warmup, horizon, tied, log_events):
    """Every field of a replication, bit for bit, against the class loop
    over per-block arrays (`reference.per_block_serve`) on the same draws.
    The rates split `load` times the block rate over the users, some of
    them zero; tied: every block and arrival time is rounded up to a whole
    second, so both classes hold equal generation times."""
    rng = np.random.default_rng(seed)
    params = replace(SystemParams(), n_users_high=n_h, n_users_low=n_l)
    rows = n_h + n_l if per_user else 2
    weights = rng.random((rows, 2)) * (rng.random((rows, 2)) < 0.8) * (rng.random(2) < 0.9)
    if not per_user:
        weights = np.repeat(weights, [n_h, n_l], axis=0)
    rates = [RatePair(*r) for r in (weights / (weights.sum() or 1.0)
                                    * load * params.block_rate).tolist()]
    tax = TaxVector(*(rng.normal(size=4) * 1e-5).tolist()) if taxed else TaxVector.zero()
    cfg = SimConfig(params=params, menu=menu, tax=tax,
                    profile=StrategyProfile(rates[0], rates[n_h]), horizon=horizon,
                    warmup=warmup, replications=1,
                    per_user_rates=tuple(rates) if per_user else None)
    with ExitStack() as patches:
        if tied:
            patches.enter_context(mock.patch.object(
                sim, "_poisson_arrivals", _whole_seconds(sim._poisson_arrivals)))
        got = sim._run_replication(cfg, np.random.default_rng(seed), log_events)
        patches.enter_context(mock.patch.object(sim, "_serve", reference.per_block_serve))
        want = sim._run_replication(cfg, np.random.default_rng(seed), log_events)
    for field in dataclasses.fields(got):
        assert _bits(getattr(got, field.name)) == _bits(getattr(want, field.name)), field.name


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1),
       rates=st.lists(st.sampled_from([0.0, 1e-3, 15.0]) | st.floats(0.0, 20.0),
                      min_size=1, max_size=8),
       horizon=st.floats(0.01, 300.0))
@example(seed=0, rates=[15.0], horizon=100.0)
@example(seed=0, rates=[0.0], horizon=100.0)
@example(seed=0, rates=[0.0, 0.0, 0.0], horizon=100.0)
@example(seed=0, rates=[0.0, 2.0, 0.0, 0.5, 0.0], horizon=100.0)
def test_poisson_arrivals_matches_one_expression_reference(seed, rates, horizon):
    """Bit for bit against the draw as one expression over fresh arrays,
    and the generator is left in the same state. The examples: one process
    (the blocks), one process with no arrivals, every rate zero, and
    zero-count processes between others."""
    gen, ref_gen = np.random.default_rng(seed), np.random.default_rng(seed)
    times, counts = sim._poisson_arrivals(gen, rates, horizon)
    ref_times, ref_counts = reference.one_generator_poisson_arrivals(ref_gen, rates, horizon)
    assert _bits(times) == _bits(ref_times)
    assert _bits(counts) == _bits(ref_counts)
    assert gen.random() == ref_gen.random()


def _loop_arrivals(gen, rates, horizon):
    """`_poisson_arrivals` one process at a time from the same draws: every
    count first, then each process's gaps in turn. Returns the counts and
    each process's running sums of its count + 1 gaps."""
    counts = [int(gen.poisson(rate * horizon)) for rate in rates]
    return counts, [np.cumsum(-np.log1p(-gen.random(n + 1))) for n in counts]


def _assert_streams_match(seed, rates, horizon):
    times, counts = sim._poisson_arrivals(np.random.default_rng(seed), rates, horizon)
    ref_counts, sums = _loop_arrivals(np.random.default_rng(seed), rates, horizon)
    assert counts.tolist() == ref_counts
    assert np.all((times >= 0.0) & (times <= horizon))
    # `_poisson_arrivals` runs one sum over all processes: each of a
    # process's additions rounds at the scale of the grand total
    total = sum(s[-1] for s in sums)
    eps = np.finfo(float).eps
    expected = np.concatenate([s[:-1] / s[-1] * horizon for s in sums])
    tol = np.concatenate([np.full(len(s) - 1, 4 * len(s) * eps * total / s[-1] * horizon)
                          for s in sums])
    assert np.all(np.abs(times - expected) <= tol)


@pytest.mark.parametrize("rates", [
    [0.0] * 6,
    [0.0, 0.5, 1.0, 0.0, 0.5, 2.0, 0.3, 0.0],
    [0.5, 2.0],
    [0.0, 1.3],
    [1.3, 0.7],
], ids=["all_zero", "mixed_zero", "unequal_rates", "one_user_low_only", "one_user"])
def test_streams_match_per_stream_reference(rates):
    _assert_streams_match(5, rates, 100.0)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**64 - 1),
       rates=st.lists(st.sampled_from([0.0, 0.25, 1.0]) | st.floats(0.01, 3.0),
                      min_size=1, max_size=5).map(lambda r: r + r[::-1]),
       horizon=st.floats(0.5, 200.0))
def test_streams_match_reference_on_random_rates(seed, rates, horizon):
    _assert_streams_match(seed, rates, horizon)


# Two-sample tests of the one-generator draw against the per-stream
# construction it replaced (`reference.poisson_arrivals`), at fixed seeds.
# Each test holds its comparisons to a total level of 0.001 (Bonferroni), so
# a draw with the reference's law fails it at no more than 0.1% of seeds.
_LEVEL = 0.001


def test_arrival_counts_and_times_equal_reference_in_law():
    """Per process: the count's mean (an exact test: given the two sides'
    total, one side's Poisson total is binomial) and its distribution, and
    the distribution of the arrival times (two-sample Kolmogorov-Smirnov). A
    zero-rate process draws nothing on either side."""
    rates, horizon, samples = [0.0, 0.3, 1.0, 4.0], 500.0, 200

    def per_process(draws):
        counts = np.array([c for _, c in draws])
        times = [np.concatenate([np.split(t, np.cumsum(c)[:-1])[i] for t, c in draws])
                 for i in range(len(rates))]
        return counts, times

    new = per_process([sim._poisson_arrivals(np.random.default_rng(child), rates, horizon)
                       for child in np.random.SeedSequence(1).spawn(samples)])
    ref = per_process([reference.poisson_arrivals(child, rates, horizon)
                       for child in np.random.SeedSequence(2).spawn(samples)])
    assert not new[0][:, 0].any() and not ref[0][:, 0].any()
    p_values = {}
    for i in range(1, len(rates)):
        k, m = int(new[0][:, i].sum()), int(ref[0][:, i].sum())
        p_values[i, "count mean"] = stats.binomtest(k, k + m, 0.5).pvalue
        p_values[i, "count law"] = stats.ks_2samp(new[0][:, i], ref[0][:, i]).pvalue
        p_values[i, "times"] = stats.ks_2samp(new[1][i], ref[1][i]).pvalue
    assert min(p_values.values()) > _LEVEL / len(p_values), p_values


def test_type_waits_equal_reference_in_law(monkeypatch):
    """Per-replication mean waits of each type on a Lemma-1 profile with
    both types in both classes (Welch's t-test)."""
    _, params, menu, profile = lemma1_profiles()[3]
    cfg = SimConfig(params=params, menu=menu, tax=TaxVector.zero(), profile=profile,
                    horizon=1000.0)
    n_h, samples = params.n_users_high, 100

    def type_waits(gen):
        wait = sim._run_replication(cfg, gen, False).wait_rate
        return wait[:n_h].mean(), wait[n_h:].mean()

    new = np.array([type_waits(np.random.default_rng(child))
                    for child in np.random.SeedSequence(3).spawn(samples)])
    root = np.random.SeedSequence(4)
    monkeypatch.setattr(sim, "_poisson_arrivals", lambda gen, rates, horizon:
                        reference.poisson_arrivals(root.spawn(1)[0], rates, horizon))
    ref = np.array([type_waits(None) for _ in range(samples)])
    p_values = [stats.ttest_ind(new[:, t], ref[:, t], equal_var=False).pvalue
                for t in range(2)]
    assert min(p_values) > _LEVEL / len(p_values), p_values


def test_event_log_from_first_replication_only(monkeypatch):
    """Only the first replication's log is reported, so only it is built;
    spawn gives the same first child whatever the replication count, and
    the winners are that replication's last draws."""
    prof = StrategyProfile(RatePair(1.0, 0.5), RatePair(0.5, 1.0))
    tax = TaxVector(1e-5, -2e-6, 3e-6, 4e-5)
    built = []
    event_log = sim._event_log
    monkeypatch.setattr(sim, "_event_log", lambda *a: built.append(1) or event_log(*a))
    logged = run(config(prof, tax=tax, reps=10, log_events=True))
    assert len(built) == 1
    plain = run(config(prof, tax=tax, reps=10))
    one = run(config(prof, tax=tax, reps=1, log_events=True))
    assert plain.events is None
    assert (json.dumps(_simulate_doc(logged), allow_nan=True)
            == json.dumps(_simulate_doc(plain), allow_nan=True))
    assert logged.events == one.events
    # the first replication's generator draws the blocks, the arrivals, and
    # then the winners
    cfg = config(prof)
    gen = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    blocks, _ = sim._poisson_arrivals(gen, [TWO_USERS.block_rate], cfg.horizon)
    sim._poisson_arrivals(gen, cfg.user_rates().ravel(), cfg.horizon)
    winners = [ev[6] for ev in one.events if ev[1] in ("block", "include")]
    assert len(winners) == len(blocks)
    power_cdf = np.cumsum(TWO_USERS.powers())
    expected = np.searchsorted(power_cdf, gen.random(len(winners)), side="right")
    assert winners == np.minimum(expected, TWO_USERS.n_miners - 1).tolist()


def test_event_log_csv_header():
    prof = StrategyProfile(RatePair(0.5, 0.0), RatePair(0.0, 0.0))
    report = run(config(prof, horizon=50.0, reps=1, log_events=True))
    text = _csv_text(EVENT_COLUMNS, report.events)
    assert text.splitlines()[0] == (
        "time,event_type,user_id,tx_index,fee_per_byte,block_id,winner_miner")


def test_payoff_matches_analytic_at_sne(table_params):
    """End-to-end: simulated per-type payoffs track the closed forms."""
    from fwt.mechanism import induced_outcome, optimal_mechanism

    mech = optimal_mechanism(table_params)
    out = induced_outcome(mech, table_params)
    cfg = SimConfig(params=table_params, menu=mech.menu, tax=mech.tax,
                    profile=out.profile, horizon=1500.0, seed=9, replications=4)
    report = run(cfg)
    assert report.type_payoff_mean["H"] == pytest.approx(out.payoff_high, rel=0.05)
    assert report.type_payoff_mean["L"] == pytest.approx(out.payoff_low, rel=0.05)


def test_winner_draws_respect_mining_power():
    p = replace(TWO_USERS, n_miners=2, mining_power=(0.9, 0.1))
    prof = StrategyProfile(RatePair(1.0, 0.0), RatePair(1.0, 0.0))
    cfg = SimConfig(params=p, menu=BOTH_OK, tax=TaxVector.zero(), profile=prof,
                    horizon=300.0, seed=2, replications=1, log_events=True)
    report = run(cfg)
    winner_counts = {0: 0, 1: 0}
    for ev in report.events:
        if ev[1] in ("block", "include"):
            winner_counts[ev[6]] += 1
    total = winner_counts[0] + winner_counts[1]
    assert winner_counts[0] / total > 0.8


# scipy serves only as the reference here; the package never imports it.
_DOFS = list(range(1, 201)) + list(range(297, 10001, 97)) + [10000]


def test_t_quantile_matches_scipy():
    got = [_t_quantile(0.975, dof) for dof in _DOFS]
    np.testing.assert_allclose(got, stats.t.ppf(0.975, _DOFS), rtol=1e-12, atol=0)


def test_t_quantile_closed_forms():
    assert _t_quantile(0.975, 1) == pytest.approx(math.tan(0.475 * math.pi),
                                                  rel=1e-12, abs=0)
    assert _t_quantile(0.975, 2) == pytest.approx(0.95 / math.sqrt(2 * 0.975 * 0.025),
                                                  rel=1e-12, abs=0)
    # Cornish-Fisher: t = z + (z^3 + z) / (4 dof) + c / dof^2 with c = 2.82 at 97.5%
    z = NormalDist().inv_cdf(0.975)
    for dof in (10**3, 10**4, 10**5):
        assert abs(_t_quantile(0.975, dof) - z - (z**3 + z) / (4 * dof)) < 3 / dof**2


@pytest.mark.parametrize("reps", range(1, 11))
def test_run_intervals_match_scipy_reference(monkeypatch, reps):
    """Every interval `run` reports: NaN at one replication, otherwise
    t(0.975, r - 1) * s / sqrt(r) over the r per-replication values."""
    mean_ci = sim._mean_ci
    calls = []

    def spy(values, t_crit):
        mean, half = mean_ci(values, t_crit)
        calls.append((np.asarray(values, dtype=float), mean, half))
        return mean, half

    monkeypatch.setattr(sim, "_mean_ci", spy)
    prof = StrategyProfile(RatePair(1.0, 1.0), RatePair(1.0, 0.5))
    report = run(config(prof, horizon=200.0, reps=reps))
    assert len(calls) == 7
    for values, mean, half in calls:
        assert values.shape[0] == reps
        np.testing.assert_array_equal(mean, values.mean(axis=0))
        if reps == 1:
            assert np.isnan(half).all()
        else:
            ref = (stats.t.ppf(0.975, reps - 1) * values.std(axis=0, ddof=1)
                   / math.sqrt(reps))
            np.testing.assert_allclose(half, ref, rtol=1e-12, atol=0)
    np.testing.assert_array_equal(report.user_wait_ci, calls[0][2])
    np.testing.assert_array_equal(report.welfare_ci, calls[-1][2])


def test_simulator_imports_only_the_model():
    """The simulator is the independent oracle for the analytic layers, so
    of this package it imports the shared types alone."""
    tree = ast.parse(Path(sim.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("fwt")):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names if a.name.split(".")[0] == "fwt")
    assert imported == {".model"}
