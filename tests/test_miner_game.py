import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwt.miner_game import (
    PendingTx,
    TxPool,
    check_miner_nash,
    equilibrium_selection,
    miner_payoff,
    storage_cost,
)
from fwt.model import SystemParams


def tx(uid, idx, size=150.0, fee=1e-9, t=0.0):
    return PendingTx(user_id=uid, tx_index=idx, size_bytes=size,
                     fee_per_byte=fee, gen_time=t)


def two_miner_params(alpha=(0.5, 0.5), c_s=5e-10):
    return replace(SystemParams(), n_miners=len(alpha), mining_power=tuple(alpha),
                   storage_cost_per_byte=c_s)


def test_storage_cost_all_empty():
    p = two_miner_params()
    assert storage_cost([None, None], p) == 0.0


def test_storage_cost_both_select_same_tx():
    p = two_miner_params(c_s=5e-10)
    t = tx(0, 0, size=150.0, fee=2e-9)
    assert storage_cost([t, t], p) == pytest.approx(150.0 * 5e-10, rel=1e-15)


def test_storage_cost_single_selector_charged_to_all():
    p = two_miner_params(alpha=(0.3, 0.7))
    t = tx(0, 0, size=100.0)
    cost = storage_cost([None, t], p)
    assert cost == pytest.approx(0.7 * 100.0 * 5e-10, rel=1e-15)
    # identical for every miner: the formula has no miner index
    assert miner_payoff(0, [None, t], p) == pytest.approx(-cost, rel=1e-12)


def test_storage_cost_permutation_invariant_under_equal_power():
    p = two_miner_params(alpha=(0.5, 0.5))
    a, b = tx(0, 0, size=100.0, fee=3e-9), tx(1, 0, size=200.0, fee=2e-9)
    assert storage_cost([a, b], p) == storage_cost([b, a], p)


def test_miner_payoff_empty_profile_is_zero():
    p = two_miner_params()
    assert miner_payoff(0, [None, None], p) == 0.0


def test_single_miner_payoff():
    p = replace(SystemParams(), n_miners=1, mining_power=(1.0,))
    rho = 2e-9
    t = tx(0, 0, size=150.0, fee=rho)
    expected = 150.0 * rho - 150.0 * p.storage_cost_per_byte
    assert miner_payoff(0, [t], p) == pytest.approx(expected, rel=1e-15)


def test_payoff_increasing_in_own_fee():
    p = two_miner_params(alpha=(0.4, 0.6))
    lo, hi = tx(0, 0, fee=1e-9), tx(1, 0, fee=5e-9)
    other = tx(2, 0, fee=2e-9)
    assert miner_payoff(0, [hi, other], p) > miner_payoff(0, [lo, other], p)


def test_equilibrium_selection_empty_pool():
    assert equilibrium_selection(TxPool([]), two_miner_params()) is None


def test_equilibrium_selection_earliest_among_highest():
    p = two_miner_params(c_s=1e-9)
    a = tx(0, 0, fee=2e-9, t=5.0)
    b = tx(1, 0, fee=2e-9, t=3.0)
    c = tx(2, 0, fee=1.5e-9, t=0.0)
    assert equilibrium_selection(TxPool([a, b, c]), p) == b


def test_equilibrium_selection_tie_break_user_then_index():
    p = two_miner_params(c_s=1e-9)
    a = tx(3, 1, fee=2e-9, t=1.0)
    b = tx(3, 0, fee=2e-9, t=1.0)
    c = tx(1, 5, fee=2e-9, t=1.0)
    assert equilibrium_selection(TxPool([a, b, c]), p) == c


def test_equilibrium_selection_below_threshold_declined():
    p = two_miner_params(c_s=1e-9)
    assert equilibrium_selection(TxPool([tx(0, 0, fee=0.5e-9)]), p) is None
    # closed inequality: exactly at threshold is accepted
    at = tx(0, 0, fee=1e-9)
    assert equilibrium_selection(TxPool([at]), p) == at


def test_acceptance_between_single_and_system_cost():
    # fees in [C_s, M*C_s) are accepted although system storage is uncovered
    p = replace(SystemParams(), n_miners=100, storage_cost_per_byte=1e-9)
    t = tx(0, 0, fee=5e-9)  # 5x single miner cost, 0.05x system cost
    assert equilibrium_selection(TxPool([t]), p) == t


def test_check_flags_dominated_selection():
    p = two_miner_params(alpha=(0.25, 0.75), c_s=1e-9)
    bad = tx(0, 0, size=150.0, fee=0.4e-9)
    pool = TxPool([bad])
    dev = check_miner_nash([bad, None], pool, p)
    assert dev is not None and dev.miner == 0 and dev.deviation is None
    assert dev.gain == pytest.approx(0.25 * 150.0 * (1e-9 - 0.4e-9), rel=1e-12)


def test_single_miner_max_fee_selection_is_nash():
    p = replace(SystemParams(), n_miners=1, mining_power=(1.0,), storage_cost_per_byte=1e-9)
    t = tx(0, 0, fee=5e-9)
    pool = TxPool([t, tx(1, 0, fee=2e-9)])
    assert check_miner_nash([t], pool, p) is None


def test_theorem1_not_nash_under_size_heterogeneity():
    """Fee-per-byte priority is not deviation-proof against arbitrary
    singleton deviations when sizes differ: a larger, slightly-cheaper
    transaction can carry more absolute fee surplus. The selection rule is
    defined on fee-per-byte regardless; the checker must expose the gap."""
    p = two_miner_params(alpha=(0.5, 0.5), c_s=1e-9)
    small_top = tx(0, 0, size=10.0, fee=3e-9, t=0.0)
    big_second = tx(1, 0, size=1000.0, fee=2.9e-9, t=1.0)
    pool = TxPool([small_top, big_second])
    sel = equilibrium_selection(pool, p)
    assert sel == small_top  # rule still picks the highest fee-per-byte
    dev = check_miner_nash([sel] * p.n_miners, pool, p)
    assert dev is not None and dev.deviation == big_second
    # net surplus ordering is what the deviation exploits
    assert 1000.0 * (2.9e-9 - 1e-9) > 10.0 * (3e-9 - 1e-9)


@settings(max_examples=150, deadline=None)
@given(
    fees=st.lists(st.floats(0.0, 5e-9), min_size=1, max_size=20),
    times=st.lists(st.floats(0.0, 100.0), min_size=20, max_size=20),
    m=st.integers(1, 6),
    data=st.data(),
)
def test_equilibrium_is_nash_on_uniform_size_pools(fees, times, m, data):
    """With uniform sizes the fee-per-byte order equals the payoff order,
    so the selection profile survives every unilateral deviation exactly."""
    weights = data.draw(st.lists(st.floats(0.01, 1.0), min_size=m, max_size=m))
    total = math.fsum(weights)
    alpha = [w / total for w in weights]
    alpha[-1] = 1.0 - math.fsum(alpha[:-1])
    p = replace(SystemParams(), n_miners=m, mining_power=tuple(alpha),
                storage_cost_per_byte=1e-9)
    pool = TxPool([tx(i, i, size=150.0, fee=f, t=times[i])
                   for i, f in enumerate(fees)])
    sel = equilibrium_selection(pool, p)
    top_fee = max(f.fee_per_byte for f in pool)
    assert (sel is not None) == (top_fee >= p.storage_cost_per_byte)
    assert check_miner_nash([sel] * p.n_miners, pool, p) is None


def test_pool_rejects_duplicates_and_sorts():
    with pytest.raises(ValueError):
        TxPool([tx(0, 0), tx(0, 0, t=1.0)])
    pool = TxPool([tx(1, 0, t=2.0), tx(0, 0, t=1.0)])
    assert [t.user_id for t in pool] == [0, 1]


@settings(max_examples=300, deadline=None)
@given(
    txs=st.lists(st.tuples(st.floats(1.0, 1000.0), st.floats(0.0, 3e-9)),
                 min_size=1, max_size=12),
    weights=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=6),
    data=st.data(),
)
def test_check_miner_nash_gain_is_the_payoff_change(txs, weights, data):
    """The checker's gain alpha_m * (net(b) - net(a)) is the change in
    `miner_payoff` when miner m alone switches from a to b, on pools of
    mixed sizes with fees on both sides of C_s; and when it reports no
    deviation, no single miner's switch to any option raises its payoff."""
    alpha = [w / math.fsum(weights) for w in weights]
    alpha[-1] = 1.0 - math.fsum(alpha[:-1])
    p = replace(SystemParams(), n_miners=len(alpha), mining_power=tuple(alpha),
                storage_cost_per_byte=1e-9)
    pool = TxPool([tx(i, 0, size=s, fee=f, t=float(i)) for i, (s, f) in enumerate(txs)])
    options = [None] + list(pool)
    profile = [options[data.draw(st.integers(0, len(pool)), label=f"miner {m}")]
               for m in range(p.n_miners)]
    # no payoff term exceeds this, so the rounding of a payoff difference
    # stays far below 1e-12 of it
    scale = max(t.size_bytes * max(t.fee_per_byte, p.storage_cost_per_byte) for t in pool)

    def change(m, option):
        switched = list(profile)
        switched[m] = option
        return miner_payoff(m, switched, p, pool) - miner_payoff(m, profile, p, pool)

    dev = check_miner_nash(profile, pool, p)
    if dev is not None:
        assert dev.gain > 0.0
        assert math.isclose(dev.gain, change(dev.miner, dev.deviation),
                            rel_tol=1e-9, abs_tol=1e-12 * scale)
    else:
        for m in range(p.n_miners):
            for option in options:
                assert change(m, option) <= 1e-12 * scale, (m, option)
