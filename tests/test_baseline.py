import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwt.baseline import _fee_grid, existing_equilibrium, verify_existing
from fwt.mechanism import induced_outcome, optimal_mechanism, social_welfare
from fwt.model import SystemParams
from fwt.queue import own_rate


def _reference_rate(n_own, margin, mu1, free, gamma, mu):
    """The baseline's within-type rate as written before it moved to
    fwt.queue.own_rate, kept as the reference: the residual x solves
    n*(R - s*f)*(mu - A)*x^2 - gamma*mu*(n - 1)*x - gamma*mu*free = 0."""
    a = n_own * margin * mu1
    b = gamma * mu * (n_own - 1)
    c = gamma * mu * free
    x = (b + np.sqrt(b * b + 4.0 * a * c)) / (2.0 * a)
    return (free - x) / n_own


def _assert_same_rate(n_own, margin, mu1, free, gamma, mu):
    core = own_rate(n_own, margin, gamma * mu / mu1, free, True)
    ref = _reference_rate(n_own, margin, mu1, free, gamma, mu)
    # the rate is (free - x)/n, so its rounding scales with free/n
    np.testing.assert_allclose(core, ref, rtol=1e-12, atol=1e-12 * np.max(free) / n_own)


@settings(max_examples=300, deadline=None)
@given(
    n_own=st.integers(1, 300_000),
    margin=st.floats(1e-7, 1e-2),
    above=st.sampled_from([0.0]) | st.floats(0.0, 0.99),
    same=st.sampled_from([0.0]) | st.floats(0.0, 0.99),
    gamma=st.floats(1e-7, 1e-1),
)
def test_own_rate_matches_baseline_reference(n_own, margin, above, same, gamma):
    """The shared rate root with gamma scaled by mu/(mu - above) against
    the baseline's own quadratic, with and without higher-fee and same-fee
    traffic (fractions of mu = 15)."""
    mu = 15.0
    mu1 = mu - above * mu
    free = mu1 - same * mu1
    _assert_same_rate(n_own, margin, mu1, free, gamma, mu)


@pytest.mark.parametrize("other_fi", [0, 7, 120])
def test_own_rate_matches_baseline_reference_on_fee_grid(table_params, other_fi):
    """The array path, as _best_response calls it: every fee of the grid
    with a positive margin, behind a competitor at one grid fee."""
    p = table_params
    grid = _fee_grid(p, 200)
    mu = p.block_rate
    margin = p.utility_high - p.mean_tx_size * grid
    above = np.where(np.arange(200) < other_fi, 6.0, 0.0)
    same = np.where(np.arange(200) == other_fi, 6.0, 0.0)
    keep = margin > 0
    mu1 = (mu - above)[keep]
    _assert_same_rate(100, margin[keep], mu1, mu1 - same[keep], p.impatience, mu)


def test_lone_competitor_settles_at_grid_minimum():
    """With no second type in play there is no priority to buy: the active
    type sits at the cheapest accepted fee."""
    p = replace(SystemParams(), utility_low=1e-7)  # L never profits
    out = existing_equilibrium(p)
    assert out.rate_low_type == 0.0
    assert out.fee_high_type == p.storage_cost_per_byte
    assert out.rate_high_type > 0
    assert out.converged


def test_defaults_outcome_is_sane(table_params):
    out = existing_equilibrium(table_params)
    assert out.rate_high_type > 0 and out.rate_low_type > 0
    assert out.fee_high_type > out.fee_low_type
    cap = table_params.max_rate_per_user
    assert out.rate_high_type <= cap * (1 + 1e-12)
    assert out.rate_low_type <= cap * (1 + 1e-12)
    assert not math.isinf(out.welfare)
    # insufficiency: competition only prices a single miner's cost scale
    assert out.avg_fee_per_byte < table_params.system_storage_per_byte


def test_converged_outcome_is_fixed_point():
    p = replace(SystemParams(), utility_low=1e-7)
    out = existing_equilibrium(p)
    assert out.converged
    assert verify_existing(out, p)


def test_avg_fee_nondecreasing_in_utility(table_params):
    """Richer users bid more for priority."""
    fees = []
    for r in np.linspace(5e-4, 3e-3, 10):
        out = existing_equilibrium(replace(table_params, utility_high=float(r),
                                           utility_low=float(r) / 2.0))
        fees.append(out.avg_fee_per_byte)
    grid_step = (2 * 3e-3 / 150.0) / 199
    assert all(b >= a - grid_step for a, b in zip(fees, fees[1:]))


def test_avg_fee_nonincreasing_in_impatience_participation_regime(table_params):
    """Once waiting costs dominate, the low type's willingness to pay caps
    the fee competition, so fees fall as impatience rises. (In the
    low-impatience deterrence regime the surrogate's fee premium grows
    like sqrt(gamma) instead; see the baseline module notes.)"""
    fees = []
    for g in np.geomspace(4e-3, 1.6e-2, 10):
        out = existing_equilibrium(replace(table_params, impatience=float(g)))
        fees.append(out.avg_fee_per_byte)
    grid_step = (2 * table_params.utility_high / 150.0) / 199
    assert all(b <= a + grid_step for a, b in zip(fees, fees[1:]))
    assert fees[-1] < fees[0]


def test_welfare_dominated_by_mechanism_optimum(table_params):
    """The mechanism's welfare is the unconstrained maximum over symmetric
    rate profiles, so it weakly dominates the untaxed equilibrium."""
    for r in np.linspace(5e-4, 3e-3, 6):
        p = replace(table_params, utility_high=float(r), utility_low=float(r) / 2.0)
        mech = optimal_mechanism(p)
        out = induced_outcome(mech, p)
        w = social_welfare(out, mech.menu, mech.tax, p).total
        ex = existing_equilibrium(p)
        assert w >= ex.welfare - 1e-9 * max(1.0, abs(ex.welfare))


def test_hetero_accounting_changes_welfare_not_equilibrium(table_params):
    base = existing_equilibrium(table_params)
    hetero_bound = table_params.n_miners * 2.75e-9  # mean cost at ratio 10
    shifted = existing_equilibrium(table_params, system_cost_per_byte=hetero_bound)
    # same game, same play
    assert shifted.fee_high_type == base.fee_high_type
    assert shifted.rate_high_type == base.rate_high_type
    assert shifted.avg_fee_per_byte == base.avg_fee_per_byte
    # heavier storage cost only lowers the welfare accounting
    assert shifted.welfare < base.welfare


def test_json_shape(table_params):
    doc = existing_equilibrium(table_params).to_json_dict()
    assert set(doc) >= {"sne_kind", "fee_used", "rates", "waiting_rate",
                        "payoff", "avg_fee_per_byte", "converged"}
    assert doc["sne_kind"] == "Existing"
