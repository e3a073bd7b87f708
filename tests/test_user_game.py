import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fwt.model import FeeMenu, RatePair, SneKind, StrategyProfile, SystemParams, TaxVector
from fwt.queue import split_roles
from fwt.user_game import (
    _accumulated_wait_rate,
    _pi_rates,
    best_response_check,
    net_utilities,
    sne_rates,
    sne_select,
    user_payoff,
    waiting_rate,
    with_payoffs,
)

TWO_USERS = replace(SystemParams(), n_users_high=1, n_users_low=1)
C_S = TWO_USERS.storage_cost_per_byte
BOTH_OK = FeeMenu(rho_high=4 * C_S, rho_low=2 * C_S)
HIGH_ONLY = FeeMenu(rho_high=2 * C_S, rho_low=0.25 * C_S)
NONE_OK = FeeMenu(rho_high=0.5 * C_S, rho_low=0.25 * C_S)


def profile(h1, h2, l1, l2):
    return StrategyProfile(RatePair(h1, h2), RatePair(l1, l2))


# --- waiting time -------------------------------------------------------------

def test_waiting_two_class_hand_value():
    # two users, each one tx/s in both classes, mu = 15
    w = waiting_rate("H", profile(1.0, 1.0, 1.0, 1.0), BOTH_OK, TWO_USERS)
    assert w == pytest.approx(1.0 / 13.0 + 15.0 / 143.0, rel=1e-15)


def test_waiting_zero_rates_below_threshold_menu():
    assert waiting_rate("H", profile(0, 0, 0, 0), NONE_OK, TWO_USERS) == 0.0


def test_waiting_infinite_for_never_included_class():
    w = waiting_rate("H", profile(0.0, 0.5, 0.0, 0.0), HIGH_ONLY, TWO_USERS)
    assert math.isinf(w)
    w2 = waiting_rate("H", profile(1.0, 0.0, 1.0, 0.0), HIGH_ONLY, TWO_USERS)
    assert w2 == pytest.approx(1.0 / 13.0, rel=1e-15)


def test_waiting_infinite_when_any_generation_below_threshold():
    assert math.isinf(waiting_rate("H", profile(0.1, 0, 0, 0), NONE_OK, TWO_USERS))


def test_waiting_saturated_queue():
    p = replace(SystemParams(), n_users_high=1, n_users_low=1, block_rate=2.0)
    w = waiting_rate("H", profile(1.0, 0.0, 1.0, 0.0), BOTH_OK, p)
    assert math.isinf(w)


def test_high_class_unaffected_by_low_saturation():
    p = replace(SystemParams(), n_users_high=1, n_users_low=1, block_rate=4.0)
    # high class stable (2 < 4), total saturated (2 + 2 >= 4)
    prof = profile(2.0, 0.0, 0.0, 2.0)
    assert waiting_rate("H", prof, BOTH_OK, p) == pytest.approx(1.0, rel=1e-12)
    assert math.isinf(waiting_rate("L", prof, BOTH_OK, p))


def _reference_wait_rate(l1, l2, agg1, agg2, high_ok, low_ok, mu):
    """The per-user wait as written before the sojourn moved to fwt.queue,
    kept as the reference for the merged core."""
    l1, l2, agg1, agg2 = (np.asarray(v, dtype=float) for v in (l1, l2, agg1, agg2))
    inf = np.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        if low_ok:
            t1 = np.where(l1 > 0, np.where(agg1 < mu, l1 / (mu - agg1), inf), 0.0)
            tot = agg1 + agg2
            t2 = np.where(l2 > 0, np.where((agg1 < mu) & (tot < mu),
                                           mu * l2 / ((mu - agg1) * (mu - tot)), inf), 0.0)
            w = t1 + t2
        elif high_ok:
            t1 = np.where(l1 > 0, np.where(agg1 < mu, l1 / (mu - agg1), inf), 0.0)
            w = np.where(l2 > 0, inf, t1)
        else:
            w = np.where((l1 > 0) | (l2 > 0), inf, 0.0)
    return w


def _assert_same_wait(core, ref):
    core, ref = np.broadcast_arrays(np.asarray(core, dtype=float), ref)
    assert np.array_equal(np.isinf(core), np.isinf(ref))
    finite = ~np.isinf(ref)
    np.testing.assert_allclose(core[finite], ref[finite], rtol=1e-12, atol=0.0)


_MENUS = [(True, True), (True, False), (False, False)]  # (high_ok, low_ok)


@settings(max_examples=300, deadline=None)
@given(
    mu=st.floats(0.5, 50.0),
    own=st.tuples(st.sampled_from([0.0, 0.25, 1.0]) | st.floats(1e-12, 1.0),
                  st.sampled_from([0.0, 0.25, 1.0]) | st.floats(1e-12, 1.0)),
    crowd=st.tuples(st.floats(0.0, 1.2), st.floats(0.0, 1.2)),
    menu=st.sampled_from(_MENUS),
)
# saturation: the high class, then the whole queue, carries exactly mu
@example(mu=4.0, own=(0.25, 0.25), crowd=(0.75, 0.0), menu=(True, True))
@example(mu=4.0, own=(0.25, 0.25), crowd=(0.25, 0.25), menu=(True, True))
def test_wait_core_matches_reference(mu, own, crowd, menu):
    """One user's wait on the merged sojourn against the previous per-class
    forms: zero own rates, refused classes, saturation and higher-fee
    traffic. Loads are fractions of mu."""
    l1, l2 = own[0] * mu, own[1] * mu
    agg1, agg2 = l1 + crowd[0] * mu, l2 + crowd[1] * mu
    _assert_same_wait(_accumulated_wait_rate(l1, l2, agg1, agg2, *menu, mu),
                      _reference_wait_rate(l1, l2, agg1, agg2, *menu, mu))


@pytest.mark.parametrize("menu", _MENUS)
def test_wait_core_matches_reference_on_deviation_grid(menu):
    """The array path, as best_response_check calls it: one user's rates
    over a grid that reaches past saturation, behind a fixed crowd."""
    mu = 15.0
    xs = np.linspace(0.0, mu, 61)
    l1, l2 = np.meshgrid(xs, xs, indexing="ij")
    agg1, agg2 = 3.0 + l1, 6.0 + l2
    core = _accumulated_wait_rate(l1, l2, agg1, agg2, *menu, mu)
    ref = _reference_wait_rate(l1, l2, agg1, agg2, *menu, mu)
    assert np.isinf(ref).any() and (ref == 0.0).any()
    _assert_same_wait(core, ref)


# --- net utilities --------------------------------------------------------------

def test_net_utilities_zero_tax(table_params):
    nu = net_utilities(table_params, TaxVector.zero())
    assert nu.h_high == table_params.utility_high
    assert nu.h_low == table_params.utility_low
    b_is_high, *_ = split_roles(nu.h_high, nu.h_low, 100, 100)
    assert b_is_high  # ties and higher-H both resolve to B = H


def test_net_utilities_role_swap():
    p = replace(SystemParams(), utility_high=1.0, utility_low=1.0)
    # taxes push H's net utility below L's
    tax = TaxVector(p_hh=0.6 / (p.n_users_high - 1), p_hl=0.0, p_lh=0.0,
                    p_ll=0.4 / (p.n_users_low - 1))
    nu = net_utilities(p, tax)
    assert nu.h_high == pytest.approx(0.4)
    assert nu.h_low == pytest.approx(0.6)
    b_is_high, _, _, n_b, _ = split_roles(nu.h_high, nu.h_low,
                                          p.n_users_high, p.n_users_low)
    assert not b_is_high
    assert n_b == p.n_users_low


def test_net_utilities_single_high_user_ignores_own_type_tax():
    p = replace(SystemParams(), n_users_high=1)
    nu_a = net_utilities(p, TaxVector(p_hh=123.0))
    nu_b = net_utilities(p, TaxVector(p_hh=-5.0))
    assert nu_a.h_high == nu_b.h_high == p.utility_high


# --- SNE rates -------------------------------------------------------------------

def test_rates_zero_when_net_utility_below_entry_bar(table_params):
    gamma, mu = table_params.impatience, table_params.block_rate
    rho = table_params.system_storage_per_byte
    bar = table_params.mean_tx_size * rho + gamma / mu
    nu = net_utilities(replace(table_params, utility_high=bar * 0.999,
                               utility_low=bar * 0.5), TaxVector.zero())
    assert sne_rates(nu, rho, table_params) == (0.0, 0.0)
    # exactly at the bar is still the no-generation branch
    nu_eq = net_utilities(replace(table_params, utility_high=bar, utility_low=bar),
                          TaxVector.zero())
    assert sne_rates(nu_eq, rho, table_params) == (0.0, 0.0)


def _foc_residuals(pi_b, pi_s, h_b, h_s, rho, params):
    """First-order-condition residuals of the interior equilibrium."""
    sbar, gamma, mu = params.mean_tx_size, params.impatience, params.block_rate
    n_b = n_s = 100
    x = mu - n_b * pi_b - n_s * pi_s
    rb = (h_b - sbar * rho) * x * x - gamma * (x + pi_b)
    rs = (h_s - sbar * rho) * x * x - gamma * (x + pi_s)
    return rb, rs


def test_rates_both_types_generate_and_satisfy_optimality(table_params):
    # the documented example point: both types generate at the low fee;
    # B hits the per-user cap (first-order gain still positive there) and
    # S settles at an interior first-order condition
    rho = table_params.system_storage_per_byte
    nu = net_utilities(table_params, TaxVector.zero())  # h = (1.8e-3, 9e-4)
    pi_b, pi_s = sne_rates(nu, rho, table_params)
    assert 0 < pi_s < pi_b <= table_params.max_rate_per_user
    _, h_b, h_s, _, _ = split_roles(nu.h_high, nu.h_low, 100, 100)
    rb, rs = _foc_residuals(pi_b, pi_s, h_b, h_s, rho, table_params)
    assert pi_b == pytest.approx(table_params.max_rate_per_user, rel=1e-12)
    assert rb > 0.0  # cap binds: marginal value of generating still positive
    assert abs(rs) < 1e-12


def test_rates_interior_focs_hold_when_cap_slack(table_params):
    # equal utilities keep both types strictly inside the per-user cap
    p = replace(table_params, utility_high=1.45e-3, utility_low=1.45e-3)
    rho = p.system_storage_per_byte
    nu = net_utilities(p, TaxVector.zero())
    pi_b, pi_s = sne_rates(nu, rho, p)
    assert 0 < pi_s <= pi_b + 1e-15 and pi_b < p.max_rate_per_user
    _, h_b, h_s, _, _ = split_roles(nu.h_high, nu.h_low, 100, 100)
    rb, rs = _foc_residuals(pi_b, pi_s, h_b, h_s, rho, p)
    assert abs(rb) < 1e-12 and abs(rs) < 1e-12


def test_rates_cap_binds_for_generous_b_type(table_params):
    p = replace(table_params, utility_high=10.0, utility_low=0.01, impatience=1e-6)
    nu = net_utilities(p, TaxVector.zero())
    pi_b, pi_s = sne_rates(nu, p.system_storage_per_byte, p)
    assert pi_b == p.max_rate_per_user  # min{} cap selected
    assert pi_s < p.max_rate_per_user  # strict: waiting cost keeps S interior


def test_rates_only_b_branch(table_params):
    p = replace(table_params, utility_low=1e-6)
    nu = net_utilities(p, TaxVector.zero())
    pi_b, pi_s = sne_rates(nu, p.system_storage_per_byte, p)
    assert pi_b > 0 and pi_s == 0.0


def test_branch_continuity_at_single_type_boundary(table_params):
    """Across the boundary where the smaller type starts generating, the
    bigger type's rate from the two branches agrees."""
    rho = table_params.system_storage_per_byte
    gamma, mu, sbar = (table_params.impatience, table_params.block_rate,
                       table_params.mean_tx_size)
    h_b = table_params.utility_high
    only_b, _ = _pi_rates(h_b, 0.0, rho, 100, 100, table_params)
    boundary = sbar * rho + gamma / (mu - 100 * only_b)
    lo_b, lo_s = _pi_rates(h_b, boundary * (1 - 1e-9), rho, 100, 100, table_params)
    hi_b, hi_s = _pi_rates(h_b, boundary * (1 + 1e-9), rho, 100, 100, table_params)
    assert lo_s == 0.0
    assert hi_s == pytest.approx(0.0, abs=1e-6)
    assert hi_b == pytest.approx(lo_b, rel=1e-8)


def test_rate_feasibility_with_varying_impatience():
    """0 <= pi_S <= pi_B <= mu/N with impatience varying per draw."""
    rng = np.random.default_rng(2024)
    mu = 15.0
    bad = 0
    for _ in range(800):
        n_b = float(rng.integers(1, 300))
        n_s = float(rng.integers(1, 300))
        h_s = float(rng.uniform(0.0, 5e-3))
        h_b = h_s * float(rng.uniform(1.0, 4.0))
        rho = float(rng.uniform(0.0, 2e-5))
        params = SystemParams(impatience=float(10 ** rng.uniform(-6, -2)))
        pi_b, pi_s = _pi_rates(h_b, h_s, rho, n_b, n_s, params)
        cap = mu / (n_b + n_s)
        if not (0.0 <= pi_s <= pi_b + 1e-15 <= cap + 1e-12):
            bad += 1
    assert bad == 0


def test_rate_feasibility_vectorized_bulk():
    """Same invariant checked fully vectorized at fixed impatience."""
    rng = np.random.default_rng(7)
    n = 10_000
    mu = 15.0
    n_b = rng.integers(1, 300, n).astype(float)
    n_s = rng.integers(1, 300, n).astype(float)
    h_s = rng.uniform(0.0, 5e-3, n)
    h_b = h_s * rng.uniform(1.0, 4.0, n)
    rho = rng.uniform(0.0, 2e-5, n)
    params = SystemParams(impatience=5e-5)
    pi_b, pi_s = _pi_rates(h_b, h_s, rho, n_b, n_s, params)
    cap = mu / (n_b + n_s)
    assert np.all(pi_s >= 0.0)
    assert np.all(pi_b >= pi_s - 1e-15)
    assert np.all(pi_b <= cap * (1 + 1e-12))


# --- SNE selection ---------------------------------------------------------------

def test_huge_high_fee_forces_low_fee_sne(table_params):
    nu = net_utilities(table_params, TaxVector.zero())
    menu = FeeMenu(rho_high=1.0, rho_low=table_params.system_storage_per_byte)
    out = sne_select(nu, menu, table_params)
    assert out.sne_kind is SneKind.LOW_FEE
    assert out.fee_used == menu.rho_low
    assert out.profile.rates_high_type.rate_high == 0.0


def test_cheap_high_fee_selects_high_fee_sne(table_params):
    nu = net_utilities(table_params, TaxVector.zero())
    rho_low = table_params.system_storage_per_byte
    menu = FeeMenu(rho_high=rho_low * 1.01, rho_low=rho_low)
    out = sne_select(nu, menu, table_params)
    assert out.sne_kind is SneKind.HIGH_FEE
    assert out.fee_used == menu.rho_high
    assert out.profile.rates_high_type.rate_low == 0.0
    assert out.profile.rates_high_type.rate_high > 0


def test_no_generation_when_entry_bar_unmet_at_both_fees(table_params):
    p = replace(table_params, utility_high=1e-6, utility_low=5e-7)
    nu = net_utilities(p, TaxVector.zero())
    menu = FeeMenu(rho_high=2 * p.system_storage_per_byte,
                   rho_low=p.system_storage_per_byte)
    out = sne_select(nu, menu, p)
    assert out.sne_kind is SneKind.NO_GENERATION
    assert out.waiting_rate_high == 0.0


def test_sne_rates_respect_generation_constraint(table_params):
    nu = net_utilities(table_params, TaxVector.zero())
    menu = FeeMenu(rho_high=1e-5, rho_low=table_params.system_storage_per_byte)
    out = sne_select(nu, menu, table_params)
    assert out.profile.rates_high_type.feasible(table_params)
    assert out.profile.rates_low_type.feasible(table_params)
    agg1, agg2 = out.profile.aggregate(table_params)
    assert agg1 + agg2 <= table_params.block_rate * (1 + 1e-12)
    assert not math.isinf(out.waiting_rate_high)


def test_sne_select_below_threshold_low_fee_plays_high_only():
    """Menus whose low fee is never accepted collapse to a high-fee game."""
    p = TWO_USERS
    nu = net_utilities(p, TaxVector.zero())
    out = sne_select(nu, HIGH_ONLY, p)
    assert out.profile.rates_high_type.rate_low == 0.0
    assert out.fee_used == HIGH_ONLY.rho_high
    assert out.sne_kind in (SneKind.HIGH_FEE, SneKind.NO_GENERATION)


def test_sne_select_nothing_accepted():
    out = sne_select(net_utilities(TWO_USERS, TaxVector.zero()), NONE_OK, TWO_USERS)
    assert out.sne_kind is SneKind.NO_GENERATION


# --- payoffs ----------------------------------------------------------------------

def test_payoff_zero_rates_zero_tax(table_params):
    menu = FeeMenu(rho_high=1.0, rho_low=table_params.system_storage_per_byte)
    p = replace(table_params, utility_high=1e-6, utility_low=5e-7)
    out = sne_select(net_utilities(p, TaxVector.zero()), menu, p)
    assert user_payoff("H", out, menu, TaxVector.zero(), p) == 0.0


def test_payoff_symmetric_no_tax_identity(table_params):
    """Without transfers the payoff is rate*(utility - fee) - waiting cost."""
    menu = FeeMenu(rho_high=1.0, rho_low=table_params.system_storage_per_byte)
    out = sne_select(net_utilities(table_params, TaxVector.zero()), menu, table_params)
    lam = out.profile.rates_low_type.total
    expected = (lam * (table_params.utility_low
                       - table_params.mean_tx_size * menu.rho_low)
                - table_params.impatience * out.waiting_rate_low)
    assert user_payoff("L", out, menu, TaxVector.zero(), table_params) == pytest.approx(
        expected, rel=1e-12)


def test_tax_transfers_cancel_in_aggregate(table_params):
    menu = FeeMenu(rho_high=1.0, rho_low=table_params.system_storage_per_byte)
    tax = TaxVector(p_hh=3e-6, p_hl=-2e-6, p_lh=1e-6, p_ll=4e-6)
    out = sne_select(net_utilities(table_params, tax), menu, table_params)
    zero = TaxVector.zero()
    out_same_rates = out  # rates depend on tax only through row sums
    total_with = (table_params.n_users_high
                  * user_payoff("H", out, menu, tax, table_params)
                  + table_params.n_users_low
                  * user_payoff("L", out, menu, tax, table_params))
    q_h, q_l = tax.row_sums(table_params)
    # strip the row-sum effect on rates by comparing against direct formula
    lam_h = out.profile.rates_high_type.total
    lam_l = out.profile.rates_low_type.total
    no_transfer = (
        table_params.n_users_high * (
            lam_h * (table_params.utility_high - table_params.mean_tx_size * menu.rho_low)
            - table_params.impatience * out_same_rates.waiting_rate_high)
        + table_params.n_users_low * (
            lam_l * (table_params.utility_low - table_params.mean_tx_size * menu.rho_low)
            - table_params.impatience * out_same_rates.waiting_rate_low))
    assert total_with == pytest.approx(no_transfer, rel=1e-9)


def test_with_payoffs_and_json_round_trip(table_params):
    menu = FeeMenu(rho_high=1.0, rho_low=table_params.system_storage_per_byte)
    out = with_payoffs(
        sne_select(net_utilities(table_params, TaxVector.zero()), menu, table_params),
        menu, TaxVector.zero(), table_params)
    doc = json.loads(json.dumps(out.to_json_dict()))
    assert doc["sne_kind"] == "LowFeeSNE"
    assert doc["rates"]["H"]["rate_low"] == out.profile.rates_high_type.rate_low
    assert doc["payoff"]["H"] == out.payoff_high
    assert doc["waiting_rate"]["L"] == out.waiting_rate_low


# --- best-response oracle -----------------------------------------------------------

def test_best_response_certifies_documented_point(table_params):
    """Both-types-generate rates at the example parameters survive the
    deviation grid when the high fee is priced out of use."""
    menu = FeeMenu(rho_high=1.0, rho_low=table_params.system_storage_per_byte)
    out = sne_select(net_utilities(table_params, TaxVector.zero()), menu, table_params)
    assert out.sne_kind is SneKind.LOW_FEE
    assert best_response_check(out, menu, TaxVector.zero(), table_params) is None


def test_best_response_flags_inflated_rates(table_params):
    menu = FeeMenu(rho_high=1.0, rho_low=table_params.system_storage_per_byte)
    good = sne_select(net_utilities(table_params, TaxVector.zero()), menu, table_params)
    doubled = StrategyProfile(
        RatePair(0.0, min(2 * good.profile.rates_high_type.rate_low,
                          table_params.max_rate_per_user)),
        RatePair(0.0, min(2 * good.profile.rates_low_type.rate_low,
                          table_params.max_rate_per_user)),
        sne_kind=SneKind.LOW_FEE)
    bad = type(good)(profile=doubled, fee_used=good.fee_used,
                     waiting_rate_high=waiting_rate("H", doubled, menu, table_params),
                     waiting_rate_low=waiting_rate("L", doubled, menu, table_params))
    dev = best_response_check(bad, menu, TaxVector.zero(), table_params)
    assert dev is not None
    assert dev.rate_high + dev.rate_low < doubled.rates_for(dev.user_type).total


def test_best_response_accepts_no_generation_outcome(table_params):
    p = replace(table_params, utility_high=1e-6, utility_low=5e-7)
    menu = FeeMenu(rho_high=2 * p.system_storage_per_byte,
                   rho_low=p.system_storage_per_byte)
    out = sne_select(net_utilities(p, TaxVector.zero()), menu, p)
    assert out.sne_kind is SneKind.NO_GENERATION
    assert best_response_check(out, menu, TaxVector.zero(), p) is None
