import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fwt.checks import criterion_grid, prop2_draws
from fwt.cli import _outcome_doc
from fwt.mechanism import induced_outcome, optimal_mechanism
from fwt.model import FeeMenu, RatePair, SneKind, StrategyProfile, SystemParams, TaxVector
from fwt.queue import InvariantError, split_roles
from fwt.user_game import (
    _accumulated_wait_rate,
    _both_rates,
    _delta,
    _fee_rates,
    _only_b_rates,
    best_response_check,
    sne_select,
    user_payoff,
    waiting_rate,
)

import reference
from conftest import exactness, same_bits

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


@exactness(300)
@given(
    mu=st.floats(0.5, 50.0),
    own=st.tuples(st.sampled_from([0.0, 0.25, 1.0]) | st.floats(1e-12, 1.0),
                  st.sampled_from([0.0, 0.25, 1.0]) | st.floats(1e-12, 1.0)),
    crowd=st.tuples(st.floats(0.0, 1.2), st.floats(0.0, 1.2)),
    menu=st.sampled_from(_MENUS),
)
@example(mu=4.0, own=(0.25, 0.25), crowd=(0.75, 0.0), menu=(True, True))
@example(mu=4.0, own=(0.25, 0.25), crowd=(0.25, 0.25), menu=(True, True))
# zero own rates wait 0 even in a refused or saturated class
@example(mu=4.0, own=(0.0, 0.0), crowd=(1.2, 1.2), menu=(False, False))
@example(mu=4.0, own=(0.0, 0.25), crowd=(0.75, 0.0), menu=(True, True))
def test_float_wait_matches_array_wait(mu, own, crowd, menu):
    """`waiting_rate`, in floats, is the array wait of `best_response_check`
    bit for bit, over the domain above: the user is the one H user and the
    crowd the one L user."""
    prof = profile(own[0] * mu, own[1] * mu, crowd[0] * mu, crowd[1] * mu)
    params = replace(TWO_USERS, block_rate=mu)
    agg1, agg2 = prof.aggregate(params)
    want = _accumulated_wait_rate(own[0] * mu, own[1] * mu, agg1, agg2, *menu, mu)
    fee_menu = {(True, True): BOTH_OK, (True, False): HIGH_ONLY, (False, False): NONE_OK}[menu]
    assert same_bits(waiting_rate("H", prof, fee_menu, params), float(want))


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

def _net_utilities(params, tax):
    """Each type's on-chain utility less its tax row sum, as sne_select
    computes it."""
    q_h, q_l = tax.row_sums(params)
    return params.utility_high - q_h, params.utility_low - q_l


def _sne_rates(params, tax, rho):
    """Per-user SNE rates (pi_B, pi_S) when everyone generates at fee rho."""
    _, h_b, h_s, n_b, n_s = split_roles(*_net_utilities(params, tax),
                                        params.n_users_high, params.n_users_low)
    return _fee_rates(float(h_b), float(h_s), rho, int(n_b), int(n_s), params)


def _array_rates(h_b, h_s, rho, n_b, n_s, params):
    """Per-user rates (pi_B, pi_S) from the array kernels, composed as the
    mechanism's welfare table composes them."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        active, pi_b, threshold = _only_b_rates(h_b, rho, n_b, n_s, params)
        both = active & ~(h_s <= threshold)
        both_b, both_s = _both_rates(h_b, h_s, rho, n_b, n_s, params, both)
    return np.where(both, both_b, pi_b), np.where(both, both_s, 0.0)


def test_net_utilities_zero_tax(table_params):
    assert TaxVector.zero().row_sums(table_params) == (0.0, 0.0)
    h_high, h_low = _net_utilities(table_params, TaxVector.zero())
    assert h_high == table_params.utility_high
    assert h_low == table_params.utility_low
    b_is_high, *_ = split_roles(h_high, h_low, 100, 100)
    assert b_is_high  # ties and higher-H both resolve to B = H


def test_net_utilities_role_swap():
    p = replace(SystemParams(), utility_high=1.0, utility_low=1.0)
    # taxes push H's net utility below L's
    tax = TaxVector(p_hh=0.6 / (p.n_users_high - 1), p_hl=0.0, p_lh=0.0,
                    p_ll=0.4 / (p.n_users_low - 1))
    h_high, h_low = _net_utilities(p, tax)
    assert h_high == pytest.approx(0.4)
    assert h_low == pytest.approx(0.6)
    b_is_high, _, _, n_b, _ = split_roles(h_high, h_low, p.n_users_high, p.n_users_low)
    assert not b_is_high
    assert n_b == p.n_users_low


def test_net_utilities_single_high_user_ignores_own_type_tax():
    p = replace(SystemParams(), n_users_high=1)
    q_a, _ = TaxVector(p_hh=123.0).row_sums(p)
    q_b, _ = TaxVector(p_hh=-5.0).row_sums(p)
    assert q_a == q_b == 0.0
    assert _net_utilities(p, TaxVector(p_hh=123.0))[0] == p.utility_high


# --- SNE rates -------------------------------------------------------------------

def test_rates_zero_when_net_utility_below_entry_bar(table_params):
    gamma, mu = table_params.impatience, table_params.block_rate
    rho = table_params.system_storage_per_byte
    bar = table_params.mean_tx_size * rho + gamma / mu
    below = replace(table_params, utility_high=bar * 0.999, utility_low=bar * 0.5)
    assert _sne_rates(below, TaxVector.zero(), rho) == (0.0, 0.0)
    # exactly at the bar is still the no-generation branch
    at_bar = replace(table_params, utility_high=bar, utility_low=bar)
    assert _sne_rates(at_bar, TaxVector.zero(), rho) == (0.0, 0.0)


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
    nu = _net_utilities(table_params, TaxVector.zero())  # h = (1.8e-3, 9e-4)
    pi_b, pi_s = _sne_rates(table_params, TaxVector.zero(), rho)
    assert 0 < pi_s < pi_b <= table_params.max_rate_per_user
    _, h_b, h_s, _, _ = split_roles(*nu, 100, 100)
    rb, rs = _foc_residuals(pi_b, pi_s, h_b, h_s, rho, table_params)
    assert pi_b == pytest.approx(table_params.max_rate_per_user, rel=1e-12)
    assert rb > 0.0  # cap binds: marginal value of generating still positive
    assert abs(rs) < 1e-12


def test_rates_interior_focs_hold_when_cap_slack(table_params):
    # equal utilities keep both types strictly inside the per-user cap
    p = replace(table_params, utility_high=1.45e-3, utility_low=1.45e-3)
    rho = p.system_storage_per_byte
    pi_b, pi_s = _sne_rates(p, TaxVector.zero(), rho)
    assert 0 < pi_s <= pi_b + 1e-15 and pi_b < p.max_rate_per_user
    _, h_b, h_s, _, _ = split_roles(*_net_utilities(p, TaxVector.zero()), 100, 100)
    rb, rs = _foc_residuals(pi_b, pi_s, h_b, h_s, rho, p)
    assert abs(rb) < 1e-12 and abs(rs) < 1e-12


def test_rates_cap_binds_for_generous_b_type(table_params):
    p = replace(table_params, utility_high=10.0, utility_low=0.01, impatience=1e-6)
    pi_b, pi_s = _sne_rates(p, TaxVector.zero(), p.system_storage_per_byte)
    assert pi_b == p.max_rate_per_user  # min{} cap selected
    assert pi_s < p.max_rate_per_user  # strict: waiting cost keeps S interior


def test_rates_only_b_branch(table_params):
    p = replace(table_params, utility_low=1e-6)
    pi_b, pi_s = _sne_rates(p, TaxVector.zero(), p.system_storage_per_byte)
    assert pi_b > 0 and pi_s == 0.0


def test_branch_continuity_at_single_type_boundary(table_params):
    """Across the boundary where the smaller type starts generating, the
    bigger type's rate from the two branches agrees."""
    rho = table_params.system_storage_per_byte
    gamma, mu, sbar = (table_params.impatience, table_params.block_rate,
                       table_params.mean_tx_size)
    h_b = table_params.utility_high
    only_b, _ = _fee_rates(h_b, 0.0, rho, 100, 100, table_params)
    boundary = sbar * rho + gamma / (mu - 100 * only_b)
    lo_b, lo_s = _fee_rates(h_b, boundary * (1 - 1e-9), rho, 100, 100, table_params)
    hi_b, hi_s = _fee_rates(h_b, boundary * (1 + 1e-9), rho, 100, 100, table_params)
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
        pi_b, pi_s = _fee_rates(h_b, h_s, rho, n_b, n_s, params)
        cap = mu / (n_b + n_s)
        if not (0.0 <= pi_s <= pi_b + 1e-15 <= cap + 1e-12):
            bad += 1
    assert bad == 0


def test_rate_feasibility_vectorized_bulk():
    """Same invariant checked fully vectorized at fixed impatience, on the
    array kernels."""
    rng = np.random.default_rng(7)
    n = 10_000
    mu = 15.0
    n_b = rng.integers(1, 300, n).astype(float)
    n_s = rng.integers(1, 300, n).astype(float)
    h_s = rng.uniform(0.0, 5e-3, n)
    h_b = h_s * rng.uniform(1.0, 4.0, n)
    rho = rng.uniform(0.0, 2e-5, n)
    params = SystemParams(impatience=5e-5)
    pi_b, pi_s = _array_rates(h_b, h_s, rho, n_b, n_s, params)
    cap = mu / (n_b + n_s)
    assert np.all(pi_s >= 0.0)
    assert np.all(pi_b >= pi_s - 1e-15)
    assert np.all(pi_b <= cap * (1 + 1e-12))


# both types at the gamma/mu bar, a both-types 0/0 (ROADMAP item 11)
_NAN_GAMMA = 0.0021120643256403206

# one fee's Stage II: B's and S's net utilities as (h_B, h_S) = (max, min)
_ONE_FEE = dict(
    gamma=st.sampled_from([0.0]) | st.floats(math.log10(5e-324), -2.0).map(lambda e: 10.0**e),
    mu=st.floats(0.1, 100.0),
    counts=st.tuples(st.integers(1, 200), st.integers(1, 200)),
    rho=st.sampled_from([0.0]) | st.floats(0.0, 1e-4),
    h=st.lists(st.tuples(st.floats(-1e-3, 1e-2), st.floats(-1e-3, 1e-2)), min_size=1,
               max_size=40),
)


@exactness(200)
@given(**_ONE_FEE, sbar=st.just(150.0))
@example(gamma=5e-5, mu=15.0, counts=(100, 100), rho=5e-6, h=[(1.8e-3, 9e-4), (1e-3, 1e-3)],
         sbar=150.0)
@example(gamma=0.0, mu=15.0, counts=(1, 100), rho=5e-6, h=[(1.8e-3, 9e-4), (7.5e-4, 0.0)],
         sbar=150.0)
# the welfare table's NaN cell at R_H = R_L = gamma, sbar = 8.5, C_s = 0
@example(gamma=_NAN_GAMMA, mu=1.0, counts=(1, 1), rho=0.00014908689357461086,
         h=[(0.003379302921024513, 0.003379302921024513)], sbar=8.5)
# the optimal mechanism's net utilities where gamma ** 2 != gamma * gamma:
# squaring by multiplication gives L 0.050114347797251914, not ...203
@example(gamma=6.192956855562239e-05, mu=15.0, counts=(100, 100), rho=5e-6,
         h=[(0.0007756356522027497, 0.0007753867956807222)], sbar=150.0)
def test_pi_rates_match_all_branch_reference(gamma, mu, counts, rho, h, sbar):
    """The one-point rate kernel gives the three-branch original's rates,
    entry by entry: the same bits, NaN where it is NaN, and an
    `InvariantError` where it raises one. C_s = 0 accepts every fee."""
    params = replace(SystemParams(), impatience=gamma, block_rate=mu, mean_tx_size=sbar,
                     storage_cost_per_byte=0.0)
    for pair in h:
        h_b, h_s = max(pair), min(pair)
        try:
            want = reference.pi_rates_all_branches(np.array([h_b]), np.array([h_s]), rho,
                                                   *counts, params)
        except InvariantError:
            with pytest.raises(InvariantError):
                _fee_rates(h_b, h_s, rho, *counts, params)
            continue
        got = _fee_rates(h_b, h_s, rho, *counts, params)
        assert same_bits(got[0], want[0][0]) and same_bits(got[1], want[1][0]), (pair, got)


@exactness(200)
@given(**_ONE_FEE)
@example(gamma=5e-5, mu=15.0, counts=(100, 100), rho=5e-6, h=[(1.8e-3, 9e-4), (1e-3, 1e-3)])
# mu * (x * x) in place of mu * x * x moves delta by an ulp here
@example(gamma=5.114992906354966e-06, mu=15.0, counts=(100, 100), rho=5e-6,
         h=[(0.0015844608707784413, 0.001469868115167086)])
# h - (gamma/mu + lam*common) in place of h - gamma/mu - lam*common, for H, then for L
@example(gamma=0.004813373159949316, mu=2.0, counts=(160, 131), rho=0.0,
         h=[(0.004023383685973922, -0.000644500343495957)])
@example(gamma=0.01, mu=2.0, counts=(2, 4), rho=0.0, h=[(0.0078125, 0.0078125)])
def test_delta_matches_array_delta(gamma, mu, counts, rho, h):
    """The float high-fee threshold `_delta`, in type order with B = H, is
    the array original's at the original's rates: equal, or both NaN."""
    params = replace(SystemParams(), impatience=gamma, block_rate=mu, n_users_high=counts[0],
                     n_users_low=counts[1])
    for pair in h:
        h_b, h_s = np.array([max(pair)]), np.array([min(pair)])
        try:
            pi_b, pi_s = reference.pi_rates_all_branches(h_b, h_s, rho, *counts, params)
        except InvariantError:
            continue
        want = float(reference.delta_array(h_b, h_s, pi_b, pi_s, rho, *counts, params)[0])
        got = _delta(float(h_b[0]), float(h_s[0]), float(pi_b[0]), float(pi_s[0]), rho, params)
        assert got == want or (math.isnan(got) and math.isnan(want)), (pair, got, want)


# --- SNE selection ---------------------------------------------------------------

def test_huge_high_fee_forces_low_fee_sne(table_params):
    menu = FeeMenu(rho_high=1.0, rho_low=table_params.system_storage_per_byte)
    out = sne_select(menu, TaxVector.zero(), table_params)
    assert out.sne_kind is SneKind.LOW_FEE
    assert out.fee_used == menu.rho_low
    assert out.profile.rates_high_type.rate_high == 0.0


def test_cheap_high_fee_selects_high_fee_sne(table_params):
    rho_low = table_params.system_storage_per_byte
    menu = FeeMenu(rho_high=rho_low * 1.01, rho_low=rho_low)
    out = sne_select(menu, TaxVector.zero(), table_params)
    assert out.sne_kind is SneKind.HIGH_FEE
    assert out.fee_used == menu.rho_high
    assert out.profile.rates_high_type.rate_low == 0.0
    assert out.profile.rates_high_type.rate_high > 0


def test_no_generation_when_entry_bar_unmet_at_both_fees(table_params):
    p = replace(table_params, utility_high=1e-6, utility_low=5e-7)
    menu = FeeMenu(rho_high=2 * p.system_storage_per_byte,
                   rho_low=p.system_storage_per_byte)
    out = sne_select(menu, TaxVector.zero(), p)
    assert out.sne_kind is SneKind.NO_GENERATION
    assert out.waiting_rate_high == 0.0


def test_sne_rates_respect_generation_constraint(table_params):
    menu = FeeMenu(rho_high=1e-5, rho_low=table_params.system_storage_per_byte)
    out = sne_select(menu, TaxVector.zero(), table_params)
    assert out.profile.rates_high_type.feasible(table_params)
    assert out.profile.rates_low_type.feasible(table_params)
    agg1, agg2 = out.profile.aggregate(table_params)
    assert agg1 + agg2 <= table_params.block_rate * (1 + 1e-12)
    assert not math.isinf(out.waiting_rate_high)


def test_sne_select_below_threshold_low_fee_plays_high_only():
    """Menus whose low fee is never accepted collapse to a high-fee game."""
    p = TWO_USERS
    out = sne_select(HIGH_ONLY, TaxVector.zero(), p)
    assert out.profile.rates_high_type.rate_low == 0.0
    assert out.fee_used == HIGH_ONLY.rho_high
    assert out.sne_kind in (SneKind.HIGH_FEE, SneKind.NO_GENERATION)


def test_sne_select_nothing_accepted():
    out = sne_select(NONE_OK, TaxVector.zero(), TWO_USERS)
    assert out.sne_kind is SneKind.NO_GENERATION


_FEE_MULTIPLE = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 40.0)


@exactness(400)
@given(
    fees=st.tuples(_FEE_MULTIPLE, _FEE_MULTIPLE),
    c_s=st.floats(1e-10, 1e-6),
    gamma=st.sampled_from([0.0]) | st.floats(1e-6, 1e-3),
    mu=st.floats(1.0, 50.0),
    counts=st.tuples(st.integers(1, 300), st.integers(1, 300)),
    h=st.lists(st.tuples(st.floats(-1e-3, 5e-3), st.floats(-1e-3, 5e-3)),
               min_size=1, max_size=8),
)
# both fees refused; rho_H at C_s over a refused rho_L; rho_L at C_s
@example(fees=(0.25, 0.5), c_s=5e-7, gamma=5e-5, mu=15.0, counts=(100, 100),
         h=[(1.8e-3, 9e-4)])
@example(fees=(0.5, 1.0), c_s=5e-7, gamma=5e-5, mu=15.0, counts=(100, 100),
         h=[(1.8e-3, 9e-4)])
@example(fees=(1.0, 1.01), c_s=5e-7, gamma=5e-5, mu=15.0, counts=(100, 100),
         h=[(1.8e-3, 9e-4), (9e-4, 1.8e-3)])
@example(fees=(1.0, 1.01), c_s=5e-7, gamma=0.0, mu=15.0, counts=(100, 100),
         h=[(1.8e-3, 9e-4)])
# the optimal menu's low fee and net utilities where gamma ** 2 != gamma * gamma
@example(fees=(1.0, 2.3944951494617224), c_s=5e-6, gamma=6.192956855562239e-05, mu=15.0,
         counts=(100, 100), h=[(0.0007756356522027497, 0.0007753867956807222)])
def test_stage2_core_matches_reference(fees, c_s, gamma, mu, counts, h):
    """sne_select's per-type rates and fee choice equal the branch-by-branch
    original, bit for bit, one utility pair at a time with both role
    assignments."""
    lo, hi = sorted(fees)
    rho_low = lo * c_s
    rho_high = max(hi * c_s, math.nextafter(rho_low, math.inf))
    menu = FeeMenu(rho_high=rho_high, rho_low=rho_low)
    params = replace(SystemParams(), storage_cost_per_byte=c_s, impatience=gamma,
                     block_rate=mu, n_users_high=counts[0], n_users_low=counts[1])
    for pair in h:
        for h_high, h_low in (pair, pair[::-1]):  # B = H, then B = L
            # zero tax: the utilities are the net utilities
            p = replace(params, utility_high=h_high, utility_low=h_low)
            try:
                want_h, want_l, want_high = reference.stage2_rates_core(h_high, h_low,
                                                                        menu, p)
            except InvariantError:
                with pytest.raises(InvariantError):
                    sne_select(menu, TaxVector.zero(), p)
                continue
            got = sne_select(menu, TaxVector.zero(), p)
            assert got.profile.rates_high_type.total == float(want_h)
            assert got.profile.rates_low_type.total == float(want_l)
            assert got.fee_used == (rho_high if want_high else rho_low)


@pytest.mark.parametrize("params", [SystemParams(), SystemParams(utility_low=1.7e-3)],
                         ids=["defaults", "close utilities"])
def test_selection_at_the_exact_delta_boundary(params):
    """The high fee wins only where delta, as the array original computes
    it, strictly exceeds sbar*rho_H: at the rho_H whose sbar*rho_H is delta
    to the last bit the low fee stays, and one ulp lower the high fee wins."""
    rho_low = params.system_storage_per_byte
    counts = (params.n_users_high, params.n_users_low)
    h = (np.array([params.utility_high]), np.array([params.utility_low]))
    pi_b, pi_s = reference.pi_rates_all_branches(*h, rho_low, *counts, params)
    delta = float(reference.delta_array(*h, pi_b, pi_s, rho_low, *counts, params)[0])
    rho_high = delta / params.mean_tx_size
    assert params.mean_tx_size * rho_high == delta
    at = sne_select(FeeMenu(rho_high, rho_low), TaxVector.zero(), params)
    below = sne_select(FeeMenu(math.nextafter(rho_high, 0.0), rho_low), TaxVector.zero(), params)
    assert (at.sne_kind, below.sne_kind) == (SneKind.LOW_FEE, SneKind.HIGH_FEE)


# --- payoffs ----------------------------------------------------------------------

def test_payoff_zero_rates_zero_tax(table_params):
    menu = FeeMenu(rho_high=1.0, rho_low=table_params.system_storage_per_byte)
    p = replace(table_params, utility_high=1e-6, utility_low=5e-7)
    out = sne_select(menu, TaxVector.zero(), p)
    assert user_payoff("H", out, menu, TaxVector.zero(), p) == 0.0


def test_payoff_symmetric_no_tax_identity(table_params):
    """Without transfers the payoff is rate*(utility - fee) - waiting cost."""
    menu = FeeMenu(rho_high=1.0, rho_low=table_params.system_storage_per_byte)
    out = sne_select(menu, TaxVector.zero(), table_params)
    lam = out.profile.rates_low_type.total
    expected = (lam * (table_params.utility_low
                       - table_params.mean_tx_size * menu.rho_low)
                - table_params.impatience * out.waiting_rate_low)
    assert user_payoff("L", out, menu, TaxVector.zero(), table_params) == pytest.approx(
        expected, rel=1e-12)


def test_tax_transfers_cancel_in_aggregate(table_params):
    menu = FeeMenu(rho_high=1.0, rho_low=table_params.system_storage_per_byte)
    tax = TaxVector(p_hh=3e-6, p_hl=-2e-6, p_lh=1e-6, p_ll=4e-6)
    out = sne_select(menu, tax, table_params)
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


def test_outcome_payoffs_and_json_round_trip(table_params):
    menu = FeeMenu(rho_high=1.0, rho_low=table_params.system_storage_per_byte)
    out = sne_select(menu, TaxVector.zero(), table_params)
    assert out.payoff_high == user_payoff("H", out, menu, TaxVector.zero(), table_params)
    assert out.payoff_low == user_payoff("L", out, menu, TaxVector.zero(), table_params)
    doc = json.loads(json.dumps(_outcome_doc(out)))
    assert doc["sne_kind"] == "LowFeeSNE"
    assert doc["rates"]["H"]["rate_low"] == out.profile.rates_high_type.rate_low
    assert doc["payoff"]["H"] == out.payoff_high
    assert doc["waiting_rate"]["L"] == out.waiting_rate_low


def _reference_user_payoff(user_type, outcome, menu, tax, params):
    """`user_payoff` as written when it recomputed the user's wait from the
    profile, kept as the reference for the payoffs built from the
    outcome's stored waits."""
    own = outcome.profile.rates_for(user_type)
    agg1, agg2 = outcome.profile.aggregate(params)
    c_s = params.storage_cost_per_byte
    sbar = params.mean_tx_size
    gamma = params.impatience
    incl_hi = menu.rho_high >= c_s
    incl_lo = menu.rho_low >= c_s
    r_n = params.utility_high if user_type == "H" else params.utility_low
    q_h, q_l = tax.row_sums(params)
    q_out = q_h if user_type == "H" else q_l

    payoff = 0.0
    if incl_hi:
        payoff = payoff + own.rate_high * (r_n - sbar * menu.rho_high - q_out)
    if incl_lo:
        payoff = payoff + own.rate_low * (r_n - sbar * menu.rho_low - q_out)
    if gamma != 0.0:
        payoff = payoff - gamma * float(_accumulated_wait_rate(
            own.rate_high, own.rate_low, agg1, agg2, incl_hi, incl_lo, params.block_rate))

    rates_h = outcome.profile.rates_high_type
    rates_l = outcome.profile.rates_low_type
    incl_h_tot = (rates_h.rate_high if incl_hi else 0.0) + (rates_h.rate_low if incl_lo else 0.0)
    incl_l_tot = (rates_l.rate_high if incl_hi else 0.0) + (rates_l.rate_low if incl_lo else 0.0)
    n_h, n_l = params.n_users_high, params.n_users_low
    if user_type == "H":
        inflow = (n_h - 1) * incl_h_tot * tax.p_hh + n_l * incl_l_tot * tax.p_lh
    else:
        inflow = n_h * incl_h_tot * tax.p_hl + (n_l - 1) * incl_l_tot * tax.p_ll
    return payoff + inflow


def _assert_payoffs_match_reference(out, menu, tax, params, other_tax=None):
    """The outcome's waits and payoffs, and user_payoff under `tax` and
    `other_tax`, equal the recomputing originals bit for bit (repr tells
    0.0 from -0.0 and matches NaN)."""
    for t, wait, payoff in (("H", out.waiting_rate_high, out.payoff_high),
                            ("L", out.waiting_rate_low, out.payoff_low)):
        assert repr(wait) == repr(waiting_rate(t, out.profile, menu, params))
        want = _reference_user_payoff(t, out, menu, tax, params)
        assert repr(payoff) == repr(want)
        assert repr(user_payoff(t, out, menu, tax, params)) == repr(want)
        if other_tax is not None:
            assert (repr(user_payoff(t, out, menu, other_tax, params))
                    == repr(_reference_user_payoff(t, out, menu, other_tax, params)))


def _payoff_points():
    defaults = SystemParams()
    points = [(f"criterion grid {i}", p) for i, p in enumerate(criterion_grid(8))]
    points += [(f"prop2 draw {i}", p) for i, p in enumerate(prop2_draws(17))]
    points += [
        ("gamma = 0", replace(defaults, impatience=0.0)),
        ("case 1", replace(defaults, utility_high=5e-4, utility_low=2.5e-4)),
        ("one high user", replace(defaults, n_users_high=1)),
    ]
    return points


@pytest.mark.parametrize("tax_split", ["fairness", "uniform"])
def test_payoffs_from_stored_waits_match_recomputed(tax_split):
    """At the optimal mechanism of every point, both split rules."""
    kinds = set()
    for label, p in _payoff_points():
        mech = optimal_mechanism(p, tax_split)
        out = induced_outcome(mech, p)
        kinds.add(out.sne_kind)
        _assert_payoffs_match_reference(out, mech.menu, mech.tax, p, TaxVector.zero())
    assert kinds == {SneKind.LOW_FEE, SneKind.NO_GENERATION}


@settings(max_examples=100, deadline=None)
@given(
    n_h=st.integers(1, 50),
    n_l=st.integers(1, 50),
    gamma=st.one_of(st.just(0.0), st.floats(1e-7, 1e-2)),
    c_s=st.floats(0.0, 1e-8),
    r_low=st.floats(0.0, 5e-3),
    r_spread=st.floats(1.0, 5.0),
    rho_low=st.floats(0.0, 1e-4),
    rho_gap=st.floats(1e-12, 1e-4),
    taxes=st.lists(st.floats(-1e-3, 1e-3), min_size=8, max_size=8),
)
def test_payoffs_from_stored_waits_match_recomputed_on_any_menu(
        n_h, n_l, gamma, c_s, r_low, r_spread, rho_low, rho_gap, taxes):
    """Any menu and tax vector over the validated domain of
    test_model.test_validated_params_survive_downstream, and user_payoff
    under a second tax vector at the same rates."""
    p = SystemParams(n_users_high=n_h, n_users_low=n_l,
                     impatience=gamma, storage_cost_per_byte=c_s,
                     utility_high=r_low * r_spread, utility_low=r_low)
    menu = FeeMenu(rho_high=rho_low + rho_gap, rho_low=rho_low)
    tax = TaxVector(*taxes[:4])
    out = sne_select(menu, tax, p)
    _assert_payoffs_match_reference(out, menu, tax, p, TaxVector(*taxes[4:]))


# --- best-response oracle -----------------------------------------------------------

def test_best_response_certifies_documented_point(table_params):
    """Both-types-generate rates at the example parameters survive the
    deviation grid when the high fee is priced out of use."""
    menu = FeeMenu(rho_high=1.0, rho_low=table_params.system_storage_per_byte)
    out = sne_select(menu, TaxVector.zero(), table_params)
    assert out.sne_kind is SneKind.LOW_FEE
    assert best_response_check(out, menu, TaxVector.zero(), table_params) is None


def test_best_response_flags_inflated_rates(table_params):
    menu = FeeMenu(rho_high=1.0, rho_low=table_params.system_storage_per_byte)
    good = sne_select(menu, TaxVector.zero(), table_params)
    doubled = StrategyProfile(
        RatePair(0.0, min(2 * good.profile.rates_high_type.rate_low,
                          table_params.max_rate_per_user)),
        RatePair(0.0, min(2 * good.profile.rates_low_type.rate_low,
                          table_params.max_rate_per_user)))
    bad = replace(good, profile=doubled,
                  waiting_rate_high=waiting_rate("H", doubled, menu, table_params),
                  waiting_rate_low=waiting_rate("L", doubled, menu, table_params))
    bad = replace(bad, payoff_high=user_payoff("H", bad, menu, TaxVector.zero(), table_params),
                  payoff_low=user_payoff("L", bad, menu, TaxVector.zero(), table_params))
    dev = best_response_check(bad, menu, TaxVector.zero(), table_params)
    assert dev is not None
    assert dev.rate_high + dev.rate_low < doubled.rates_for(dev.user_type).total


def test_best_response_accepts_no_generation_outcome(table_params):
    p = replace(table_params, utility_high=1e-6, utility_low=5e-7)
    menu = FeeMenu(rho_high=2 * p.system_storage_per_byte,
                   rho_low=p.system_storage_per_byte)
    out = sne_select(menu, TaxVector.zero(), p)
    assert out.sne_kind is SneKind.NO_GENERATION
    assert best_response_check(out, menu, TaxVector.zero(), p) is None
