import dataclasses
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fwt.mechanism
import fwt.user_game
from fwt.checks import check_fairness, check_prop2, criterion_grid, prop2_draws
from fwt.cli import main
from fwt.mechanism import (
    _case2,
    induced_outcome,
    optimal_mechanism,
    optimal_mechanism_hetero,
    social_welfare,
    sufficient_fee_check,
    tax_comparison,
    unconstrained_optimum_oracle,
)
from fwt.model import (
    FeeMenu,
    SneKind,
    SystemParams,
    TaxVector,
    validate_params,
)
from fwt.queue import InvariantError, split_roles, welfare_rate
from fwt.user_game import (_only_b_rates, _type_rates, best_response_check, sne_select,
                           user_payoff)

import reference
from conftest import exactness, same_bits, valid_params


# frozen expectations at the evaluation defaults (gamma=5e-5, R_H=1.8e-3):
# threshold M*sbar*C_s + gamma/mu = 7.5e-4 + 3.33e-6 -> generating case;
# rho_high = R_H/sbar - gamma/(sbar*mu), rho_low = M*C_s,
# g1 = min(15/200, (15 - sqrt(7.5e-4/1.05e-3))/100) = 0.075 (cap),
# g2 = 15/200 - sqrt(7.5e-4/1.5e-4)/100 = 0.075 - 0.01*sqrt(5)
G1_EXPECTED = 0.075
G2_EXPECTED = 0.075 - 0.01 * math.sqrt(5.0)
RHO_HIGH_EXPECTED = 1.8e-3 / 150.0 - 5e-5 / (150.0 * 15.0)


def test_case2_menu_values(table_params):
    mech = optimal_mechanism(table_params)
    assert mech.case == 2
    assert mech.menu.rho_low == table_params.system_storage_per_byte == 5e-6
    assert mech.menu.rho_high == pytest.approx(RHO_HIGH_EXPECTED, rel=1e-15)
    assert mech.menu.rho_high == pytest.approx(1.19778e-5, rel=1e-5)


def test_case2_induced_rates_match_closed_form(table_params):
    out = induced_outcome(optimal_mechanism(table_params), table_params)
    assert out.sne_kind is SneKind.LOW_FEE
    assert out.profile.rates_high_type.rate_low == pytest.approx(G1_EXPECTED, rel=1e-9)
    assert out.profile.rates_low_type.rate_low == pytest.approx(G2_EXPECTED, rel=1e-9)
    assert out.profile.rates_high_type.rate_high == 0.0


def test_case2_row_sums_satisfy_design_equations(table_params):
    mech = optimal_mechanism(table_params)
    # recompute the row sums from the tax entries
    q_h, q_l = mech.tax.row_sums(table_params)
    assert q_h == pytest.approx(mech.q_high, abs=1e-12)
    assert q_l == pytest.approx(mech.q_low, abs=1e-12)
    # and against the closed form directly
    g1, g2 = G1_EXPECTED, G2_EXPECTED
    x = 15.0 - 100.0 * g1 - 100.0 * g2
    gamma, sbar = table_params.impatience, table_params.mean_tx_size
    q_h_expected = 1.8e-3 - 5e-6 * sbar - gamma * (x + g1) / (x * x)
    q_l_expected = 0.9e-3 - 5e-6 * sbar - gamma * (x + g2) / (x * x)
    assert mech.q_high == pytest.approx(q_h_expected, rel=1e-9)
    assert mech.q_low == pytest.approx(q_l_expected, rel=1e-9)


def test_case1_below_threshold(table_params):
    gamma, mu = table_params.impatience, table_params.block_rate
    storage = table_params.system_storage_per_byte * table_params.mean_tx_size
    p = replace(table_params, utility_high=storage + gamma / mu,  # boundary: <=
                utility_low=storage / 2.0)
    mech = optimal_mechanism(p)
    assert mech.case == 1
    assert mech.q_high == mech.q_low == 0.0
    assert mech.tax == TaxVector.zero()
    assert mech.menu.rho_low == p.system_storage_per_byte
    assert mech.menu.rho_high == pytest.approx(
        p.system_storage_per_byte + gamma / (p.mean_tx_size * mu), rel=1e-15)
    out = induced_outcome(mech, p)
    assert out.sne_kind is SneKind.NO_GENERATION
    # just above the boundary flips to the generating case
    assert optimal_mechanism(replace(p, utility_high=p.utility_high * 1.0001)).case == 2


@pytest.mark.parametrize("n_miners, c_s", [(4985, 9.491629526658716e-10),
                                            (17530, 4.771906221652024e-10)])
@pytest.mark.parametrize("ulps", [-1, 0, 1])
def test_case_boundary_is_one_decision(n_miners, c_s, ulps):
    """Within an ulp of Theorem 3's boundary, `optimal_mechanism` and
    `tax_comparison` take the same case, and case 2's g1 is not negative.
    At these (M, C_s) the storage orders (M sbar) C_s and (M C_s) sbar
    differ in the last bit."""
    p = replace(SystemParams(), n_miners=n_miners, storage_cost_per_byte=c_s)
    storage = p.system_storage_per_byte * p.mean_tx_size
    assert storage != p.n_miners * p.mean_tx_size * p.storage_cost_per_byte
    threshold = storage + p.impatience / p.block_rate
    r_high = {-1: math.nextafter(threshold, 0.0), 0: threshold,
              1: math.nextafter(threshold, math.inf)}[ulps]
    p = replace(p, utility_high=r_high, utility_low=r_high / 2.0)
    case = optimal_mechanism(p).case
    assert case == (2 if ulps == 1 else 1)
    try:
        tax_comparison(p)
        raised = False
    except ValueError:
        raised = True
    assert raised == (case == 1)
    if case == 2:
        assert _case2(p)[0] >= 0.0


def test_fairness_split_equalizes_payoffs(table_params):
    out = induced_outcome(optimal_mechanism(table_params, tax_split="fairness"),
                          table_params)
    assert out.payoff_high == pytest.approx(out.payoff_low, rel=1e-9)


def test_uniform_split_keeps_row_sums_but_not_fairness(table_params):
    mech = optimal_mechanism(table_params, tax_split="uniform")
    n = table_params.n_users
    assert mech.tax.p_hh == mech.tax.p_hl == pytest.approx(mech.q_high / (n - 1))
    q_h, q_l = mech.tax.row_sums(table_params)
    assert q_h == pytest.approx(mech.q_high, abs=1e-12)
    assert q_l == pytest.approx(mech.q_low, abs=1e-12)
    out = induced_outcome(mech, table_params)
    assert abs(out.payoff_high - out.payoff_low) > 1e-9


def test_rates_invariant_to_entry_split(table_params):
    # entries only matter through row sums; splits agree up to row-sum roundoff
    fair = induced_outcome(optimal_mechanism(table_params, "fairness"), table_params)
    unif = induced_outcome(optimal_mechanism(table_params, "uniform"), table_params)
    assert fair.sne_kind == unif.sne_kind
    assert fair.profile.rates_high_type.rate_low == pytest.approx(
        unif.profile.rates_high_type.rate_low, rel=1e-9)
    assert fair.profile.rates_low_type.rate_low == pytest.approx(
        unif.profile.rates_low_type.rate_low, rel=1e-9)


def _split_points():
    defaults = SystemParams()
    points = criterion_grid(8) + prop2_draws(17)
    points += [defaults, replace(defaults, impatience=0.0),
               replace(defaults, n_users_high=1)]
    points += [replace(defaults, n_users_high=n // 2, n_users_low=n // 2)
               for n in (153_000, 537_000)]
    return points


@pytest.mark.parametrize("tax_split", ["fairness", "uniform"])
def test_one_stage_two_solve_per_mechanism(monkeypatch, tax_split):
    """Either split is made from one `sne_select` solve."""
    calls = []
    monkeypatch.setattr(fwt.mechanism, "sne_select",
                        lambda *args: calls.append(args) or sne_select(*args))
    for p in (SystemParams(), replace(SystemParams(), impatience=0.0),
              replace(SystemParams(), utility_high=5e-4, utility_low=2.5e-4)):
        calls.clear()
        optimal_mechanism(p, tax_split)
        assert len(calls) == 1


def test_carried_outcome_does_not_depend_on_the_split():
    """Rates, kind, fee and waits agree bit for bit (repr tells 0.0 from
    -0.0); only the entries and the payoffs follow the split."""
    def solved(o):
        return repr((o.profile, o.sne_kind, o.fee_used, o.waiting_rate_high,
                     o.waiting_rate_low))

    for p in _split_points():
        fair = optimal_mechanism(p, "fairness")
        unif = optimal_mechanism(p, "uniform")
        assert solved(fair.outcome) == solved(unif.outcome), p
        assert (fair.q_high, fair.q_low) == (unif.q_high, unif.q_low)


@pytest.mark.parametrize("tax_split", ["fairness", "uniform"])
def test_carried_outcome_certified_by_independent_solves(tax_split):
    """The best-response grid finds no deviation from the carried outcome,
    and a re-solve under the final entries selects the same equilibrium."""
    for p in _split_points():
        mech = optimal_mechanism(p, tax_split)
        out = mech.outcome
        assert best_response_check(out, mech.menu, mech.tax, p) is None, p
        again = induced_outcome(mech, p)
        assert (again.sne_kind, again.fee_used) == (out.sne_kind, out.fee_used)
        for t in ("H", "L"):
            assert again.profile.rates_for(t).total == pytest.approx(
                out.profile.rates_for(t).total, rel=1e-9)
        assert (again.payoff_high, again.payoff_low) == pytest.approx(
            (out.payoff_high, out.payoff_low), rel=1e-9)


def test_fairness_check_fails_without_the_fairness_shift(monkeypatch):
    """check_fairness re-solves, so the uniform entries, which miss equal
    payoffs, fail it."""
    assert check_fairness(points=4).passed
    monkeypatch.setattr(fwt.mechanism, "_split_entries",
                        lambda uniform, outcome, params, method: uniform)
    assert not check_fairness(points=4).passed


def test_welfare_identity_and_tax_invariance(table_params):
    """Transfers cancel: welfare equals utility minus storage minus waiting,
    and does not move when tax entries shuffle at fixed row sums."""
    mech = optimal_mechanism(table_params)
    out = induced_outcome(mech, table_params)
    w = social_welfare(out, mech.menu, mech.tax, table_params)
    lam_h = out.profile.rates_high_type.total
    lam_l = out.profile.rates_low_type.total
    storage = table_params.system_storage_per_byte * table_params.mean_tx_size
    direct = (100 * lam_h * (1.8e-3 - storage) + 100 * lam_l * (0.9e-3 - storage)
              - table_params.impatience * (100 * out.waiting_rate_high
                                           + 100 * out.waiting_rate_low))
    assert w.total == pytest.approx(direct, abs=1e-12)
    assert w.total == pytest.approx(w.user_sum + w.miner_sum, abs=1e-15)

    # shuffle entries without moving the row sums
    t = 1.7e-6
    shuffled = TaxVector(
        p_hh=mech.tax.p_hh + 100 * t,
        p_hl=mech.tax.p_hl - 99 * t,
        p_lh=mech.tax.p_lh + 99 * t,
        p_ll=mech.tax.p_ll - 100 * t,
    )
    q_before = mech.tax.row_sums(table_params)
    q_after = shuffled.row_sums(table_params)
    assert q_after[0] == pytest.approx(q_before[0], abs=1e-12)
    assert q_after[1] == pytest.approx(q_before[1], abs=1e-12)
    w2 = social_welfare(out, mech.menu, shuffled, table_params)
    assert w2.total == pytest.approx(w.total, abs=1e-12)


def test_welfare_no_generation_zero(table_params):
    p = replace(table_params, utility_high=1e-5, utility_low=5e-6)
    mech = optimal_mechanism(p)
    out = induced_outcome(mech, p)
    w = social_welfare(out, mech.menu, mech.tax, p)
    assert w.total == 0.0
    assert math.isnan(w.avg_fee_per_byte)


def test_sufficient_fee_holds_exactly_at_bound(table_params):
    mech = optimal_mechanism(table_params)
    out = induced_outcome(mech, table_params)
    avg, ok = sufficient_fee_check(out, table_params)
    assert ok
    assert avg == table_params.system_storage_per_byte  # bitwise: same formula


def test_sufficient_fee_fails_at_single_miner_price(table_params):
    c_s = table_params.storage_cost_per_byte
    menu = FeeMenu(rho_high=2 * c_s, rho_low=c_s)
    out = sne_select(menu, TaxVector.zero(), table_params)
    assert out.profile.rates_high_type.total > 0
    avg, ok = sufficient_fee_check(out, table_params)
    assert not ok
    assert avg < table_params.system_storage_per_byte


def test_sufficient_fee_vacuous_without_generation(table_params):
    p = replace(table_params, utility_high=1e-6, utility_low=5e-7)
    mech = optimal_mechanism(p)
    out = induced_outcome(mech, p)
    avg, ok = sufficient_fee_check(out, p)
    assert ok and math.isnan(avg)


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def _check_one_fee_outcome(menu, tax, p):
    """The selected outcome sends each type at one fee, `fee_used`, and any
    positive rate at an accepted fee; the fee check, the miners' welfare
    and the payoffs equal their class-by-class references bit for bit."""
    out = sne_select(menu, tax, p)
    assert out.fee_used in (menu.rho_high, menu.rho_low)
    used_high = out.fee_used == menu.rho_high
    rates = (out.profile.rates_high_type, out.profile.rates_low_type)
    for r in rates:
        assert (r.rate_low if used_high else r.rate_high) == 0.0
    if any(r.total > 0.0 for r in rates):
        assert out.fee_used >= p.storage_cost_per_byte

    avg, ok = sufficient_fee_check(out, p)
    ref_avg, ref_ok = reference.sufficient_fee_check(out, menu, p)
    assert _same(avg, ref_avg) and ok == ref_ok
    assert social_welfare(out, menu, tax, p).miner_sum == reference.miner_sum(out, menu, p)
    other = TaxVector(p_hh=tax.p_ll, p_hl=tax.p_lh, p_lh=tax.p_hl, p_ll=tax.p_hh)
    for t, wait, pay in (("H", out.waiting_rate_high, out.payoff_high),
                         ("L", out.waiting_rate_low, out.payoff_low)):
        assert _same(pay, reference.payoff(t, out.profile, wait, menu, tax, p))
        assert _same(user_payoff(t, out, menu, other, p),
                     reference.payoff(t, out.profile, wait, menu, other, p))
    return out


def test_selected_outcome_uses_one_accepted_fee():
    d = SystemParams()
    points = criterion_grid(8) + prop2_draws(17) + [
        replace(d, impatience=0.0), replace(d, n_users_high=1)]
    kinds = set()
    for p in points:
        for split in ("fairness", "uniform"):
            mech = optimal_mechanism(p, tax_split=split)
            kinds.add(_check_one_fee_outcome(mech.menu, mech.tax, p).sne_kind)
    assert kinds == {SneKind.LOW_FEE, SneKind.NO_GENERATION}


_FEE_MULTIPLE = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 40.0)


@settings(max_examples=300, deadline=None)
@given(
    fees=st.tuples(_FEE_MULTIPLE, _FEE_MULTIPLE),
    c_s=st.floats(1e-10, 1e-6),
    gamma=st.sampled_from([0.0]) | st.floats(1e-6, 1e-3),
    counts=st.tuples(st.integers(1, 300), st.integers(1, 300)),
    utilities=st.tuples(st.floats(0.0, 5e-3), st.floats(0.0, 5e-3)),
    tax=st.tuples(*[st.floats(-2e-5, 2e-5)] * 4),
)
def test_selected_outcome_uses_one_accepted_fee_on_random_menus(fees, c_s, gamma, counts,
                                                                utilities, tax):
    lo, hi = sorted(fees)
    rho_low = lo * c_s
    menu = FeeMenu(rho_high=max(hi * c_s, math.nextafter(rho_low, math.inf)),
                   rho_low=rho_low)
    p = replace(SystemParams(), storage_cost_per_byte=c_s, impatience=gamma,
                n_users_high=counts[0], n_users_low=counts[1],
                utility_high=max(utilities), utility_low=min(utilities))
    assume(not validate_params(p))
    _check_one_fee_outcome(menu, TaxVector(*tax), p)


def test_theorem_matches_oracle_on_coarse_grid(table_params):
    """Cheap smoke version of the optimality certification."""
    mech = optimal_mechanism(table_params)
    out = induced_outcome(mech, table_params)
    w3 = social_welfare(out, mech.menu, mech.tax, table_params).total
    oracle = unconstrained_optimum_oracle(table_params, grid_points=25)
    assert oracle.welfare <= w3 * (1 + 1e-9)  # theorem is the true optimum
    assert abs(w3 - oracle.welfare) <= 0.02 * w3  # coarse grid, loose slack


def test_zero_impatience_prices_no_one_out(table_params):
    """At gamma = 0 there is no waiting externality to price: both types
    generate and the closed form reaches the grid oracle's welfare."""
    p = replace(table_params, impatience=0.0)
    mech = optimal_mechanism(p)
    assert mech.case == 2
    out = induced_outcome(mech, p)
    assert out.profile.rates_high_type.total > 0.0
    assert out.profile.rates_low_type.total > 0.0
    welfare = social_welfare(out, mech.menu, mech.tax, p).total
    oracle = unconstrained_optimum_oracle(p).welfare
    assert oracle > 0.0
    assert abs(welfare - oracle) <= 0.01 * oracle


def test_oracle_refinement_converges(table_params):
    """Doubling the grid moves the oracle optimum by less than the coarse
    slack and toward the closed-form value."""
    mech = optimal_mechanism(table_params)
    out = induced_outcome(mech, table_params)
    w3 = social_welfare(out, mech.menu, mech.tax, table_params).total
    w_coarse = unconstrained_optimum_oracle(table_params, grid_points=12).welfare
    w_fine = unconstrained_optimum_oracle(table_params, grid_points=24).welfare
    coarse_slack = abs(w3 - w_coarse)
    assert abs(w_fine - w_coarse) < coarse_slack
    assert abs(w3 - w_fine) < coarse_slack


def test_low_type_activation_threshold(table_params):
    """The low type's optimal rate switches on exactly at its utility
    threshold (storage plus congestion-adjusted waiting)."""
    p = table_params
    threshold = (p.system_storage_per_byte * p.mean_tx_size
                 + p.impatience * p.n_users**2 / (p.n_users_low**2 * p.block_rate))
    below = replace(p, utility_low=threshold * 0.999)
    above = replace(p, utility_low=threshold * 1.02)
    out_below = induced_outcome(optimal_mechanism(below), below)
    out_above = induced_outcome(optimal_mechanism(above), above)
    assert out_below.profile.rates_low_type.total == 0.0
    assert out_above.profile.rates_low_type.total > 0.0


def test_oracle_zero_for_no_generation_params(table_params):
    p = replace(table_params, utility_high=1e-5, utility_low=5e-6)
    oracle = unconstrained_optimum_oracle(p, grid_points=12)
    assert oracle.welfare == 0.0


def test_oracle_zero_welfare_is_positive_zero(table_params):
    """Where the best cell has nobody generating, the welfare is +0.0. The
    table's n * 0 * (R - M*C_s*sbar) is -0.0 when the margin is negative,
    and a signed zero would read as a loss."""
    points = [replace(table_params, utility_high=1e-5, utility_low=5e-6)] + prop2_draws(0)
    zeros = [w for w in (unconstrained_optimum_oracle(p, 50).welfare for p in points)
             if w == 0.0]
    assert zeros
    assert all(math.copysign(1.0, w) == 1.0 for w in zeros)


def _oracle_reference_cases():
    defaults = SystemParams()
    cases = [(f"prop2 draw {d}", p) for d, p in enumerate(prop2_draws(17))]
    cases += [
        ("defaults", defaults),
        ("gamma = 0", replace(defaults, impatience=0.0)),
        ("no generation", replace(defaults, utility_high=1e-5, utility_low=5e-6)),
        # one costly miner: the lowest fees of the axis sit below C_s, so
        # the first menus have rho_H refused as well as rho_L
        ("refused high fees", replace(defaults, n_miners=1, storage_cost_per_byte=4e-6)),
    ]
    return cases


def _assert_matches_pair_loop(p, grid_points, label):
    """With C_s > 0 the one-fee oracle's welfare is the pair search's, and
    where that welfare is positive so are its fee, cell and rates."""
    assert p.storage_cost_per_byte > 0.0, label
    result = unconstrained_optimum_oracle(p, grid_points)
    ref = reference.pair_loop_oracle(p, grid_points)
    assert result.welfare == ref.welfare, label
    if ref.welfare > 0.0:
        assert result == ref, label


@pytest.mark.parametrize("grid_points", [12, 25])
def test_oracle_bitwise_matches_pair_loop(grid_points):
    for label, p in _oracle_reference_cases():
        _assert_matches_pair_loop(p, grid_points, label)


def test_oracle_bitwise_matches_pair_loop_at_default_grid():
    cases = dict(_oracle_reference_cases())
    for label in ("prop2 draw 9", "no generation", "refused high fees"):
        _assert_matches_pair_loop(cases[label], 50, label)


# the evaluation defaults, as the hypothesis test's arguments
_DEFAULT_POINT = dict(counts=(100, 100), n_miners=10_000, mu=15.0, gamma=5e-5, sbar=150.0,
                      c_s=5e-10, r_low=9e-4, r_spread=2.0)


_VALID_POINTS = dict(
    counts=st.tuples(st.integers(1, 200), st.integers(1, 200)),
    n_miners=st.integers(1, 50),
    mu=st.floats(0.1, 100.0),
    gamma=st.floats(0.0, 1e-2),
    sbar=st.floats(1.0, 1e4),
    c_s=st.floats(0.0, 1e-6),
    # the reference's menus need distinct fees, so R_H stays well above 0
    r_low=st.floats(1e-7, 1e-2),
    r_spread=st.floats(1.0, 10.0),
)


def _point_params(counts, n_miners, mu, gamma, sbar, c_s, r_low, r_spread):
    return SystemParams(n_users_high=counts[0], n_users_low=counts[1], n_miners=n_miners,
                        block_rate=mu, impatience=gamma, mean_tx_size=sbar,
                        storage_cost_per_byte=c_s, utility_high=r_low * r_spread,
                        utility_low=r_low)


@settings(max_examples=60, deadline=None)
@given(**_VALID_POINTS)
@example(**{**_DEFAULT_POINT, "c_s": 0.0})
@example(**{**_DEFAULT_POINT, "gamma": 0.0})
@example(**{**_DEFAULT_POINT, "c_s": 0.0, "gamma": 0.0})
def test_oracle_bounds_pair_loop_on_valid_params(counts, n_miners, mu, gamma, sbar, c_s,
                                                 r_low, r_spread):
    """No menu of the grid beats the one-fee oracle, and when C_s > 0 the
    fee-0 menus reach it exactly."""
    p = _point_params(counts, n_miners, mu, gamma, sbar, c_s, r_low, r_spread)
    result = unconstrained_optimum_oracle(p, 6)
    ref = reference.pair_loop_oracle(p, 6)
    assert result.welfare >= ref.welfare
    if c_s > 0.0:
        assert result.welfare == ref.welfare


def _assert_table_matches_fee_loop(p, grid_points, label=None):
    _, _, table = fwt.mechanism._welfare_table(p, grid_points)
    ref = reference.fee_loop_welfare_table(p, grid_points)
    assert np.array_equal(table, ref, equal_nan=True), label


@pytest.mark.parametrize("grid_points", [2, 12, 25, 50])
def test_welfare_table_matches_fee_loop(grid_points):
    """The table evaluated branch by branch is the per-fee loop's, bit for
    bit, on the oracle's reference cases and the certify draws."""
    cases = _oracle_reference_cases() + [
        (f"certify draw {d}", p) for d, p in enumerate(prop2_draws(1, 12, 13))]
    for label, p in cases:
        _assert_table_matches_fee_loop(p, grid_points, label)


# both margins sit at the gamma/mu bar and the no-generation test misses it
# by rounding, so a both-types cell divides 0 by 0 (ROADMAP item 11)
_NAN_GAMMA = 0.0021120643256403206
_NAN_POINT = dict(counts=(1, 1), n_miners=1, mu=1.0, gamma=_NAN_GAMMA, sbar=8.5, c_s=0.0,
                  r_low=_NAN_GAMMA, r_spread=1.0)


@settings(max_examples=60, deadline=None)
@given(**{**_VALID_POINTS,
          # down to the smallest subnormal, log-uniformly
          "gamma": _VALID_POINTS["gamma"]
          | st.floats(math.log10(5e-324), -2.0).map(lambda e: 10.0**e),
          # 13 leaves a short last block of fee rows
          "grid_points": st.integers(2, 13)})
@example(**_DEFAULT_POINT, grid_points=6)
@example(**{**_DEFAULT_POINT, "c_s": 0.0}, grid_points=6)
@example(**{**_DEFAULT_POINT, "gamma": 0.0}, grid_points=13)
@example(**{**_DEFAULT_POINT, "counts": (1, 100)}, grid_points=6)
@example(**{**_DEFAULT_POINT, "counts": (100, 1)}, grid_points=6)
@example(**{**_DEFAULT_POINT, "r_spread": 1.0}, grid_points=7)  # h_H == h_L on the diagonal
@example(**_NAN_POINT, grid_points=6)
def test_welfare_table_matches_fee_loop_on_valid_params(counts, n_miners, mu, gamma, sbar,
                                                        c_s, r_low, r_spread, grid_points):
    """The same, over valid parameters and grid sizes."""
    p = _point_params(counts, n_miners, mu, gamma, sbar, c_s, r_low, r_spread)
    _assert_table_matches_fee_loop(p, grid_points)


_BRANCHES = ("refused fee", "nobody", "only B", "both")


def _table_branches(p, fee_grid, q_grid):
    """Each welfare-table cell's Stage-II branch as an index into
    `_BRANCHES`, from the array kernel `_only_b_rates`."""
    qh, ql = np.meshgrid(q_grid, q_grid, indexing="ij")
    _, h_b, h_s, n_b, n_s = split_roles((p.utility_high - qh).ravel(),
                                        (p.utility_low - ql).ravel(),
                                        float(p.n_users_high), float(p.n_users_low))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        active, _, threshold = _only_b_rates(h_b, fee_grid[:, None], n_b, n_s, p)
    branch = np.where(active, np.where(h_s <= threshold, 2, 3), 1)
    return np.where((fee_grid < p.storage_cost_per_byte)[:, None], 0, branch)


@exactness(100)
@given(
    p=st.sampled_from(prop2_draws(1, 12, 13))
    | st.builds(_point_params, **{**_VALID_POINTS, "gamma": _VALID_POINTS["gamma"] | st.floats(
        math.log10(5e-324), -2.0).map(lambda e: 10.0**e)}),
    grid_points=st.integers(2, 13) | st.just(50),
    data=st.data(),
)
@example(p=_point_params(**_NAN_POINT), grid_points=6, data=None)
# gamma ** 2 != gamma * gamma
@example(p=_point_params(**{**_DEFAULT_POINT, "gamma": 6.192956855562239e-05}),
         grid_points=13, data=None)
# h_H == h_L on the diagonal, with unequal counts
@example(p=_point_params(**{**_DEFAULT_POINT, "counts": (1, 100), "r_spread": 1.0}),
         grid_points=7, data=None)
def test_float_rates_give_the_welfare_table_entries(p, grid_points, data):
    """At a cell drawn from each branch of the welfare table, the float
    kernel's rates have the table entry's welfare, bit for bit (NaN where
    the entry is NaN). The explicit examples take every cell."""
    fee_grid, q_grid, table = fwt.mechanism._welfare_table(p, grid_points)
    branch = _table_branches(p, fee_grid, q_grid)
    for b, name in enumerate(_BRANCHES):
        cells = np.flatnonzero(branch == b).tolist()
        if data is not None and cells:
            cells = [data.draw(st.sampled_from(cells), label=name)]
        for cell in cells:
            f, k = divmod(cell, grid_points**2)
            i, j = divmod(k, grid_points)
            lam = _type_rates(p.utility_high - float(q_grid[i]),
                              p.utility_low - float(q_grid[j]), float(fee_grid[f]), p)
            got = float(welfare_rate(*lam, p, p.system_storage_per_byte))
            assert same_bits(got, float(table[f, k])), (name, f, k)


def test_welfare_table_keeps_the_fee_loops_nan_cells():
    p = _point_params(**_NAN_POINT)
    _, _, table = fwt.mechanism._welfare_table(p, 6)
    assert np.isnan(table).any()
    _assert_table_matches_fee_loop(p, 6)
    assert math.isnan(unconstrained_optimum_oracle(p, 6).welfare)


def test_oracle_optimum_is_realised_by_a_fee_zero_menu():
    """The winner is an outcome, not only a table entry: menu (fee, 0) with
    the winning row sums split evenly selects an equilibrium whose social
    welfare is the oracle's."""
    points = _oracle_reference_cases() + [
        (f"certify draw {d}", p) for d, p in enumerate(prop2_draws(1, 12, 13))]
    realised = 0
    for label, p in points:
        result = unconstrained_optimum_oracle(p, 25)
        if result.welfare <= 0.0:
            continue
        menu = FeeMenu(rho_high=result.fee, rho_low=0.0)
        per_h = result.q_high / (p.n_users - 1)
        per_l = result.q_low / (p.n_users - 1)
        tax = TaxVector(p_hh=per_h, p_hl=per_h, p_lh=per_l, p_ll=per_l)
        out = sne_select(menu, tax, p)
        assert out.fee_used == result.fee, label
        total = social_welfare(out, menu, tax, p).total
        assert abs(total - result.welfare) <= 1e-12 * result.welfare, label
        realised += 1
    assert realised >= 15


def _poison_both_rates(monkeypatch, modules, is_poisoned):
    """Make `_both_rates` return NaN rates for B wherever `is_poisoned(rho,
    params)` holds, as seen from each of `modules`."""
    real = fwt.user_game._both_rates

    def poisoned(h_b, h_s, rho, n_b, n_s, params, selected):
        pi_b, pi_s = real(h_b, h_s, rho, n_b, n_s, params, selected)
        return np.where(is_poisoned(rho, params), math.nan, pi_b), pi_s

    for module in modules:
        monkeypatch.setattr(module, "_both_rates", poisoned)


def _poison_oracle_type_rates(monkeypatch, is_poisoned):
    """Make the float kernel `_type_rates`, as the oracle sees it, return a
    NaN rate for H at every fee where `is_poisoned(fee, params)` holds."""
    real = fwt.user_game._type_rates

    def poisoned(h_high, h_low, fee, params):
        lam_h, lam_l = real(h_high, h_low, fee, params)
        return (math.nan if is_poisoned(fee, params) else lam_h), lam_l

    monkeypatch.setattr(fwt.mechanism, "_type_rates", poisoned)


def test_oracle_nan_cell_fails_prop2(monkeypatch):
    """A NaN welfare cell is not skipped: it becomes the oracle's welfare,
    and the Proposition-2 check reports every draw BAD. The poisoned fees
    lie above R_H/sbar, which no optimal menu charges, so the theorem's
    welfare stays finite and the oracle alone fails the draws."""
    def above_r_h(rho, p):
        return rho > p.utility_high / p.mean_tx_size

    _poison_both_rates(monkeypatch, [fwt.mechanism, fwt.user_game], above_r_h)
    # the oracle solves its winning cell, a NaN both-types cell, again on the
    # float kernel, which must then agree with the table
    _poison_oracle_type_rates(monkeypatch, above_r_h)
    assert math.isnan(unconstrained_optimum_oracle(SystemParams(), 12).welfare)
    result = check_prop2(grid_points=12, seed=17)
    assert not result.passed
    assert sum(d.startswith("BAD") for d in result.details) == 10
    assert not any("theorem=nan" in d for d in result.details)


def test_oracle_raises_when_its_table_is_not_its_winners_welfare(monkeypatch, capsys):
    """A fault in how the table is assembled cannot exit 0 quietly: the
    winning cell's rates, solved again by the float kernel `_type_rates`,
    must give the table's entry, or the oracle raises and `fwt check prop2`
    exits 3."""
    _poison_both_rates(monkeypatch, [fwt.mechanism], lambda rho, p: True)
    with pytest.raises(InvariantError, match="welfare table entry nan"):
        unconstrained_optimum_oracle(SystemParams(), 12)
    assert main(["check", "prop2", "--budget", "12"]) == 3
    assert capsys.readouterr().err.startswith(
        "internal error: InvariantError: welfare table entry nan")


def test_oracle_certifies_case2_on_finer_grid():
    """Theorem 3 against a 100-point grid: the closed form is still within
    1% of the grid optimum and is never beaten by it."""
    draws = [p for p in prop2_draws(17) if optimal_mechanism(p).case == 2]
    assert len(draws) == 5
    for p in draws:
        mech = optimal_mechanism(p)
        w3 = social_welfare(induced_outcome(mech, p), mech.menu, mech.tax, p).total
        oracle = unconstrained_optimum_oracle(p, grid_points=100)
        assert oracle.welfare <= w3 * (1 + 1e-9)
        assert abs(w3 - oracle.welfare) <= 0.01 * w3


def _zoomed_grid_first_best(p, points=401, passes=3):
    """Best `welfare_rate` over per-user rates in [0, mu/N]^2, with no fee,
    tax or Stage-II solve: a `points` x `points` grid, then `passes` - 1
    zooms to one step around the best cell."""
    cap = p.block_rate / (p.n_users_high + p.n_users_low)
    lo_h, hi_h, lo_l, hi_l = 0.0, cap, 0.0, cap
    for _ in range(passes):
        lam_h, lam_l = np.linspace(lo_h, hi_h, points), np.linspace(lo_l, hi_l, points)
        w = welfare_rate(lam_h[:, None], lam_l[None, :], p, p.system_storage_per_byte)
        i, j = np.unravel_index(np.argmax(w), w.shape)
        dh, dl = lam_h[1] - lam_h[0], lam_l[1] - lam_l[0]
        lo_h, hi_h = max(0.0, lam_h[i] - dh), min(cap, lam_h[i] + dh)
        lo_l, hi_l = max(0.0, lam_l[j] - dl), min(cap, lam_l[j] + dl)
    return float(w[i, j])


@pytest.mark.parametrize("p", [prop2_draws(26, 12, 13)[21], prop2_draws(33, 12, 13)[18],
                               prop2_draws(39)[8], prop2_draws(138)[5]],
                         ids=["26_12_13_21", "33_12_13_18", "39_8", "138_5"])
def test_theorem_welfare_is_the_first_best_where_the_oracle_falls_short(p):
    """At these draws the 50-point welfare grid oracle is 1.25-1.66% below
    the theorem's welfare, so `fwt check prop2` (seeds 39 and 138) and the
    certify benchmark's item check (seeds 26 and 33) fail there, while the
    closed form reaches the first best: it equals a zoomed grid maximum of
    the welfare over per-user rates, in both directions."""
    mech = optimal_mechanism(p)
    theorem = social_welfare(mech.outcome, mech.menu, mech.tax, p).total
    assert abs(theorem - _zoomed_grid_first_best(p)) <= 1e-12 * p.block_rate * p.utility_high


def test_best_response_certifies_induced_outcome(table_params):
    mech = optimal_mechanism(table_params)
    out = induced_outcome(mech, table_params)
    assert best_response_check(out, mech.menu, mech.tax, table_params) is None


# --- Corollary-style tax ordering ------------------------------------------------

def test_tax_comparison_requires_generating_case(table_params):
    p = replace(table_params, utility_high=1e-5, utility_low=5e-6)
    with pytest.raises(ValueError):
        tax_comparison(p)


def test_tax_ordering_flip_matches_delta(table_params):
    p = replace(table_params, impatience=5e-4)
    r_high = p.utility_high
    for r_low in np.linspace(r_high, r_high - 2e-5, 21):
        cmp = tax_comparison(replace(p, utility_low=float(r_low)))
        assert (cmp.q_high < cmp.q_low) == (r_high - r_low < cmp.delta)


def test_equal_utilities_low_type_taxed_more(table_params):
    """With R_H = R_L the gap is 0 < delta, so the low type pays more tax
    despite generating less."""
    p = replace(table_params, utility_low=table_params.utility_high)
    cmp = tax_comparison(p)
    assert cmp.delta > 0
    assert cmp.low_type_pays_more
    out = induced_outcome(optimal_mechanism(p), p)
    assert (out.profile.rates_low_type.total
            <= out.profile.rates_high_type.total + 1e-15)


# --- heterogeneous storage costs ---------------------------------------------------

def _assert_same_bits(got, want, path="result"):
    """Every float in the nested dataclasses and tuples `got` and `want` has
    the same bits (`same_bits`), and every other leaf is equal."""
    if dataclasses.is_dataclass(want):
        assert type(got) is type(want), (path, got, want)
        for field in dataclasses.fields(want):
            _assert_same_bits(getattr(got, field.name), getattr(want, field.name),
                              f"{path}.{field.name}")
    elif isinstance(want, tuple):
        assert isinstance(got, tuple) and len(got) == len(want), (path, got, want)
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same_bits(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float) and same_bits(got, want), (path, got, want)
    else:
        assert got == want, (path, got, want)


def _result_or_raised(solve, *args):
    """What `solve(*args)` returns, or the class and message of what it raised."""
    try:
        return solve(*args)
    except Exception as exc:
        return type(exc), str(exc)


# 0.5 * C_s is exact only where it is a normal double: from twice the
# smallest normal up. Below that it rounds to even, so two equal subnormal
# tiers need not average to C_s.
@settings(max_examples=100, deadline=None)
@given(params=valid_params(st.floats(min_value=2 * sys.float_info.min, allow_infinity=False)))
@example(params=SystemParams())
def test_hetero_degenerate_matches_homogeneous(params):
    """At ratio 1 both tiers cost C_s and average to it, so the hetero solve
    is the homogeneous one: the same exception class and message, or the
    same params and mechanism, bit for bit."""
    _assert_same_bits(
        _result_or_raised(optimal_mechanism_hetero, params, 1.0),
        _result_or_raised(lambda p: (optimal_mechanism(p), p), params))


def test_hetero_ratio_ten_menu(table_params):
    mech, p_eff = optimal_mechanism_hetero(table_params, 10.0)
    assert p_eff.system_storage_per_byte == pytest.approx(2.75e-5, rel=1e-12)
    assert mech.menu.rho_low == pytest.approx(2.75e-5, rel=1e-12)


def test_hetero_sufficient_fee_against_hetero_bound(table_params):
    # keep the generating case under the fattened storage bound
    p = replace(table_params, utility_high=8e-3, utility_low=4e-3)
    mech, p_eff = optimal_mechanism_hetero(p, 10.0)
    out = induced_outcome(mech, p_eff)
    assert out.profile.rates_high_type.total > 0
    _, ok = sufficient_fee_check(out, p_eff)
    assert ok
