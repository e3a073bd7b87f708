import math
from argparse import Namespace
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwt.cli import _load_params
from fwt.model import (
    FeeMenu,
    InvalidInput,
    RatePair,
    SystemParams,
    TaxVector,
    params_from_mapping,
    parse_config,
    require_valid,
    validate_params,
)


def test_table_defaults_valid():
    assert validate_params(SystemParams()) == []


def test_zero_block_rate_rejected():
    errors = validate_params(replace(SystemParams(), block_rate=0.0))
    assert any("block_rate must be positive" in e for e in errors)


def test_mining_power_must_sum_to_one():
    p = replace(SystemParams(), n_miners=2, mining_power=(0.5, 0.4))
    errors = validate_params(p)
    assert any("sum to 1" in e for e in errors)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["block_rate", "impatience", "mean_tx_size",
                                   "storage_cost_per_byte", "utility_high",
                                   "utility_low"])
def test_non_finite_floats_rejected(field, value):
    errors = validate_params(replace(SystemParams(), **{field: value}))
    assert f"{field} must be finite" in errors


@pytest.mark.parametrize("power", [(0.5, math.nan, 0.5), (0.5, math.inf, 0.5),
                                   (math.inf, -math.inf, 1.0)])
def test_non_finite_mining_power_rejected(power):
    p = replace(SystemParams(), n_miners=3, mining_power=power)
    assert "mining power entries must be finite" in validate_params(p)


def test_all_violations_reported_together():
    p = replace(SystemParams(), block_rate=-1.0, mean_tx_size=0.0,
                utility_high=0.0, utility_low=1.0)
    errors = validate_params(p)
    assert len(errors) >= 3
    with pytest.raises(ValueError):
        require_valid(p)


def test_uniform_power_materialization():
    p = replace(SystemParams(), n_miners=4)
    assert p.powers().tolist() == [0.25, 0.25, 0.25, 0.25]


def test_fee_menu_ordering_enforced():
    FeeMenu(rho_high=2.0, rho_low=0.0)
    with pytest.raises(ValueError):
        FeeMenu(rho_high=1.0, rho_low=1.0)
    with pytest.raises(ValueError):
        FeeMenu(rho_high=1.0, rho_low=-0.5)
    # an infinite fee has no exact fee total in the simulator's ledger
    with pytest.raises(ValueError):
        FeeMenu(rho_high=math.inf, rho_low=0.0)


def test_tax_row_sums():
    p = replace(SystemParams(), n_users_high=3, n_users_low=5)
    tax = TaxVector(p_hh=1.0, p_hl=2.0, p_lh=-3.0, p_ll=4.0)
    q_h, q_l = tax.row_sums(p)
    assert q_h == (3 - 1) * 1.0 + 5 * 2.0
    assert q_l == 3 * (-3.0) + (5 - 1) * 4.0


def test_rate_pair_feasibility():
    p = SystemParams()  # mu/N = 0.075
    assert RatePair(0.05, 0.025).feasible(p)
    assert not RatePair(0.05, 0.05).feasible(p)
    with pytest.raises(ValueError):
        RatePair(-0.1, 0.0)


@pytest.mark.parametrize("rates", [(math.nan, 0.5), (0.5, math.nan), (math.inf, 0.0),
                                   (0.0, math.inf), (-math.inf, 0.0)],
                         ids=["nan_high", "nan_low", "inf_high", "inf_low", "minus_inf"])
def test_rate_pair_rejects_non_finite(rates):
    """A NaN rate would reach the simulator as a zero-rate stream."""
    with pytest.raises(ValueError, match="nonnegative and finite"):
        RatePair(*rates)


def _config_text(p: SystemParams) -> str:
    """`p` in the flat `key = value` config format, floats by repr."""
    lines = [f"{f.name} = {getattr(p, f.name)!r}"
             for f in fields(p) if f.name != "mining_power"]
    if p.mining_power is not None:
        lines.append("mining_power = " + ",".join(repr(a) for a in p.mining_power))
    return "\n".join(lines) + "\n"


def test_config_round_trip(table_params):
    text = _config_text(table_params)
    assert text.splitlines()[0] == "n_users_high = 100"
    assert params_from_mapping(parse_config(text)) == table_params


def test_config_round_trip_with_power_vector():
    p = replace(SystemParams(), n_miners=3, mining_power=(0.5, 0.25, 0.25))
    assert "mining_power = 0.5,0.25,0.25" in _config_text(p)
    assert params_from_mapping(parse_config(_config_text(p))) == p


def test_config_comments_and_errors():
    mapping = parse_config("# comment\nblock_rate = 10.0\n\nn_miners=5\n")
    assert mapping == {"block_rate": "10.0", "n_miners": "5"}
    with pytest.raises(ValueError):
        parse_config("not a key value line")
    with pytest.raises(InvalidInput):
        params_from_mapping({"bogus": "1"})


def test_overrides():
    """`--param` items go through the same mapping as a config file."""
    p = _load_params(Namespace(config=None, param=["impatience=1e-4", "n_users_high=7"]))
    assert p == replace(SystemParams(), impatience=1e-4, n_users_high=7)
    with pytest.raises(ValueError, match="override must be key=value"):
        _load_params(Namespace(config=None, param=["no_equals_sign"]))


@settings(max_examples=60, deadline=None)
@given(
    n_h=st.integers(1, 200),
    n_l=st.integers(1, 200),
    m=st.integers(1, 50),
    mu=st.floats(0.1, 100.0),
    gamma=st.floats(0.0, 1e-2),
    sbar=st.floats(1.0, 1e4),
    c_s=st.floats(0.0, 1e-6),
    r_low=st.floats(0.0, 1e-2),
    r_spread=st.floats(1.0, 10.0),
)
def test_valid_params_round_trip(n_h, n_l, m, mu, gamma, sbar, c_s, r_low, r_spread):
    p = SystemParams(
        n_users_high=n_h, n_users_low=n_l, n_miners=m, block_rate=mu,
        impatience=gamma, mean_tx_size=sbar, storage_cost_per_byte=c_s,
        utility_high=r_low * r_spread, utility_low=r_low,
    )
    assert validate_params(p) == []
    assert params_from_mapping(parse_config(_config_text(p))) == p
    assert math.isclose(float(p.powers().sum()), 1.0, abs_tol=1e-9)


@settings(max_examples=50, deadline=None)
@given(
    n_h=st.integers(1, 50),
    n_l=st.integers(1, 50),
    gamma=st.one_of(st.just(0.0), st.floats(1e-7, 1e-2)),
    c_s=st.floats(0.0, 1e-8),
    r_low=st.floats(0.0, 5e-3),
    r_spread=st.floats(1.0, 5.0),
    rho_low=st.floats(0.0, 1e-4),
    rho_gap=st.floats(1e-12, 1e-4),
    taxes=st.lists(st.floats(-1e-3, 1e-3), min_size=4, max_size=4),
)
def test_validated_params_survive_downstream(n_h, n_l, gamma, c_s, r_low,
                                             r_spread, rho_low, rho_gap, taxes):
    """Any validated params feed the whole pipeline without panics, for any
    fee menu and tax vector in their documented domains."""
    from fwt.mechanism import (
        induced_outcome,
        optimal_mechanism,
        social_welfare,
        sufficient_fee_check,
    )
    from fwt.user_game import sne_select, user_payoff

    p = SystemParams(n_users_high=n_h, n_users_low=n_l,
                     impatience=gamma, storage_cost_per_byte=c_s,
                     utility_high=r_low * r_spread, utility_low=r_low)
    assert validate_params(p) == []
    menu = FeeMenu(rho_high=rho_low + rho_gap, rho_low=rho_low)
    tax = TaxVector(*taxes)
    out = sne_select(menu, tax, p)
    assert out.profile.rates_high_type.feasible(p)
    assert out.profile.rates_low_type.feasible(p)
    for t in ("H", "L"):
        assert not math.isnan(user_payoff(t, out, menu, tax, p))
    mech = optimal_mechanism(p)
    ind = induced_outcome(mech, p)
    w = social_welfare(ind, mech.menu, mech.tax, p)
    assert math.isfinite(w.total)
    _, ok = sufficient_fee_check(ind, p)
    assert ok
