import dataclasses
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fwt.baseline
import fwt.cli
from fwt.baseline import _best_response, _fee_grid, existing_equilibrium, verify_existing
from fwt.cli import sweep_rows
from fwt.mechanism import induced_outcome, optimal_mechanism, social_welfare
from fwt.model import SystemParams
from fwt.queue import InvariantError, own_rate, own_rate_float, sojourn


def _grid_rates_and_payoffs(r_n, n_own, other_fi, other_load, grid, params):
    """The baseline's rate and payoff at every fee of the grid, as its best
    response computed them before it evaluated three candidates; kept as
    the reference."""
    mu = params.block_rate
    gamma = params.impatience
    sbar = params.mean_tx_size
    cap = params.max_rate_per_user
    above = np.zeros(len(grid))
    above[:other_fi] = other_load
    same = np.zeros(len(grid))
    same[other_fi] = other_load

    margin = r_n - sbar * grid
    mu1 = mu - above
    free = mu1 - same
    valid = (margin > 0) & (mu1 > 0) & (free > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        if gamma == 0.0:
            lam = np.where(valid, np.minimum(np.maximum(free, 0.0), cap), 0.0)
            payoff = np.where(valid, lam * margin, 0.0)
        else:
            lam = own_rate(n_own, margin, gamma * mu / mu1, free, valid)
            lam = np.where(valid, np.minimum(np.maximum(lam, 0.0), cap), 0.0)
            wait_per_tx = sojourn(mu, above, above + same + n_own * lam)
            cost = np.where(lam > 0, gamma * lam * wait_per_tx, 0.0)
            payoff = np.where(valid, lam * margin - cost, 0.0)
    return lam, payoff


def _grid_best_response(*args):
    """Reference best response: the first maximum over the whole grid."""
    lam, payoff = _grid_rates_and_payoffs(*args)
    best = int(np.argmax(payoff))
    return best, float(lam[best]), float(payoff[best])


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
    """The array path, as the whole-grid reference calls it: every fee of
    the grid with a positive margin, behind a competitor at one grid fee."""
    p = table_params
    grid = _fee_grid(p)
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


@pytest.mark.parametrize("utility_low, max_iters, converged, cycle_len, iterations", [
    (1e-7, None, True, 1, 3),      # L never profits: a fixed point
    (None, None, False, 18, 19),   # the defaults: an Edgeworth cycle
    (None, 3, False, 0, 3),        # the iteration limit runs out first
], ids=["fixed_point", "cycle", "iteration_limit"])
def test_existing_equilibrium_ends(monkeypatch, utility_low, max_iters, converged,
                                   cycle_len, iterations):
    """The three ways the round-robin iteration stops: a fixed point is a
    cycle of length 1, a longer cycle keeps a state on it, and running out
    of iterations reports cycle length 0."""
    p = SystemParams()
    if utility_low is not None:
        p = replace(p, utility_low=utility_low)
    if max_iters is not None:
        monkeypatch.setattr(fwt.baseline, "MAX_ITERS", max_iters)
    out = existing_equilibrium(p)
    assert (out.converged, out.cycle_len, out.iterations) == (converged, cycle_len, iterations)
    assert verify_existing(out, p) == converged


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


def _best_response_state(n_own, n_other, gamma, points, r_frac, fi_pick, load_frac):
    """(r_n, n_own, other_fi, other_load, grid, params) from plain draws:
    r_n as a fraction of the grid's top fee times sbar, the rival's fee as
    first/middle/last index and its load as a fraction of mu."""
    p = replace(SystemParams(), impatience=gamma, n_users_high=n_own,
                n_users_low=n_other)
    # `_fee_grid`'s span at `points` fees: C_s up to 2 R_H / sbar, which is
    # above C_s at the default utilities
    grid = np.linspace(p.storage_cost_per_byte, 2.0 * p.utility_high / p.mean_tx_size,
                       points)
    other_fi = {"first": 0, "middle": points // 2, "last": points - 1}[fi_pick]
    r_n = r_frac * p.mean_tx_size * float(grid[-1])
    return r_n, n_own, other_fi, load_frac * p.block_rate, grid, p


@settings(max_examples=400, deadline=None)
@given(
    n_own=st.integers(1, 300_000),
    n_other=st.integers(1, 300_000),
    gamma=st.sampled_from([0.0]) | st.floats(1e-9, 1.0),
    points=st.integers(2, 200),
    r_frac=st.floats(0.0, 1.2),
    fi_pick=st.sampled_from(["first", "middle", "last"]),
    load_frac=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 0.999) | st.floats(1.0, 2.0),
)
@example(1, 1, 0.0, 200, 0.7, "first", 0.0)        # gamma = 0, cap binds
@example(100, 100, 1e-4, 200, 0.7, "last", 0.4)    # lowest fee wins
@example(100, 100, 1e-4, 200, 0.7, "first", 0.4)   # outbidding wins
@example(100, 100, 1e-4, 200, 0.0, "middle", 0.4)  # nobody profits: index 0
@example(100, 100, 1e-4, 200, 0.7, "middle", 1.0)  # rival saturates mu
def test_best_response_matches_grid_reference(n_own, n_other, gamma, points, r_frac,
                                              fi_pick, load_frac):
    """The three-candidate best response equals the whole-grid search:
    the same fee index, rate and payoff, bit for bit."""
    args = _best_response_state(n_own, n_other, gamma, points, r_frac, fi_pick, load_frac)
    assert _best_response(*args) == _grid_best_response(*args)


@pytest.mark.parametrize("seed", range(3))
def test_best_response_matches_grid_reference_at_zero_rate_edge(seed):
    """States whose first fee of a run sits at m * free = gamma', where the
    rate is a few ulps and the computed payoff can round below 0: the
    best response still equals the whole-grid search."""
    rng = np.random.default_rng(seed)
    negative = 0
    for _ in range(200):
        n_own = int(rng.integers(1, 300_001))
        gamma = float(10 ** rng.uniform(-7, -1))
        points = int(rng.integers(2, 201))
        fi_pick = str(rng.choice(["first", "middle", "last"]))
        load_frac = float(rng.uniform(0.0, 1.0))
        _, _, j, load, grid, p = _best_response_state(
            n_own, 100, gamma, points, 0.0, fi_pick, load_frac)
        mu = p.block_rate
        i = int(rng.choice([0, j, min(j + 1, points - 1)]))
        above = load if i < j else 0.0
        free = mu - above - (load if i == j else 0.0)
        gamma_eff = gamma * mu / (mu - above)
        r_n = (p.mean_tx_size * float(grid[i])
               + gamma_eff / free * (1.0 + float(rng.uniform(0.0, 2e-12))))
        args = (r_n, n_own, j, load, grid, p)
        negative += _grid_rates_and_payoffs(*args)[1].min() < 0.0
        assert _best_response(*args) == _grid_best_response(*args)
    assert negative > 0  # the draws reach the rounding edge



def test_own_rate_float_matches_array_entries():
    """The float root is bit-identical to the ndarray `own_rate` entry by
    entry, over random rates, margins, gamma' and capacities, given gamma'
    squared as `own_rate` squares it: by multiplication for an array gamma',
    by `**` for a float one."""
    rng = np.random.default_rng(0)
    size = 20_000
    n = rng.integers(1, 300_001, size)
    n[: size // 4] = rng.integers(1, 4, size // 4)
    margin = 10 ** rng.uniform(-8, -2, size)
    gamma = 10 ** rng.uniform(-9, 0, size)
    free = rng.uniform(1e-6, 15.0, size)
    for k in range(size):
        entry = own_rate(int(n[k]), margin[k:k + 1], gamma[k:k + 1], free[k:k + 1], True)
        g = float(gamma[k])
        got = own_rate_float(int(n[k]), float(margin[k]), g, g * g, float(free[k]))
        assert got == float(entry[0]), k
        entry = own_rate(int(n[k]), margin[k:k + 1], g, free[k:k + 1], True)
        got = own_rate_float(int(n[k]), float(margin[k]), g, g**2, float(free[k]))
        assert got == float(entry[0]), k


@pytest.mark.parametrize("root", [
    lambda: own_rate_float(2, 1.0, 1.0, 1.0, -10.0),
    lambda: own_rate(2, np.array([1.0]), 1.0, np.array([-10.0]), np.array([True])),
], ids=["float", "array"])
def test_rate_root_guard_raises_invariant_error(root):
    # a negative capacity makes the discriminant 1 - 80 < 0
    with pytest.raises(InvariantError, match="negative square-root"):
        root()


# The 80 points of perfbench's sweep workload: the evaluation axes of
# scripts/run_evaluation_sweeps.py plus the paper-scale n_users axis.
_SWEEP_POINTS = [
    ("gamma", 1e-5, 1e-3, 20, None),
    ("r_high", 5e-4, 3e-3, 20, None),
    ("n_users", 50, 500, 10, None),
    ("cost_ratio", 1.0, 10.0, 10, (4e-3, 2e-3)),
    ("n_users", 153_000, 537_000, 20, None),
]


def _same(a, b):
    return a == b or (isinstance(a, float) and math.isnan(a) and math.isnan(b))


def test_existing_equilibrium_matches_grid_reference_on_sweep_points(monkeypatch):
    """existing_equilibrium with the whole-grid best response patched in
    returns the same outcome, field by field, at every point the sweep
    workload calls it with."""
    calls = []

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return existing_equilibrium(*args, **kwargs)

    monkeypatch.setattr(fwt.cli, "existing_equilibrium", record)
    for axis, lo, hi, steps, utilities in _SWEEP_POINTS:
        p = SystemParams()
        if utilities is not None:
            p = replace(p, utility_high=utilities[0], utility_low=utilities[1])
        for value in np.linspace(lo, hi, steps):
            (row,) = sweep_rows(p, axis, float(value), float(value), 1)
            assert row["error"] == ""
    assert len(calls) == 80

    new = [existing_equilibrium(*a, **kw) for a, kw in calls]
    monkeypatch.setattr(fwt.baseline, "_best_response", _grid_best_response)
    ref = [existing_equilibrium(*a, **kw) for a, kw in calls]
    for got, want in zip(new, ref):
        for field in dataclasses.fields(want):
            a, b = getattr(got, field.name), getattr(want, field.name)
            assert _same(a, b), (field.name, a, b)


def _reference_state_metrics(state, grid, params, system_cost_per_byte):
    """`_state_metrics` as written before its payoff moved to
    `baseline._payoff`, kept as the reference."""
    fi_h, lam_h, fi_l, lam_l = state
    mu = params.block_rate
    gamma = params.impatience
    sbar = params.mean_tx_size
    n_h, n_l = params.n_users_high, params.n_users_low

    def wait_per_tx(fi, own_group_rate, other_fi, other_rate):
        above = other_rate if other_fi > fi else 0.0
        through = above + own_group_rate + (other_rate if other_fi == fi else 0.0)
        return sojourn(mu, above, through) if through < mu else math.inf

    w_h = wait_per_tx(fi_h, n_h * lam_h, fi_l, n_l * lam_l)
    w_l = wait_per_tx(fi_l, n_l * lam_l, fi_h, n_h * lam_h)

    def payoff(r_n, fee, lam, w):
        if lam == 0.0:
            return 0.0
        cost = 0.0 if gamma == 0.0 else gamma * lam * w
        return lam * (r_n - sbar * fee) - cost

    u_h = payoff(params.utility_high, grid[fi_h], lam_h, w_h)
    u_l = payoff(params.utility_low, grid[fi_l], lam_l, w_l)
    welfare = float(fwt.baseline.welfare_rate(lam_h, lam_l, params, system_cost_per_byte))
    total = n_h * lam_h + n_l * lam_l
    if total == 0.0:
        avg_fee = math.nan
    else:
        avg_fee = (n_h * lam_h * grid[fi_h] + n_l * lam_l * grid[fi_l]) / total
    return u_h, u_l, welfare, float(avg_fee)


def test_state_metrics_matches_reference_on_sweep_points(monkeypatch):
    """The payoffs, welfare and average fee of the final state at every
    point the sweep workload solves equal the two-closure original, bit
    for bit (repr also tells 0.0 from -0.0 and a numpy scalar from a float)."""
    real = fwt.baseline._state_metrics
    states = []

    def checked(state, grid, params, system_cost_per_byte):
        got = real(state, grid, params, system_cost_per_byte)
        want = _reference_state_metrics(state, grid, params, system_cost_per_byte)
        assert repr(got) == repr(want), state
        states.append(state)
        return got

    monkeypatch.setattr(fwt.baseline, "_state_metrics", checked)
    for axis, lo, hi, steps, utilities in _SWEEP_POINTS:
        p = SystemParams()
        if utilities is not None:
            p = replace(p, utility_high=utilities[0], utility_low=utilities[1])
        for value in np.linspace(lo, hi, steps):
            (row,) = sweep_rows(p, axis, float(value), float(value), 1)
            assert row["error"] == ""
    assert len(states) == 80


_RATE_FRACTION = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(fees=st.tuples(st.integers(0, 5), st.integers(0, 5)),
       rates=st.tuples(_RATE_FRACTION, _RATE_FRACTION),
       gamma=st.sampled_from([0.0, 5e-5]) | st.floats(1e-7, 1e-2),
       counts=st.tuples(st.integers(1, 300), st.integers(1, 300)))
# both types at the cap on one fee: the queue is loaded to exactly mu
@example(fees=(3, 3), rates=(1.0, 1.0), gamma=5e-5, counts=(100, 100))
def test_state_metrics_matches_reference_on_any_state(fees, rates, gamma, counts):
    """The same agreement on arbitrary states: either fee order or one
    shared fee, idle types, gamma = 0 and a saturated queue."""
    p = replace(SystemParams(), impatience=gamma, n_users_high=counts[0],
                n_users_low=counts[1])
    grid = _fee_grid(p)
    cap = p.max_rate_per_user
    state = (fees[0], rates[0] * cap, fees[1], rates[1] * cap)
    scb = p.system_storage_per_byte
    assert (repr(fwt.baseline._state_metrics(state, grid, p, scb))
            == repr(_reference_state_metrics(state, grid, p, scb)))
