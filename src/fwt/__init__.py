"""Fee-and-waiting-tax mechanism toolkit.

Analytic solver for the three-stage storage-fee game (miner transaction
selection, user generation rates over a two-class priority queue, and the
designer's optimal fee menu plus waiting-tax vector), cross-validated by a
discrete-event Monte Carlo simulator and brute-force best-response oracles.
"""
from .baseline import ExistingOutcome, existing_equilibrium, verify_existing
from .checks import jain_index, run_suite
from .mechanism import (
    Mechanism,
    OracleResult,
    TaxComparison,
    WelfareBreakdown,
    induced_outcome,
    optimal_mechanism,
    optimal_mechanism_hetero,
    social_welfare,
    sufficient_fee_check,
    tax_comparison,
    unconstrained_optimum_oracle,
)
from .miner_game import (
    MinerDeviation,
    PendingTx,
    TxPool,
    check_miner_nash,
    equilibrium_selection,
    miner_payoff,
    storage_cost,
    uniform_profile,
)
from .model import (
    FeeMenu,
    HeteroCostParams,
    RatePair,
    SneKind,
    StrategyProfile,
    SystemParams,
    TaxVector,
    apply_overrides,
    params_from_mapping,
    parse_config,
    require_valid,
    validate_params,
)
from .sim import Lemma1Result, SimConfig, SimReport, run, validate_lemma1
from .user_game import (
    NetUtilities,
    SneOutcome,
    UserDeviation,
    best_response_check,
    net_utilities,
    sne_rates,
    sne_select,
    user_payoff,
    waiting_rate,
    with_payoffs,
)

__version__ = "0.1.0"
