"""Fee-and-waiting-tax mechanism toolkit.

Analytic solver for the three-stage storage-fee game (miner transaction
selection, user generation rates over a two-class priority queue, and the
designer's optimal fee menu plus waiting-tax vector), cross-validated by a
discrete-event Monte Carlo simulator and brute-force best-response oracles.
"""
from .baseline import ExistingOutcome, existing_equilibrium, verify_existing
from .checks import Lemma1Result, jain_index, run_suite, validate_lemma1
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
from .sim import SimConfig, SimReport, run
from .user_game import (
    SneOutcome,
    UserDeviation,
    best_response_check,
    sne_select,
    user_payoff,
    waiting_rate,
)

__version__ = "0.1.0"
