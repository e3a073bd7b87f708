"""Stage-III transaction selection: miner payoffs and the Nash profile.

Miners pick at most one pool transaction per round. The equilibrium profile
has every miner select the earliest-generated transaction among those with
the highest fee-per-byte, provided that fee covers a single miner's storage
cost per byte; the acceptance comparison is an exact closed inequality.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .model import SystemParams

__all__ = [
    "PendingTx",
    "TxPool",
    "MinerDeviation",
    "storage_cost",
    "miner_payoff",
    "equilibrium_selection",
    "check_miner_nash",
]


@dataclass(frozen=True)
class PendingTx:
    """One transaction waiting in the pool."""

    user_id: int
    tx_index: int
    size_bytes: float
    fee_per_byte: float
    gen_time: float

    def __post_init__(self):
        if self.size_bytes <= 0:
            raise ValueError(f"size_bytes must be positive, got {self.size_bytes}")
        if self.fee_per_byte < 0:
            raise ValueError(f"fee_per_byte must be nonnegative, got {self.fee_per_byte}")
        if self.gen_time < 0:
            raise ValueError(f"gen_time must be nonnegative, got {self.gen_time}")

    @property
    def key(self) -> tuple[int, int]:
        return (self.user_id, self.tx_index)


class TxPool:
    """Pool snapshot: transactions ordered by (gen_time, user_id, tx_index)."""

    def __init__(self, transactions: Iterable[PendingTx]):
        txs = sorted(transactions, key=lambda t: (t.gen_time, t.user_id, t.tx_index))
        seen = set()
        for t in txs:
            if t.key in seen:
                raise ValueError(f"duplicate transaction id {t.key}")
            seen.add(t.key)
        self.transactions: tuple[PendingTx, ...] = tuple(txs)

    def __len__(self) -> int:
        return len(self.transactions)

    def __iter__(self):
        return iter(self.transactions)

    def __bool__(self) -> bool:
        return bool(self.transactions)


# A selection profile is one entry per miner: a pool transaction or None.
Selection = Optional[PendingTx]


def _validate_profile(profile: Sequence[Selection], pool: TxPool | None, params: SystemParams):
    if len(profile) != params.n_miners:
        raise ValueError(f"profile has {len(profile)} entries for {params.n_miners} miners")
    if pool is not None:
        keys = {t.key for t in pool}
        for sel in profile:
            if sel is not None and sel.key not in keys:
                raise ValueError(f"selected transaction {sel.key} not in pool")


def storage_cost(profile: Sequence[Selection], params: SystemParams,
                 pool: TxPool | None = None) -> float:
    """Per-miner expected storage cost of a selection profile.

    The cost is identical for every miner: whichever miner wins, all miners
    store the winner's selection.
    """
    _validate_profile(profile, pool, params)
    alphas = params.powers()
    c_s = params.storage_cost_per_byte
    return float(
        sum(
            alphas[j] * sel.size_bytes * c_s
            for j, sel in enumerate(profile)
            if sel is not None
        )
    )


def miner_payoff(m: int, profile: Sequence[Selection], params: SystemParams,
                 pool: TxPool | None = None) -> float:
    """Expected round payoff of miner m: fee revenue minus storage cost."""
    _validate_profile(profile, pool, params)
    alphas = params.powers()
    sel = profile[m]
    revenue = 0.0 if sel is None else alphas[m] * sel.size_bytes * sel.fee_per_byte
    return revenue - storage_cost(profile, params)


def equilibrium_selection(pool: TxPool, params: SystemParams) -> Selection:
    """The common equilibrium choice for every miner.

    Earliest-generated transaction among the highest fee-per-byte ones, if
    that fee covers a single miner's per-byte storage cost; otherwise None.
    Ties beyond generation time break on (user_id, tx_index) so runs are
    reproducible.
    """
    if not pool:
        return None
    best = min(
        pool,
        key=lambda t: (-t.fee_per_byte, t.gen_time, t.user_id, t.tx_index),
    )
    if best.fee_per_byte >= params.storage_cost_per_byte:
        return best
    return None


@dataclass(frozen=True)
class MinerDeviation:
    """A profitable unilateral deviation found by check_miner_nash."""

    miner: int
    deviation: Selection
    gain: float


def check_miner_nash(profile: Sequence[Selection], pool: TxPool,
                     params: SystemParams) -> MinerDeviation | None:
    """Exhaustively test every miner's unilateral deviation over {None} + pool.

    Returns None when no deviation improves that miner's round payoff at
    all (eps = 0), else the first violation found. The gain of switching
    from tx a to tx b is alpha_m * (net(b) - net(a)) with
    net(t) = size*(fee - C_s); this factored form is the exact payoff
    difference and keeps identical alternatives at exactly zero gain.
    """
    _validate_profile(profile, pool, params)
    alphas = params.powers()
    c_s = params.storage_cost_per_byte

    def net(sel: Selection) -> float:
        if sel is None:
            return 0.0
        return sel.size_bytes * (sel.fee_per_byte - c_s)

    candidates: list[Selection] = [None] + list(pool)
    best_net = max(net(c) for c in candidates)
    for m in range(params.n_miners):
        if alphas[m] == 0.0:
            continue
        current = net(profile[m])
        gain = alphas[m] * (best_net - current)
        if gain > 0.0:
            deviation = max(candidates, key=net)
            return MinerDeviation(miner=m, deviation=deviation, gain=gain)
    return None
