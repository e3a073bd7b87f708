"""Exogenous parameters and shared domain types.

Every other module consumes these types. All of them are immutable after
construction and safe to share across threads. Units follow the evaluation
setup: currency in USD, time in seconds, sizes in bytes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

__all__ = [
    "SystemParams",
    "FeeMenu",
    "TaxVector",
    "RatePair",
    "SneKind",
    "StrategyProfile",
    "InvalidInput",
    "validate_params",
    "require_valid",
    "params_from_mapping",
    "parse_config",
]

_POWER_SUM_TOL = 1e-12


class InvalidInput(ValueError):
    """A value from outside the program failed its check: exit 2, not a bug."""


@dataclass(frozen=True)
class SystemParams:
    """All exogenous model constants.

    Defaults are the Ethereum-based evaluation constants with desk-scale
    user counts (closed forms are exact at any N; large N only slows the
    simulator).
    """

    n_users_high: int = 100
    n_users_low: int = 100
    n_miners: int = 10_000
    block_rate: float = 15.0            # blocks per second
    impatience: float = 5e-5            # waiting cost per second
    mean_tx_size: float = 150.0         # bytes
    storage_cost_per_byte: float = 5e-10
    utility_high: float = 1.8e-3
    utility_low: float = 0.9e-3
    # None means uniform 1/M for every miner.
    mining_power: tuple[float, ...] | None = None

    @property
    def n_users(self) -> int:
        return self.n_users_high + self.n_users_low

    @property
    def max_rate_per_user(self) -> float:
        """Per-user generation cap mu/N."""
        return self.block_rate / self.n_users

    @property
    def system_storage_per_byte(self) -> float:
        """Total storage cost per byte across all miners, M*C_s."""
        return self.n_miners * self.storage_cost_per_byte

    def powers(self) -> np.ndarray:
        """Mining power vector, materialized (uniform when unset)."""
        if self.mining_power is None:
            return np.full(self.n_miners, 1.0 / self.n_miners)
        return np.asarray(self.mining_power, dtype=float)


def validate_params(p: SystemParams) -> list[str]:
    """Return the full list of violated invariants (empty list = valid)."""
    errors = []
    for name in sorted(_FLOAT_FIELDS):
        if not math.isfinite(getattr(p, name)):
            errors.append(f"{name} must be finite")
    for name in ("n_users_high", "n_users_low", "n_miners"):
        if getattr(p, name) < 1:
            errors.append(f"{name} must be >= 1")
    if not p.block_rate > 0:
        errors.append("block_rate must be positive")
    if p.impatience < 0:
        errors.append("impatience must be nonnegative")
    if not p.mean_tx_size > 0:
        errors.append("mean_tx_size must be positive")
    if p.storage_cost_per_byte < 0:
        errors.append("storage_cost_per_byte must be nonnegative")
    if p.utility_low < 0:
        errors.append("utility_low must be nonnegative")
    if p.utility_high < p.utility_low:
        errors.append("utility_high must be >= utility_low")
    if p.mining_power is not None:
        if len(p.mining_power) != p.n_miners:
            errors.append(
                f"mining_power has {len(p.mining_power)} entries, expected {p.n_miners}"
            )
        if not all(math.isfinite(a) for a in p.mining_power):
            errors.append("mining power entries must be finite")
        else:
            if any(a < 0 for a in p.mining_power):
                errors.append("mining power entries must be nonnegative")
            total = math.fsum(p.mining_power)
            if abs(total - 1.0) > _POWER_SUM_TOL:
                errors.append(f"mining power must sum to 1 (got {total!r})")
    return errors


def require_valid(p: SystemParams) -> SystemParams:
    """Raise InvalidInput listing every violated invariant; return p unchanged."""
    errors = validate_params(p)
    if errors:
        raise InvalidInput("invalid parameters: " + "; ".join(errors))
    return p


@dataclass(frozen=True)
class FeeMenu:
    """The designer's two fee-per-byte choices, inf > rho_high > rho_low >= 0."""

    rho_high: float
    rho_low: float

    def __post_init__(self):
        if not (math.inf > self.rho_high > self.rho_low >= 0.0):
            raise ValueError(
                f"fee menu requires inf > rho_high > rho_low >= 0, "
                f"got ({self.rho_high}, {self.rho_low})"
            )


@dataclass(frozen=True)
class TaxVector:
    """Per-included-transaction waiting-tax rates between user types.

    p_xy is what a type-x user pays to each type-y user per included
    transaction. Entries may be negative (a negative tax is a subsidy).
    """

    p_hh: float = 0.0
    p_hl: float = 0.0
    p_lh: float = 0.0
    p_ll: float = 0.0

    @classmethod
    def zero(cls) -> "TaxVector":
        return cls(0.0, 0.0, 0.0, 0.0)

    def row_sums(self, params: SystemParams) -> tuple[float, float]:
        """Total per-transaction outflow (q_H, q_L) for one user of each type."""
        q_h = (params.n_users_high - 1) * self.p_hh + params.n_users_low * self.p_hl
        q_l = params.n_users_high * self.p_lh + (params.n_users_low - 1) * self.p_ll
        return q_h, q_l


@dataclass(frozen=True)
class RatePair:
    """Per-user generation rates (at rho_high, at rho_low), tx per second."""

    rate_high: float = 0.0
    rate_low: float = 0.0

    def __post_init__(self):
        if not (0 <= self.rate_high < math.inf and 0 <= self.rate_low < math.inf):
            raise ValueError(f"rates must be nonnegative and finite, got {self}")

    @property
    def total(self) -> float:
        return self.rate_high + self.rate_low

    def feasible(self, params: SystemParams) -> bool:
        """Generation-rate constraint: rate_high + rate_low <= mu/N, with a
        relative slack of 1e-12 for rounding."""
        return self.total <= params.max_rate_per_user * (1.0 + 1e-12)


class SneKind(Enum):
    HIGH_FEE = "HighFeeSNE"
    LOW_FEE = "LowFeeSNE"
    NO_GENERATION = "NoGeneration"


@dataclass(frozen=True)
class StrategyProfile:
    """Symmetric strategy profile: one RatePair per user type."""

    rates_high_type: RatePair
    rates_low_type: RatePair

    def rates_for(self, user_type: str) -> RatePair:
        if user_type == "H":
            return self.rates_high_type
        if user_type == "L":
            return self.rates_low_type
        raise ValueError(f"unknown user type {user_type!r}")

    def aggregate(self, params: SystemParams) -> tuple[float, float]:
        """System-wide (rate at rho_high, rate at rho_low)."""
        agg_high = (
            params.n_users_high * self.rates_high_type.rate_high
            + params.n_users_low * self.rates_low_type.rate_high
        )
        agg_low = (
            params.n_users_high * self.rates_high_type.rate_low
            + params.n_users_low * self.rates_low_type.rate_low
        )
        return agg_high, agg_low


# --- config file I/O -------------------------------------------------------
#
# Flat key-value text: one `key = value` per line, '#' comments. Field names
# match SystemParams exactly. mining_power is either omitted (uniform) or a
# comma-separated list.

# a numeric field's type is its default's; mining_power is parsed on its own
_INT_FIELDS = {f.name for f in fields(SystemParams) if type(f.default) is int}
_FLOAT_FIELDS = {f.name for f in fields(SystemParams) if type(f.default) is float}


def params_from_mapping(mapping: dict[str, str]) -> SystemParams:
    """Build SystemParams from string key-value pairs (config or CLI)."""
    kwargs = {}
    for key, raw in mapping.items():
        if key not in _INT_FIELDS | _FLOAT_FIELDS | {"mining_power"}:
            raise InvalidInput(f"unknown parameter {key!r}")
        try:
            if key in _INT_FIELDS:
                kwargs[key] = int(raw)
            elif key in _FLOAT_FIELDS:
                kwargs[key] = float(raw)
            else:
                value = raw.strip()
                kwargs[key] = (None if value in ("", "uniform")
                               else tuple(float(v) for v in value.split(",")))
        except ValueError as exc:       # a number that does not parse
            raise InvalidInput(exc) from None
    return SystemParams(**kwargs)


def parse_config(text: str) -> dict[str, str]:
    """Parse the flat key-value config format into a string mapping."""
    mapping: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise InvalidInput(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        mapping[key.strip()] = value.strip()
    return mapping
