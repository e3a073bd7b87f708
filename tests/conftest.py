import math
import struct

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from fwt.model import FeeMenu, SystemParams, TaxVector

# The float-path exactness properties (marker `exactness`) run at their own
# example counts in tier-1, and at 2000 with
# `-m exactness --hypothesis-profile exactness-depth`.
settings.register_profile("exactness-depth", max_examples=2000)


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "exactness: a float kernel against the array code, bit for bit")


def exactness(max_examples: int):
    """Mark an exactness property and run it at `max_examples`, or at the
    loaded profile's count where that is larger."""
    def decorate(test):
        examples = max(max_examples, settings().max_examples)
        return pytest.mark.exactness(settings(max_examples=examples, deadline=None)(test))
    return decorate


def same_bits(got: float, want: float) -> bool:
    """The float `got` has the bits of `want`, or both are NaN."""
    if math.isnan(want):
        return math.isnan(got)
    return struct.pack("<d", got) == struct.pack("<d", want)


_FINITE = dict(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, **_FINITE)
_NONNEGATIVE = st.floats(min_value=0.0, **_FINITE)
_COUNT = st.integers(1, 10 ** 12)


@st.composite
def valid_params(draw, storage_cost=_NONNEGATIVE):
    """A point `validate_params` accepts (uniform mining power), with the
    impatience also drawn log-uniformly so that tiny and huge gammas occur,
    and C_s drawn from `storage_cost`."""
    low, high = sorted(draw(st.tuples(_NONNEGATIVE, _NONNEGATIVE)))
    gamma = st.one_of(_NONNEGATIVE, st.floats(-330.0, 308.0).map(lambda e: 10.0 ** e))
    return SystemParams(
        n_users_high=draw(_COUNT), n_users_low=draw(_COUNT), n_miners=draw(_COUNT),
        block_rate=draw(_POSITIVE), impatience=draw(gamma), mean_tx_size=draw(_POSITIVE),
        storage_cost_per_byte=draw(storage_cost), utility_high=high, utility_low=low)


@pytest.fixture
def table_params() -> SystemParams:
    """Evaluation defaults: Ethereum-based constants, desk-scale users."""
    return SystemParams()


@pytest.fixture
def zero_tax() -> TaxVector:
    return TaxVector.zero()


@pytest.fixture
def accepted_menu(table_params) -> FeeMenu:
    """Menu with both fees above the single-miner acceptance threshold."""
    c_s = table_params.storage_cost_per_byte
    return FeeMenu(rho_high=4.0 * c_s, rho_low=2.0 * c_s)
