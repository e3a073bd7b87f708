import math
import struct

import pytest
from hypothesis import settings

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
