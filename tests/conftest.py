import pytest
from hypothesis import settings

from pcs_spectra import numerics

# Property tests are derandomized, so a Tier-1 run is reproducible, and
# bounded, so it stays short; a cheap test may ask for more examples.
settings.register_profile("tier1", max_examples=40, deadline=None, derandomize=True)
settings.load_profile("tier1")


@pytest.fixture(autouse=True)
def fresh_sinc_cache():
    # a test that counts dense eigensolves, or patches the sinc
    # operator, sees no solve cached by the test before it
    numerics._canonical_sinc.cache_clear()
