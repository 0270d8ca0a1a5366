"""Hypothesis profiles and per-test cache isolation for the test suite.

``HYPOTHESIS_PROFILE=ci`` selects ``ci``: a fixed example sequence and no
per-example deadline, so that a property test neither flakes on a slow
runner nor draws examples that a rerun cannot repeat.
"""

import os

import pytest
from hypothesis import settings

from commonfix import mappings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(autouse=True)
def empty_oscillator_caches():
    """Each test starts with an empty ``oscillator_defect`` cache and leaves
    it empty, so no test sees another's cached estimates or counts."""
    mappings.oscillator_defect.cache_clear()
    yield
    mappings.oscillator_defect.cache_clear()
