"""Hypothesis profiles for the test suite.

``HYPOTHESIS_PROFILE=ci`` selects ``ci``: a fixed example sequence and no
per-example deadline, so that a property test neither flakes on a slow
runner nor draws examples that a rerun cannot repeat.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
