"""Hypothesis profiles: ``HYPOTHESIS_PROFILE=ci`` derandomizes every property test.

With ``derandomize=True`` the examples come from each test's source, not from a
random seed, so a failure in CI reproduces from its log; the default profile
keeps drawing fresh examples locally.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
