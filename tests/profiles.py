"""Hypothesis example budgets for the analytic-vs-event differential tests.

Tier-1 runs those tests with a small budget.  CI's ``fastforward-smoke``
job runs them again under ``--hypothesis-profile=fastforward-fuzz``, the
larger named profile registered here (``tests/conftest.py`` imports this
module, so the profile exists before pytest loads it).
"""

from __future__ import annotations

from hypothesis import settings

#: The larger budget, loaded with ``--hypothesis-profile``.
FUZZ_PROFILE = "fastforward-fuzz"
settings.register_profile(FUZZ_PROFILE, max_examples=200, deadline=None)


def budget(tier1: int) -> settings:
    """``tier1`` examples, or the fuzz profile's budget if it is larger."""
    examples = tier1
    if settings.default is settings.get_profile(FUZZ_PROFILE):
        examples = max(tier1, settings.default.max_examples)
    return settings(max_examples=examples, deadline=None)
