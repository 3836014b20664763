"""Shared pytest set-up: one hypothesis profile for every property test.

Examples are derived from each test's name rather than drawn at random and
nothing is stored between runs, so the suite is deterministic; the example
budget keeps it fast.
"""

from hypothesis import settings

settings.register_profile(
    "keller", derandomize=True, database=None, deadline=None, max_examples=50
)
settings.load_profile("keller")
