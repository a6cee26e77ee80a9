"""Shared test settings.

Hypothesis runs without a per-example deadline, because the host's speed
can drift by tens of percent between examples, and derandomized, so the
suite draws the same examples on every run.
"""

from hypothesis import settings

settings.register_profile("tier1", deadline=None, derandomize=True)
settings.load_profile("tier1")
