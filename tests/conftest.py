"""Hypothesis runs derandomized and without an example database, so each
property test draws the same examples on every run and the suite is
deterministic.  Per-test settings (max_examples, deadline) still apply."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
