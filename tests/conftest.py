"""Test-suite settings shared by every module."""

from hypothesis import settings

# every property test runs the same fixed examples on every run, with no
# wall-clock deadline and no example database, so the suite stays
# deterministic; a module sets only its own max_examples
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
