"""Shared test settings.

Hypothesis runs derandomized, without a deadline and without an example
database, so every run of the suite draws the same examples and a slow
machine cannot turn a property test into a timing failure.
"""

from hypothesis import settings

settings.register_profile("fpq", derandomize=True, deadline=None, database=None)
settings.load_profile("fpq")
