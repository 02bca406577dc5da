"""Hypothesis draws the same examples on every run and keeps no example
database, so one run of the suite can be compared with the next. Each test
keeps its own max_examples."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
