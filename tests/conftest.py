"""Shared test set-up: property tests draw the same examples on every run."""

from hypothesis import settings

settings.register_profile("combtwin", derandomize=True, deadline=None)
settings.load_profile("combtwin")
