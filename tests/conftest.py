"""Shared test set-up: property tests draw the same examples on every run,
and the artifact properties share one persisted run."""

import pytest
from hypothesis import settings

from combtwin.harness import builtin_scenarios, persist, run_loopback

settings.register_profile("combtwin", derandomize=True, deadline=None)
settings.load_profile("combtwin")


@pytest.fixture(scope="module")
def demod_single_dir(tmp_path_factory):
    """The directory of a demod_single run, persisted once per module."""
    out = tmp_path_factory.mktemp("demod_single") / "run"
    persist(run_loopback(builtin_scenarios()["demod_single"]), str(out))
    return out
