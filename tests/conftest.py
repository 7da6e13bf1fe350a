"""Shared fixtures: the usable-CPU count that sets how many worker
processes a command forks, and a check that none is left behind."""

import os

import pytest


@pytest.fixture
def use_cpus(monkeypatch):
    """``use_cpus(k)`` makes ``os.sched_getaffinity`` report k CPUs."""
    def use(count):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(count)), raising=False)
    return use


@pytest.fixture
def no_children():
    """``no_children()`` is true when this process has no child left,
    running or unreaped."""
    def check():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        return True
    return check
