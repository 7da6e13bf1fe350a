"""Shared fixtures: the usable-CPU count that sets how many worker
processes a command forks, and a check that none is left behind; and
``fixed_family``, a test family that always fits one model."""

import os

import pytest

from fickit.models import ModelFamily


def fixed_family(model, family_id: str = "fixed") -> ModelFamily:
    """Zero-parameter family: fitting always returns the given model."""
    return ModelFamily(family_id, fit=lambda data: model, n_params=0,
                       model_at=lambda params: model)


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
