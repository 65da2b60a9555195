"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import settings as hypothesis_settings

from repro.geometry.kinematics import MovingPoint

# Hypothesis profiles: "ci" (the default) keeps the tier-1 suite fast;
# select the exhaustive one with HYPOTHESIS_PROFILE=thorough.  Property
# tests deliberately do not pin max_examples so the profile governs.
hypothesis_settings.register_profile("ci", max_examples=25, deadline=None)
hypothesis_settings.register_profile(
    "thorough", max_examples=400, deadline=None
)
hypothesis_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


@pytest.fixture(autouse=True, scope="session")
def hermetic_run_cache(tmp_path_factory):
    """Keep cached experiment runs out of the user's cache directory."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("cache")))
        yield


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def random_point(
    rng: random.Random,
    dims: int = 2,
    space: float = 100.0,
    max_speed: float = 3.0,
    t_ref: float = 0.0,
    max_life: float = 50.0,
    infinite_probability: float = 0.0,
) -> MovingPoint:
    """A random moving point for tests."""
    pos = tuple(rng.uniform(0.0, space) for _ in range(dims))
    vel = tuple(rng.uniform(-max_speed, max_speed) for _ in range(dims))
    if infinite_probability and rng.random() < infinite_probability:
        t_exp = float("inf")
    else:
        t_exp = t_ref + rng.uniform(0.0, max_life)
    return MovingPoint(pos, vel, t_ref, t_exp)


def random_points(rng: random.Random, n: int, **kwargs):
    return [random_point(rng, **kwargs) for _ in range(n)]
