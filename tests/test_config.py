"""Tests for repro.config."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import (
    KNOWN_PROFILES,
    PROFILE_ENV_VAR,
    active_profile,
    default_rng,
)


class TestDefaultRng:
    def test_none_returns_generator(self):
        assert isinstance(default_rng(None), np.random.Generator)

    def test_int_seed_is_reproducible(self):
        a = default_rng(42).random(5)
        b = default_rng(42).random(5)
        np.testing.assert_allclose(a, b)

    def test_generator_passthrough(self):
        generator = np.random.default_rng(1)
        assert default_rng(generator) is generator


class TestActiveProfile:
    def test_default_without_env(self, monkeypatch):
        monkeypatch.delenv(PROFILE_ENV_VAR, raising=False)
        assert active_profile() == "smoke"

    def test_env_selects_paper(self, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV_VAR, "paper")
        assert active_profile() == "paper"

    def test_unknown_value_falls_back(self, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV_VAR, "huge")
        assert active_profile() == "smoke"

    def test_known_profiles_are_consistent(self):
        assert set(KNOWN_PROFILES) == {"smoke", "paper"}
