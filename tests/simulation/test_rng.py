"""Unit tests for named RNG streams."""

import pytest

from repro.simulation import RngRegistry, derive_seed


class TestDeriveSeed:
    def test_stable_mapping(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")

    def test_distinct_names_distinct_seeds(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_distinct_masters_distinct_seeds(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")


class TestRngRegistry:
    def test_streams_are_cached(self):
        reg = RngRegistry(0)
        assert reg.stream("x") is reg.stream("x")

    def test_streams_are_independent(self):
        """Draws from stream A must not perturb stream B."""
        reg1 = RngRegistry(5)
        _ = [reg1.uniform("a", 0, 1) for _ in range(100)]
        b_after_a = [reg1.uniform("b", 0, 1) for _ in range(10)]

        reg2 = RngRegistry(5)
        b_alone = [reg2.uniform("b", 0, 1) for _ in range(10)]
        assert b_after_a == b_alone

    def test_helpers(self):
        reg = RngRegistry(3)
        assert 0 <= reg.uniform("u", 0, 1) <= 1
        assert reg.choice("c", ["only"]) == "only"
        assert 1 <= reg.randint("r", 1, 3) <= 3

    def test_jitter_bounds(self):
        reg = RngRegistry(4)
        for _ in range(200):
            value = reg.jitter("j", 10.0, 0.25)
            assert 7.5 <= value <= 12.5

    def test_jitter_validation(self):
        reg = RngRegistry(4)
        with pytest.raises(ValueError):
            reg.jitter("j", -1.0, 0.5)
        with pytest.raises(ValueError):
            reg.jitter("j", 1.0, 2.0)
