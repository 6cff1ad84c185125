"""Tests for repro.utils: hashing, RNG, tables, validation."""

import pytest
from hypothesis import given, strategies as st

from repro.utils import (
    DeterministicRng,
    ValidationError,
    format_table,
    require,
    require_in,
    require_positive,
    stable_hash,
)
from repro.utils.tables import format_cdf


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert stable_hash("query", "gpt-4") == stable_hash("query", "gpt-4")

    def test_different_inputs_differ(self):
        assert stable_hash("a", "b") != stable_hash("a", "c")

    def test_part_boundaries_matter(self):
        assert stable_hash("ab", "c") != stable_hash("a", "bc")

    def test_respects_bit_width(self):
        assert stable_hash("x", bits=8) < 256


class TestDeterministicRng:
    def test_same_seed_same_sequence(self):
        first = DeterministicRng(3)
        second = DeterministicRng(3)
        assert [first.randint(0, 100) for _ in range(5)] == \
               [second.randint(0, 100) for _ in range(5)]

    def test_forked_streams_are_independent(self):
        rng = DeterministicRng(3)
        a1 = rng.fork("a").randint(0, 10**9)
        # drawing from another stream must not perturb stream "a"
        rng.fork("b").randint(0, 10**9)
        a2 = DeterministicRng(3).fork("a").randint(0, 10**9)
        assert a1 == a2

    def test_choice_rejects_empty(self):
        with pytest.raises(ValueError):
            DeterministicRng(1).choice([])

    def test_shuffle_returns_copy(self):
        rng = DeterministicRng(1)
        original = [1, 2, 3, 4]
        shuffled = rng.shuffle(original)
        assert original == [1, 2, 3, 4]
        assert sorted(shuffled) == original

    def test_partition_sums_to_total(self):
        rng = DeterministicRng(5)
        parts = rng.partition(1000, 7)
        assert len(parts) == 7
        assert sum(parts) == 1000
        assert all(part >= 0 for part in parts)

    def test_partition_rejects_bad_args(self):
        with pytest.raises(ValueError):
            DeterministicRng(1).partition(10, 0)
        with pytest.raises(ValueError):
            DeterministicRng(1).partition(-1, 2)

    def test_zipf_like_in_range(self):
        rng = DeterministicRng(2)
        draws = [rng.zipf_like(10) for _ in range(200)]
        assert all(0 <= draw < 10 for draw in draws)
        # the first index must be the most popular under a Zipf-like skew
        assert draws.count(0) >= draws.count(9)

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=20))
    def test_partition_property(self, total, parts):
        result = DeterministicRng(9).partition(total, parts)
        assert sum(result) == total
        assert len(result) == parts


class TestTables:
    def test_format_table_aligns_columns(self):
        rendered = format_table(["name", "value"], [["a", 1], ["long-name", 2]])
        lines = rendered.splitlines()
        assert lines[0].startswith("name")
        assert len(lines) == 4

    def test_format_table_with_title(self):
        rendered = format_table(["x"], [[1]], title="My Table")
        assert rendered.splitlines()[0] == "My Table"

    def test_format_cdf_empty(self):
        assert format_cdf([]) == []

    def test_format_cdf_monotone(self):
        points = format_cdf([5.0, 1.0, 3.0, 2.0, 4.0], num_points=5)
        values = [value for value, _ in points]
        fractions = [fraction for _, fraction in points]
        assert values == sorted(values)
        assert fractions[-1] == 1.0


class TestValidation:
    def test_require_passes(self):
        require(True, "never raised")

    def test_require_raises(self):
        with pytest.raises(ValidationError, match="boom"):
            require(False, "boom")

    def test_require_in(self):
        require_in("a", ["a", "b"], "letter")
        with pytest.raises(ValidationError):
            require_in("z", ["a", "b"], "letter")

    def test_require_positive(self):
        require_positive(1, "n")
        require_positive(0, "n", allow_zero=True)
        with pytest.raises(ValidationError):
            require_positive(0, "n")
        with pytest.raises(ValidationError):
            require_positive(-1, "n", allow_zero=True)
