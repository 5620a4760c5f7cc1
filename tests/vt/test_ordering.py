"""Tests for domain ordering semantics."""

import pytest

from repro.errors import TimestampError
from repro.vt import Ordering


class TestOrderingProperties:
    def test_unordered_is_not_ordered(self):
        assert not Ordering.UNORDERED.is_ordered

    def test_ordered_variants_are_ordered(self):
        assert Ordering.ORDERED_32.is_ordered
        assert Ordering.ORDERED_64.is_ordered

    def test_timestamp_bits(self):
        assert Ordering.UNORDERED.timestamp_bits == 0
        assert Ordering.ORDERED_32.timestamp_bits == 32
        assert Ordering.ORDERED_64.timestamp_bits == 64

    def test_vt_bits_match_figure_10(self):
        assert Ordering.UNORDERED.vt_bits == 32
        assert Ordering.ORDERED_32.vt_bits == 64
        assert Ordering.ORDERED_64.vt_bits == 96

    def test_max_timestamp(self):
        assert Ordering.UNORDERED.max_timestamp == 0
        assert Ordering.ORDERED_32.max_timestamp == 2**32 - 1
        assert Ordering.ORDERED_64.max_timestamp == 2**64 - 1


class TestTimestampValidation:
    def test_unordered_rejects_timestamp(self):
        with pytest.raises(TimestampError):
            Ordering.UNORDERED.validate_timestamp(3)

    def test_unordered_accepts_none(self):
        assert Ordering.UNORDERED.validate_timestamp(None) == 0

    def test_ordered_requires_timestamp(self):
        with pytest.raises(TimestampError):
            Ordering.ORDERED_32.validate_timestamp(None)

    def test_ordered_accepts_valid(self):
        assert Ordering.ORDERED_32.validate_timestamp(7) == 7
        assert Ordering.ORDERED_64.validate_timestamp(2**40) == 2**40

    def test_ordered_rejects_out_of_range(self):
        with pytest.raises(TimestampError):
            Ordering.ORDERED_32.validate_timestamp(2**32)
        with pytest.raises(TimestampError):
            Ordering.ORDERED_32.validate_timestamp(-1)

    def test_ordered_rejects_non_int(self):
        with pytest.raises(TimestampError):
            Ordering.ORDERED_32.validate_timestamp(1.5)
        with pytest.raises(TimestampError):
            Ordering.ORDERED_32.validate_timestamp(True)
