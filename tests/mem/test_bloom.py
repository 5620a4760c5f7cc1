"""Tests for H3 Bloom signatures (paper Table 2)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MemoryError_
from repro.mem import BloomSignature, H3HashFamily


def make_sig(bits=2048, ways=8, seed=0):
    return BloomSignature(H3HashFamily(k=ways, m_bits=bits, seed=seed))


class TestH3Family:
    def test_indices_one_per_bank(self):
        fam = H3HashFamily(k=8, m_bits=2048, seed=1)
        idx = fam.indices(12345)
        assert len(idx) == 8
        for bank, i in enumerate(idx):
            assert bank * 256 <= i < (bank + 1) * 256

    def test_deterministic(self):
        a = H3HashFamily(k=4, m_bits=1024, seed=7)
        b = H3HashFamily(k=4, m_bits=1024, seed=7)
        assert a.indices(999) == b.indices(999)

    def test_seed_changes_hashes(self):
        a = H3HashFamily(k=4, m_bits=1024, seed=7)
        b = H3HashFamily(k=4, m_bits=1024, seed=8)
        assert any(a.indices(k) != b.indices(k) for k in range(32))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(MemoryError_):
            H3HashFamily(k=4, m_bits=1000)

    def test_indices_match_bitwise_h3_reference(self):
        """The byte-sliced tables must reproduce textbook H3: per function,
        the XOR of the matrix rows selected by the key's set bits."""
        fam = H3HashFamily(k=8, m_bits=2048, seed=5)
        rng = random.Random(1)
        keys = [0, 1, (1 << 48) - 1] + [rng.getrandbits(48)
                                        for _ in range(500)]
        for key in keys:
            want = []
            for fn, matrix in enumerate(fam._matrices):
                h = 0
                for bit, row in enumerate(matrix):
                    if key >> bit & 1:
                        h ^= row
                want.append(fn * fam.bank_bits + h)
            assert fam.indices(key) == tuple(want), hex(key)

    def test_h3_linearity(self):
        """H3 is XOR-linear: h(a ^ b) == h(a) ^ h(b) per bank offset."""
        fam = H3HashFamily(k=2, m_bits=512, seed=3)
        a, b = 0b1010, 0b0110
        ha = [i % 256 for i in fam.indices(a)]
        hb = [i % 256 for i in fam.indices(b)]
        hx = [i % 256 for i in fam.indices(a ^ b)]
        assert hx == [x ^ y for x, y in zip(ha, hb)]


class TestBloomSignature:
    def test_no_false_negatives_small(self):
        sig = make_sig()
        keys = list(range(0, 500, 7))
        sig.update(keys)
        assert all(sig.maybe_contains(k) for k in keys)

    @given(st.sets(st.integers(min_value=0, max_value=2**40), max_size=64),
           st.integers(min_value=0, max_value=2**40))
    @settings(max_examples=50, deadline=None)
    def test_no_false_negatives_property(self, keys, probe):
        sig = make_sig(bits=512, ways=4)
        sig.update(keys)
        for k in keys:
            assert sig.maybe_contains(k)

    def test_empty_matches_nothing(self):
        sig = make_sig()
        assert not sig.maybe_contains(42)
        assert sig.false_positive_rate() == 0.0

    def test_fill_and_fp_rate_grow(self):
        sig = make_sig(bits=512, ways=4)
        prev = 0.0
        for k in range(100):
            sig.insert(k * 31 + 7)
            rate = sig.false_positive_rate()
            assert rate >= prev
            prev = rate
        assert 0.0 < prev <= 1.0

    def test_overflowed_signature_has_high_fp(self):
        """Flat tasks with huge footprints saturate 2 Kbit filters —
        the Fig. 14 failure mode."""
        sig = make_sig(bits=2048, ways=8)
        sig.update(range(0, 20000, 3))
        assert sig.false_positive_rate() > 0.5

    def test_small_sets_have_tiny_fp(self):
        """Fine-grain Fractal tasks (a few lines) barely touch the filter."""
        sig = make_sig(bits=2048, ways=8)
        sig.update(range(8))
        assert sig.false_positive_rate() < 1e-10

    def test_clear(self):
        sig = make_sig()
        sig.update(range(32))
        sig.clear()
        assert sig.popcount == 0
        assert not sig.maybe_contains(3)

    def test_false_positive_exists_at_saturation(self):
        sig = make_sig(bits=64, ways=2)
        sig.update(range(200))
        # With 64 bits and 200 keys, an unseen key almost surely hits.
        assert sig.maybe_contains(10**9)
