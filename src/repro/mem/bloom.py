"""H3 Bloom-filter signatures (paper Table 2: 2 Kbit, 8-way, H3 hashing).

Swarm/Fractal track each task's read and write sets in per-task Bloom
signatures. Membership tests can return false positives, which cause
spurious aborts — the dominant cost for coarse-grain ("flat") tasks whose
sets overflow the filters (paper Sec. 6.1, Fig. 14).

:class:`H3HashFamily` implements the classic H3 universal hash family of
Carter & Wegman: each hash function is a matrix of random words; the hash
of a key is the XOR of the rows selected by the key's set bits. Rather
than walking key bits one at a time, the family precomputes byte-sliced
tabulation tables (six 256-entry partial-XOR tables per function for
48-bit keys), so a hash is six table lookups and XORs.

:class:`BloomSignature` is a real bit-accurate signature used both
directly (unit tests, small runs) and as the occupancy source for the
simulator's sampled false-positive model (see :mod:`repro.mem.conflicts`).
Inserts and probes go through per-key *masks* (one big int with all k
bits set), so an insert is two big-int ops and a popcount delta instead
of k per-bit updates.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Tuple

from ..errors import MemoryError_

_KEY_BITS = 48  # supported key width (word addresses comfortably fit)
_KEY_BYTES = _KEY_BITS // 8
_KEY_MASK = (1 << _KEY_BITS) - 1

#: distinct keys memoized per family before the memo resets. Workloads
#: probe the same cache lines millions of times, so the memo is the fast
#: path; the bound keeps a long-lived family (shared across runs) from
#: growing without limit.
_MAX_CACHED_KEYS = 1 << 16


class H3HashFamily:
    """A family of ``k`` H3 hash functions onto ``[0, m)`` (m a power of 2).

    In a banked (w-way) Bloom filter each function indexes its own bank of
    ``m / k`` bits; we expose :meth:`indices` returning one global bit index
    per bank, matching that layout.
    """

    def __init__(self, k: int, m_bits: int, seed: int = 0):
        if m_bits & (m_bits - 1) or m_bits <= 0:
            raise MemoryError_("Bloom size must be a power of two")
        if m_bits % k:
            raise MemoryError_("Bloom size must divide evenly into banks")
        self.k = k
        self.m_bits = m_bits
        self.bank_bits = m_bits // k
        if self.bank_bits & (self.bank_bits - 1):
            raise MemoryError_("bank size must be a power of two")
        self._bank_mask = self.bank_bits - 1
        rng = random.Random(seed ^ 0x5DEECE66D)
        # One matrix per function: _KEY_BITS random words of bank-index width.
        self._matrices: List[List[int]] = [
            [rng.getrandbits(32) & self._bank_mask for _ in range(_KEY_BITS)]
            for _ in range(k)
        ]
        # Byte-sliced tabulation: tables[fn][b][v] is the XOR of matrix rows
        # 8b..8b+7 selected by the bits of byte value v. A key's hash under
        # fn is then the XOR of _KEY_BYTES lookups, one per key byte.
        self._tables: List[List[List[int]]] = []
        for matrix in self._matrices:
            fn_tables = []
            for b in range(_KEY_BYTES):
                rows = matrix[8 * b: 8 * b + 8]
                table = [0] * 256
                for v in range(1, 256):
                    low = v & -v  # table[v] extends table[v minus its low bit]
                    table[v] = table[v ^ low] ^ rows[low.bit_length() - 1]
                fn_tables.append(table)
            self._tables.append(fn_tables)
        # key → (indices tuple, mask int). Bounded (see _MAX_CACHED_KEYS);
        # values are immutable.
        self._key_cache: dict = {}

    # ------------------------------------------------------------------
    def _cache_entry(self, key: int) -> tuple:
        entry = self._key_cache.get(key)
        if entry is not None:
            return entry
        if len(self._key_cache) >= _MAX_CACHED_KEYS:
            self._key_cache.clear()
        masked = key & _KEY_MASK
        kbytes = [(masked >> (8 * b)) & 0xFF for b in range(_KEY_BYTES)]
        out = []
        mask = 0
        for fn, table in enumerate(self._tables):
            h = 0
            for b in range(_KEY_BYTES):
                h ^= table[b][kbytes[b]]
            idx = fn * self.bank_bits + h
            out.append(idx)
            mask |= 1 << idx
        entry = (tuple(out), mask)
        self._key_cache[key] = entry
        return entry

    def indices(self, key: int) -> Tuple[int, ...]:
        """Global bit indices (one per bank) for ``key``.

        Returns an immutable tuple: callers share the memoized value, so a
        mutable return could be corrupted in place and poison every later
        probe of the same key (a real bug in the list-returning version).
        """
        return self._cache_entry(key)[0]

    def mask(self, key: int) -> int:
        """All ``k`` of the key's bits as one ``m_bits``-wide int mask."""
        return self._cache_entry(key)[1]


class BloomSignature:
    """A bit-accurate, banked Bloom signature over cache-line addresses."""

    __slots__ = ("family", "_bits", "_inserted", "_popcount", "_rate_cache")

    def __init__(self, family: H3HashFamily):
        self.family = family
        self._bits = 0
        self._inserted = 0
        self._popcount = 0
        self._rate_cache = (0, 0.0)

    def insert(self, key: int) -> bool:
        """Set this key's bit in every bank; True when any bit was new."""
        self._inserted += 1
        bits = self._bits
        new = bits | self.family.mask(key)
        if new == bits:
            return False
        self._popcount += (new ^ bits).bit_count()
        self._bits = new
        return True

    def maybe_contains(self, key: int) -> bool:
        """True when all banks hit. Never a false negative."""
        mask = self.family.mask(key)
        return self._bits & mask == mask

    def update(self, keys: Iterable[int]) -> None:
        """Insert every key."""
        for key in keys:
            self.insert(key)

    def clear(self) -> None:
        """Reset the signature to empty."""
        self._bits = 0
        self._inserted = 0
        self._popcount = 0
        self._rate_cache = (0, 0.0)

    @property
    def inserted(self) -> int:
        """Number of insert operations performed."""
        return self._inserted

    @property
    def popcount(self) -> int:
        """Number of set bits across all banks."""
        return self._popcount

    @property
    def fill(self) -> float:
        """Mean per-bank fill fraction."""
        return self._popcount / self.family.m_bits

    def false_positive_rate(self) -> float:
        """Probability a random never-inserted key hits all ``k`` banks.

        With banked filters, each bank is probed once; a bank of ``b`` bits
        holding ``p_i`` set bits hits with probability ``p_i / b``. We use
        the mean fill as ``p_i / b`` for every bank, which is exact in
        expectation and accurate for H3's near-uniform spreading.
        """
        pc = self._popcount
        cached_pc, cached_rate = self._rate_cache
        if pc == cached_pc:
            return cached_rate
        rate = (pc / self.family.m_bits) ** self.family.k
        self._rate_cache = (pc, rate)
        return rate
