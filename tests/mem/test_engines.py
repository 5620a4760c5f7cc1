"""Memory regressions and the oracle property test.

Each regression test here fails on the code it was written against:

- victim enumeration order over a line's reader population (was a set:
  abort order depended on object addresses),
- H3 ``indices()`` memo poisoning (was the cached list itself) and the
  unbounded key memo,
- ``poke()`` accepting lines under live readers / other-word writers,
- ``_scrub()`` swallowing corruption (``ValueError`` → silent pass).

The property test drives random interleavings through an
:class:`OracleMemory`, which checks every access's victims against a
brute-force oracle, and then checks the survivors against a serial
replay in VT order.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MemoryError_, SimulationError
from repro.mem import AddressSpace, SpecMemory
from repro.mem.bloom import H3HashFamily
from repro.mem import bloom as bloom_mod
from repro.mem.conflicts import PreciseConflictModel

from .conftest import AbortRecorder, FakeOwner, OracleMemory


def make_mem():
    space = AddressSpace(line_bytes=64, n_tiles=4)
    m = OracleMemory(space, PreciseConflictModel())
    m.abort_cascade = AbortRecorder(m)
    return m


def attach(mem, key):
    o = FakeOwner(key if isinstance(key, tuple) else (key,))
    mem.attach_owner(o)
    return o


# ---------------------------------------------------------------------------
# one engine
# ---------------------------------------------------------------------------
class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        """There is one memory engine: the constructor has no selector."""
        space = AddressSpace(line_bytes=64, n_tiles=4)
        with pytest.raises(TypeError):
            SpecMemory(space, engine="scalar")


# ---------------------------------------------------------------------------
# victim enumeration order over the reader population
# ---------------------------------------------------------------------------
class TestVictimOrder:
    def test_store_victims_follow_registration_order(self, mem):
        """A store that kills several readers of its line must list the
        victims in reader-registration order — with the old set-backed
        reader index the order depended on object addresses (ConflictEvent
        victim lists differed between runs of the same seed)."""
        seen = []
        inner = mem.abort_cascade

        def record(victims, reason):
            seen.append(list(victims))
            inner(victims, reason)

        mem.abort_cascade = record
        # register readers in an order distinct from VT order
        keys = [5, 3, 9, 7, 4]
        readers = [attach(mem, k) for k in keys]
        for r in readers:
            mem.load(r, 0)
        writer = attach(mem, 1)
        mem.store(writer, 0, 42)
        assert len(seen) == 1
        assert seen[0] == readers  # registration order, not key/id order
        assert all(r.aborted for r in readers)

    def test_store_victims_dedupe_reader_writers(self, mem):
        """An owner that both read and wrote the line is one victim, with
        its reader-position rank."""
        seen = []
        inner = mem.abort_cascade

        def record(victims, reason):
            seen.append(list(victims))
            inner(victims, reason)

        mem.abort_cascade = record
        both = attach(mem, 6)
        mem.load(both, 0)
        mem.store(both, 1, 7)    # same line (64B line = 8 words)
        late = attach(mem, 8)
        mem.load(late, 0)
        writer = attach(mem, 2)
        mem.store(writer, 2, 9)
        assert seen and seen[-1] == [both, late]


# ---------------------------------------------------------------------------
# H3 memo immutability and boundedness
# ---------------------------------------------------------------------------
class TestH3Memo:
    def test_indices_returns_immutable_tuple(self):
        fam = H3HashFamily(k=8, m_bits=2048, seed=3)
        idx = fam.indices(1234)
        assert isinstance(idx, tuple)
        with pytest.raises(TypeError):
            idx[0] = 0  # the old list return could be corrupted in place

    def test_mutated_return_cannot_poison_probes(self):
        fam = H3HashFamily(k=8, m_bits=2048, seed=3)
        first = list(fam.indices(77))
        # even a caller copying-and-mutating shares nothing with the memo
        got = fam.indices(77)
        assert list(got) == first
        assert fam.indices(77) is got  # memoized

    def test_key_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(bloom_mod, "_MAX_CACHED_KEYS", 8)
        fam = H3HashFamily(k=4, m_bits=512, seed=0)
        expect = {k: fam.indices(k) for k in range(20)}
        assert len(fam._key_cache) <= 8
        # resets never change answers
        for k, v in expect.items():
            assert fam.indices(k) == v
        assert len(fam._key_cache) <= 8


# ---------------------------------------------------------------------------
# poke() line-granular rejection + poke_fresh slot birth
# ---------------------------------------------------------------------------
class TestPokeGuards:
    def test_poke_rejects_line_readers(self):
        mem = make_mem()
        r = attach(mem, 1)
        mem.load(r, 0)
        with pytest.raises(MemoryError_, match="live speculative readers"):
            mem.poke(1, 5)  # different word, same line as the read

    def test_poke_rejects_line_writers_on_other_words(self):
        mem = make_mem()
        w = attach(mem, 1)
        mem.store(w, 0, 9)
        with pytest.raises(MemoryError_, match="other words"):
            mem.poke(1, 5)  # word 1 is clean but line 0 has a live writer

    def test_poke_rejects_word_writers(self):
        mem = make_mem()
        w = attach(mem, 1)
        mem.store(w, 0, 9)
        with pytest.raises(MemoryError_, match="speculative writers"):
            mem.poke(0, 5)

    def test_poke_fresh_allows_birth_on_live_line(self):
        mem = make_mem()
        w = attach(mem, 1)
        mem.store(w, 0, 9)
        mem.poke_fresh(1, 5)  # same line, never-touched word: legal
        assert mem.peek(1) == 5

    def test_poke_fresh_rejects_existing_values(self):
        mem = make_mem()
        mem.poke(3, 1)
        with pytest.raises(MemoryError_, match="already holds a value"):
            mem.poke_fresh(3, 2)


# ---------------------------------------------------------------------------
# strict scrub
# ---------------------------------------------------------------------------
class TestStrictScrub:
    def test_corrupted_reader_index_raises(self, mem):
        o = attach(mem, 1)
        mem.load(o, 0)
        del mem._line_readers[0][o]  # simulate corrupted bookkeeping
        with pytest.raises(SimulationError, match="reader index"):
            mem.commit(o)

    def test_corrupted_writer_chain_raises(self, mem):
        o = attach(mem, 1)
        mem.store(o, 0, 1)
        mem._line_writers[0].remove(o)
        with pytest.raises(SimulationError, match="writer chain"):
            mem.commit(o)


# ---------------------------------------------------------------------------
# the oracle audit is independent of the memory's indices
# ---------------------------------------------------------------------------
class TestAuditEngine:
    def test_audit_catches_planted_index_divergence(self):
        """Plant a later writer in a line's writer index without adding the
        line to its footprint: the memory aborts it, but the oracle (which
        reads footprints, never indices) expects no victim and fails."""
        mem = make_mem()
        o = attach(mem, 1)
        intruder = attach(mem, 9)
        mem._line_writers.setdefault(0, []).append(intruder)
        with pytest.raises(AssertionError, match="oracle"):
            mem.load(o, 0)

    def test_audit_clean_run_is_silent(self):
        mem = make_mem()
        o = attach(mem, 1)
        for _ in range(4):
            mem.load(o, 0)
            mem.store(o, 0, 1)
        mem.commit(o)
        mem.assert_quiescent()


# ---------------------------------------------------------------------------
# the memory against the brute-force oracle
# ---------------------------------------------------------------------------
OPS = st.lists(
    st.tuples(st.integers(0, 5),            # owner slot
              st.booleans(),                # is_write
              st.integers(0, 23),           # word address (3 lines of 8)
              st.integers(1, 7)),           # value (never the default 0)
    min_size=1, max_size=60)


class TestOracleProperty:
    @settings(max_examples=120, deadline=None)
    @given(ops=OPS)
    def test_memory_matches_oracle(self, ops):
        """Random interleavings of six owners (slot i has VT key i):
        every access aborts exactly the oracle's victims (checked inline
        by OracleMemory), and the survivors, committed in VT order, read
        and leave exactly what a serial replay in VT order does."""
        mem = make_mem()
        owners = [attach(mem, i) for i in range(6)]
        for slot, is_write, addr, value in ops:
            o = owners[slot]
            if o.aborted:
                continue
            if is_write:
                mem.store(o, addr, value)
            else:
                mem.load(o, addr)
        survivors = [o for o in owners if not o.aborted]
        for o in survivors:
            mem.commit(o)
        mem.assert_quiescent()
        assert not mem.live
        state = {}
        for o in survivors:
            for addr, seen in o.reads.items():
                assert seen == state.get(addr, 0), (o, addr)
            state.update(o.writes)
        assert {a: mem.peek(a) for a in range(24)} == \
            {a: state.get(a, 0) for a in range(24)}
