"""Old-vs-new VT equivalence: the key-tuple :class:`FractalVT` against the
per-domain-object implementation it replaced.

The reference below is the earlier design: a fractal VT held one frozen
``DomainVT`` per enclosing domain, each holding a ``Tiebreaker`` object, and
rebuilt its sort key from them on every derivation. It lives only here, as
an oracle. Random derivation sequences — same/sub/super-domain enqueues,
dispatch, lower-bound requeues, zoom shifts and wrap-around compaction with
saturation — run on both implementations side by side, and every resulting
pair of VTs must agree on key, depth, bits, budget checks, prefix and
same-domain relations, saturation, and pairwise order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import VTBudgetExceeded, VTError
from repro.vt import FractalVT, Ordering, TiebreakerAllocator
from repro.vt.tiebreaker import WrapAround

# --- the reference implementation ----------------------------------------

_TS_BITS = {Ordering.UNORDERED: 0, Ordering.ORDERED_32: 32,
            Ordering.ORDERED_64: 64}


@dataclass(frozen=True, order=True)
class RefTiebreaker:
    raw: int
    cycle: int = 0
    tile: int = 0


class RefAllocator:
    def __init__(self, width, tile_bits):
        self.tile_bits = tile_bits
        self.max_rel_cycle = (1 << (width - tile_bits)) - 1
        self.half_raw = 1 << (width - 1)
        self.epoch_base = 0

    def rel_cycle(self, cycle):
        return cycle - self.epoch_base + 1

    def alloc(self, cycle, tile):
        rel = self.rel_cycle(cycle)
        if rel > self.max_rel_cycle:
            raise WrapAround(cycle)
        return RefTiebreaker((rel << self.tile_bits) | tile, cycle, tile)

    def lower_bound(self, cycle):
        rel = min(self.rel_cycle(cycle), self.max_rel_cycle)
        return RefTiebreaker(rel << self.tile_bits, cycle, 0)

    def compacted(self, tb):
        new_raw = max(tb.raw - self.half_raw, 0)
        half_cycles = self.half_raw >> self.tile_bits
        return RefTiebreaker(new_raw, max(tb.cycle - half_cycles, 0),
                             tb.tile if new_raw else 0)

    def compact(self):
        self.epoch_base += self.half_raw >> self.tile_bits


@dataclass(frozen=True)
class RefDomainVT:
    ordering: Ordering
    timestamp: int = 0
    tiebreaker: Optional[RefTiebreaker] = None

    @property
    def bits(self):
        return _TS_BITS[self.ordering] + 32

    def key(self):
        tb = self.tiebreaker.raw if self.tiebreaker is not None else 0
        return (self.timestamp, tb)


class RefFractalVT:
    def __init__(self, domains):
        self.domains = tuple(domains)
        if not self.domains:
            raise VTError("a fractal VT needs at least one domain VT")
        self._key = tuple(d.key() for d in self.domains)

    def key(self):
        return self._key

    def __lt__(self, other):
        return self._key < other._key

    @property
    def depth(self):
        return len(self.domains)

    @property
    def bits(self):
        return sum(d.bits for d in self.domains)

    def check_budget(self, budget_bits):
        if self.bits > budget_bits:
            raise VTBudgetExceeded(f"{self.bits} > {budget_bits}")
        return self

    def is_prefix_of(self, other):
        n = len(self._key)
        return n < len(other._key) and other._key[:n] == self._key

    def shares_domain_with(self, other):
        return (len(self._key) == len(other._key)
                and self._key[:-1] == other._key[:-1])

    def child_same_domain(self, dvt):
        return RefFractalVT(self.domains[:-1] + (dvt,))

    def child_subdomain(self, dvt):
        return RefFractalVT(self.domains + (dvt,))

    def child_superdomain(self, dvt):
        if len(self.domains) < 2:
            raise VTError("root-domain tasks have no superdomain")
        return RefFractalVT(self.domains[:-2] + (dvt,))

    def finalized(self, tb):
        last = self.domains[-1]
        return RefFractalVT(self.domains[:-1] + (
            RefDomainVT(last.ordering, last.timestamp, tb),))

    def drop_base(self):
        if len(self.domains) < 2:
            raise VTError("cannot drop the only domain VT")
        return RefFractalVT(self.domains[1:])

    def with_base(self, dvt):
        return RefFractalVT((dvt,) + self.domains)

    def compacted(self, allocator):
        return RefFractalVT(
            d if d.tiebreaker is None else RefDomainVT(
                d.ordering, d.timestamp, allocator.compacted(d.tiebreaker))
            for d in self.domains)

    def final_tiebreaker_saturated(self):
        tb = self.domains[-1].tiebreaker
        return tb is not None and tb.raw == 0


# --- the driver -------------------------------------------------------------

WIDTH, TILE_BITS = 12, 4  # 8 cycle bits: wrap-around within a few ticks
BUDGETS = (64, 96, 128, 160)


class Pair:
    """The same derivation sequence on both implementations."""

    def __init__(self):
        self.new_alloc = TiebreakerAllocator(WIDTH, TILE_BITS)
        self.ref_alloc = RefAllocator(WIDTH, TILE_BITS)
        self.now = 0
        self.vts = []  # (new, ref)
        self.compactions = 0

    def both(self, new_fn, ref_fn):
        """Apply a derivation to both sides; errors must agree."""
        try:
            new = new_fn()
        except VTError as exc:
            with pytest.raises(type(exc)):
                ref_fn()
            return None
        ref = ref_fn()
        self.vts.append((new, ref))
        return new, ref

    def alloc(self, tile):
        while True:
            try:
                new = self.new_alloc.alloc(self.now, tile)
                break
            except WrapAround:
                self.compact()
        ref = self.ref_alloc.alloc(self.now, tile)
        assert new == ref.raw
        return new, ref

    def compact(self):
        # the simulator's walk: rewrite every live VT, then move the epoch
        self.vts = [(n.compacted(self.new_alloc), r.compacted(self.ref_alloc))
                    for n, r in self.vts]
        self.ref_alloc.compact()
        self.compactions += 1
        try:
            self.new_alloc.compact(self.now)
        except WrapAround:
            pass  # one walk made too little room; alloc() walks again

    def lower_bound(self):
        new = self.new_alloc.lower_bound(self.now)
        ref = self.ref_alloc.lower_bound(self.now)
        assert new == ref.raw
        return new, ref

    def pick(self, age):
        """The pair made ``age`` derivations ago (0 = newest), so that
        short sequences still build deep chains."""
        return self.vts[-1 - age % len(self.vts)]

    def apply(self, op):
        """One step. ``op`` is ``(kind, age, (ordering, timestamp), n)``;
        ``n`` is the cycles of a tick, the tile of a dispatch, or the
        budget index of a budget check."""
        kind, age, (ordering, ts), n = op
        if kind == "tick":
            self.now += n
            return
        if kind == "root":
            nlb, rlb = self.lower_bound()
            self.both(lambda: FractalVT.root(ordering, ts, nlb),
                      lambda: RefFractalVT([RefDomainVT(ordering, ts, rlb)]))
            return
        if not self.vts:
            return
        new, ref = self.pick(age)
        if kind in ("same", "sub", "super"):
            nlb, rlb = self.lower_bound()
            rdvt = RefDomainVT(ordering, ts, rlb)
            if kind == "same":
                self.both(lambda: new.child_same_domain(ordering, ts, nlb),
                          lambda: ref.child_same_domain(rdvt))
            elif kind == "sub":
                self.both(lambda: new.child_subdomain(ordering, ts, nlb),
                          lambda: ref.child_subdomain(rdvt))
            else:
                self.both(lambda: new.child_superdomain(ordering, ts, nlb),
                          lambda: ref.child_superdomain(rdvt))
        elif kind == "dispatch":
            ntb, rtb = self.alloc(n % (1 << TILE_BITS))
            # a compaction inside alloc rewrote the pool; re-read the pair
            new, ref = self.pick(age)
            self.both(lambda: new.with_tiebreaker(ntb),
                      lambda: ref.finalized(rtb))
        elif kind == "requeue":
            nlb, rlb = self.lower_bound()
            last = ref.domains[-1]
            self.both(lambda: new.with_tiebreaker(nlb),
                      lambda: ref.child_same_domain(
                          RefDomainVT(last.ordering, last.timestamp, rlb)))
        elif kind == "drop_base":
            self.both(new.drop_base, ref.drop_base)
        elif kind == "with_base":
            self.both(lambda: new.with_base(ordering, ts, 0),
                      lambda: ref.with_base(RefDomainVT(
                          ordering, ts, RefTiebreaker(0))))
        elif kind == "budget":
            budget = BUDGETS[n % len(BUDGETS)]
            try:
                new.check_budget(budget)
            except VTBudgetExceeded:
                with pytest.raises(VTBudgetExceeded):
                    ref.check_budget(budget)
            else:
                ref.check_budget(budget)

    def check(self):
        for new, ref in self.vts:
            assert new.key() == ref.key()
            assert new.depth == ref.depth
            assert new.bits == ref.bits
            assert new.orderings == tuple(d.ordering for d in ref.domains)
            assert (new.final_tiebreaker_saturated()
                    == ref.final_tiebreaker_saturated())
            assert [d.key() for d in new.domains] == list(ref.key())
        for n1, r1 in self.vts:
            for n2, r2 in self.vts:
                assert (n1 < n2) == (r1 < r2)
                assert (n1 <= n2) == (not (r2 < r1))
                assert n1.is_prefix_of(n2) == r1.is_prefix_of(r2)
                assert n1.shares_domain_with(n2) == r1.shares_domain_with(r2)


UNORDERED = (Ordering.UNORDERED, 0)
_domain = st.sampled_from([
    UNORDERED,
    (Ordering.ORDERED_32, 0), (Ordering.ORDERED_32, 1),
    (Ordering.ORDERED_32, 7), (Ordering.ORDERED_32, 2**32 - 1),
    (Ordering.ORDERED_64, 0), (Ordering.ORDERED_64, 3),
    (Ordering.ORDERED_64, 2**64 - 1),
])
# repeated kinds are drawn more often: enough subdomain enqueues to nest
# deep, and enough dispatches after ticks to force compaction walks
_kind = st.sampled_from([
    "tick", "tick", "root", "same", "sub", "sub", "sub", "super", "super",
    "dispatch", "dispatch", "requeue", "drop_base", "with_base", "budget"])
_op = st.tuples(_kind, st.integers(min_value=0, max_value=5), _domain,
                st.integers(min_value=0, max_value=200))


@settings(max_examples=200, deadline=None)
@given(_domain, st.lists(_op, min_size=4, max_size=40))
def test_random_derivations_match_reference(root, ops):
    pair = Pair()
    pair.apply(("root", 0, root, 0))
    for op in ops:
        pair.apply(op)
        pair.check()


def test_compaction_saturates_like_reference():
    """A pinned sequence that saturates ancestor and final tiebreakers."""
    pair = Pair()
    pair.apply(("root", 0, UNORDERED, 0))
    pair.apply(("dispatch", 0, UNORDERED, 1))
    pair.apply(("tick", 0, UNORDERED, 5))
    pair.apply(("sub", 0, (Ordering.ORDERED_32, 9), 0))
    for _ in range(4):
        pair.apply(("tick", 0, UNORDERED, 90))
        pair.apply(("dispatch", 0, UNORDERED, 3))
    pair.check()
    assert pair.compactions >= 1
    saturated = [n for n, _ in pair.vts if n.final_tiebreaker_saturated()]
    assert saturated
