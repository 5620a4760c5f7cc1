"""Tests for fractal VT construction and comparison (paper Sec. 4.2)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import VTBudgetExceeded, VTError
from repro.vt import DomainVT, FractalVT, Ordering, Tiebreaker, TiebreakerAllocator


def tb(cycle, tile=0):
    alloc = TiebreakerAllocator(width=32, tile_bits=8)
    return alloc.alloc(cycle, tile)


def dvt(ordering=Ordering.UNORDERED, ts=0, cycle=1, tile=0):
    """One domain VT as the (ordering, timestamp, raw tiebreaker) triple
    the derivations take."""
    return (ordering, ts if ordering.is_ordered else 0, tb(cycle, tile))


def vt(*parts):
    """The fractal VT nesting ``parts`` (outermost first)."""
    out = FractalVT.root(*parts[0])
    for part in parts[1:]:
        out = out.child_subdomain(*part)
    return out


class TestDomainVT:
    def test_bits_match_figure_10(self):
        assert DomainVT(Ordering.UNORDERED, 0, Tiebreaker(tb(1))).bits == 32
        assert DomainVT(Ordering.ORDERED_32, 5, Tiebreaker(tb(1))).bits == 64
        assert DomainVT(Ordering.ORDERED_64, 5, Tiebreaker(tb(1))).bits == 96

    def test_unordered_cannot_carry_timestamp(self):
        with pytest.raises(VTError):
            DomainVT(Ordering.UNORDERED, 3, Tiebreaker(tb(1)))

    def test_key_orders_timestamp_before_tiebreaker(self):
        early = DomainVT(Ordering.ORDERED_32, 1, Tiebreaker(tb(100)))
        late = DomainVT(Ordering.ORDERED_32, 2, Tiebreaker(tb(1)))
        assert early.key() < late.key()

    def test_domains_view_round_trips(self):
        v = vt(dvt(cycle=45, tile=2), dvt(Ordering.ORDERED_64, 1, 51, 4))
        views = v.domains
        assert [d.key() for d in views] == list(v.key())
        assert [d.ordering for d in views] == list(v.orderings)
        back = FractalVT.from_domains(views)
        assert back == v and back.bits == v.bits
        assert repr(v) == " | ".join(repr(d) for d in views)


class TestFractalVTOrdering:
    def test_paper_figure_12_order(self):
        """B (45:2) < F (45:2 | 1,51:4) < G (45:2 | 2,71:5) < M (78:6 | ...)."""
        b = vt(dvt(cycle=45, tile=2))
        f = vt(dvt(cycle=45, tile=2), dvt(Ordering.ORDERED_64, 1, 51, 4))
        g = vt(dvt(cycle=45, tile=2), dvt(Ordering.ORDERED_64, 2, 71, 5))
        m = vt(dvt(cycle=78, tile=6), dvt(cycle=80, tile=0))
        assert b < f < g < m

    def test_creator_precedes_its_subdomain(self):
        creator = vt(dvt(cycle=10))
        child = creator.child_subdomain(*dvt(cycle=11))
        assert creator < child
        assert creator.is_prefix_of(child)

    def test_whole_subdomain_precedes_later_outside_task(self):
        creator = vt(dvt(cycle=10))
        later = vt(dvt(cycle=20))
        deep = creator.child_subdomain(*dvt(cycle=999))
        deeper = deep.child_subdomain(*dvt(cycle=10**6))
        assert creator < deep < deeper < later

    def test_same_domain_child_replaces_last(self):
        parent = vt(dvt(cycle=5), dvt(cycle=6))
        child = parent.child_same_domain(*dvt(cycle=9))
        assert child.depth == parent.depth
        assert parent < child

    def test_superdomain_child_drops_two(self):
        v = vt(dvt(cycle=1), dvt(cycle=2), dvt(cycle=3))
        child = v.child_superdomain(*dvt(cycle=9))
        assert child.depth == 2

    def test_superdomain_from_root_fails(self):
        with pytest.raises(VTError):
            vt(dvt(cycle=1)).child_superdomain(*dvt(cycle=2))

    def test_shares_domain_with(self):
        a = vt(dvt(cycle=1), dvt(cycle=2))
        b = a.child_same_domain(*dvt(cycle=3))
        c = a.child_subdomain(*dvt(cycle=4))
        assert a.shares_domain_with(b)
        assert not a.shares_domain_with(c)

    def test_with_tiebreaker_replaces_final_tiebreaker_only(self):
        v = vt(dvt(cycle=1), dvt(Ordering.ORDERED_32, 7, 2))
        w = v.with_tiebreaker(tb(40, 3))
        assert w.key() == v.key()[:-1] + ((7, tb(40, 3)),)
        assert (w.orderings, w.bits) == (v.orderings, v.bits)


class TestBudget:
    def test_bits_accumulate(self):
        v = vt(dvt(Ordering.ORDERED_64, ts=1), dvt(Ordering.UNORDERED))
        assert v.bits == 96 + 32

    def test_budget_enforced(self):
        v = vt(*[dvt() for _ in range(4)])  # 128 bits
        assert v.fits(128)
        with pytest.raises(VTBudgetExceeded):
            v.child_subdomain(*dvt()).check_budget(128)

    def test_empty_vt_rejected(self):
        with pytest.raises(VTError):
            FractalVT.from_domains([])


class TestZoomShifts:
    def test_drop_base_preserves_relative_order(self):
        base = dvt(cycle=7)
        a = vt(base, dvt(cycle=10), dvt(cycle=1))
        b = vt(base, dvt(cycle=10), dvt(cycle=2))
        c = vt(base, dvt(cycle=11))
        assert (a < b) == (a.drop_base() < b.drop_base())
        assert (a < c) == (a.drop_base() < c.drop_base())

    def test_with_base_inverts_drop_base(self):
        base = dvt(cycle=7)
        v = vt(base, dvt(cycle=10))
        assert v.drop_base().with_base(*base) == v

    def test_restored_zero_tiebreaker_sorts_before_real(self):
        restored = (Ordering.UNORDERED, 0, 0)
        spilled = dvt(cycle=78, tile=6)
        inner = vt(restored, dvt(cycle=50))
        outer = vt(spilled)
        assert inner < outer

    def test_cannot_drop_only_domain(self):
        with pytest.raises(VTError):
            vt(dvt()).drop_base()


# --- property-based: lexicographic order is a strict total order ---------

_dvt_strategy = st.tuples(
    st.sampled_from([Ordering.UNORDERED, Ordering.ORDERED_32]),
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=0, max_value=3),
).map(lambda t: (t[0], t[1] if t[0].is_ordered else 0, (t[2] << 8) | t[3]))

_vt_strategy = st.lists(_dvt_strategy, min_size=1, max_size=4).map(
    lambda parts: vt(*parts))


@given(_vt_strategy, _vt_strategy, _vt_strategy)
def test_total_order_properties(a, b, c):
    assert (a < b) or (b < a) or (a.key() == b.key())
    if a < b and b < c:
        assert a < c
    assert not (a < a)


@given(_vt_strategy, _dvt_strategy)
def test_children_sort_after_parent(parent, child_dvt):
    assert parent < parent.child_subdomain(*child_dvt)


@given(_vt_strategy, _vt_strategy, _dvt_strategy)
def test_drop_base_monotone(a, b, extra):
    """Dropping a shared base preserves strict order."""
    base = extra
    wa, wb = a.with_base(*base), b.with_base(*base)
    assert (wa < wb) == (a < b)
