"""Fractal virtual times (paper Sec. 4.2, Figs. 11-12).

A fractal VT is the concatenation of one domain VT per enclosing domain,
compared lexicographically with right-zero-padding: a task's VT is a strict
prefix of every VT in the subdomain it creates, so the creator orders
immediately before its subdomain's tasks, and the whole subdomain orders
before any later task outside it. This single total order is what lets the
architecture enforce Fractal's cross-domain atomicity with plain fine-grain
(per-task) speculation.

Representation: in hardware a fractal VT is one word compared as a whole.
Here it is its sort key — a tuple of ``(timestamp, tiebreaker)`` int pairs,
one per domain, outermost first — plus the per-depth :class:`Ordering`\\ s
and the running bit count the budget check needs. Every derivation is a
tuple slice; no per-domain object is built. Tuples rather than one packed
int, because tuple comparison gives the prefix order by construction,
while a left-aligned int would need a fixed width that zoom-out
(:meth:`FractalVT.with_base`) can exceed, and would make a prefix equal to
its zero-padded extension. :attr:`FractalVT.domains` rebuilds
:class:`DomainVT` views on demand for inspection.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from ..errors import VTBudgetExceeded, VTError
from .domain_vt import DomainVT
from .ordering import Ordering
from .tiebreaker import Tiebreaker


class FractalVT:
    """An immutable fractal VT: sort key, per-depth orderings, bit count.

    ``FractalVT(key, orderings, bits)`` takes the parts as they are; build
    a VT with :meth:`root` or :meth:`from_domains` and derive the rest.
    """

    __slots__ = ("_key", "orderings", "bits")

    def __init__(self, key: Tuple[Tuple[int, int], ...],
                 orderings: Tuple[Ordering, ...], bits: int):
        self._key = key
        #: the :class:`Ordering` of each enclosing domain, outermost first
        self.orderings = orderings
        #: hardware bits this VT occupies (paper: 128-bit budget)
        self.bits = bits

    @classmethod
    def root(cls, ordering: Ordering, timestamp: int,
             tiebreaker: int) -> "FractalVT":
        """A one-domain VT (a root-domain task)."""
        return cls(((timestamp, tiebreaker),), (ordering,), ordering.vt_bits)

    @classmethod
    def from_domains(cls, domains: Iterable[DomainVT]) -> "FractalVT":
        """The VT concatenating ``domains`` (inverse of :attr:`domains`)."""
        domains = tuple(domains)
        if not domains:
            raise VTError("a fractal VT needs at least one domain VT")
        return cls(tuple(d.key() for d in domains),
                   tuple(d.ordering for d in domains),
                   sum(d.bits for d in domains))

    # --- ordering -------------------------------------------------------
    def key(self) -> tuple:
        """Lexicographic sort key. Python's tuple comparison makes a strict
        prefix sort before its extensions, which implements the paper's
        right-zero-padding (domain VT keys are never all-zero once a real
        or lower-bound tiebreaker is set, because relative dispatch cycles
        start at 1)."""
        return self._key

    def __lt__(self, other: "FractalVT") -> bool:
        return self._key < other._key

    def __le__(self, other: "FractalVT") -> bool:
        return self._key <= other._key

    def __eq__(self, other) -> bool:
        return isinstance(other, FractalVT) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    # --- structure -------------------------------------------------------
    @property
    def depth(self) -> int:
        """Number of enclosing domains (1 = root-domain task)."""
        return len(self._key)

    @property
    def domains(self) -> Tuple[DomainVT, ...]:
        """Debug view: one :class:`DomainVT` per enclosing domain."""
        return tuple(DomainVT(o, ts, Tiebreaker(tb))
                     for o, (ts, tb) in zip(self.orderings, self._key))

    def fits(self, budget_bits: int) -> bool:
        """True when this VT fits the hardware bit budget."""
        return self.bits <= budget_bits

    def check_budget(self, budget_bits: int) -> "FractalVT":
        """Return self, or raise :class:`VTBudgetExceeded` when over budget."""
        if self.bits > budget_bits:
            raise VTBudgetExceeded(
                f"fractal VT needs {self.bits} bits > budget {budget_bits}; "
                f"zooming required")
        return self

    def is_prefix_of(self, other: "FractalVT") -> bool:
        """True when ``self`` is a strict prefix of ``other`` — i.e. ``other``
        lives in a domain (transitively) created by ``self``'s task."""
        n = len(self._key)
        return n < len(other._key) and other._key[:n] == self._key

    def shares_domain_with(self, other: "FractalVT") -> bool:
        """True when both tasks live in the same domain (same depth and
        identical prefix above the final domain VT)."""
        return (len(self._key) == len(other._key)
                and self._key[:-1] == other._key[:-1])

    # --- derivation (enqueue rules, paper Sec. 4.2) -----------------------
    # Each takes the new domain VT as (ordering, timestamp, raw tiebreaker);
    # the timestamp is 0 in unordered domains.
    def child_same_domain(self, ordering: Ordering, timestamp: int,
                          tiebreaker: int) -> "FractalVT":
        """VT for a child enqueued to the caller's own domain: keep
        everything above the final domain VT, replace the final one."""
        orderings = self.orderings
        return FractalVT(self._key[:-1] + ((timestamp, tiebreaker),),
                         orderings[:-1] + (ordering,),
                         self.bits - orderings[-1].vt_bits + ordering.vt_bits)

    def child_subdomain(self, ordering: Ordering, timestamp: int,
                        tiebreaker: int) -> "FractalVT":
        """VT for a child enqueued to the caller's subdomain: the caller's
        full fractal VT with the child's domain VT appended."""
        return FractalVT(self._key + ((timestamp, tiebreaker),),
                         self.orderings + (ordering,),
                         self.bits + ordering.vt_bits)

    def child_superdomain(self, ordering: Ordering, timestamp: int,
                          tiebreaker: int) -> "FractalVT":
        """VT for a child enqueued to the caller's superdomain: drop the
        caller's final two domain VTs, append the child's."""
        orderings = self.orderings
        if len(orderings) < 2:
            raise VTError("root-domain tasks have no superdomain")
        return FractalVT(self._key[:-2] + ((timestamp, tiebreaker),),
                         orderings[:-2] + (ordering,),
                         self.bits - orderings[-1].vt_bits
                         - orderings[-2].vt_bits + ordering.vt_bits)

    def with_tiebreaker(self, tiebreaker: int) -> "FractalVT":
        """This VT with the final domain VT's tiebreaker replaced: by the
        allocated one at dispatch, or by a fresh lower bound when an
        aborted or released task is re-queued."""
        key = self._key
        return FractalVT(key[:-1] + ((key[-1][0], tiebreaker),),
                         self.orderings, self.bits)

    # --- zooming (paper Sec. 4.3) ----------------------------------------
    def drop_base(self) -> "FractalVT":
        """Zoom-in shift: remove the (common) base domain VT."""
        orderings = self.orderings
        if len(orderings) < 2:
            raise VTError("cannot drop the only domain VT")
        return FractalVT(self._key[1:], orderings[1:],
                         self.bits - orderings[0].vt_bits)

    def with_base(self, ordering: Ordering, timestamp: int,
                  tiebreaker: int) -> "FractalVT":
        """Zoom-out shift: prepend a restored base domain VT."""
        return FractalVT(((timestamp, tiebreaker),) + self._key,
                         (ordering,) + self.orderings,
                         self.bits + ordering.vt_bits)

    # --- tiebreaker compaction (paper Sec. 4.4) ----------------------------
    def compacted(self, allocator) -> "FractalVT":
        """This VT after one tiebreaker compaction walk (paper Sec. 4.4)."""
        compact = allocator.compacted
        return FractalVT(tuple((ts, compact(tb)) for ts, tb in self._key),
                         self.orderings, self.bits)

    def final_tiebreaker_saturated(self) -> bool:
        """True when compaction zeroed our own tiebreaker (abort condition)."""
        return self._key[-1][1] == 0

    def __repr__(self) -> str:
        # same text as " | ".join(map(repr, self.domains)), without
        # building the views (task reprs feed exception messages)
        return " | ".join(f"{ts},#{tb}" if o.is_ordered else f"#{tb}"
                          for o, (ts, tb) in zip(self.orderings, self._key))
