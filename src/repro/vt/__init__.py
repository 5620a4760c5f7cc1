"""Fractal virtual times (paper Sec. 4.2).

A task's *fractal VT* is the concatenation of one *domain VT* per enclosing
domain. Domain VTs combine an optional program timestamp (32 or 64 bits)
with a dispatch-time *tiebreaker*; comparing fractal VTs lexicographically
yields a total order that enforces Fractal's cross-domain atomicity.

Public API:

- :class:`Ordering` — domain ordering semantics (unordered / 32b / 64b).
- :class:`TiebreakerAllocator` — raw (cycle || tile) tiebreakers with
  wrap-around compaction (paper Sec. 4.4).
- :class:`FractalVT` — the fractal VT as its sort key, with per-depth
  orderings and budget-checked bit accounting.
- :class:`DomainVT` / :class:`Tiebreaker` — debug views of one domain VT
  and one tiebreaker value (see :attr:`FractalVT.domains`).
"""

from .ordering import Ordering
from .tiebreaker import Tiebreaker, TiebreakerAllocator
from .domain_vt import DomainVT
from .fractal_vt import FractalVT

__all__ = [
    "Ordering",
    "Tiebreaker",
    "TiebreakerAllocator",
    "DomainVT",
    "FractalVT",
]
