"""Domain virtual times (paper Sec. 4.2, Fig. 10) — a debug view.

A domain VT orders all tasks within one domain. In an ordered domain it is
the concatenation of the program timestamp (32 or 64 bits) and a tiebreaker;
in an unordered domain it is just a tiebreaker. Tasks that have not been
dispatched yet carry a conservative *lower-bound* tiebreaker (the paper's
unset "--" tiebreaker of Fig. 12) so that GVT computations stay safe.

The simulator never builds these: a :class:`~repro.vt.fractal_vt.FractalVT`
stores each domain VT as its ``(timestamp, tiebreaker)`` key pair plus the
domain's :class:`Ordering`. :attr:`FractalVT.domains` assembles
:class:`DomainVT` objects on demand for inspection and tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..errors import VTError
from .ordering import Ordering
from .tiebreaker import Tiebreaker


@dataclass(frozen=True)
class DomainVT:
    """One domain's contribution to a fractal VT."""

    ordering: Ordering
    timestamp: int = 0          # always 0 for unordered domains
    tiebreaker: Optional[Tiebreaker] = None

    def __post_init__(self):
        if not self.ordering.is_ordered and self.timestamp:
            raise VTError("unordered domain VT cannot carry a timestamp")
        if self.timestamp < 0 or self.timestamp > self.ordering.max_timestamp:
            raise VTError(
                f"timestamp {self.timestamp} out of range for "
                f"{self.ordering.value}")

    @property
    def bits(self) -> int:
        """Bits this domain VT occupies in the hardware format (Fig. 10)."""
        return self.ordering.vt_bits

    def key(self) -> Tuple[int, int]:
        """Sort key: (timestamp, tiebreaker-raw). Unordered domains use a
        zero timestamp so that the key shape is uniform."""
        tb = self.tiebreaker.raw if self.tiebreaker is not None else 0
        return (self.timestamp, tb)

    def __repr__(self) -> str:
        tb = "--" if self.tiebreaker is None else repr(self.tiebreaker)
        if self.ordering.is_ordered:
            return f"{self.timestamp},{tb}"
        return tb
