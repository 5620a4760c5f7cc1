"""Domain ordering semantics (paper Sec. 3, Sec. 4.2 / Fig. 10)."""

from __future__ import annotations

import enum

from ..errors import TimestampError

#: Timestamp bits per ordering value (paper Fig. 10).
_TIMESTAMP_BITS = {"unordered": 0, "ordered-32b": 32, "ordered-64b": 64}


class Ordering(enum.Enum):
    """Ordering semantics of a Fractal domain.

    ``UNORDERED`` domains have TM-like semantics: tasks are atomic and
    isolated, and the architecture picks an arbitrary order that respects
    parent-child dependences. ``ORDERED_32`` / ``ORDERED_64`` domains carry
    program-visible timestamps of the given width, and tasks appear to run
    in increasing timestamp order.

    Each member carries its per-ordering constants as plain attributes
    (``is_ordered``, ``timestamp_bits``, ``max_timestamp``, ``vt_bits``):
    VT derivation reads them on every enqueue, where a property chain or
    a dict keyed by the member (Python-level enum ``__hash__``) would cost
    more than the arithmetic they feed.
    """

    UNORDERED = "unordered"
    ORDERED_32 = "ordered-32b"
    ORDERED_64 = "ordered-64b"

    def __init__(self, value: str):
        bits = _TIMESTAMP_BITS[value]
        #: True for timestamp-ordered domains.
        self.is_ordered = bits > 0
        #: Bits the program timestamp contributes to a domain VT (Fig. 10).
        self.timestamp_bits = bits
        #: Largest representable timestamp (0 for unordered domains).
        self.max_timestamp = (1 << bits) - 1
        #: Bits one domain VT of this ordering occupies: the timestamp
        #: plus a 32-bit tiebreaker (Fig. 10).
        self.vt_bits = bits + 32

    def validate_timestamp(self, timestamp) -> int:
        """Check a program timestamp against this ordering; return it.

        Unordered domains must not receive timestamps; ordered domains
        require an integer in ``[0, max_timestamp]``.
        """
        if not self.is_ordered:
            if timestamp is not None:
                raise TimestampError(
                    f"unordered domain takes no timestamp, got {timestamp!r}")
            return 0
        if timestamp is None:
            raise TimestampError(f"{self.value} domain requires a timestamp")
        if not isinstance(timestamp, int) or isinstance(timestamp, bool):
            raise TimestampError(
                f"timestamp must be an int, got {type(timestamp).__name__}")
        if not (0 <= timestamp <= self.max_timestamp):
            raise TimestampError(
                f"timestamp {timestamp} out of range for {self.value}")
        return timestamp
