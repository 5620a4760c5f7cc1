"""The benchmark's own arithmetic: percentiles, normalization, error
accounting and the source-path -> layer map.

Pure functions of their inputs, so ``e2ebench/tests`` can check them
without running a simulation.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: a percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10

#: modules outside their package's layer: the GVT frontier is VT work
VT_MODULES = ("arch/frontier.py", "arch/gvt.py")


def percentile_eligible(n_samples: int, p: float) -> bool:
    """True when at least :data:`MIN_BEYOND` of ``n_samples`` lie beyond
    the ``p``-th percentile (p50 needs 20 samples, p99 needs 1000)."""
    if not 0 < p < 100:
        raise ValueError(f"percentile must be in (0, 100), got {p}")
    return n_samples * (100 - p) >= MIN_BEYOND * 100 - 1e-9


def percentile(values: Sequence[float], p: float) -> Optional[float]:
    """The nearest-rank ``p``-th percentile, or None when too few samples
    lie beyond it to report it."""
    if not percentile_eligible(len(values), p):
        return None
    ordered = sorted(values)
    return ordered[math.ceil(p / 100 * len(ordered)) - 1]


def wall_norm(wall_s: float, calib_s: Iterable[float]) -> float:
    """Wall time in units of the reference kernel: ``wall_s`` over the
    mean of the kernel times measured around it."""
    calib = list(calib_s)
    if not calib or min(calib) <= 0:
        raise ValueError("wall_norm needs positive kernel times")
    return wall_s / statistics.fmean(calib)


class ErrorLedger:
    """Attempted / failed operation counts plus one message per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def record(self, ok: bool, what: str = "") -> bool:
        """Count one operation; a failed one keeps ``what`` as its
        message. Returns ``ok``."""
        self.attempted += 1
        if not ok:
            self.failures.append(what or "operation failed")
        return ok

    def fail(self, what: str) -> None:
        """A failure found after the operation was counted (a determinism
        mismatch across repetitions): it adds a failure, not an attempt."""
        self.failures.append(what)

    @property
    def error_rate(self) -> float:
        if self.attempted == 0:
            return 0.0
        return min(self.failed, self.attempted) / self.attempted


def layer_of(path: str) -> str:
    """The layer a source file belongs to: its ``repro`` subpackage
    (``core``, ``mem``, ...), the module name for top-level modules
    (``cli``, ``config``), ``vt`` for the GVT frontier modules, and
    ``other`` outside ``repro``."""
    norm = path.replace("\\", "/")
    marker = "/repro/"
    at = norm.rfind(marker)
    if at < 0:
        return "other"
    rel = norm[at + len(marker):]
    if rel in VT_MODULES:
        return "vt"
    head = rel.split("/", 1)[0]
    return head[:-3] if head.endswith(".py") else head


def group_profile(stats: Dict) -> Dict[str, Dict[str, float]]:
    """Self time and call counts per layer from a ``pstats.Stats.stats``
    mapping ``(file, line, name) -> (cc, nc, tt, ct, callers)``.

    Built-in functions count as ``other``. Generated Python code without
    a source file (dataclass ``__init__`` / ``__eq__``) takes the layer
    of the only source file it calls into, else that of the caller that
    called it most, so a ``DomainVT`` constructor counts as ``vt`` time.
    """
    callees: Dict[Tuple, set] = {}
    for func, (_cc, _nc, _tt, _ct, callers) in stats.items():
        for caller in callers:
            callees.setdefault(caller, set()).add(func)

    def real(func) -> bool:
        return not func[0].startswith(("<", "~"))

    def resolve(func) -> str:
        if real(func):
            return layer_of(func[0])
        if func[0] == "~":
            return "other"
        layers = {layer_of(c[0]) for c in callees.get(func, ()) if real(c)}
        if len(layers) == 1:
            return layers.pop()
        callers = [(counts[1], c) for c, counts in stats[func][4].items()
                   if real(c)]
        if callers:
            return layer_of(max(callers)[1][0])
        return "other"

    out: Dict[str, Dict[str, float]] = {}
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        row = out.setdefault(resolve(func), {"self_s": 0.0, "calls": 0})
        row["self_s"] += tt
        row["calls"] += nc
    return out


def calls_to(stats: Dict, file_suffix: str, name: str) -> int:
    """Primitive call count of the function ``name`` defined in a file
    ending with ``file_suffix`` (0 when it never ran)."""
    return sum(nc for (path, _line, fn), (_cc, nc, *_rest) in stats.items()
               if fn == name and path.replace("\\", "/").endswith(
                   file_suffix))
