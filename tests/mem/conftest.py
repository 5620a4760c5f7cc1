"""Shared fixtures for speculative-memory tests: standalone owners and a
minimal context, so the memory subsystem is exercised without a simulator."""

import pytest

from repro.mem import AddressSpace, SpecMemory
from repro.mem.conflicts import PreciseConflictModel


class FakeOwner:
    """A stand-in task attempt with a fixed VT key."""

    def __init__(self, key):
        self._key = key
        self.aborted = False
        self.children = []
        self.parent = None
        self.state = "running"

    def order_key(self):
        return self._key

    def still_executing(self):
        """FakeOwners act as instantaneous (already-finished) tasks unless a
        test flips this flag to model an in-flight writer."""
        return getattr(self, "executing", False)

    def __repr__(self):
        return f"FakeOwner{self._key}"


class FakeCtx:
    """Minimal ctx for the typed data wrappers."""

    def __init__(self, mem, owner):
        self.mem = mem
        self.owner = owner

    def load(self, addr):
        return self.mem.load(self.owner, addr)

    def store(self, addr, value):
        self.mem.store(self.owner, addr, value)


class AbortRecorder:
    """An abort_cascade hook that rolls victims back and records them."""

    def __init__(self, mem):
        self.mem = mem
        self.aborted = []

    def __call__(self, victims, reason):
        cascade = []
        stack = list(victims)
        seen = set()
        while stack:
            v = stack.pop()
            if id(v) in seen:
                continue
            seen.add(id(v))
            cascade.append(v)
            stack.extend(getattr(v, "dependents", ()))
        for v in sorted(cascade, key=lambda o: o.order_key(), reverse=True):
            v.aborted = True
            self.mem.rollback(v)
            self.aborted.append(v)


def oracle_victims(live, owner, line, is_write):
    """Brute-force true-conflict victims of an access, from every live
    owner's footprint sets and VT keys (never from the memory's indices):
    later-VT owners that wrote the line, plus, for a store, those that
    read it."""
    key = owner.order_key()
    return {o for o in live
            if o is not owner and o.order_key() > key
            and (line in o.write_lines or (is_write and line in o.read_lines))}


def oracle_blocked(live, owner, line):
    """Whether an earlier-VT writer of the line is still executing (the
    accessor must then abort and retry)."""
    key = owner.order_key()
    return any(o is not owner and line in o.write_lines
               and o.order_key() < key and o.still_executing()
               for o in live)


class OracleMemory(SpecMemory):
    """A SpecMemory that checks every load and store against the oracle
    above and fails the test on the first access whose direct aborts
    differ from it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.live = {}          # attached, not yet committed or rolled back
        self._calls = None      # (victims, reason) of the current access

    def attach_owner(self, owner):
        super().attach_owner(owner)
        self.live[owner] = None

    def detach_owner(self, owner):
        self.live.pop(owner, None)
        super().detach_owner(owner)

    def _abort(self, victims, reason):
        if self._calls is not None:
            self._calls.append((list(victims), reason))
        super()._abort(victims, reason)

    def load(self, owner, addr):
        return self._checked(owner, addr, False, super().load, ())

    def store(self, owner, addr, value):
        return self._checked(owner, addr, True, super().store, (value,))

    def _checked(self, owner, addr, is_write, access, extra):
        line = self.space.line_of(addr)
        want = oracle_victims(self.live, owner, line, is_write)
        want_blocked = oracle_blocked(self.live, owner, line)
        self._calls = calls = []
        try:
            result = access(owner, addr, *extra)
        finally:
            self._calls = None
        got = [v for victims, reason in calls
               if reason in ("read-write conflict", "write conflict")
               for v in victims]
        blocked = any(reason == "access during earlier writer"
                      for _, reason in calls)
        kind = "store" if is_write else "load"
        assert len(got) == len(set(got)), f"{kind} {addr}: duplicate victims"
        assert set(got) == want, (
            f"{kind} {addr} by {owner!r}: aborted {got}, oracle {want}")
        assert blocked == want_blocked, (
            f"{kind} {addr} by {owner!r}: blocked={blocked}, "
            f"oracle {want_blocked}")
        return result


@pytest.fixture
def space():
    return AddressSpace(line_bytes=64, n_tiles=4)


@pytest.fixture(params=["fast", "scalar", "audit"])
def mem(request, space):
    """Every memory test runs three ways:

    - ``fast`` — the memory as the simulator builds it (power-of-two
      lines map words by shift);
    - ``scalar`` — lines mapped through ``AddressSpace.line_of``, the
      path non-power-of-two line sizes take;
    - ``audit`` — an :class:`OracleMemory`, so each access is also
      checked against the brute-force victim oracle as the test runs.
    """
    if request.param == "audit":
        m = OracleMemory(space, PreciseConflictModel())
    else:
        m = SpecMemory(space, PreciseConflictModel())
        if request.param == "scalar":
            m._line_shift = None
    m.abort_cascade = AbortRecorder(m)
    return m


@pytest.fixture
def owner_factory(mem):
    def make(key):
        o = FakeOwner((key,))
        mem.attach_owner(o)
        return o
    return make
