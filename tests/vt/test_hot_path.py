"""Guard: simulating builds no per-domain VT objects.

A fractal VT is its key tuple; :class:`DomainVT` and :class:`Tiebreaker`
are debug views only. A derivation that builds one per enqueue or
dispatch again would put object construction back on the simulator's hot
path; these runs count constructions and require none.
"""

import pytest

from repro.apps import maxflow, zoomtree
from repro.bench.harness import run_app
from repro.config import SystemConfig
from repro.vt import DomainVT, Tiebreaker


@pytest.fixture
def built(monkeypatch):
    """Count DomainVT and Tiebreaker constructions."""
    counts = {"DomainVT": 0, "Tiebreaker": 0}
    post_init = DomainVT.__post_init__
    tb_init = Tiebreaker.__init__

    def counting_post_init(self):
        counts["DomainVT"] += 1
        post_init(self)

    def counting_init(self, *args, **kwargs):
        counts["Tiebreaker"] += 1
        tb_init(self, *args, **kwargs)

    monkeypatch.setattr(DomainVT, "__post_init__", counting_post_init)
    monkeypatch.setattr(Tiebreaker, "__init__", counting_init)
    return counts


def test_counters_see_a_debug_view(built):
    from repro.vt import FractalVT, Ordering
    FractalVT.root(Ordering.UNORDERED, 0, 16).domains
    assert built == {"DomainVT": 1, "Tiebreaker": 1}


def test_maxflow_builds_no_domain_objects(built):
    inp = maxflow.make_input(b=3, layers=3)
    run = run_app(maxflow, inp, variant="fractal", n_cores=4)
    maxflow.check(run.handles, inp)
    assert run.stats.tasks_committed > 0
    assert built == {"DomainVT": 0, "Tiebreaker": 0}


def test_zooming_run_builds_no_domain_objects(built):
    inp = zoomtree.make_input(fanout=2, depth=5)
    cfg = SystemConfig.with_cores(8, vt_bits=zoomtree.vt_bits_for_depth(2),
                                  conflict_mode="precise")
    run = run_app(zoomtree, inp, variant="fractal", n_cores=8, config=cfg,
                  max_cycles=80_000_000)
    zoomtree.check(run.handles, inp)
    assert run.stats.zoom_ins > 0 and run.stats.zoom_outs > 0
    assert built == {"DomainVT": 0, "Tiebreaker": 0}
