"""The incremental GVT frontier against the reference linear scan.

``Simulator._compute_gvt`` answers from the per-depth frontier index
(:class:`repro.arch.gvt.GvtFrontier`); ``_compute_gvt_linear`` recomputes
the same bound by scanning every live task. These runs check the two on
every GVT query across the paths that rewrite VTs globally: zoom-ins and
zoom-outs, tiebreaker wrap-around compaction, and a nested ordered
subdomain under write contention.
"""

import pytest

from repro.apps import maxflow, zoomtree
from repro.bench.harness import run_app
from repro.config import SystemConfig
from repro.core.simulator import Simulator


@pytest.fixture
def gvt_queries(monkeypatch):
    """Cross-check every GVT query; yields the running query count."""
    queries = []
    indexed = Simulator._compute_gvt

    def checked(sim):
        best = indexed(sim)
        ref = sim._compute_gvt_linear(sim.alloc.lower_bound(sim.now))
        assert best == ref, (f"GVT frontier divergence at cycle {sim.now}: "
                             f"indexed={best!r} linear={ref!r}")
        queries.append(sim.now)
        return best

    monkeypatch.setattr(Simulator, "_compute_gvt", checked)
    return queries


def test_zooming_run(gvt_queries):
    inp = zoomtree.make_input(fanout=3, depth=5)
    cfg = SystemConfig.with_cores(4, vt_bits=zoomtree.vt_bits_for_depth(2),
                                  conflict_mode="precise")
    run = run_app(zoomtree, inp, variant="fractal", n_cores=4, config=cfg,
                  max_cycles=80_000_000)
    zoomtree.check(run.handles, inp)
    assert run.stats.zoom_ins > 0 and run.stats.zoom_outs > 0
    assert gvt_queries


def test_compacting_run(gvt_queries):
    # 14-bit tiebreakers on 4 cores leave 10 cycle bits: a compaction
    # walk every ~512 cycles, hundreds of them over this run
    inp = maxflow.make_input(b=3, layers=3)
    cfg = SystemConfig.with_cores(4, tiebreaker_bits=14,
                                  conflict_mode="precise")
    run = run_app(maxflow, inp, variant="fractal", n_cores=4, config=cfg)
    maxflow.check(run.handles, inp)
    assert run.stats.tiebreaker_wraparounds > 100
    assert gvt_queries


def test_maxflow_run(gvt_queries):
    inp = maxflow.make_input(b=3, layers=3)
    run = run_app(maxflow, inp, variant="fractal", n_cores=4)
    maxflow.check(run.handles, inp)
    assert gvt_queries
