"""The hot-path profile document (``repro profile``)."""

from repro.apps import mis
from repro.bench.harness import run_app
from repro.telemetry import (PROFILE_SCHEMA, MetricsRegistry,
                             collect_profile, fold_into_registry,
                             format_profile)


def _profile():
    run = run_app(mis, mis.make_input(scale=5, edge_factor=4),
                  variant="fractal", n_cores=4)
    return collect_profile(run.sim, wall_s=0.5)


def test_profile_keeps_every_key_the_benchmark_reads():
    """e2ebench/run.py's traced run reads these keys from every job's
    profile; dropping one breaks the benchmark."""
    prof = _profile()
    assert prof["schema"] == PROFILE_SCHEMA
    assert isinstance(prof["events"], int) and prof["events"] > 0
    for key in ("accesses", "fast_hits", "epoch_bumps", "true_conflicts"):
        assert isinstance(prof["memory"][key], int), key
    assert prof["memory"]["accesses"] > 0
    assert isinstance(prof["conflict_model"]["false_positives"], int)
    for key in ("queries", "scan_steps"):
        assert isinstance(prof["gvt"][key], int), key


def test_profile_folds_and_renders():
    prof = _profile()
    metrics = MetricsRegistry()
    fold_into_registry(metrics, prof)
    assert metrics.counter("profile_mem_probe_steps").value == \
        prof["memory"]["probe_steps"]
    text = format_profile(prof)
    assert "conflict checks" in text and "wall clock" in text
