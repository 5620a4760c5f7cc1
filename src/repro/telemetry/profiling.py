"""Hot-path profiling: frontier-scan and conflict-probe counters.

The simulator core keeps raw (non-registry) counters on its hot-path
structures — the GVT frontier and per-queue stripped indexes count heap
entries examined per minimum query, the speculative memory counts
candidate owners examined per conflict check, and the Bloom model counts
live tasks walked per false-positive sample. They are plain ints bumped
inline, deliberately **outside** the metrics registry so vanilla runs
export byte-identical metrics to older versions (the same discipline as
the resilience counters); ``repro profile`` gathers them after a run,
folds them into the registry, and renders the report below.

The counters double as the regression surface for CI's perf-smoke job:
scan/probe work per event is a deterministic property of the run, so a
pinned ceiling catches an accidental return to linear scanning even on a
noisy machine where wall-clock alone could not.
"""

from __future__ import annotations

from typing import Dict, Optional

#: JSON schema tag for exported profiles (v3 drops the memory-engine and
#: Bloom-bank counters; ``memory.fast_hits``/``epoch_bumps`` stay as 0)
PROFILE_SCHEMA = "repro.hot-path-profile/3"


def collect_profile(sim, wall_s: Optional[float] = None) -> Dict:
    """Gather hot-path counters from a finished simulator into one doc."""
    frontier = sim._frontier
    dyn = frontier._dyn
    queue_scans = 0
    queue_queries = 0
    for tile in sim.tiles:
        idx = tile.unit._stripped_idx
        queue_scans += idx.scan_steps
        queue_queries += idx.queries
    mem = sim.memory
    accesses = mem.n_loads + mem.n_stores
    gvt_queries = frontier.queries
    gvt_scans = frontier.scan_steps + dyn.scan_steps
    conflict_probes = getattr(sim.conflicts, "probe_steps", 0)
    doc = {
        "schema": PROFILE_SCHEMA,
        "name": sim.stats.name,
        "n_cores": sim.stats.n_cores,
        "makespan": sim.now,
        "events": sim._event_seq,
        "gvt": {
            "queries": gvt_queries,
            "scan_steps": gvt_scans,
            "mean_scan_len": gvt_scans / gvt_queries if gvt_queries else 0.0,
        },
        "queues": {
            "queries": queue_queries,
            "scan_steps": queue_scans,
            "mean_scan_len": (queue_scans / queue_queries
                              if queue_queries else 0.0),
        },
        "memory": {
            "accesses": accesses,
            "probe_steps": mem.probe_steps,
            "mean_probe_len": mem.probe_steps / accesses if accesses else 0.0,
            "true_conflicts": mem.n_true_conflicts,
            # always 0 since the memory has one (unmemoized) probe path;
            # kept because e2ebench/run.py reads both keys
            "fast_hits": 0,
            "epoch_bumps": 0,
        },
        "conflict_model": {
            "model": getattr(sim.conflicts, "name", "?"),
            "probe_steps": conflict_probes,
            "false_positives": getattr(sim.conflicts, "false_positives", 0),
        },
        "tiebreaker_wraparounds": sim.alloc.wraparounds,
    }
    if wall_s is not None:
        doc["wall_s"] = wall_s
    return doc


def fold_into_registry(metrics, profile: Dict) -> None:
    """Export the profile counters through the metrics registry.

    Called only by ``repro profile`` — vanilla runs must not see these
    names, so metric exports stay byte-identical when profiling is off.
    """
    metrics.counter("profile_gvt_queries").value = \
        profile["gvt"]["queries"]
    metrics.counter("profile_gvt_scan_steps").value = \
        profile["gvt"]["scan_steps"]
    metrics.counter("profile_queue_scan_steps").value = \
        profile["queues"]["scan_steps"]
    metrics.counter("profile_mem_probe_steps").value = \
        profile["memory"]["probe_steps"]
    metrics.counter("profile_conflict_probe_steps").value = \
        profile["conflict_model"]["probe_steps"]


def format_profile(profile: Dict) -> str:
    """Human-readable hot-path report."""
    g, q, m, c = (profile["gvt"], profile["queues"], profile["memory"],
                  profile["conflict_model"])
    lines = [
        f"hot-path profile: {profile['name']} "
        f"@ {profile['n_cores']} cores "
        f"({profile['makespan']:,} cycles, {profile['events']:,} events)",
        "",
        f"  GVT frontier     {g['queries']:>12,} queries   "
        f"{g['scan_steps']:>12,} heap entries examined   "
        f"(mean {g['mean_scan_len']:.2f}/query)",
        f"  queue indexes    {q['queries']:>12,} queries   "
        f"{q['scan_steps']:>12,} heap entries examined   "
        f"(mean {q['mean_scan_len']:.2f}/query)",
        f"  conflict checks  {m['accesses']:>12,} accesses  "
        f"{m['probe_steps']:>12,} candidate owners probed "
        f"(mean {m['mean_probe_len']:.2f}/access)",
        f"  {c['model']:<6} sampling   "
        f"{c['probe_steps']:>12,} live tasks walked   "
        f"{c['false_positives']:>12,} false positives",
        f"  true conflicts   {m['true_conflicts']:>12,}    "
        f"tiebreaker wraparounds {profile['tiebreaker_wraparounds']}",
    ]
    if "wall_s" in profile:
        lines.append(f"  wall clock       {profile['wall_s']:>12.3f} s")
    return "\n".join(lines)


def _metric_total(metrics: Dict, name: str, **labels) -> int:
    """Sum a snapshot counter's rows, optionally filtered by labels."""
    total = 0
    for row in metrics.get("counters", ()):
        if row.get("name") != name:
            continue
        r_labels = row.get("labels", {})
        if all(r_labels.get(k) == v for k, v in labels.items()):
            total += row.get("value", 0)
    return total


def format_serve_profile(doc: Dict) -> str:
    """Render a serve ``/metrics`` document (``repro profile --serve``).

    ``doc`` is the JSON body of ``GET /metrics``: a ``serve`` summary
    (tenants, jobs, cache) plus the manager's metrics snapshot with the
    ``serve.*`` counters.
    """
    serve = doc.get("serve", {})
    metrics = doc.get("metrics", {})
    jobs = serve.get("jobs", {})
    lines = [
        f"serve profile: up {serve.get('uptime_s', 0.0):,.1f}s, "
        f"{serve.get('workers', '?')} workers"
        + (", DRAINING" if serve.get("draining") else ""),
        "",
        f"  jobs             {jobs.get('total', 0):>8,} known   "
        f"{jobs.get('queued', 0):>6,} queued  "
        f"{jobs.get('running', 0):>6,} running  "
        f"{jobs.get('done', 0):>6,} done  "
        f"{jobs.get('failed', 0):>6,} failed",
        f"  submissions      {_metric_total(metrics, 'serve.submissions'):>8,} "
        f"accepted   "
        f"{_metric_total(metrics, 'serve.coalesced_submissions'):>6,} "
        f"coalesced  "
        f"{_metric_total(metrics, 'serve.warm_hits'):>6,} warm hits",
        f"  admission        "
        f"{_metric_total(metrics, 'serve.admission_reject', reason='rate'):>8,} "
        f"rate rejects   "
        f"{_metric_total(metrics, 'serve.admission_reject', reason='queue'):>6,} "
        f"queue rejects",
    ]
    cache = serve.get("cache")
    if cache:
        lookups = cache.get("hits", 0) + cache.get("misses", 0)
        ratio = cache.get("hits", 0) / lookups if lookups else 0.0
        lines.append(
            f"  result cache     {cache.get('entries', 0):>8,} entries   "
            f"{cache.get('hits', 0):>6,} hits  "
            f"{cache.get('misses', 0):>6,} misses  "
            f"{cache.get('stale', 0):>6,} stale  "
            f"(hit ratio {ratio:.1%})")
    tenants = serve.get("tenants", {})
    if tenants:
        lines.append("")
        lines.append(f"  {'tenant':<14} {'depth':>5} {'limit':>5} "
                     f"{'submitted':>9} {'coalesced':>9} {'warm':>6} "
                     f"{'rejected':>8} {'done':>6} {'failed':>6}")
        for name, ts in sorted(tenants.items()):
            rejected = (ts.get("rejected_rate", 0)
                        + ts.get("rejected_queue", 0))
            lines.append(
                f"  {name:<14} {ts.get('depth', 0):>5} "
                f"{ts.get('queue_limit', 0):>5} "
                f"{ts.get('submitted', 0):>9} {ts.get('coalesced', 0):>9} "
                f"{ts.get('warm_hits', 0):>6} {rejected:>8} "
                f"{ts.get('done', 0):>6} {ts.get('failed', 0):>6}")
    return "\n".join(lines)


def format_dist_profile(doc: Dict) -> str:
    """Render a coordinator ``/metrics`` document (``repro profile
    --dist``).

    ``doc`` is the JSON body of the coordinator's ``GET /metrics``: a
    ``dist`` summary (agents, sweeps, cache) plus the metrics snapshot
    with the ``dist.*`` counters — the chaos-visibility numbers: leases
    expired, fragments requeued, duplicates suppressed, and the
    result-mismatch count that must stay zero.
    """
    dist = doc.get("dist", {})
    metrics = doc.get("metrics", {})
    agents = dist.get("agents", {})
    sweeps = dist.get("sweeps", {})
    n_jobs = sum(s.get("n_jobs", 0) for s in sweeps.values())
    n_recorded = sum(s.get("recorded", 0) for s in sweeps.values())
    lines = [
        f"dist profile: up {dist.get('uptime_s', 0.0):,.1f}s, "
        f"{len(agents)} agents"
        + (", DRAINING" if dist.get("draining") else ""),
        "",
        f"  sweeps           {len(sweeps):>8,} known   "
        f"{n_recorded:>6,}/{n_jobs:,} jobs recorded",
        f"  agents           "
        f"{_metric_total(metrics, 'dist.agents_registered'):>8,} "
        f"registered   "
        f"{_metric_total(metrics, 'dist.agents_lost'):>6,} lost   "
        f"{_metric_total(metrics, 'dist.heartbeats'):>8,} heartbeats",
        f"  leases           "
        f"{_metric_total(metrics, 'dist.leases_granted'):>8,} granted   "
        f"{_metric_total(metrics, 'dist.leases_expired'):>6,} expired",
        f"  fragments        "
        f"{_metric_total(metrics, 'dist.fragments_done'):>8,} done   "
        f"{_metric_total(metrics, 'dist.fragments_requeued'):>6,} "
        f"requeued",
        f"  exactly-once     "
        f"{_metric_total(metrics, 'dist.results_recorded'):>8,} "
        f"recorded   "
        f"{_metric_total(metrics, 'dist.duplicates_suppressed'):>6,} "
        f"duplicates suppressed   "
        f"{_metric_total(metrics, 'dist.result_mismatch'):>6,} "
        f"MISMATCHED",
    ]
    auth_rejects = _metric_total(metrics, "dist.auth_reject")
    lines.append(
        f"  wire auth        "
        + (f"required   {auth_rejects:>6,} rejected (401)"
           if dist.get("auth_required") else "     off"))
    cache = dist.get("cache")
    if cache:
        lookups = cache.get("hits", 0) + cache.get("misses", 0)
        ratio = cache.get("hits", 0) / lookups if lookups else 0.0
        lines.append(
            f"  result cache     {cache.get('entries', 0):>8,} entries   "
            f"{cache.get('hits', 0):>6,} hits  "
            f"{cache.get('misses', 0):>6,} misses  "
            f"(hit ratio {ratio:.1%})")
    recovery = dist.get("recovery") or {}
    if recovery.get("recovered"):
        age = recovery.get("snapshot_age_s")
        lines.append("")
        lines.append(
            f"  recovery         "
            f"{recovery.get('replayed_records', 0):>8,} journal records "
            f"replayed   snapshot seq "
            f"{recovery.get('snapshot_seq', 0):,}"
            + (f" ({age:,.1f}s old)" if age is not None else "")
            + ("   TRUNCATED TAIL" if recovery.get("truncated_tail")
               else ""))
        lines.append(
            f"                   "
            f"{recovery.get('resumed_sweeps', 0):>8,} sweeps resumed   "
            f"{recovery.get('leases_restored', 0):>3,} leases restored  "
            f"{recovery.get('leases_discarded', 0):>3,} discarded  "
            f"{recovery.get('cache_refills', 0):>3,} cache refills")
    if agents:
        lines.append("")
        lines.append(f"  {'agent':<16} {'capacity':>8} {'heartbeats':>10} "
                     f"{'delivered':>9} {'leases':>6}")
        for name, a in sorted(agents.items()):
            lines.append(
                f"  {name:<16} {a.get('capacity', 0):>8} "
                f"{a.get('heartbeats', 0):>10} "
                f"{a.get('delivered', 0):>9} "
                f"{len(a.get('leases', ())):>6}")
    return "\n".join(lines)
