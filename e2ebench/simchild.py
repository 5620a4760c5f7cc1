"""One benchmark child process: run simulations, print one JSON document.

Usage::

    PYTHONPATH=src python3 e2ebench/simchild.py \
        '{"jobs": [...], "profile": false}'

Each job is a JobSpec wire document (the form ``repro serve`` accepts).
It is validated with :func:`repro.farm.validate.validate_jobspec`, its
input is built with the app's ``make_input``, and it runs through
:func:`repro.bench.harness.run_app`, the path a farm worker takes. The
child times its phases with spans around the calls into each layer
(import, input, construct, build, run, check) by wrapping those entry
points for the duration of the run; no ``repro`` code changes.

With ``"profile": true`` every job runs under ``cProfile`` and the
document carries self time and call counts grouped by layer. With
``"setup_only": true`` each job stops where ``Simulator.run`` would
start: a set-up probe.
"""

from __future__ import annotations

import contextlib
import cProfile
import hashlib
import importlib
import json
import pstats
import resource
import sys
import time
import traceback

from arith import calls_to, group_profile


class Spans:
    """In-memory spans: name, start, end (``perf_counter``, which is the
    system-wide monotonic clock, so parent and child spans line up) and
    the id of the span that caused them."""

    def __init__(self) -> None:
        self.items = []

    @contextlib.contextmanager
    def span(self, name: str, parent=None):
        sid = len(self.items)
        rec = {"id": sid, "parent": parent, "name": name,
               "start": time.perf_counter(), "end": None}
        self.items.append(rec)
        try:
            yield sid
        finally:
            rec["end"] = time.perf_counter()

    def total(self, name: str, parent) -> float:
        return sum(s["end"] - s["start"] for s in self.items
                   if s["name"] == name and s["parent"] == parent)


@contextlib.contextmanager
def patched(owner, attr: str, replacement):
    """Set ``owner.attr`` to ``replacement`` for the ``with`` block."""
    orig = getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield
    finally:
        setattr(owner, attr, orig)


def timed(owner, attr: str, spans: Spans, name: str, parent: int):
    """Wrap ``owner.attr`` so each call records a span under ``parent``."""
    orig = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        with spans.span(name, parent):
            return orig(*args, **kwargs)

    return patched(owner, attr, wrapper)


def stats_digest(stats_dict: dict) -> str:
    return hashlib.sha256(
        json.dumps(stats_dict, sort_keys=True).encode()).hexdigest()


def counter_total(snapshot: dict, name: str) -> int:
    return sum(c["value"] for c in snapshot["counters"] if c["name"] == name)


class SetupDone(Exception):
    """Raised in place of ``Simulator.run`` by a set-up probe."""


def stop_before_run(self, *args, **kwargs):
    raise SetupDone


def run_job(doc: dict, spans: Spans, prof, repro,
            setup_only: bool = False) -> dict:
    """Run one job; with ``setup_only`` stop where ``Simulator.run``
    would start, so only the set-up phases are timed."""
    run_app, Simulator, validate_jobspec, collect_profile = repro
    out = {"label": doc.get("label") or f"{doc['app']}-{doc['variant']}"}
    with spans.span("job") as jid, contextlib.ExitStack() as stack:
        if setup_only:
            stack.enter_context(patched(Simulator, "run", stop_before_run))
        try:
            spec = validate_jobspec(doc)
            app = importlib.import_module(spec.app)
            if prof:
                prof.enable()
            with spans.span("input", jid):
                inp = app.make_input(**spec.input_kwargs)
            cfg = spec.resolved_config()
            with timed(Simulator, "__init__", spans, "construct", jid), \
                    timed(app, "build", spans, "build", jid), \
                    timed(Simulator, "run", spans, "run", jid), \
                    timed(app, "check", spans, "check", jid):
                run = run_app(app, inp, variant=spec.variant,
                              n_cores=cfg.n_cores, config=cfg,
                              check=spec.check, **spec.build_options)
            if prof:
                prof.disable()
            if not run.stats.completed:
                raise RuntimeError(f"run stopped early: {run.stats.failure}")
            stats = run.stats.to_dict()
            snap = run.metrics.snapshot()
            out.update(
                ok=True, digest=stats_digest(stats), stats=stats,
                profile=collect_profile(run.sim),
                specfor_rounds=counter_total(snap, "specfor_rounds"),
                specfor_reserve_failures=counter_total(
                    snap, "specfor_reserve_failures"))
        except SetupDone:
            out.update(ok=True)
        except Exception as exc:   # reported per job; the child goes on
            if prof:
                prof.disable()
            out.update(ok=False, error=f"{type(exc).__name__}: {exc}",
                       traceback=traceback.format_exc())
    for phase in ("input", "construct", "build", "run", "check"):
        out[f"{phase}_s"] = spans.total(phase, jid)
    return out


def main(argv) -> int:
    request = json.loads(argv[1])
    spans = Spans()
    with spans.span("import"):
        from repro.bench.harness import run_app
        from repro.core.simulator import Simulator
        from repro.farm.validate import validate_jobspec
        from repro.telemetry import collect_profile
    repro = (run_app, Simulator, validate_jobspec, collect_profile)
    prof = cProfile.Profile() if request.get("profile") else None
    jobs = [run_job(doc, spans, prof, repro, request.get("setup_only"))
            for doc in request["jobs"]]
    doc = {
        "import_s": spans.total("import", None),
        "jobs": jobs,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": spans.items,
    }
    if prof:
        raw = pstats.Stats(prof).stats
        doc["layers"] = group_profile(raw)
        doc["vt_built"] = {
            "fractal": calls_to(raw, "repro/vt/fractal_vt.py", "__init__"),
            "domain": calls_to(raw, "repro/vt/domain_vt.py",
                               "__post_init__"),
        }
    print(json.dumps(doc))
    return 0 if all(j["ok"] for j in jobs) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
