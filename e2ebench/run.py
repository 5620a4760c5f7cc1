#!/usr/bin/env python3
"""End-to-end benchmark of the Fractal simulator and its service.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload maxflow-nested --seed 1 --seconds 30
    python3 e2ebench/run.py --workload all --seed 1          # every workload
    python3 e2ebench/run.py --workload zoom-deep --trace 1   # per-layer run

Workloads, metrics and the layer each metric belongs to are described in
``e2ebench/README.md``. Everything is measured from outside the program:
simulations run in fresh child processes (``simchild.py``) through
``repro.bench.harness.run_app``, and the service runs as a ``repro
serve`` process driven through ``repro.serve.client`` by one closed-loop
client on one connection.

The command prints one line per metric (value, unit, sample count) and,
last, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace 1`` the per-layer
ones). It exits 1 when any result check, determinism check or request
failed, and 2 when the repository's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import arith
import workloads
from calib import time_kernel
from simchild import stats_digest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))           # the service client (suite-serve)
#: scratch space inside the checkout: caches, temp files, span dumps
WORK = ROOT / ".e2ebench"

END_TO_END = {"wall_s": "s", "setup_s": "s", "sim_cycles": "cycles",
              "peak_rss_mb": "MB"}

PER_LAYER = {
    "startup.import_s": "s",
    "core.self_s": "s", "core.events": "count", "core.events_per_s": "1/s",
    "core.task_attempts": "count", "core.commit_ratio": "ratio",
    "core.zoom_ins": "count",
    "mem.self_s": "s", "mem.accesses": "count", "mem.memo_hit_ratio": "ratio",
    "mem.epoch_bumps": "count", "mem.true_conflicts": "count",
    "mem.false_positives": "count",
    "vt.self_s": "s", "vt.fractal_vts_built": "count",
    "vt.domain_vts_built": "count", "gvt.queries": "count",
    "gvt.scan_steps": "count",
    "arch.self_s": "s", "arch.tasks_spilled": "count",
    "arch.cycles_committed": "share", "arch.cycles_aborted": "share",
    "arch.cycles_spill": "share", "arch.cycles_stall": "share",
    "arch.cycles_empty": "share",
    "apps.self_s": "s", "telemetry.self_s": "s", "other.self_s": "s",
    "specfor.rounds": "count", "specfor.reserve_failures": "count",
    "farm.job_run_s": "s", "farm.dispatch_ms": "ms",
    "farm.cache_hits": "count", "farm.cache_misses": "count",
    "serve.sweep_s": "s", "serve.warm_p50_ms": "ms",
    "serve.warm_p99_ms": "ms", "serve.warm_req_per_s": "1/s",
    "serve.submit_ms": "ms", "serve.status_ms": "ms",
    "serve.result_ms": "ms", "serve.healthz_ms": "ms",
    "serve.warm_hit_ratio": "ratio", "serve.coalesced": "count",
    "host.calib_ms": "ms", "host.wall_norm": "ratio",
    "trace.overhead_ratio": "ratio",
}

UNITS = {**END_TO_END, **PER_LAYER}

#: untraced simulation repetitions per run, at least
MIN_REPS = 3
#: set-up-only child processes before each untraced repetition
SETUP_PROBES = 2
#: closed-loop warm requests after the cold sweep (p99 needs >= 1000)
WARM_REQUESTS = 2000
#: cold sweeps per suite-serve run, each on a fresh server and cache
SUITE_PASSES = 2
#: server set-ups per suite-serve run (one per sweep, plus bare ones)
MIN_SETUPS = 6
CHILD_TIMEOUT_S = 120


class Report:
    """One workload's metric values with sample counts, spans and error
    ledger."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.ledger = arith.ErrorLedger()
        self.values: Dict[str, tuple] = {}     # name -> (value, n)
        self.spans: List[dict] = []
        #: profiled self time and calls by layer (traced runs)
        self.layer_table: Optional[Dict[str, dict]] = None

    def put(self, name: str, value: float, n: int) -> None:
        """Record a metric measured over ``n`` samples."""
        self.values[name] = (value, n)

    def span(self, name: str, start: float, end: float,
             parent: Optional[int] = None) -> int:
        self.spans.append({"id": len(self.spans), "parent": parent,
                           "name": name, "start": start, "end": end})
        return len(self.spans) - 1

    def adopt_child_spans(self, doc: dict, parent: int) -> None:
        """Re-number a child's spans into this report under ``parent``."""
        base = len(self.spans)
        for s in doc.get("spans", ()):
            self.spans.append({**s, "id": base + s["id"],
                               "parent": (parent if s["parent"] is None
                                          else base + s["parent"])})


def calibrate(samples: List[float]) -> None:
    """Time the reference kernel twice; called right before and right
    after every timed phase."""
    samples.append(time_kernel())
    samples.append(time_kernel())


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(WORK / "tmp")
    # one str-hash layout for every run, so dict and set layouts repeat
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(jobs: List[dict], profile: bool = False,
              setup_only: bool = False):
    """One fresh simulation process: (host wall seconds, document or None,
    error text)."""
    request = json.dumps({"jobs": jobs, "profile": profile,
                          "setup_only": setup_only})
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "simchild.py"), request],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, None, "child timed out"
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return wall, None, f"child exited {proc.returncode}: " \
                           f"{proc.stderr.strip()[-400:]}"
    doc = json.loads(lines[-1])
    for job in doc["jobs"]:
        if not job["ok"]:
            print(f"  FAIL {job['label']}: {job['error']}", file=sys.stderr)
    return wall, doc, ""


def check_job(rep: Report, job: dict, digests: Dict[str, str]) -> bool:
    """Result check plus RunStats drift against earlier runs of the same
    document; counts one operation."""
    label = job["label"]
    if not job["ok"]:
        return rep.ledger.record(False, f"{label}: {job['error']}")
    want = digests.setdefault(label, job["digest"])
    return rep.ledger.record(
        want == job["digest"],
        f"{label}: RunStats digest {job['digest'][:12]} != {want[:12]}")


# --------------------------------------------------------------------------
# simulation workloads: maxflow-nested, zoom-deep
# --------------------------------------------------------------------------

def setup_seconds(out: dict) -> float:
    """Import, input, Simulator construction and app.build of a child's
    single job."""
    job = out["jobs"][0]
    return (out["import_s"] + job["input_s"] + job["construct_s"]
            + job["build_s"])


def sim_workload(rep: Report, doc: dict, seconds: float,
                 trace: bool) -> None:
    """Repeat one simulation in fresh processes until ``seconds`` pass
    (at least :data:`MIN_REPS` times, each after :data:`SETUP_PROBES`
    set-up probes; with ``trace`` once, then once more under the
    profiler)."""
    run_child([])                      # byte-compile and warm the file cache
    pin = workloads.maxflow_pin() if doc["app"] == "maxflow" else None
    digests: Dict[str, str] = {}
    reps = []
    t_begin = time.perf_counter()
    setups: List[float] = []
    while True:
        for _ in range(0 if trace else SETUP_PROBES):
            _, probe, err = run_child([doc], setup_only=True)
            ok = probe is not None and probe["jobs"][0]["ok"]
            rep.ledger.record(ok, f"{doc['label']} set-up probe: "
                              f"{err or probe['jobs'][0].get('error')}")
            if ok:
                setups.append(setup_seconds(probe))
        calib: List[float] = []
        calibrate(calib)
        t0 = time.perf_counter()
        wall, out, err = run_child([doc])
        calibrate(calib)
        if out is None:
            rep.ledger.record(False, f"{doc['label']}: {err}")
            return
        rep.adopt_child_spans(out, rep.span("rep", t0, t0 + wall))
        job = out["jobs"][0]
        if check_job(rep, job, digests) and pin:
            got = {"makespan": job["stats"]["makespan"],
                   "events": job["profile"]["events"]}
            if got != pin:
                rep.ledger.fail(f"{doc['label']}: {got} != pinned {pin}")
        reps.append({"wall": wall, "calib": calib, "out": out, "job": job})
        setups.append(setup_seconds(out))
        if trace:
            break
        mean_rep = (time.perf_counter() - t_begin) / len(reps)
        if len(reps) >= MIN_REPS and \
                time.perf_counter() - t_begin + mean_rep > seconds:
            break
    if not all(r["job"]["ok"] for r in reps):
        return
    n = len(reps)
    walls = [r["wall"] for r in reps]
    jobs = [r["job"] for r in reps]
    rep.put("wall_s", statistics.median(walls), n)
    rep.put("host.wall_norm", statistics.median(
        [arith.wall_norm(r["wall"], r["calib"]) for r in reps]), n)
    rep.put("setup_s", statistics.median(setups), len(setups))
    rep.put("sim_cycles", jobs[0]["stats"]["makespan"], n)
    rep.put("peak_rss_mb", statistics.median(
        [r["out"]["maxrss_kb"] / 1024 for r in reps]), n)
    rep.put("core.events_per_s", statistics.median(
        [j["profile"]["events"] / j["run_s"] for j in jobs]), n)
    calib = [c for r in reps for c in r["calib"]]
    rep.put("host.calib_ms", 1000 * statistics.median(calib), len(calib))
    if not trace:
        return
    t0 = time.perf_counter()
    wall, out, err = run_child([doc], profile=True)
    if out is None:
        rep.ledger.record(False, f"traced {doc['label']}: {err}")
        return
    rep.adopt_child_spans(out, rep.span("traced-rep", t0, t0 + wall))
    if check_job(rep, out["jobs"][0], digests):
        layer_metrics(rep, out, out["jobs"])
    rep.put("startup.import_s", statistics.median(
        [r["out"]["import_s"] for r in reps]), n)
    rep.put("trace.overhead_ratio", wall / statistics.median(walls), 1)


def layer_metrics(rep: Report, out: dict, jobs: List[dict]) -> None:
    """Per-layer self time (profiled child) and simulator counters summed
    over ``jobs``."""
    layers = out["layers"]
    for layer in ("core", "mem", "vt", "arch", "apps", "telemetry",
                  "other"):
        rep.put(f"{layer}.self_s",
                layers.get(layer, {}).get("self_s", 0.0), 1)
    rep.layer_table = layers

    stats = [j["stats"] for j in jobs]
    prof = [j["profile"] for j in jobs]
    committed = sum(s["tasks_committed"] for s in stats)
    attempts = committed + sum(s["tasks_aborted"] for s in stats)
    accesses = sum(p["memory"]["accesses"] for p in prof)
    memo = sum(p["memory"]["fast_hits"] for p in prof)
    n = len(jobs)
    rep.put("core.events", sum(p["events"] for p in prof), n)
    rep.put("core.task_attempts", attempts, n)
    rep.put("core.commit_ratio", committed / attempts, n)
    rep.put("core.zoom_ins", sum(s["zoom_ins"] for s in stats), n)
    rep.put("mem.accesses", accesses, n)
    rep.put("mem.memo_hit_ratio", memo / accesses if accesses else 0.0, n)
    rep.put("mem.epoch_bumps",
            sum(p["memory"]["epoch_bumps"] for p in prof), n)
    rep.put("mem.true_conflicts",
            sum(p["memory"]["true_conflicts"] for p in prof), n)
    rep.put("mem.false_positives",
            sum(p["conflict_model"]["false_positives"] for p in prof), n)
    rep.put("vt.fractal_vts_built", out["vt_built"]["fractal"], 1)
    rep.put("vt.domain_vts_built", out["vt_built"]["domain"], 1)
    rep.put("gvt.queries", sum(p["gvt"]["queries"] for p in prof), n)
    rep.put("gvt.scan_steps", sum(p["gvt"]["scan_steps"] for p in prof), n)
    rep.put("arch.tasks_spilled", sum(s["tasks_spilled"] for s in stats), n)
    cycles = {k: sum(s["breakdown"][k] for s in stats)
              for k in ("committed", "aborted", "spill", "stall", "empty")}
    all_cycles = sum(cycles.values()) or 1
    for k, v in cycles.items():
        rep.put(f"arch.cycles_{k}", v / all_cycles, n)
    rep.put("specfor.rounds", sum(j["specfor_rounds"] for j in jobs), n)
    rep.put("specfor.reserve_failures",
            sum(j["specfor_reserve_failures"] for j in jobs), n)


# --------------------------------------------------------------------------
# suite-serve
# --------------------------------------------------------------------------

class Server:
    """A ``repro serve`` process with one farm worker and a fresh cache."""

    def __init__(self, tag: str) -> None:
        self.dir = WORK / tag
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        tenants = self.dir / "tenants.json"
        # one client may send thousands of warm submissions a second
        tenants.write_text(json.dumps(
            {"default": {"queue_limit": 64, "rate": 1e6, "burst": 10**6}}))
        self.log = self.dir / "serve.log"
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--host",
                 "127.0.0.1", "--port", "0", "--workers", "1",
                 "--cache-dir", str(self.dir / "cache"),
                 "--tenants", str(tenants)],
                cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                stderr=log, start_new_session=True)
        self.url = self._wait_banner()

    def _wait_banner(self, timeout: float = 60.0) -> str:
        deadline = time.monotonic() + timeout
        marker = "listening on "
        while time.monotonic() < deadline:
            for line in self.log.read_text().splitlines():
                if marker in line:
                    return line.split(marker, 1)[1].split()[0]
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError(f"repro serve did not start: "
                           f"{self.log.read_text()[-400:]}")

    def peak_rss_kb(self) -> int:
        """Largest VmHWM among the server and its descendants."""
        peak, todo = 0, [self.proc.pid]
        while todo:
            pid = todo.pop()
            proc = pathlib.Path(f"/proc/{pid}")
            try:
                status = (proc / "status").read_text()
                kids = [k for task in (proc / "task").iterdir()
                        for k in (task / "children").read_text().split()]
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    peak = max(peak, int(line.split()[1]))
            todo.extend(int(k) for k in kids)
        return peak

    def stop(self) -> int:
        """SIGTERM (the server drains and joins its worker); after 60 s,
        SIGKILL the server's whole process group."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
            return -9
        finally:
            shutil.rmtree(self.dir, ignore_errors=True)


def timed_request(rep: Report, fn, kind: str, parent: Optional[int],
                  spans: bool):
    """One client call: (latency seconds, response doc or None)."""
    from repro.serve.client import ServeAPIError
    t0 = time.perf_counter()
    try:
        doc = fn()
    except (ServeAPIError, OSError, TimeoutError) as exc:
        doc = None
        rep.ledger.record(False, f"{kind}: {type(exc).__name__}: {exc}")
    t1 = time.perf_counter()
    if spans:
        rep.span(kind, t0, t1, parent)
    return t1 - t0, doc


def start_server(rep: Report, k: int, spans: bool):
    """Start a server and wait until it answers /healthz and its worker
    has run one job: (server, client, set-up seconds)."""
    from repro.serve.client import ServeClient
    t0 = time.perf_counter()
    server = Server(f"serve-{k}")
    client = ServeClient(server.url, timeout=120.0)
    try:
        client.wait_ready(timeout=60.0)
    except BaseException:
        stop_server(rep, server, client)
        raise
    # a failed warm-up is counted by timed_request
    timed_request(rep, lambda: client.run(workloads.WARMUP_JOB, timeout=120.0,
                                          poll_s=0.005), "warmup", None, False)
    setup = time.perf_counter() - t0
    if spans:
        rep.span("setup", t0, t0 + setup)
    return server, client, setup


def stop_server(rep: Report, server: Server, client) -> None:
    client.close()
    rc = server.stop()
    rep.ledger.record(rc == 0, f"repro serve exited {rc} after SIGTERM")


def cold_sweep(rep: Report, client, specs: List[dict], digests: dict,
               trace: bool):
    """Submit each job and wait for its result (closed loop, one
    connection): (per-job records, sweep seconds)."""
    parent = rep.span("sweep", 0, 0) if trace else None
    cold = []
    t_sweep = time.perf_counter()
    for spec in specs:
        t0 = time.perf_counter()
        _, sub = timed_request(rep, lambda: client.submit(spec), "submit",
                               parent, trace)
        if sub is None:
            continue
        rep.ledger.record(sub["outcome"] == "queued",
                          f"{spec['label']}: cold submit {sub['outcome']}")
        _, res = timed_request(
            rep, lambda: client.result(sub["id"], timeout=CHILD_TIMEOUT_S,
                                       poll_s=0.005),
            "result", parent, trace)
        if res is None:
            continue
        want = digests.setdefault(spec["label"], stats_digest(res["stats"]))
        rep.ledger.record(stats_digest(res["stats"]) == want,
                          f"{spec['label']}: RunStats drift between sweeps")
        cold.append({"spec": spec, "id": sub["id"],
                     "latency": time.perf_counter() - t0,
                     "job_s": res["wall_s"], "stats": res["stats"]})
    sweep_s = time.perf_counter() - t_sweep
    if trace:
        rep.spans[parent].update(start=t_sweep, end=t_sweep + sweep_s)
    return cold, sweep_s


def warm_phase(rep: Report, client, cold: List[dict], digests: dict,
               rng: random.Random, trace: bool):
    """Resubmit / status / result / healthz, a quarter each, against the
    finished jobs: (latencies by kind, warm submits answered warm,
    seconds)."""
    parent = rep.span("warm", 0, 0) if trace else None
    lat: Dict[str, List[float]] = {k: [] for k in
                                   ("submit", "status", "result", "healthz")}
    hits = 0
    t_warm = time.perf_counter()
    for i in range(WARM_REQUESTS):
        job = rng.choice(cold)
        kind = ("submit", "status", "result", "healthz")[i % 4]
        call = {"submit": lambda: client.submit(job["spec"]),
                "status": lambda: client.status(job["id"]),
                "result": lambda: client.result(job["id"], wait=False),
                "healthz": client.healthz}[kind]
        dt, doc = timed_request(rep, call, kind, parent, trace)
        if doc is None:
            continue
        lat[kind].append(dt)
        if kind == "submit":
            ok = doc["outcome"] == "warm"
            hits += ok
        elif kind == "status":
            ok = doc["state"] == "done"
        elif kind == "result":
            ok = stats_digest(doc["stats"]) == digests[job["spec"]["label"]]
        else:
            ok = doc.get("ok") is True
        rep.ledger.record(ok, f"warm {kind} {job['spec']['label']}: {doc}")
    warm_s = time.perf_counter() - t_warm
    if trace:
        rep.spans[parent].update(start=t_warm, end=t_warm + warm_s)
    return lat, hits, warm_s


def suite_workload(rep: Report, seed: int, seconds: float,
                   trace: bool) -> None:
    """:data:`SUITE_PASSES` cold sweeps, each on a fresh server and cache,
    the first followed by the warm phase; with ``trace`` one sweep, then
    the same jobs in-process, untraced and under the profiler."""
    specs = workloads.SUITE
    run_child([])                      # byte-compile and warm the file cache
    digests: Dict[str, str] = {}
    calib: List[float] = []
    passes, setups, peak_kb = [], [], 0
    for k in range(1 if trace else SUITE_PASSES):
        calibrate(calib)
        server, client, setup = start_server(rep, k, trace)
        try:
            setups.append(setup)
            cold, sweep_s = cold_sweep(rep, client, specs, digests, trace)
            calibrate(calib)
            passes.append({"setup": setup, "cold": cold, "sweep_s": sweep_s})
            if k == 0 and len(cold) == len(specs):
                lat, warm_hits, warm_s = warm_phase(
                    rep, client, cold, digests, random.Random(seed), trace)
                _, metrics = timed_request(rep, client.metrics, "metrics",
                                           None, False)
            peak_kb = max(peak_kb, server.peak_rss_kb())
        finally:
            stop_server(rep, server, client)
    while not trace and len(setups) < MIN_SETUPS:
        server, client, setup = start_server(rep, len(setups), False)
        setups.append(setup)
        stop_server(rep, server, client)

    if any(len(p["cold"]) != len(specs) for p in passes):
        return
    cold = passes[0]["cold"]
    n_cold = len(cold)
    walls = [p["setup"] + p["sweep_s"] for p in passes]
    rep.put("wall_s", statistics.median(walls), len(walls))
    rep.put("host.wall_norm",
            arith.wall_norm(statistics.median(walls), calib), len(walls))
    rep.put("setup_s", statistics.median(setups), len(setups))
    rep.put("sim_cycles", sum(c["stats"]["makespan"] for c in cold), n_cold)
    rep.put("peak_rss_mb", peak_kb / 1024, len(passes))
    rep.put("host.calib_ms", 1000 * statistics.median(calib), len(calib))
    rep.put("serve.sweep_s",
            statistics.median([p["sweep_s"] for p in passes]), len(passes))
    warm_all = [x for v in lat.values() for x in v]
    for p in (50, 99):
        value = arith.percentile(warm_all, p)
        if value is not None:
            rep.put(f"serve.warm_p{p}_ms", 1000 * value, len(warm_all))
    rep.put("serve.warm_req_per_s", len(warm_all) / warm_s,
            len(warm_all))
    for kind, values in lat.items():
        value = arith.percentile(values, 50)
        if value is not None:
            rep.put(f"serve.{kind}_ms", 1000 * value, len(values))
    rep.put("serve.warm_hit_ratio",
            warm_hits / max(len(lat["submit"]), 1), len(lat["submit"]))
    rep.put("farm.job_run_s", sum(c["job_s"] for c in cold), n_cold)
    rep.put("farm.dispatch_ms", 1000 * statistics.median(
        [c["latency"] - c["job_s"] for c in cold]), n_cold)
    if metrics is not None:
        cache = metrics["serve"]["cache"] or {}
        rep.put("farm.cache_hits", cache.get("hits", 0), 1)
        rep.put("farm.cache_misses", cache.get("misses", 0), 1)
        rep.put("serve.coalesced", sum(
            c["value"] for c in metrics["metrics"]["counters"]
            if c["name"] == "serve.coalesced_submissions"), 1)
    if not trace:
        return

    # traced run: the same cold jobs in-process, untraced then profiled
    walls, outs = [], []
    for profile in (False, True):
        t0 = time.perf_counter()
        wall, out, err = run_child(specs, profile=profile)
        if out is None:
            rep.ledger.record(False, f"in-process suite: {err}")
            return
        rep.adopt_child_spans(out, rep.span(
            "traced-suite" if profile else "suite", t0, t0 + wall))
        walls.append(wall)
        outs.append(out)
    base, traced = outs
    for out, path in ((base, "in-process"), (traced, "traced")):
        for job in out["jobs"]:
            want = digests.get(job["label"])
            rep.ledger.record(
                job["ok"] and job["digest"] == want,
                f"{job['label']}: {path} path "
                f"{job.get('digest', job.get('error'))} != farm {want}")
    layer_metrics(rep, traced, [j for j in traced["jobs"] if j["ok"]])
    rep.put("startup.import_s", base["import_s"], 1)
    rep.put("core.events_per_s",
            sum(j["profile"]["events"] for j in base["jobs"] if j["ok"])
            / sum(j["run_s"] for j in base["jobs"]), len(specs))
    rep.put("trace.overhead_ratio", walls[1] / walls[0], 1)


# --------------------------------------------------------------------------

WORKLOADS = {
    "maxflow-nested": lambda rep, seed, secs, trace: sim_workload(
        rep, workloads.MAXFLOW_NESTED, secs, trace),
    "zoom-deep": lambda rep, seed, secs, trace: sim_workload(
        rep, workloads.ZOOM_DEEP, secs, trace),
    "suite-serve": suite_workload,
}


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    rep = Report(name)
    t0 = time.perf_counter()
    try:
        WORKLOADS[name](rep, seed, seconds, trace)
    except Exception as exc:      # report, never hang the caller
        import traceback
        traceback.print_exc()
        rep.ledger.record(False, f"{name}: {type(exc).__name__}: {exc}")
    wanted = PER_LAYER if trace else END_TO_END
    metrics = {}
    for key, unit in wanted.items():
        value = rep.values.get(key, (0.0, 0))[0]
        metrics[key] = {"value": value, "unit": unit}
    missing = [k for k in END_TO_END if k not in rep.values]
    if missing and not rep.ledger.failures:
        rep.ledger.fail(f"{name}: metrics not measured: {missing}")
    print_report(rep, time.perf_counter() - t0, trace)
    return {"correct": rep.ledger.failed == 0,
            "attempted": max(rep.ledger.attempted, 1),
            "failed": rep.ledger.failed, "metrics": metrics}, rep


def print_report(rep: Report, elapsed: float, trace: bool) -> None:
    print(f"== {rep.workload}  ({elapsed:.1f} s, "
          f"{'traced' if trace else 'untraced'})")
    for key, (value, n) in sorted(rep.values.items()):
        print(f"  {key:26s} {value:>16.6g} {UNITS[key]:7s} n={n}")
    led = rep.ledger
    print(f"  {'error_rate':26s} {led.error_rate:>16.6g} {'ratio':7s} "
          f"n={led.attempted}")
    for msg in led.failures:
        print(f"  FAILED: {msg}")
    table = rep.layer_table
    if table:
        total = sum(row["self_s"] for row in table.values()) or 1.0
        print("  self time by layer (profiled):")
        for layer, row in sorted(table.items(),
                                 key=lambda kv: -kv[1]["self_s"]):
            print(f"    {layer:12s} {row['self_s']:9.3f} s "
                  f"{100 * row['self_s'] / total:5.1f} %  "
                  f"{int(row['calls']):>11,d} calls")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        result, rep = run_workload(name, args.seed, args.seconds,
                                   bool(args.trace))
        if args.trace:
            out = WORK / f"spans-{name}-seed{args.seed}.json"
            out.write_text(json.dumps(rep.spans))
            print(f"  spans: {out.relative_to(ROOT)} ({len(rep.spans)})")
        ok &= result["correct"]
        print(json.dumps(result), flush=True)
    shutil.rmtree(WORK / "tmp", ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
