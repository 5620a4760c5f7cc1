"""The benchmark's workloads as JobSpec wire documents.

Why each workload exists is in ``e2ebench/README.md``. Every document is
the form ``repro serve`` accepts, so the farm-worker path and the
in-process path run the same specs.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict

ROOT = pathlib.Path(__file__).resolve().parent.parent
PERF_BASELINE = ROOT / "benchmarks" / "perf_baseline.json"

#: The simulation workloads run fixed inputs. Their generators take seeds,
#: but a seed changes the work itself: across rmf-wide seeds 0-7 maxflow's
#: event count moves by up to 46 % (110,519 to 165,130), so a seeded input
#: would make run-to-run spread measure the input, not the code. The
#: maxflow input is the one ``benchmarks/perf_baseline.json`` pins.
MAXFLOW_NESTED = {"app": "maxflow", "variant": "fractal", "n_cores": 4,
                  "input": {"b": 4, "layers": 4, "seed": 4},
                  "label": "maxflow-fractal@4c"}

ZOOM_DEEP = {"app": "zoomtree", "variant": "fractal", "n_cores": 16,
             "config": {"vt_bits": 64, "conflict_mode": "precise"},
             "input": {"fanout": 4, "depth": 8},
             "label": "zoomtree-fractal@16c-D2"}


def maxflow_pin() -> Dict[str, int]:
    """The pinned makespan and event count of maxflow-fractal@4c."""
    doc = json.loads(PERF_BASELINE.read_text())
    for wl in doc["workloads"]:
        if wl["app"] == "maxflow" and wl["cores"] == 4:
            return dict(wl["expect"])
    raise KeyError("perf_baseline.json pins no maxflow@4 workload")


#: (app, variants, cores, make_input kwargs): the fig14b, fig15b, fig17,
#: PBBS, Swarm-suite and silo benches' configs and input sizes
_SUITE = [
    ("maxflow", ("flat",), 4, {"b": 4, "layers": 4}),
    ("labyrinth", ("hwq", "fractal"), 16,
     {"x": 10, "y": 10, "z": 2, "n_paths": 12}),
    ("bayes", ("hwq", "fractal"), 16, {"n_decisions": 48}),
    ("mis", ("flat", "swarm", "fractal"), 16, {"scale": 7, "edge_factor": 5}),
    ("color", ("flat", "swarm", "fractal"), 16,
     {"scale": 6, "edge_factor": 4}),
    ("msf", ("flat", "swarm", "fractal"), 16, {"scale": 6, "edge_factor": 3}),
    ("kmeans", ("fractal", "tm"), 16, {}),
    ("yada", ("fractal",), 16, {}),
    ("genome", ("fractal",), 16, {}),
    ("vacation", ("fractal",), 16, {}),
    ("spanning", ("specfor",), 16, {"scale": 6, "edge_factor": 3}),
    ("contract", ("specfor",), 16, {"n": 64}),
    ("refine", ("specfor",), 16, {"width": 10, "n_ops": 64}),
    ("des", ("swarm",), 16, {"n_gates": 64, "n_toggles": 48}),
    ("sssp", ("swarm",), 16, {"scale": 8, "edge_factor": 4}),
    ("silo", ("fractal",), 16,
     {"n_warehouses": 2, "n_districts": 4, "n_txns": 128}),
]


#: the cold jobs of ``suite-serve``, in a fixed order. The seed drives the
#: warm request stream only: seeding these inputs moved the summed
#: makespan by 44 % across seeds 0-7, and shuffling the order moved the
#: worker's peak RSS by 12 %.
SUITE = [{"app": app, "variant": v, "n_cores": cores, "input": kwargs,
          "label": f"{app}-{v}@{cores}c"}
         for app, variants, cores, kwargs in _SUITE for v in variants]


#: a tiny job that makes the serve worker import the simulator; it is
#: part of server set-up, not of the measured sweep
WARMUP_JOB = {"app": "mis", "variant": "fractal", "n_cores": 2,
              "input": {"scale": 4, "edge_factor": 2, "seed": 1},
              "label": "warmup"}
