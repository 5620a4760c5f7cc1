"""Pinned RunStats digests for the precise and Bloom conflict models.

Each case runs an app the way ``repro run APP --cores N --conflicts MODE``
does and compares ``stable_digest(stats.to_dict())`` with a pinned value.
Any change to conflict detection, versioning or the Bloom model that
moves a simulated result shows up here. maxflow@4 is pinned separately
by ``benchmarks/perf_baseline.json``.
"""

import importlib

import pytest

from repro.apps.registry import APPS
from repro.bench.harness import run_app
from repro.config import SystemConfig
from repro.farm.job import stable_digest

PINNED = {
    ("mis", 16, "precise"):
        "89e4d4099ebdcf97371e1574612225c00a61aaa5ea2543d80e2e15f388048807",
    ("silo", 8, "precise"):
        "52ef3df4bdf6209bec6d89458ab57fef38f370ec0b5126c7ebc8128c5ff02821",
    ("mis", 16, "bloom"):
        "89e4d4099ebdcf97371e1574612225c00a61aaa5ea2543d80e2e15f388048807",
    ("intruder", 8, "bloom"):
        "077fdf7534c5e7814f27b07bb131c99493b90bc5c11152c3a9c4aadaf06e27cb",
}


@pytest.mark.parametrize("app_name,cores,mode", sorted(PINNED))
def test_run_stats_digest_is_pinned(app_name, cores, mode):
    module_path, variants = APPS[app_name]
    app = importlib.import_module(module_path)
    cfg = SystemConfig.with_cores(cores, conflict_mode=mode, seed=0)
    run = run_app(app, app.make_input(), variant=variants[-1],
                  n_cores=cores, config=cfg)
    assert stable_digest(run.stats.to_dict()) == \
        PINNED[(app_name, cores, mode)]
