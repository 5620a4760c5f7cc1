"""The benchmark's own arithmetic and its contract with BENCHMARK.json.

Run with ``python3 -m pytest e2ebench/tests -q``.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

import arith
import run
import workloads

HERE = pathlib.Path(__file__).resolve().parents[1]


# -- percentiles -------------------------------------------------------------

@pytest.mark.parametrize("n,p,ok", [
    (19, 50, False), (20, 50, True),
    (99, 90, False), (100, 90, True),
    (999, 99, False), (1000, 99, True), (2000, 99, True),
    (1, 50, False), (0, 50, False),
])
def test_percentile_eligible_needs_ten_samples_beyond(n, p, ok):
    assert arith.percentile_eligible(n, p) is ok


@pytest.mark.parametrize("p", [0, 100, -1, 150])
def test_percentile_rejects_out_of_range(p):
    with pytest.raises(ValueError):
        arith.percentile_eligible(100, p)


def test_percentile_is_none_when_ineligible():
    assert arith.percentile(list(range(999)), 99) is None
    assert arith.percentile([1.0, 2.0], 50) is None


def test_percentile_nearest_rank():
    values = list(range(1, 1001))          # 1..1000, shuffled order
    values = values[::2] + values[1::2]
    assert arith.percentile(values, 99) == 990
    assert arith.percentile(values, 50) == 500
    assert arith.percentile(list(range(1, 21)), 50) == 10


# -- normalization -----------------------------------------------------------

def test_wall_norm_divides_by_mean_kernel_time():
    assert arith.wall_norm(10.0, [0.04, 0.06]) == pytest.approx(200.0)
    # a machine twice as slow doubles both, leaving wall_norm unchanged
    assert arith.wall_norm(20.0, [0.08, 0.12]) == pytest.approx(200.0)


@pytest.mark.parametrize("calib", [[], [0.0, 0.05], [-0.01]])
def test_wall_norm_rejects_bad_kernel_times(calib):
    with pytest.raises(ValueError):
        arith.wall_norm(1.0, calib)


# -- error accounting --------------------------------------------------------

def test_error_ledger_counts_attempts_and_failures():
    led = arith.ErrorLedger()
    assert led.error_rate == 0.0
    assert led.record(True) is True
    assert led.record(False, "check failed") is False
    led.record(True)
    led.record(True)
    assert (led.attempted, led.failed) == (4, 1)
    assert led.error_rate == pytest.approx(0.25)
    assert led.failures == ["check failed"]


def test_error_ledger_late_failure_adds_no_attempt():
    led = arith.ErrorLedger()
    led.record(True)
    led.record(True)
    led.fail("RunStats drift")
    assert (led.attempted, led.failed) == (2, 1)
    assert led.error_rate == pytest.approx(0.5)


def test_error_rate_never_exceeds_one():
    led = arith.ErrorLedger()
    led.record(False, "a")
    led.fail("b")
    assert led.error_rate == 1.0


# -- path -> layer ------------------------------------------------------------

@pytest.mark.parametrize("path,layer", [
    ("/x/src/repro/core/simulator.py", "core"),
    ("/x/src/repro/mem/memory.py", "mem"),
    ("/x/src/repro/vt/fractal_vt.py", "vt"),
    ("/x/src/repro/arch/frontier.py", "vt"),
    ("/x/src/repro/arch/gvt.py", "vt"),
    ("/x/src/repro/arch/cache.py", "arch"),
    ("/x/src/repro/apps/stamp/bayes.py", "apps"),
    ("/x/src/repro/farm/dist/agent.py", "farm"),
    ("/x/src/repro/cli.py", "cli"),
    ("C:\\x\\src\\repro\\mem\\bloom.py", "mem"),
    ("/usr/lib/python3.11/heapq.py", "other"),
    ("/x/e2ebench/simchild.py", "other"),
])
def test_layer_of(path, layer):
    assert arith.layer_of(path) == layer


def _row(nc, tt, callers=None):
    return (nc, nc, tt, tt, callers or {})


def test_group_profile_sums_self_time_and_calls_per_layer():
    sim = ("/r/repro/core/simulator.py", 10, "run")
    heap = ("/r/repro/arch/frontier.py", 5, "push")
    post = ("/r/repro/vt/domain_vt.py", 37, "__post_init__")
    gen_init = ("<string>", 2, "__init__")        # dataclass-generated
    gen_lt = ("<string>", 2, "__lt__")            # calls nothing in repro
    builtin = ("~", 0, "<built-in method builtins.len>")
    stats = {
        sim: _row(1, 2.0),
        heap: _row(10, 0.5, {sim: (10, 10, 0.5, 0.5)}),
        gen_init: _row(100, 0.3, {sim: (100, 100, 0.3, 0.3)}),
        post: _row(100, 0.2, {gen_init: (100, 100, 0.2, 0.2)}),
        gen_lt: _row(50, 0.1, {heap: (40, 40, 0.08, 0.08),
                               sim: (10, 10, 0.02, 0.02)}),
        builtin: _row(7, 0.05, {sim: (7, 7, 0.05, 0.05)}),
    }
    layers = arith.group_profile(stats)
    assert layers["core"] == {"self_s": 2.0, "calls": 1}
    # frontier, the generated DomainVT __init__ and its __post_init__,
    # and the __lt__ called mostly from the frontier are all VT work
    assert layers["vt"]["self_s"] == pytest.approx(0.5 + 0.3 + 0.2 + 0.1)
    assert layers["vt"]["calls"] == 10 + 100 + 100 + 50
    assert layers["other"] == {"self_s": 0.05, "calls": 7}


def test_calls_to_counts_one_function():
    stats = {
        ("/r/repro/vt/fractal_vt.py", 25, "__init__"): _row(9, 0.1),
        ("/r/repro/vt/domain_vt.py", 37, "__post_init__"): _row(4, 0.1),
        ("/r/repro/core/task.py", 3, "__init__"): _row(5, 0.1),
    }
    assert arith.calls_to(stats, "repro/vt/fractal_vt.py", "__init__") == 9
    assert arith.calls_to(stats, "repro/vt/gvt.py", "__init__") == 0


# -- workloads and the BENCHMARK.json contract -------------------------------

def test_suite_spans_every_family():
    labels = [doc["label"] for doc in workloads.SUITE]
    assert len(labels) == len(set(labels)) == 25
    assert {d["variant"] for d in workloads.SUITE} == {
        "flat", "hwq", "swarm", "fractal", "tm", "specfor"}


def test_benchmark_json_names_what_run_reports():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == \
        ["maxflow-nested", "zoom-deep", "suite-serve"]
    assert set(run.WORKLOADS) == {w["name"] for w in doc["workloads"]}
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER


def test_run_fails_fast_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "zoom-deep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "correct" not in proc.stdout
