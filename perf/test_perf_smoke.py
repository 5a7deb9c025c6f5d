"""Self-test of the benchmark (not part of the tier-1 suite).

    python -m pytest perf -q

Every workload is run with ``--quick`` (1/10 data, 10 operations), with
and without tracing; the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCH = json.load(_handle)

WORKLOADS = [workload["name"] for workload in BENCH["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run_quick(workload: str, trace: int, root: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perf", "run.py"),
         "--workload", workload, "--seed", "42", "--quick",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=120, cwd=root,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_reports_every_declared_metric(workload, trace):
    completed = run_quick(workload, trace)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    lines = completed.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert math.isfinite(reported["value"]), metric["name"]
        if not trace:
            assert reported["value"] > 0, metric["name"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 10
    assert "leaked_processes 0" in lines
    assert any(line.startswith("failed_frac 0.000000") for line in lines)
    if trace:
        assert "probes_failed: none" in lines
        with open(os.path.join(PERF_DIR, "out", f"trace-{workload}.json")) as h:
            events = json.load(h)["traceEvents"]
        assert any(event["name"] == "op" for event in events)


def test_declared_names_are_well_formed_and_unique():
    names = WORKLOADS + [
        metric["name"] for metric in BENCH["end_to_end"] + BENCH["per_layer"]
    ]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert len(BENCH["per_layer"]) <= 128
    assert BENCH["paths"] == ["perf"]


def test_golden_digests_cover_every_program():
    sys.path.insert(0, PERF_DIR)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS as SPECS

    with open(os.path.join(PERF_DIR, "golden.json")) as handle:
        golden = json.load(handle)
    for scale in ("full", "quick"):
        for workload, spec in SPECS.items():
            assert set(golden[scale][workload]) == {
                program["name"] for program in spec["programs"]
            }


def test_no_result_without_the_system_under_test(tmp_path):
    """In a directory holding only the benchmark, the run must fail
    without printing a result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        PERF_DIR, tmp_path / "perf",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    completed = run_quick("warm_join_emit", 0, root=str(tmp_path))
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout


def test_compare_verdicts():
    sys.path.insert(0, PERF_DIR)
    from compare import verdict

    lower = {"name": "query_p50_ms", "better": "lower", "bound": 0.1}
    higher = {"name": "queries_per_s", "better": "higher", "bound": 0.1}
    steady = {"median": 100.0, "spread": 0.02}
    assert verdict(lower, steady, {"median": 105.0, "spread": 0.02})[1] == "OK"
    assert verdict(lower, steady, {"median": 115.0, "spread": 0.02})[1] \
        == "REGRESSED"
    assert verdict(lower, steady, {"median": 80.0, "spread": 0.2})[1] \
        == "UNRESOLVED"
    assert verdict(higher, steady, {"median": 85.0, "spread": 0.02})[1] \
        == "REGRESSED"
    assert verdict(higher, steady, {"median": 120.0, "spread": 0.02})[1] == "OK"
    setup = {"name": "setup_s", "better": "lower", "bound": 0.25}
    assert verdict(setup, steady, {"median": 101.0, "spread": 0.9})[1] == "OK"


def test_session_scan_sees_a_leaked_process():
    sys.path.insert(0, PERF_DIR)
    from run import session_members, wait_for_session_end

    sleeper = subprocess.Popen(["sleep", "30"], start_new_session=True)
    try:
        assert session_members(sleeper.pid) == [sleeper.pid]
        assert not wait_for_session_end(sleeper.pid, 0.2)
    finally:
        sleeper.kill()
        sleeper.wait()
    assert wait_for_session_end(sleeper.pid, 5.0)
