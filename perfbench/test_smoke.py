"""Smoke test of the benchmark itself: every workload at a tiny size.

Run from the repository root::

    python3 -m pytest -q perfbench/test_smoke.py

For each workload, an untraced and a traced run must pass their own
correctness checks and print every metric ``BENCHMARK.json`` names with
its unit; the traced run must give every per-layer metric of its own
layers a value and leave a span file with no orphans.  No run may leave a
process behind.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY_SECONDS = "0.3"


def _session_members(session: int) -> list:
    """Pids of live processes in ``session`` (Linux ``/proc``)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # After the command name: state, ppid, pgrp, session.
        if int(fields[3]) == session:
            members.append(int(entry))
    return members


def _run(workload: str, trace: int) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "3",
               "--seconds", TINY_SECONDS, "--trace", str(trace)]
    # A session of its own, so that whatever the run starts can be found
    # after it exits, even once reparented.
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True,
                               start_new_session=True)
    stdout, stderr = process.communicate(timeout=300)
    assert process.returncode == 0, stderr[-4000:]
    if os.path.isdir("/proc"):
        assert _session_members(process.pid) == [], "process left running"
    return json.loads(stdout.strip().splitlines()[-1])


def _assert_metrics(result: dict, spec: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = _run(workload, trace=0)
    _assert_metrics(result, SPEC["end_to_end"])
    for metric in result["metrics"].values():
        assert metric["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_has_layers_and_no_orphans(workload):
    result = _run(workload, trace=1)
    _assert_metrics(result, SPEC["per_layer"])
    with open(os.path.join(HERE, "out", f"spans-{workload}.jsonl")) as handle:
        spans = [json.loads(line) for line in handle]
    ids = {span["id"] for span in spans}
    with open(os.path.join(HERE, "out", "runs.jsonl")) as handle:
        last = json.loads(handle.readlines()[-1])
    assert last["workload"] == workload and last["trace"] == 1
    for name in last["diagnostics"]["own_metrics"]:
        assert result["metrics"][name]["value"] != 0, name
    assert spans
    assert all(span["parent"] is None or span["parent"] in ids
               for span in spans)
    assert all(span["end"] >= span["start"] for span in spans)
