"""Payload regression net: every deterministic job of the benchmark, quick
and full, runs through ``cli.main`` and its payload must equal the recorded
golden (numbers to the benchmark tolerance; the free-text ``params`` column
is not compared).  The benchmark's job lists and goldens are read, never
written.
"""
import importlib.util
import os

import pytest

from frustra.cli import main

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(PERFBENCH, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
GOLDENS = workloads.load_goldens()


def _deterministic_jobs(quick: bool) -> list:
    return sorted({cmd for name in workloads.WORKLOADS
                   for cmd in workloads.job_list(name, quick=quick)
                   if not workloads.is_seeded(cmd)})


def _check_payload(tmp_path, cmd):
    out = str(tmp_path / "payload")
    assert main(cmd.split() + ["--output", out]) == 0
    assert workloads.compare(workloads.read_payload(cmd, out), GOLDENS[cmd]) == []


@pytest.mark.parametrize("cmd", _deterministic_jobs(quick=True))
def test_quick_job_payload_equals_golden(tmp_path, cmd):
    _check_payload(tmp_path, cmd)


@pytest.mark.parametrize("cmd", _deterministic_jobs(quick=False))
def test_full_job_payload_equals_golden(tmp_path, cmd):
    _check_payload(tmp_path, cmd)
