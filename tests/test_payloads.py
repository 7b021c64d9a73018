"""Payload regression net: every deterministic job of the benchmark, quick
and full, runs through ``cli.main`` and its payload must equal the recorded
golden (numbers to the benchmark tolerance; the free-text ``params`` column
is not compared).  The benchmark's job lists and goldens are read, never
written.  The dense cooling runs of ``DENSE_STDOUT_SHA1`` must also keep
every byte of their stdout.
"""
import hashlib
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


# sha1 of stdout, recorded with the all-eigh layout of ``diagonalize`` (every
# block's eigenvectors computed; ``reference.sector_eigh`` is its oracle),
# at the ground threshold and at a threshold inside a gap of the spectrum.
# The MG and Heisenberg-gas ground runs now take the known ground
# manifold, and must print the same bytes
DENSE_STDOUT_SHA1 = {
    "cool --model mg --n 6 --k 1..5": "d38acda7c4dadb3f91ddafb061542d13a06273cf",
    "cool --model mg --n 6 --k 1..5 --threshold -1.234": "7683390b0432e5a9380876835b13c0d3a9d640f7",
    "cool --model heisenberg-gas --n 6 --k 1..5": "b262295f0f0f5a5c3c36298d7bb578e59dadc5b8",
    "cool --model heisenberg-gas --n 6 --k 1..5 --threshold -0.2345":
        "94d3c768eea12c5118c78368ac8d42af3faa8315",
    "cool --model mg --n 8 --k 1..7": "655d39b4f24d0d9714975d14879a32848e20a752",
    "cool --model mg --n 8 --k 1..7 --threshold -1.234": "fb6cbe09c0193b6f3c184ce964e71fb0e4732074",
    "cool --model heisenberg-gas --n 8 --k 1..7": "fa650484c8cf83ac30c81dff6824937f8dba532a",
    "cool --model heisenberg-gas --n 8 --k 1..7 --threshold -0.2345":
        "2200eca487718cc5696b8f21f7dcd4d55401f31b",
    "cool --model mg --n 10 --k 1..9": "cf58095da53dfefc8ea43116af131be4c0245b2d",
    "cool --model mg --n 10 --k 1..9 --threshold -1.234": "23554ed39a65277d2bed75a1d88b6108cc2c7883",
    "cool --model heisenberg-gas --n 10 --k 1..9": "dbbfcd637f717e52083dc6ac6de8e19d2b5f611a",
    "cool --model heisenberg-gas --n 10 --k 1..9 --threshold -0.2345":
        "9f5745805fb3866b4c9c34a50cf64d008ed276c2",
    "cool --model mg --n 12 --k 1..11": "32b107d7868bb330126d7f04f98b5a123d65af29",
    "cool --model mg --n 12 --k 1..11 --threshold -1.234": "aed68cfbae72f1112bff81366fe7490c00e0e518",
    "cool --model heisenberg-gas --n 12 --k 1..11": "a86cf802bfc8ab4bf1ff1599bc77c021d4c70c7e",
    "cool --model heisenberg-gas --n 12 --k 1..11 --threshold -0.2345":
        "a49d5f1c9f02cbff068a306bb8168b08d6c861f7",
    "bounds-check --model heisenberg-gas --n 8": "917ff2e7a9b22fdf622873e743944ce9c78f40e4",
    "scaling --model heisenberg-gas --n 4..8..2 --k 2 --source ed":
        "8ac17d0c9a5ffcbfb6fd9a7c9526d30f37d2387f",
    # above every level, where the projection is the identity: the initial
    # product state renormalized, so most cuts print an exact 0
    "cool --model mg --n 6 --k 1..5 --threshold 1000": "f36a631d3ed7890604a181b1953f0f5ab8ef10e7",
    "cool --model mg --n 8 --k 1..7 --threshold 1000": "acb6f18b7b1867eb4998e76186e98c3164d1fe95",
    "cool --model mg --n 10 --k 1..9 --threshold 1000": "599a41faddd8b77ce5bc7159e05efef549422423",
    "cool --model mg --n 12 --k 1..11 --threshold 1000": "bb12ca06a9f192eacf0df59bca65eee0000383c4",
    "cool --model heisenberg-gas --n 6 --k 1..5 --threshold 1000":
        "40cb662931d0b6bd290edb51de921638628eaa90",
    "cool --model heisenberg-gas --n 8 --k 1..7 --threshold 1000":
        "6cef2ba4efeb80921e189c64ed44a4341c6556ff",
    "cool --model heisenberg-gas --n 10 --k 1..9 --threshold 1000":
        "52639679fb173cdb74ad3c38151525331b4094b2",
    "cool --model heisenberg-gas --n 12 --k 1..11 --threshold 1000":
        "5d842e8ae47f6fa8892e2020013932b0b0c26436",
}


@pytest.mark.parametrize("cmd", sorted(DENSE_STDOUT_SHA1))
def test_dense_stdout_keeps_its_bytes(capsys, cmd):
    assert main(cmd.split()) == 0
    assert hashlib.sha1(capsys.readouterr().out.encode()).hexdigest() == DENSE_STDOUT_SHA1[cmd]
