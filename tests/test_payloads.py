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
    # the Ising gas and the single-bond ring: recorded on the mask path
    # (``cool`` on the 2^n product state and its diagonal), before their
    # ground runs took the known ground configurations; the off-grid
    # lambda 0.5 at n = 6, 10 and 14 keeps two tied sectors, the
    # unfrustrated ring two configurations, and both stay on the mask path
    "cool --model ising-gas --n 6 --k 1..5": "f3a115f02d3333b62f9dd7f944273feca9be52c5",
    "cool --model ising-gas --n 6 --k 1..5 --lambda 0.5":
        "b0b420a71a9b535a7b2b07700d44026a07f36d9a",
    "cool --model ising-gas --n 6 --k 1..5 --lambda 0.3":
        "a3f33ff48444eb8499716f1c2acdc32b04d33773",
    "cool --model ising-gas --n 6 --k 1..5 --sign unfrustrated --lambda 0.4":
        "3ca3a61d5cf526347bdb8fed6df142a42fb82d34",
    "cool --model ising-gas --n 8 --k 1..7": "08f6abdd52edce6cab0702f7b7499cb11572f4d2",
    "cool --model ising-gas --n 8 --k 1..7 --lambda 0.5":
        "28f0ef1cc57346f19fd1370d8f6285ab56c2da05",
    "cool --model ising-gas --n 8 --k 1..7 --lambda 0.3":
        "642d5c5732c1e2652e777bba9e29571fd1c5caba",
    "cool --model ising-gas --n 8 --k 1..7 --sign unfrustrated --lambda 0.4":
        "a4ae245eadc050da5e3d8068d289d56235257ff3",
    "cool --model ising-gas --n 10 --k 1..9": "39f622a1d870c8dce0b1eca11b45b00ab4d45161",
    "cool --model ising-gas --n 10 --k 1..9 --lambda 0.5":
        "d7cdde68058e0866087b8f6939fbedfa5eea3675",
    "cool --model ising-gas --n 10 --k 1..9 --lambda 0.3":
        "c6ff338e5898901a0655cba04b9a00e54b565bd1",
    "cool --model ising-gas --n 10 --k 1..9 --sign unfrustrated --lambda 0.4":
        "50e20404600a0e5e24b55103f140918e99df8400",
    "cool --model ising-gas --n 12 --k 1..11": "298d49373407df321aa08cf1712085d7b6dd394f",
    "cool --model ising-gas --n 12 --k 1..11 --lambda 0.5":
        "3360bfacd32c5ed73980261bbc738792c73e2087",
    "cool --model ising-gas --n 12 --k 1..11 --lambda 0.3":
        "cb0eb189dc872ab1b07e9ef62b30e05bbf3464bb",
    "cool --model ising-gas --n 12 --k 1..11 --sign unfrustrated --lambda 0.4":
        "942d456b0d996cb9d032473d087753f5a3b176d0",
    "cool --model ising-gas --n 14 --k 1..13": "74cc930d085dd165e0aff3eed3df17bb7c4f0c83",
    "cool --model ising-gas --n 14 --k 1..13 --lambda 0.5":
        "bfd72a933e549e32981db0de0548d8e2b661bfb4",
    "cool --model ising-gas --n 14 --k 1..13 --lambda 0.3":
        "10f0d778c4eff86866ad16ac8c898d692da4ffc7",
    "cool --model ising-gas --n 14 --k 1..13 --sign unfrustrated --lambda 0.4":
        "25c5f9fb45e228d4bb22da05ff0000109c5aefc3",
    "cool --model single-bond --n 6 --k 1..5": "27140ad7c7f34bf6221fc0d3eb1e368a18b3e6b6",
    "cool --model single-bond --n 8 --k 1..7": "a69faa361f1d45c2d3ea14e5fb8a0711f177388d",
    "cool --model single-bond --n 10 --k 1..9": "aa4d29650733b8123735bf962f25522390f866db",
    "cool --model single-bond --n 12 --k 1..11": "a78f9101df82fbad82292e905704ee8eea8bcdb9",
    "cool --model single-bond --n 14 --k 1..13": "3fff23d536f30981119203104db6733d37594b7a",
    "cool --model single-bond --n 6 --k 1..5 --sign unfrustrated":
        "abcd0463e78641d5b4094bd9aefadd35b5bf190e",
    "cool --model single-bond --n 10 --k 1..9 --sign unfrustrated":
        "ecc424d93cad480730558bf67ed6dc08d07c3495",
    "scaling --model ising-gas --n 4..14..2 --k 1..3 --source ed":
        "fd1f22364e7d0cfe8cb0993ecd7c94d13099c96c",
    "scaling --model single-bond --n 4..14..2 --k 1..3 --source ed":
        "fbb654d77f04da83cc79af70f740edc8b2695ff3",
}


@pytest.mark.parametrize("cmd", sorted(DENSE_STDOUT_SHA1))
def test_dense_stdout_keeps_its_bytes(capsys, cmd):
    assert main(cmd.split()) == 0
    assert hashlib.sha1(capsys.readouterr().out.encode()).hexdigest() == DENSE_STDOUT_SHA1[cmd]
