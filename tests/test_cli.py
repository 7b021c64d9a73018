import argparse
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc

import pytest

from frustra import cli, cooling, models, spin_core
from frustra.cli import _MAX_VALUES, build_parser, main, parse_range
from frustra.closed_forms import mg_bounds

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def run(argv):
    return main(argv)


def read(path):
    with open(path) as fh:
        return fh.read()


def test_parse_range():
    assert parse_range("4") == [4]
    assert parse_range("2..5") == [2, 3, 4, 5]
    assert parse_range("6..12..2") == [6, 8, 10, 12]


def test_ranges_hold_at_most_a_million_values():
    # the cap is on the count, taken before the list is built
    assert len(parse_range(f"1..{_MAX_VALUES}")) == _MAX_VALUES
    assert parse_range(f"0..{10 * _MAX_VALUES - 1}..10")[-1] == 10 * _MAX_VALUES - 10
    grid = cli._d_grid(argparse.Namespace(d_min=None, d_max=None, d_step=0.001))
    assert len(grid) == 961 and grid[-1] == pytest.approx(0.98)
    from frustra.spin_core import ValidationError

    with pytest.raises(ValidationError, match="more than 1000000 values"):
        parse_range(f"1..{_MAX_VALUES + 1}")
    with pytest.raises(ValidationError, match="more than 1000000 densities"):
        cli._d_grid(argparse.Namespace(d_min=0.0, d_max=1.0, d_step=1e-6))


@pytest.mark.parametrize("argv", [
    "scaling --model ising-gas --source analytic --m 10 --k 1..100000000",
    "scaling --model ising-gas --source analytic --m 1..100000000 --k 1",
    "scaling --model mg --n 8 --k 1..1000000000000000000000000",
    "interference --model rvb --d-step 1e-9",
    "fig1 --d-step 1e-9",
    "fig1 --d-step 5e-324",
], ids=["k", "m", "k-past-int64", "interference", "fig1", "fig1-step-underflows"])
def test_oversized_range_is_refused_before_allocating(tmp_path, capsys, argv):
    # the count is checked before the list or grid is built
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = run(argv.split() + ["--output", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "more than 1000000" in err[0]
    assert peak < 64 << 20
    assert not out.exists()


def test_parse_range_rejects_garbage():
    from frustra.spin_core import ValidationError

    with pytest.raises(ValidationError):
        parse_range("a..b")


def test_scaling_analytic_ising(tmp_path):
    out = tmp_path / "scan.csv"
    code = run(
        [
            "scaling", "--model", "ising-gas", "--m", "2", "--k", "1..3",
            "--lambda", "0", "--source", "analytic", "--output", str(out),
        ]
    )
    assert code == 0
    lines = read(out).strip().splitlines()
    assert lines[0].startswith("size,k,entropy")
    row = dict(zip(lines[0].split(","), lines[2].split(",")))
    assert int(row["k"]) == 2
    assert float(row["entropy"]) == pytest.approx(1.2516, abs=1e-4)
    assert os.path.exists(str(out) + ".manifest.json")


def test_scaling_outputs_are_deterministic(tmp_path):
    args = [
        "scaling", "--model", "ising-gas", "--m", "3", "--k", "1..5",
        "--lambda", "0", "--source", "analytic",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--output", str(a)]) == 0
    assert run(args + ["--output", str(b)]) == 0
    assert read(a) == read(b)


def test_scaling_mg_golden(tmp_path):
    out = tmp_path / "mg.csv"
    code = run(
        ["scaling", "--model", "mg", "--n", "8", "--k", "4", "--source", "ed",
         "--seed", "3", "--output", str(out)]
    )
    assert code == 0
    row = read(out).strip().splitlines()[1].split(",")
    assert float(row[2]) == pytest.approx(2.314, abs=0.01)
    # bounds columns populated for the dimer chain
    assert float(row[4]) == 2.0
    assert float(row[5]) == pytest.approx(math.log2(5.0))


MG_GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "mg_optimiser")


@pytest.mark.parametrize("seed", [5, 7, 11])
@pytest.mark.parametrize("n, k, name", [("6", "2..3", "mg_n6_k2-3"), ("8", "4", "mg_n8_k4")],
                         ids=["n6-k2..3", "n8-k4"])
def test_scaling_mg_optimiser_payload_equals_golden(tmp_path, n, k, name, seed):
    # the goldens were written by the optimiser that cooled a 2^n state at
    # every step; the manifold-coordinate search must give the same bytes
    out = tmp_path / "mg.csv"
    argv = ["scaling", "--model", "mg", "--n", n, "--k", k, "--source", "ed", "--seed", str(seed)]
    assert run(argv + ["--output", str(out)]) == 0
    assert read(out) == read(os.path.join(MG_GOLDENS, f"{name}_seed{seed}.csv"))


BLOCK_ENTROPY_GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                                     "block_entropy")


@pytest.mark.parametrize("argv, name", [
    ("cool --model ising-gas --n 18 --k 1..17", "cool_ising-gas_n18_k1-17.csv"),
    ("cool --model single-bond --n 18 --k 1..17", "cool_single-bond_n18_k1-17.csv"),
    ("cool --model mg --n 12 --k 1..11", "cool_mg_n12_k1-11.csv"),
    ("cool --model heisenberg-gas --n 12 --k 1..11", "cool_heisenberg-gas_n12_k1-11.csv"),
    ("bounds-check --model heisenberg-gas --n 10", "bounds-check_heisenberg-gas_n10.json"),
], ids=["ising-gas-n18", "single-bond-n18", "mg-n12", "heisenberg-gas-n12",
        "bounds-check-heisenberg-gas-n10"])
def test_block_entropy_payload_equals_golden_bytes(tmp_path, argv, name):
    # the goldens were written by the block_entropy that diagonalised the
    # whole Gram matrix of every cut; the sector split must print the
    # same bytes
    out = tmp_path / name
    assert run(argv.split() + ["--output", str(out)]) == 0
    with open(os.path.join(BLOCK_ENTROPY_GOLDENS, name), "rb") as fh:
        assert out.read_bytes() == fh.read()


@pytest.mark.parametrize("k", ["12", "0", "1..12"])
def test_cool_refuses_a_bad_cut_before_the_spectrum(tmp_path, capsys, diagonalize_calls, k):
    out = tmp_path / "mg.csv"
    assert run(["cool", "--model", "mg", "--n", "12", "--k", k, "--output", str(out)]) == 2
    assert diagonalize_calls == []
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: system side must be a proper nonempty subset of the sites"]
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    "bounds-check --model mg --n 1000000 --samples 1",
    "cool --model ising-gas --n 64 --k 1",
    "cool --model single-bond --n 64 --k 1",
], ids=["bounds-check-mg", "cool-ising-gas", "cool-single-bond"])
def test_oversized_state_is_refused_before_allocating(tmp_path, capsys, argv):
    # a 2^64 state, or the MG span setup of a million cuts (two 16 x 16
    # powers and the blocks of each, 4.77 GiB): refused by the dense budget
    # before numpy is asked for it
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = run(argv.split() + ["--output", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: dense work needs")
    assert peak < 64 << 20
    assert not out.exists()


def test_scaling_mg_diagonalizes_nothing_and_shares_the_span_setup(
        tmp_path, monkeypatch, diagonalize_calls):
    # the optimiser and bounds-check reach the one span kernel of models,
    # one call each for all their cuts, and neither takes a spectrum
    setups = []
    mg_span_blocks = models.mg_span_blocks
    assert cooling.mg_span_blocks is cli.mg_span_blocks is mg_span_blocks

    def spy(caller):
        def counting(spec, ks):
            setups.append((caller, spec.m, tuple(ks)))
            return mg_span_blocks(spec, ks)

        return counting

    monkeypatch.setattr(spin_core, "diagonalize", lambda *args: pytest.fail("diagonalize"))
    monkeypatch.setattr(cooling, "mg_span_blocks", spy("scaling"))
    monkeypatch.setattr(cli, "mg_span_blocks", spy("bounds-check"))
    out = tmp_path / "mg.csv"
    argv = ["scaling", "--model", "mg", "--n", "8", "--k", "3..4", "--source", "ed", "--seed", "5"]
    assert run(argv + ["--output", str(out)]) == 0
    assert len(read(out).splitlines()) == 3
    assert run(["bounds-check", "--model", "mg", "--n", "8", "--samples", "1",
                "--output", str(tmp_path / "mg.json")]) == 0
    assert diagonalize_calls == []
    assert setups == [("scaling", 4, (3, 4)), ("bounds-check", 4, tuple(range(1, 8)))]


@pytest.mark.parametrize("argv", [
    "bounds-check --model mg --n 64 --samples 20",
    "scaling --model mg --n 1000 --k 2..40",
], ids=["bounds-check", "scaling"])
def test_mg_span_at_any_size_builds_no_covering(tmp_path, monkeypatch, argv):
    # the transfer matrices need no 2^n vector, so sizes far past the dense
    # budget run, and every row lies within the bounds
    monkeypatch.setattr(models, "dimer_product_state",
                        lambda *args: pytest.fail("dimer_product_state called"))
    out = tmp_path / "out"
    assert run(argv.split() + ["--output", str(out)]) == 0
    if argv.startswith("bounds-check"):
        assert json.loads(read(out)) == {"all_ok": True, "checked": 20 * 63, "model": "mg",
                                         "violations": []}
        return
    rows = [line.split(",") for line in read(out).splitlines()[1:]]
    assert [int(r[1]) for r in rows] == list(range(2, 41))
    for size, k, e, source, lower, upper in rows:
        assert (size, source) == ("1000", "ed")
        assert (float(lower), float(upper)) == pytest.approx(mg_bounds(int(k), 1000), abs=1e-11)
        assert float(lower) - 1e-9 <= float(e) <= float(upper) + 1e-9


# VmHWM, not ru_maxrss: a child's ru_maxrss starts at its parent's RSS at fork
_PEAK_RSS = """
import sys
from frustra import cli
assert cli.main(sys.argv[1:]) == 0
with open("/proc/self/status") as fh:
    print(next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) * 1024)
"""


def _peak_rss(tmp_path, argv):
    """Peak RSS in bytes of one CLI run in a fresh process on one BLAS
    thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([os.path.dirname(os.path.dirname(cli.__file__)),
                                          os.environ.get("PYTHONPATH", "")]))
    argv = argv.split() + ["--output", str(tmp_path / "out")]
    out = subprocess.run([sys.executable, "-c", _PEAK_RSS, *argv], env=env,
                         capture_output=True, text=True, check=True, timeout=300)
    return int(out.stdout)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
@pytest.mark.parametrize("argv, small", [
    ("bounds-check --model mg --n 64 --samples 20", "bounds-check --model mg --n 8 --samples 20"),
    ("scaling --model mg --n 1000 --k 2..40", "scaling --model mg --n 8 --k 2..4"),
    ("scaling --model mg --n 1000000 --k 2..40", "scaling --model mg --n 8 --k 2..4"),
], ids=["bounds-check", "scaling", "scaling-million"])
def test_mg_span_peak_rss_stays_near_a_small_run(tmp_path, argv, small):
    # the kernel holds a few 16 x 16 matrices and small blocks per cut, and
    # the search builds nothing of the ring's size: the peak RSS of a large
    # ring grows by less than 32 MB over n = 8
    assert _peak_rss(tmp_path, argv) - _peak_rss(tmp_path, small) < 32 << 20


def test_scaling_mg_n16_lies_within_the_bounds(tmp_path):
    # past the reach of the n=16 spectrum (2.86 GiB of sector eigenvectors)
    out = tmp_path / "mg.csv"
    assert run(["scaling", "--model", "mg", "--n", "16", "--k", "8", "--source", "ed",
                "--output", str(out)]) == 0
    size, k, e, source, lower, upper = read(out).splitlines()[1].split(",")
    assert (size, k, source) == ("16", "8", "ed")
    assert float(lower) <= float(e) <= float(upper)


def test_scaling_single_bond_decreasing(tmp_path, single_bond_entropy):
    out = tmp_path / "sb.csv"
    code = run(
        ["scaling", "--model", "single-bond", "--n", "6..12..2", "--k", "2",
         "--source", "analytic", "--output", str(out)]
    )
    assert code == 0
    rows = [line.split(",") for line in read(out).strip().splitlines()[1:]]
    assert [int(r[0]) for r in rows] == [6, 8, 10, 12]
    es = [float(r[2]) for r in rows]
    for n, e in zip((6, 8, 10, 12), es):
        assert e == pytest.approx(single_bond_entropy(n, 2), abs=1e-10)
    assert max(es) <= 2.0
    # finite-size rise from 2m=6 to 8, then strictly decreasing
    assert all(a > b for a, b in zip(es[1:], es[2:])), f"column not decreasing: {es}"


@pytest.mark.parametrize("sizes,ks", [("4..16..2", "1..3"), ("12", "1..11")])
def test_scaling_single_bond_analytic_prints_the_state_entropies(tmp_path, sizes, ks):
    # the closed form prints the same 12 digits as the entropy of the
    # combinatorial state it describes
    from frustra.closed_forms import single_bond_cooled_state
    from frustra.spin_core import Bipartition, block_entropy

    out = tmp_path / "sb.csv"
    assert run(["scaling", "--model", "single-bond", "--n", sizes, "--k", ks,
                "--source", "analytic", "--output", str(out)]) == 0
    want = ["size,k,entropy,source,lower_bound,upper_bound"]
    for n in parse_range(sizes):
        st = single_bond_cooled_state(n // 2)
        for k in parse_range(ks):
            e = block_entropy(st, Bipartition.contiguous(k))
            want.append(f"{n},{k},{e:.12g},analytic,,")
    assert read(out).splitlines() == want


def test_scaling_single_bond_n40_builds_no_state(tmp_path, single_bond_entropy):
    # one 2^40 state would take 8 TiB; the closed form takes a few numbers
    out = tmp_path / "sb.csv"
    tracemalloc.start()
    try:
        code = run(["scaling", "--model", "single-bond", "--n", "40", "--k", "1..3",
                    "--source", "analytic", "--output", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    rows = [line.split(",") for line in read(out).strip().splitlines()[1:]]
    assert [(r[0], r[1]) for r in rows] == [("40", "1"), ("40", "2"), ("40", "3")]
    for r in rows:
        assert float(r[2]) == pytest.approx(single_bond_entropy(40, int(r[1])), abs=1e-10)
    assert peak < 1 << 20


def test_scaling_mg_odd_cut_within_upper_bound(tmp_path):
    out = tmp_path / "mg3.csv"
    code = run(
        ["scaling", "--model", "mg", "--n", "6", "--k", "3", "--source", "ed",
         "--output", str(out)]
    )
    assert code == 0
    row = read(out).strip().splitlines()[1].split(",")
    assert float(row[2]) <= float(row[5]) + 1e-9


def test_scaling_ed_cools_once_per_size(tmp_path, monkeypatch):
    import frustra.cooling

    calls = []
    diagonalize = frustra.cooling.diagonalize

    def counting(op):
        calls.append(op.num_sites)
        return diagonalize(op)

    monkeypatch.setattr(frustra.cooling, "diagonalize", counting)
    out = tmp_path / "hg.csv"
    code = run(
        ["scaling", "--model", "heisenberg-gas", "--n", "4..6..2", "--k", "1..3",
         "--source", "ed", "--output", str(out)]
    )
    assert code == 0
    assert calls == [4, 6]
    rows = [line.split(",") for line in read(out).strip().splitlines()[1:]]
    assert [(int(r[0]), int(r[1])) for r in rows] == [(n, k) for n in (4, 6) for k in (1, 2, 3)]
    # the same entropies as cool on the same cuts
    cooled = tmp_path / "cool.csv"
    assert run(["cool", "--model", "heisenberg-gas", "--n", "6", "--k", "1..3",
                "--output", str(cooled)]) == 0
    cool_rows = [line.split(",") for line in read(cooled).strip().splitlines()[1:]]
    assert [r[2] for r in rows[3:]] == [r[5] for r in cool_rows]


def test_cool_subcommand(tmp_path):
    out = tmp_path / "cool.csv"
    code = run(
        ["cool", "--model", "single-bond", "--n", "6", "--k", "1..3",
         "--output", str(out)]
    )
    assert code == 0
    lines = read(out).strip().splitlines()
    assert lines[0] == "model,params,threshold,k,cut_spec,entropy,z"
    assert len(lines) == 4


def test_cool_pure_cuts_print_zero_not_minus_zero(tmp_path):
    # lambda = 1 cools the m=2 Ising gas onto a product state
    out = tmp_path / "cool.csv"
    argv = ["cool", "--model", "ising-gas", "--m", "2", "--lambda", "1", "--k", "1..3"]
    assert run(argv + ["--output", str(out)]) == 0
    rows = [line.split(",") for line in read(out).strip().splitlines()[1:]]
    assert [row[-2] for row in rows] == ["0", "0", "0"]


def test_cool_builds_hamiltonian_once(tmp_path, monkeypatch):
    import frustra.cooling as cooling
    import frustra.models as models

    calls = []
    build_model = models.build_model

    def counting(spec):
        calls.append(spec)
        return build_model(spec)

    monkeypatch.setattr(models, "build_model", counting)
    monkeypatch.setattr(cooling, "build_model", counting)
    out = tmp_path / "cool.csv"
    assert run(["cool", "--model", "mg", "--n", "6", "--k", "2", "--output", str(out)]) == 0
    assert len(calls) == 1
    assert len(read(out).strip().splitlines()) == 2


@pytest.mark.parametrize(
    "argv,f",
    [
        (["frustration", "--model", "ising-gas", "--m", "4"], 0.75),
        (["frustration", "--model", "single-bond", "--n", "6"], 0.2),
        (["frustration", "--model", "mg", "--n", "8"], 0.5),
    ],
)
def test_frustration_subcommand(tmp_path, argv, f):
    out = tmp_path / "f.json"
    assert run(argv + ["--output", str(out)]) == 0
    data = json.loads(read(out))
    assert data["f"] == pytest.approx(f, abs=1e-9)
    assert data["closed_form"] == pytest.approx(f, abs=1e-9)


def test_interference_heisenberg_gas_m50_builds_no_coverings(tmp_path):
    # 50! coverings of 2^100 amplitudes each; the closed form needs none
    out = tmp_path / "hg.json"
    tracemalloc.start()
    try:
        code = run(["interference", "--model", "heisenberg-gas", "--m", "50",
                    "--output", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    rows = json.loads(read(out))
    assert [r["k"] for r in rows] == list(range(1, 51))
    for r in rows:
        assert r["e_super"] == math.log2(r["k"] + 1)
        assert r["e_avg"] == r["k"] and isinstance(r["e_avg"], float)
        assert r["verdict"] == ("marginal" if r["k"] == 1 else "destructive")
    assert peak < 1 << 20


def test_interference_curve_subcommand(tmp_path):
    out = tmp_path / "curve.tsv"
    code = run(
        ["interference", "--shape", "square", "--d-min", "0.1", "--d-max", "0.9",
         "--d-step", "0.1", "--output", str(out)]
    )
    assert code == 0
    lines = read(out).strip().splitlines()
    assert lines[0] == "d\tratio"
    assert len(lines) == 10


def test_interference_grid_stops_at_d_max(tmp_path):
    out = tmp_path / "curve.tsv"
    code = run(
        ["interference", "--d-min", "0.1", "--d-max", "0.5", "--d-step", "0.15",
         "--output", str(out)]
    )
    assert code == 0
    ds = [float(line.split("\t")[0]) for line in read(out).strip().splitlines()[1:]]
    assert ds == pytest.approx([0.1, 0.25, 0.4])


def test_fig1_grid_stops_at_d_max(tmp_path):
    assert run(["fig1", "--d-step", "0.1", "--output", str(tmp_path)]) == 0
    for shape in ("square", "horizontal"):
        rows = read(tmp_path / f"fig1_{shape}.tsv").strip().splitlines()[1:]
        assert float(rows[-1].split("\t")[0]) <= 0.98


def test_fig1_outputs(tmp_path):
    code = run(["fig1", "--output", str(tmp_path)])
    assert code == 0
    sq = read(tmp_path / "fig1_square.tsv").strip().splitlines()[1:]
    hz = read(tmp_path / "fig1_horizontal.tsv").strip().splitlines()[1:]
    assert os.path.exists(tmp_path / "fig1.manifest.json")
    pts = [tuple(map(float, line.split("\t"))) for line in sq]
    peak_d, peak_r = max(pts, key=lambda p: p[1])
    assert peak_d == pytest.approx(0.5)
    assert peak_r == pytest.approx(1.2075, abs=1e-3)
    # horizontal boundary is destructive at small density
    assert all(r < 1 for d, r in [tuple(map(float, l.split("\t"))) for l in hz] if d < 0.1)


def test_fig1_square_curve_crosses_unity_twice(tmp_path):
    code = run(["fig1", "--output", str(tmp_path)])
    assert code == 0
    sq = read(tmp_path / "fig1_square.tsv").strip().splitlines()[1:]
    ratios = [float(line.split("\t")[1]) for line in sq]
    crossings = sum(
        1 for a, b in zip(ratios, ratios[1:]) if (a - 1.0) * (b - 1.0) < 0
    )
    assert crossings == 2, f"square curve crosses 1.0 {crossings} times"


def test_bounds_check_mg(tmp_path):
    out = tmp_path / "bounds.json"
    code = run(
        ["bounds-check", "--model", "mg", "--n", "6", "--samples", "5",
         "--seed", "1", "--output", str(out)]
    )
    assert code == 0
    data = json.loads(read(out))
    assert data["checked"] == 5 * 5
    assert "violations" in data and "all_ok" in data


MG_BOUNDS_GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                                 "mg_bounds_check")


@pytest.mark.parametrize("seed", [5, 7, 11])
@pytest.mark.parametrize("n", ["6", "8", "12"])
def test_bounds_check_mg_payload_equals_golden(tmp_path, n, seed):
    # the goldens were written by the per-sample block_entropy loop
    out = tmp_path / "bounds.json"
    assert run(["bounds-check", "--model", "mg", "--n", n, "--seed", str(seed),
                "--output", str(out)]) == 0
    assert read(out) == read(os.path.join(MG_BOUNDS_GOLDENS, f"mg_n{n}_seed{seed}.json"))


def test_bounds_check_mg_one_sample(tmp_path):
    out = tmp_path / "bounds.json"
    assert run(["bounds-check", "--model", "mg", "--n", "8", "--samples", "1",
                "--output", str(out)]) == 0
    data = json.loads(read(out))
    assert data == {"all_ok": True, "checked": 7, "model": "mg", "violations": []}


def test_bounds_check_heisenberg(tmp_path):
    out = tmp_path / "hb.json"
    code = run(["bounds-check", "--model", "heisenberg-gas", "--m", "2",
                "--output", str(out)])
    assert code == 0
    data = json.loads(read(out))
    assert data["all_ok"] is True


def test_usage_errors_exit_2():
    assert run(["scaling", "--model", "ising-gas", "--m", "2", "--k", "0..9"]) == 2
    assert run(["cool", "--model", "single-bond", "--n", "7", "--k", "1"]) == 2
    assert run(["scaling", "--model", "nope", "--m", "2", "--k", "1"]) == 2


def test_no_partial_output_on_error(tmp_path):
    out = tmp_path / "bad.csv"
    code = run(
        ["scaling", "--model", "ising-gas", "--m", "2", "--k", "0..9",
         "--source", "analytic", "--output", str(out)]
    )
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["cool", "--model", "mg", "--n", "6", "--k", "1..5..0"],
        ["interference", "--d-step", "0"],
        ["fig1", "--d-step", "0"],
        ["interference", "--d-step", "-0.1"],
        ["fig1", "--d-step", "-0.1"],
        ["cool", "--model", "mg", "--n", "6", "--threshold", "abc"],
        ["fig1"],
        ["cool", "--model", "mg", "--n", "6", "--k", "5..2"],
        ["interference", "--d-min", "0.9", "--d-max", "0.1"],
        ["interference", "--j1", "2"],
        ["frustration", "--model", "mg", "--n", "7x"],
        ["cool", "--model", "mg", "--m", "abc"],
        ["interference", "--d-step", "0.24", "--m", "5"],
        ["interference", "--model", "heisenberg-gas", "--m", "3", "--shape", "vertical"],
        ["frustration", "--model", "ising-gas", "--n", "6", "--j1", "-1"],
        ["scaling", "--model", "ising-gas", "--m", "3", "--k", "2", "--source", "analytic",
         "--sign", "unfrustrated"],
        ["bounds-check", "--model", "mg", "--n", "6", "--samples", "-3"],
        ["bounds-check", "--model", "mg", "--n", "6", "--samples", "0"],
        ["bounds-check", "--model", "heisenberg-gas", "--n", "4", "--samples", "5"],
        ["interference", "--model", "heisenberg-gas", "--m", "3", "--k", "6"],
        ["interference", "--model", "heisenberg-gas", "--m", "0"],
        ["interference", "--model", "heisenberg-gas", "--m", "-1"],
        ["interference", "--model", "heisenberg-gas", "--n", "0"],
        ["cool", "--model", "single-bond", "--n", "-2", "--sign", "unfrustrated"],
    ],
    ids=["range-step-0", "interference-step-0", "fig1-step-0",
         "interference-step-negative", "fig1-step-negative", "threshold-abc",
         "fig1-output-is-a-file", "range-descending", "interference-d-reversed",
         "interference-j1-unknown", "n-not-integer", "m-not-integer",
         "interference-rvb-m", "interference-heisenberg-gas-shape",
         "frustration-ising-gas-j1", "scaling-analytic-unfrustrated",
         "bounds-check-samples-negative", "bounds-check-samples-0",
         "bounds-check-heisenberg-gas-samples", "interference-heisenberg-gas-k-2m",
         "interference-heisenberg-gas-m-0", "interference-heisenberg-gas-m-negative",
         "interference-heisenberg-gas-n-0", "cool-single-bond-unfrustrated-n-negative"],
)
def test_malformed_input_exits_2_with_one_error_line(tmp_path, capsys, argv):
    out = tmp_path / "out"
    if argv == ["fig1"]:
        # fig1 writes a directory; an existing file there must stay as it is
        out.write_text("kept\n")
    assert run(argv + ["--output", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len([line for line in err if "error:" in line]) == 1
    if argv == ["fig1"]:
        assert out.read_text() == "kept\n"
        assert list(tmp_path.iterdir()) == [out]
    else:
        assert not out.exists()


@pytest.mark.parametrize("sign", ["frustrated", "unfrustrated"])
@pytest.mark.parametrize("argv", [["cool"], ["scaling", "--k", "1"], ["frustration"]],
                         ids=["cool", "scaling", "frustration"])
def test_single_bond_ring_needs_four_sites_for_either_sign(capsys, argv, sign):
    assert run(argv + ["--model", "single-bond", "--n", "2", "--sign", sign]) == 2
    assert capsys.readouterr().err == "error: need at least 4 sites\n"


def test_memory_error_exits_2(tmp_path, monkeypatch, capsys):
    import frustra.cooling

    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(frustra.cooling, "diagonalize", out_of_memory)
    out = tmp_path / "mg.csv"
    code = run(["cool", "--model", "mg", "--n", "6", "--k", "2", "--output", str(out)])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out.exists()


# The model options that each model takes.  Every other (subcommand,
# model, option) combination the parser accepts must be refused.
TAKEN = {("ising-gas", "--lambda"), ("ising-gas", "--sign"), ("single-bond", "--sign"),
         ("shastry", "--j1"), ("shastry", "--j2")}
VALUES = {"--lambda": "0.5", "--j1": "2", "--j2": "2", "--sign": "frustrated"}
SIZES = {"scaling": ["--n", "4", "--k", "1"], "cool": ["--n", "4"],
         "frustration": ["--n", "4"], "bounds-check": ["--n", "4", "--samples", "1"]}


def _model_options():
    """(subcommand, model, option) for every --model choice and model
    option that the parser accepts."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    out = []
    for command, parser in sub.choices.items():
        flags = {flag for action in parser._actions for flag in action.option_strings}
        for action in parser._actions:
            if "--model" in action.option_strings:
                out += [(command, model, flag) for model in action.choices
                        for flag in sorted(flags & VALUES.keys())]
    return out


MODEL_OPTIONS = _model_options()
REFUSED = [c for c in MODEL_OPTIONS if c[1:] not in TAKEN]


def test_models_take_eleven_of_sixty_model_options():
    assert len(MODEL_OPTIONS) == 60
    assert len(MODEL_OPTIONS) - len(REFUSED) == 11


@pytest.mark.parametrize("command,model,flag", REFUSED, ids=["-".join(c) for c in REFUSED])
def test_model_refuses_options_it_does_not_take(tmp_path, capsys, command, model, flag):
    out = tmp_path / "out"
    argv = [command, "--model", model, *SIZES[command], flag, VALUES[flag], "--output", str(out)]
    assert run(argv) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: --model {model} does not take {flag}"]
    assert not out.exists()


def test_readme_commands_run(tmp_path):
    with open(README) as fh:
        blocks = re.findall(r"```sh\n(.*?)```", fh.read(), re.S)
    commands = [line for block in blocks for line in block.splitlines()
                if line.startswith("frustra ")]
    assert commands
    for i, line in enumerate(commands):
        argv = shlex.split(line)[1:]
        if "--output" in argv:
            del argv[argv.index("--output"):argv.index("--output") + 2]
        assert main(argv + ["--output", str(tmp_path / f"out{i}")]) == 0, line
