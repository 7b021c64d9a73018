import json
import math
import os

import pytest

from frustra.cli import main, parse_range


def run(argv):
    return main(argv)


def read(path):
    with open(path) as fh:
        return fh.read()


def test_parse_range():
    assert parse_range("4") == [4]
    assert parse_range("2..5") == [2, 3, 4, 5]
    assert parse_range("6..12..2") == [6, 8, 10, 12]


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


def test_scaling_mg_odd_cut_within_upper_bound(tmp_path):
    out = tmp_path / "mg3.csv"
    code = run(
        ["scaling", "--model", "mg", "--n", "6", "--k", "3", "--source", "ed",
         "--output", str(out)]
    )
    assert code == 0
    row = read(out).strip().splitlines()[1].split(",")
    assert float(row[2]) <= float(row[5]) + 1e-9


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


def test_cool_builds_hamiltonian_once(tmp_path, monkeypatch):
    import frustra.cli as cli
    import frustra.models as models

    calls = []
    build_model = models.build_model

    def counting(spec):
        calls.append(spec)
        return build_model(spec)

    monkeypatch.setattr(models, "build_model", counting)
    monkeypatch.setattr(cli, "build_model", counting)
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
    ],
    ids=["range-step-0", "interference-step-0", "fig1-step-0",
         "interference-step-negative", "fig1-step-negative", "threshold-abc",
         "fig1-output-is-a-file", "range-descending", "interference-d-reversed",
         "interference-j1-unknown", "n-not-integer", "m-not-integer"],
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
