import argparse
import json
import math
import os
import re
import shlex

import pytest

from frustra.cli import build_parser, main, parse_range

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


def test_scaling_mg_diagonalizes_once_per_size(tmp_path, diagonalize_calls):
    out = tmp_path / "mg.csv"
    argv = ["scaling", "--model", "mg", "--n", "8", "--k", "1..3", "--source", "ed", "--seed", "5"]
    assert run(argv + ["--output", str(out)]) == 0
    assert len(diagonalize_calls) == 1
    assert len(read(out).splitlines()) == 4


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
    ],
    ids=["range-step-0", "interference-step-0", "fig1-step-0",
         "interference-step-negative", "fig1-step-negative", "threshold-abc",
         "fig1-output-is-a-file", "range-descending", "interference-d-reversed",
         "interference-j1-unknown", "n-not-integer", "m-not-integer",
         "interference-rvb-m", "interference-heisenberg-gas-shape",
         "frustration-ising-gas-j1", "scaling-analytic-unfrustrated",
         "bounds-check-samples-negative", "bounds-check-samples-0",
         "bounds-check-heisenberg-gas-samples"],
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
