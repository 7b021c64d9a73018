"""The known-ground route of ``cooled_entropy_scan``: per-site pairs cooled
to the ground of the Majumdar-Ghosh ring, the Heisenberg gas, the Ising
gas or the single-bond ring, cut at [0, k), take the ground manifold
itself, with no spectrum, no diagonal and no 2^n vector.  The dense or
mask path (``cool`` on ``product_state(pairs)``, then ``block_entropy``)
is its oracle.
"""
import cmath
import functools
import math
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import frustra.cooling
import frustra.closed_forms
from frustra.cli import main
from frustra.closed_forms import heisenberg_gas_block_entropy, single_bond_block_entropy
from frustra.cooling import GROUND, cool, cooled_entropy_scan
from frustra.models import (
    HeisenbergGasLR,
    IsingGasLR,
    MajumdarGhosh,
    SingleBondIsing,
    build_model,
    default_initial_pairs,
)
from frustra.spin_core import (
    Bipartition,
    OrthogonalInitialStateError,
    PauliOperator,
    ValidationError,
    block_entropy,
    degeneracy_tol,
    diagonalize,
    popcount,
    product_state,
)

# each spec's spectrum once: the dense oracle diagonalizes per call
_cached_diagonalize = functools.lru_cache(maxsize=None)(diagonalize)
_cached_model = functools.lru_cache(maxsize=None)(build_model)


def _cuts(n):
    return [Bipartition.contiguous(k) for k in range(1, n)]


def _dense(spec, pairs):
    """(threshold, z, entropies of every cut [0, k)) of the dense path, or
    None when it finds no support below the threshold."""
    with mock.patch.object(frustra.cooling, "diagonalize", _cached_diagonalize):
        try:
            cooled = cool(_cached_model(spec), product_state(pairs))
        except OrthogonalInitialStateError:
            return None
    return cooled.threshold, cooled.z, [block_entropy(cooled.state, c) for c in _cuts(2 * spec.m)]


def _route(spec, pairs):
    """The same from ``cooled_entropy_scan``, which must neither
    diagonalize nor build a diagonal."""
    refuse = mock.Mock(side_effect=AssertionError("the route took a spectrum"))
    with mock.patch.object(frustra.cooling, "diagonalize", refuse), \
            mock.patch.object(PauliOperator, "diagonal", refuse):
        try:
            reports = cooled_entropy_scan(spec, pairs, GROUND, _cuts(2 * spec.m))
        except OrthogonalInitialStateError:
            return None
    return reports[0].threshold, reports[0].z, [r.entropy for r in reports]


def _check_against_dense(spec, pairs):
    got = _route(spec, pairs)
    # an initial state so close to orthogonal that the dense path's
    # eigenvector rounding moves its entropies by more than 1e-12 is not
    # compared; the route refuses only an exactly zero overlap
    assume(got is None or got[1] > 1e-6)
    _assert_close(got, _dense(spec, pairs))


def _assert_close(got, want):
    """Two (threshold, z, entropies) to 1e-12, or both None."""
    assert (got is None) == (want is None)
    if got is None:
        return
    assert got[0] == pytest.approx(want[0], abs=1e-12)
    assert got[1] == pytest.approx(want[1], abs=1e-12)
    np.testing.assert_allclose(got[2], want[2], rtol=0, atol=1e-12)


# pairs that repeat, so that singlet overlaps vanish exactly, beside drawn ones
_POOL = [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8), (0.6, -0.8)]
_real = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
_real_pairs = st.sampled_from(_POOL) | st.tuples(_real, _real).filter(
    lambda p: abs(p[0]) + abs(p[1]) > 0.1)
_complex_pairs = _real_pairs | st.tuples(
    st.builds(complex, _real, _real), st.builds(complex, _real, _real)).filter(
    lambda p: abs(p[0]) + abs(p[1]) > 0.1)


@given(st.integers(2, 6).flatmap(lambda m: st.tuples(
    st.just(m),
    st.lists(_real_pairs, min_size=2 * m, max_size=2 * m)
    | st.lists(_complex_pairs, min_size=2 * m, max_size=2 * m))))
def test_mg_route_equals_the_dense_path(drawn):
    m, pairs = drawn
    _check_against_dense(MajumdarGhosh(m), pairs)


@given(st.integers(1, 6), _complex_pairs, _complex_pairs)
def test_gas_route_equals_the_dense_path(m, u, v):
    _check_against_dense(HeisenbergGasLR(m), [u] * m + [v] * m)


@pytest.mark.parametrize("spec", [MajumdarGhosh(m) for m in range(2, 7)]
                         + [HeisenbergGasLR(m) for m in range(1, 7)], ids=str)
def test_default_pairs_take_the_route_and_equal_the_dense_path(spec):
    pairs = default_initial_pairs(spec)
    got, want = _route(spec, pairs), _dense(spec, pairs)
    assert f"{got[0]:.12g}" == f"{want[0]:.12g}"
    assert got[1] == pytest.approx(want[1], rel=1e-12)
    np.testing.assert_allclose(got[2], want[2], rtol=0, atol=1e-12)


@pytest.mark.parametrize("spec, pairs", [
    (MajumdarGhosh(3), [(1.0, 0.0)] * 6),
    (MajumdarGhosh(3), [(0.6, 0.8)] * 6),
    (HeisenbergGasLR(3), [(0.6, 0.8)] * 6),
    (HeisenbergGasLR(3), [(0.6, 0.8)] * 3 + [(-1.2, -1.6)] * 3),
], ids=["mg-up", "mg-parallel", "gas-parallel", "gas-antiparallel"])
def test_an_orthogonal_initial_state_is_refused_on_both_paths(spec, pairs):
    # every singlet overlap is zero: both paths raise
    assert _route(spec, pairs) is None
    assert _dense(spec, pairs) is None


def test_gas_with_unequal_black_pairs_takes_the_dense_path(diagonalize_calls):
    spec = HeisenbergGasLR(3)
    plus = (2 ** -0.5, 2 ** -0.5)
    pairs = [(1.0, 0.0), (0.6, 0.8), (1.0, 0.0)] + [plus] * 3
    reports = cooled_entropy_scan(spec, pairs, GROUND, _cuts(6))
    assert len(diagonalize_calls) == 1
    want = _dense(spec, pairs)
    assert [r.entropy for r in reports] == want[2]


@pytest.mark.parametrize("threshold, cut", [
    (-1.234, Bipartition.contiguous(2)),
    (GROUND, Bipartition((1, 2))),
], ids=["threshold", "cut"])
def test_the_route_needs_the_ground_and_cuts_from_zero(diagonalize_calls, threshold, cut):
    spec = MajumdarGhosh(4)
    pairs = default_initial_pairs(spec)
    [report] = cooled_entropy_scan(spec, pairs, threshold, [cut])
    assert len(diagonalize_calls) == 1
    cooled = cool(build_model(spec), product_state(pairs), threshold)
    assert (report.threshold, report.z) == (cooled.threshold, cooled.z)
    assert report.entropy == block_entropy(cooled.state, cut)


def test_route_z_has_no_absolute_floor(capsys):
    # the default MG state has z = 2^-(n/2 + 2): 2^-102 at n = 200, under
    # the 1e-14 floor of the dense path
    assert main(["cool", "--model", "mg", "--n", "200", "--k", "1..3"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [float(r[-1]) for r in rows] == [pytest.approx(2.0 ** -102, rel=1e-12)] * 3
    assert [float(r[-2]) for r in rows] == [1.0, 2.0, 1.0]


@pytest.mark.parametrize("argv, log2_z", [
    ("cool --model mg --n 2100 --k 1", "-1052"),
    ("cool --model heisenberg-gas --n 2030 --k 1", f"{-1015 - math.log2(1016):.6g}"),
])
def test_a_z_below_the_smallest_normal_float_exits_2(tmp_path, capsys, argv, log2_z):
    out = tmp_path / "out"
    assert main(argv.split() + ["--output", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and f"2^{log2_z} " in err[0]
    assert not out.exists()


@pytest.mark.parametrize("model", ["mg", "heisenberg-gas"])
def test_ground_cooling_reaches_a_thousand_sites(tmp_path, diagonalize_calls, model):
    # a fall back to the dense path would be refused, or run out of memory
    out = tmp_path / "cool.csv"
    tracemalloc.start()
    try:
        code = main(["cool", "--model", model, "--n", "1000", "--k", "1..999",
                     "--output", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert diagonalize_calls == []
    assert peak < 64 << 20
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [int(r[3]) for r in rows] == list(range(1, 1000))
    for r in rows:
        k, e = int(r[3]), float(r[5])
        if model == "mg":
            # the default state cools to G- up to a 2^-499 part of G+
            assert e == (1.0 if k % 2 else 2.0)
        else:
            assert e == float(f"{math.log2(min(k, 1000 - k) + 1):.12g}")


def test_gas_scaling_analytic_equals_ed(capsys):
    # one closed form behind both sources
    for source in ("analytic", "ed"):
        assert main(["scaling", "--model", "heisenberg-gas", "--n", "4..12..2", "--k", "1..3",
                     "--source", source]) == 0
    analytic, ed = capsys.readouterr().out.split("size,k,entropy,source,lower_bound,upper_bound\n")[1:]
    assert analytic.replace("analytic", "ed") == ed
    assert main(["scaling", "--model", "heisenberg-gas", "--source", "analytic",
                 "--n", "10000..100000..10000", "--k", "1..64"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 640
    assert rows[63] == f"10000,64,{math.log2(65):.12g},analytic,,"


def test_cool_above_every_level_renormalizes_the_initial_state(monkeypatch):
    # the projection onto every level is the identity: no block computes
    # its eigenvectors, and the state is the initial one
    spec = MajumdarGhosh(4)
    initial = product_state(default_initial_pairs(spec))
    monkeypatch.setattr(np.linalg, "eigh", lambda h: pytest.fail("eigh"))
    cooled = cool(build_model(spec), initial, 1000.0)
    assert cooled.num_retained == 256
    assert cooled.z == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(cooled.state.amplitudes, initial.amplitudes, rtol=0, atol=1e-15)


def test_gas_block_entropy_closed_form():
    assert [heisenberg_gas_block_entropy(3, k) for k in range(1, 6)] == [
        1.0, math.log2(3), 2.0, math.log2(3), 1.0]
    for k in (0, 6):
        with pytest.raises(ValidationError):
            heisenberg_gas_block_entropy(3, k)


# ---------------------------------------------------------------------------
# the Ising gas and the single-bond ring


def _mask(spec, pairs):
    """(threshold, z, entropies of every cut [0, k)) from
    ``cooled_entropy_scan``, which must take the mask path: one diagonal
    and no spectrum; None when it finds no support below the threshold."""
    diagonal = PauliOperator.diagonal
    with mock.patch.object(PauliOperator, "diagonal", autospec=True,
                           side_effect=diagonal) as spy, \
            mock.patch.object(frustra.cooling, "diagonalize",
                              side_effect=AssertionError("an I/Z operator diagonalized")):
        try:
            reports = cooled_entropy_scan(spec, pairs, GROUND, _cuts(2 * spec.m))
        except OrthogonalInitialStateError:
            reports = None
    assert spy.call_count == 1
    return None if reports is None else (
        reports[0].threshold, reports[0].z, [r.entropy for r in reports])


def _ground_popcounts(spec):
    """The popcounts of the ground configurations of an I/Z spec, read
    from its diagonal with the ``GROUND`` rule of ``cool``."""
    d = _cached_model(spec).diagonal()
    return set(popcount(np.flatnonzero(d <= d.min() + degeneracy_tol(d))).tolist())


# unit phases, real and complex; a pair (a f0, b f1) has the magnitudes (a, b)
_phases = st.sampled_from([1.0, -1.0]) | st.floats(0.0, 2 * math.pi).map(
    lambda t: cmath.exp(1j * t))
# magnitude pairs (|u0|, |u1|): exact zeros, so that a sector loses its
# support, beside drawn ones
_magnitudes = st.sampled_from([(1.0, 0.0), (0.0, 1.0), (0.6, 0.8), (0.8, 0.6)]) | st.floats(
    0.05, math.pi / 2 - 0.05).map(lambda t: (math.cos(t), math.sin(t)))


def _phased(magnitudes, phases):
    return [(a * f0, b * f1) for (a, b), (f0, f1) in zip(magnitudes, phases)]


@st.composite
def _ising_specs(draw):
    # lambda on the j/m grid, half-way between its points (two tied
    # sectors for the frustrated sign), and anywhere; at lambda = 0 the
    # unfrustrated sign ties all zeros with all ones
    m = draw(st.integers(2, 7))
    lam = draw(st.just(0.0) | st.integers(0, 2 * m).map(lambda j: j / (2 * m))
               | st.floats(0.0, 1.0))
    return IsingGasLR(m, lam, draw(st.sampled_from(["frustrated", "unfrustrated"])))


@given(_ising_specs(), _magnitudes, st.data())
def test_ising_route_equals_the_mask_path(spec, magnitudes, data):
    # one magnitude pair on every site, with its own phases per site
    n = 2 * spec.m
    phases = data.draw(st.lists(st.tuples(_phases, _phases), min_size=n, max_size=n))
    pairs = _phased([magnitudes] * n, phases)
    if len(_ground_popcounts(spec)) == 1:
        _check_against_dense(spec, pairs)
    else:
        _assert_close(_mask(spec, pairs), _dense(spec, pairs))


@given(_ising_specs(), st.data())
def test_ising_pairs_of_unequal_magnitudes_take_the_mask_path(spec, data):
    n = 2 * spec.m
    magnitudes = data.draw(st.lists(_magnitudes, min_size=n, max_size=n))
    assume(max(abs(a - magnitudes[0][0]) for a, _ in magnitudes) > 1e-6)
    phases = data.draw(st.lists(st.tuples(_phases, _phases), min_size=n, max_size=n))
    pairs = _phased(magnitudes, phases)
    _assert_close(_mask(spec, pairs), _dense(spec, pairs))


@given(st.integers(2, 7), st.sampled_from(["frustrated", "unfrustrated"]), st.data())
def test_single_bond_route_equals_the_mask_path(m, sign, data):
    # |u0| = |u1| on every site, with its own phases per site; only the
    # frustrated ring takes the route
    spec = SingleBondIsing(m, sign)
    phases = data.draw(st.lists(st.tuples(_phases, _phases), min_size=2 * m, max_size=2 * m))
    pairs = _phased([(2 ** -0.5, 2 ** -0.5)] * (2 * m), phases)
    if sign == "frustrated":
        _check_against_dense(spec, pairs)
    else:
        _assert_close(_mask(spec, pairs), _dense(spec, pairs))


@given(st.integers(2, 7), st.data())
def test_single_bond_pairs_of_unequal_magnitudes_take_the_mask_path(m, data):
    spec = SingleBondIsing(m)
    magnitudes = data.draw(st.lists(_magnitudes, min_size=2 * m, max_size=2 * m))
    assume(max(abs(a - b) for a, b in magnitudes) > 1e-6)
    phases = data.draw(st.lists(st.tuples(_phases, _phases), min_size=2 * m, max_size=2 * m))
    pairs = _phased(magnitudes, phases)
    _assert_close(_mask(spec, pairs), _dense(spec, pairs))


@pytest.mark.parametrize("spec, pairs", [
    (IsingGasLR(4), [(0.6, 0.8)] * 4 + [(0.8, 0.6)] * 4),
    (IsingGasLR(4, 0.0, "unfrustrated"), None),
    (IsingGasLR(3, 0.5), None),
    (SingleBondIsing(4), [(0.6, 0.8)] + [(2 ** -0.5, 2 ** -0.5)] * 7),
    (SingleBondIsing(4, "unfrustrated"), None),
], ids=["ising-unequal-magnitudes", "ising-two-sectors-unfrustrated",
        "ising-two-sectors-off-grid", "single-bond-unequal-magnitudes",
        "single-bond-unfrustrated"])
def test_iz_inputs_the_route_does_not_serve_take_the_mask_path(spec, pairs):
    pairs = default_initial_pairs(spec) if pairs is None else pairs
    _assert_close(_mask(spec, pairs), _dense(spec, pairs))


@pytest.mark.parametrize("model", ["ising-gas", "single-bond"])
def test_iz_route_needs_the_ground(capsys, diagonal_calls, model):
    argv = ["cool", "--model", model, "--n", "8", "--k", "1..7"]
    assert main(argv) == 0
    assert diagonal_calls == []
    ground = capsys.readouterr().out.splitlines()[1].split(",")
    assert main(argv + ["--threshold", ground[2]]) == 0
    assert len(diagonal_calls) == 1
    # the same kept configurations at the threshold the ground run printed
    above = capsys.readouterr().out.splitlines()[1].split(",")
    assert above[4:] == ground[4:]


@pytest.mark.parametrize("model", ["ising-gas", "single-bond"])
def test_iz_ground_cooling_reaches_a_thousand_sites(tmp_path, diagonal_calls, diagonalize_calls,
                                                    model):
    # the mask path would be refused at n = 1000, before any 2^n array
    out = tmp_path / "cool.csv"
    tracemalloc.start()
    try:
        code = main(["cool", "--model", model, "--n", "1000", "--k", "1..999",
                     "--output", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert diagonal_calls == [] and diagonalize_calls == []
    assert peak < 64 << 20
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [int(r[3]) for r in rows] == list(range(1, 1000))
    es = [float(r[5]) for r in rows]
    assert es == es[::-1]
    if model == "ising-gas":
        # the half-filled Dicke state: z = C(1000, 500)/2^1000, and S(500)
        # is the entropy of a Gaussian of the hypergeometric variance
        assert float(rows[0][6]) == pytest.approx(math.comb(1000, 500) / 2 ** 1000, rel=1e-11)
        assert es[0] == 1.0
        assert all(a < b for a, b in zip(es[:499], es[1:500]))
        variance = 500 * 0.25 * 500 / 999
        assert es[499] == pytest.approx(0.5 * math.log2(2 * math.pi * math.e * variance), abs=1e-6)
    else:
        # an area law: four Schmidt values at every cut
        assert float(rows[0][6]) == pytest.approx(2000 * 2.0 ** -1000, rel=1e-11)
        assert es == [float(f"{single_bond_block_entropy(500, k):.12g}") for k in range(1, 1000)]
        assert max(es) < 2.0


@pytest.mark.parametrize("argv", [
    "cool --model ising-gas --n 10 --k 1..9",
    "scaling --model ising-gas --n 10 --k 1..3 --source analytic",
], ids=["route", "analytic"])
def test_a_broken_dicke_sum_exits_3_under_python_O(argv):
    # the Vandermonde check of the Dicke weights is the route's one
    # internal check, and must survive python -O, which strips asserts
    child = (
        "import math, sys, types\n"
        "import frustra.closed_forms as cf\n"
        "from frustra.cli import main\n"
        "print(sys.flags.optimize, file=sys.stderr)\n"
        "cf.math = types.SimpleNamespace(**vars(math))\n"
        "cf.math.comb = lambda a, b: math.comb(a, b) + (a == 10)\n"
        "sys.exit(main(sys.argv[1:]))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(frustra.closed_forms.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-O", "-c", child] + argv.split(),
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 3
    assert done.stdout == ""
    err = done.stderr.splitlines()
    assert err[0] == "1"
    assert err[1:] == ["numerical failure: the Dicke numerators of the 1-site block "
                       "do not sum to C(10, 5)"]

