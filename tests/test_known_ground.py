"""The known-ground route of ``cooled_entropy_scan``: per-site pairs cooled
to the ground of the Majumdar-Ghosh ring or of the Heisenberg gas, cut at
[0, k), take the ground manifold itself, with no spectrum and no 2^n
vector.  The dense path (``cool`` on ``product_state(pairs)``, then
``block_entropy``) is its oracle.
"""
import functools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import frustra.cooling
from frustra.cli import main
from frustra.closed_forms import heisenberg_gas_block_entropy
from frustra.cooling import GROUND, cool, cooled_entropy_scan
from frustra.models import HeisenbergGasLR, MajumdarGhosh, build_model, default_initial_pairs
from frustra.spin_core import (
    Bipartition,
    OrthogonalInitialStateError,
    ValidationError,
    block_entropy,
    diagonalize,
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
    """The same from ``cooled_entropy_scan``, which must not diagonalize."""
    refuse = mock.Mock(side_effect=AssertionError("the route diagonalized"))
    with mock.patch.object(frustra.cooling, "diagonalize", refuse):
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
    want = _dense(spec, pairs)
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
