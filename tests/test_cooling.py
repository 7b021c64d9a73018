import functools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import frustra.cooling
from frustra.spin_core import (
    Bipartition,
    OrthogonalInitialStateError,
    PauliOperator,
    StateVector,
    ValidationError,
    block_entropy,
    degeneracy_tol,
    diagonalize,
    manifolds,
    product_state,
)
from frustra.models import (
    HeisenbergGasLR,
    IsingGasLR,
    MajumdarGhosh,
    RVBPlaquette,
    SingleBondIsing,
    build_model,
    default_initial_state,
)
from frustra.closed_forms import ising_gas_spectra, single_bond_cooled_state
from frustra.cooling import (
    GROUND,
    EntropyReport,
    cool,
    cooled_entropy_scan,
    maximize_cooled_entropy,
    reports_to_csv,
)

import reference
from reference import (
    angle_pairs,
    basis_state,
    cool_excited,
    fidelity,
    ground_manifold,
    manifold_entropy,
    mg_dimer_states,
    mg_witness,
    nelder_mead,
    product_search,
    project_by_columns,
    span_objective,
)


def uniform_state(n):
    return product_state([(1, 1)] * n)


def test_cool_ferromagnet_gives_ghz():
    h = build_model(IsingGasLR(2, 0.0, "unfrustrated"))
    cooled = cool(h, uniform_state(4))
    expected = np.zeros(16)
    expected[0] = expected[15] = 1 / np.sqrt(2)
    np.testing.assert_allclose(np.abs(cooled.state.amplitudes), expected, atol=1e-12)
    assert cooled.z == pytest.approx(2 / 16)


def test_cool_af_gives_dicke_independent_of_alpha_beta():
    h = build_model(IsingGasLR(2, 0.0))
    ref = None
    for alpha, beta in [(1, 1), (0.6, 0.8), (0.3, 0.95)]:
        init = product_state([(alpha, beta)] * 4)
        cooled = cool(h, init)
        support = np.flatnonzero(np.abs(cooled.state.amplitudes) > 1e-12)
        assert all(bin(b).count("1") == 2 for b in support)
        assert len(support) == 6
        if ref is None:
            ref = cooled.state
        assert fidelity(cooled.state, ref) == pytest.approx(1.0, abs=1e-10)


def test_cool_orthogonal_initial_state():
    h = build_model(IsingGasLR(2, 0.0))
    with pytest.raises(OrthogonalInitialStateError):
        cool(h, basis_state(4, 0))


def test_cool_idempotent():
    h = build_model(IsingGasLR(3, 0.0))
    cooled = cool(h, uniform_state(6))
    again = cool(h, cooled.state)
    assert fidelity(again.state, cooled.state) >= 1 - 1e-12


def test_cool_z_monotone_in_threshold():
    h = build_model(IsingGasLR(2, 0.0))
    init = uniform_state(4)
    zs = [cool(h, init, threshold=t).z for t in (-0.9, 0.1, 3.1)]
    assert zs == sorted(zs)


def test_cool_z_decomposes_over_retained_manifolds():
    h = build_model(IsingGasLR(2, 0.5))
    init = product_state([(0.6, 0.8)] * 4)
    cooled = cool(h, init, threshold=10.0)
    diag = h.diagonal()
    z_direct = sum(
        abs(a) ** 2 for a, e in zip(init.amplitudes, diag) if e <= cooled.threshold
    )
    assert cooled.z == pytest.approx(z_direct, abs=1e-10)
    assert cooled.num_retained == int(np.sum(diag <= cooled.threshold))


def test_cool_diagonal_fast_path_is_a_projection():
    # the fast path must keep ground-sector amplitudes proportional to the
    # initial ones and zero out everything else
    h = build_model(IsingGasLR(2, 0.0))
    init = product_state([(0.7, 0.5)] * 4)
    fast = cool(h, init)
    diag = h.diagonal()
    support = np.flatnonzero(np.abs(fast.state.amplitudes) > 1e-12)
    assert np.all(diag[support] <= fast.threshold)
    ratios = fast.state.amplitudes[support] / init.amplitudes[support]
    assert np.allclose(ratios, ratios[0])


def test_cool_excited_one_manifold_is_ground_cool():
    h = build_model(IsingGasLR(2, 0.0))
    init = uniform_state(4)
    a = cool(h, init)
    b = cool_excited(h, init, 1)
    assert fidelity(a.state, b.state) >= 1 - 1e-12


def test_cool_excited_two_manifolds_sectors():
    h = build_model(IsingGasLR(2, 0.0))
    cooled = cool_excited(h, uniform_state(4), 2)
    support = np.flatnonzero(np.abs(cooled.state.amplitudes) > 1e-12)
    sectors = {sum(1 - 2 * ((b >> i) & 1) for i in range(4)) for b in support}
    assert sectors == {0, 2, -2}


def test_cool_excited_all_manifolds_returns_initial():
    h = build_model(IsingGasLR(2, 0.0))
    init = product_state([(0.6, 0.8)] * 4)
    cooled = cool_excited(h, init, 99)
    assert fidelity(cooled.state, init) >= 1 - 1e-12
    assert cooled.z == pytest.approx(1.0)


@pytest.mark.parametrize(
    "h,initial",
    [
        (build_model(MajumdarGhosh(3)), default_initial_state(MajumdarGhosh(3))),
        (build_model(IsingGasLR(3, 0.0)), uniform_state(6)),
    ],
    ids=["mg-ring", "ising-gas"],
)
def test_cool_excited_is_cool_at_the_second_level(h, initial):
    energies = np.sort(h.diagonal() if h.is_diagonal() else diagonalize(h).eigenvalues)
    tol = degeneracy_tol(energies)
    thr = manifolds(energies, tol)[1][0] + tol
    expected = cool(h, initial, thr)
    got = cool_excited(h, initial, 2)
    assert got.threshold == thr
    assert np.array_equal(got.state.amplitudes, expected.state.amplitudes)
    assert got.z == expected.z
    assert got.manifold_dims == expected.manifold_dims
    assert len(got.manifold_dims) == 2


@pytest.mark.parametrize(
    "h,initial",
    [
        (build_model(MajumdarGhosh(3)), default_initial_state(MajumdarGhosh(3))),
        (build_model(IsingGasLR(3, 0.0)), uniform_state(6)),
    ],
    ids=["mg-ring", "ising-gas"],
)
def test_threshold_below_ground_raises(diagonalize_calls, h, initial):
    with pytest.raises(OrthogonalInitialStateError):
        cool(h, initial, threshold=-100.0)
    # I/Z-only operators project by mask without eigenvectors
    assert len(diagonalize_calls) == (0 if h.is_diagonal() else 1)


@given(m=st.integers(1, 4), j=st.integers(-4, 4), thr=st.floats(-10.0, 10.0),
       sign=st.sampled_from(["frustrated", "unfrustrated"]))
def test_diagonal_spectrum_sorts_only_the_kept_prefix(m, j, thr, sign):
    # the ground threshold from the diagonal's min and max, and the
    # retained manifolds from the prefix of the full sort; lambda < 0 has
    # the spectrum of -lambda (a global spin flip), so |j| covers it
    h = build_model(IsingGasLR(m, abs(j) / 4, sign))
    energies = np.sort(h.diagonal())
    tol = degeneracy_tol(energies)
    initial = uniform_state(2 * m)
    assert cool(h, initial).threshold == energies[0] + tol
    for t in (thr, energies[0] + tol, np.inf):
        if t < energies[0]:
            continue
        cooled = cool(h, initial, t)
        kept = energies[: np.searchsorted(energies, t, side="right")]
        assert cooled.threshold == t
        assert cooled.manifold_dims == tuple(
            (e, stop - start) for e, start, stop in manifolds(kept, tol))


def test_threshold_on_a_level_retains_it():
    h = build_model(IsingGasLR(2, 0.0))
    init = uniform_state(4)
    diag = h.diagonal()
    level = float(np.unique(diag)[1])
    cooled = cool(h, init, threshold=level)
    assert cooled.num_retained == int(np.sum(diag <= level))
    assert cooled.manifold_dims[-1] == (level, int(np.sum(diag == level)))


def test_maximize_cooled_entropy_diagonalizes_nothing(diagonalize_calls):
    # the ground manifold is span(G+, G-), so the search takes no spectrum;
    # ED cooling of the witness of the returned direction gives the entropy
    [(e, direction)] = maximize_cooled_entropy(MajumdarGhosh(3), [2])
    assert diagonalize_calls == []
    pairs = mg_witness(3, direction)
    assert direction.shape == (2,) and pairs.shape == (6, 2) and pairs.dtype == float
    cooled = cool(build_model(MajumdarGhosh(3)), product_state(pairs))
    assert e == pytest.approx(block_entropy(cooled.state, Bipartition.contiguous(2)), abs=1e-12)


def test_maximize_cooled_entropy_refuses_fewer_than_4_sites():
    # the spec holds the one size rule of the ring
    with pytest.raises(ValidationError, match="need at least 4 sites"):
        maximize_cooled_entropy(MajumdarGhosh(1), [1])


def _bond(n, i, j, letters):
    s = ["I"] * n
    s[i], s[j] = letters
    return "".join(s)


# the pair terms of each kind: S^z-conserving real (XX + YY) and complex
# (XY - YX, odd Y) bonds, and XX, which joins the sectors into one block
_BONDS = {"iz": (), "real": ((1, "XX"), (1, "YY")), "complex": ((1, "XY"), (-1, "YX")),
          "coupling": ((1, "XX"),)}
_COEFFICIENTS = [-2.0, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0]
# Hypothesis mixes the literals of the loaded local modules into its
# integer draws, but none between -100 and 100, so seeds made of such
# integers do not move when a literal of the package changes
_SEEDS = st.tuples(st.integers(0, 99), st.integers(0, 99), st.integers(0, 99))


def _cooling_case(kind, seed):
    """An operator of ``kind`` on 2 to 5 sites and a complex product
    initial state, drawn from ``np.random.default_rng(seed)``: a few
    random strings (I and Z only, or any letters for "coupling") and, but
    for "iz", a few bonds of the kind's pair terms."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    letters = list("IXYZ" if kind == "coupling" else "IZ")
    terms = [(rng.choice(_COEFFICIENTS), "".join(rng.choice(letters, n)))
             for _ in range(rng.integers(1, 4))]
    for _ in range(rng.integers(1, 4) if _BONDS[kind] else 0):
        i, j = rng.choice(n, 2, replace=False)
        c = rng.choice(_COEFFICIENTS)
        terms += [(sign * c, _bond(n, i, j, pair)) for sign, pair in _BONDS[kind]]
    t, ph = rng.uniform(0.1, 1.4, n), rng.uniform(0.0, 2 * np.pi, n)
    initial = product_state(np.stack([np.cos(t), np.exp(1j * ph) * np.sin(t)], axis=1))
    return PauliOperator(n, tuple(terms)), initial


cooling_cases = st.builds(_cooling_case, st.sampled_from(sorted(_BONDS)), _SEEDS)


def largest_amplitude(state):
    amps = state.amplitudes
    return amps[np.argmax(np.abs(amps))]


def test_phase_fix_survives_tied_magnitudes():
    # four amplitudes of this cooled state share the largest magnitude to
    # within 2e-16 and differ in phase; rotating by the first exact maximum
    # left another of them the largest, at -0.155+0.310j
    h = PauliOperator(5, ((1.5, "IZIXI"), (2.0, "XXXZY"), (-1.0, "XYXYX")))
    angles = [(1.22, 3.09), (1.19, 4.49), (0.4, 0.92), (1.0, 0.0), (0.64, 0.28)]
    initial = product_state([(np.cos(t), np.exp(1j * p) * np.sin(t)) for t, p in angles])
    once = cool(h, initial)
    mag = np.abs(once.state.amplitudes)
    assert np.sum(mag >= mag.max() * (1 - 1e-15)) == 4
    for cooled in (once, cool(h, once.state)):
        top = largest_amplitude(cooled.state)
        assert top.real > 0 and top.imag == 0


@given(cooling_cases)
def test_cool_is_idempotent_and_phase_fixed(case):
    h, initial = case
    try:
        once = cool(h, initial)
    except OrthogonalInitialStateError:
        assume(False)
    twice = cool(h, once.state)
    assert twice.z == pytest.approx(1.0, abs=1e-12)
    assert twice.manifold_dims == once.manifold_dims
    assert fidelity(twice.state, once.state) >= 1 - 1e-12
    np.testing.assert_allclose(np.abs(twice.state.amplitudes),
                               np.abs(once.state.amplitudes), rtol=0, atol=1e-12)
    for cooled in (once, twice):
        top = largest_amplitude(cooled.state)
        assert top.real > 0 and abs(top.imag) <= 1e-15 * top.real


@given(cooling_cases)
def test_block_projection_matches_embedded_columns(case):
    # cool against the kept eigenvectors embedded in the full space, at the
    # ground, exactly on the last energy of every level, between levels
    # and above the spectrum
    h, initial = case
    energies = diagonalize(h).eigenvalues
    levels = manifolds(energies, degeneracy_tol(energies))
    tops = [energies[stop - 1] for _, _, stop in levels]
    between = [(a + b) / 2 for a, b in zip(tops, tops[1:])]
    for threshold in [GROUND, *tops, *between, energies[-1] + 1.0]:
        thr, amps, z, dims = project_by_columns(h, initial, threshold)
        if z < 1e-10:
            continue
        cooled = cool(h, initial, threshold)
        assert cooled.threshold == thr
        assert cooled.manifold_dims == dims
        assert cooled.z == pytest.approx(z, rel=0, abs=1e-12)
        ref = amps / np.sqrt(z)
        phase = np.vdot(ref, cooled.state.amplitudes)
        np.testing.assert_allclose(cooled.state.amplitudes, ref * phase / abs(phase),
                                   rtol=0, atol=1e-12)


# every I/Z model, and the two models whose default initial state is real
REAL_COOLING_SPECS = [
    IsingGasLR(3, lam=1 / 3),
    IsingGasLR(3, sign="unfrustrated"),
    SingleBondIsing(3),
    SingleBondIsing(3, sign="unfrustrated"),
    RVBPlaquette(5, 2),
    MajumdarGhosh(4),
    HeisenbergGasLR(3),
]


def _initial_state(spec, alpha, beta):
    """``default_initial_state(spec)`` with (alpha, beta), normalized, in
    place of each of its |+> sites."""
    phi = (alpha, beta)
    match spec:
        case MajumdarGhosh(m):
            return product_state([(1.0, 0.0), (0.0, 1.0)] * (m - 1) + [phi, phi])
        case HeisenbergGasLR(m):
            return product_state([(1.0, 0.0)] * m + [phi] * m)
    return product_state([phi] * build_model(spec).num_sites)


@given(st.sampled_from(REAL_COOLING_SPECS), st.floats(0.2, 2.0),
       st.floats(0.2, 2.0) | st.floats(-2.0, -0.2))
def test_cool_keeps_real_states_real(spec, alpha, beta):
    h = build_model(spec)
    n = h.num_sites
    initial = _initial_state(spec, alpha, beta)
    as_complex = StateVector(n, initial.amplitudes.astype(complex))
    cuts = [Bipartition.contiguous(k) for k in range(1, n)] + [Bipartition((0, 2, n - 1))]
    for run in (lambda s: cool(h, s), lambda s: cool_excited(h, s, 2)):
        real, cplx = run(initial), run(as_complex)
        assert initial.amplitudes.dtype == real.state.amplitudes.dtype == np.float64
        assert cplx.state.amplitudes.dtype == np.complex128
        assert real.z == pytest.approx(cplx.z, abs=1e-12)
        for cut in cuts:
            assert block_entropy(real.state, cut) == pytest.approx(
                block_entropy(cplx.state, cut), abs=1e-12)


def test_case1_cooled_matches_dicke_construction():
    # ground sector of the lambda = 1/2, m = 2 gas has 3 zeros per bitstring
    h = build_model(IsingGasLR(2, 0.5))
    for alpha, beta in [(1, 1), (0.6, 0.8)]:
        cooled = cool(h, product_state([(alpha, beta)] * 4))
        amps = np.zeros(16)
        for b in range(16):
            if bin(b).count("1") == 1:
                amps[b] = 1.0
        dicke = StateVector(4, amps / 2.0)
        assert fidelity(cooled.state, dicke) >= 1 - 1e-10


def test_ising_gas_n20_cool_matches_closed_form():
    cooled = cool(build_model(IsingGasLR(10, 0.5)), product_state([(0.6, 0.8)] * 20))
    for k in range(1, 6):
        e = block_entropy(cooled.state, Bipartition.contiguous(k))
        assert e == pytest.approx(ising_gas_spectra(10, 0.5, [k])[0].entropy(), abs=1e-9)


def test_mask_path_works_on_the_kept_configurations():
    # n = 22 single-bond ring: 44 of the 2^22 configurations are kept.
    # z, the normalization and the phase fix work on their amplitudes, so
    # beside the energies and the kept mask only the output is held, once
    # the energies are freed (a whole-array mask peaked at 3.13 x 8 * 2^n)
    spec = SingleBondIsing(11)
    h, initial = build_model(spec), default_initial_state(spec)
    tracemalloc.start()
    try:
        cooled = cool(h, initial)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * (8 << 22)
    want = single_bond_cooled_state(11)
    np.testing.assert_array_equal(cooled.state.support, want.support)
    np.testing.assert_allclose(cooled.state.amplitudes, want.amplitudes, rtol=0, atol=1e-15)
    assert cooled.z == pytest.approx(44 / 2**22, rel=1e-15)
    assert cooled.manifold_dims == ((-20.0, 44),)


def test_entropy_scan_rows_and_csv(diagonalize_calls):
    # one row per cut, each the entropy of one cool, with one spectrum for
    # the scan: the I/Z single-bond ring at the ground, the MG ring above it
    for spec, threshold, spectra in [(SingleBondIsing(3), GROUND, 0), (MajumdarGhosh(3), 0.5, 1)]:
        init = default_initial_state(spec)
        cuts = [Bipartition.contiguous(k) for k in (1, 2, 3)]
        diagonalize_calls.clear()
        reports = cooled_entropy_scan(spec, init, threshold, cuts)
        assert len(diagonalize_calls) == spectra
        assert [r.k for r in reports] == [1, 2, 3]
        expected = cool(build_model(spec), init, threshold)
        for report, cut in zip(reports, cuts):
            assert report.threshold == expected.threshold
            assert report.z == expected.z
            assert report.entropy == block_entropy(expected.state, cut)
        csv = reports_to_csv(reports)
        assert csv.splitlines()[0] == EntropyReport.CSV_HEADER
        assert len(csv.splitlines()) == 4


def test_entropy_scan_case6_constant_in_k(single_bond_entropy):
    # area law for the single-flipped-bond ring: the block spectrum has at
    # most four eigenvalues, so E <= 2 for every k; E tends to the same
    # value for every k only as m -> infinity
    spec = SingleBondIsing(4)
    init = default_initial_state(spec)
    ks = (1, 2, 3, 4)
    cuts = [Bipartition.contiguous(k) for k in ks]
    reports = cooled_entropy_scan(spec, init, GROUND, cuts)
    es = [r.entropy for r in reports]
    for k, e in zip(ks, es):
        assert e == pytest.approx(single_bond_entropy(8, k), abs=1e-10)
    assert max(es) <= 2.0, f"entropies exceed the rank-4 bound: {es}"


def test_entropy_scan_case6_decreasing_in_size(single_bond_entropy):
    # E(k=2) is 1.3777, 1.3845, 1.3634, 1.3380 over 2m = 6..12: it rises
    # once and falls strictly from 2m=8 on, towards 1
    es = []
    for m in (3, 4, 5, 6):
        spec = SingleBondIsing(m)
        reports = cooled_entropy_scan(
            spec,
            default_initial_state(spec),
            GROUND,
            [Bipartition.contiguous(2)],
        )
        es.append(reports[0].entropy)
        assert es[-1] == pytest.approx(single_bond_entropy(2 * m, 2), abs=1e-10)
    assert max(es) <= 2.0
    assert all(a > b for a, b in zip(es[1:], es[2:])), f"not decreasing: {es}"


def test_mg_scan_golden_value():
    # E_{4:rest} of the 2m=8 Majumdar-Ghosh chain, with the initial product
    # state chosen to maximize the cooled entropy
    [(e, direction)] = maximize_cooled_entropy(MajumdarGhosh(4), [4])
    assert e == pytest.approx(2.314, abs=0.01)
    spec = MajumdarGhosh(4)
    reports = cooled_entropy_scan(
        spec, product_state(mg_witness(4, direction)), GROUND, [Bipartition.contiguous(4)]
    )
    assert reports[0].entropy == pytest.approx(e, abs=1e-9)


def _dm_ring(n):
    """A complex ring: Dzyaloshinskii-Moriya (XY - YX) bonds plus ZZ, whose
    ground manifold is 2-dimensional with complex eigenvectors."""
    def bond(i, pair):
        s = ["I"] * n
        s[i], s[(i + 1) % n] = pair
        return "".join(s)

    terms = [(1.0, bond(i, "XY")) for i in range(n)] + [(-1.0, bond(i, "YX")) for i in range(n)]
    return PauliOperator(n, tuple(terms + [(0.5, bond(i, "ZZ")) for i in range(n)]))


# (name, operator, ground-manifold dimension)
MANIFOLD_CASES = [
    ("mg4", build_model(MajumdarGhosh(2)), 2),
    ("mg6", build_model(MajumdarGhosh(3)), 2),
    ("mg8", build_model(MajumdarGhosh(4)), 2),
    ("heisenberg-gas6", build_model(HeisenbergGasLR(3)), 5),
    ("ising-gas6", build_model(IsingGasLR(3, 1 / 3)), 15),
    ("dm-ring6", _dm_ring(6), 2),
]


def _angle_rows(width, most):
    """1 to ``most`` rows of ``width`` generic angles, uniform on [0, 2 pi)
    from a drawn seed.  Lists of ``st.floats`` come out nearly constant
    under the derandomized profile, and constant angles cannot tell the
    two dimer coverings apart."""
    return st.builds(
        lambda seed, rows: np.random.default_rng(seed).uniform(0.0, 2 * np.pi, (rows, width)),
        st.integers(0, 2**32 - 1), st.integers(1, most),
    )


def _reference_entropy(h, cut, x):
    """The product state of the angles, cooled by ``cool`` and split by
    ``block_entropy``: (entropy, z), or None when the state has no ground
    support."""
    t, ph = x[0::2], x[1::2]
    initial = product_state(np.stack([np.cos(t), np.exp(1j * ph) * np.sin(t)], axis=1))
    try:
        cooled = cool(h, initial)
    except OrthogonalInitialStateError:
        return None
    return block_entropy(cooled.state, cut), cooled.z


@pytest.mark.parametrize(
    "h, dim, k",
    [(h, dim, k) for _, h, dim in MANIFOLD_CASES for k in range(1, h.num_sites)],
    ids=[f"{name}-k{k}" for name, h, _ in MANIFOLD_CASES for k in range(1, h.num_sites)],
)
@settings(max_examples=12)
@given(data=st.data())
def test_manifold_entropy_matches_cooled_state(h, dim, k, data):
    # the ED-column objective against cool, every row of a drawn batch, so
    # a row never picks up another row's coordinates, z or spectrum
    n = h.num_sites
    cut = data.draw(st.one_of(
        st.integers(0, n - 1).map(lambda o: Bipartition.contiguous(k, o, n)),
        st.permutations(range(n)).map(lambda p: Bipartition(tuple(p[:k]))),
    ))
    x = data.draw(_angle_rows(2 * n, 4))
    v = ground_manifold(diagonalize(h))
    assert v.shape == (1 << n, dim)
    es, zs = manifold_entropy(v, cut)(x)
    assert es.shape == zs.shape == (len(x),)
    for e, z, angles in zip(es, zs, x):
        expected = _reference_entropy(h, cut, angles)
        if expected is None:
            assert e == 0.0 and z < frustra.cooling._Z_FLOOR
            continue
        assert z == pytest.approx(expected[1], abs=1e-12)
        assert e == pytest.approx(expected[0], abs=1e-12)


# each covering's spectrum once: cool, as the oracle, diagonalizes per call
_cached_diagonalize = functools.lru_cache(maxsize=None)(diagonalize)
_ANGLE_ROWS = _angle_rows(24, 3).map(np.ndarray.tolist)
_SOME_ANGLES = [0.3 * i % 6.2 for i in range(1, 25)]


def _drawn_cut(n, k, offset, order):
    """A k-site cut of n sites, k capped at n - 1: contiguous from
    ``offset`` when ``order`` is None, else the first k sites of it."""
    k = min(k, n - 1)
    if order is None:
        return Bipartition.contiguous(k, offset % n, n)
    return Bipartition(tuple(s for s in order if s < n)[:k])


@pytest.mark.parametrize("m", range(2, 7))
@settings(max_examples=25)
@given(k=st.integers(1, 11), offset=st.integers(0, 11),
       order=st.none() | st.permutations(range(12)), x=_ANGLE_ROWS)
@example(k=1, offset=0, order=None, x=[[0.0] * 24, _SOME_ANGLES])
@example(k=11, offset=3, order=None, x=[_SOME_ANGLES, [0.0] * 24])
@example(k=11, offset=0, order=list(range(11, -1, -1)), x=[_SOME_ANGLES])
@example(k=2, offset=0, order=None, x=[_SOME_ANGLES])
def test_span_objective_matches_cooled_state(m, k, offset, order, x):
    # the product search's objective on the dimer span against the ED route
    # (cool and block_entropy) row by row: k = 11 pins the cut k = n - 1,
    # all angles 0 (every spin up) is a row below the z floor.  A singlet
    # state's single site is fully mixed, so k = 1 and k = n - 1 cannot
    # tell G+ from G-; k = 2 splits G- only
    n = 2 * m
    cut = _drawn_cut(n, k, offset, order)
    x = np.array(x)[:, :2 * n]
    es, zs = span_objective(mg_dimer_states(m), cut)(x)
    assert es.shape == zs.shape == (len(x),)
    h = build_model(MajumdarGhosh(m))
    with mock.patch.object(frustra.cooling, "diagonalize", _cached_diagonalize):
        expected = [_reference_entropy(h, cut, angles) for angles in x]
    for e, z, want in zip(es, zs, expected):
        if want is None:
            assert e == 0.0 and z < frustra.cooling._Z_FLOOR
            continue
        assert z == pytest.approx(want[1], abs=1e-12)
        assert e == pytest.approx(want[0], abs=1e-12)


def test_manifold_entropy_of_no_ground_support_is_zero_without_warning():
    # all spins up (every angle 0) has S^z = 2 and no weight on the MG
    # singlet manifold; its row gives entropy 0, with no 0/0 in the
    # coordinates, beside a row that has support
    up = np.zeros(8)
    entropy = span_objective(mg_dimer_states(2), Bipartition.contiguous(2))
    es, zs = entropy(np.stack([up, 0.4 * np.arange(8)]))
    assert zs[0] < frustra.cooling._Z_FLOOR and es[0] == 0.0
    assert zs[1] > 1e-3 and es[1] > 0.0
    es, zs = entropy(up[None])
    assert zs[0] < frustra.cooling._Z_FLOOR and es.tolist() == [0.0]


def test_optimiser_steps_build_no_state(monkeypatch):
    # the search builds no state: one span setup serves every cut, and
    # per cut the objective sees the grid in one call, then one row a call
    calls = {"states": 0, "setups": [], "rows": []}
    post_init = StateVector.__post_init__
    mg_span_blocks = frustra.cooling.mg_span_blocks
    span_entropies = frustra.cooling.span_entropies

    def counting_post_init(self):
        calls["states"] += 1
        post_init(self)

    def counting_blocks(spec, ks):
        calls["setups"].append(list(ks))
        return mg_span_blocks(spec, ks)

    def counting_entropies(blocks, coords):
        calls["rows"].append(len(coords))
        return span_entropies(blocks, coords)

    monkeypatch.setattr(StateVector, "__post_init__", counting_post_init)
    monkeypatch.setattr(frustra.cooling, "mg_span_blocks", counting_blocks)
    monkeypatch.setattr(frustra.cooling, "span_entropies", counting_entropies)
    results = maximize_cooled_entropy(MajumdarGhosh(3), [2, 3])
    assert calls["states"] == 0 and calls["setups"] == [[2, 3]]
    grid = frustra.cooling._GRID
    assert calls["rows"].count(grid) == 2 and set(calls["rows"]) == {1, grid}
    # golden-section from a bracket of 2 pi / 64 down to 1e-9: about 40 steps
    assert 2 * 30 < len(calls["rows"]) - 2 < 2 * 50
    monkeypatch.undo()
    for k, (e, direction) in zip([2, 3], results):
        cooled = cool(build_model(MajumdarGhosh(3)), product_state(mg_witness(3, direction)))
        assert e == pytest.approx(block_entropy(cooled.state, Bipartition.contiguous(k)), abs=1e-12)


def _rosenbrock(x):
    return np.sum(100.0 * (x[..., 1:] - x[..., :-1] ** 2) ** 2 + (1.0 - x[..., :-1]) ** 2, axis=-1)


def _trig(x):
    return np.sum(np.sin(3.0 * x) * np.cos(x[..., ::-1]), axis=-1) + 0.1 * np.sum(x * x, axis=-1)


def _plateaus(x):
    # piecewise constant, so reflected and contracted values tie often
    return np.floor(4.0 * _trig(x)) / 4.0


def _scipynelder_mead(f, x0):
    from scipy.optimize import minimize

    return minimize(lambda y: float(f(y)), x0, method="Nelder-Mead",
                    options={"maxiter": 3000, "xatol": 1e-8, "fatol": 1e-10})


@pytest.mark.parametrize("objective", [_rosenbrock, _trig, _plateaus],
                         ids=["rosenbrock", "trig", "plateaus"])
@pytest.mark.parametrize("n", [2, 5, 12])
def test_lockstep_nelder_mead_equals_scipy_row_by_row(objective, n):
    # elementwise objectives, so a row's values do not depend on the batch;
    # row 0 holds a zero entry (the 0.00025 simplex step), row 1 starts at
    # the Rosenbrock minimum, at n=12 the smooth objectives run some rows
    # to maxiter beside rows that stop early, and the plateaus test every
    # branch on tied values
    x0 = np.random.default_rng(n).uniform(-2.0, 2.0, (8, n))
    x0[0, 0] = 0.0
    x0[1] = 1.0
    x, fun, nit, nfev = nelder_mead(objective, x0)
    for r in range(8):
        res = _scipynelder_mead(objective, x0[r])
        assert np.array_equal(x[r], res.x), r
        assert (fun[r], nit[r], nfev[r]) == (res.fun, res.nit, res.nfev), r
    if n == 12 and objective is not _plateaus:
        assert (nit == 3000).any() and (nit < 3000).any()
    else:
        assert (nit < 3000).all()


def test_lockstep_nelder_mead_freezes_stopped_rows():
    # f sees exactly the points scipy evaluates, summed over the rows: a
    # row that stopped (row 1 first) is never evaluated or moved again, and
    # no call gets more points than there are rows
    x0 = np.random.default_rng(3).uniform(-2.0, 2.0, (4, 5))
    x0[1] = 1.0
    seen = []

    def recording(pts):
        seen.append(len(pts))
        return _rosenbrock(pts)

    x, fun, nit, nfev = nelder_mead(recording, x0)
    runs = [_scipynelder_mead(_rosenbrock, row) for row in x0]
    assert nit[1] < nit.min(initial=3000, where=np.arange(4) != 1)
    assert sum(seen) == nfev.sum() == sum(res.nfev for res in runs)
    assert max(seen) <= 4
    for r, res in enumerate(runs):
        assert np.array_equal(x[r], res.x) and fun[r] == res.fun


@pytest.mark.parametrize("m, k, seed", [(3, 2, 7), (4, 3, 1)])
def test_lockstep_search_equals_serial_scipy_on_the_span_objective(m, k, seed):
    # the product search, the oracle of the direction search: every
    # restart takes the steps serial scipy takes on the same objective,
    # because a row's value does not depend on the rows it is batched with
    cut = Bipartition.contiguous(k)
    entropy = span_objective(mg_dimer_states(m), cut)
    x0 = np.random.default_rng(seed).uniform(0.0, np.pi, (8, 4 * m))
    x, fun, nit, nfev = nelder_mead(lambda pts: -entropy(pts)[0], x0)
    for r in range(8):
        res = _scipynelder_mead(lambda y: -entropy(y[None])[0][0], x0[r])
        assert np.array_equal(x[r], res.x), r
        assert (fun[r], nit[r], nfev[r]) == (res.fun, res.nit, res.nfev), r
    [(best, _)] = product_search(m, [cut], seed=seed)
    assert best == -fun.min()


@pytest.mark.parametrize("m", range(2, 7))
@settings(max_examples=20)
@given(k=st.integers(1, 11), offset=st.integers(0, 11),
       order=st.none() | st.permutations(range(12)), x=_angle_rows(24, 8),
       zero=st.booleans())
def test_span_objective_is_batch_invariant(m, k, offset, order, x, zero):
    # every row's entropy and z, bit for bit, whether it is evaluated alone,
    # with the rows before it or in the whole batch; a row of zero angles
    # (below the z floor) may sit among them
    n = 2 * m
    cut = _drawn_cut(n, k, offset, order)
    x = x[:, :2 * n].copy()
    if zero:
        x[len(x) // 2] = 0.0
    entropy = span_objective(mg_dimer_states(m), cut)
    es, zs = entropy(x)
    for r in range(len(x)):
        for part in (x[r:r + 1], x[:r + 1]):
            e, z = entropy(part)
            assert e[-1] == es[r] and z[-1] == zs[r], r


def test_best_restart_is_the_first_lowest(monkeypatch):
    # rows 1 and 2 tie at the lowest value: the first of them wins, as the
    # strict > of the serial restarts chose
    search = reference.nelder_mead
    found = []

    def tied(f, x0):
        x, fun, nit, nfev = search(f, x0)
        found.append(x)
        return x, np.array([-1.0, -1.5, -1.5, -0.5]), nit, nfev

    monkeypatch.setattr(reference, "nelder_mead", tied)
    cut = Bipartition.contiguous(2)
    [(e, pairs)] = product_search(3, [cut], seed=2, restarts=4)
    assert e == 1.5
    assert np.array_equal(pairs, angle_pairs(found[0][1]))


def test_restart_angles_are_the_sequential_draws():
    # one (restarts, 2n) draw gives the angles the per-restart draws gave
    batch = np.random.default_rng(11).uniform(0.0, np.pi, (8, 12))
    rng = np.random.default_rng(11)
    assert np.array_equal(batch, np.stack([rng.uniform(0.0, np.pi, 12) for _ in range(8)]))
