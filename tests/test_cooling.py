import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import frustra.cooling
from frustra.spin_core import (
    Bipartition,
    OrthogonalInitialStateError,
    PauliOperator,
    StateVector,
    basis_state,
    block_entropy,
    degeneracy_tol,
    diagonalize,
    product_state,
)
from frustra.models import (
    HeisenbergGasLR,
    IsingGasLR,
    MajumdarGhosh,
    RVBPlaquette,
    SingleBondIsing,
    build_ising_gas,
    build_mg_chain,
    build_model,
    default_initial_state,
)
from frustra.closed_forms import ising_gas_rho_k
from frustra.cooling import (
    GROUND,
    EntropyReport,
    _manifold_entropy,
    _spectrum,
    _threshold,
    cool,
    cool_excited,
    cooled_entropy_scan,
    maximize_cooled_entropy,
    reports_to_csv,
)


def uniform_state(n):
    return product_state([(1, 1)] * n)


def test_cool_ferromagnet_gives_ghz():
    h = build_ising_gas(2, 0.0, j=-1.0)
    cooled = cool(h, uniform_state(4))
    expected = np.zeros(16)
    expected[0] = expected[15] = 1 / np.sqrt(2)
    np.testing.assert_allclose(np.abs(cooled.state.amplitudes), expected, atol=1e-12)
    assert cooled.z == pytest.approx(2 / 16)


def test_cool_af_gives_dicke_independent_of_alpha_beta():
    h = build_ising_gas(2, 0.0)
    ref = None
    for alpha, beta in [(1, 1), (0.6, 0.8), (0.3, 0.95)]:
        init = product_state([(alpha, beta)] * 4)
        cooled = cool(h, init)
        support = np.flatnonzero(np.abs(cooled.state.amplitudes) > 1e-12)
        assert all(bin(b).count("1") == 2 for b in support)
        assert len(support) == 6
        if ref is None:
            ref = cooled.state
        assert cooled.state.fidelity(ref) == pytest.approx(1.0, abs=1e-10)


def test_cool_orthogonal_initial_state():
    h = build_ising_gas(2, 0.0)
    with pytest.raises(OrthogonalInitialStateError):
        cool(h, basis_state(4, 0))


def test_cool_idempotent():
    h = build_ising_gas(3, 0.0)
    cooled = cool(h, uniform_state(6))
    again = cool(h, cooled.state)
    assert again.state.fidelity(cooled.state) >= 1 - 1e-12


def test_cool_z_monotone_in_threshold():
    h = build_ising_gas(2, 0.0)
    init = uniform_state(4)
    zs = [cool(h, init, threshold=t).z for t in (-0.9, 0.1, 3.1)]
    assert zs == sorted(zs)


def test_cool_z_decomposes_over_retained_manifolds():
    h = build_ising_gas(2, 0.5)
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
    h = build_ising_gas(2, 0.0)
    init = product_state([(0.7, 0.5)] * 4)
    fast = cool(h, init)
    diag = h.diagonal()
    support = np.flatnonzero(np.abs(fast.state.amplitudes) > 1e-12)
    assert np.all(diag[support] <= fast.threshold)
    ratios = fast.state.amplitudes[support] / init.amplitudes[support]
    assert np.allclose(ratios, ratios[0])


def test_cool_excited_one_manifold_is_ground_cool():
    h = build_ising_gas(2, 0.0)
    init = uniform_state(4)
    a = cool(h, init)
    b = cool_excited(h, init, 1)
    assert a.state.fidelity(b.state) >= 1 - 1e-12


def test_cool_excited_two_manifolds_sectors():
    h = build_ising_gas(2, 0.0)
    cooled = cool_excited(h, uniform_state(4), 2)
    support = np.flatnonzero(np.abs(cooled.state.amplitudes) > 1e-12)
    sectors = {sum(1 - 2 * ((b >> i) & 1) for i in range(4)) for b in support}
    assert sectors == {0, 2, -2}


def test_cool_excited_all_manifolds_returns_initial():
    h = build_ising_gas(2, 0.0)
    init = product_state([(0.6, 0.8)] * 4)
    cooled = cool_excited(h, init, 99)
    assert cooled.state.fidelity(init) >= 1 - 1e-12
    assert cooled.z == pytest.approx(1.0)


@pytest.mark.parametrize(
    "h,initial",
    [
        (build_mg_chain(3), default_initial_state(MajumdarGhosh(3))),
        (build_ising_gas(3, 0.0), uniform_state(6)),
    ],
    ids=["mg-ring", "ising-gas"],
)
def test_cool_excited_computes_spectrum_once(monkeypatch, h, initial):
    if h.is_diagonal():
        energies = h.diagonal()
        tol = 1e-9 * max(energies.max() - energies.min(), 1.0)
        thr = float(energies[energies > energies.min() + tol].min()) + tol
    else:
        dec = diagonalize(h)
        thr = dec.manifolds()[1][0] + dec.degeneracy_tol
    expected = cool(h, initial, thr)

    calls = {"diagonalize": 0, "diagonal": 0}
    diagonal = PauliOperator.diagonal

    def counting_diagonalize(*args, **kwargs):
        calls["diagonalize"] += 1
        return diagonalize(*args, **kwargs)

    def counting_diagonal(self):
        calls["diagonal"] += 1
        return diagonal(self)

    monkeypatch.setattr(frustra.cooling, "diagonalize", counting_diagonalize)
    monkeypatch.setattr(PauliOperator, "diagonal", counting_diagonal)
    got = cool_excited(h, initial, 2)
    assert calls == ({"diagonalize": 0, "diagonal": 1} if h.is_diagonal()
                     else {"diagonalize": 1, "diagonal": 0})
    assert got.threshold == thr
    assert np.array_equal(got.state.amplitudes, expected.state.amplitudes)
    assert got.z == expected.z
    assert got.manifold_dims == expected.manifold_dims


@pytest.mark.parametrize(
    "h,initial",
    [
        (build_mg_chain(3), default_initial_state(MajumdarGhosh(3))),
        (build_ising_gas(3, 0.0), uniform_state(6)),
    ],
    ids=["mg-ring", "ising-gas"],
)
def test_threshold_below_ground_raises(diagonalize_calls, h, initial):
    with pytest.raises(OrthogonalInitialStateError):
        cool(h, initial, threshold=-100.0)
    # I/Z-only operators project by mask without eigenvectors
    assert len(diagonalize_calls) == (0 if h.is_diagonal() else 1)


@given(m=st.integers(1, 4), j=st.integers(-4, 4), thr=st.floats(-10.0, 10.0))
def test_diagonal_spectrum_sorts_only_the_kept_prefix(m, j, thr):
    # ground energy and tolerance from min and max, and the kept energies
    # as the prefix of the full sort
    h = build_ising_gas(m, j / 4)
    energies = np.sort(h.diagonal())
    ground, tol, below, _, _ = _spectrum(h)
    assert (ground, tol) == (energies[0], degeneracy_tol(energies))
    for t in (thr, _threshold(GROUND, ground, tol), np.inf):
        assert np.array_equal(below(t), energies[: np.searchsorted(energies, t, side="right")])


def test_threshold_on_a_level_retains_it():
    h = build_ising_gas(2, 0.0)
    init = uniform_state(4)
    diag = h.diagonal()
    level = float(np.unique(diag)[1])
    cooled = cool(h, init, threshold=level)
    assert cooled.num_retained == int(np.sum(diag <= level))
    assert cooled.manifold_dims[-1] == (level, int(np.sum(diag == level)))


def test_maximize_cooled_entropy_diagonalizes_once(diagonalize_calls):
    h = build_mg_chain(3)
    [(e, cooled, initial)] = maximize_cooled_entropy(h, [Bipartition.contiguous(2)], restarts=1)
    assert len(diagonalize_calls) == 1
    assert e == pytest.approx(block_entropy(cooled.state, Bipartition.contiguous(2)), abs=1e-12)
    expected = cool(h, initial)
    assert np.array_equal(cooled.state.amplitudes, expected.state.amplitudes)
    assert (cooled.threshold, cooled.z, cooled.manifold_dims) == (
        expected.threshold, expected.z, expected.manifold_dims)


def test_entropy_scan_diagonalizes_once_for_all_thresholds(diagonalize_calls):
    spec = MajumdarGhosh(3)
    initial = default_initial_state(spec)
    cut = Bipartition.contiguous(3)
    reports = cooled_entropy_scan(spec, initial, ["ground", 0.5], [cut])
    assert len(diagonalize_calls) == 1
    h = build_mg_chain(3)
    for report, threshold in zip(reports, ["ground", 0.5]):
        expected = cool(h, initial, threshold)
        assert report.threshold == expected.threshold
        assert report.z == expected.z
        assert report.entropy == block_entropy(expected.state, cut)


@st.composite
def cooling_cases(draw):
    """A small operator, I/Z-only or general, and a product initial state."""
    n = draw(st.integers(2, 5))
    strings = st.text(alphabet=draw(st.sampled_from(["IZ", "IXYZ"])), min_size=n, max_size=n)
    coefficients = st.integers(-4, 4).map(lambda k: k / 2.0)
    terms = draw(st.lists(st.tuples(coefficients, strings), min_size=1, max_size=6))
    angles = draw(st.lists(st.tuples(st.floats(0.1, 1.4), st.floats(0.0, 6.2)),
                           min_size=n, max_size=n))
    initial = product_state([(np.cos(t), np.exp(1j * p) * np.sin(t)) for t, p in angles])
    return PauliOperator(n, tuple(terms)), initial


def largest_amplitude(state):
    amps = state.amplitudes
    return amps[np.argmax(np.abs(amps))]


@given(cooling_cases())
def test_cool_is_idempotent_and_phase_fixed(case):
    h, initial = case
    try:
        once = cool(h, initial)
    except OrthogonalInitialStateError:
        assume(False)
    twice = cool(h, once.state)
    assert twice.z == pytest.approx(1.0, abs=1e-12)
    assert twice.manifold_dims == once.manifold_dims
    assert twice.state.fidelity(once.state) >= 1 - 1e-12
    np.testing.assert_allclose(np.abs(twice.state.amplitudes),
                               np.abs(once.state.amplitudes), rtol=0, atol=1e-12)
    for cooled in (once, twice):
        top = largest_amplitude(cooled.state)
        assert top.real > 0 and abs(top.imag) <= 1e-15 * top.real


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


@given(st.sampled_from(REAL_COOLING_SPECS), st.floats(0.2, 2.0),
       st.floats(0.2, 2.0) | st.floats(-2.0, -0.2))
def test_cool_keeps_real_states_real(spec, alpha, beta):
    h = build_model(spec)
    n = h.num_sites
    initial = default_initial_state(spec, alpha, beta).normalized()
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
    h = build_ising_gas(2, 0.5)
    for alpha, beta in [(1, 1), (0.6, 0.8)]:
        cooled = cool(h, product_state([(alpha, beta)] * 4))
        amps = np.zeros(16)
        for b in range(16):
            if bin(b).count("1") == 1:
                amps[b] = 1.0
        dicke = StateVector(4, amps / 2.0)
        assert cooled.state.fidelity(dicke) >= 1 - 1e-10


def test_ising_gas_n20_cool_matches_closed_form():
    cooled = cool(build_ising_gas(10, 0.5), product_state([(0.6, 0.8)] * 20))
    for k in range(1, 6):
        e = block_entropy(cooled.state, Bipartition.contiguous(k))
        assert e == pytest.approx(ising_gas_rho_k(10, 0.5, k).entropy(), abs=1e-9)


def test_entropy_scan_rows_and_csv():
    spec = SingleBondIsing(3)
    init = default_initial_state(spec)
    cuts = [Bipartition.contiguous(k) for k in (1, 2, 3)]
    reports = cooled_entropy_scan(spec, init, ["ground"], cuts)
    assert [r.k for r in reports] == [1, 2, 3]
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
    reports = cooled_entropy_scan(spec, init, ["ground"], cuts)
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
            ["ground"],
            [Bipartition.contiguous(2)],
        )
        es.append(reports[0].entropy)
        assert es[-1] == pytest.approx(single_bond_entropy(2 * m, 2), abs=1e-10)
    assert max(es) <= 2.0
    assert all(a > b for a, b in zip(es[1:], es[2:])), f"not decreasing: {es}"


def test_mg_scan_golden_value():
    # E_{4:rest} of the 2m=8 Majumdar-Ghosh chain, with the initial product
    # state chosen to maximize the cooled entropy
    h = build_mg_chain(4)
    [(e, cooled, initial)] = maximize_cooled_entropy(
        h, [Bipartition.contiguous(4)], seed=11, restarts=4
    )
    assert e == pytest.approx(2.314, abs=0.01)
    spec = MajumdarGhosh(4)
    reports = cooled_entropy_scan(
        spec, initial, ["ground"], [Bipartition.contiguous(4)]
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


# (name, operator, ground-manifold dimension); the Ising gas is I/Z-only, so
# its ground columns are the unit vectors of the mask
MANIFOLD_CASES = [
    ("mg4", build_mg_chain(2), 2),
    ("mg6", build_mg_chain(3), 2),
    ("mg8", build_mg_chain(4), 2),
    ("heisenberg-gas6", build_model(HeisenbergGasLR(3)), 5),
    ("ising-gas6", build_ising_gas(3, 1 / 3), 15),
    ("dm-ring6", _dm_ring(6), 2),
]


def _reference_entropy(h, cut, x):
    """The optimiser's former objective: the product state of the angles,
    cooled by ``cool`` and split by ``block_entropy``; (entropy, z), or
    None when the state has no ground support."""
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
    n = h.num_sites
    cut = data.draw(st.one_of(
        st.integers(0, n - 1).map(lambda o: Bipartition.contiguous(k, o, n)),
        st.permutations(range(n)).map(lambda p: Bipartition(tuple(p[:k]))),
    ))
    x = np.array(data.draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=2 * n, max_size=2 * n)))
    ground, tol, _, _, columns = _spectrum(h)
    v = columns(_threshold(GROUND, ground, tol))
    assert v.shape == (1 << n, dim)
    e, z = _manifold_entropy(v, cut)(x)
    expected = _reference_entropy(h, cut, x)
    if expected is None:
        assert e == 0.0 and z < frustra.cooling._Z_FLOOR
        return
    assert z == pytest.approx(expected[1], abs=1e-12)
    assert e == pytest.approx(expected[0], abs=1e-12)


def test_optimiser_steps_build_no_state(monkeypatch):
    # every step works in manifold coordinates: only the final initial
    # state is a product_state, and only it is projected
    calls = {"product_state": 0, "project": 0, "step": 0}
    spectrum = frustra.cooling._spectrum
    product = frustra.cooling.product_state
    manifold_entropy = frustra.cooling._manifold_entropy

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)

        return wrapper

    def counting_spectrum(h):
        ground, tol, below, projector, columns = spectrum(h)
        return ground, tol, below, lambda thr: counted("project", projector(thr)), columns

    monkeypatch.setattr(frustra.cooling, "_spectrum", counting_spectrum)
    monkeypatch.setattr(frustra.cooling, "product_state", counted("product_state", product))
    monkeypatch.setattr(frustra.cooling, "_manifold_entropy",
                        lambda v, cut: counted("step", manifold_entropy(v, cut)))
    cut = Bipartition.contiguous(2)
    [(e, cooled, _)] = maximize_cooled_entropy(build_mg_chain(3), [cut], restarts=2)
    assert calls["product_state"] == calls["project"] == 1
    assert calls["step"] > 500
    assert e == pytest.approx(block_entropy(cooled.state, cut), abs=1e-12)
