import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from frustra.spin_core import (
    Bipartition,
    SizeLimitError,
    StateVector,
    ValidationError,
    block_entropy,
    schmidt_matrix,
    schmidt_weights,
    shannon_entropy,
)
from frustra.models import (
    HeisenbergGasLR,
    IsingGasLR,
    SingleBondIsing,
    build_model,
    default_initial_state,
)
from frustra.cooling import cool
from frustra.closed_forms import (
    BoundaryPath,
    DickeSpectrum,
    heisenberg_gas_bound,
    heisenberg_gas_schmidt_state,
    ising_gas_asymptote,
    ising_gas_spectra,
    ising_gas_stirling_weights,
    mg_bounds,
    rvb_boundary_entropy,
    rvb_cut_plaquette_entropy,
    rvb_plaquette_entropy,
    rvb_q,
    rvb_state,
    shastry_block_entropy,
    single_bond_block_entropy,
    single_bond_cooled_state,
)

from reference import dicke_weights, fidelity, partial_trace, shastry_dimer_state


# ---------------------------------------------------------------- Case 1


def test_dicke_small_spectrum():
    spec = ising_gas_spectra(2, 0.0, [2])[0]
    np.testing.assert_allclose(spec.weights, [1 / 6, 2 / 3, 1 / 6], atol=1e-15)
    assert spec.entropy() == pytest.approx(1.2516, abs=1e-4)


def test_pure_dicke_spectrum_entropy_is_positive_zero():
    # lambda = 1 fixes every spin, so the block is pure: +0.0, not -0.0
    e = ising_gas_spectra(3, 1.0, [2])[0].entropy()
    assert e == 0.0 and math.copysign(1.0, e) == 1.0


def _draw_cuts(data, n):
    """Cut sizes in [0, n] in any order: runs of neighbours, up or down,
    with jumps between runs and repeats where runs overlap."""
    runs = data.draw(
        st.lists(
            st.tuples(st.integers(0, n), st.integers(1, 6), st.sampled_from([1, -1])),
            min_size=1,
            max_size=4,
        ),
        label="runs",
    )
    return [k for start, size, step in runs
            for k in range(start, start + step * size, step) if 0 <= k <= n]


@given(data=st.data())
def test_dicke_weights_equal_fraction_reference(data):
    # the integer recurrence must give the very floats of the Fraction route
    m = data.draw(st.integers(1, 60), label="m")
    lam = data.draw(st.integers(-m, m), label="j") / m
    for k in range(2 * m + 1):
        assert ising_gas_spectra(m, lam, [k])[0].weights == dicke_weights(m, lam, k)


@given(data=st.data())
def test_dicke_scan_equals_fraction_reference_cut_by_cut(data):
    # a scan steps each cut's numerator from the previous cut's; the weights
    # must still be the Fraction route's, whatever the order of the cuts
    m = data.draw(st.integers(1, 1000), label="m")
    lam = data.draw(st.integers(-m, m), label="j") / m
    ks = _draw_cuts(data, 2 * m)
    spectra = ising_gas_spectra(m, lam, ks)
    assert [s.k for s in spectra] == ks
    for k, spectrum in zip(ks, spectra):
        assert spectrum.weights == dicke_weights(m, lam, k)


def _counting(monkeypatch, name):
    """Record the arguments of every ``math.<name>`` call."""
    calls = []
    fn = getattr(math, name)

    def counting(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(math, name, counting)
    return calls


@pytest.mark.parametrize("ks", [range(1, 101), range(100, 0, -1)])
def test_dicke_scan_of_adjacent_cuts_makes_k_plus_2_combs(monkeypatch, ks):
    calls = _counting(monkeypatch, "comb")
    ising_gas_spectra(1000, 0.5, ks)
    assert len(calls) <= len(ks) + 2


def test_dicke_scans_keep_nothing_between_calls(monkeypatch):
    calls = _counting(monkeypatch, "comb")
    first = ising_gas_spectra(40, 0.5, [3, 4])
    assert ising_gas_spectra(40, 0.5, [3, 4]) == first
    assert calls.count((80, 60)) == 2


@pytest.mark.parametrize("m, ks", [(10_000_000, [1, 2, 3]), (10_000, [100])])
def test_dicke_scan_above_m_1000_pays_only_for_its_cuts(monkeypatch, m, ks):
    # three lgamma calls for log C(2m, n0), then six per weight: a huge m
    # with small k stays cheap
    calls = _counting(monkeypatch, "lgamma")
    spectra = ising_gas_spectra(m, 0.0, ks)
    assert len(calls) == 3 + 6 * sum(k + 1 for k in ks)
    assert all(math.isclose(sum(s.weights), 1.0) for s in spectra)


def test_dicke_scan_checks_every_cut_first(monkeypatch):
    calls = _counting(monkeypatch, "lgamma")
    with pytest.raises(ValidationError, match="k out of range"):
        ising_gas_spectra(1001, 0.0, [1, 2, 2003])
    assert calls == []


@pytest.mark.parametrize("lam", [0.0, 0.5, 0.999])
def test_dicke_weights_equal_fraction_reference_at_m_1000(lam):
    for k in range(1, 101):
        assert ising_gas_spectra(1000, lam, [k])[0].weights == dicke_weights(1000, lam, k)


def test_dicke_weights_sum_to_one():
    for m, lam, k in [(3, 0.0, 2), (4, 0.25, 5), (2000, 0.0, 37)]:
        w = ising_gas_spectra(m, lam, [k])[0].weights
        assert sum(w) == pytest.approx(1.0, abs=1e-12)


def test_dicke_entropy_symmetric_in_k():
    for m, lam in [(4, 0.0), (4, 0.5)]:
        for k in range(1, 2 * m):
            a = ising_gas_spectra(m, lam, [k])[0].entropy()
            b = ising_gas_spectra(m, lam, [2 * m - k])[0].entropy()
            assert a == pytest.approx(b, abs=1e-10)


def test_dicke_polarized_sector_is_pure():
    # lambda = 1 puts every site in |0>, so any block is pure
    assert ising_gas_spectra(3, 1.0, [2])[0].entropy() == 0.0


def test_dicke_rejects_off_grid_lambda():
    with pytest.raises(ValidationError):
        ising_gas_spectra(3, 0.1, [2])[0]


def test_dicke_log_divergence_regime():
    # E - (1/2) log2 k stays bounded and slowly varying at large m
    offsets = [
        ising_gas_spectra(2000, 0.0, [k])[0].entropy() - 0.5 * math.log2(k)
        for k in (50, 100, 200)
    ]
    assert max(offsets) - min(offsets) < 0.05
    assert all(0.5 < o < 1.5 for o in offsets)


def test_asymptote_values():
    assert ising_gas_asymptote(4, 0.0) == pytest.approx(1.0)
    assert ising_gas_asymptote(64, 0.5) == pytest.approx(0.5 * math.log2(48.0), abs=1e-12)
    with pytest.raises(ValidationError):
        ising_gas_asymptote(4, 1.0)


def test_asymptote_against_exact():
    # The leading term misses the additive constant of the binomial-shaped
    # spectrum, (1/2) log2(pi e / 2) ~ 1.047 bits.  Tolerance frozen from
    # direct evaluation at m = 10^4.
    exact = ising_gas_spectra(10_000, 0.0, [100])[0].entropy()
    asym = ising_gas_asymptote(100, 0.0)
    assert exact - asym == pytest.approx(0.5 * math.log2(math.pi * math.e / 2), abs=0.01)


def test_stirling_weights_symmetric_binomial():
    w = ising_gas_stirling_weights(4, 0.0)
    np.testing.assert_allclose(w, [math.comb(4, i) / 16 for i in range(5)], atol=1e-12)


def test_stirling_weights_small_entropy():
    w = ising_gas_stirling_weights(2, 0.0)
    np.testing.assert_allclose(w, [0.25, 0.5, 0.25], atol=1e-12)
    assert shannon_entropy(w) == pytest.approx(1.5)


def test_stirling_weights_close_to_exact():
    e_binom = shannon_entropy(ising_gas_stirling_weights(20, 0.0))
    e_exact = ising_gas_spectra(2000, 0.0, [20])[0].entropy()
    assert abs(e_binom - e_exact) < 0.05


# ---------------------------------------------------------------- Case 2


def test_heisenberg_bound_values():
    assert heisenberg_gas_bound(0, 0) == 0.0
    assert heisenberg_gas_bound(1, 1) == pytest.approx(2.0)


def test_schmidt_state_trivial_cut():
    coeffs, spectrum = heisenberg_gas_schmidt_state(3, 0)
    assert spectrum == [pytest.approx(1.0)]
    assert shannon_entropy(spectrum) == 0.0


def test_schmidt_spectrum_is_uniform():
    for m in (2, 3, 5):
        for k in range(1, m + 1):
            _, spectrum = heisenberg_gas_schmidt_state(m, k)
            assert sum(spectrum) == pytest.approx(1.0, abs=1e-10)
            np.testing.assert_allclose(spectrum, 1.0 / (k + 1), atol=1e-12)
            assert shannon_entropy(spectrum) == pytest.approx(
                math.log2(k + 1), abs=1e-9
            )


def test_schmidt_spectrum_matches_ed():
    m = 2
    h = build_model(HeisenbergGasLR(m))
    spec = HeisenbergGasLR(m)
    cooled = cool(h, default_initial_state(spec))
    rho = partial_trace(cooled.state, Bipartition((0,)))
    ed = np.sort(np.linalg.eigvalsh(rho))[::-1]
    _, spectrum = heisenberg_gas_schmidt_state(m, 1)
    np.testing.assert_allclose(ed[: len(spectrum)], sorted(spectrum, reverse=True), atol=1e-8)


# ---------------------------------------------------------------- Case 3


def test_rvb_q_values():
    assert rvb_q(0.0) == 0.0
    assert rvb_q(0.5) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert rvb_q(0.25) == pytest.approx((-1 + math.sqrt(13 / 4)) / 4.5, abs=1e-10)
    with pytest.raises(ValidationError):
        rvb_q(1.0)


def test_rvb_q_complement_identity():
    for d in (0.1, 0.3, 0.45):
        q = rvb_q(d)
        assert rvb_q(1.0 - d) == pytest.approx((1 - q) / (1 + 3 * q), abs=1e-12)


def test_plaquette_entropy_values():
    assert rvb_plaquette_entropy(0.0) == 0.0
    assert rvb_plaquette_entropy(0.5) == pytest.approx(1.2075, abs=1e-4)


def test_plaquette_entropy_monotone_on_lower_half():
    ds = np.linspace(0.0, 0.5, 26)
    es = [rvb_plaquette_entropy(d) for d in ds]
    assert all(a < b for a, b in zip(es, es[1:]))


def test_boundary_entropy_law():
    d = 0.3
    path = BoundaryPath(2, 3)
    expected = 2 * rvb_plaquette_entropy(d) + 3 * rvb_plaquette_entropy(1 - d)
    assert rvb_boundary_entropy(d, path) == pytest.approx(expected)


def test_rvb_state_all_horizontal():
    st = rvb_state(9, 0.0, 2)
    assert st.c.shape == (1, 1)
    assert st.entropy() == 0.0


def _rvb_brute_force(m2, s, k):
    # equal superposition over vertical-plaquette choices in an orthonormal
    # per-plaquette two-level basis: |h> = (1,0), |v> = (1/2, sqrt(3)/2)
    h = np.array([1.0, 0.0])
    v = np.array([0.5, math.sqrt(3.0) / 2.0])
    psi = np.zeros(2**m2)
    for verts in itertools.combinations(range(m2), s):
        vec = np.array([1.0])
        for p in range(m2):
            vec = np.kron(v if p in verts else h, vec)
        psi += vec
    psi /= np.linalg.norm(psi)
    state = StateVector(m2, psi)
    return block_entropy(state, Bipartition(tuple(range(k))))


def test_rvb_state_matches_brute_force():
    assert rvb_state(4, 0.5, 1).entropy() == pytest.approx(
        _rvb_brute_force(4, 2, 1), abs=1e-10
    )
    assert rvb_state(4, 0.25, 2).entropy() == pytest.approx(
        _rvb_brute_force(4, 1, 2), abs=1e-10
    )


def test_rvb_state_rank_bound():
    for m2, d, k in [(9, 1 / 3, 2), (16, 0.25, 5), (25, 0.2, 7)]:
        st = rvb_state(m2, d, k)
        assert 0.0 <= st.entropy() <= math.log2(min(st.s, k) + 1) + 1e-12


def test_rvb_cut_plaquette_entropy_converges_to_mean_field():
    e = rvb_cut_plaquette_entropy(400, 0.5)
    assert abs(e - rvb_plaquette_entropy(0.5)) < 0.02


def test_rvb_state_rejects_bad_s():
    with pytest.raises(ValidationError):
        rvb_state(9, 0.4, 2)  # 3.6 vertical plaquettes is not an integer


# ---------------------------------------------------------------- Case 4


def test_shastry_counting_matches_brute_force():
    st = shastry_dimer_state(4)
    for sites in [(0, 5), (0, 1, 4, 5), (0, 1, 2, 3), (0,)]:
        counted = shastry_block_entropy(4, sites)
        brute = block_entropy(st, Bipartition(sites))
        assert brute == pytest.approx(counted, abs=1e-9)


# ---------------------------------------------------------------- Case 5


def test_mg_bounds_values():
    lo, up = mg_bounds(4)
    assert (lo, up) == (2.0, pytest.approx(math.log2(5.0)))
    # an odd cut splits one singlet of each covering: Schmidt rank <= 4
    lo, up = mg_bounds(3)
    assert (lo, up) == (1.0, 2.0)
    with pytest.raises(ValidationError):
        mg_bounds(0)


def test_mg_golden_value_inside_even_bounds():
    lo, up = mg_bounds(4)
    assert lo < 2.314 < up


# ---------------------------------------------------------------- Case 6


def test_single_bond_state_support():
    st = single_bond_cooled_state(2)
    support = np.flatnonzero(np.abs(st.amplitudes) > 1e-12)
    assert len(support) == 8
    np.testing.assert_allclose(
        np.abs(st.amplitudes[support]), 1 / (2 * math.sqrt(2)), atol=1e-12
    )


def test_single_bond_state_matches_ed_cooling():
    for m in (2, 3):
        h = build_model(SingleBondIsing(m))
        spec = SingleBondIsing(m)
        cooled = cool(h, default_initial_state(spec))
        assert fidelity(cooled.state, single_bond_cooled_state(m)) >= 1 - 1e-10


def test_single_bond_state_refuses_past_the_budget_before_allocating():
    # 2^80 amplitudes: numpy itself would refuse the shape with a plain
    # ValueError, so only the budget check raises SizeLimitError
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError, match="GiB"):
            single_bond_cooled_state(40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("m", range(2, 11))
def test_single_bond_block_entropy_equals_state_entropy(m):
    st = single_bond_cooled_state(m)
    for k in range(1, 2 * m):
        assert single_bond_block_entropy(m, k) == pytest.approx(
            block_entropy(st, Bipartition.contiguous(k)), abs=1e-12)


@pytest.mark.parametrize("m,k", [(1, 1), (3, 0), (3, 6)])
def test_single_bond_block_entropy_refuses_bad_sizes(m, k):
    with pytest.raises(ValidationError):
        single_bond_block_entropy(m, k)


# ------------------------------------------- closed forms against ED cooling
# Each closed form against the ED-cooled state of its model on every grid
# point small enough for exact diagonalization.


@pytest.mark.parametrize(
    "m,j", [(m, j) for m in range(1, 7) for j in range(m + 1)]
)
def test_ising_gas_cooled_entropies_equal_dicke_closed_form(m, j):
    spec = IsingGasLR(m, lam=j / m)
    cooled = cool(build_model(spec), default_initial_state(spec))
    for k in range(1, 2 * m):
        e = block_entropy(cooled.state, Bipartition.contiguous(k))
        assert e == pytest.approx(ising_gas_spectra(m, j / m, [k])[0].entropy(), abs=1e-10)


@pytest.mark.parametrize("m", range(2, 7))
def test_single_bond_cooled_entropies_equal_closed_form_state(m):
    spec = SingleBondIsing(m)
    cooled = cool(build_model(spec), default_initial_state(spec))
    exact = single_bond_cooled_state(m)
    n = 2 * m
    for k in range(1, n):
        for offset in range(n):
            cut = Bipartition.contiguous(k, offset, n)
            assert block_entropy(cooled.state, cut) == pytest.approx(
                block_entropy(exact, cut), abs=1e-10)


@pytest.mark.parametrize("m", range(1, 6))
def test_heisenberg_gas_cooled_spectra_equal_closed_form(m):
    # the cut holds k black sites, which start in |0>; the white ones in |+>
    spec = HeisenbergGasLR(m)
    cooled = cool(build_model(spec), default_initial_state(spec))
    for k in range(1, m + 1):
        _, spectrum = heisenberg_gas_schmidt_state(m, k)
        a = schmidt_matrix(cooled.state, Bipartition.contiguous(k))
        ed = np.sort(schmidt_weights(a))[::-1]
        expected = np.zeros(len(ed))
        expected[: len(spectrum)] = sorted(spectrum, reverse=True)
        np.testing.assert_allclose(ed, expected, rtol=0, atol=1e-10)
