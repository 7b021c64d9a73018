import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from frustra.spin_core import PauliOperator, ValidationError, _term_masks, popcount
from frustra.models import (
    HeisenbergGasLR,
    IsingGasLR,
    MajumdarGhosh,
    RVBPlaquette,
    ShastrySutherland,
    SingleBondIsing,
    build_model,
    couplings,
    popcount_energies,
)
from frustra.frustration import (
    frustration_degree,
    frustration_degree_model,
    ising_gas_frustration_formula,
    ising_limit,
    shastry_sutherland_frustration_formula,
    single_bond_frustration_formula,
)

from reference import mg_ground_count, scaled


def test_ising_limit_collapses_isotropic_triple():
    op = PauliOperator(2, ((0.5, "XX"), (0.5, "YY"), (0.5, "ZZ")))
    limited = ising_limit(op)
    assert limited.terms == ((0.5, "ZZ"),)


def test_ising_limit_keeps_zz():
    op = PauliOperator(3, ((1.0, "ZIZ"),))
    assert ising_limit(op).terms == op.terms


def test_ising_limit_drops_constants():
    op = PauliOperator(2, ((3.0, "II"), (1.0, "ZZ")))
    assert ising_limit(op).terms == ((1.0, "ZZ"),)


def test_ising_limit_replaces_letters_without_triple():
    op = PauliOperator(2, ((1.0, "XY"),))
    assert ising_limit(op).terms == ((1.0, "ZZ"),)


def test_frustration_af_ising_gas():
    rep = frustration_degree(build_model(IsingGasLR(4, 0.0)))
    assert rep.value == pytest.approx(0.75, abs=1e-12)
    assert rep.num_ground_configs == math.comb(8, 4)


def test_frustration_single_bond_ring():
    rep = frustration_degree(build_model(SingleBondIsing(3)))
    assert rep.value == pytest.approx(0.2, abs=1e-12)
    assert rep.num_ground_configs == 12


def test_frustration_ferromagnet_is_zero():
    rep = frustration_degree(build_model(IsingGasLR(3, 0.0, "unfrustrated")))
    assert rep.value == 0.0
    rep = frustration_degree(build_model(SingleBondIsing(3, "unfrustrated")))
    assert rep.value == 0.0


def test_frustration_mg_point():
    rep = frustration_degree(build_model(MajumdarGhosh(4)))
    assert rep.value == pytest.approx(0.5, abs=1e-12)


def test_frustration_heisenberg_gas_m2():
    # Ising limit coincides with the lambda = 0 gas, so F = 1 - 1/m = 1/2
    rep = frustration_degree(build_model(HeisenbergGasLR(2)))
    assert rep.value == pytest.approx(0.5, abs=1e-12)


def test_case1_formula_exact_over_grid():
    for m in range(2, 7):
        for lam in (0.0, 1.0 / m, 2.0 / m):
            rep = frustration_degree(build_model(IsingGasLR(m, lam)))
            assert rep.value == pytest.approx(
                ising_gas_frustration_formula(m, lam), abs=1e-12
            )


def test_ising_gas_n22_matches_formula():
    # 170,544 ground configurations
    rep = frustration_degree(build_model(IsingGasLR(11, 4.0 / 11.0)))
    assert rep.num_ground_configs == 170_544
    assert rep.value == pytest.approx(
        ising_gas_frustration_formula(11, 4.0 / 11.0), abs=1e-12
    )


def test_shastry_sutherland_dimer_regime():
    # in the regime where the diagonal bonds win classically, the L=4
    # enumeration lands on the closed form
    rep = frustration_degree(build_model(ShastrySutherland(4, 0.4, 1.0)))
    closed = shastry_sutherland_frustration_formula(0.4, 1.0)
    assert closed == pytest.approx(4.0 / 9.0)
    assert abs(rep.value - closed) / closed < 0.10


@pytest.mark.parametrize("L", [4, 6])
@pytest.mark.parametrize("j2", [0.5, 1.0, 3.0])
def test_shastry_closed_form_is_piecewise_in_j1_over_j2(L, j2):
    # the transfer equals 1/(1 + J2/(2 J1)) for J1/J2 in (0, 1/2] and
    # J2/(4 J1) above (0.125 at the CLI default J1 = 1, J2 = 0.5), and the
    # report attaches that form on both sides
    for ratio in [*np.linspace(0.5, 0.02, 25), 0.5000001, 0.55, 0.6, 1.0, 1.5, 2.0]:
        rep = frustration_degree_model(ShastrySutherland(L, ratio * j2, j2))
        closed = (1.0 / (1.0 + 1.0 / (2.0 * ratio)) if ratio <= 0.5 else 1.0 / (4.0 * ratio))
        assert rep.closed_form == shastry_sutherland_frustration_formula(ratio * j2, j2)
        assert rep.closed_form == pytest.approx(closed, rel=1e-14)
        assert rep.value == pytest.approx(rep.closed_form, rel=0, abs=1e-12)


@pytest.mark.parametrize("ratio", [0.4, 0.5, 0.6])
def test_shastry_closed_form_holds_on_the_8x8_torus(ratio):
    # 2^32 ground configurations in the dimer regime, the two Neel states
    # above it
    rep = frustration_degree_model(ShastrySutherland(8, ratio, 1.0))
    assert rep.value == pytest.approx(rep.closed_form, rel=0, abs=1e-12)
    assert rep.num_ground_configs == {0.4: 2**32, 0.5: 5_652_094_746_834, 0.6: 2}[ratio]


def test_scaling_invariance():
    op = build_model(SingleBondIsing(3))
    a = frustration_degree(op).value
    b = frustration_degree(scaled(op, 7.5)).value
    assert a == pytest.approx(b, abs=1e-12)


def _table_frustration(op):
    """Reference F: a table of every term's energy in every ground
    configuration, split by sign and summed row by row."""
    h = ising_limit(op)
    totals = h.diagonal()
    e_min = float(totals.min())
    scale = max(float(np.abs(totals).max()), 1.0)
    ground = np.flatnonzero(totals <= e_min + 1e-9 * scale)
    coeffs = np.array([c for c, _ in h.terms])
    masks = np.array([_term_masks(s)[2] for _, s in h.terms], dtype=np.int64)
    tab = coeffs * (1.0 - 2.0 * (popcount(ground[:, None] & masks) & 1))
    pos = np.where(tab > 0.0, tab, 0.0).sum(axis=1)
    nonpos = np.where(tab <= 0.0, tab, 0.0).sum(axis=1)
    return float((pos / np.abs(nonpos)).mean()), len(ground)


# Nonzero half-integers sum exactly; signed floats keep |c| >= 1/8, so a
# frustrated term lifts its configuration far above the 1e-9 ground
# tolerance that both readings share.
_coeffs = st.one_of(
    st.integers(1, 8).map(lambda k: k / 2),
    st.floats(0.125, 4.0, allow_nan=False),
).flatmap(lambda c: st.sampled_from([c, -c]))


@st.composite
def iz_operators(draw):
    n = draw(st.integers(1, 10))
    strings = st.text(alphabet="IZ", min_size=n, max_size=n).filter(lambda s: "Z" in s)
    terms = draw(st.lists(st.tuples(_coeffs, strings), min_size=1, max_size=12,
                          unique_by=lambda t: t[1]))
    return PauliOperator(n, tuple(terms))


@st.composite
def heisenberg_operators(draw):
    """Isotropic pairs, anisotropic pairs and single-site fields; no two of
    them share a Z-string in the Ising limit."""
    n = draw(st.integers(2, 10))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda p: p[0] < p[1]),
        min_size=1, max_size=12, unique=True))
    terms = []
    for i, j in pairs:
        c = draw(_coeffs)
        kind = draw(st.sampled_from(["XYZ", "XX", "XY", "YZ"]))
        for letters in ([p + p for p in kind] if kind == "XYZ" else [kind]):
            s = ["I"] * n
            s[i], s[j] = letters
            terms.append((c, "".join(s)))
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True)):
        letter = draw(st.sampled_from("XYZ"))
        terms.append((draw(_coeffs), "I" * i + letter + "I" * (n - 1 - i)))
    return PauliOperator(n, tuple(terms))


def _assert_matches_table(op):
    want, count = _table_frustration(op)
    rep = frustration_degree(op)
    assert rep.num_ground_configs == count
    assert (rep.value == 0.0) == (want == 0.0)
    assert rep.value == pytest.approx(want, rel=1e-12, abs=0.0)


@given(iz_operators())
def test_identity_matches_term_table_on_iz_operators(op):
    _assert_matches_table(op)


@given(heisenberg_operators())
def test_identity_matches_term_table_through_ising_limit(op):
    _assert_matches_table(op)


@given(st.one_of(iz_operators(), heisenberg_operators()))
def test_frustration_degree_nonnegative(op):
    # the mean energy of a traceless operator is 0, so E0 < 0 and every
    # ratio (A + E)/(A - E) lies in [0, 1)
    assert 0.0 <= frustration_degree(op).value <= 1.0


@pytest.mark.parametrize("m", range(1, 12))
def test_unfrustrated_models_give_exact_zero(m):
    if m >= 2:  # the ring needs 4 sites
        assert frustration_degree(build_model(SingleBondIsing(m, "unfrustrated"))).value == 0.0
    assert frustration_degree(build_model(IsingGasLR(m, 0.0, "unfrustrated"))).value == 0.0


def test_frustration_degree_model_attaches_closed_forms():
    rep = frustration_degree_model(MajumdarGhosh(4))
    assert rep.closed_form == 0.5
    assert rep.value == pytest.approx(0.5, abs=1e-12)
    rep = frustration_degree_model(SingleBondIsing(3))
    assert rep.closed_form == pytest.approx(single_bond_frustration_formula(3))
    rep = frustration_degree_model(IsingGasLR(4))
    assert rep.closed_form == pytest.approx(0.75)


def test_report_json_shape():
    rep = frustration_degree_model(SingleBondIsing(3))
    import json

    d = json.loads(rep.to_json())
    assert set(d) == {"f", "closed_form", "n_ground_configs", "mode"}
    assert d["f"] == pytest.approx(0.2)
    assert d["mode"] == "ising"
    rep = frustration_degree_model(MajumdarGhosh(4))
    assert json.loads(rep.to_json())["mode"] == "classical-vector"


# --- the routes without the enumeration -----------------------------------


def _assert_route_matches_enumeration(spec):
    """frustration_degree_model against the enumeration of the built
    operator: the count exactly, f to 1e-12, the mode and 0 exactly."""
    rep = frustration_degree_model(spec)
    want = frustration_degree(build_model(spec))
    assert rep.num_ground_configs == want.num_ground_configs
    assert isinstance(rep.num_ground_configs, int)
    assert rep.value == pytest.approx(want.value, rel=0, abs=1e-12)
    assert (rep.value == 0.0) == (want.value == 0.0)
    assert rep.mode == want.mode


_signs = st.sampled_from(["frustrated", "unfrustrated"])


@st.composite
def ising_gases(draw):
    """lambda on the j/m grid, half-way between two of its points (where
    two sectors tie), next to half-way (where they split by less than the
    ground tolerance), at the tie of m = 3, or anywhere in [0, 1]."""
    m = draw(st.integers(1, 10))
    j = draw(st.integers(0, m))
    lam = draw(st.one_of(
        st.just(j / m),
        st.just(min(1.0, (j + 0.5) / m)),
        st.integers(-100, 100).map(lambda k: min(1.0, (j + 0.5) / m * (1 + k * 1e-11))),
        st.just(0.5),
        st.floats(0.0, 1.0, allow_nan=False),
    ))
    return IsingGasLR(m, lam, draw(_signs))


@given(ising_gases())
def test_ising_gas_route_matches_enumeration(spec):
    _assert_route_matches_enumeration(spec)


def test_ising_gas_route_counts_two_tied_sectors():
    # m = 3, lambda = 0.5: E(p) ties at M = 2 and M = 4 (p = 2 and p = 1)
    rep = frustration_degree_model(IsingGasLR(3, 0.5))
    assert rep.num_ground_configs == math.comb(6, 2) + math.comb(6, 1) == 21
    _assert_route_matches_enumeration(IsingGasLR(3, 0.5))


@pytest.mark.parametrize("m", range(1, 11))
def test_heisenberg_gas_route_matches_enumeration(m):
    _assert_route_matches_enumeration(HeisenbergGasLR(m))


@given(st.integers(1, 20).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, n))))
def test_rvb_label_route_matches_enumeration(ns):
    _assert_route_matches_enumeration(RVBPlaquette(*ns))


@pytest.mark.parametrize("m", range(2, 11))
def test_mg_route_matches_enumeration(m):
    # m = 2 is a ring of two slices, whose two links join the same slices
    _assert_route_matches_enumeration(MajumdarGhosh(m))


@pytest.mark.parametrize("sign", ["frustrated", "unfrustrated"])
@pytest.mark.parametrize("m", range(2, 11))
def test_single_bond_route_matches_enumeration(m, sign):
    _assert_route_matches_enumeration(SingleBondIsing(m, sign))


# J1/J2 on both sides of 1/2, at it, and next to it; at 0.5 (1 + k 1e-10)
# the levels split by a few times (J1/J2 - 1/2) J2, under the ground
# tolerance, so ties within it at several products could add up past it
_ratios = st.one_of(
    st.sampled_from([0.5, 0.5 - 1e-6, 0.5 + 1e-6, 0.25, 1.0, 2.0]),
    st.integers(1, 100).map(lambda k: 0.5 * (1 + k * 1e-10)),
    st.floats(0.01, 2.0, allow_nan=False),
)


@given(_ratios, st.floats(0.1, 4.0, allow_nan=False))
def test_shastry_route_matches_enumeration(ratio, j2):
    _assert_route_matches_enumeration(ShastrySutherland(4, ratio * j2, j2))


def test_transfer_that_cannot_separate_the_levels_enumerates_or_refuses(monkeypatch):
    # the transfer's count stands only when its ties are all within 1e-4
    # of the tolerance; next to J1/J2 = 1/2 they are not, and the levels
    # are enumerated on 16 sites and refused on 36
    import frustra.frustration as fr

    enumerated = []
    enumerate_ = fr.frustration_degree
    monkeypatch.setattr(fr, "frustration_degree", lambda op: enumerated.append(op) or enumerate_(op))
    near = 0.5 * (1 + 20e-10)
    assert frustration_degree_model(ShastrySutherland(4, near, 1.0)).num_ground_configs == 706
    assert len(enumerated) == 1
    for ratio in (0.4, 0.5, 0.5 * (1 + 1e-6), 0.6):
        frustration_degree_model(ShastrySutherland(4, ratio, 1.0))
    assert len(enumerated) == 1
    with pytest.raises(ValidationError, match="does not separate.*36 sites exceeds"):
        frustration_degree_model(ShastrySutherland(6, near, 1.0))


def test_ising_gas_route_averages_sectors_split_inside_the_tolerance():
    # lambda next to the m = 3 tie splits the two sectors by 2e-9, under
    # the tolerance of 1.1e-8: both count, and f is their mean ratio, which
    # is 7e-11 off the ratio at E0
    spec = IsingGasLR(3, 0.5 * (1 + 1e-9))
    assert frustration_degree_model(spec).num_ground_configs == 21
    _assert_route_matches_enumeration(spec)


def test_model_without_a_route_is_refused():
    with pytest.raises(ValidationError, match="no frustration route"):
        frustration_degree_model("mg")


def test_mg_count_at_1000_sites_is_exact_past_int64():
    rep = frustration_degree_model(MajumdarGhosh(500))
    assert rep.num_ground_configs == mg_ground_count(1000)
    assert rep.num_ground_configs > 2**63
    assert str(rep.num_ground_configs).startswith("97194177735908175207")
    assert len(str(rep.num_ground_configs)) == 209
    assert rep.value == 0.5


@pytest.mark.parametrize("m", [2, 3, 4, 7, 10])
def test_mg_count_closed_form_matches_enumeration(m):
    assert mg_ground_count(2 * m) == frustration_degree(build_model(MajumdarGhosh(m))).num_ground_configs


def test_transfer_without_the_wrap_link_is_caught(monkeypatch):
    # a mutant that drops every term of the wrap link, the one that joins
    # slice S - 1 back to slice 0, must disagree with the enumeration
    import frustra.frustration as fr

    slice_terms = fr._slice_terms

    def without_wrap(n, parts, width):
        links = slice_terms(n, parts, width)
        return links[:-1] + [[t for t in links[-1] if not t[1] & ((1 << width) - 1)]]

    monkeypatch.setattr(fr, "_slice_terms", without_wrap)
    for spec in (SingleBondIsing(3), MajumdarGhosh(4), ShastrySutherland(4, 0.4, 1.0)):
        with pytest.raises(AssertionError):
            _assert_route_matches_enumeration(spec)


@pytest.mark.parametrize("spec,distinct", [
    (MajumdarGhosh(2), 2), (MajumdarGhosh(3), 1), (MajumdarGhosh(10), 1),
    (SingleBondIsing(5), 2), (SingleBondIsing(5, "unfrustrated"), 1),
    (ShastrySutherland(4, 0.4, 1.0), 2), (ShastrySutherland(6, 1.7, 1.0), 2),
    (ShastrySutherland(8, 0.4, 1.0), 2)], ids=str)
def test_ring_route_forms_one_slice_matrix_per_distinct_link(monkeypatch, spec, distinct):
    # links with the same terms share one matrix: MG's links all match
    # from three slices on (at two, the wrap link takes every group that
    # joins them), the frustrated ring's wrap link holds the flipped bond,
    # and the Shastry rows alternate between two diagonal patterns
    import frustra.frustration as fr

    calls = []
    z_energies = fr._z_energies
    monkeypatch.setattr(fr, "_z_energies", lambda n, terms: calls.append(terms) or z_energies(n, terms))
    report = frustration_degree_model(spec)
    assert len(calls) == distinct
    assert report.num_ground_configs > 0


def test_ring_terms_that_skip_a_slice_are_refused():
    from frustra.frustration import _slice_terms

    with pytest.raises(ValidationError, match="not neighbours"):
        _slice_terms(6, [(1.0, "Z", [(0, 3)])], 1)


_RING_SPECS = ([(MajumdarGhosh(m), 2) for m in range(2, 11)]
               + [(SingleBondIsing(m, sign), 1) for m in range(2, 9)
                  for sign in ("frustrated", "unfrustrated")]
               + [(ShastrySutherland(L, ratio, 1.0), L) for L in (4, 6)
                  for ratio in (0.1, 0.4, 0.5, 0.6, 1.7)])


@pytest.mark.parametrize("spec,width", _RING_SPECS, ids=str)
def test_ring_route_reads_the_ising_limit_of_the_built_operator(spec, width):
    # the route's terms, put back on the whole ring, sum per Z-string to
    # the Ising limit of the built operator, and its A is that limit's
    # sum of |c|; MG at m = 2 visits each next-nearest-neighbour bond twice
    import frustra.frustration as fr

    n, parts = couplings(spec)
    slices = n // width
    got = {}
    for link, terms in enumerate(fr._slice_terms(n, parts, width)):
        for w, mask in terms:
            z = ((mask >> width) << (link * width)) | (
                (mask & ((1 << width) - 1)) << ((link + 1) % slices * width))
            got[z] = got.get(z, 0.0) + w
    want = {}
    for c, string in ising_limit(build_model(spec)).terms:
        z = _term_masks(string)[2]
        want[z] = want.get(z, 0.0) + c
    assert got == want
    a = math.fsum(abs(c) for c, _ in ising_limit(build_model(spec)).terms)
    assert fr._weight(n, parts) == pytest.approx(a, rel=1e-15, abs=0)


@pytest.mark.parametrize("spec", [IsingGasLR(3, 0.25), IsingGasLR(4, 0.5, "unfrustrated"),
                                  IsingGasLR(2, 0.0), HeisenbergGasLR(3), RVBPlaquette(5, 2),
                                  RVBPlaquette(4, 2)])
def test_gas_parts_are_the_coefficients_of_the_built_operator(spec):
    # every term of the built operator carries the coefficient of the part
    # of its order, and the popcount energies are its Ising limit's
    n, parts = couplings(spec)
    op = build_model(spec)
    by_order = {g: c for c, _, g in parts}
    for c, string in op.terms:
        assert c == by_order[len(string) - string.count("I")]
    assert len(op.terms) == sum(len(letters) * math.comb(n, g) for c, letters, g in parts if c != 0.0)
    np.testing.assert_allclose(popcount_energies(n, parts)[popcount(np.arange(1 << n))],
                               ising_limit(op).diagonal(), rtol=0, atol=1e-12)


@pytest.mark.parametrize("spec", [MajumdarGhosh(5), SingleBondIsing(4), ShastrySutherland(4, 0.4, 1.0),
                                  IsingGasLR(3, 0.5), HeisenbergGasLR(3), RVBPlaquette(6, 2)])
def test_routes_build_no_operator_and_take_no_ising_limit(monkeypatch, spec):
    import frustra.frustration as fr

    monkeypatch.setattr(fr, "build_model", lambda spec: pytest.fail("built the operator"))
    monkeypatch.setattr(fr, "ising_limit", lambda op: pytest.fail("took the Ising limit"))
    monkeypatch.setattr(fr, "PauliOperator", None)
    assert frustration_degree_model(spec).num_ground_configs > 0


@pytest.mark.parametrize("j1,j2", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0)])
def test_shastry_refuses_non_finite_couplings(j1, j2):
    with pytest.raises(ValidationError, match="finite J1, J2 > 0"):
        ShastrySutherland(4, j1, j2)


def test_ring_route_refuses_non_finite_weight_or_energies(monkeypatch):
    # 40 terms at 1e308 sum past the largest float before any matrix; with
    # A forced finite, the energies overflow and are refused before the count
    import frustra.frustration as fr

    spec = ShastrySutherland(4, 1e308, 1e308)
    with pytest.raises(ValidationError, match="weight A = inf is not finite"):
        frustration_degree_model(spec)
    monkeypatch.setattr(fr, "_weight", lambda n, parts: 1.0)
    monkeypatch.setattr(fr, "_check_count_digits", lambda digits: pytest.fail("counted"))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValidationError, match="energies from .* are not finite"):
            frustration_degree_model(spec)
