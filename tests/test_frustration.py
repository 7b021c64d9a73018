import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from frustra.spin_core import PauliOperator, _term_masks, popcount
from frustra.models import (
    IsingGasLR,
    MajumdarGhosh,
    SingleBondIsing,
    build_heisenberg_gas,
    build_ising_gas,
    build_mg_chain,
    build_shastry_sutherland,
    build_single_bond_ising,
    build_ferromagnetic_ring,
)
from frustra.frustration import (
    frustration_degree,
    frustration_degree_model,
    ising_gas_frustration_formula,
    ising_limit,
    shastry_sutherland_frustration_formula,
    single_bond_frustration_formula,
)

from reference import scaled


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
    rep = frustration_degree(build_ising_gas(4, 0.0))
    assert rep.value == pytest.approx(0.75, abs=1e-12)
    assert rep.num_ground_configs == math.comb(8, 4)


def test_frustration_single_bond_ring():
    rep = frustration_degree(build_single_bond_ising(3))
    assert rep.value == pytest.approx(0.2, abs=1e-12)
    assert rep.num_ground_configs == 12


def test_frustration_ferromagnet_is_zero():
    rep = frustration_degree(build_ising_gas(3, 0.0, j=-1.0))
    assert rep.value == 0.0
    rep = frustration_degree(build_ferromagnetic_ring(3))
    assert rep.value == 0.0


def test_frustration_mg_point():
    rep = frustration_degree(build_mg_chain(4))
    assert rep.value == pytest.approx(0.5, abs=1e-12)


def test_frustration_heisenberg_gas_m2():
    # Ising limit coincides with the lambda = 0 gas, so F = 1 - 1/m = 1/2
    rep = frustration_degree(build_heisenberg_gas(2))
    assert rep.value == pytest.approx(0.5, abs=1e-12)


def test_case1_formula_exact_over_grid():
    for m in range(2, 7):
        for lam in (0.0, 1.0 / m, 2.0 / m):
            rep = frustration_degree(build_ising_gas(m, lam))
            assert rep.value == pytest.approx(
                ising_gas_frustration_formula(m, lam), abs=1e-12
            )


def test_ising_gas_n22_matches_formula():
    # 170,544 ground configurations
    rep = frustration_degree(build_ising_gas(11, 4.0 / 11.0))
    assert rep.num_ground_configs == 170_544
    assert rep.value == pytest.approx(
        ising_gas_frustration_formula(11, 4.0 / 11.0), abs=1e-12
    )


def test_shastry_sutherland_dimer_regime():
    # in the regime where the diagonal bonds win classically, the L=4
    # enumeration lands on the closed form
    rep = frustration_degree(build_shastry_sutherland(4, 0.4, 1.0))
    closed = shastry_sutherland_frustration_formula(0.4, 1.0)
    assert closed == pytest.approx(4.0 / 9.0)
    assert abs(rep.value - closed) / closed < 0.10


def test_scaling_invariance():
    op = build_single_bond_ising(3)
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
    assert frustration_degree(build_ferromagnetic_ring(m)).value == 0.0
    assert frustration_degree(build_ising_gas(m, 0.0, j=-1.0)).value == 0.0


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
