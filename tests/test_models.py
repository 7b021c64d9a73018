import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from frustra.spin_core import ValidationError, build_dense, diagonalize
from frustra.models import (
    HeisenbergGasLR,
    IsingGasLR,
    MajumdarGhosh,
    ModelSpec,
    RVBPlaquette,
    ShastrySutherland,
    SingleBondIsing,
    build_heisenberg_gas,
    build_ising_gas,
    build_mg_chain,
    build_model,
    build_shastry_sutherland,
    build_single_bond_ising,
    build_ferromagnetic_ring,
    default_initial_state,
    dimer_product_state,
    mg_dimer_states,
    shastry_sutherland_diagonals,
)

from reference import ground_manifold, heisenberg_covering_states, shastry_dimer_state


def ground_columns(op):
    return ground_manifold(diagonalize(op))


def test_ising_gas_minimal():
    op = build_ising_gas(1, 0.0, 1.0)
    assert op.terms == ((1.0, "ZZ"),)


def test_ising_gas_ground_sector_lambda0():
    g = ground_columns(build_ising_gas(2, 0.0))
    assert g.shape[1] == 6
    for col in range(6):
        support = np.flatnonzero(np.abs(g[:, col]) > 1e-10)
        assert all(bin(b).count("1") == 2 for b in support)


def test_ising_gas_ground_sector_lambda_half():
    # 2m*lambda = 2: ground sector has m(1+lambda) = 3 zeros, so one 1-bit
    g = ground_columns(build_ising_gas(2, 0.5))
    assert g.shape[1] == 4
    for col in range(4):
        support = np.flatnonzero(np.abs(g[:, col]) > 1e-10)
        assert all(bin(b).count("1") == 1 for b in support)


@pytest.mark.parametrize("m,dim", [(1, 1), (2, 2), (3, 5)])
def test_heisenberg_gas_ground_dimension(m, dim):
    assert ground_columns(build_heisenberg_gas(m)).shape[1] == dim


def test_heisenberg_gas_term_count():
    op = build_heisenberg_gas(2)
    assert len(op.terms) == 3 * 6  # all pairs of 4 sites, three letters each
    assert all(c == pytest.approx(1.0 / 4.0) for c, _ in op.terms)


def test_mg_ground_space_contains_dimers():
    for m in (2, 3):
        h = build_mg_chain(m)
        dec = diagonalize(h)
        e0 = dec.eigenvalues[0]
        gp, gm = mg_dimer_states(m)
        for g in (gp, gm):
            assert np.vdot(g.amplitudes, h.apply(g.amplitudes)).real == pytest.approx(e0, abs=1e-9)
            # eigenstate residual
            res = h.apply(g.amplitudes) - e0 * g.amplitudes
            assert np.linalg.norm(res) < 1e-9


@pytest.mark.parametrize("m", range(2, 7))
def test_mg_ground_manifold_is_the_dimer_span(m):
    # the premise of the MG optimiser and bounds-check: the ED ground
    # columns V and the coverings G = (G+, G-) span the same plane
    v = ground_columns(build_mg_chain(m))
    g = np.stack([st.amplitudes for st in mg_dimer_states(m)], axis=1)
    q, _ = np.linalg.qr(g)
    assert v.shape[1] == 2
    assert np.linalg.norm(g - v @ (v.conj().T @ g)) <= 1e-12
    assert np.linalg.norm(v - q @ (q.conj().T @ v)) <= 1e-12


def test_mg_dimer_states_refuse_fewer_than_4_sites():
    with pytest.raises(ValidationError, match="need at least 4 sites"):
        mg_dimer_states(1)


def test_mg_ground_degeneracy_2m6():
    assert ground_columns(build_mg_chain(3)).shape[1] == 2


def test_mg_dimer_energy_2m8():
    # exact ground energy -(3/2) J1 m for the dimer construction
    h = build_mg_chain(4, j1=1.0)
    gp, _ = mg_dimer_states(4)
    assert np.vdot(gp.amplitudes, h.apply(gp.amplitudes)).real == pytest.approx(-12.0, abs=1e-9)
    assert diagonalize(h).eigenvalues[0] == pytest.approx(-12.0, abs=1e-8)


def test_single_bond_ground_manifold_size():
    for m in (2, 3):
        g = ground_columns(build_single_bond_ising(m))
        assert g.shape[1] == 4 * m


def test_single_bond_ground_energy():
    # one unsatisfied bond: energy -J(2m - 2) relative to all bonds satisfied
    h = build_single_bond_ising(2, j=1.0)
    assert diagonalize(h).eigenvalues[0] == pytest.approx(-2.0)


def test_ferromagnetic_ring_control():
    g = ground_columns(build_ferromagnetic_ring(3))
    assert g.shape[1] == 2


def test_shastry_dimer_is_exact_eigenstate():
    h = build_shastry_sutherland(4, 0.3, 1.0)
    st = shastry_dimer_state(4)
    e = np.vdot(st.amplitudes, h.apply(st.amplitudes)).real
    # each diagonal singlet scores -3 J2; NN terms average to zero
    assert e == pytest.approx(-3.0 * 1.0 * 8, abs=1e-9)
    res = h.apply(st.amplitudes) - e * st.amplitudes
    assert np.linalg.norm(res) < 1e-9


def test_shastry_rejects_bad_lattice():
    with pytest.raises(ValidationError):
        build_shastry_sutherland(2, 1.0, 1.0)
    with pytest.raises(ValidationError):
        build_shastry_sutherland(5, 1.0, 1.0)


def test_shastry_diagonal_count():
    pairs = shastry_sutherland_diagonals(4)
    assert len(pairs) == 8
    flat = [s for p in pairs for s in p]
    assert len(set(flat)) == 16  # perfect dimer cover


def test_dimer_product_rejects_overlap():
    with pytest.raises(ValidationError):
        dimer_product_state(4, [(0, 1), (1, 2)])


def test_covering_states_count_and_norm():
    states = heisenberg_covering_states(3)
    assert len(states) == 6
    for st in states:
        assert st.norm == pytest.approx(1.0)


def test_default_initial_state_single_bond():
    spec = SingleBondIsing(2)
    st = default_initial_state(spec)
    np.testing.assert_allclose(np.abs(st.amplitudes), 0.25, atol=1e-12)


def test_default_initial_state_mg_pattern():
    spec = MajumdarGhosh(3)
    st = default_initial_state(spec)
    # sites 0..3 pinned to |0101>, last two sites free in |+>
    support = np.flatnonzero(np.abs(st.amplitudes) > 1e-12)
    assert all((b & 0b1111) == 0b1010 for b in support)
    assert len(support) == 4


_SIGNS = st.sampled_from(["frustrated", "unfrustrated"])
_COUPLINGS = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_SPECS = st.one_of(
    st.builds(IsingGasLR, st.integers(1, 12), st.floats(0.0, 1.0), _SIGNS),
    st.builds(HeisenbergGasLR, st.integers(1, 12)),
    st.builds(MajumdarGhosh, st.integers(2, 12)),
    st.builds(SingleBondIsing, st.integers(2, 12), _SIGNS),
    st.builds(ShastrySutherland, st.sampled_from([4, 6]), _COUPLINGS, _COUPLINGS),
    st.builds(RVBPlaquette, st.integers(1, 12), st.integers(0, 12)),
)


@given(_SPECS)
def test_model_spec_json_roundtrip(spec):
    again = ModelSpec.from_json(spec.to_json())
    assert again == spec and type(again) is type(spec)
    assert json.loads(spec.to_json())["kind"] == type(spec).__name__


def test_model_spec_json_holds_only_the_model_parameters():
    assert {c.__name__ for c in ModelSpec.__subclasses__()} == {
        "IsingGasLR", "HeisenbergGasLR", "MajumdarGhosh", "SingleBondIsing",
        "ShastrySutherland", "RVBPlaquette",
    }
    assert SingleBondIsing(3).to_json() == '{"kind": "SingleBondIsing", "m": 3, "sign": "frustrated"}'
    assert IsingGasLR(9, lam=0.5).to_json() == (
        '{"kind": "IsingGasLR", "lambda": 0.5, "m": 9, "sign": "frustrated"}'
    )
    assert ShastrySutherland(4).to_json() == '{"L": 4, "j1": 1.0, "j2": 0.5, "kind": "ShastrySutherland"}'
    assert RVBPlaquette(5, 2).to_json() == '{"kind": "RVBPlaquette", "plaquettes": 5, "s": 2}'


@pytest.mark.parametrize(
    "text",
    [
        '{"kind": "IsingGasLR", "m": 2, "j3": 0.0}',
        "[1,2]",
        "{not json",
        '{"m": 2}',
        '{"kind": "IsingGasLR", "m": 2, "sign": "x"}',
        '{"kind": "SingleBondIsing", "m": 2, "sign": "x"}',
        '{"kind": "MajumdarGhosh", "m": 2, "j1": 1.0}',
        '{"kind": "SingleBondIsing", "m": 2, "flipped_bond": 1}',
        '{"kind": "HeisenbergGasLR", "m": 2, "lambda": 0.5}',
        '{"kind": "ShastrySutherland", "L": 4, "j2": NaN}',
        '{"kind": "MajumdarGhosh"}',
    ],
    ids=["unknown-key", "not-an-object", "malformed", "no-kind", "ising-gas-sign-x", "single-bond-sign-x", "mg-j1", "single-bond-flipped-bond",
         "heisenberg-gas-lambda", "shastry-j2-nan", "no-size"],
)
def test_model_spec_from_json_rejects_bad_input(text):
    with pytest.raises(ValidationError):
        ModelSpec.from_json(text)


@pytest.mark.parametrize(
    "text",
    [
        '{"kind": "MajumdarGhosh", "m": "3"}',
        '{"kind": "MajumdarGhosh", "m": 2.5}',
        '{"kind": "MajumdarGhosh", "m": true}',
        '{"kind": "HeisenbergGasLR", "m": 3.0}',
        '{"kind": "IsingGasLR", "m": 2, "lambda": "0.5"}',
        '{"kind": "IsingGasLR", "m": 2, "lambda": true}',
        '{"kind": "IsingGasLR", "m": 2, "sign": 1}',
        '{"kind": "SingleBondIsing", "m": 2, "sign": null}',
        '{"kind": "ShastrySutherland", "L": 4.0}',
        '{"kind": "ShastrySutherland", "L": 4, "j1": "1"}',
        '{"kind": "ShastrySutherland", "L": 4, "j2": [0.5]}',
        '{"kind": "RVBPlaquette", "plaquettes": 5, "s": false}',
    ],
    ids=["m-str", "m-float", "m-bool", "heisenberg-gas-m-float", "lambda-str", "lambda-bool",
         "ising-gas-sign-int", "single-bond-sign-null", "L-float", "j1-str", "j2-list", "s-bool"],
)
def test_model_spec_refuses_wrong_value_types(text):
    with pytest.raises(ValidationError, match="must be"):
        ModelSpec.from_json(text)


@pytest.mark.parametrize(
    "build",
    [lambda: MajumdarGhosh("3"), lambda: IsingGasLR(2, lam=None), lambda: SingleBondIsing(2, sign=b"x"),
     lambda: ShastrySutherland(4, j1=True), lambda: RVBPlaquette(5.0, 2)],
    ids=["mg-m-str", "ising-gas-lambda-none", "single-bond-sign-bytes", "shastry-j1-bool", "rvb-plaquettes-float"],
)
def test_model_spec_constructors_check_value_types(build):
    with pytest.raises(ValidationError, match="must be"):
        build()


def test_model_spec_numeric_types_accepted():
    assert IsingGasLR(np.int64(2), lam=np.float64(0.5)) == IsingGasLR(2, lam=0.5)
    assert ShastrySutherland(4, j1=1, j2=2) == ShastrySutherland(4, j1=1.0, j2=2.0)


@pytest.mark.parametrize(
    "text",
    ['{"kind": "IsingGasLR", "m": 2, "lambda": 0.1, "lam": 0.5}', '{"kind": "IsingGasLR", "m": 2, "lam": 0.5}'],
    ids=["lam-beside-lambda", "lam-alone"],
)
def test_model_spec_from_json_reads_only_what_to_json_writes(text):
    with pytest.raises(ValidationError, match="does not take lam"):
        ModelSpec.from_json(text)


def test_model_spec_validation():
    with pytest.raises(ValidationError):
        ModelSpec.from_json('{"kind": "nope", "m": 2}')
    with pytest.raises(ValidationError):
        IsingGasLR(2, lam=1.5)
    with pytest.raises(ValidationError):
        ModelSpec.from_json('{"kind": "MajumdarGhosh", "m": 2, "j1": -1.0}')
    with pytest.raises(ValidationError):
        ShastrySutherland(4, j1=-1.0)


def test_build_model_dispatch():
    spec = SingleBondIsing(3)
    h = build_model(spec)
    assert h.num_sites == 6 and h.is_diagonal()
    spec = HeisenbergGasLR(2)
    assert build_model(spec).num_sites == 4


def test_builders_emit_hermitian_operators():
    rng = np.random.default_rng(0)
    for op in (build_ising_gas(2, 0.5), build_heisenberg_gas(2), build_mg_chain(2)):
        h = build_dense(op)
        np.testing.assert_allclose(h, h.conj().T, atol=1e-12)
        psi = rng.normal(size=h.shape[0]) + 1j * rng.normal(size=h.shape[0])
        psi /= np.linalg.norm(psi)
        assert abs(np.vdot(psi, h @ psi).imag) < 1e-10


def test_ising_builders_are_diagonal():
    assert build_ising_gas(3, 0.5).is_diagonal()
    assert build_single_bond_ising(3).is_diagonal()
