import hashlib
import json
import os

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
    build_model,
    dimer_product_state,
    shastry_sutherland_diagonals,
)

from reference import (
    apply,
    default_initial_state,
    ground_manifold,
    heisenberg_covering_states,
    mg_dimer_states,
    shastry_dimer_state,
    spectrum,
)


MODEL_TERMS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "model_terms.json")


def ground_columns(op):
    return ground_manifold(diagonalize(op))


def test_ising_gas_minimal():
    op = build_model(IsingGasLR(1))
    assert op.terms == ((1.0, "ZZ"),)


def test_ising_gas_ground_sector_lambda0():
    g = ground_columns(build_model(IsingGasLR(2, 0.0)))
    assert g.shape[1] == 6
    for col in range(6):
        support = np.flatnonzero(np.abs(g[:, col]) > 1e-10)
        assert all(bin(b).count("1") == 2 for b in support)


def test_ising_gas_ground_sector_lambda_half():
    # 2m*lambda = 2: ground sector has m(1+lambda) = 3 zeros, so one 1-bit
    g = ground_columns(build_model(IsingGasLR(2, 0.5)))
    assert g.shape[1] == 4
    for col in range(4):
        support = np.flatnonzero(np.abs(g[:, col]) > 1e-10)
        assert all(bin(b).count("1") == 1 for b in support)


@pytest.mark.parametrize("m,dim", [(1, 1), (2, 2), (3, 5)])
def test_heisenberg_gas_ground_dimension(m, dim):
    assert ground_columns(build_model(HeisenbergGasLR(m))).shape[1] == dim


def test_heisenberg_gas_term_count():
    op = build_model(HeisenbergGasLR(2))
    assert len(op.terms) == 3 * 6  # all pairs of 4 sites, three letters each
    assert all(c == pytest.approx(1.0 / 4.0) for c, _ in op.terms)


def test_mg_ground_space_contains_dimers():
    for m in (2, 3):
        h = build_model(MajumdarGhosh(m))
        e0 = spectrum(diagonalize(h))[0]
        gp, gm = mg_dimer_states(m)
        for g in (gp, gm):
            assert np.vdot(g.amplitudes, apply(h, g.amplitudes)).real == pytest.approx(e0, abs=1e-9)
            # eigenstate residual
            res = apply(h, g.amplitudes) - e0 * g.amplitudes
            assert np.linalg.norm(res) < 1e-9


@pytest.mark.parametrize("m", range(2, 7))
def test_mg_ground_manifold_is_the_dimer_span(m):
    # the premise of the MG optimiser and bounds-check: the ED ground
    # columns V and the coverings G = (G+, G-) span the same plane
    v = ground_columns(build_model(MajumdarGhosh(m)))
    g = np.stack([st.amplitudes for st in mg_dimer_states(m)], axis=1)
    q, _ = np.linalg.qr(g)
    assert v.shape[1] == 2
    assert np.linalg.norm(g - v @ (v.conj().T @ g)) <= 1e-12
    assert np.linalg.norm(v - q @ (q.conj().T @ v)) <= 1e-12


def test_mg_dimer_states_refuse_fewer_than_4_sites():
    with pytest.raises(ValidationError, match="need at least 4 sites"):
        mg_dimer_states(1)


def test_mg_ground_degeneracy_2m6():
    assert ground_columns(build_model(MajumdarGhosh(3))).shape[1] == 2


def test_mg_dimer_energy_2m8():
    # exact ground energy -(3/2) J1 m for the dimer construction
    h = build_model(MajumdarGhosh(4))
    gp, _ = mg_dimer_states(4)
    assert np.vdot(gp.amplitudes, apply(h, gp.amplitudes)).real == pytest.approx(-12.0, abs=1e-9)
    assert spectrum(diagonalize(h))[0] == pytest.approx(-12.0, abs=1e-8)


def test_single_bond_ground_manifold_size():
    for m in (2, 3):
        g = ground_columns(build_model(SingleBondIsing(m)))
        assert g.shape[1] == 4 * m


def test_single_bond_ground_energy():
    # one unsatisfied bond: energy -J(2m - 2) relative to all bonds satisfied
    h = build_model(SingleBondIsing(2))
    assert spectrum(diagonalize(h))[0] == pytest.approx(-2.0)


def test_ferromagnetic_ring_control():
    g = ground_columns(build_model(SingleBondIsing(3, "unfrustrated")))
    assert g.shape[1] == 2


def test_shastry_dimer_is_exact_eigenstate():
    h = build_model(ShastrySutherland(4, 0.3, 1.0))
    st = shastry_dimer_state(4)
    e = np.vdot(st.amplitudes, apply(h, st.amplitudes)).real
    # each diagonal singlet scores -3 J2; NN terms average to zero
    assert e == pytest.approx(-3.0 * 1.0 * 8, abs=1e-9)
    res = apply(h, st.amplitudes) - e * st.amplitudes
    assert np.linalg.norm(res) < 1e-9


def test_shastry_rejects_bad_lattice():
    for L in (2, 5):
        with pytest.raises(ValidationError, match="L must be even and at least 4"):
            ShastrySutherland(L, 1.0, 1.0)
        with pytest.raises(ValidationError, match="L must be even and at least 4"):
            shastry_sutherland_diagonals(L)


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
    st.integers(1, 12).flatmap(lambda p: st.builds(RVBPlaquette, st.just(p), st.integers(0, p))),
)


@given(_SPECS)
def test_model_spec_json_roundtrip(spec):
    # to_json writes the kind and exactly the fields that rebuild the spec
    d = json.loads(spec.to_json())
    assert d.pop("kind") == type(spec).__name__
    assert type(spec)(**{"lam" if k == "lambda" else k: v for k, v in d.items()}) == spec


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
    "build",
    [
        lambda: MajumdarGhosh("3"),
        lambda: MajumdarGhosh(2.5),
        lambda: MajumdarGhosh(True),
        lambda: HeisenbergGasLR(3.0),
        lambda: IsingGasLR(2, lam="0.5"),
        lambda: IsingGasLR(2, lam=True),
        lambda: IsingGasLR(2, sign=1),
        lambda: SingleBondIsing(2, sign=None),
        lambda: ShastrySutherland(4.0),
        lambda: ShastrySutherland(4, j1="1"),
        lambda: ShastrySutherland(4, j2=[0.5]),
        lambda: RVBPlaquette(5, False),
    ],
    ids=["m-str", "m-float", "m-bool", "heisenberg-gas-m-float", "lambda-str", "lambda-bool",
         "ising-gas-sign-int", "single-bond-sign-null", "L-float", "j1-str", "j2-list", "s-bool"],
)
def test_model_spec_refuses_wrong_value_types(build):
    with pytest.raises(ValidationError, match="must be"):
        build()


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


def test_model_spec_validation():
    with pytest.raises(ValidationError, match="lambda must lie in"):
        IsingGasLR(2, lam=1.5)
    with pytest.raises(ValidationError, match="J1, J2 > 0"):
        ShastrySutherland(4, j1=-1.0)
    with pytest.raises(ValidationError, match="J1, J2 > 0"):
        ShastrySutherland(4, j2=float("nan"))
    for build in (lambda: IsingGasLR(2, sign="x"), lambda: SingleBondIsing(2, sign="x")):
        with pytest.raises(ValidationError, match="sign must be"):
            build()
    # a spec takes only the parameters its Hamiltonian reads
    for build in (lambda: MajumdarGhosh(2, j1=1.0), lambda: SingleBondIsing(2, flipped=1),
                  lambda: HeisenbergGasLR(2, lam=0.5), lambda: IsingGasLR(2, j=-1.0)):
        with pytest.raises(TypeError):
            build()


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: IsingGasLR(0), "m must be >= 1"),
        (lambda: IsingGasLR(-2, 0.5, "unfrustrated"), "m must be >= 1"),
        (lambda: HeisenbergGasLR(0), "m must be >= 1"),
        (lambda: HeisenbergGasLR(-1), "m must be >= 1"),
        (lambda: MajumdarGhosh(1), "need at least 4 sites"),
        (lambda: MajumdarGhosh(-3), "need at least 4 sites"),
        (lambda: SingleBondIsing(1), "need at least 4 sites"),
        (lambda: SingleBondIsing(1, "unfrustrated"), "need at least 4 sites"),
        (lambda: SingleBondIsing(-1, "unfrustrated"), "need at least 4 sites"),
        (lambda: ShastrySutherland(2), "L must be even and at least 4"),
        (lambda: ShastrySutherland(7), "L must be even and at least 4"),
        (lambda: RVBPlaquette(3, 4), "s out of range"),
        (lambda: RVBPlaquette(3, -1), "s out of range"),
    ],
    ids=["ising-gas-m-0", "ising-gas-m-negative", "heisenberg-gas-m-0", "heisenberg-gas-m-negative",
         "mg-m-1", "mg-m-negative", "single-bond-m-1", "single-bond-unfrustrated-m-1",
         "single-bond-unfrustrated-m-negative", "shastry-L-2", "shastry-L-odd", "rvb-s-above",
         "rvb-s-negative"],
)
def test_model_spec_refuses_sizes_its_hamiltonian_cannot_take(build, message):
    with pytest.raises(ValidationError, match=message):
        build()


@pytest.mark.parametrize("kind", ["ising-gas", "heisenberg-gas", "mg", "single-bond", "shastry", "rvb"])
@given(size=st.integers(-4, 10), s=st.integers(-2, 10), sign=_SIGNS)
def test_every_accepted_spec_builds_on_its_site_count(kind, size, s, sign):
    # the constructor's size rule is the builder's: an accepted spec
    # builds on 2m sites (L*L, or one per plaquette), a refused one never
    # reaches build_model
    make, accepted, sites = {
        "ising-gas": (lambda: IsingGasLR(size, 0.25, sign), size >= 1, 2 * size),
        "heisenberg-gas": (lambda: HeisenbergGasLR(size), size >= 1, 2 * size),
        "mg": (lambda: MajumdarGhosh(size), size >= 2, 2 * size),
        "single-bond": (lambda: SingleBondIsing(size, sign), size >= 2, 2 * size),
        "shastry": (lambda: ShastrySutherland(size), size >= 4 and size % 2 == 0, size * size),
        "rvb": (lambda: RVBPlaquette(size, s), 0 <= s <= size, size),
    }[kind]
    if not accepted:
        with pytest.raises(ValidationError):
            make()
        return
    spec = make()
    assert build_model(spec).num_sites == sites
    if kind != "shastry":
        assert default_initial_state(spec).num_sites == sites


def _term_grid():
    """The specs of ``data/model_terms.json``: every kind, both signs,
    lambda in {0, 1/4, 1/3, 1}, m up to 9, L = 4 and 6, and every RVB
    (plaquettes, s) up to 8 plaquettes."""
    signs = ("frustrated", "unfrustrated")
    for m in range(1, 10):
        for lam in (0.0, 0.25, 1 / 3, 1.0):
            for sign in signs:
                yield IsingGasLR(m, lam, sign)
        yield HeisenbergGasLR(m)
    for m in range(2, 10):
        yield MajumdarGhosh(m)
        for sign in signs:
            yield SingleBondIsing(m, sign)
    for L in (4, 6):
        for j1, j2 in ((1.0, 0.5), (0.4, 1.0)):
            yield ShastrySutherland(L, j1, j2)
    for p in range(1, 9):
        for s in range(p + 1):
            yield RVBPlaquette(p, s)


def test_build_model_reproduces_the_term_goldens():
    # num_sites and the sha256 of the terms, coefficients as float.hex,
    # captured from the per-model builders that build_model replaced:
    # the same strings and the same coefficient bits
    with open(MODEL_TERMS) as fh:
        golden = json.load(fh)
    specs = list(_term_grid())
    assert sorted(spec.to_json() for spec in specs) == sorted(golden)
    for spec in specs:
        op = build_model(spec)
        text = json.dumps([[c.hex(), s] for c, s in op.terms])
        assert {"num_sites": op.num_sites, "sha256": hashlib.sha256(text.encode()).hexdigest()} \
            == golden[spec.to_json()], spec


def test_build_model_dispatch():
    spec = SingleBondIsing(3)
    h = build_model(spec)
    assert h.num_sites == 6 and h.is_diagonal()
    spec = HeisenbergGasLR(2)
    assert build_model(spec).num_sites == 4


def test_builders_emit_hermitian_operators():
    rng = np.random.default_rng(0)
    for op in (build_model(IsingGasLR(2, 0.5)), build_model(HeisenbergGasLR(2)), build_model(MajumdarGhosh(2))):
        h = build_dense(op)
        np.testing.assert_allclose(h, h.conj().T, atol=1e-12)
        psi = rng.normal(size=h.shape[0]) + 1j * rng.normal(size=h.shape[0])
        psi /= np.linalg.norm(psi)
        assert abs(np.vdot(psi, h @ psi).imag) < 1e-10


def test_ising_builders_are_diagonal():
    assert build_model(IsingGasLR(3, 0.5)).is_diagonal()
    assert build_model(SingleBondIsing(3)).is_diagonal()
