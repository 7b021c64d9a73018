"""Differential tests of the per-sector diagonalization.

The reference builds every operator from 2x2 Pauli matrices with np.kron
(site 0 is the least significant bit, so it is the rightmost factor) and
diagonalizes it with one dense complex eigh.
"""
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from frustra.cooling import cool, cooled_entropy_scan
from frustra.models import (
    HeisenbergGasLR,
    IsingGasLR,
    MajumdarGhosh,
    RVBPlaquette,
    SingleBondIsing,
    build_model,
    default_initial_pairs,
)
from frustra.spin_core import (
    Bipartition,
    PauliOperator,
    StateVector,
    _scatter_block,
    _sector_triplets,
    block_entropy,
    build_dense,
    diagonalize,
    product_state,
)

from reference import (
    eigenvectors,
    ground_manifold,
    mg_dimer_states,
    sector_bases,
    sector_block,
    sector_eigh,
    spectrum,
)

PAULI = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1.0, -1.0]).astype(complex),
}


def reference_matrix(op):
    dim = 1 << op.num_sites
    h = np.zeros((dim, dim), dtype=complex)
    for coeff, string in op.terms:
        term = np.eye(1)
        for letter in string:
            term = np.kron(PAULI[letter], term)
        h += coeff * term
    return h


def reference_ground(op):
    """Reference eigenvalues, ground projector and the gap above it."""
    vals, vecs = np.linalg.eigh(reference_matrix(op))
    tol = 1e-9 * max(vals[-1] - vals[0], 1.0)
    ground = vecs[:, vals <= vals[0] + tol]
    above = vals[vals > vals[0] + tol]
    gap = above[0] - vals[0] if len(above) else np.inf
    return vals, ground @ ground.conj().T, gap


def heisenberg_ring(n, j):
    terms = []
    for i in range(n):
        a, b = sorted((i, (i + 1) % n))
        for p in "XYZ":
            s = ["I"] * n
            s[a] = s[b] = p
            terms.append((j, "".join(s)))
    return PauliOperator(n, tuple(terms))


def generic_product_state(n, seed=0):
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.2, 1.3, n)
    ph = rng.uniform(0, 2 * np.pi, n)
    return product_state([(np.cos(a), np.exp(1j * b) * np.sin(a)) for a, b in zip(t, ph)])


def expected_block_count(op):
    """n + 2 blocks for an S^z-conserving operator that commutes with the
    global spin flip at even n (the middle sector splits in two), n + 1
    for any other S^z-conserving one.  The flip complements every bit,
    which reverses the basis order, so it commutes exactly when the
    reference matrix equals itself with both axes reversed."""
    h = reference_matrix(op)
    flip = np.array_equal(h, h[::-1, ::-1])
    return op.num_sites + (2 if flip and op.num_sites % 2 == 0 else 1)


def assert_blocks_equal_oracle(op):
    """The one-pass triplet assembly gives the oracle's bases and blocks,
    bit for bit and in the same dtypes, so ``eigh`` sees the same input.
    A flip-symmetric operator's sectors p > n/2 get no triplets: they are
    built from the columns of popcount <= n/2 alone, and each scattered
    sector p <= n/2 equals the oracle's build from all of its columns."""
    bases, triplets = _sector_triplets(op)
    want = sector_bases(op)
    assert len(bases) == len(want)
    h = reference_matrix(op)
    half = len(bases) > 1 and np.array_equal(h, h[::-1, ::-1])
    assert len(triplets) == (op.num_sites // 2 + 1 if half else len(bases))
    for basis, want_basis in zip(bases, want):
        assert basis.dtype == want_basis.dtype
        assert np.array_equal(basis, want_basis)
    for basis, block_triplets in zip(bases, triplets):
        block = _scatter_block(op, len(basis), block_triplets)
        want_block = sector_block(op, basis)
        assert block.dtype == want_block.dtype
        assert np.array_equal(block, want_block)


MODELS = {
    "ising-gas-m2": build_model(IsingGasLR(2, 0.0)),
    "ising-gas-m3-field": build_model(IsingGasLR(3, 1.0 / 3.0)),
    "ising-gas-m4-field": build_model(IsingGasLR(4, 0.5)),
    "heisenberg-gas-m2": build_model(HeisenbergGasLR(2)),
    "heisenberg-gas-m3": build_model(HeisenbergGasLR(3)),
    "heisenberg-gas-m4": build_model(HeisenbergGasLR(4)),
    "mg-m2": build_model(MajumdarGhosh(2)),
    "mg-m3": build_model(MajumdarGhosh(3)),
    "mg-m4": build_model(MajumdarGhosh(4)),
    "single-bond-m2": build_model(SingleBondIsing(2)),
    "single-bond-m4": build_model(SingleBondIsing(4)),
    "rvb-labels-4-2": build_model(RVBPlaquette(4, 2)),
    "rvb-labels-7-3": build_model(RVBPlaquette(7, 3)),
    "ferro-heisenberg-ring-6": heisenberg_ring(6, -1.0),
    "ferro-heisenberg-ring-8": heisenberg_ring(8, -1.0),
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_models_match_reference(name):
    op = MODELS[name]
    assert_blocks_equal_oracle(op)
    vals, proj, _ = reference_ground(op)
    blocks = diagonalize(op)
    assert len(blocks) == expected_block_count(op)
    np.testing.assert_allclose(spectrum(blocks), vals, rtol=0, atol=1e-10)

    initial = generic_product_state(op.num_sites)
    want = proj @ initial.amplitudes
    want /= np.linalg.norm(want)
    got = cool(op, initial).state
    assert abs(np.vdot(want, got.amplitudes)) ** 2 >= 1 - 1e-10


def test_ferromagnetic_ring_ground_spans_every_sector():
    op = MODELS["ferro-heisenberg-ring-8"]
    ground = ground_manifold(diagonalize(op))
    assert ground.shape[1] == 9
    weight = np.sum(np.abs(ground) ** 2, axis=1)
    pop = np.array([bin(b).count("1") for b in range(256)])
    assert all(weight[pop == s].sum() == pytest.approx(1.0) for s in range(9))


def test_cross_sector_check_uses_summed_elements():
    xx = PauliOperator(2, ((1.0, "XX"),))
    assert len(diagonalize(xx)) == 1
    # XX + YY also commutes with the flip: sectors 0 and 2 mirror each
    # other, and the middle sector splits into its two flip halves
    assert len(diagonalize(PauliOperator(2, ((1.0, "XX"), (1.0, "YY"))))) == 4
    # an odd Y count makes the matrix complex
    xy = PauliOperator(2, ((1.0, "XY"), (-1.0, "YX")))
    blocks = diagonalize(xy)
    assert len(blocks) == 3
    assert np.iscomplexobj(eigenvectors(blocks))
    np.testing.assert_allclose(spectrum(blocks), np.linalg.eigvalsh(reference_matrix(xy)),
                               atol=1e-12)


coefficients = st.integers(-4, 4).map(lambda k: k / 2.0)
nonzero_coefficients = st.sampled_from([k / 2.0 for k in range(-4, 5) if k])


@st.composite
def bond_sums(draw):
    """S^z-conserving operators: XX+YY and ZZ bonds plus Z fields."""
    n = draw(st.integers(2, 6))
    pairs = list(itertools.combinations(range(n), 2))
    terms = []
    for i, j in draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=6)):
        jxy, jz = draw(coefficients), draw(coefficients)
        for p, c in (("X", jxy), ("Y", jxy), ("Z", jz)):
            s = ["I"] * n
            s[i] = s[j] = p
            terms.append((c, "".join(s)))
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        s = ["I"] * n
        s[i] = "Z"
        terms.append((draw(coefficients), "".join(s)))
    return PauliOperator(n, tuple(terms))


@st.composite
def pauli_sums(draw):
    """General strings: most leak between sectors, some are complex."""
    n = draw(st.integers(2, 6))
    strings = st.text(alphabet="IXYZ", min_size=n, max_size=n)
    terms = draw(st.lists(st.tuples(coefficients, strings), min_size=1, max_size=8))
    return PauliOperator(n, tuple(terms))


def check_against_reference(op):
    assert_blocks_equal_oracle(op)
    # half-integer coefficients: every partial sum of an element is exact,
    # so the dense build equals the kron sum whatever order each sum takes
    h = build_dense(op)
    assert h.dtype == (float if op.is_real() else complex)
    assert np.array_equal(h, reference_matrix(op))
    assume(op.terms)
    vals, proj, gap = reference_ground(op)
    assume(gap > 1e-6)
    blocks = diagonalize(op)
    np.testing.assert_allclose(spectrum(blocks), vals, rtol=0, atol=1e-10)
    ground = ground_manifold(blocks)
    np.testing.assert_allclose(ground @ ground.conj().T, proj, rtol=0, atol=1e-9)
    return blocks


@given(bond_sums())
def test_bond_sums_match_reference(op):
    assert len(check_against_reference(op)) == expected_block_count(op)


@given(pauli_sums())
def test_pauli_sums_match_reference(op):
    check_against_reference(op)


def test_mg_ring_n12_matches_dimer_projection():
    # the known-ground route of the scan against a QR projection onto the
    # two dimer coverings
    spec = MajumdarGhosh(6)
    pairs = default_initial_pairs(spec)
    initial = product_state(pairs)
    gp, gm = mg_dimer_states(6)
    q, _ = np.linalg.qr(np.stack([gp.amplitudes, gm.amplitudes], axis=1))
    coeffs = q.conj().T @ initial.amplitudes
    z = float(np.vdot(coeffs, coeffs).real)
    oracle = StateVector(12, (q @ coeffs) / np.sqrt(z))
    cuts = [Bipartition.contiguous(k) for k in range(1, 12)]
    reports = cooled_entropy_scan(spec, pairs, "ground", cuts)
    for cut, report in zip(cuts, reports):
        assert report.entropy == pytest.approx(block_entropy(oracle, cut), abs=1e-9)
        assert report.z == pytest.approx(z, abs=1e-12)


WHOLE_SPACE = ("pairs", "transverse")


@st.composite
def flip_cases(draw, kinds=("bonds", "chiral", "field")):
    """``(kind, op)``: an operator on 2 to 7 sites (odd n has no middle
    sector) of one of the ``kinds``.  Three conserve S^z: "bonds" sums
    XX + YY and ZZ bonds, real and flip-symmetric; "chiral" adds complex
    terms c (X_i Y_j Z_k - Y_i X_j Z_k), flip-symmetric too; "field" is a
    Heisenberg ring in a uniform Z field, which the flip does not leave
    alone.  Two are one whole-space block: "pairs" sums XX and ZZ bonds,
    flip-symmetric; "transverse" sums ZZ bonds, X fields and a Z field,
    which breaks the flip."""
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(3 if kind == "chiral" else 2, 7))

    def string(letters):
        s = ["I"] * n
        for site, letter in letters.items():
            s[site] = letter
        return "".join(s)

    if kind == "field":
        field = draw(nonzero_coefficients)
        terms = heisenberg_ring(n, draw(coefficients)).terms
        return kind, PauliOperator(n, terms + tuple((field, string({i: "Z"})) for i in range(n)))
    terms = []
    pairs = list(itertools.combinations(range(n), 2))
    for i, j in draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=6)):
        jxy, jz = draw(nonzero_coefficients if kind == "pairs" else coefficients), draw(coefficients)
        letters = "Z" if kind == "transverse" else "XZ" if kind == "pairs" else "XYZ"
        terms += [(jz if p == "Z" else jxy, string({i: p, j: p})) for p in letters]
    if kind == "transverse":
        sites = st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True)
        terms += [(draw(nonzero_coefficients), string({i: "X"})) for i in draw(sites)]
        terms.append((draw(nonzero_coefficients), string({draw(st.integers(0, n - 1)): "Z"})))
    if kind == "chiral":
        # i < j and distinct triples, so that no two chiral terms cancel
        triples = [(i, j, k) for i, j in pairs for k in range(n) if k not in (i, j)]
        chosen = st.lists(st.sampled_from(triples), min_size=1, max_size=4, unique=True)
        for i, j, k in draw(chosen):
            c = draw(nonzero_coefficients)
            terms += [(c, string({i: "X", j: "Y", k: "Z"})), (-c, string({i: "Y", j: "X", k: "Z"}))]
    return kind, PauliOperator(n, tuple(terms))


def check_cool_against_the_sector_oracle(kind, op, seed, data):
    """The oracle diagonalizes every popcount sector (or the whole space)
    with one plain eigh, vectors and all.  The threshold falls in a drawn
    gap of its spectrum, so the kept states reach into the mirror sectors
    and either flip half, and cool asks ``diagonalize`` for the vectors
    of the blocks that keep a level."""
    assume(op.terms)
    n = op.num_sites
    whole = kind in WHOLE_SPACE
    oracle = sector_eigh(op)
    assert len(oracle) == (1 if whole else n + 1)
    vals = np.sort(np.concatenate([values for _, values, _ in oracle]))
    blocks = diagonalize(op)
    assert len(blocks) == (1 if whole else n + (1 if kind == "field" or n % 2 else 2))
    if not whole:
        assert len(blocks) == expected_block_count(op)
    assert np.iscomplexobj(blocks[0][2]()) == (kind == "chiral")
    np.testing.assert_allclose(spectrum(blocks), vals, rtol=0, atol=1e-10)

    gaps = np.flatnonzero(np.diff(vals) > 1e-6)
    assume(len(gaps))
    i = data.draw(st.sampled_from(gaps.tolist()))
    threshold = (vals[i] + vals[i + 1]) / 2
    initial = generic_product_state(n, seed)
    want = np.zeros(1 << n, complex)
    for basis, values, vectors in oracle:
        v = vectors[:, values <= threshold]
        want[basis] = v @ (v.conj().T @ initial.amplitudes[basis])
    norm = np.linalg.norm(want)
    assume(norm > 1e-6)
    got = cool(op, initial, threshold).state.amplitudes
    assert abs(np.vdot(want / norm, got)) ** 2 >= 1 - 1e-10


@given(flip_cases(), st.integers(0, 2**32 - 1), st.data())
def test_flip_split_matches_the_sector_oracle(case, seed, data):
    check_cool_against_the_sector_oracle(*case, seed, data)


@pytest.mark.parametrize("kind", WHOLE_SPACE)
@given(st.data())
def test_whole_space_cooling_matches_the_oracle(kind, data):
    case = data.draw(flip_cases((kind,)))
    check_cool_against_the_sector_oracle(*case, data.draw(st.integers(0, 2**32 - 1)), data)
