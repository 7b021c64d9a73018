import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from frustra import spin_core
from frustra.cli import main
from frustra.spin_core import (
    Bipartition,
    DegenerateCutError,
    PauliOperator,
    SizeLimitError,
    StateVector,
    ValidationError,
    block_entropy,
    build_dense,
    degeneracy_tol,
    diagonalize,
    manifolds,
    popcount,
    product_state,
    span_entropies,
    _entropy_bits,
)
import frustra.cooling
from frustra.cooling import cool
from frustra.models import (
    HeisenbergGasLR,
    IsingGasLR,
    MajumdarGhosh,
    build_model,
)

from reference import (
    basis_state,
    default_initial_state,
    eigenvectors,
    ground_manifold,
    mg_dimer_states,
    partial_trace,
    pauli_from_text,
    pauli_to_text,
    project_by_columns,
    span_blocks,
    spectrum,
    von_neumann_entropy,
)


def test_pauli_text_roundtrip():
    op = PauliOperator(4, ((-0.5, "ZIZI"), (1.25, "XXII")))
    parsed = pauli_from_text(pauli_to_text(op))
    assert parsed.terms == op.terms


def test_pauli_text_comments_and_unicode_minus():
    text = "# Hamiltonian terms\n−0.5 ZIZI  # wrap bond\n1.0 IIZZ\n"
    op = pauli_from_text(text)
    assert op.terms == ((1.0, "IIZZ"), (-0.5, "ZIZI"))


def test_pauli_merges_duplicates():
    op = PauliOperator(2, ((0.5, "ZZ"), (0.5, "ZZ"), (1.0, "XX"), (-1.0, "XX")))
    assert op.terms == ((1.0, "ZZ"),)


@pytest.mark.parametrize("string,message", [("ZQ", "invalid Pauli string"),
                                            ("ZZZ", "does not match 2 sites")])
def test_pauli_refuses_a_bad_string_on_construction(string, message):
    # the kernels read the letters without checking them again
    with pytest.raises(ValidationError, match=message):
        PauliOperator(2, ((1.0, "ZZ"), (0.5, string)))


def test_build_dense_single_z():
    h = build_dense(PauliOperator(1, ((1.0, "Z"),)))
    np.testing.assert_allclose(h, np.diag([1.0, -1.0]))


def test_build_dense_zz():
    h = build_dense(PauliOperator(2, ((1.0, "ZZ"),)))
    np.testing.assert_allclose(h, np.diag([1.0, -1.0, -1.0, 1.0]))


def test_build_dense_matches_classical_ising_gas():
    # (J/2m)S^2 evaluated on bitstrings, constant included by hand
    m = 2
    h = build_dense(build_model(IsingGasLR(m, 0.0)))
    diag = np.real(np.diag(h))
    for b in range(16):
        s = sum(1 - 2 * ((b >> i) & 1) for i in range(4))
        # builder drops the constant (J/2m)*2m = 1
        assert diag[b] == pytest.approx(s * s / (2 * m) - 1.0)


def test_build_dense_hermitian_with_y():
    h = build_dense(PauliOperator(2, ((1.0, "XY"), (0.5, "YY"))))
    np.testing.assert_allclose(h, h.conj().T, atol=1e-12)


def test_build_dense_size_limit():
    op = PauliOperator(15, ((1.0, "Z" + "I" * 14),))
    with pytest.raises(SizeLimitError):
        build_dense(op)


@pytest.fixture
def forbid(monkeypatch):
    """Replace named ``spin_core`` functions by stubs that record their
    calls and raise, so that a missing budget check fails at once instead
    of allocating gigabytes or waiting on ``eigh``."""
    calls = []

    def install(*names):
        for name in names:
            def stub(*args, name=name, **kwargs):
                calls.append(name)
                raise AssertionError(f"{name} called")

            monkeypatch.setattr(spin_core, name, stub)
        return calls

    return install


def _pair_chain(n, pair):
    """Open chain of ``pair`` couplings (e.g. "XX") on neighbouring sites."""
    return PauliOperator(
        n, tuple((1.0, "I" * i + pair + "I" * (n - 2 - i)) for i in range(n - 1))
    )


@pytest.mark.parametrize("pair", ["XX", "XY"])
def test_diagonalize_refuses_n14_whole_space_before_building(forbid, pair):
    # XX and XY couple |00> to |11>, so there is one 2^14 block: 2 GiB of
    # eigenvectors (4 GiB complex) plus the block itself
    op = _pair_chain(14, pair)
    assert op.is_real() == (pair == "XX")
    calls = forbid("_scatter_block")
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError, match="GiB"):
            diagonalize(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == []
    assert peak < 8 << 20


def test_diagonalize_refuses_n16_sectors_before_enumerating(forbid):
    # the gas commutes with the flip, and even the float64 eigenvectors of
    # its sectors p <= 8, sum_p C(16, p)^2 of them, need 2.86 GiB
    calls = forbid("_sector_triplets", "_scatter_block")
    with pytest.raises(SizeLimitError):
        diagonalize(build_model(HeisenbergGasLR(8)))
    assert calls == []


def test_flip_symmetric_first_check_counts_the_held_sectors(monkeypatch, forbid):
    # the 7-site Heisenberg chain commutes with the flip, so it holds the
    # vectors of sectors 0..3 only, C(14, 7) / 2 = 1716 elements, beside a
    # largest block of 35^2 = 1225: 23,528 bytes.  A first check on all
    # C(14, 7) = 3432 sector elements, 27,456 bytes, would refuse it
    chain = PauliOperator(7, tuple((1.0, "I" * i + pair + "I" * (5 - i))
                                   for i in range(6) for pair in ("XX", "YY", "ZZ")))
    want = spectrum(diagonalize(chain))
    monkeypatch.setattr(spin_core, "_DENSE_BYTES", 24_000)
    np.testing.assert_array_equal(spectrum(diagonalize(chain)), want)
    # a Z field breaks the flip: the first check counts every sector again
    # and refuses before anything is enumerated
    field = PauliOperator(7, chain.terms + ((0.5, "ZIIIIII"),))
    calls = forbid("_sector_triplets", "_scatter_block")
    with pytest.raises(SizeLimitError, match="2.56e-05 GiB"):
        diagonalize(field)
    assert calls == []


def test_diagonalize_counts_complex_items_at_16_bytes(forbid):
    # 2^26 complex eigenvector elements (1 GiB) plus the 1 GiB block; at
    # 8 bytes an item the two would just fit the budget
    op = _pair_chain(13, "XY")
    calls = forbid("_scatter_block")
    with pytest.raises(SizeLimitError):
        diagonalize(op)
    assert calls == []


def test_diagonalize_admits_n14_sector_blocks(forbid):
    # the MG ring at n=14 needs 0.32 GB of sector eigenvectors plus a
    # 3432 x 3432 block, so it passes both checks and reaches _scatter_block
    calls = forbid("_scatter_block")
    with pytest.raises(AssertionError, match="_scatter_block called"):
        diagonalize(build_model(MajumdarGhosh(7)))
    assert calls == ["_scatter_block"]


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sector_assembly_peak_stays_near_one_block():
    # n=14 Heisenberg gas: the triplets of sectors 0..7 (the gas commutes
    # with the flip, so the columns of popcount > 7 are never built) plus
    # the one block being filled, the 3432 x 3432 middle one at most
    # (89.9 MiB)
    op = build_model(HeisenbergGasLR(7))
    sizes = []

    def assemble():
        bases, triplets = spin_core._sector_triplets(op)
        assert len(triplets) == 8
        for basis in bases[:8]:
            sizes.append(spin_core._scatter_block(op, len(basis), triplets.pop(0)).nbytes)

    peak = _traced_peak(assemble)
    assert max(sizes) == 8 * 3432**2
    assert peak <= 1.5 * max(sizes)


def _triplet_bytes(op):
    return sum(a.nbytes for block in spin_core._sector_triplets(op)[1]
               for piece in block for a in piece)


def test_diagonalize_holds_one_block_at_a_time(monkeypatch):
    # with eigvalsh stubbed, the n=14 Heisenberg gas (flip-symmetric)
    # scatters sectors 0..7 only and holds no eigenvector.  It peaks in
    # the middle sector, which is scattered once per flip half: the 3432 x
    # 3432 block and one 1716 x 1716 half (112.3 MiB), beside the triplets
    # that the blocks keep for their vectors on request (7.1 MiB).  Every
    # other sector holds one block of at most 3003 x 3003 (68.8 MiB).
    def eigvalsh(h):
        return np.zeros(len(h))

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    monkeypatch.setattr(np.linalg, "eigh", lambda h: pytest.fail("eigh"))
    op = build_model(HeisenbergGasLR(7))
    floor = 1.25 * 8 * math.comb(14, 7) ** 2 + _triplet_bytes(op)
    peak = _traced_peak(lambda: diagonalize(op))
    assert floor <= peak <= 1.02 * floor


def test_flip_split_holds_one_scattered_block_beside_the_kept_vectors(monkeypatch):
    # the n=12 MG ring commutes with the global spin flip.  diagonalize
    # holds the triplets of sectors 0..6 (0.5 MiB) and no eigenvector; at
    # no time is more than a 924 x 924 block (6.5 MiB) and one of its
    # halves alive beside them.  Asked for every block's vectors, sectors
    # 7..12 share those of sectors 5..0 on reversed bases, and the middle
    # sector's two halves hold 924 x 462 vectors each: the vectors of
    # sectors 0..6 (13.6 MiB) with at most one scattered block beside
    # them, from one eigh per block of the sectors p <= 6.
    eigh = np.linalg.eigh
    calls = []
    monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(len(h)) or eigh(h))
    op = build_model(MajumdarGhosh(6))
    sizes = [8 * math.comb(12, k) ** 2 for k in range(13)]
    kept = sum(sizes[:7])
    tracemalloc.start()
    try:
        blocks = diagonalize(op)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert calls == []
    assert held <= _triplet_bytes(op) + (1 << 20)
    # the scatter casts a block's int32 positions to intp (0.2 MiB)
    assert peak <= held + 1.25 * max(sizes) + (1 << 19)
    assert len(blocks) == 14
    tracemalloc.start()
    try:
        vectors = [block[2]() for block in blocks]
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert calls == [math.comb(12, p) for p in range(6)] + [462, 462]
    for p in range(6):
        assert vectors[14 - 1 - p] is vectors[p]
        # row i of a mirror's contiguous vectors is the flip of its
        # partner's basis state i
        assert vectors[p].flags.c_contiguous
        np.testing.assert_array_equal(blocks[14 - 1 - p][0], 4095 - blocks[p][0])
    assert kept <= held <= kept + (1 << 20)
    assert peak <= kept + max(sizes)
    # the vectors are computed once
    assert blocks[13][2]() is vectors[0] and len(calls) == 8


def test_cli_cool_past_budget_exits_2(forbid, capsys):
    forbid("_sector_triplets", "_scatter_block")
    # above the ground, where the gas takes the dense spectrum
    code = main(["cool", "--model", "heisenberg-gas", "--n", "16", "--k", "2", "--threshold", "0"])
    assert code == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert captured.out == ""


def test_cool_under_the_top_level_fits_the_sector_budget(monkeypatch):
    # the n=8 MG ring's sector eigenvectors plus its largest block need
    # 142 kB; all 256 of its columns embedded in the full space would need
    # 512 kB, but the projection works on the sector blocks in place, so a
    # threshold under the top manifold, which keeps all but its 9
    # columns, fits the 300 kB budget
    h = build_model(MajumdarGhosh(4))
    initial = default_initial_state(MajumdarGhosh(4))
    energies = spectrum(diagonalize(h))
    top, kept, _ = manifolds(energies, degeneracy_tol(energies))[-1]
    threshold = (energies[kept - 1] + top) / 2
    _, psi, z, dims = project_by_columns(h, initial, threshold)
    monkeypatch.setattr(spin_core, "_DENSE_BYTES", 300_000)
    assert cool(h, initial).num_retained == 2
    cooled = cool(h, initial, threshold)
    assert cooled.num_retained == kept == 247
    np.testing.assert_allclose(cooled.manifold_dims, dims, rtol=0, atol=1e-12)
    assert cooled.z == pytest.approx(z, abs=1e-12) and z < 1 - 1e-6
    assert abs(np.vdot(psi, cooled.state.amplitudes)) ** 2 / z == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("complex_amps", [False, True])
def test_complex_projection_copies_no_columns(monkeypatch, complex_amps):
    # the XY chain is complex and couples |00> to |11>, so it is one block;
    # a threshold under its top manifold keeps 992 of its 1024 columns
    # (16 MiB).  The spectrum and the block's vectors are
    # taken before tracing, so the trace holds the projection and the
    # phase fix
    h = _pair_chain(10, "XY")
    blocks = diagonalize(h)
    blocks[0][2]()
    monkeypatch.setattr(frustra.cooling, "diagonalize", lambda op: blocks)
    values = blocks[0][1]
    top, kept, _ = manifolds(values, degeneracy_tol(values))[-1]
    threshold = (values[kept - 1] + top) / 2
    pairs = [(1.0, 0.5j if complex_amps else 0.5)] * 10
    initial = product_state(pairs)
    tracemalloc.start()
    try:
        cooled = cool(h, initial, threshold)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert cooled.num_retained == kept == 992
    _, psi, z, _ = project_by_columns(h, initial, threshold)
    assert cooled.z == pytest.approx(z, abs=1e-12) and z < 1 - 1e-6
    assert abs(np.vdot(psi, cooled.state.amplitudes)) ** 2 / z == pytest.approx(1.0, abs=1e-12)


def test_diagonalize_single_site():
    np.testing.assert_allclose(spectrum(diagonalize(PauliOperator(1, ((1.0, "Z"),)))), [-1.0, 1.0])


def test_diagonalize_flip_symmetric_smallest_sizes():
    # an operator with no terms commutes with the flip; at n = 0 its one
    # state is its own mirror and has no flip halves
    blocks = diagonalize(PauliOperator(0, ()))
    assert len(blocks) == 1
    np.testing.assert_array_equal(spectrum(blocks), [0.0])
    # at n = 1 sector 1 mirrors sector 0
    blocks = diagonalize(PauliOperator(1, ((2.0, "I"),)))
    assert [basis.tolist() for basis, _, _ in blocks] == [[0], [1]]
    np.testing.assert_array_equal(spectrum(blocks), [2.0, 2.0])


def test_diagonalize_ferromagnetic_ground_manifold():
    g = ground_manifold(diagonalize(build_model(IsingGasLR(2, 0.0, "unfrustrated"))))
    assert g.shape[1] == 2
    # spanned by |0000> and |1111>
    weight = np.abs(g[0, :]) ** 2 + np.abs(g[15, :]) ** 2
    assert weight.sum() == pytest.approx(2.0, abs=1e-10)


def test_diagonalize_af_ground_manifold():
    energies = spectrum(diagonalize(build_model(IsingGasLR(2, 0.0))))
    _, start, stop = manifolds(energies, degeneracy_tol(energies))[0]
    assert stop - start == 6  # all 2-up/2-down bitstrings


def test_diagonalize_reconstruction():
    op = build_model(IsingGasLR(2, 0.5))
    h = build_dense(op)
    blocks = diagonalize(op)
    vecs, energies = eigenvectors(blocks), spectrum(blocks)
    for i in range(h.shape[0]):
        v = vecs[:, i]
        assert np.vdot(v, h @ v).real == pytest.approx(energies[i], abs=1e-9)


def test_partial_trace_product_state():
    rho = partial_trace(product_state([(1, 0), (0, 1)]), Bipartition((0,)))
    np.testing.assert_allclose(rho, [[1, 0], [0, 0]], atol=1e-12)


def test_partial_trace_singlet():
    singlet = StateVector(2, np.array([0, 1, -1, 0]) / np.sqrt(2))
    rho = partial_trace(singlet, Bipartition((0,)))
    np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_dicke_spectrum():
    # 4-site Dicke state with 2 up / 2 down, system = first two sites
    amps = np.zeros(16)
    for b in range(16):
        if bin(b).count("1") == 2:
            amps[b] = 1.0
    state = StateVector(4, amps / np.linalg.norm(amps))
    rho = partial_trace(state, Bipartition((0, 1)))
    spectrum = np.sort(np.linalg.eigvalsh(rho))
    np.testing.assert_allclose(spectrum[-3:], [1 / 6, 1 / 6, 2 / 3], atol=1e-10)
    assert von_neumann_entropy(rho) == pytest.approx(1.2516, abs=1e-4)


def test_partial_trace_rejects_degenerate_cut():
    st = product_state([(1, 0), (1, 0)])
    with pytest.raises(DegenerateCutError):
        partial_trace(st, Bipartition(()))
    with pytest.raises(DegenerateCutError):
        partial_trace(st, Bipartition((0, 1)))


def test_entropy_pure_and_maximally_mixed():
    assert von_neumann_entropy(np.array([[1.0, 0], [0, 0]])) == 0.0
    assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0)


def test_entropy_rejects_bad_trace():
    with pytest.raises(ValidationError):
        von_neumann_entropy(np.eye(2))


def test_product_state_examples():
    st = product_state([(1, 0)] * 3)
    assert st.amplitudes[0] == pytest.approx(1.0)
    uniform = product_state([(1, 1)] * 3)
    np.testing.assert_allclose(np.abs(uniform.amplitudes), 2 ** (-1.5), atol=1e-12)
    st = product_state([(0.6, 0.8)] * 2)
    assert abs(st.amplitudes[0]) == pytest.approx(0.36)
    assert abs(st.amplitudes[3]) == pytest.approx(0.64)


def test_product_state_rejects_zero_site():
    with pytest.raises(ValidationError):
        product_state([(1, 0), (0, 0)])


def test_schmidt_symmetry():
    rng = np.random.default_rng(3)
    amps = rng.normal(size=32) + 1j * rng.normal(size=32)
    st = StateVector(5, amps / np.linalg.norm(amps))
    e_sys = block_entropy(st, Bipartition((0, 2)))
    e_env = block_entropy(st, Bipartition((1, 3, 4)))
    assert e_sys == pytest.approx(e_env, abs=1e-9)


def test_entropy_invariant_under_site_relabeling():
    rng = np.random.default_rng(4)
    amps = rng.normal(size=16)
    st = StateVector(4, amps / np.linalg.norm(amps))
    assert block_entropy(st, Bipartition((0, 2))) == pytest.approx(
        block_entropy(st, Bipartition((2, 0))), abs=1e-12
    )


def test_product_state_has_zero_entropy():
    st = product_state([(0.3, 0.7), (1, 2), (0.5, -0.1)])
    assert block_entropy(st, Bipartition((1,))) <= 1e-10


def test_pure_cut_entropy_is_positive_zero():
    # a negated zero sum is -0.0, which CSV payloads print as "-0"
    e = block_entropy(product_state([(1, 0), (0, 1), (1, 0)]), Bipartition((1,)))
    assert e == 0.0 and math.copysign(1.0, e) == 1.0
    rows = _entropy_bits(np.array([[1.0, 0.0], [0.5, 0.5]]), axis=-1)
    assert rows.tolist() == [0.0, 1.0] and math.copysign(1.0, rows[0]) == 1.0
    assert math.copysign(1.0, _entropy_bits(np.array([0.0, 1.0]))) == 1.0


def test_basis_state():
    st = basis_state(3, 5)
    assert st.amplitudes[5] == 1.0
    assert st.norm == pytest.approx(1.0)


def test_popcount_matches_bin_count():
    idx = np.random.default_rng(7).integers(0, 1 << 40, size=2000)
    want = [bin(int(x)).count("1") for x in idx]
    assert popcount(idx).tolist() == want


@st.composite
def iz_operators(draw):
    n = draw(st.integers(1, 8))
    strings = st.text(alphabet="IZ", min_size=n, max_size=n)
    coefficients = st.floats(-3, 3, allow_subnormal=False)
    return PauliOperator(n, tuple(draw(st.lists(st.tuples(coefficients, strings), max_size=8))))


@given(iz_operators())
def test_diagonal_equals_dense_diagonal(op):
    assert np.array_equal(op.diagonal(), np.diag(build_dense(op)))


def reference_z_energies(op):
    """sum_t c_t prod_{i in Z sites of t} z_i(b), one term and one site at
    a time, with z_i(b) = +1 or -1 read off bit i of b."""
    b = np.arange(1 << op.num_sites)
    out = np.zeros(len(b))
    for c, string in op.terms:
        sign = np.ones(len(b))
        for i, ch in enumerate(string):
            if ch == "Z":
                sign *= np.where((b >> i) & 1, -1.0, 1.0)
        out += c * sign
    return out


@st.composite
def z_operators(draw):
    """I/Z operators on 1-12 sites; each term's Z sites are any subset,
    from none (the identity) to all of them."""
    n = draw(st.integers(1, 12))
    supports = st.sets(st.integers(0, n - 1))
    coefficients = st.floats(-3, 3, allow_subnormal=False)
    terms = draw(st.lists(st.tuples(coefficients, supports), max_size=12))
    return PauliOperator(
        n,
        tuple(
            (c, "".join("Z" if i in sup else "I" for i in range(n)))
            for c, sup in terms
        ),
    )


@given(z_operators())
@example(PauliOperator(5, ()))
@example(PauliOperator(1, ((2.0, "I"), (-0.5, "Z"))))
@example(PauliOperator(7, ((1.0, "ZZZIIIZ"), (0.5, "IIIZZZZ"), (0.25, "IIIIIII"))))
@example(build_model(IsingGasLR(5, 0.4)))
def test_diagonal_matches_per_term_reference(op):
    scale = max(1.0, sum(abs(c) for c, _ in op.terms))
    np.testing.assert_allclose(
        op.diagonal(), reference_z_energies(op), rtol=0, atol=1e-12 * scale
    )


def reference_manifolds(vals, tol):
    """Start-anchored grouping, one eigenvalue at a time."""
    out = []
    start = 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or vals[i] - vals[start] > tol:
            out.append((float(vals[start]), start, i))
            start = i
    return out


@st.composite
def sorted_energies(draw):
    """Ascending energies whose gaps sit on, just inside and just outside
    the tolerance, so the grouping is decided by rounding."""
    tol = draw(st.sampled_from([1e-9, 1e-6, 0.25]))
    gaps = st.sampled_from([0.0, 0.4, 1 - 1e-12, 1.0, 1 + 1e-12, 3.0])
    steps = draw(st.lists(gaps, max_size=30))
    first = draw(st.floats(-50, 50))
    return np.sort(first + tol * np.cumsum([0.0] + steps)), tol


@given(sorted_energies())
def test_manifolds_match_reference_loop(case):
    energies, tol = case
    assert manifolds(energies, tol) == reference_manifolds(energies, tol)


def _normalized_mg_coords(states, coords):
    """``coords`` divided row by row by the norm of their dimer state."""
    amps = coords @ np.stack([st.amplitudes for st in states])
    return coords / np.linalg.norm(amps, axis=1)[:, None]


@pytest.mark.parametrize("m", range(2, 7))
def test_span_block_entropies_equal_per_state_block_entropy(m):
    n = 2 * m
    states = mg_dimer_states(m)
    x = np.random.default_rng(m).normal(size=(20, 2, 2))
    # G+ and G- themselves, their real sum and difference, then random rows
    coords = np.vstack([[[1, 0], [0, 1], [1, 1], [1, -1]], x[:, 0] + 1j * x[:, 1]])
    coords = _normalized_mg_coords(states, coords)
    basis = np.stack([st.amplitudes for st in states])
    amps = coords @ basis
    for offset in (0, 1):
        for k in range(1, n):
            cut = Bipartition.contiguous(k, offset, n)
            expected = [block_entropy(StateVector(n, a), cut) for a in amps]
            blocks, overlap = span_blocks(states, cut)
            # the reduced traces are the Gram matrix of the states
            np.testing.assert_allclose(np.trace(blocks, axis1=2, axis2=3).T, overlap,
                                       rtol=0, atol=1e-14)
            np.testing.assert_allclose(overlap, basis @ basis.T, rtol=0, atol=1e-14)
            got = span_entropies(blocks, coords)
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


@given(seed=st.integers(0, 2**32 - 1), log_size=st.floats(-6.0, 6.0),
       phase=st.floats(0.0, 2 * math.pi))
def test_span_block_entropies_do_not_depend_on_the_row_norm(seed, log_size, phase):
    # each row is normalized against its own reduced trace, so a row
    # scaled by any nonzero complex factor gives the same entropies
    states = mg_dimer_states(3)
    x = np.random.default_rng(seed).normal(size=(4, 2, 2))
    coords = np.vstack([[[1, 0], [0, 1], [1, 1], [1, -1]], x[:, 0] + 1j * x[:, 1]])
    factors = 10.0 ** (log_size * np.linspace(-1, 1, len(coords))) * np.exp(1j * phase)
    for k in (1, 2, 3):
        blocks, _ = span_blocks(states, Bipartition.contiguous(k))
        np.testing.assert_allclose(span_entropies(blocks, coords * factors[:, None]),
                                   span_entropies(blocks, _normalized_mg_coords(states, coords)),
                                   rtol=0, atol=1e-12)


def test_span_block_entropies_refuse_a_zero_row():
    states = mg_dimer_states(3)
    blocks, _ = span_blocks(states, Bipartition.contiguous(2))
    with pytest.raises(ValidationError, match="cannot normalize a zero state"):
        span_entropies(blocks, np.array([[1.0, 2.0], [0.0, 0.0], [0.0, 1.0]]))
