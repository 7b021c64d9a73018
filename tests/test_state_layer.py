"""Differential and property tests of the state layer: the Schmidt split,
block entropy, product states and the dtype rule (real amplitudes are
held as float64, complex ones as complex128).

The references are the direct forms: a Schmidt matrix filled one basis
index at a time, entropies from a full SVD or from the whole reduced
density matrix, product states by np.kron.
"""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from frustra.closed_forms import single_bond_block_entropy, single_bond_cooled_state
from frustra.models import dimer_product_state
from frustra.spin_core import (
    Bipartition,
    SizeLimitError,
    StateVector,
    ValidationError,
    block_entropy,
    popcount,
    product_state,
    schmidt_matrix,
)

from reference import partial_trace, scan_block_entropy, von_neumann_entropy


def reference_schmidt(state, sites):
    """Row bit j is sites[j]; column bits are the other sites, ascending."""
    n = state.num_sites
    env = [s for s in range(n) if s not in sites]
    a = np.zeros((1 << len(sites), 1 << len(env)), dtype=complex)
    for b in range(1 << n):
        row = sum(((b >> s) & 1) << j for j, s in enumerate(sites))
        col = sum(((b >> s) & 1) << j for j, s in enumerate(env))
        a[row, col] = state.amplitudes[b]
    return a


def reference_entropy(state, sites):
    p = np.linalg.svd(reference_schmidt(state, sites), compute_uv=False) ** 2
    p = p[p > 0]
    return max(float(-np.sum(p * np.log2(p))), 0.0)


def reference_product(per_site):
    psi = np.ones(1, dtype=complex)
    for pair in per_site:
        v = np.asarray(pair, dtype=complex)
        psi = np.kron(v / np.linalg.norm(v), psi)
    return psi


@st.composite
def states_and_cuts(draw):
    """A random normalized state on 2..8 sites and an ordered cut whose
    sites are in arbitrary order and need not be contiguous."""
    n = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    order = draw(st.permutations(range(n)))
    k = draw(st.integers(1, n - 1))
    return StateVector(n, amps / np.linalg.norm(amps)), tuple(order[:k])


@given(states_and_cuts())
def test_schmidt_matrix_matches_index_loop(case):
    state, sites = case
    got = schmidt_matrix(state, Bipartition(sites))
    assert np.array_equal(got, reference_schmidt(state, sites))


@given(states_and_cuts())
def test_block_entropy_matches_svd(case):
    state, sites = case
    got = block_entropy(state, Bipartition(sites))
    assert got == pytest.approx(reference_entropy(state, sites), abs=1e-12)


@given(states_and_cuts(), st.randoms(use_true_random=False))
def test_entropy_of_complement_and_reordered_cut(case, random):
    state, sites = case
    e = block_entropy(state, Bipartition(sites))
    complement = [s for s in range(state.num_sites) if s not in sites]
    random.shuffle(complement)
    shuffled = random.sample(sites, len(sites))
    assert block_entropy(state, Bipartition(complement)) == pytest.approx(e, abs=1e-12)
    assert block_entropy(state, Bipartition(shuffled)) == pytest.approx(e, abs=1e-12)


site_pairs = st.tuples(
    st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
).filter(lambda v: math.hypot(abs(v[0]), abs(v[1])) > 1e-3)


@given(st.lists(site_pairs, min_size=1, max_size=8))
def test_product_state_matches_kron(per_site):
    got = product_state(per_site)
    np.testing.assert_allclose(got.amplitudes, reference_product(per_site), rtol=0, atol=1e-15)
    as_array = product_state(np.array(per_site, dtype=complex))
    np.testing.assert_allclose(as_array.amplitudes, got.amplitudes, rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "bad",
    [(0, 0), (1,), (1, 0, 0), (1, (0, 1)), "ab"],
    ids=["zero", "short", "long", "ragged", "text"],
)
def test_product_state_rejects_bad_site(bad):
    with pytest.raises(ValidationError, match="site 2"):
        product_state([(1, 0), (0, 1), bad, (1, 1)])


def _singlet_times_product(n, i, j):
    """Singlet on sites i, j; every other site in |0>."""
    amps = np.zeros(1 << n, dtype=complex)
    amps[1 << j] = 1 / math.sqrt(2)
    amps[1 << i] = -1 / math.sqrt(2)
    return StateVector(n, amps)


def _ghz(n):
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = amps[-1] = 1 / math.sqrt(2)
    return StateVector(n, amps)


@given(states_and_cuts(), st.data())
def test_known_states_have_whole_bit_entropies(case, data):
    state, sites = case
    n = state.num_sites
    cut = Bipartition(sites)
    rng = np.random.default_rng(n)
    product = product_state(rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2)))
    i, j = data.draw(st.permutations(range(n)))[:2]
    singlet = _singlet_times_product(n, i, j)
    assert block_entropy(product, cut) == pytest.approx(0.0, abs=1e-12)
    assert block_entropy(_ghz(n), cut) == pytest.approx(1.0, abs=1e-12)
    split = (i in sites) != (j in sites)
    assert block_entropy(singlet, cut) == pytest.approx(float(split), abs=1e-12)


@given(st.integers(0, 6), st.sampled_from(["bool", "int64", "float32", "float64",
                                          "complex64", "complex128"]), st.data())
def test_state_vector_dtype_follows_data(n, dtype, data):
    values = data.draw(st.lists(st.integers(-3, 3), min_size=1 << n, max_size=1 << n))
    amps = np.array(values).astype(dtype)
    state = StateVector(n, amps)
    complex_input = np.dtype(dtype).kind == "c"
    assert state.amplitudes.dtype == (np.complex128 if complex_input else np.float64)
    assert np.array_equal(state.amplitudes, amps)
    assert StateVector(n, values).amplitudes.dtype == np.float64
    assert StateVector(n, values[:-1] + [1j]).amplitudes.dtype == np.complex128


real_numbers = st.one_of(st.booleans(), st.integers(-5, 5), st.floats(-10, 10))
real_pairs = st.tuples(real_numbers, real_numbers).filter(
    lambda v: math.hypot(v[0], v[1]) > 1e-3
)


@given(st.lists(real_pairs, max_size=6), st.lists(site_pairs, min_size=1, max_size=4),
       st.randoms(use_true_random=False))
def test_product_state_dtype_follows_pairs(real, complex_pairs, random):
    got = product_state(real)
    assert got.amplitudes.dtype == np.float64
    np.testing.assert_allclose(got.amplitudes, reference_product(real), rtol=0, atol=1e-15)
    mixed = real + complex_pairs
    random.shuffle(mixed)
    got = product_state(mixed)
    # any complex pair makes every pair complex, with the reference's arithmetic
    assert got.amplitudes.dtype == np.complex128
    assert np.array_equal(got.amplitudes, reference_product(mixed))


@st.composite
def real_states_and_cuts(draw):
    """A real normalized state on 2..10 sites, some amplitudes zero, and a
    contiguous (wrapping) or arbitrary cut."""
    n = draw(st.integers(2, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.normal(size=1 << n)
    amps[rng.random(1 << n) < draw(st.sampled_from([0.0, 0.5, 0.9]))] = 0.0
    amps[rng.integers(1 << n)] = 1.0
    k = draw(st.integers(1, n - 1))
    if draw(st.booleans()):
        cut = Bipartition.contiguous(k, draw(st.integers(0, n - 1)), n)
    else:
        cut = Bipartition(tuple(draw(st.permutations(range(n)))[:k]))
    return StateVector(n, amps / np.linalg.norm(amps)), cut


@given(real_states_and_cuts())
def test_real_state_entropy_equals_complex_cast(case):
    state, cut = case
    assert state.amplitudes.dtype == np.float64
    as_complex = StateVector(state.num_sites, state.amplitudes.astype(complex))
    assert as_complex.amplitudes.dtype == np.complex128
    assert block_entropy(state, cut) == pytest.approx(block_entropy(as_complex, cut), abs=1e-12)


SUPPORTS = ("one sector", "two sectors, same parity", "any sectors", "holes", "sparse")


def _sector_state(n, support, sectors, seed, complex_amps, tiny=0.0):
    """A normalized state on ``n`` sites with random amplitudes on the basis
    states of the popcounts ``sectors`` (for the "holes" support, on about
    two thirds of them, among them the first), or, for the "sparse"
    support, on the basis indices ``sectors``; every other amplitude is an
    exact zero.
    ``tiny`` rescales the first nonzero amplitude, to give one row or
    column of the Schmidt matrix a small but nonzero weight."""
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n)
    if complex_amps:
        amps = amps + 1j * rng.normal(size=1 << n)
    idx = np.arange(1 << n)
    keep = np.isin(idx, sectors) if support == "sparse" else np.isin(popcount(idx), sectors)
    if support == "holes":
        keep &= (rng.random(1 << n) > 1 / 3) | (idx == np.flatnonzero(keep)[0])
    amps = np.where(keep, amps, 0.0)
    if tiny:
        first = np.flatnonzero(amps)[0]
        amps[first] *= tiny / abs(amps[first])
    return StateVector(n, amps / np.linalg.norm(amps))


@st.composite
def sector_states_and_cuts(draw):
    """A state on 2..10 sites supported on one total-S^z sector, on two
    sectors of the same parity, on any set of sectors, on about two thirds
    of the states of any set of sectors, or on a few basis states (so its
    Schmidt matrices have zero rows and columns); real or
    complex amplitudes; and a cut of k sites, 1 <= k < n (so either side
    of n/2), that is the plain reshape 0..k-1, a wrapping run, or any set
    of sites in any order."""
    n = draw(st.integers(2, 10))
    support = draw(st.sampled_from(SUPPORTS))
    if support == "one sector":
        sectors = [draw(st.integers(0, n))]
    elif support == "two sectors, same parity":
        low = draw(st.integers(0, n - 2))
        sectors = [low, low + 2]
    elif support in ("any sectors", "holes"):
        sectors = sorted(draw(st.sets(st.integers(0, n), min_size=1)))
    else:
        sectors = sorted(draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=6)))
    state = _sector_state(n, support, sectors, draw(st.integers(0, 2**32 - 1)),
                          draw(st.booleans()))
    k = draw(st.integers(1, n - 1))
    shape = draw(st.sampled_from(["0..k-1", "wrapping", "runs", "any"]))
    if shape == "0..k-1":
        cut = Bipartition.contiguous(k)
    elif shape == "wrapping":
        cut = Bipartition.contiguous(k, draw(st.integers(0, n - 1)), n)
    elif shape == "runs":
        # runs of consecutive sites in shuffled order, such as (5, 6, 0, 1)
        ring = Bipartition.contiguous(n, draw(st.integers(0, n - 1)), n).system_sites
        ends = sorted(draw(st.sets(st.integers(1, n - 1), max_size=3)))
        runs = draw(st.permutations([ring[a:b] for a, b in zip([0, *ends], [*ends, n])]))
        cut = Bipartition(sum(runs, ())[:k])
    else:
        cut = Bipartition(tuple(draw(st.permutations(range(n)))[:k]))
    return state, cut


@given(sector_states_and_cuts())
# the examples below hold each support kind with each amplitude type and
# cut shape, whatever the tier1 profile draws
@example((_sector_state(10, "one sector", [5], 1, False), Bipartition.contiguous(4)))
@example((_sector_state(9, "one sector", [2], 2, True), Bipartition((7, 0, 4, 2, 5, 8))))
@example((_sector_state(10, "two sectors, same parity", [3, 5], 3, False),
          Bipartition.contiguous(7, 6, 10)))
@example((_sector_state(8, "two sectors, same parity", [0, 2], 4, True), Bipartition((3,))))
@example((_sector_state(10, "any sectors", [1, 4, 5, 9], 5, False), Bipartition((9, 1, 3))))
@example((_sector_state(7, "any sectors", list(range(8)), 6, True), Bipartition.contiguous(3)))
# holes in every sector (696 of 1024 states: the zero lines are scanned
# for) and in two (205 states: they are read from the support)
@example((_sector_state(10, "holes", list(range(11)), 12, False),
          Bipartition((5, 6, 0, 1))))
@example((_sector_state(10, "holes", [2, 5], 13, True), Bipartition((9, 1, 3))))
@example((_sector_state(10, "sparse", [0, 3, 96, 513, 1023], 7, False),
          Bipartition.contiguous(5)))
@example((_sector_state(9, "sparse", [5, 130, 511], 8, True), Bipartition((8, 6, 0, 1, 2, 3))))
@example((_sector_state(10, "sparse", [3, 96, 513, 700, 1023], 11, False),
          Bipartition((7, 8, 9, 0, 1, 4, 5))))
# one Schmidt row or column of weight about 1e-8: it must be kept
@example((_sector_state(8, "one sector", [4], 9, False, tiny=1e-4), Bipartition.contiguous(3)))
@example((_sector_state(8, "sparse", [1, 6, 200], 10, True, tiny=1e-4),
          Bipartition.contiguous(4)))
def test_sector_split_entropy_matches_reduced_density_matrix(case):
    # and the former split, which scanned each block for its zero lines
    # where the library reads them from the support, one run of
    # consecutive sites at a time
    state, cut = case
    got = block_entropy(state, cut)
    assert got == pytest.approx(von_neumann_entropy(partial_trace(state, cut)), abs=1e-12)
    assert got == pytest.approx(scan_block_entropy(state, cut), abs=1e-14)


@pytest.fixture
def eigvalsh_sizes(monkeypatch):
    """The matrix size of every ``np.linalg.eigvalsh`` call."""
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def recording_eigvalsh(a, *args, **kwargs):
        sizes.append(np.shape(a)[-1])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
    return sizes


def test_dicke_state_splits_into_sector_blocks(eigvalsh_sizes):
    # the n=16 Dicke state with 8 ones: row popcount j meets only column
    # popcount 8 - j, so the 256 x 256 Gram splits into C(8, j) blocks
    n = 16
    state = _sector_state(n, "one sector", [8], 0, False)
    cut = Bipartition.contiguous(8)
    e = block_entropy(state, cut)
    assert max(eigvalsh_sizes) <= math.comb(8, 4) == 70
    assert sum(eigvalsh_sizes) == 256
    assert len(eigvalsh_sizes) == 9
    eigvalsh_sizes.clear()
    assert e == pytest.approx(von_neumann_entropy(partial_trace(state, cut)), abs=1e-12)


def test_zero_rows_and_columns_never_reach_the_gram(eigvalsh_sizes):
    # five basis states in four sectors: the blocks of popcounts 0, 2, 6
    # and 8 holds 58 rows and 58 columns, but the Schmidt matrix has only
    # five nonzero entries, so at most five rows may reach the Gram
    state = _sector_state(16, "sparse", [0, 3, 0x0F0F, 0x8001, 0xFFFF], 0, False)
    assert state.sectors == (0, 2, 8, 16)
    block_entropy(state, Bipartition.contiguous(8))
    assert sum(eigvalsh_sizes) <= 5


def test_sparse_state_cuts_read_the_support_not_the_amplitudes():
    # the n = 22 single-bond state has 44 nonzero amplitudes: every cut
    # takes its Schmidt lines from their indices, so it allocates less
    # than one byte per amplitude (a scan of each block for zero lines
    # peaked at 1.0 to 1.5 x 2^n bytes)
    n = 22
    state = single_bond_cooled_state(n // 2)
    for k in range(1, n):
        tracemalloc.start()
        try:
            e = block_entropy(state, Bipartition.contiguous(k))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << n, k
        assert e == pytest.approx(single_bond_block_entropy(n // 2, k), abs=1e-12)
    assert len(state.support) == 44


def test_state_sectors_are_computed_once():
    state = _sector_state(10, "two sectors, same parity", [4, 6], 0, True)
    assert state.sectors == (4, 6)
    assert state.sectors is state.sectors
    for k in range(1, 10):
        block_entropy(state, Bipartition.contiguous(k))
    assert vars(state)["sectors"] == (4, 6)


@pytest.mark.parametrize(
    "build",
    [lambda: product_state([(1.0, 0.0)] * 28),
     lambda: product_state([(1.0, 1j)] * 27),
     lambda: dimer_product_state(28, [(0, 1)])],
    ids=["real-product-28", "complex-product-27", "dimer-28"],
)
def test_oversized_states_are_refused_before_allocating(build):
    # 2 GiB of amplitudes, over the 1 GiB dense budget
    with pytest.raises(SizeLimitError, match="GiB"):
        build()
