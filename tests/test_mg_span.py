"""The Majumdar-Ghosh span kernel on transfer matrices and the search over
span directions, against the dense span route, the product-state search
and ED cooling."""
import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import frustra.cooling
from frustra.cooling import cool, maximize_cooled_entropy
from frustra.models import MajumdarGhosh, build_model, mg_span_blocks
from frustra.spin_core import (
    Bipartition,
    SizeLimitError,
    ValidationError,
    block_entropy,
    diagonalize,
    product_state,
    span_entropies,
)

from reference import mg_dimer_states, mg_witness, product_search, span_blocks


@functools.lru_cache(maxsize=None)
def _dense_setups(m):
    """``span_blocks`` on the 2^n coverings, for every cut [0, k)."""
    states = mg_dimer_states(m)
    return [span_blocks(states, Bipartition.contiguous(k)) for k in range(1, 2 * m)]


def _overlap(blocks):
    """S[a, b] = tr K[b, a], the overlap of the span states."""
    return np.trace(blocks, axis1=2, axis2=3).T


def _spectra(blocks, coords):
    """The reduced spectra of the rows of ``coords``, ascending, padded
    with zeros to 8 weights."""
    p = np.linalg.eigvalsh(np.einsum("sa,sb,abij->sij", coords, coords.conj(), blocks))
    return np.sort(np.pad(p, ((0, 0), (8 - p.shape[1], 0))), axis=1)


_COORDS = st.builds(
    lambda seed, rows: np.random.default_rng(seed).normal(size=(rows, 2, 2)),
    st.integers(0, 2**32 - 1), st.integers(1, 4),
).map(lambda x: x[:, 0] + 1j * x[:, 1])


@pytest.mark.parametrize("m", range(2, 9))
@given(coords=_COORDS)
@example(coords=np.array([[1, 0], [0, 1], [1, 1], [1, -1]], complex))
def test_transfer_kernel_matches_the_dense_span_blocks(m, coords):
    # every contiguous cut of the ring up to n = 16: block traces equal to
    # the Gram matrix of the 2^n coverings and, for every drawn span state,
    # the same reduced spectrum and entropy
    n = 2 * m
    setups = mg_span_blocks(MajumdarGhosh(m), range(1, n))
    assert len(setups) == n - 1
    for k, blocks, (dense, gram) in zip(range(1, n), setups, _dense_setups(m)):
        np.testing.assert_allclose(_overlap(blocks), gram, rtol=0, atol=1e-12)
        c = coords / np.sqrt(np.einsum("sa,ab,sb->s", coords.conj(), gram, coords).real)[:, None]
        np.testing.assert_allclose(_spectra(blocks, c), _spectra(dense, c), rtol=0, atol=1e-12)
        np.testing.assert_allclose(span_entropies(blocks, coords), span_entropies(dense, coords),
                                   rtol=0, atol=1e-12)
        # the rank of the sites before the cut: 2 at k = 1, 4 at k = 2 (G+'s
        # vector is in G-'s span) and at odd k, 5 at even k >= 4
        r = 2 if k == 1 else 5 if k % 2 == 0 and k >= 4 else 4
        assert blocks.shape == (2, 2, r, r)


def test_transfer_kernel_takes_cuts_in_any_order_and_at_any_size():
    # a cut's blocks do not depend on the other cuts asked for, and a ring
    # far past any 2^n vector takes a few powers of one 16 x 16 matrix
    spec = MajumdarGhosh(5)
    alone = [mg_span_blocks(spec, [k])[0] for k in range(1, 10)]
    for blocks, one in zip(mg_span_blocks(spec, range(9, 0, -1)), alone[::-1]):
        np.testing.assert_allclose(blocks, one, rtol=0, atol=1e-14)
    # <G+|G-> = 2 (-1/2)^m on the 2m-ring; at m = 10^9 it underflows to 0
    [blocks] = mg_span_blocks(MajumdarGhosh(5), [3])
    np.testing.assert_allclose(_overlap(blocks), [[1, -1 / 16], [-1 / 16, 1]],
                               rtol=0, atol=1e-15)
    [blocks] = mg_span_blocks(MajumdarGhosh(10**9), [1000])
    assert blocks.shape == (2, 2, 5, 5)
    np.testing.assert_allclose(_overlap(blocks), np.eye(2), rtol=0, atol=1e-14)


@pytest.mark.parametrize("ks", [[0], [8], [3, -1]])
def test_transfer_kernel_refuses_a_cut_outside_the_ring(ks):
    with pytest.raises(ValidationError, match="invalid for 8 sites"):
        mg_span_blocks(MajumdarGhosh(4), ks)


def test_transfer_kernel_counts_its_cuts_against_the_dense_budget():
    with pytest.raises(SizeLimitError, match="dense work needs 4.77 GiB"):
        mg_span_blocks(MajumdarGhosh(500_000), range(1, 1_000_000))


@pytest.mark.parametrize("seed", [5, 7, 11])
@pytest.mark.parametrize("m", range(2, 7))
def test_direction_search_matches_the_product_search(m, seed):
    # every cut up to n = 12: the search over real span directions is never
    # below the Nelder-Mead search over complex product states (beyond
    # rounding) and equals it
    ks = range(1, 2 * m)
    found = maximize_cooled_entropy(MajumdarGhosh(m), ks)
    searched = product_search(m, [Bipartition.contiguous(k) for k in ks], seed=seed)
    for k, (e, _), (product, _) in zip(ks, found, searched):
        assert e >= product - 1e-12, k
        assert e == pytest.approx(product, abs=1e-10), k


@pytest.mark.parametrize("m", [3, 4, 6, 8])
def test_complex_directions_never_beat_the_real_maximum(m):
    # a 41 x 80 grid over the span's sphere c = (cos theta/2, e^{i phi}
    # sin theta/2): no point is above the real maximum, and the grid comes
    # within its resolution of it
    spec = MajumdarGhosh(m)
    ks = range(1, 2 * m)
    theta = np.linspace(0.0, np.pi, 41)[:, None]
    phi = np.linspace(0.0, 2 * np.pi, 80, endpoint=False)
    coords = np.stack(np.broadcast_arrays(np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)),
                      axis=-1).reshape(-1, 2)
    for blocks, (e, _) in zip(mg_span_blocks(spec, ks), maximize_cooled_entropy(spec, ks)):
        grid = span_entropies(blocks, coords)
        assert grid.max() <= e + 1e-12
        assert grid.max() >= e - 0.02


_cached_diagonalize = functools.lru_cache(maxsize=None)(diagonalize)


@pytest.mark.parametrize("m", range(2, 7))
def test_witness_cools_to_the_reported_direction_and_entropy(m):
    # every cut up to n = 12: the real product state of the witness
    # construction, cooled by sector ED, lies along the returned direction
    # and has the entropy
    spec = MajumdarGhosh(m)
    h = build_model(spec)
    coverings = np.stack([g.amplitudes for g in mg_dimer_states(m)], axis=1)
    ks = range(1, 2 * m)
    for k, (e, direction) in zip(ks, maximize_cooled_entropy(spec, ks)):
        local = mg_witness(m, direction)
        assert local.shape == (2 * m, 2) and local.dtype == float
        assert np.linalg.norm(direction) == pytest.approx(1.0, abs=1e-15)
        assert direction[1] >= 0.0  # t in [0, pi): c and -c are one state
        with mock.patch.object(frustra.cooling, "diagonalize", _cached_diagonalize):
            cooled = cool(h, product_state(local)).state
        c = np.linalg.lstsq(coverings, cooled.amplitudes, rcond=None)[0]
        assert abs(c[0] * direction[1] - c[1] * direction[0]) <= 1e-10 * np.linalg.norm(c)
        assert block_entropy(cooled, Bipartition.contiguous(k)) == pytest.approx(e, abs=1e-10)
