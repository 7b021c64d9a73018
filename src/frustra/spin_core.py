"""Bit-encoded spin-1/2 states, Pauli-string operators, and entanglement entropy.

Conventions used throughout the package:

* Site ``i`` is bit ``i`` of the basis index, with site 0 the least
  significant bit.
* Bit value 0 encodes the local state ``|0>`` with sigma^z eigenvalue +1;
  bit value 1 encodes ``|1>`` with eigenvalue -1.
* Entropies are reported in bits (logarithms base 2).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import groupby
from math import comb

import numpy as np

# Bytes that dense work may hold: matrices and eigenvectors.  Fixed,
# so that an oversized operator is refused before the allocation rather
# than by the operating system during it.
_DENSE_BYTES = 1 << 30

_PAULI_LETTERS = frozenset("IXYZ")


class ValidationError(ValueError):
    """Raised when inputs violate a documented precondition."""


class SizeLimitError(ValidationError):
    """Raised before a dense operation whose arrays would exceed the dense
    memory budget (1 GiB)."""


class DegenerateCutError(ValidationError):
    """Raised when a bipartition has an empty system or environment side."""


class OrthogonalInitialStateError(ValidationError):
    """Raised when an initial state has no support below the cooling threshold."""


def popcount(idx: np.ndarray) -> np.ndarray:
    """Population count of each entry of a nonnegative integer array (as uint8)."""
    return np.bitwise_count(np.asarray(idx, dtype=np.int64))


@lru_cache(maxsize=None)
def _popcounts(bits: int) -> np.ndarray:
    """Popcount of every index below 2^bits, read-only, one uint8 each."""
    out = popcount(np.arange(1 << bits))
    out.setflags(write=False)
    return out


def _amplitude_array(values) -> np.ndarray:
    """``values`` as float64 when they are real (bool, int or float) and
    as complex128 when they are complex."""
    values = np.asarray(values)
    return values.astype(complex if values.dtype.kind == "c" else float, copy=False)


@dataclass(frozen=True)
class StateVector:
    """A pure state of ``num_sites`` spin-1/2 sites as a dense amplitude array.

    The dtype follows the data: real amplitudes (bool, int or float) are
    stored as float64 and complex ones as complex128, so a real state keeps
    its Schmidt spectra in real arithmetic.  Nothing writes to
    ``amplitudes`` in place, so ``norm``, ``support`` and ``sectors`` are
    computed once per state.
    """

    num_sites: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _amplitude_array(self.amplitudes)
        if amps.shape != (1 << self.num_sites,):
            raise ValidationError(
                f"amplitude array must have length 2^{self.num_sites}, "
                f"got {amps.shape}"
            )
        object.__setattr__(self, "amplitudes", amps)

    @cached_property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    @cached_property
    def support(self) -> np.ndarray:
        """The ascending basis indices of the nonzero amplitudes, read-only,
        found in one pass."""
        out = np.flatnonzero(self.amplitudes)
        out.setflags(write=False)
        return out

    @cached_property
    def sectors(self) -> tuple:
        """The popcounts (numbers of 1 bits) of the ``support``, ascending:
        the total-S^z sectors the state touches."""
        pops = np.bincount(popcount(self.support), minlength=self.num_sites + 1)
        return tuple(np.flatnonzero(pops).tolist())

    def is_normalized(self, tol: float = 1e-12) -> bool:
        return abs(self.norm**2 - 1.0) <= tol


@dataclass(frozen=True)
class Bipartition:
    """The ordered set of site indices forming the 'system' side of a cut."""

    system_sites: tuple

    def __post_init__(self):
        sites = tuple(int(s) for s in self.system_sites)
        if len(set(sites)) != len(sites):
            raise ValidationError("system sites must be distinct")
        object.__setattr__(self, "system_sites", sites)

    def validate(self, num_sites: int) -> None:
        if not self.system_sites or len(self.system_sites) >= num_sites:
            raise DegenerateCutError(
                "system side must be a proper nonempty subset of the sites"
            )
        for s in self.system_sites:
            if s < 0 or s >= num_sites:
                raise ValidationError(f"site index {s} out of range")

    @staticmethod
    def contiguous(k: int, offset: int = 0, num_sites: int | None = None) -> "Bipartition":
        """First ``k`` sites starting at ``offset`` (wrapping if num_sites given)."""
        if num_sites is None:
            return Bipartition(tuple(range(offset, offset + k)))
        return Bipartition(tuple((offset + i) % num_sites for i in range(k)))


def _term_masks(string: str):
    mx = my = mz = 0
    for i, ch in enumerate(string):
        if ch == "X":
            mx |= 1 << i
        elif ch == "Y":
            my |= 1 << i
        elif ch == "Z":
            mz |= 1 << i
        elif ch != "I":
            raise ValidationError(f"invalid Pauli letter {ch!r}")
    return mx, my, mz


def _z_energies(n: int, terms) -> np.ndarray:
    """sum_t w_t (-1)^popcount(b & m_t) for every b < 2^n, from the real
    ``(w_t, m_t)`` pairs of ``terms``.

    With b = (b_hi, b_lo) split into its high n - n//2 and low n//2 bits,
    each sign factors as s(b_hi & m_hi) s(b_lo & m_lo).  So the energies,
    as a 2^(n - n//2) x 2^(n//2) array, are S_hi @ C @ S_lo^T: S_hi and
    S_lo are the sign tables of the distinct high and low sub-masks, and
    C sums the weights of the terms with each pair of sub-masks.
    """
    lo_bits = n // 2
    weights = np.array([w for w, _ in terms], dtype=float)
    masks = np.array([m for _, m in terms], dtype=np.int64)
    hi, hi_of = np.unique(masks >> lo_bits, return_inverse=True)
    lo, lo_of = np.unique(masks & ((1 << lo_bits) - 1), return_inverse=True)
    c = np.zeros((len(hi), len(lo)))
    np.add.at(c, (hi_of, lo_of), weights)

    def signs(bits, sub_masks):
        b = np.arange(1 << bits)[:, None]
        return 1.0 - 2.0 * (popcount(b & sub_masks) & 1)

    return ((signs(n - lo_bits, hi) @ c) @ signs(lo_bits, lo).T).ravel()


def _dtype(op: PauliOperator) -> np.dtype:
    return np.dtype(float if op.is_real() else complex)


def _triplets(op: "PauliOperator"):
    """Yield ``(rows, cols, values)`` per flip mask: the exactly nonzero
    ``values[j] = <rows[j]| op |cols[j]>``, int32 columns ascending.  The
    one Pauli-action kernel of ``build_dense`` and ``diagonalize``.

    A Pauli string with masks (mx, my, mz) maps |b> to
    i^#Y (-1)^popcount(b & (my | mz)) |b ^ (mx | my)>.  Terms that flip the
    same bits reach the same matrix elements, so each flip mask yields one
    array summed over its terms.  The flip-0 (I/Z) terms have real weights;
    their array is the ``_z_energies`` kernel.  Every other flip sums its
    terms over all 2^n columns in term order, in float64 unless some term
    has an odd number of Y letters.
    """
    dtype = _dtype(op)
    idx = np.arange(1 << op.num_sites)
    groups: dict[int, list] = {0: []}  # a flip-0 triplet even with no terms
    for coeff, string in op.terms:
        mx, my, mz = _term_masks(string)
        ny = bin(my).count("1")
        weight = coeff * (-1.0) ** (ny // 2) * (1j if ny % 2 else 1.0)
        groups.setdefault(mx | my, []).append((weight, my | mz))
    for flip, group in groups.items():
        if flip == 0:
            values = _z_energies(op.num_sites, group)
        else:
            values = np.zeros(len(idx), dtype)
            for weight, mask in group:
                values += weight * (1.0 - 2.0 * (popcount(idx & mask) & 1))
        cols = np.flatnonzero(values).astype(np.int32)
        yield cols ^ flip, cols, values[cols]


@dataclass(frozen=True)
class PauliOperator:
    """A Hermitian operator given as a real-weighted sum of Pauli strings.

    The per-site letter string reads left to right as site 0, 1, ...; for
    example ``"ZIZ"`` couples sites 0 and 2 of a 3-site system.  Terms are
    canonicalized on construction: duplicate strings merge by coefficient
    addition and exact zeros are dropped.
    """

    num_sites: int
    terms: tuple = field(default_factory=tuple)

    def __post_init__(self):
        merged: dict[str, float] = {}
        for coeff, string in self.terms:
            coeff = float(coeff)
            if len(string) != self.num_sites:
                raise ValidationError(
                    f"term string {string!r} does not match {self.num_sites} sites"
                )
            if not set(string) <= _PAULI_LETTERS:
                raise ValidationError(f"invalid Pauli string {string!r}")
            merged[string] = merged.get(string, 0.0) + coeff
        canon = tuple(
            (c, s) for s, c in sorted(merged.items()) if c != 0.0
        )
        object.__setattr__(self, "terms", canon)

    def is_diagonal(self) -> bool:
        """True when every term contains only I and Z letters."""
        return all(set(s) <= {"I", "Z"} for _, s in self.terms)

    def is_real(self) -> bool:
        """True when every term has an even number of Y letters, so that
        every matrix element is real."""
        return all(s.count("Y") % 2 == 0 for _, s in self.terms)

    def diagonal(self) -> np.ndarray:
        """Diagonal energies E(b) for an I/Z-only operator: the
        ``_z_energies`` kernel that gives the flip-0 triplet of
        ``_triplets``."""
        if not self.is_diagonal():
            raise ValidationError("operator has off-diagonal terms")
        return _z_energies(self.num_sites, [(c, _term_masks(s)[2]) for c, s in self.terms])


def degeneracy_tol(energies: np.ndarray) -> float:
    """Energies closer than this belong to one manifold: 1e-9 times the
    spectral range (at least 1), which absorbs floating-point noise without
    merging distinct manifolds of the exactly degenerate models treated
    here."""
    return 1e-9 * max(float(energies.max() - energies.min()), 1.0)


def manifolds(energies: np.ndarray, tol: float) -> list:
    """(energy, start, stop) slices of the degenerate manifolds of the
    ascending ``energies``.  A manifold holds every energy within ``tol`` of
    its first."""
    out = []
    start = 0
    while start < len(energies):
        first = energies[start]
        # e - first rises with e, so the search on first + tol lands within
        # a rounding step of the boundary; the loops settle it exactly
        stop = int(np.searchsorted(energies, first + tol, side="right"))
        while stop < len(energies) and energies[stop] - first <= tol:
            stop += 1
        while energies[stop - 1] - first > tol:
            stop -= 1
        out.append((float(first), start, stop))
        start = stop
    return out


class SpectralDecomposition:
    """Full spectrum of a Hamiltonian, held as separately diagonalized blocks.

    Each entry of ``blocks`` is ``(basis, values, vectors)``: the basis
    indices the block spans, its ascending eigenvalues, and its
    eigenvectors over those indices, one per column, so the eigenvectors
    at or below an energy are a prefix of the columns.  Blocks need not
    have distinct bases: two may span the same indices (the flip-even and
    flip-odd halves of a middle sector), and their columns are then
    orthogonal.  The basis need not be ascending: a mirror sector of
    ``diagonalize`` holds its basis in descending order, a view, and
    shares its values and vectors with another block, so nothing may
    write to them.
    ``eigenvalues`` is the merged spectrum in ascending order.
    """

    def __init__(self, blocks, num_sites: int):
        self.blocks = tuple(blocks)
        self.num_sites = num_sites
        self.eigenvalues = np.sort(np.concatenate([values for _, values, _ in self.blocks]))


def _check_dense_bytes(needed: int) -> None:
    if needed > _DENSE_BYTES:
        raise SizeLimitError(
            f"dense work needs {needed / 2**30:.3g} GiB, "
            f"over the limit of {_DENSE_BYTES / 2**30:g} GiB"
        )


def _sector_triplets(op: PauliOperator):
    """The ascending basis indices of each block of ``op``, and its
    triplets with int32 positions in that basis.  One block per popcount
    (total S^z) unless a summed element joins two popcounts, then the whole
    space: XX alone couples |00> and |11>; in XX + YY they cancel."""
    n = op.num_sites
    pieces = list(_triplets(op))
    pop = _popcounts(n)
    if any(np.any(pop[rows] != pop[cols]) for rows, cols, _ in pieces):
        return [np.arange(1 << n)], [pieces]
    bases = np.split(np.argsort(pop, kind="stable"), np.cumsum(np.bincount(pop))[:-1])
    pos = np.empty(1 << n, np.int32)
    for basis in bases:
        pos[basis] = np.arange(len(basis))
    rows, cols, values = (np.concatenate(part) for part in zip(*pieces))
    del pieces
    sector = pop[cols]
    rows, cols = pos[rows], pos[cols]
    # a gather per sector, so that each sector's arrays are freed with it
    by_sector = np.split(np.argsort(sector, kind="stable"),
                         np.cumsum(np.bincount(sector, minlength=n + 1))[:-1])
    return bases, [[(rows[i], cols[i], values[i])] for i in by_sector]


def _scatter_block(op: PauliOperator, size: int, triplets) -> np.ndarray:
    """A ``size`` x ``size`` matrix of ``triplets``, zero elsewhere."""
    h = np.zeros((size, size), _dtype(op))
    for rows, cols, values in triplets:
        h[rows, cols] = values
    return h


def build_dense(op: PauliOperator) -> np.ndarray:
    """The triplets of ``_triplets`` scattered into a dense 2^n x 2^n
    matrix, float64 when ``op.is_real()`` and complex otherwise.

    Raises SizeLimitError, before allocating, when the 4^n elements exceed
    the dense memory budget.
    """
    _check_dense_bytes(_dtype(op).itemsize << (2 * op.num_sites))
    return _scatter_block(op, 1 << op.num_sites, _triplets(op))


def _flip_symmetric(op: PauliOperator) -> bool:
    """True when the global spin flip F = X^n commutes with ``op``.  F P F
    = P exactly when the Pauli string P has an even number of Y plus Z
    letters, and the canonical terms are distinct strings, so the test
    reads the terms alone."""
    return all((s.count("Y") + s.count("Z")) % 2 == 0 for _, s in op.terms)


def _sector_eigh(op: PauliOperator, basis: np.ndarray, triplets, middle: bool) -> list:
    """The blocks ``(basis, values, vectors)`` of one scattered sector.

    A ``middle`` sector (popcount n/2 of a flip-symmetric ``op``) maps to
    itself under F, which reverses its ascending basis, so its matrix A
    commutes with the reversal.  With d = len(basis) and h = d / 2, the
    flip-even vectors are [u; u[::-1]] / sqrt(2) and the flip-odd ones
    [u; -u[::-1]] / sqrt(2), with u the eigenvectors of the h x h halves
    A[:h, :h] +- A[:h, d-1-j]: two blocks on the same basis.  The
    scattered block is freed before the halves' ``eigh``.
    """
    a = _scatter_block(op, len(basis), triplets)
    if not middle:
        return [(basis, *np.linalg.eigh(a))]
    h = len(basis) // 2
    top, cross = a[:h, :h], a[:h, ::-1][:, :h]
    halves = [top + cross, top - cross]
    del a, top, cross
    blocks = []
    for sign in (1.0, -1.0):
        values, u = np.linalg.eigh(halves.pop(0))
        vectors = np.concatenate([u, sign * u[::-1]])
        vectors /= np.sqrt(2.0)
        blocks.append((basis, values, vectors))
    return blocks


def diagonalize(op: PauliOperator) -> SpectralDecomposition:
    """Full diagonalization, one total-S^z sector at a time.

    Each block (the whole space if ``op`` does not conserve S^z) is one
    scatter of its popped ``_sector_triplets`` just before its ``eigh``, in
    float64 unless a term has an odd number of Y letters.  So one block is
    alive at a time, and an S^z-conserving ``op`` never forms a 2^n x 2^n one.

    When ``op`` also commutes with the global spin flip F (every term has
    an even number of Y plus Z letters; ``_flip_symmetric``), F maps
    popcount p to n - p and, by complementing every bit, reverses the
    ascending basis.  So sector n - p is sector p conjugated by the
    reversal: only sector p < n - p is scattered and diagonalized, and
    sector n - p gets its eigenvalues and its eigenvectors as they are,
    on its basis in descending order.  That basis is a view, so the
    mirror allocates nothing, and its vectors stay C-contiguous for the
    projection's matrix products.  The middle sector (p = n/2)
    splits into a flip-even and a flip-odd block on the same basis
    (``_sector_eigh``).  Then ``blocks`` holds n + 2 entries for even n
    and n + 1 for odd n, in popcount order.

    The dense memory budget is checked twice, each time before the
    allocation it guards.  First on the float64 sector eigenvectors that
    the terms alone promise: sum_{p <= n/2} C(n, p)^2 elements when
    ``_flip_symmetric`` holds, else C(2n, n) = sum_p C(n, p)^2.  So large
    operators are refused without enumerating 2^n indices.  Then on the
    actual blocks: every eigenvector held (with the flip, those of the
    sectors p <= n - p only) plus the largest block itself.  A refusal
    raises SizeLimitError.
    """
    n = op.num_sites
    symmetric = _flip_symmetric(op)
    _check_dense_bytes(8 * sum(comb(n, p) ** 2 for p in range(n // 2 + 1 if symmetric else n + 1)))
    bases, triplets = _sector_triplets(op)
    # at n = 0 the one sector has one state, which the flip leaves alone
    flip = n > 0 and len(bases) == n + 1 and symmetric
    sizes = [len(basis) ** 2 for basis in bases]
    held = sum(sizes[: n // 2 + 1]) if flip else sum(sizes)
    _check_dense_bytes(_dtype(op).itemsize * (held + max(sizes)))
    if flip:
        del triplets[n // 2 + 1:]  # the mirror sectors are never scattered
    blocks = []
    for p, basis in enumerate(bases):
        if flip and 2 * p > n:
            _, values, vectors = blocks[n - p]
            blocks.append((basis[::-1], values, vectors))
        else:
            blocks += _sector_eigh(op, basis, triplets.pop(0), flip and 2 * p == n)
    return SpectralDecomposition(blocks, n)


def _cut_sides(n: int, cut: Bipartition) -> tuple:
    """The sites of the row bits and of the column bits of the Schmidt
    matrix, least significant first: the system sites in cut order, then
    the environment sites ascending."""
    cut.validate(n)
    system = set(cut.system_sites)
    return cut.system_sites, tuple(s for s in range(n) if s not in system)


def _schmidt_axes(n: int, cut: Bipartition) -> list:
    """The axes of amplitudes reshaped to (2,)*n in Schmidt-matrix order,
    most significant bit first: the system sites, last first, then the
    environment sites, last first.  Site s is axis n-1-s."""
    system, env = _cut_sides(n, cut)
    return [n - 1 - s for s in reversed(system)] + [n - 1 - s for s in reversed(env)]


def schmidt_matrix(state: StateVector, cut: Bipartition) -> np.ndarray:
    """Amplitudes rearranged into a (system x environment) matrix.

    Row bit j is ``cut.system_sites[j]``; column bits are the environment
    sites in ascending order.  Site s is axis n-1-s of the amplitudes
    reshaped to (2,)*n, so the split is one transpose, and a cut of sites
    0..k-1 is a view of the amplitudes.
    """
    n = state.num_sites
    tensor = state.amplitudes.reshape((2,) * n).transpose(_schmidt_axes(n, cut))
    return tensor.reshape(1 << len(cut.system_sites), -1)


def schmidt_weights(a: np.ndarray) -> np.ndarray:
    """Squared singular values of ``a``, ascending: the eigenvalues of the
    Gram matrix of its smaller side.  The Gram matrix and ``eigvalsh`` run
    in the dtype of ``a``: float64 for a real state, complex128 otherwise."""
    gram = a @ a.conj().T if a.shape[0] <= a.shape[1] else a.conj().T @ a
    return np.linalg.eigvalsh(gram)


def _entropy_bits(p: np.ndarray, axis: int | None = None):
    """-sum p log2 p over the entries clipped to [0, 1], with 0 log 0 := 0.

    With ``axis`` None, a float over every entry, summed over the nonzero
    entries only, so its rounding does not depend on how many zero
    weights the spectrum holds; otherwise an array of sums along
    ``axis``, where a zero entry adds an exact 0.  A pure spectrum gives
    +0.0: adding 0.0 turns the -0.0 of a negated zero sum into +0.0 and
    leaves every other value as it is.
    """
    p = np.clip(p, 0.0, 1.0)
    if axis is None:
        nz = p[p > 0]
        return max(float(-np.sum(nz * np.log2(nz))), 0.0) + 0.0
    logs = np.log2(p, out=np.zeros_like(p), where=p > 0)
    return np.maximum(-np.sum(p * logs, axis=axis), 0.0) + 0.0


@lru_cache(maxsize=None)
def _sector_blocks(row_bits: int, col_bits: int, sectors: tuple) -> tuple:
    """The blocks of a Schmidt matrix with ``row_bits`` row and
    ``col_bits`` column bits, for a state that touches only the popcounts
    ``sectors``: (row popcounts, column popcounts) of each block.

    Entry (r, c) can be nonzero only if popcount(r) + popcount(c) is in
    ``sectors``.  So join row popcount j to column popcount c when j + c is
    in ``sectors``: each connected component is one block.  A popcount
    with no such partner is in no block; its rows or columns are zero.
    """
    adj = np.isin(np.arange(row_bits + 1)[:, None] + np.arange(col_bits + 1), sectors)
    free = adj.any(axis=1)
    blocks = []
    while free.any():
        rows = np.arange(row_bits + 1) == np.argmax(free)
        while True:
            cols = adj[rows].any(axis=0)
            grown = adj[:, cols].any(axis=1)
            if (grown == rows).all():
                break
            rows = grown
        free &= ~rows
        blocks.append((tuple(np.flatnonzero(rows).tolist()), tuple(np.flatnonzero(cols).tolist())))
    return tuple(blocks)


def _with_popcount(pops: np.ndarray, wanted: tuple) -> np.ndarray:
    """The ascending indices whose entry in the popcount table ``pops`` is
    one of ``wanted``.  One comparison per wanted value: ``np.isin``
    indexes a lookup table and is about 5x slower on 2^17 entries."""
    mask = pops == wanted[0]
    for w in wanted[1:]:
        mask |= pops == w
    return np.flatnonzero(mask)


def _line_marks(support: np.ndarray, sites) -> np.ndarray:
    """A table of the 2^len(sites) Schmidt lines on the nonempty side
    whose bits are ``sites``, True at the lines that the basis indices
    ``support`` reach: bit j of a line is bit ``sites[j]`` of its index.
    One shift and mask per run of consecutive sites (along a run, site
    minus position is constant), then one scatter: no sort."""
    lines = 0
    for _, run in groupby(enumerate(sites), lambda pair: pair[1] - pair[0]):
        (j, site), *rest = run
        lines = lines | ((support >> site) & ((1 << (1 + len(rest))) - 1)) << j
    seen = np.zeros(1 << len(sites), bool)
    seen[lines] = True
    return seen


def _block_lines(lines, bits: int, pops: tuple):
    """The lines, ascending, of one side of a block: those of ``lines``
    (every one of the 2^bits lines of the side if None) whose popcount is
    in ``pops``.  None when that is every line of the side."""
    if len(pops) == bits + 1:
        return lines
    if lines is None:
        return _with_popcount(_popcounts(bits), pops)
    return lines[_with_popcount(popcount(lines), pops)]


def block_entropy(state: StateVector, cut: Bipartition) -> float:
    """Entanglement entropy across a bipartition, in bits.

    The reduced density matrix splits by magnetization.  Its Gram matrix
    is block diagonal over the blocks of ``_sector_blocks`` for the
    state's ``sectors``, so the Schmidt weights are the union of the
    blocks' weights.  Each block goes through ``schmidt_weights``, which
    never forms a matrix larger than the smaller side of the block
    squared, without its exactly zero rows and columns (they add only
    zero weights).  A state whose ``support`` fills its sectors has no
    zero line.  Any other state finds its nonzero lines from the bits of
    its support (``_line_marks``), so no cut of a sparse state scans the
    2^n amplitudes; a support of over a third of the 2^n indices costs
    more to read than the amplitudes, and then the Schmidt matrix is
    scanned for its zero lines instead.  A block that takes every line is
    the whole Schmidt matrix, gathered from nothing.
    """
    n = state.num_sites
    a = schmidt_matrix(state, cut)
    if abs(state.norm - 1.0) > 1e-8:
        raise ValidationError("state must be normalized")
    sides = _cut_sides(n, cut)
    if a.shape[0] > a.shape[1]:
        a, sides = a.T, sides[::-1]  # same weights, with the short side as rows
    bits = [len(sites) for sites in sides]
    support = state.support
    if len(support) == sum(comb(n, p) for p in state.sectors):
        lines = [None, None]  # the support fills its sectors: no line is zero
    else:
        if 3 * len(support) > 1 << n:
            nz = np.not_equal(a, 0, order="C")  # reductions along the long side
            marks = [nz.any(axis=1), nz.any(axis=0)]
        else:
            marks = [_line_marks(support, sites) for sites in sides]
        lines = [None if m.all() else np.flatnonzero(m) for m in marks]
    weights = []
    for block in _sector_blocks(*bits, state.sectors):
        index = [_block_lines(*side) for side in zip(lines, bits, block)]
        if all(i is None for i in index):
            a_block = a  # every line: gather nothing
        else:
            a_block = a[np.ix_(*(np.arange(1 << b) if i is None else i
                                 for i, b in zip(index, bits)))]
        weights.append(schmidt_weights(a_block))
    return _entropy_bits(np.concatenate(weights))


def span_entropies(blocks, coords) -> np.ndarray:
    """Block entropies, in bits, of the states sum_a coords[s, a] states[a],
    one for each row s of ``coords``, from the ``blocks`` K of a span of
    a few fixed states (``models.mg_span_blocks``).

    Row s has the r x r reduced matrix sum_ab c_sa conj(c_sb) K_ab, and
    its trace is the squared norm c_s^H S c_s of its state, with S the
    overlap S[a, b] = tr K[b, a].  So the rows may have any norm: each
    spectrum is divided by its trace, and a row whose squared norm is
    below 1e-28 raises ValidationError.  All rows go through one batched
    ``eigvalsh``, in O(rows r^2) memory.
    """
    rho = np.einsum("sa,sb,abij->sij", coords, np.conj(coords), blocks)
    norms = np.einsum("sii->s", rho).real
    if np.any(norms < 1e-28):
        raise ValidationError("cannot normalize a zero state")
    return _entropy_bits(np.linalg.eigvalsh(rho) / norms[:, None], axis=-1)


def shannon_entropy(weights) -> float:
    """Shannon entropy in bits of a probability vector, with 0 log 0 := 0."""
    p = np.asarray(weights, dtype=float)
    if abs(p.sum() - 1.0) > 1e-8:
        raise ValidationError("weights must sum to 1")
    return _entropy_bits(p)


def product_state(per_site) -> StateVector:
    """Normalized tensor product of single-site amplitude pairs.

    ``per_site[i]`` gives (amplitude of |0>, amplitude of |1>) for site i;
    an (n, 2) array works as well as a list of pairs.  The state is
    float64 when every pair is real and complex128 when any pair is
    complex; then every pair is cast to complex before it is normalized.
    Raises SizeLimitError, before allocating, when the 2^n amplitudes
    exceed the dense memory budget.
    """
    try:
        dtype = _amplitude_array(per_site).dtype
    except (TypeError, ValueError):
        # ragged or non-numeric input: the loop names the first bad site
        dtype = np.dtype(complex)
    _check_dense_bytes(dtype.itemsize << len(per_site))
    psi = np.ones(1, dtype)
    for i, pair in enumerate(per_site):
        try:
            v = np.asarray(pair, dtype=dtype)
        except ValueError as exc:
            raise ValidationError(f"site {i} local state is malformed") from exc
        norm = np.linalg.norm(v)
        if v.shape != (2,) or norm < 1e-14:
            raise ValidationError(f"site {i} local state is zero or malformed")
        v = v / norm
        # site i becomes bit i: the new factor is the more significant bit
        psi = (v[:, None] * psi).ravel()
    return StateVector(len(per_site), psi)
