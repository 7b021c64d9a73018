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
from math import comb

import numpy as np

# Bytes that dense work may hold: matrices and kept eigenvectors.  Fixed,
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
    its Schmidt spectra in real arithmetic.
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

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        n = self.norm
        if n < 1e-14:
            raise ValidationError("cannot normalize a zero state")
        return StateVector(self.num_sites, self.amplitudes / n)

    def is_normalized(self, tol: float = 1e-12) -> bool:
        return abs(self.norm**2 - 1.0) <= tol

    def fidelity(self, other: "StateVector") -> float:
        """Squared overlap |<self|other>|^2."""
        if other.num_sites != self.num_sites:
            raise ValidationError("site counts differ")
        return float(abs(np.vdot(self.amplitudes, other.amplitudes)) ** 2)


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


def _matrix_elements(op: "PauliOperator", cols: np.ndarray):
    """Yield ``(flip, values)`` with ``values[j] = <cols[j] ^ flip| op |cols[j]>``.

    A Pauli string with masks (mx, my, mz) maps |b> to
    i^#Y (-1)^popcount(b & (my | mz)) |b ^ (mx | my)>.  Terms that flip the
    same bits reach the same matrix elements, so each flip mask yields one
    array summed over its terms.  The flip-0 (I/Z) terms have real weights;
    their array is the ``_z_energies`` kernel over all 2^n indices,
    gathered at ``cols``.  Every other flip sums its terms in term order,
    in float64 unless some term has an odd number of Y letters.
    """
    dtype = _dtype(op)
    groups: dict[int, list] = {}
    for coeff, string in op.terms:
        mx, my, mz = _term_masks(string)
        ny = bin(my).count("1")
        weight = coeff * (-1.0) ** (ny // 2) * (1j if ny % 2 else 1.0)
        groups.setdefault(mx | my, []).append((weight, my | mz))
    for flip, group in groups.items():
        if flip == 0:
            yield 0, _z_energies(op.num_sites, group)[cols]
            continue
        values = np.zeros(len(cols), dtype)
        for weight, mask in group:
            values += weight * (1.0 - 2.0 * (popcount(cols & mask) & 1))
        yield flip, values


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

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """Matrix-free action H @ psi on a dense amplitude array."""
        psi = np.asarray(psi, dtype=complex)
        dim = 1 << self.num_sites
        if psi.shape != (dim,):
            raise ValidationError("state dimension mismatch")
        idx = np.arange(dim)
        out = np.zeros(dim, dtype=complex)
        for flip, values in _matrix_elements(self, idx):
            out[idx ^ flip] += values * psi
        return out

    def diagonal(self) -> np.ndarray:
        """Diagonal energies E(b) for an I/Z-only operator: the
        ``_z_energies`` kernel that gives the flip-0 elements of
        ``_matrix_elements``."""
        if not self.is_diagonal():
            raise ValidationError("operator has off-diagonal terms")
        return _z_energies(self.num_sites, [(c, _term_masks(s)[2]) for c, s in self.terms])

    def expectation(self, state: StateVector) -> float:
        return float(np.real(np.vdot(state.amplitudes, self.apply(state.amplitudes))))

    def __add__(self, other: "PauliOperator") -> "PauliOperator":
        if other.num_sites != self.num_sites:
            raise ValidationError("site counts differ")
        return PauliOperator(self.num_sites, self.terms + other.terms)


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
    eigenvectors over those indices, one per column.  ``eigenvalues`` is the
    merged spectrum in ascending order; ``columns`` embeds the eigenvectors
    at chosen positions of it in the full space.  Eigenvalues closer than
    ``degeneracy_tol`` (see the function of that name) belong to the same
    manifold.
    """

    def __init__(self, blocks, num_sites: int):
        self.blocks = tuple(blocks)
        self.num_sites = num_sites
        vals = np.concatenate([values for _, values, _ in self.blocks])
        self._order = np.argsort(vals, kind="stable")
        self.eigenvalues = vals[self._order]
        self.degeneracy_tol = degeneracy_tol(self.eigenvalues)

    def manifolds(self):
        """(energy, start, stop) slices of the degenerate manifolds."""
        return manifolds(self.eigenvalues, self.degeneracy_tol)

    def columns(self, select) -> np.ndarray:
        """Eigenvectors at positions ``select`` (a slice, mask or index
        array) of ``eigenvalues``, embedded in the full space, one per column."""
        picked = self._order[select]
        starts = np.cumsum([0] + [len(values) for _, values, _ in self.blocks])
        owner = np.searchsorted(starts, picked, side="right") - 1
        dtype = np.result_type(*(vectors for _, _, vectors in self.blocks))
        out = np.zeros((1 << self.num_sites, len(picked)), dtype)
        for b in np.unique(owner):
            basis, _, vectors = self.blocks[b]
            sel = np.flatnonzero(owner == b)
            out[np.ix_(basis, sel)] = vectors[:, picked[sel] - starts[b]]
        return out

    @property
    def eigenvectors(self) -> np.ndarray:
        """Every eigenvector as one 2^n x 2^n array, built on each read."""
        return self.columns(slice(None))

    def ground_manifold(self) -> np.ndarray:
        """Columns spanning the ground manifold."""
        _, start, stop = self.manifolds()[0]
        return self.columns(slice(start, stop))


def _check_dense_bytes(needed: int) -> None:
    if needed > _DENSE_BYTES:
        raise SizeLimitError(
            f"dense work needs {needed / 2**30:.3g} GiB, "
            f"over the limit of {_DENSE_BYTES / 2**30:g} GiB"
        )


def _block(op: PauliOperator, basis: np.ndarray) -> np.ndarray:
    """Matrix of ``op`` on the span of the ascending indices ``basis``;
    every nonzero element must stay in the span."""
    h = np.zeros((len(basis), len(basis)), _dtype(op))
    for flip, values in _matrix_elements(op, basis):
        nz = np.flatnonzero(values)
        h[np.searchsorted(basis, basis[nz] ^ flip), nz] = values[nz]
    return h


def _sector_bases(op: PauliOperator) -> list:
    """Ascending basis indices of the blocks of ``op``: one per popcount
    (total S^z) when every summed matrix element between different
    popcounts is exactly zero, else one block holding the whole space.

    The check is on summed elements, not term by term: XX alone couples
    |00> and |11>, while in XX + YY those elements cancel.
    """
    idx = np.arange(1 << op.num_sites)
    pop = popcount(idx)
    for flip, values in _matrix_elements(op, idx):
        if np.any(values[popcount(idx ^ flip) != pop]):
            return [idx]
    counts = np.bincount(pop, minlength=op.num_sites + 1)
    return np.split(np.argsort(pop, kind="stable"), np.cumsum(counts)[:-1])


def build_dense(op: PauliOperator) -> np.ndarray:
    """Dense Hermitian matrix of a PauliOperator, float64 when
    ``op.is_real()`` and complex otherwise.

    Raises SizeLimitError, before allocating, when the 4^n elements exceed
    the dense memory budget.
    """
    _check_dense_bytes(_dtype(op).itemsize << (2 * op.num_sites))
    return _block(op, np.arange(1 << op.num_sites))


def diagonalize(op: PauliOperator) -> SpectralDecomposition:
    """Full diagonalization, one total-S^z sector at a time.

    Each sector block (or the single whole-space block when ``op`` does not
    conserve S^z) is built from the Pauli terms, in float64 unless some
    term has an odd number of Y letters, and passed to ``eigh``, so an
    operator that conserves S^z never forms a 2^n x 2^n matrix.

    The dense memory budget is checked twice, each time before the
    allocation it guards.  First on the least any split can need, the
    float64 sector eigenvectors (sum_k C(n, k)^2 = C(2n, n) elements), so
    large operators are refused without enumerating 2^n indices.  Then on
    the actual blocks: every kept eigenvector plus the largest block
    itself.  A refusal raises SizeLimitError.
    """
    _check_dense_bytes(8 * comb(2 * op.num_sites, op.num_sites))
    bases = _sector_bases(op)
    sizes = [len(basis) ** 2 for basis in bases]
    _check_dense_bytes(_dtype(op).itemsize * (sum(sizes) + max(sizes)))
    blocks = [(basis, *np.linalg.eigh(_block(op, basis))) for basis in bases]
    return SpectralDecomposition(blocks, op.num_sites)


def _schmidt_axes(n: int, cut: Bipartition) -> list:
    """The axes of amplitudes reshaped to (2,)*n in Schmidt-matrix order,
    most significant bit first: the system sites, last first, then the
    environment sites, last first.  Site s is axis n-1-s."""
    cut.validate(n)
    system = set(cut.system_sites)
    env = [s for s in range(n) if s not in system]
    return [n - 1 - s for s in reversed(cut.system_sites)] + [n - 1 - s for s in reversed(env)]


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


def block_entropy(state: StateVector, cut: Bipartition) -> float:
    """Entanglement entropy across a bipartition, in bits.

    Computed from the Schmidt weights (``schmidt_weights``), which never
    forms a matrix larger than the smaller side of the cut squared.
    """
    a = schmidt_matrix(state, cut)
    if abs(state.norm - 1.0) > 1e-8:
        raise ValidationError("state must be normalized")
    return _entropy_bits(schmidt_weights(a))


def span_block_entropies(states, coords, cut: Bipartition) -> np.ndarray:
    """Block entropies across ``cut``, in bits, of the states
    sum_a coords[s, a] states[a], one for each row s of ``coords``.

    The Schmidt matrices A_a of the few fixed ``states`` are taken once, on
    the smaller side of the cut.  U is an orthonormal basis of the span of
    their columns (rank r), R_a = U^H A_a and K_ab = R_a R_b^H, so row s has
    the r x r reduced density matrix sum_ab c_sa conj(c_sb) K_ab.  All rows
    go through one batched ``eigvalsh``, in O(rows r^2) memory.  As in
    ``block_entropy``, every row must give a normalized state: a reduced
    trace off 1 by more than 1e-8 raises ValidationError.
    """
    mats = [schmidt_matrix(st, cut) for st in states]
    if mats[0].shape[0] > mats[0].shape[1]:
        mats = [a.T for a in mats]
    stack = np.hstack(mats)
    u, sv, _ = np.linalg.svd(stack, full_matrices=False)
    u = u[:, sv > sv[0] * max(stack.shape) * np.finfo(float).eps]
    reduced = np.stack([u.conj().T @ a for a in mats])
    blocks = np.einsum("aie,bje->abij", reduced, reduced.conj())
    rho = np.einsum("sa,sb,abij->sij", coords, np.conj(coords), blocks)
    trace = np.trace(rho, axis1=1, axis2=2).real
    bad = np.flatnonzero(np.abs(trace - 1.0) > 1e-8)
    if bad.size:
        raise ValidationError(f"state of coordinate row {bad[0]} must be normalized")
    return _entropy_bits(np.linalg.eigvalsh(rho), axis=-1)


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
    """
    try:
        dtype = _amplitude_array(per_site).dtype
    except (TypeError, ValueError):
        # ragged or non-numeric input: the loop names the first bad site
        dtype = np.dtype(complex)
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


def basis_state(num_sites: int, index: int) -> StateVector:
    amps = np.zeros(1 << num_sites)
    amps[index] = 1.0
    return StateVector(num_sites, amps)
