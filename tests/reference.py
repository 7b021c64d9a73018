"""Reference paths that the library no longer carries, kept for the tests
that check the library against them.

``partial_trace`` and ``von_neumann_entropy`` are the density-matrix route
to a block entropy, beside the library's one path, ``block_entropy``.
``scan_block_entropy`` is the former sector split of ``block_entropy``,
which found the zero rows and columns of each block by scanning it
(``drop_zero_lines``), beside the library's lines read from the support.
``dicke_weights`` is the exact ``Fraction`` route to the Ising-gas block
weights, beside the library's integer recurrence in ``ising_gas_spectra``.
``pauli_to_text``/``pauli_from_text`` are a one-term-per-line text format
for operators, and ``scaled`` multiplies every coefficient; no command
reads or needs them.  ``spectrum`` merges the values of the
``(basis, values, vectors)`` blocks of ``diagonalize`` in ascending
order.  ``columns`` embeds chosen eigenvectors of those blocks, each
from its own ``vectors``, in the full 2^n space (``eigenvectors`` all of
them, ``ground_manifold`` the ground manifold's), and
``project_by_columns`` projects onto the embedded columns at or below a
threshold: the oracle of ``cool``'s block-by-block projection.
``covering_interference_by_enumeration`` builds all m! singlet coverings
of the Heisenberg gas (``heisenberg_covering_states``) and compares their
superposition with their average (``superposition_vs_average``), beside
the library's closed form ``covering_interference``.
``frustrated_vs_unfrustrated_ratio`` compares the cooled-state entropies
of a model and its sign-flipped control.
``sector_bases`` and ``sector_block`` build each block of an operator by
re-running its Pauli terms over the block's basis, beside the library's
one-pass triplet assembly, which must match them bit for bit.
``sector_eigh`` diagonalizes every such block with one ``eigh``, vectors
and all: the oracle of ``diagonalize``, which takes eigenvalues for all
blocks and eigenvectors on request.
``manifold_entropy`` is the optimiser's former objective, in the
coordinates of ED ground columns, beside ``cool`` and ``block_entropy``.
``span_blocks`` is the dense route to the span blocks of a few fixed
states, on the 2^n vectors of the Majumdar-Ghosh coverings
(``mg_dimer_states``), beside the library's transfer matrices
(``mg_span_blocks``).  ``product_search`` is the former optimiser, a
lockstep Nelder-Mead (``nelder_mead``, equal to scipy row by row) over
the angles of product states on ``span_objective``, beside the
library's search over span directions (``maximize_cooled_entropy``).
``mg_witness`` builds a real product state that cools to a given span
direction, the construction that shows every direction the library
searches is reachable.  ``apply`` is the matrix-free action H @ psi on
the library's Pauli-action kernel.  ``cool_excited``, ``normalized``,
``basis_state``, ``fidelity`` and ``shastry_dimer_state`` are small
helpers that only tests use, and so is ``default_initial_state``, the
2^n product state of ``models.default_initial_pairs``.
``heisenberg_gas_schmidt_state`` is the exact ``Fraction`` route to the
Heisenberg gas's single-colour block spectrum, beside the library's
closed form ``heisenberg_gas_block_entropy``.  ``mg_ground_count`` is
the closed form of the Majumdar-Ghosh ground count, beside the
frustration transfer.
``ising_gas_asymptote`` and ``ising_gas_stirling_weights`` are the
Ising gas's area-law violation, S ~ (1/2) log2 k, and its binomial
weights, beside the library's Dicke spectra (``ising_gas_spectra``).
``rvb_cut_plaquette_entropy`` is the exact entropy of a cut through one
RVB plaquette, from the plaquette-label state ``rvb_state``
(``RVBState``) and the two plaquette pair states, beside the library's
mean-field E_pl(d) (``rvb_plaquette_entropy``).
"""
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from frustra.closed_forms import _lbinom
from frustra.cooling import _Z_FLOOR, cool
from frustra.interference import IncomparableError, InterferenceReport, make_report
from frustra.models import (
    MajumdarGhosh,
    build_model,
    default_initial_pairs,
    dimer_product_state,
    mg_span_blocks,
    shastry_sutherland_diagonals,
)
from frustra.spin_core import (
    Bipartition,
    PauliOperator,
    StateVector,
    ValidationError,
    _check_dense_bytes,
    _dtype,
    _entropy_bits,
    _popcounts,
    _schmidt_axes,
    _sector_blocks,
    _term_masks,
    _triplets,
    _z_energies,
    block_entropy,
    degeneracy_tol,
    diagonalize,
    manifolds,
    popcount,
    product_state,
    schmidt_matrix,
    schmidt_weights,
    shannon_entropy,
    span_entropies,
)


def partial_trace(state: StateVector, cut: Bipartition) -> np.ndarray:
    """Reduced density matrix on the system sites of the cut."""
    if not state.is_normalized(tol=1e-10):
        raise ValidationError("state must be normalized for partial trace")
    a = schmidt_matrix(state, cut)
    return a @ a.conj().T


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy of a density matrix, in bits."""
    rho = np.asarray(rho)
    tr = float(np.real(np.trace(rho)))
    if abs(tr - 1.0) > 1e-8:
        raise ValidationError(f"density matrix trace {tr} deviates from 1")
    p = np.linalg.eigvalsh(rho)
    if p.min() < -1e-12:
        raise ValidationError("density matrix is not positive semidefinite")
    return _entropy_bits(p)


def drop_zero_lines(a: np.ndarray) -> np.ndarray:
    """``a`` less its exactly zero rows and columns, or ``a`` itself when
    it has none, by a scan of every element."""
    nz = np.not_equal(a, 0, order="C")
    rows, cols = nz.any(axis=1), nz.any(axis=0)
    return a if rows.all() and cols.all() else a[np.ix_(rows, cols)]


def scan_block_entropy(state: StateVector, cut: Bipartition) -> float:
    """The block entropy by the former scan split: the Schmidt matrix,
    short side as rows, is gathered by popcount into the blocks of
    ``_sector_blocks`` for the popcounts of the nonzero amplitudes, and
    each block loses its zero rows and columns by ``drop_zero_lines``
    before its Gram spectrum."""
    a = schmidt_matrix(state, cut)
    if a.shape[0] > a.shape[1]:
        a = a.T
    row_bits, col_bits = (size.bit_length() - 1 for size in a.shape)
    sectors = tuple(np.unique(popcount(np.flatnonzero(state.amplitudes))).tolist())
    weights = []
    for rows, cols in _sector_blocks(row_bits, col_bits, sectors):
        a_block = a[np.ix_(np.isin(_popcounts(row_bits), rows),
                           np.isin(_popcounts(col_bits), cols))]
        weights.append(schmidt_weights(drop_zero_lines(a_block)))
    return _entropy_bits(np.concatenate(weights))


def dicke_weights(m: int, lam: float, k: int) -> tuple:
    """Block weights C(k, i) C(2m-k, n0-i) / C(2m, n0), n0 = m(1+lam), as
    exact fractions from one ``math.comb`` per binomial, rounded to float."""
    n, n0 = 2 * m, round(m * (1.0 + lam))
    denom = math.comb(n, n0)
    weights = [
        Fraction(math.comb(k, i) * math.comb(n - k, n0 - i), denom)
        if 0 <= n0 - i <= n - k
        else Fraction(0)
        for i in range(k + 1)
    ]
    assert sum(weights) == 1
    return tuple(float(w) for w in weights)


def scaled(op: PauliOperator, factor: float) -> PauliOperator:
    """``op`` with every coefficient multiplied by ``factor``."""
    return PauliOperator(op.num_sites, tuple((factor * c, s) for c, s in op.terms))


def pauli_to_text(op: PauliOperator) -> str:
    """One ``<coeff> <string>`` line per term, the coefficient round-tripping."""
    return "\n".join(f"{c:.17g} {s}" for c, s in op.terms) + "\n"


def pauli_from_text(text: str, num_sites: int | None = None) -> PauliOperator:
    """Parse the one-term-per-line ``<coeff> <string>`` format.

    ``#`` starts a comment; blank lines are skipped.  A unicode minus sign
    in the coefficient is accepted.
    """
    terms = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValidationError(f"malformed term line {raw!r}")
        coeff_s, string = parts
        try:
            coeff = float(coeff_s.replace("\u2212", "-"))
        except ValueError as exc:
            raise ValidationError(f"bad coefficient in {raw!r}") from exc
        terms.append((coeff, string))
    if not terms and num_sites is None:
        raise ValidationError("cannot infer site count from empty input")
    n = num_sites if num_sites is not None else len(terms[0][1])
    return PauliOperator(n, tuple(terms))


def matrix_elements(op: PauliOperator, cols: np.ndarray):
    """Yield ``(flip, values)`` with ``values[j] = <cols[j] ^ flip| op |cols[j]>``,
    one flip mask at a time, each summed over its terms in term order."""
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


def apply(op: PauliOperator, psi: np.ndarray) -> np.ndarray:
    """Matrix-free action H @ psi on a dense amplitude array, summed from
    the triplets of ``spin_core._triplets``."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (1 << op.num_sites,):
        raise ValidationError("state dimension mismatch")
    out = np.zeros_like(psi)
    for rows, cols, values in _triplets(op):
        out[rows] += values * psi[cols]
    return out


def sector_block(op: PauliOperator, basis: np.ndarray) -> np.ndarray:
    """Matrix of ``op`` on the span of the ascending indices ``basis``;
    every nonzero element must stay in the span."""
    h = np.zeros((len(basis), len(basis)), _dtype(op))
    for flip, values in matrix_elements(op, basis):
        nz = np.flatnonzero(values)
        h[np.searchsorted(basis, basis[nz] ^ flip), nz] = values[nz]
    return h


def sector_bases(op: PauliOperator) -> list:
    """Ascending basis indices of the blocks of ``op``: one per popcount
    when every summed matrix element between different popcounts is exactly
    zero, else one block holding the whole space."""
    idx = np.arange(1 << op.num_sites)
    pop = popcount(idx)
    for flip, values in matrix_elements(op, idx):
        if np.any(values[popcount(idx ^ flip) != pop]):
            return [idx]
    counts = np.bincount(pop, minlength=op.num_sites + 1)
    return np.split(np.argsort(pop, kind="stable"), np.cumsum(counts)[:-1])


def sector_eigh(op: PauliOperator) -> list:
    """``(basis, values, vectors)`` of every block of ``sector_bases``, each
    from one plain ``eigh`` of ``sector_block``: the all-``eigh`` layout,
    with no flip split and no vector left out, beside the library's
    ``diagonalize``."""
    return [(basis, *np.linalg.eigh(sector_block(op, basis))) for basis in sector_bases(op)]


def spectrum(blocks) -> np.ndarray:
    """Every eigenvalue of the ``diagonalize`` blocks, ascending."""
    return np.sort(np.concatenate([values for _, values, _ in blocks]))


def columns(blocks, select) -> np.ndarray:
    """Eigenvectors at positions ``select`` (a slice, mask or index array)
    of ``spectrum(blocks)``, embedded in the full space, one per column.
    Only the blocks that own a picked column are asked for vectors."""
    order = np.argsort(np.concatenate([values for _, values, _ in blocks]), kind="stable")
    picked = order[select]
    starts = np.cumsum([0] + [len(values) for _, values, _ in blocks])
    owner = np.searchsorted(starts, picked, side="right") - 1
    dtype = np.result_type(float, *(blocks[b][2]() for b in np.unique(owner)))
    out = np.zeros((starts[-1], len(picked)), dtype)
    for b in np.unique(owner):
        basis, _, vectors = blocks[b]
        sel = np.flatnonzero(owner == b)
        out[np.ix_(basis, sel)] = vectors()[:, picked[sel] - starts[b]]
    return out


def eigenvectors(blocks) -> np.ndarray:
    """Every eigenvector of the blocks as one 2^n x 2^n array."""
    return columns(blocks, slice(None))


def ground_manifold(blocks) -> np.ndarray:
    """Columns spanning the ground manifold of the blocks."""
    energies = spectrum(blocks)
    _, start, stop = manifolds(energies, degeneracy_tol(energies))[0]
    return columns(blocks, slice(start, stop))


def project_by_columns(h: PauliOperator, initial: StateVector, threshold):
    """The projection of ``initial`` onto the eigenvectors of
    ``diagonalize(h)`` at or below ``threshold`` (an energy, or "ground"),
    with the kept columns embedded in the full space: the threshold, the
    projected amplitudes, unnormalized, their squared norm z, and the
    (energy, multiplicity) of every retained manifold."""
    blocks = diagonalize(h)
    energies = spectrum(blocks)
    tol = degeneracy_tol(energies)
    thr = energies[0] + tol if threshold == "ground" else float(threshold)
    v = columns(blocks, energies <= thr)
    coeffs = v.conj().T @ initial.amplitudes
    dims = tuple((e, stop - start) for e, start, stop in manifolds(energies[energies <= thr], tol))
    return thr, v @ coeffs, float(np.vdot(coeffs, coeffs).real), dims


def heisenberg_covering_states(m: int):
    """All m! singlet coverings pairing black sites 0..m-1 to white sites m..2m-1."""
    n = 2 * m
    out = []
    for perm in itertools.permutations(range(m)):
        pairs = [(i, m + perm[i]) for i in range(m)]
        out.append(dimer_product_state(n, pairs))
    return out


def component_average_entropy(components, cut: Bipartition, weights=None) -> float:
    """Weighted average block entropy of the listed component states.

    Weights default to uniform, matching the equal-weight superpositions in
    scope here.
    """
    comps = list(components)
    if not comps:
        raise ValidationError("need at least one component")
    if weights is None:
        weights = [1.0 / len(comps)] * len(comps)
    weights = np.asarray(weights, dtype=float)
    if abs(weights.sum() - 1.0) > 1e-9:
        raise ValidationError("weights must sum to 1")
    return float(
        sum(w * block_entropy(normalized(c), cut) for w, c in zip(weights, comps))
    )


def superposition_vs_average(components, cut: Bipartition) -> InterferenceReport:
    """Compare the equal superposition of the components with their average."""
    comps = [normalized(c) for c in components]
    total = np.sum([c.amplitudes for c in comps], axis=0)
    sup = normalized(StateVector(comps[0].num_sites, total))
    e_super = block_entropy(sup, cut)
    e_avg = component_average_entropy(comps, cut)
    return make_report(e_super, e_avg)


def covering_interference_by_enumeration(m: int) -> dict:
    """``covering_interference(m, k)`` for every k in 1..2m-1, keyed by k,
    from the m! covering states themselves."""
    comps = heisenberg_covering_states(m)
    return {
        k: superposition_vs_average(comps, Bipartition.contiguous(k))
        for k in range(1, 2 * m)
    }


def frustrated_vs_unfrustrated_ratio(spec_frustrated, spec_control, cut: Bipartition):
    """Ratio of cooled-state entropies between a frustrated model and its
    sign-flipped control."""
    if spec_frustrated == spec_control:
        return 1.0
    e = []
    for spec in (spec_frustrated, spec_control):
        cooled = cool(build_model(spec), default_initial_state(spec))
        e.append(block_entropy(cooled.state, cut))
    if e[1] <= 0.0:
        raise IncomparableError("control entropy is zero; ratio undefined")
    return e[0] / e[1]


def cool_excited(h: PauliOperator, initial: StateVector, manifold_count: int):
    """Cool into the span of the lowest ``manifold_count`` energy manifolds
    (all of them when there are fewer)."""
    if manifold_count < 1:
        raise ValidationError("manifold_count must be >= 1")
    energies = np.sort(h.diagonal() if h.is_diagonal() else spectrum(diagonalize(h)))
    tol = degeneracy_tol(energies)
    levels = manifolds(energies, tol)
    return cool(h, initial, levels[min(manifold_count, len(levels)) - 1][0] + tol)


def normalized(state: StateVector) -> StateVector:
    if state.norm < 1e-14:
        raise ValidationError("cannot normalize a zero state")
    return StateVector(state.num_sites, state.amplitudes / state.norm)


def basis_state(num_sites: int, index: int) -> StateVector:
    amps = np.zeros(1 << num_sites)
    amps[index] = 1.0
    return StateVector(num_sites, amps)


def fidelity(a: StateVector, b: StateVector) -> float:
    """Squared overlap |<a|b>|^2."""
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def shastry_dimer_state(L: int) -> StateVector:
    """Product of singlets on the Shastry-Sutherland diagonal dimers."""
    return dimer_product_state(L * L, shastry_sutherland_diagonals(L))


def manifold_entropy(v: np.ndarray, cut: Bipartition):
    """``entropy(x)``: for each row of the angles ``x`` (B x 2n), the block
    entropy across ``cut``, and z, of that product state cooled onto the
    span of the orthonormal columns ``v`` (2^n x d); the entropy is 0 when
    z is below 1e-14.

    Each column is rearranged into its Schmidt matrix A_a and flattened,
    and the product states psi are built in that order of sites.  Then
    c = psi A^* are the cooled states' coordinates in the span, z = |c|^2,
    and the rows of c A are their Schmidt matrices.
    """
    n = v.shape[0].bit_length() - 1
    axes = _schmidt_axes(n, cut)
    tensor = v.reshape((2,) * n + (-1,)).transpose(axes + [n])
    a = np.ascontiguousarray(tensor, dtype=complex).reshape(1 << n, -1).T
    # the sites of the flattened Schmidt index, least significant first
    sites = [n - 1 - ax for ax in reversed(axes)]
    rows = 1 << len(cut.system_sites)

    def entropy(x):
        t, ph = x[:, 0::2][:, sites], x[:, 1::2][:, sites]
        pairs = np.stack([np.cos(t), np.exp(1j * ph) * np.sin(t)], axis=-1)
        psi = pairs[:, 0]
        for j in range(1, n):
            psi = (pairs[:, j, :, None] * psi[:, None]).reshape(len(x), -1)
        coeffs = (psi.conj() @ a.T).conj()
        z = (coeffs.conj() * coeffs).real.sum(axis=-1)
        m = (coeffs @ a).reshape(len(x), rows, -1)
        gram = m @ m.conj().swapaxes(1, 2)
        empty = z < 1e-14
        weights = np.linalg.eigvalsh(gram) / np.where(empty, 1.0, z)[:, None]
        return np.where(empty, 0.0, _entropy_bits(weights, axis=-1)), z

    return entropy


def span_blocks(states, cut: Bipartition):
    """The per-cut setup of ``span_entropies`` for the span of the few
    fixed ``states``, from their 2^n amplitudes: the reduced blocks K, and
    the Gram matrix of the states, S[a, b] = <states[a]|states[b]>.  The
    dense oracle of ``models.mg_span_blocks``, for any cut.

    The Schmidt matrices A_a of the states are taken with the smaller
    side of the cut, s, as rows.  U is an orthonormal basis of the span
    of their columns (rank r): the eigenvectors of the s x s Gram matrix
    sum_a A_a A_a^H whose eigenvalues exceed its largest times
    len(states) * (columns of A_a) * eps.  R_a = U^H A_a and K[a, b] =
    R_a R_b^H, r x r each.  The columns of every A_a lie in the span of U,
    so tr K[b, a] = tr A_b A_a^H = S[a, b].
    """
    mats = [schmidt_matrix(st, cut) for st in states]
    if mats[0].shape[0] > mats[0].shape[1]:
        mats = [a.T for a in mats]
    gram = mats[0] @ mats[0].conj().T
    for a in mats[1:]:
        gram += a @ a.conj().T
    w, v = np.linalg.eigh(gram)
    u = v[:, w > w[-1] * len(mats) * mats[0].shape[1] * np.finfo(float).eps]
    reduced = np.stack([u.conj().T @ a for a in mats])
    blocks = np.einsum("aie,bje->abij", reduced, reduced.conj())
    return blocks, np.array([[np.vdot(a.amplitudes, b.amplitudes) for b in states]
                             for a in states])


def mg_dimer_pairs(m: int):
    """The singlet pairs of the Majumdar-Ghosh dimer coverings G+ and G-
    of the 2m-ring: (2i, 2i+1), and (2i+1, 2i+2 mod 2m)."""
    n = 2 * m
    return ([(2 * i, 2 * i + 1) for i in range(m)],
            [((2 * i + 1) % n, (2 * i + 2) % n) for i in range(m)])


def mg_dimer_states(m: int):
    """The two Majumdar-Ghosh dimer coverings G+ and G- of the 2m-ring as
    2^n vectors, which span its ground manifold.  The spec checks m.
    Raises SizeLimitError before building either when they and the peak
    of ``span_blocks`` on them exceed the dense memory budget: seven 2^n
    float64 arrays, the two coverings and, at the middle cut, the Gram
    matrix, the copy ``eigh`` factors and the eigenvectors it returns
    (one each) and its workspace (two)."""
    n = 2 * MajumdarGhosh(m).m
    _check_dense_bytes(56 << n)
    return tuple(dimer_product_state(n, pairs) for pairs in mg_dimer_pairs(m))


def mg_witness(m: int, direction: np.ndarray) -> np.ndarray:
    """Real local states (cos t_i, sin t_i), an (n, 2) array, of a product
    state whose cooled state on the 2m-ring lies along the real span
    ``direction``, as in the reachability argument of
    ``maximize_cooled_entropy``: t_0 = 0, t_1 = alpha, then alpha + pi/4
    and steps of pi/2, with alpha = atan2(s u, s u - 2v), s = (-1)^m, which
    makes the overlaps g parallel to (u, v) = S direction.  S is the trace
    of the transfer-matrix blocks of any cut."""
    overlap = np.trace(mg_span_blocks(MajumdarGhosh(m), [1])[0], axis1=2, axis2=3).T
    u, v = overlap @ direction
    sign = -1.0 if m % 2 else 1.0
    alpha = math.atan2(sign * u, sign * u - 2.0 * v)
    t = alpha + np.pi / 4 + np.pi / 2 * np.arange(-2, 2 * m - 2)
    t[:2] = 0.0, alpha
    return np.stack([np.cos(t), np.sin(t)], axis=1)


def angle_pairs(x: np.ndarray) -> np.ndarray:
    """Unit local states (cos t_i, e^{i phi_i} sin t_i) of the angles
    x = (..., t_0, phi_0, t_1, phi_1, ...), one row per site: an (n, 2)
    array for one point, (B, n, 2) for B of them."""
    t, ph = x[..., 0::2], x[..., 1::2]
    pairs = np.empty(t.shape + (2,), complex)
    pairs[..., 0] = np.cos(t)
    pairs[..., 1] = np.exp(1j * ph) * np.sin(t)
    return pairs


def span_objective(states, cut):
    """``entropy(x)``: for each row of the angles ``x`` (B x 2n), the block
    entropy across ``cut``, and z, of that product state cooled onto the
    span of the Majumdar-Ghosh dimer coverings ``states`` (G+, G-) of
    ``mg_dimer_states``; the entropy is 0 below the z floor.  Returns two
    arrays of B values.  The objective of the product-state search.

    The overlaps g = (<G+|psi>, <G-|psi>) of a product state psi are
    products of the two-site singlet overlaps over the pairs of
    ``mg_dimer_pairs``, O(n) per row.  The cooled state's coordinates in
    the span are c = S^-1 g, with S the overlap matrix of G+ and G-, and
    z = g^H S^-1 g; the rows above the z floor go to ``span_entropies`` as
    c / sqrt(z).  A row's value does not depend on the rows beside it.
    """
    first, second = np.array(mg_dimer_pairs(states[0].num_sites // 2)).transpose(2, 0, 1)
    blocks, overlap = span_blocks(states, cut)
    (s00, s01), (s10, s11) = overlap
    inverse = np.array([[s11, -s01], [-s10, s00]]) / (s00 * s11 - s01 * s10)

    def entropy(x):
        pairs = angle_pairs(x)
        a, b = pairs[:, first], pairs[:, second]
        # <(|0_i 1_j> - |1_i 0_j>)/sqrt(2) | a b>, the sign of dimer_product_state
        pair = (a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]) / np.sqrt(2.0)
        # elementwise only, one factor at a time: prod and @ round by batch
        # shape, and a row's value must not depend on the rows beside it
        g = pair[..., 0]
        for j in range(1, pair.shape[-1]):
            g = g * pair[..., j]
        coeffs = g[:, :1] * inverse[:, 0] + g[:, 1:] * inverse[:, 1]
        z = np.einsum("sa,sa->s", g.conj(), coeffs).real
        kept = z >= _Z_FLOOR
        es = np.zeros(len(x))
        es[kept] = span_entropies(blocks, coeffs[kept] / np.sqrt(z[kept])[:, None])
        return es, z

    return entropy


# (xbar, worst) coefficients of the expansion, outside and inside contraction
_NM_POINTS = np.array([[3.0, -2.0], [1.5, -0.5], [0.5, 0.5]])


def nelder_mead(f, x0: np.ndarray):
    """Minimize ``f`` from every row of ``x0`` (restarts x N) in lockstep.

    Each row takes the steps of scipy's Nelder-Mead (adaptive=False) with
    maxiter 3000, xatol 1e-8 and fatol 1e-10: the same initial simplex,
    coefficients, branch tests and per-row ``argsort``.  ``f`` maps (B, N)
    points to B values, and no call gets more points than there are rows:
    an iteration evaluates the reflections, then the expansion or
    contraction points, then, on a shrink, the new vertices in chunks of
    that size.  A row that has converged or used its iterations is
    frozen.  Returns the best vertex, its value, and the
    iterations and evaluations of every row.
    """
    count, n = x0.shape
    s = np.repeat(x0[:, None], n + 1, axis=1)
    d = np.arange(n)
    s[:, d + 1, d] = np.where(x0 != 0, 1.05 * x0, 0.00025)

    def evaluate(pts):
        return np.concatenate([f(pts[i:i + count]) for i in range(0, len(pts), count)])

    fs = evaluate(s.reshape(-1, n)).reshape(count, n + 1)
    sim, fsim = np.empty_like(s), np.empty_like(fs)
    nit = np.empty(count, int)
    nfev = np.full(count, n + 1)
    idx = np.arange(count)  # the rows still moving; s and fs hold only them

    def ordered(s, fs):
        order = np.argsort(fs, axis=1)
        rows = np.arange(len(fs))[:, None]
        return s[rows, order], fs[rows, order]

    # scipy sorts the first simplex twice, which can reorder ties
    s, fs = ordered(*ordered(s, fs))
    it = 1
    while True:
        done = (it >= 3000) | (
            (np.abs(s[:, 1:] - s[:, :1]).max(axis=(1, 2)) <= 1e-8)
            & (np.abs(fs[:, :1] - fs[:, 1:]).max(axis=1) <= 1e-10)
        )
        if done.any():
            sim[idx[done]], fsim[idx[done]], nit[idx[done]] = s[done], fs[done], it
            idx, s, fs = idx[~done], s[~done], fs[~done]
            if not idx.size:
                return sim[:, 0], fsim[:, 0], nit, nfev
        xbar = np.add.reduce(s[:, :-1], 1) / n
        worst = s[:, -1]
        xr = 2 * xbar - worst
        fxr = f(xr)
        expand = fxr < fs[:, 0]
        contract = ~expand & (fxr >= fs[:, -2])
        outside = contract & (fxr < fs[:, -1])
        two = np.flatnonzero(expand | contract)
        coef = _NM_POINTS[np.where(expand, 0, np.where(outside, 1, 2))[two]]
        pts = coef[:, :1] * xbar[two] + coef[:, 1:] * worst[two]
        fpts = f(pts) if two.size else fxr[two]
        take = np.where(
            expand[two], fpts < fxr[two],
            np.where(outside[two], fpts <= fxr[two], fpts < fs[two, -1]),
        )
        xr[two[take]], fxr[two[take]] = pts[take], fpts[take]
        shrink = np.zeros(len(idx), bool)
        shrink[two[~take]] = contract[two[~take]]
        s[~shrink, -1], fs[~shrink, -1] = xr[~shrink], fxr[~shrink]
        k = np.flatnonzero(shrink)
        if k.size:
            s[k, 1:] = s[k, :1] + 0.5 * (s[k, 1:] - s[k, :1])
            fs[k, 1:] = evaluate(s[k, 1:].reshape(-1, n)).reshape(len(k), n)
        nfev[idx] += 1 + (expand | contract) + n * shrink
        it += 1
        s, fs = ordered(s, fs)


def product_search(m: int, cuts, seed: int = 0, restarts: int = 8) -> list:
    """The search over product initial states that ``maximize_cooled_entropy``
    replaced: for each of ``cuts`` of the MG ring on 2m sites, the largest
    cooled entropy that ``restarts`` lockstep Nelder-Mead searches
    (``nelder_mead``) find from seeded random angles (2 per site) on
    ``span_objective``, and the (n, 2) local states of its product state,
    the first restart on ties.  Every cut's search starts from ``seed``.
    """
    n = 2 * m
    for cut in cuts:
        cut.validate(n)
    states = mg_dimer_states(m)
    out = []
    for cut in cuts:
        entropy = span_objective(states, cut)
        x0 = np.random.default_rng(seed).uniform(0.0, np.pi, (restarts, 2 * n))
        x, fun, _, _ = nelder_mead(lambda pts: -entropy(pts)[0], x0)
        best = int(np.argmin(fun))
        out.append((-fun[best], angle_pairs(x[best])))
    return out


def default_initial_state(spec) -> StateVector:
    """The model's default initial product state as a 2^n vector."""
    return product_state(default_initial_pairs(spec))


def heisenberg_gas_schmidt_state(m: int, k: int):
    """Angular-momentum coupling coefficients of the single-color cut.

    For a block of k same-color sites out of 2m, the cooled state couples
    the block's symmetric spin-k/2 with the rest.  Using integer labels
    a = M + k/2 (block) and b = p + m/2 (total black magnetization), the
    squared coefficient is C(k,a) C(m-k, b-a) / C(m, b) / (m+1).

    Returns (coefficients dict {(a, b): value}, reduced spectrum list over a).
    The spectrum is uniform, 1/(k + 1): the library's closed form is
    ``closed_forms.heisenberg_gas_block_entropy``.
    """
    if not (0 <= k <= m):
        raise ValidationError("k out of range")
    coeffs = {}
    spectrum = []
    for a in range(k + 1):
        lam_a = Fraction(0)
        for b in range(m + 1):
            if not (0 <= b - a <= m - k):
                continue
            c2 = Fraction(
                math.comb(k, a) * math.comb(m - k, b - a), math.comb(m, b)
            ) / (m + 1)
            sign = -1.0 if b % 2 else 1.0
            coeffs[(a, b)] = sign * math.sqrt(float(c2))
            lam_a += c2
        spectrum.append(float(lam_a))
    return coeffs, spectrum


def mg_ground_count(n):
    """Ground configurations of the Majumdar-Ghosh Ising limit on n sites.

    With bond variables b_i = s_i s_(i+1), the energy is
    sum_i ((1 + b_i)(1 + b_(i+1)) - 1)/2, so a ground configuration has no
    two neighbouring ferromagnetic bonds, and an even number of
    antiferromagnetic ones closes the ring.  A ring of n bonds has
    n/(n-k) C(n-k, k) such choices with k ferromagnetic bonds (k even for
    even n), and each gives two spin configurations."""
    return 2 * sum(n * math.comb(n - k, k) // (n - k) for k in range(0, n // 2 + 1, 2))


def ising_gas_asymptote(k: int, lam: float) -> float:
    """Leading-order block entropy (1/2) log2((1 - lam^2) k).

    Valid only for k << 2m.  The block weights are hypergeometric, with
    variance k p (1-p) (N-k)/(N-1) for N = 2m sites and p = (1+lam)/2, so
    at finite N the entropy gain per doubling of k is
    1/2 + (1/2) log2((N-2k)/(N-k)) rather than 1/2 (0.4126 at k=2048,
    N=20000).
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    if not (0.0 <= lam < 1.0):
        raise ValidationError("lambda must lie in [0, 1)")
    return 0.5 * math.log2((1.0 - lam * lam) * k)


def ising_gas_stirling_weights(k: int, lam: float):
    """Binomial weights e_i = C(k,i) (1+lam)^i (1-lam)^{k-i} / 2^k."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    if not (0.0 <= lam < 1.0):
        raise ValidationError("lambda must lie in [0, 1)")
    p = (1.0 + lam) / 2.0
    lw = np.array(
        [_lbinom(k, i) + i * math.log(p) + (k - i) * math.log1p(-p) for i in range(k + 1)]
    )
    w = np.exp(lw)
    return w / w.sum()



@dataclass(frozen=True)
class RVBState:
    """Plaquette-label Schmidt data of the fixed-density RVB superposition.

    ``c`` is the coefficient matrix over the orthonormalized system label l
    (vertical plaquettes among the k system plaquettes) and environment
    label r.  Its Schmidt weights (squared singular values) give the block
    entropy in the plaquette-label space.
    """

    m2: int
    s: int
    k: int
    c: np.ndarray

    def entropy(self) -> float:
        p = schmidt_weights(self.c)
        p = p / p.sum()
        return shannon_entropy(p)


def rvb_state(m2: int, d: float, k: int) -> RVBState:
    """Exact coefficient matrix of the density-d RVB state for a block of
    k whole plaquettes.

    c_{l,r} is proportional to sqrt(3^l C(k,l)) sqrt(3^r C(m2-k,r))
    C(m2-l-r, s-l-r), evaluated in log-space and normalized.
    """
    sf = d * m2
    s = round(sf)
    if abs(sf - s) > 1e-9 or not (0 <= s <= m2):
        raise ValidationError("d*m2 must be an integer vertical count in range")
    if not (0 < k < m2):
        raise ValidationError("k must satisfy 0 < k < m2")
    lmax = min(s, k)
    rmax = min(s, m2 - k)
    logs = np.full((lmax + 1, rmax + 1), -math.inf)
    for l in range(lmax + 1):
        for r in range(min(s - l, m2 - k) + 1):
            logs[l, r] = (
                0.5 * (l * math.log(3.0) + _lbinom(k, l))
                + 0.5 * (r * math.log(3.0) + _lbinom(m2 - k, r))
                + _lbinom(m2 - l - r, s - l - r)
            )
    finite = np.isfinite(logs)
    if not finite.any():
        raise ValidationError("empty coefficient matrix")
    c = np.where(finite, np.exp(logs - logs[finite].max()), 0.0)
    c = c / np.linalg.norm(c)
    return RVBState(m2=m2, s=s, k=k, c=c)


def _plaquette_pair_states():
    """The two orthonormal 4-spin plaquette states in the physical basis.

    Plaquette sites are ordered TL, TR, BL, BR as bits 0..3.  e0 is the
    horizontal singlet pair |HH>; e1 completes |VV> to an orthonormal pair
    via e1 = (2|VV> - |HH>)/sqrt(3), using <HH|VV> = 1/2.
    """
    hh = dimer_product_state(4, [(0, 1), (2, 3)]).amplitudes
    vv = dimer_product_state(4, [(0, 2), (1, 3)]).amplitudes
    e0 = hh
    e1 = (2.0 * vv - hh) / math.sqrt(3.0)
    return e0, e1


def rvb_cut_plaquette_entropy(m2: int, d: float) -> float:
    """Exact entropy of a cut slicing horizontally through one plaquette.

    The system side holds the top half (2 spins) of a single boundary
    plaquette; everything else, including the plaquette's bottom half, is
    environment.  As m2 grows this converges to the per-plaquette value
    E_pl(d) of the mean-field product state.

    When d*m2 is not an integer (odd lattices at d = 1/2) the vertical
    count is rounded to the nearest admissible sector.
    """
    s = min(max(round(d * m2), 0), m2)
    state = rvb_state(m2, s / m2, 1)
    e0, e1 = _plaquette_pair_states()
    # index basis 4-spin vector as [top, bottom] with top = bits 0,1
    el = np.stack([e0.reshape(4, 4, order="F"), e1.reshape(4, 4, order="F")])
    a = np.einsum("lr,ltb->tbr", state.c, el).reshape(4, -1)
    p = schmidt_weights(a)
    p = p / p.sum()
    return shannon_entropy(p)
