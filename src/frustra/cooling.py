"""Cooling: projection of an initial product state onto the span of all
eigenstates at or below an energy threshold, followed by renormalization.

``cool`` is the one pipeline: energies, threshold, projection, then
renormalization and the phase fix.  The default threshold is the ground
manifold (lowest eigenvalue plus the degeneracy tolerance).  Operators
that are diagonal in the computational basis project by mask and never
build eigenvectors, so Ising-type models cool well beyond the dense
memory budget of ``diagonalize``; every other operator must fit it, and
projects onto one ``(basis, values, vectors)`` block of ``diagonalize``
at a time, calling ``vectors`` only for the blocks it projects onto.
``cooled_entropy_scan`` cools once and splits the state at every cut,
or reads every cut from the known ground manifold of the Majumdar-Ghosh
ring, the Heisenberg gas, the Ising gas or the single-bond ring, with no
spectrum and no 2^n vector; ``maximize_cooled_entropy`` searches the
directions of the Majumdar-Ghosh ground manifold for the cooled state of
largest entropy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_forms import (
    dicke_block_weights,
    heisenberg_gas_block_entropy,
    log2_binomial,
    single_bond_block_entropy,
)
from .models import (
    HeisenbergGasLR,
    IsingGasLR,
    MajumdarGhosh,
    SingleBondIsing,
    build_model,
    couplings,
    mg_span_blocks,
    popcount_energies,
)
from .spin_core import (
    OrthogonalInitialStateError,
    PauliOperator,
    StateVector,
    ValidationError,
    _dtype,
    block_entropy,
    degeneracy_tol,
    diagonalize,
    manifolds,
    product_state,
    shannon_entropy,
    site_pairs,
    span_entropies,
)

GROUND = "ground"

_Z_FLOOR = 1e-14

# a singlet overlap |u0 v1 - u1 v0| of two unit pairs at or below this is zero
_SINGLET_ZERO = 1e-14

# unit-pair magnitudes that differ by at most this count as equal
_SAME_MAGNITUDE = 1e-14

# log2 of the smallest normal float64: a z below it would lose digits
_LOG2_TINY = math.log2(np.finfo(float).tiny)


@dataclass(frozen=True)
class CooledState:
    """Result of the cooling projection.

    ``z`` is the squared norm of the projected (pre-normalization) state;
    ``manifold_dims`` lists (eigenvalue, multiplicity) for every retained
    degenerate manifold.
    """

    state: StateVector
    threshold: float
    z: float
    manifold_dims: tuple

    @property
    def num_retained(self) -> int:
        return sum(d for _, d in self.manifold_dims)


def cool(
    h: PauliOperator,
    initial: StateVector,
    threshold=GROUND,
) -> CooledState:
    """Project ``initial`` onto the eigenspaces of ``h`` at or below the
    threshold and renormalize: the one cooling pipeline.

    ``threshold`` is either an absolute energy or the string "ground",
    which selects the ground manifold only (the lowest energy plus the
    degeneracy tolerance).  An I/Z-only operator projects by mask on its
    diagonal and never builds eigenvectors: the kept configurations where
    ``initial`` is nonzero are found once, and z, the normalization and
    the phase fix work on their amplitudes alone before they are
    scattered into the output.  Any other operator projects block by
    block over ``diagonalize``: a block's kept eigenvectors are the
    prefix of its columns up to the threshold, and the projection of its
    amplitudes onto them is added to the output at its basis (two blocks
    may share a basis, the two flip halves of a middle sector), so no
    column is embedded in the full space.  Only a block that keeps an
    eigenvalue and on whose basis ``initial`` is nonzero calls its
    ``vectors``; the energies (the blocks' values, concatenated, with the
    kept ones sorted), the threshold and the manifolds need the
    eigenvalues alone.  A threshold at or above every level keeps every
    state: the projection is the identity, so the initial amplitudes are
    renormalized as the mask path does, and no block calls its
    ``vectors``.  Both keep the dtype of real amplitudes: the mask copies
    them, and the eigenvectors of a real operator are real.

    Raises ValidationError for a NaN threshold, OrthogonalInitialStateError
    when the projection has (numerically) zero norm, and SizeLimitError
    when ``h`` is not I/Z-only and its diagonalization does not fit the
    dense memory budget.  The
    global phase is fixed by making the largest amplitude real and
    positive, so repeated runs serialize identically: the amplitude made
    real is the first within 1e-15 of the largest magnitude, and it takes
    the largest magnitude after the rotation, so that a tied amplitude
    cannot overtake it through the rotation's rounding and stay complex.
    """
    if not initial.is_normalized(tol=1e-10):
        raise ValidationError("initial state must be normalized")
    if h.num_sites != initial.num_sites:
        raise ValidationError("operator and state site counts differ")
    if threshold != GROUND and math.isnan(threshold):
        raise ValidationError("the threshold is nan")
    amps = initial.amplitudes
    blocks = None if h.is_diagonal() else diagonalize(h)
    energies = h.diagonal() if blocks is None else np.concatenate([v for _, v, _ in blocks])
    tol = degeneracy_tol(energies)
    thr = float(energies.min()) + tol if threshold == GROUND else float(threshold)
    keep = energies <= thr
    kept = np.sort(energies[keep])
    dims = tuple((e, stop - start) for e, start, stop in manifolds(kept, tol))
    del energies  # the diagonal is not held beside the output
    masked = blocks is None or keep.all()  # an I/Z operator, or the identity projection
    if masked:
        keep &= amps != 0  # the kept configurations where the initial state is nonzero
        psi = amps[keep]
    else:
        psi = np.zeros(len(amps), np.result_type(amps, _dtype(h)))
        for basis, values, vectors in blocks:
            kept = np.searchsorted(values, thr, side="right")
            a = amps[basis]
            if kept and a.any():  # else the block adds exact zeros
                v = vectors()[:, :kept]
                # conjugating amps, not the kept columns, copies no column
                psi[basis] += v @ (v.T @ a.conj()).conj()
    z = float(np.vdot(psi, psi).real)
    if z < _Z_FLOOR:
        raise OrthogonalInitialStateError(
            "initial state has no support below the threshold"
        )
    psi = psi / np.sqrt(z)
    mag = np.abs(psi)
    tied = np.flatnonzero(mag >= mag.max() * (1.0 - 1e-15))
    phase = psi[tied[0]] / mag[tied[0]]
    del mag  # no third 2^n array beside the old and new amplitudes
    psi = psi / phase
    psi[tied[0]] = np.abs(psi[tied]).max()
    if masked:  # the kept amplitudes into the whole space
        out = np.zeros(len(amps), psi.dtype)
        out[keep] = psi
        psi = out
    return CooledState(StateVector(initial.num_sites, psi), thr, z, dims)


@dataclass(frozen=True)
class EntropyReport:
    """One row of a cooling/entropy scan."""

    model: str
    params: str
    threshold: float
    k: int
    cut_spec: str
    entropy: float
    z: float

    CSV_HEADER = "model,params,threshold,k,cut_spec,entropy,z"

    def to_csv_row(self) -> str:
        return (
            f"{self.model},{self.params},{self.threshold:.12g},{self.k},"
            f"{self.cut_spec},{self.entropy:.12g},{self.z:.12g}"
        )


def reports_to_csv(reports) -> str:
    lines = [EntropyReport.CSV_HEADER]
    lines += [r.to_csv_row() for r in reports]
    return "\n".join(lines) + "\n"


def _singlet_log_overlaps(pairs, i, j):
    """log2 |d| and the phase d / |d| of d = u0 v1 - u1 v0, the singlet
    overlap times sqrt(2), of each pair of sites i[t], j[t], with the unit
    pairs u = pairs[i[t]] and v = pairs[j[t]]; None when one d is zero."""
    d = pairs[i, 0] * pairs[j, 1] - pairs[i, 1] * pairs[j, 0]
    size = np.abs(d)
    if np.any(size <= _SINGLET_ZERO):
        return None
    return np.log2(size), d / size


def _check_log2_z(log2_z: float) -> None:
    """Refuse a projection weight z below float64's smallest normal number."""
    if log2_z < _LOG2_TINY:
        raise ValidationError(
            f"the projection weight z = 2^{log2_z:.6g} is below the smallest "
            f"normal float64 (2^{_LOG2_TINY:g})")


def _ground_threshold(e0: float, spread: float) -> float:
    """The ``GROUND`` threshold of ``cool`` for a spectrum from ``e0`` to
    ``e0 + spread``."""
    return e0 + degeneracy_tol(np.array([e0, e0 + spread]))


def _mg_ground(spec: MajumdarGhosh, pairs, ks):
    """Threshold, z and the entropy of each cut [0, k) of ``ks`` for the
    Majumdar-Ghosh product state of unit ``pairs`` cooled to the ground
    manifold span(G+, G-), from ``mg_span_blocks`` alone.

    G+ pairs the sites (2i, 2i+1) and G- the sites (2i+1, 2i+2 mod n)
    in singlets, so g_a = <G_a|psi> is the product of the n/2 singlet
    overlaps d/sqrt(2) of covering a, kept as log2 |g_a| and a phase so
    that no n underflows it.  The projection of psi is sum_a c_a G_a with
    c = S^-1 g, S the overlap of the coverings (the traces of the span
    blocks), and z = g^H S^-1 g.  Both g_a are scaled by 2 to the minus
    their larger log2 before the solve, and c to a largest entry of 1
    before ``span_entropies``, which divides by the norm itself.  The
    ground energy is -3n/2 and the spectral spread 3n.
    """
    n = 2 * spec.m
    even = np.arange(0, n, 2)
    logs, phases = [], []
    for i in (even, even + 1):  # G+, G-
        found = _singlet_log_overlaps(pairs, i, (i + 1) % n)
        logs.append(-np.inf if found is None else float(found[0].sum()) - spec.m / 2.0)
        phases.append(0.0 if found is None else np.prod(found[1]))
    top = max(logs)
    if top == -np.inf:
        raise OrthogonalInitialStateError("initial state has no support below the threshold")
    g = np.array(phases) * np.exp2(np.array(logs) - top)
    blocks = mg_span_blocks(spec, ks)
    c = np.linalg.solve(np.einsum("baii->ab", blocks[0]), g)
    weight = float(np.vdot(g, c).real)
    _check_log2_z(2.0 * top + math.log2(weight))
    coords = (c / np.abs(c).max())[None]
    entropies = [float(span_entropies(b, coords)[0]) for b in blocks]
    return _ground_threshold(-1.5 * n, 3.0 * n), weight * 2.0 ** (2.0 * top), entropies


def _gas_ground(spec: HeisenbergGasLR, pairs, ks):
    """Threshold, z and the entropy of each cut [0, k) of ``ks`` for the
    Heisenberg-gas product state of unit ``pairs`` cooled to the ground
    manifold (total spin 0), or None unless every black site (0..m-1)
    holds one pair u and every white site one pair v.

    Then psi lies in Sym^m tensor Sym^m, spin m/2 tensor spin m/2, which
    holds one singlet, so psi cools to it whatever u and v are, with the
    entropies of ``heisenberg_gas_block_entropy`` and z = |u0 v1 -
    u1 v0|^(2m)/(m + 1).  The ground energy is -3/2 and the spectral
    spread m + 1.
    """
    m = spec.m
    u, v = pairs[0], pairs[m]
    if not ((pairs[:m] == u).all() and (pairs[m:] == v).all()):
        return None
    found = _singlet_log_overlaps(pairs, 0, m)
    if found is None:
        raise OrthogonalInitialStateError("initial state has no support below the threshold")
    log2_d = float(found[0])
    _check_log2_z(2 * m * log2_d - math.log2(m + 1))
    z = 2.0 ** (2 * m * log2_d) / (m + 1)
    return _ground_threshold(-1.5, m + 1.0), z, [heisenberg_gas_block_entropy(m, k) for k in ks]


def _ising_ground(spec: IsingGasLR, pairs, ks):
    """Threshold, z and the entropy of each cut [0, k) of ``ks`` for the
    Ising-gas product state of unit ``pairs`` cooled to the ground
    configurations, or None unless they fill one popcount sector and
    every site's pair has the same magnitudes (|u0|, |u1|).

    The energy depends on the popcount alone (``popcount_energies`` of
    the spec's ``couplings``).  With n0 zeros and p ones kept, psi cools
    to the Dicke state of n0 zeros up to the local phases of the pairs,
    whose block spectra are ``dicke_block_weights``, and z = C(n, p)
    |u0|^(2 n0) |u1|^(2p), summed in log2.  A zero magnitude that the
    sector needs makes z zero, and raises.
    """
    n, parts = couplings(spec)
    energies = popcount_energies(n, parts)
    thr = _ground_threshold(energies.min(), np.ptp(energies))
    kept = np.flatnonzero(energies <= thr)
    mags = np.abs(pairs)
    if len(kept) != 1 or np.ptp(mags, axis=0).max() > _SAME_MAGNITUDE:
        return None
    p = int(kept[0])
    counts = [(n - p, float(mags[0, 0])), (p, float(mags[0, 1]))]
    if any(c and a == 0.0 for c, a in counts):
        raise OrthogonalInitialStateError("initial state has no support below the threshold")
    log2_z = log2_binomial(n, p) + sum(2 * c * math.log2(a) for c, a in counts if c)
    _check_log2_z(log2_z)
    entropies = [shannon_entropy(w) for w in dicke_block_weights(n, n - p, ks)]
    return thr, 2.0 ** log2_z, entropies


def _single_bond_ground(spec: SingleBondIsing, pairs, ks):
    """Threshold, z and the entropy of each cut [0, k) of ``ks`` for the
    frustrated single-bond ring's product state of unit ``pairs`` cooled
    to its 4m ground configurations, or None for the unfrustrated sign or
    unless |u0| = |u1| on every site.

    Then every ground configuration has the same amplitude up to the
    local phases of the pairs, so psi cools to their uniform superposition
    (``closed_forms.single_bond_cooled_state``), with the entropies of
    ``single_bond_block_entropy`` and z = 4m prod_i |u_i0|^2, summed in
    log2.  The ground energy is -(n - 2) and the spectral spread 2n - 4.
    """
    n = 2 * spec.m
    mags = np.abs(pairs)
    if spec.sign != "frustrated" or np.abs(mags[:, 0] - mags[:, 1]).max() > _SAME_MAGNITUDE:
        return None
    log2_z = math.log2(4 * spec.m) + 2.0 * float(np.log2(mags[:, 0]).sum())
    _check_log2_z(log2_z)
    return (_ground_threshold(2.0 - n, 2.0 * n - 4), 2.0 ** log2_z,
            [single_bond_block_entropy(spec.m, k) for k in ks])


# the specs whose ground manifold ``cooled_entropy_scan`` knows
_KNOWN_GROUNDS = {MajumdarGhosh: _mg_ground, HeisenbergGasLR: _gas_ground,
                  IsingGasLR: _ising_ground, SingleBondIsing: _single_bond_ground}


def cooled_entropy_scan(spec, pairs, threshold, cuts) -> list:
    """Cool the product state of the per-site amplitude ``pairs``
    (``spin_core.site_pairs``) once and report the block entropy for every
    cut, one row per cut in the order given.  Every cut is validated
    before the spectrum is built.

    Pairs cooled to the ``GROUND`` of a spec of ``_KNOWN_GROUNDS``, cut
    only at [0, k), take the known ground manifold: no spectrum and no
    2^n vector.  ``_mg_ground`` serves every MG input; ``_gas_ground``
    (one pair on all black sites, one on all white), ``_ising_ground``
    (one popcount sector kept, the same magnitudes on every site) and
    ``_single_bond_ground`` (the frustrated sign, |u0| = |u1| on every
    site) return None for the pairs they do not serve.  On the route z is
    refused only when it is zero (an exactly orthogonal singlet overlap,
    or a zero magnitude that the kept sector needs) or below float64's
    smallest normal number, not under the 1e-14 floor of ``cool``, which
    absorbs eigenvector rounding.  Every other input goes through ``cool``
    on ``product_state(pairs)`` and ``block_entropy``, the route's test
    oracle.
    """
    pairs = site_pairs(pairs)
    for cut in cuts:
        cut.validate(len(pairs))
    ground = _KNOWN_GROUNDS.get(type(spec))
    result = None
    if (threshold == GROUND and ground is not None and len(pairs) == 2 * spec.m
            and all(c.system_sites == tuple(range(len(c.system_sites))) for c in cuts)):
        result = ground(spec, pairs, [len(cut.system_sites) for cut in cuts])
    if result is None:
        initial = product_state(pairs)  # an oversized state is refused before the operator
        cooled = cool(build_model(spec), initial, threshold)
        result = cooled.threshold, cooled.z, [block_entropy(cooled.state, cut) for cut in cuts]
    thr, z, entropies = result
    return [
        EntropyReport(
            model=spec.kind,
            params=spec.to_json().replace(",", ";"),
            threshold=thr,
            k=len(cut.system_sites),
            cut_spec="+".join(str(s) for s in cut.system_sites),
            entropy=e,
            z=z,
        )
        for cut, e in zip(cuts, entropies)
    ]


def _golden_section(f, a: float, b: float):
    """The point of [a, b] where the scalar function ``f`` is largest, and
    its value, by golden-section search down to a bracket of 1e-9.  Near a
    smooth maximum the value is then off by about 1e-18 times the
    curvature, below the rounding of ``f``."""
    g = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = b - g * (b - a), a + g * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > 1e-9:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + g * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - g * (b - a)
            f1 = f(x1)
    return (x1, f1) if f1 >= f2 else (x2, f2)


# grid points over the directions [0, pi) before the golden-section step
_GRID = 64


def maximize_cooled_entropy(spec: MajumdarGhosh, ks) -> list:
    """Maximize the cooled block entropy of the Majumdar-Ghosh ring of
    ``spec`` over product initial states, for each contiguous cut [0, k)
    of ``ks``.  Returns, per cut, the entropy and the maximising span
    direction c = (cos t, sin t).

    The ground manifold is span(G+, G-), so a product state psi cools to
    the span state c = S^-1 g, g = (<G+|psi>, <G-|psi>), with S the
    overlap of the coverings; its entropy depends on psi only through
    the direction of c.  The search runs over the real directions: a
    grid of ``_GRID`` angles t on [0, pi) (c and -c are one state), then
    a golden-section search between the best angle's two neighbours,
    on the blocks of ``mg_span_blocks`` and ``span_entropies``.  No 2^n
    vector is formed, and nothing is random.

    Every real direction is reached by a real product state, so searching
    the directions is enough.  With local states (cos t_i, sin t_i), a
    singlet (i, j) has overlap sin(t_j - t_i)/sqrt(2).  Take t_0 = 0, t_1
    = alpha, t_2 = alpha + pi/4 and steps of pi/2 from there: every
    singlet then has overlap 1/sqrt(2) in size except G+'s (0, 1),
    sin(alpha)/sqrt(2), G-'s (1, 2), 1/2, and G-'s wrap (2m-1, 0),
    (-1)^(m+1) cos(alpha + pi/4)/sqrt(2).  So g- / g+ = (-1)^(m+1)
    cos(alpha + pi/4) / (sqrt(2) sin alpha), which runs continuously over
    the whole real line as alpha runs over (0, pi), and alpha = 0 gives
    g+ = 0.  Since S is invertible, c = S^-1 g then turns through every
    real direction too: alpha = atan2(s u, s u - 2v), s = (-1)^m, makes g
    parallel to (u, v) = S c.  Complex directions are not searched; a
    grid over the complex sphere found none above the real maximum at
    n <= 16.
    """
    out = []
    for blocks in mg_span_blocks(spec, ks):
        def entropy(t):
            return span_entropies(blocks, np.stack([np.cos(t), np.sin(t)], axis=-1).reshape(-1, 2))

        step = np.pi / _GRID
        grid = entropy(step * np.arange(_GRID))
        best = int(np.argmax(grid))
        t, e = _golden_section(lambda t: float(entropy(t)[0]), step * (best - 1),
                               step * (best + 1))
        if e < grid[best]:
            t, e = step * best, float(grid[best])
        out.append((e, np.array([np.cos(t % np.pi), np.sin(t % np.pi)])))
    return out
