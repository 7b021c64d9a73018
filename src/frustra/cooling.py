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
``cooled_entropy_scan`` cools once and splits the state at every cut;
``maximize_cooled_entropy`` searches the directions of the
Majumdar-Ghosh ground manifold for the cooled state of largest entropy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import MajumdarGhosh, build_model, mg_span_blocks
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
    span_entropies,
)

GROUND = "ground"

_Z_FLOOR = 1e-14


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
    eigenvalues alone.  Both keep the dtype of real
    amplitudes: the mask copies them, and the eigenvectors of a real
    operator are real.

    Raises OrthogonalInitialStateError when the projection has
    (numerically) zero norm, and SizeLimitError when ``h`` is not I/Z-only
    and its diagonalization does not fit the dense memory budget.  The
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
    amps = initial.amplitudes
    blocks = None if h.is_diagonal() else diagonalize(h)
    energies = h.diagonal() if blocks is None else np.concatenate([v for _, v, _ in blocks])
    tol = degeneracy_tol(energies)
    thr = float(energies.min()) + tol if threshold == GROUND else float(threshold)
    keep = energies <= thr
    kept = np.sort(energies[keep])
    dims = tuple((e, stop - start) for e, start, stop in manifolds(kept, tol))
    del energies  # the diagonal is not held beside the output
    if blocks is None:
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
    if blocks is None:  # the kept amplitudes into the whole space
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


def cooled_entropy_scan(spec, initial, threshold, cuts) -> list:
    """Cool once and report the block entropy for every cut, one row per
    cut in the order given.  Every cut is validated before ``cool`` takes
    the spectrum."""
    h = build_model(spec)
    for cut in cuts:
        cut.validate(h.num_sites)
    cooled = cool(h, initial, threshold)
    return [
        EntropyReport(
            model=spec.kind,
            params=spec.to_json().replace(",", ";"),
            threshold=cooled.threshold,
            k=len(cut.system_sites),
            cut_spec="+".join(str(s) for s in cut.system_sites),
            entropy=block_entropy(cooled.state, cut),
            z=cooled.z,
        )
        for cut in cuts
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
