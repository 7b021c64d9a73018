"""Cooling: projection of an initial product state onto the span of all
eigenstates at or below an energy threshold, followed by renormalization.

``cool`` is the one pipeline: energies, threshold, projection, then
renormalization and the phase fix.  The default threshold is the ground
manifold (lowest eigenvalue plus the degeneracy tolerance).  Operators
that are diagonal in the computational basis project by mask and never
build eigenvectors, so Ising-type models cool well beyond the dense
memory budget of ``diagonalize``; every other operator must fit it, and
projects one diagonalized block at a time.  ``cooled_entropy_scan`` cools
once and splits the state at every cut; ``maximize_cooled_entropy``
searches the Majumdar-Ghosh ground manifold for the product initial
state of largest cooled entropy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import build_model, mg_dimer_pairs, mg_dimer_states
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
    span_blocks,
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
    diagonal and never builds eigenvectors.  Any other operator projects
    block by block over ``diagonalize``: a block's kept eigenvectors are
    the prefix of its columns up to the threshold, and its amplitudes are
    replaced by their projection onto them, so no column is embedded in
    the full space.  Both keep the dtype of real amplitudes: the mask
    copies them, and the eigenvectors of a real operator are real.

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
    dec = None if h.is_diagonal() else diagonalize(h)
    energies = h.diagonal() if dec is None else dec.eigenvalues
    tol = degeneracy_tol(energies)
    thr = float(energies.min()) + tol if threshold == GROUND else float(threshold)
    if dec is None:
        amps = np.where(energies <= thr, amps, 0.0)
    else:
        out = np.zeros(len(amps), np.result_type(amps, _dtype(h)))
        for basis, values, vectors in dec.blocks:
            v = vectors[:, : np.searchsorted(values, thr, side="right")]
            # conjugating amps, not the kept columns, copies no column
            out[basis] = v @ (v.T @ amps[basis].conj()).conj()
        amps = out
    z = float(np.vdot(amps, amps).real)
    if z < _Z_FLOOR:
        raise OrthogonalInitialStateError(
            "initial state has no support below the threshold"
        )
    amps = amps / np.sqrt(z)
    mag = np.abs(amps)
    tied = np.flatnonzero(mag >= mag.max() * (1.0 - 1e-15))
    phase = amps[tied[0]] / mag[tied[0]]
    del mag  # no third 2^n array beside the old and new amplitudes
    amps = amps / phase
    amps[tied[0]] = np.abs(amps[tied]).max()
    kept = np.sort(energies[energies <= thr])
    dims = tuple((e, stop - start) for e, start, stop in manifolds(kept, tol))
    return CooledState(StateVector(initial.num_sites, amps), thr, z, dims)


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


def _angle_pairs(x: np.ndarray) -> np.ndarray:
    """Unit local states (cos t_i, e^{i phi_i} sin t_i) of the angles
    x = (..., t_0, phi_0, t_1, phi_1, ...), one row per site: an (n, 2)
    array for one point, (B, n, 2) for B of them."""
    t, ph = x[..., 0::2], x[..., 1::2]
    pairs = np.empty(t.shape + (2,), complex)
    pairs[..., 0] = np.cos(t)
    pairs[..., 1] = np.exp(1j * ph) * np.sin(t)
    return pairs


def _span_entropy(states, cut):
    """``entropy(x)``: for each row of the angles ``x`` (B x 2n), the block
    entropy across ``cut``, and z, of that product state cooled onto the
    span of the Majumdar-Ghosh dimer coverings ``states`` (G+, G-) of
    ``mg_dimer_states``; the entropy is 0 below the z floor.  Returns two
    arrays of B values.

    The overlaps g = (<G+|psi>, <G-|psi>) of a product state psi are
    products of the two-site singlet overlaps over the pairs of
    ``mg_dimer_pairs``, O(n) per row.  The cooled state's coordinates in
    the span are c = S^-1 g, with S the overlap matrix of G+ and G-, and
    z = g^H S^-1 g; the rows above the z floor go to ``span_entropies`` as
    c / sqrt(z).  No call forms a 2^n state.
    """
    first, second = np.array(mg_dimer_pairs(states[0].num_sites // 2)).transpose(2, 0, 1)
    blocks, overlap = span_blocks(states, cut)
    # the adjugate: np.linalg.inv would add LAPACK's gesv pages (0.2 MB) to peak RSS
    (s00, s01), (s10, s11) = overlap
    inverse = np.array([[s11, -s01], [-s10, s00]]) / (s00 * s11 - s01 * s10)

    def entropy(x):
        pairs = _angle_pairs(x)
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


def _nelder_mead(f, x0: np.ndarray):
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


def maximize_cooled_entropy(
    m: int,
    cuts,
    seed: int = 0,
    restarts: int = 8,
) -> list:
    """Maximize the cooled block entropy of the Majumdar-Ghosh ring on 2m
    sites over product initial states, for each of ``cuts``.

    Each site's local state is parametrized by two angles.  Per cut, the
    ``restarts`` Nelder-Mead searches from seeded random angles run in
    lockstep (``_nelder_mead``), so each step makes one batched call of
    the objective for all of them.  The ground manifold is the span of the
    dimer coverings (``mg_dimer_states``), so the objective
    (``_span_entropy``) takes no spectrum.  Every cut's search starts from
    ``seed``, so its result does not depend on the other cuts.  Returns,
    per cut, the best entropy found and the (n, 2) local states of its
    initial product state, the first restart on ties; ``cool`` with
    ``build_model(MajumdarGhosh(m))`` of their ``product_state`` gives
    that entropy.
    """
    n = 2 * m
    for cut in cuts:
        cut.validate(n)
    states = mg_dimer_states(m)
    out = []
    for cut in cuts:
        entropy = _span_entropy(states, cut)
        x0 = np.random.default_rng(seed).uniform(0.0, np.pi, (restarts, 2 * n))
        x, fun, _, _ = _nelder_mead(lambda pts: -entropy(pts)[0], x0)
        best = int(np.argmin(fun))
        out.append((-fun[best], _angle_pairs(x[best])))
    return out
