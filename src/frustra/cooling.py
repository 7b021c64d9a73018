"""Cooling: projection of an initial product state onto the span of all
eigenstates at or below an energy threshold, followed by renormalization.

The default threshold is the ground manifold (lowest eigenvalue plus the
degeneracy tolerance).  Operators that are diagonal in the computational
basis take a fast path that never builds eigenvectors, so Ising-type models
cool quickly well beyond the dense memory budget of ``diagonalize``, which
every other operator must fit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spin_core import (
    Bipartition,
    OrthogonalInitialStateError,
    PauliOperator,
    StateVector,
    ValidationError,
    _check_dense_bytes,
    _dtype,
    _entropy_bits,
    _schmidt_axes,
    block_entropy,
    degeneracy_tol,
    diagonalize,
    manifolds,
    product_state,
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


def _check_initial(h: PauliOperator, initial: StateVector) -> None:
    if not initial.is_normalized(tol=1e-10):
        raise ValidationError("initial state must be normalized")
    if h.num_sites != initial.num_sites:
        raise ValidationError("operator and state site counts differ")


def _spectrum(h: PauliOperator):
    """The ground energy of ``h``, the degeneracy tolerance of its
    spectrum, ``below(thr)``: the ascending energies at or below ``thr``,
    ``projector(thr, v=None)``: a map from amplitudes to ``(projected
    amplitudes, z)`` for the span of the eigenstates at or below ``thr``,
    and ``columns(thr)``: an orthonormal basis of that span, one 2^n
    column per kept eigenstate.

    I/Z-only operators project by mask on the diagonal and never build
    eigenvectors; their columns are the unit vectors of the kept basis
    states, and their projector ignores ``v``.  The ground energy and the
    spread come from the diagonal's min and max, and ``below`` sorts only
    the energies it keeps.  Others go through ``diagonalize``, and their
    projector projects onto ``v``, the caller's ``columns(thr)``, or
    embeds the kept eigenvectors itself when ``v`` is None.  ``columns``
    checks its 2^n x kept elements against the dense memory budget before
    it builds them.  Both keep the dtype of real amplitudes: the mask
    copies them, and the eigenvectors of a real operator are real.
    """
    n = h.num_sites
    if h.is_diagonal():
        diag = h.diagonal()
        ground = float(diag.min())

        def below(thr):
            return np.sort(diag[diag <= thr])

        def columns(thr):
            idx = np.flatnonzero(diag <= thr)
            _check_dense_bytes(8 * len(idx) << n)
            out = np.zeros((1 << n, len(idx)))
            out[idx, np.arange(len(idx))] = 1.0
            return out

        def projector(thr, v=None):
            mask = diag <= thr

            def project(amps):
                kept = np.where(mask, amps, 0.0)
                return kept, float(np.vdot(kept, kept).real)

            return project

        return ground, degeneracy_tol(diag), below, projector, columns

    dec = diagonalize(h)
    energies = dec.eigenvalues

    def below(thr):
        return energies[: np.searchsorted(energies, thr, side="right")]

    def columns(thr):
        kept = energies <= thr
        _check_dense_bytes(_dtype(h).itemsize * int(kept.sum()) << n)
        return dec.columns(kept)

    def projector(thr, v=None):
        if v is None:
            v = columns(thr)

        def project(amps):
            # conjugating amps, not the kept columns, copies no column
            coeffs = (v.T @ amps.conj()).conj()
            return v @ coeffs, float(np.vdot(coeffs, coeffs).real)

        return project

    return float(energies[0]), dec.degeneracy_tol, below, projector, columns


def _threshold(threshold, ground: float, tol: float) -> float:
    """An absolute threshold, or the top of the ground manifold for GROUND."""
    return ground + tol if threshold == GROUND else float(threshold)


def _finish(project, initial: StateVector, thr: float, below, tol) -> CooledState:
    """Project ``initial``, renormalize, and make the largest amplitude
    real and positive; the retained manifolds are the energies up to ``thr``.

    The amplitude made real is the first within 1e-15 of the largest
    magnitude, and it takes the largest magnitude after the rotation, so
    that a tied amplitude cannot overtake it through the rotation's
    rounding and stay complex.
    """
    amps, z = project(initial.amplitudes)
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
    dims = tuple((e, stop - start) for e, start, stop in manifolds(below(thr), tol))
    return CooledState(StateVector(initial.num_sites, amps), thr, z, dims)


def cool(
    h: PauliOperator,
    initial: StateVector,
    threshold=GROUND,
) -> CooledState:
    """Project ``initial`` onto the eigenspaces of ``h`` at or below the
    threshold and renormalize.

    ``threshold`` is either an absolute energy or the string "ground",
    which selects the ground manifold only.  Raises
    OrthogonalInitialStateError when the projection has (numerically) zero
    norm.  The global phase is fixed by making the largest amplitude real
    positive, so repeated runs serialize identically.  Raises
    SizeLimitError when ``h`` is not I/Z-only and its diagonalization, or
    the kept eigenvectors embedded in the full space, do not fit the dense
    memory budget.
    """
    _check_initial(h, initial)
    ground, tol, below, projector, _ = _spectrum(h)
    thr = _threshold(threshold, ground, tol)
    return _finish(projector(thr), initial, thr, below, tol)


def cool_excited(
    h: PauliOperator,
    initial: StateVector,
    manifold_count: int,
) -> CooledState:
    """Cool into the span of the lowest ``manifold_count`` energy manifolds
    (all of them when there are fewer)."""
    if manifold_count < 1:
        raise ValidationError("manifold_count must be >= 1")
    _check_initial(h, initial)
    _, tol, below, projector, _ = _spectrum(h)
    levels = manifolds(below(np.inf), tol)
    thr = levels[min(manifold_count, len(levels)) - 1][0] + tol
    return _finish(projector(thr), initial, thr, below, tol)


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


def cooled_entropy_scan(spec, initial, thresholds, cuts) -> list:
    """Cool once per threshold, from one spectrum, and report the block
    entropy for every cut.

    Rows come out ordered by (threshold index, cut index), so output is
    deterministic.  The spectrum obeys the dense memory budget, as in
    ``cool``.
    """
    from .models import build_model

    h = build_model(spec)
    _check_initial(h, initial)
    ground, tol, below, projector, _ = _spectrum(h)
    out = []
    for threshold in thresholds:
        thr = _threshold(threshold, ground, tol)
        cooled = _finish(projector(thr), initial, thr, below, tol)
        for cut in cuts:
            cut.validate(h.num_sites)
            e = block_entropy(cooled.state, cut)
            out.append(
                EntropyReport(
                    model=spec.kind,
                    params=spec.to_json().replace(",", ";"),
                    threshold=cooled.threshold,
                    k=len(cut.system_sites),
                    cut_spec="+".join(str(s) for s in cut.system_sites),
                    entropy=e,
                    z=cooled.z,
                )
            )
    return out


def _angle_pairs(x: np.ndarray) -> np.ndarray:
    """Unit local states (cos t_i, e^{i phi_i} sin t_i) of the angles
    x = (..., t_0, phi_0, t_1, phi_1, ...), one row per site: an (n, 2)
    array for one point, (B, n, 2) for B of them."""
    t, ph = x[..., 0::2], x[..., 1::2]
    pairs = np.empty(t.shape + (2,), complex)
    pairs[..., 0] = np.cos(t)
    pairs[..., 1] = np.exp(1j * ph) * np.sin(t)
    return pairs


def _manifold_entropy(v: np.ndarray, cut: Bipartition):
    """``entropy(x)``: for each row of the angles ``x`` (B x 2n), the block
    entropy across ``cut``, and z, of that product state cooled onto the
    span of the orthonormal columns ``v`` (2^n x d); the entropy is 0 below
    the z floor.  Returns two arrays of B values.

    Each column is rearranged once into its Schmidt matrix A_a, flattened,
    and the product states psi are built in that same order of sites.
    Then c = psi A^* are the cooled states' coordinates in the span,
    z = |c|^2, and the rows of c A, reshaped, are their Schmidt matrices;
    one batched Gram and ``eigvalsh`` give every row's weights.  A call
    costs O(B d 2^n) and forms no projected 2^n state.  The columns, their
    complex copy and the B rows of product states and Schmidt matrices
    count against the dense memory budget.
    """
    n = v.shape[0].bit_length() - 1
    axes = _schmidt_axes(n, cut)
    # complex once, so that no step casts real columns to meet complex psi
    fixed = (v.itemsize + 16) * v.shape[1] << n
    _check_dense_bytes(fixed)
    tensor = v.reshape((2,) * n + (-1,)).transpose(axes + [n])
    a = np.ascontiguousarray(tensor, dtype=complex).reshape(1 << n, -1).T
    # the sites of the flattened Schmidt index, least significant first
    sites = [n - 1 - ax for ax in reversed(axes)]
    rows = 1 << len(cut.system_sites)

    def entropy(x):
        # psi, its conjugate and the Schmidt matrices: 48 bytes a row amplitude
        _check_dense_bytes(fixed + (48 * len(x) << n))
        pairs = _angle_pairs(x)[:, sites]
        psi = pairs[:, 0]
        for j in range(1, n):
            psi = (pairs[:, j, :, None] * psi[:, None]).reshape(len(x), -1)
        coeffs = (psi.conj() @ a.T).conj()
        z = (coeffs.conj() * coeffs).real.sum(axis=-1)
        m = (coeffs @ a).reshape(len(x), rows, -1)
        mh = m.conj().swapaxes(1, 2)
        gram = m @ mh if rows <= m.shape[2] else mh @ m
        empty = z < _Z_FLOOR
        weights = np.linalg.eigvalsh(gram) / np.where(empty, 1.0, z)[:, None]
        return np.where(empty, 0.0, _entropy_bits(weights, axis=-1)), z

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
    h: PauliOperator,
    cuts,
    seed: int = 0,
    restarts: int = 8,
) -> list:
    """Maximize the cooled block entropy over product initial states, for
    each of ``cuts``.

    Each site's local state is parametrized by two angles.  Per cut, the
    ``restarts`` Nelder-Mead searches from seeded random angles run in
    lockstep (``_nelder_mead``), so each step makes one batched call of
    the objective for all of them.  The objective works in the d
    coordinates of the ground manifold (``_manifold_entropy``), so a row
    costs O(d 2^n) and builds no projected state.  One spectrum and one
    set of ground columns serve every cut and the final projection, and
    every cut's search starts from ``seed``, so its result does not depend
    on the other cuts.  Returns, per cut, the best (entropy, CooledState,
    initial StateVector) triple found, the first restart on ties; the
    state is the one ``cool`` gives for that initial state.  The spectrum,
    the ground columns and the search batch obey the dense memory budget,
    as in ``cool``.
    """
    n = h.num_sites
    for cut in cuts:
        cut.validate(n)
    ground, tol, below, projector, columns = _spectrum(h)
    thr = _threshold(GROUND, ground, tol)
    v = columns(thr)
    project = projector(thr, v)
    out = []
    for cut in cuts:
        entropy = _manifold_entropy(v, cut)
        x0 = np.random.default_rng(seed).uniform(0.0, np.pi, (restarts, 2 * n))
        x, fun, _, _ = _nelder_mead(lambda pts: -entropy(pts)[0], x0)
        best = int(np.argmin(fun))
        initial = product_state(_angle_pairs(x[best]))
        out.append((-fun[best], _finish(project, initial, thr, below, tol), initial))
    return out
