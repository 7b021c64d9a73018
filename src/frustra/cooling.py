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
    schmidt_weights,
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
    ``projector(thr)``: a map from amplitudes to ``(projected amplitudes,
    z)`` for the span of the eigenstates at or below ``thr``, and
    ``columns(thr)``: an orthonormal basis of that span, one 2^n column
    per kept eigenstate.

    I/Z-only operators project by mask on the diagonal and never build
    eigenvectors; their columns are the unit vectors of the kept basis
    states.  The ground energy and the spread come from the diagonal's
    min and max, and ``below`` sorts only the energies it keeps.  Others
    go through ``diagonalize``, and their projector embeds the kept
    eigenvectors once per threshold through ``columns``.  ``columns``
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

        def projector(thr):
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

    def projector(thr):
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
    real and positive; the retained manifolds are the energies up to ``thr``."""
    amps, z = project(initial.amplitudes)
    if z < _Z_FLOOR:
        raise OrthogonalInitialStateError(
            "initial state has no support below the threshold"
        )
    amps = amps / np.sqrt(z)
    top = amps[np.argmax(np.abs(amps))]
    amps = amps / (top / abs(top))
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
    x = (t_0, phi_0, t_1, phi_1, ...), one row per site."""
    t, ph = x[0::2], x[1::2]
    pairs = np.empty((len(t), 2), complex)
    pairs[:, 0] = np.cos(t)
    pairs[:, 1] = np.exp(1j * ph) * np.sin(t)
    return pairs


def _manifold_entropy(v: np.ndarray, cut: Bipartition):
    """``entropy(x)``: the block entropy across ``cut``, and z, of the
    product state with angles ``x`` cooled onto the span of the
    orthonormal columns ``v`` (2^n x d); the entropy is 0 below the z floor.

    Each column is rearranged once into its Schmidt matrix A_a, flattened,
    and the product state psi is built in that same order of sites.  Then
    c = A^H psi are the cooled state's coordinates in the span, z = |c|^2,
    and sum_a c_a A_a is its Schmidt matrix, so a call costs O(d 2^n) and
    forms no projected 2^n state.
    """
    n = v.shape[0].bit_length() - 1
    axes = _schmidt_axes(n, cut)
    # complex once, so that no step casts real columns to meet complex psi;
    # the columns and this copy count against the dense memory budget
    _check_dense_bytes((v.itemsize + 16) * v.shape[1] << n)
    tensor = v.reshape((2,) * n + (-1,)).transpose(axes + [n])
    a = np.ascontiguousarray(tensor, dtype=complex).reshape(1 << n, -1).T
    # the sites of the flattened Schmidt index, least significant first
    sites = [n - 1 - ax for ax in reversed(axes)]
    rows = 1 << len(cut.system_sites)

    def entropy(x):
        pairs = _angle_pairs(x)[sites]
        psi = pairs[0]
        for pair in pairs[1:]:
            psi = (pair[:, None] * psi).ravel()
        coeffs = (a @ psi.conj()).conj()
        z = float(np.vdot(coeffs, coeffs).real)
        if z < _Z_FLOOR:
            return 0.0, z
        return _entropy_bits(schmidt_weights((coeffs @ a).reshape(rows, -1)) / z), z

    return entropy


def maximize_cooled_entropy(
    h: PauliOperator,
    cuts,
    seed: int = 0,
    restarts: int = 8,
) -> list:
    """Maximize the cooled block entropy over product initial states, for
    each of ``cuts``.

    Each site's local state is parametrized by two angles; Nelder-Mead with
    seeded random restarts searches the product family.  The search runs
    in the d coordinates of the ground manifold (``_manifold_entropy``), so
    a step costs O(d 2^n) and builds no projected state.  One spectrum and
    one set of ground columns serve every cut, and every cut's search
    starts from ``seed``, so its result does not depend on the other cuts.
    Returns, per cut, the best (entropy, CooledState, initial StateVector)
    triple found; the state is the one ``cool`` gives for that initial
    state.  The spectrum and the ground columns obey the dense memory
    budget, as in ``cool``.
    """
    from scipy.optimize import minimize

    n = h.num_sites
    for cut in cuts:
        cut.validate(n)
    ground, tol, below, projector, columns = _spectrum(h)
    thr = _threshold(GROUND, ground, tol)
    v = columns(thr)
    project = projector(thr)
    out = []
    for cut in cuts:
        entropy = _manifold_entropy(v, cut)
        rng = np.random.default_rng(seed)

        def objective(x):
            return -entropy(x)[0]

        best_val = -1.0
        best_x = None
        for _ in range(restarts):
            x0 = rng.uniform(0.0, np.pi, 2 * n)
            res = minimize(
                objective,
                x0,
                method="Nelder-Mead",
                options={"maxiter": 3000, "fatol": 1e-10, "xatol": 1e-8},
            )
            if -res.fun > best_val:
                best_val = -res.fun
                best_x = res.x
        initial = product_state(_angle_pairs(best_x))
        out.append((best_val, _finish(project, initial, thr, below, tol), initial))
    return out
