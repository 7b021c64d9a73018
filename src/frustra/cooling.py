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
    """The ascending energies of ``h``, their degeneracy tolerance, and
    ``projector(thr)``: a map from amplitudes to ``(projected amplitudes,
    z)`` for the span of the eigenstates at or below ``thr``.

    I/Z-only operators project by mask on the diagonal and never build
    eigenvectors; others go through ``diagonalize`` and embed the kept
    eigenvectors once per threshold, after checking their 2^n x kept
    elements against the dense memory budget.  Both keep the dtype of
    real amplitudes: the mask copies them, and the eigenvectors of a real
    operator are real.
    """
    if h.is_diagonal():
        diag = h.diagonal()
        energies = np.sort(diag)

        def projector(thr):
            mask = diag <= thr

            def project(amps):
                kept = np.where(mask, amps, 0.0)
                return kept, float(np.vdot(kept, kept).real)

            return project

    else:
        dec = diagonalize(h)
        energies = dec.eigenvalues

        def projector(thr):
            kept = energies <= thr
            _check_dense_bytes(_dtype(h).itemsize * int(kept.sum()) << h.num_sites)
            v = dec.columns(kept)

            def project(amps):
                # conjugating amps, not the kept columns, copies no column
                coeffs = (v.T @ amps.conj()).conj()
                return v @ coeffs, float(np.vdot(coeffs, coeffs).real)

            return project

    return energies, degeneracy_tol(energies), projector


def _threshold(threshold, energies: np.ndarray, tol: float) -> float:
    """An absolute threshold, or the top of the ground manifold for GROUND."""
    return float(energies[0]) + tol if threshold == GROUND else float(threshold)


def _finish(project, initial: StateVector, thr: float, energies, tol) -> CooledState:
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
    kept = energies[: np.searchsorted(energies, thr, side="right")]
    dims = tuple((e, stop - start) for e, start, stop in manifolds(kept, tol))
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
    energies, tol, projector = _spectrum(h)
    thr = _threshold(threshold, energies, tol)
    return _finish(projector(thr), initial, thr, energies, tol)


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
    energies, tol, projector = _spectrum(h)
    levels = manifolds(energies, tol)
    thr = levels[min(manifold_count, len(levels)) - 1][0] + tol
    return _finish(projector(thr), initial, thr, energies, tol)


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
    energies, tol, projector = _spectrum(h)
    out = []
    for threshold in thresholds:
        thr = _threshold(threshold, energies, tol)
        cooled = _finish(projector(thr), initial, thr, energies, tol)
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


def maximize_cooled_entropy(
    h: PauliOperator,
    cut: Bipartition,
    seed: int = 0,
    restarts: int = 8,
):
    """Maximize the cooled block entropy over product initial states.

    Each site's local state is parametrized by two angles; Nelder-Mead with
    seeded random restarts searches the product family.  Returns the best
    (entropy, CooledState, initial StateVector) triple found.  The
    spectrum obeys the dense memory budget, as in ``cool``.
    """
    from scipy.optimize import minimize

    n = h.num_sites
    cut.validate(n)
    rng = np.random.default_rng(seed)

    energies, tol, projector = _spectrum(h)
    thr = _threshold(GROUND, energies, tol)
    ground = projector(thr)

    def make_initial(x):
        t, ph = x[0::2], x[1::2]
        return product_state(np.stack([np.cos(t), np.exp(1j * ph) * np.sin(t)], axis=1))

    def objective(x):
        amps, z = ground(make_initial(x).amplitudes)
        if z < _Z_FLOOR:
            return 0.0
        return -block_entropy(StateVector(n, amps / np.sqrt(z)), cut)

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
    initial = make_initial(best_x)
    return best_val, _finish(ground, initial, thr, energies, tol), initial
