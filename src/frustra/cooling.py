"""Cooling: projection of an initial product state onto the span of all
eigenstates at or below an energy threshold, followed by renormalization.

The default threshold is the ground manifold (lowest eigenvalue plus the
degeneracy tolerance).  Operators that are diagonal in the computational
basis take a fast path that never builds eigenvectors, so Ising-type models
cool quickly well beyond the dense-diagonalization cap.
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
    block_entropy,
    diagonalize,
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


def _fix_phase(amps: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude amplitude real and positive."""
    i = int(np.argmax(np.abs(amps)))
    ph = amps[i] / abs(amps[i])
    return amps / ph


def _group_energies(vals: np.ndarray, tol: float):
    groups = []
    start = 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or vals[i] - vals[start] > tol:
            groups.append((float(vals[start]), i - start))
            start = i
    return groups


def _default_tol(energies: np.ndarray) -> float:
    return 1e-9 * max(float(energies.max() - energies.min()), 1.0)


def _level_threshold(energies: np.ndarray, tol: float, count: int) -> float:
    """Threshold just above the ``count``-th lowest manifold of the sorted
    ``energies``, or above the highest one when there are fewer."""
    levels = _group_energies(energies, tol)
    return levels[min(count, len(levels)) - 1][0] + tol


def _check_initial(h: PauliOperator, initial: StateVector) -> None:
    if not initial.is_normalized(tol=1e-10):
        raise ValidationError("initial state must be normalized")
    if h.num_sites != initial.num_sites:
        raise ValidationError("operator and state site counts differ")


def _renormalize(amps: np.ndarray, z: float, num_sites: int, thr, kept, tol) -> CooledState:
    """Renormalize projected amplitudes of squared norm ``z`` and fix the phase."""
    if z < _Z_FLOOR:
        raise OrthogonalInitialStateError(
            "initial state has no support below the threshold"
        )
    amps = _fix_phase(amps / np.sqrt(z))
    manifolds = tuple(_group_energies(kept, tol))
    return CooledState(StateVector(num_sites, amps), thr, z, manifolds)


def _project_diagonal(diag: np.ndarray, initial: StateVector, thr: float, tol: float):
    """Keep the basis states of energy ``diag`` at or below ``thr``."""
    mask = diag <= thr
    amps = np.where(mask, initial.amplitudes, 0.0)
    z = float(np.vdot(amps, amps).real)
    return _renormalize(amps, z, initial.num_sites, thr, np.sort(diag[mask]), tol)


def _project_spectral(dec, initial: StateVector, thr: float):
    """Project onto the eigenvectors of ``dec`` at or below ``thr``."""
    keep = dec.eigenvalues <= thr
    if not np.any(keep):
        raise OrthogonalInitialStateError("no eigenstates at or below threshold")
    v = dec.columns(keep)
    coeffs = v.conj().T @ initial.amplitudes
    z = float(np.vdot(coeffs, coeffs).real)
    return _renormalize(
        v @ coeffs, z, initial.num_sites, thr, dec.eigenvalues[keep], dec.degeneracy_tol
    )


def cool(
    h: PauliOperator,
    initial: StateVector,
    threshold=GROUND,
    degeneracy_tol: float | None = None,
    cap: int | None = None,
) -> CooledState:
    """Project ``initial`` onto the eigenspaces of ``h`` at or below the
    threshold and renormalize.

    ``threshold`` is either an absolute energy or the string "ground",
    which selects the ground manifold only.  Raises
    OrthogonalInitialStateError when the projection has (numerically) zero
    norm.  The global phase is fixed by making the largest amplitude real
    positive, so repeated runs serialize identically.
    """
    _check_initial(h, initial)
    if h.is_diagonal():
        diag = h.diagonal()
        tol = _default_tol(diag) if degeneracy_tol is None else degeneracy_tol
        thr = float(diag.min()) + tol if threshold == GROUND else float(threshold)
        return _project_diagonal(diag, initial, thr, tol)
    dec = diagonalize(h, degeneracy_tol=degeneracy_tol, cap=cap)
    thr = (
        float(dec.eigenvalues[0]) + dec.degeneracy_tol
        if threshold == GROUND
        else float(threshold)
    )
    return _project_spectral(dec, initial, thr)


def cool_excited(
    h: PauliOperator,
    initial: StateVector,
    manifold_count: int,
    degeneracy_tol: float | None = None,
    cap: int | None = None,
) -> CooledState:
    """Cool into the span of the lowest ``manifold_count`` energy manifolds."""
    if manifold_count < 1:
        raise ValidationError("manifold_count must be >= 1")
    _check_initial(h, initial)
    if h.is_diagonal():
        diag = h.diagonal()
        tol = _default_tol(diag) if degeneracy_tol is None else degeneracy_tol
        thr = _level_threshold(np.sort(diag), tol, manifold_count)
        return _project_diagonal(diag, initial, thr, tol)
    dec = diagonalize(h, degeneracy_tol=degeneracy_tol, cap=cap)
    thr = _level_threshold(dec.eigenvalues, dec.degeneracy_tol, manifold_count)
    return _project_spectral(dec, initial, thr)


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


def cooled_entropy_scan(spec, initial, thresholds, cuts, cap: int | None = None) -> list:
    """Cool once per threshold and report the block entropy for every cut.

    Rows come out ordered by (threshold index, cut index), so output is
    deterministic.  ``cap`` is the dense site cap passed to ``cool``.
    """
    from .models import build_model

    h = build_model(spec)
    out = []
    for thr in thresholds:
        cooled = cool(h, initial, thr, cap=cap)
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
    maxiter: int = 3000,
    cap: int | None = None,
):
    """Maximize the cooled block entropy over product initial states.

    Each site's local state is parametrized by two angles; Nelder-Mead with
    seeded random restarts searches the product family.  Returns the best
    (entropy, CooledState, initial StateVector) triple found.  ``cap`` is
    the dense site cap.
    """
    from scipy.optimize import minimize

    n = h.num_sites
    cut.validate(n)
    rng = np.random.default_rng(seed)

    # diagonalize once; the search loop only needs the ground-space basis
    ground = diagonalize(h, cap=cap).ground_manifold()

    def make_initial(x):
        t, ph = x[0::2], x[1::2]
        return product_state(np.stack([np.cos(t), np.exp(1j * ph) * np.sin(t)], axis=1))

    def objective(x):
        coeffs = ground.conj().T @ make_initial(x).amplitudes
        z = float(np.vdot(coeffs, coeffs).real)
        if z < _Z_FLOOR:
            return 0.0
        projected = StateVector(n, (ground @ coeffs) / np.sqrt(z))
        return -block_entropy(projected, cut)

    best_val = -1.0
    best_x = None
    for _ in range(restarts):
        x0 = rng.uniform(0.0, np.pi, 2 * n)
        res = minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={"maxiter": maxiter, "fatol": 1e-10, "xatol": 1e-8},
        )
        if -res.fun > best_val:
            best_val = -res.fun
            best_x = res.x
    initial = make_initial(best_x)
    cooled = cool(h, initial, cap=cap)
    return best_val, cooled, initial
