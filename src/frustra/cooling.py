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


def _cool_diagonal(h: PauliOperator, initial: StateVector, threshold, tol):
    diag = h.diagonal()
    e0 = float(diag.min())
    if tol is None:
        spread = float(diag.max() - e0)
        tol = 1e-9 * max(spread, 1.0)
    thr = e0 + tol if threshold == GROUND else float(threshold)
    mask = diag <= thr
    amps = np.where(mask, initial.amplitudes, 0.0)
    z = float(np.vdot(amps, amps).real)
    if z < _Z_FLOOR:
        raise OrthogonalInitialStateError(
            "initial state has no support below the threshold"
        )
    amps = _fix_phase(amps / np.sqrt(z))
    kept = np.sort(diag[mask])
    manifolds = tuple(_group_energies(kept, tol))
    return CooledState(StateVector(h.num_sites, amps), thr, z, manifolds)


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
    if not initial.is_normalized(tol=1e-10):
        raise ValidationError("initial state must be normalized")
    if h.num_sites != initial.num_sites:
        raise ValidationError("operator and state site counts differ")
    if h.is_diagonal():
        return _cool_diagonal(h, initial, threshold, degeneracy_tol)

    dec = diagonalize(h, degeneracy_tol=degeneracy_tol, cap=cap)
    thr = (
        float(dec.eigenvalues[0]) + dec.degeneracy_tol
        if threshold == GROUND
        else float(threshold)
    )
    keep = dec.eigenvalues <= thr
    if not np.any(keep):
        raise OrthogonalInitialStateError("no eigenstates at or below threshold")
    v = dec.columns(keep)
    coeffs = v.conj().T @ initial.amplitudes
    z = float(np.vdot(coeffs, coeffs).real)
    if z < _Z_FLOOR:
        raise OrthogonalInitialStateError(
            "initial state has no support below the threshold"
        )
    amps = _fix_phase((v @ coeffs) / np.sqrt(z))
    manifolds = tuple(_group_energies(dec.eigenvalues[keep], dec.degeneracy_tol))
    return CooledState(StateVector(h.num_sites, amps), thr, z, manifolds)


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
    if h.is_diagonal():
        diag = h.diagonal()
        tol = degeneracy_tol
        if tol is None:
            tol = 1e-9 * max(float(diag.max() - diag.min()), 1.0)
        levels = _group_energies(np.sort(diag), tol)
    else:
        dec = diagonalize(h, degeneracy_tol=degeneracy_tol, cap=cap)
        tol = dec.degeneracy_tol
        levels = _group_energies(dec.eigenvalues, tol)
    idx = min(manifold_count, len(levels)) - 1
    threshold = levels[idx][0] + tol
    return cool(h, initial, threshold, degeneracy_tol=tol, cap=cap)


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
        per_site = []
        for i in range(n):
            t, ph = x[2 * i], x[2 * i + 1]
            per_site.append((np.cos(t), np.exp(1j * ph) * np.sin(t)))
        return product_state(per_site)

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
