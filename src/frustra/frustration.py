"""Frustration degree of a spin Hamiltonian.

The functional works on the Ising limit of the operator: every non-identity
Pauli letter becomes Z, constants are dropped, and isotropic Heisenberg
XX+YY+ZZ triples collapse to a single Z...Z term with the shared
coefficient (the classical collinear-vector reading).  All classical ground
configurations of the resulting diagonal operator are enumerated (its
``diagonal()`` gives the energy of every configuration at once); for each,
the positive-energy terms are the frustrated ones, and

    F = Av over ground configs of (sum of positive term energies)
        / |sum of nonpositive term energies|.

Only the ground configurations get a per-term energy table, built in
blocks of rows so that its memory stays bounded.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .spin_core import PauliOperator, ValidationError, _term_masks, popcount

ENUMERATION_CAP = 24
# Ground configurations per block of the term-energy table; each row sums
# on its own, so the block size changes memory, never the result.
_GROUND_ROWS = 1 << 12


class InternalConsistencyError(RuntimeError):
    """A should-be-impossible numerical condition (vanishing denominator)."""


@dataclass(frozen=True)
class FrustrationReport:
    value: float
    num_ground_configs: int
    per_config_ratios: tuple
    mode: str
    closed_form: float | None = None

    def to_json(self) -> str:
        return json.dumps(
            {
                "f": self.value,
                "closed_form": self.closed_form,
                "n_ground_configs": self.num_ground_configs,
                "mode": self.mode,
            },
            sort_keys=True,
        )


def ising_limit(op: PauliOperator, collapse_isotropic: bool = True) -> PauliOperator:
    """Classical Ising limit of a Pauli operator.

    Identity-only terms are removed.  With ``collapse_isotropic`` (the
    classical-vector reading), any group of three terms on the same sites
    with the same coefficient and uniform letters X, Y, Z collapses to one
    Z-string at that shared coefficient.
    """
    n = op.num_sites
    remaining = list(op.terms)
    collapsed = []
    if collapse_isotropic:
        buckets: dict[tuple, dict[str, float]] = {}
        for coeff, s in remaining:
            support = tuple(i for i, ch in enumerate(s) if ch != "I")
            letters = {s[i] for i in support}
            if len(letters) == 1 and support:
                buckets.setdefault((support, coeff), {})[letters.pop()] = coeff
        consumed = set()
        for (support, coeff), by_letter in buckets.items():
            if set(by_letter) == {"X", "Y", "Z"}:
                z_string = "".join("Z" if i in support else "I" for i in range(n))
                collapsed.append((coeff, z_string))
                for letter in "XYZ":
                    s = "".join(letter if i in support else "I" for i in range(n))
                    consumed.add((coeff, s))
        remaining = [t for t in remaining if t not in consumed]
    terms = list(collapsed)
    for coeff, s in remaining:
        z_string = "".join("Z" if ch != "I" else "I" for ch in s)
        if set(z_string) == {"I"}:
            continue  # constant term
        terms.append((coeff, z_string))
    return PauliOperator(n, tuple(terms))


def _term_energy_table(op: PauliOperator, configs: np.ndarray) -> np.ndarray:
    """Energies of every Z-term in every configuration: shape (nconf, nterms)."""
    coeffs = np.array([c for c, _ in op.terms])
    masks = np.array([_term_masks(s)[2] for _, s in op.terms], dtype=np.int64)
    return coeffs * (1.0 - 2.0 * (popcount(configs[:, None] & masks) & 1))


def frustration_degree(
    op: PauliOperator,
    mode: str = "classical-vector",
) -> FrustrationReport:
    """Enumerate classical ground configurations and average the frustration ratio.

    ``mode`` selects the Ising-limit reading: "classical-vector" collapses
    isotropic triples, "ising" replaces letters one for one.  Both coincide
    for operators that are already diagonal.
    """
    if mode not in ("ising", "classical-vector"):
        raise ValidationError(f"unknown mode {mode!r}")
    if op.num_sites > ENUMERATION_CAP:
        raise ValidationError(
            f"{op.num_sites} sites exceeds the enumeration cap of {ENUMERATION_CAP}"
        )
    h = ising_limit(op, collapse_isotropic=(mode == "classical-vector"))
    if not h.terms:
        raise ValidationError("Ising limit has no terms")

    totals = h.diagonal()
    e_min = float(totals.min())
    scale = max(float(np.abs(totals).max()), 1.0)
    ground = np.flatnonzero(totals <= e_min + 1e-9 * scale)

    pos = np.empty(len(ground))
    nonpos = np.empty(len(ground))
    for start in range(0, len(ground), _GROUND_ROWS):
        rows = slice(start, start + _GROUND_ROWS)
        tab = _term_energy_table(h, ground[rows])
        pos[rows] = np.where(tab > 0.0, tab, 0.0).sum(axis=1)
        nonpos[rows] = np.where(tab <= 0.0, tab, 0.0).sum(axis=1)
    if np.any(np.abs(nonpos) < 1e-12):
        raise InternalConsistencyError(
            "nonpositive-energy sum vanished on a ground configuration"
        )
    ratios = pos / np.abs(nonpos)
    return FrustrationReport(
        value=float(ratios.mean()),
        num_ground_configs=int(len(ground)),
        per_config_ratios=tuple(float(r) for r in ratios),
        mode=mode,
    )


def ising_gas_frustration_formula(m: int, lam: float) -> float:
    """Closed-form F for the long-range Ising gas."""
    return (1.0 + 2.0 * lam - lam * lam - 1.0 / m) / (1.0 + lam) ** 2


def single_bond_frustration_formula(m: int) -> float:
    """Closed-form F = 1/(2m-1) for the single-flipped-bond ring."""
    return 1.0 / (2 * m - 1)


def shastry_sutherland_frustration_formula(j1: float, j2: float) -> float:
    """Closed-form F for the Shastry-Sutherland lattice (thermodynamic limit)."""
    return 1.0 / (1.0 + 0.5 * (j2 / j1))


MG_FRUSTRATION = 0.5


def frustration_degree_model(spec) -> FrustrationReport:
    """Frustration degree of a model spec, with the closed form attached
    where one is known."""
    from .models import build_model

    h = build_model(spec)
    mode = "ising" if h.is_diagonal() else "classical-vector"
    rep = frustration_degree(h, mode=mode)
    closed = None
    if spec.kind == "IsingGasLR" and spec.sign == "frustrated":
        closed = ising_gas_frustration_formula(spec.m, spec.lam)
    elif spec.kind == "SingleBondIsing" and spec.sign == "frustrated":
        closed = single_bond_frustration_formula(spec.m)
    elif spec.kind == "MajumdarGhosh":
        closed = MG_FRUSTRATION
    elif spec.kind == "ShastrySutherland":
        closed = shastry_sutherland_frustration_formula(spec.j1, spec.j2)
    return replace(rep, closed_form=closed)
