"""Frustration degree of a spin Hamiltonian.

The functional works on the Ising limit of the operator: every non-identity
Pauli letter becomes Z, constants are dropped, and isotropic Heisenberg
XX+YY+ZZ triples collapse to a single Z...Z term with the shared
coefficient (the classical collinear-vector reading).  All classical ground
configurations of the resulting diagonal operator are enumerated; for each,
the positive-energy terms are the frustrated ones, and

    F = Av over ground configs of (sum of positive term energies)
        / |sum of nonpositive term energies|.

No per-term energies are needed.  A term c s (s = +-1) adds
(|c| + c s)/2 to the positive sum and (c s - |c|)/2 to the other, so a
configuration of energy E has ratio (A + E)/(A - E) with A = sum |c|, and
the energies of all 2^n configurations are the operator's ``diagonal()``.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .models import IsingGasLR, MajumdarGhosh, ShastrySutherland, SingleBondIsing, build_model
from .spin_core import InternalConsistencyError, PauliOperator, ValidationError

ENUMERATION_CAP = 24


@dataclass(frozen=True)
class FrustrationReport:
    value: float
    num_ground_configs: int
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


def ising_limit(op: PauliOperator) -> PauliOperator:
    """Classical Ising limit of a Pauli operator.

    Identity-only terms are removed.  Any group of three terms on the same
    sites with the same coefficient and uniform letters X, Y, Z (the
    classical-vector reading) collapses to one Z-string at that shared
    coefficient; every other letter becomes Z.
    """
    n = op.num_sites
    buckets: dict[tuple, dict[str, float]] = {}
    for coeff, s in op.terms:
        support = tuple(i for i, ch in enumerate(s) if ch != "I")
        letters = {s[i] for i in support}
        if len(letters) == 1 and support:
            buckets.setdefault((support, coeff), {})[letters.pop()] = coeff
    terms = []
    consumed = set()
    for (support, coeff), by_letter in buckets.items():
        if set(by_letter) == {"X", "Y", "Z"}:
            terms.append((coeff, "".join("Z" if i in support else "I" for i in range(n))))
            for letter in "XYZ":
                s = "".join(letter if i in support else "I" for i in range(n))
                consumed.add((coeff, s))
    for coeff, s in op.terms:
        z_string = "".join("Z" if ch != "I" else "I" for ch in s)
        if (coeff, s) in consumed or set(z_string) == {"I"}:
            continue  # collapsed into a triple, or a constant term
        terms.append((coeff, z_string))
    return PauliOperator(n, tuple(terms))


def frustration_degree(op: PauliOperator) -> FrustrationReport:
    """Enumerate classical ground configurations and average the frustration ratio.

    The report's ``mode`` names the reading: "ising" for an operator that is
    already diagonal, "classical-vector" for one whose isotropic triples
    collapse.  A ground configuration within the ground tolerance of -A
    satisfies every term, and its ratio is exactly 0.
    """
    if op.num_sites > ENUMERATION_CAP:
        raise ValidationError(
            f"{op.num_sites} sites exceeds the enumeration cap of {ENUMERATION_CAP}"
        )
    h = ising_limit(op)
    if not h.terms:
        raise ValidationError("Ising limit has no terms")

    totals = h.diagonal()
    e_min = float(totals.min())
    tol = 1e-9 * max(float(np.abs(totals).max()), 1.0)
    ground = totals[totals <= e_min + tol]
    a = float(np.abs([c for c, _ in h.terms]).sum())
    if np.any(a - ground < 2e-12):
        raise InternalConsistencyError(
            "nonpositive-energy sum vanished on a ground configuration"
        )
    ratios = np.where(a + ground <= tol, 0.0, (a + ground) / (a - ground))
    return FrustrationReport(
        value=float(ratios.mean()),
        num_ground_configs=int(len(ground)),
        mode="ising" if op.is_diagonal() else "classical-vector",
    )


def ising_gas_frustration_formula(m: int, lam: float) -> float:
    """Closed-form F for the long-range Ising gas."""
    return (1.0 + 2.0 * lam - lam * lam - 1.0 / m) / (1.0 + lam) ** 2


def single_bond_frustration_formula(m: int) -> float:
    """Closed-form F = 1/(2m-1) for the single-flipped-bond ring."""
    return 1.0 / (2 * m - 1)


def shastry_sutherland_frustration_formula(j1: float, j2: float) -> float:
    """Closed-form F = 1/(1 + J2/(2 J1)) for the Shastry-Sutherland lattice
    (thermodynamic limit).  It describes the dimer regime J1/J2 <= 1/2
    only: above it the L = 4 enumeration gives J2/(4 J1) instead."""
    return 1.0 / (1.0 + 0.5 * (j2 / j1))


MG_FRUSTRATION = 0.5


def frustration_degree_model(spec) -> FrustrationReport:
    """Frustration degree of a model spec, with the closed form attached
    where one is known to hold (for the Shastry-Sutherland lattice, the
    dimer regime 2 J1 <= J2), else None."""
    rep = frustration_degree(build_model(spec))
    match spec:
        case IsingGasLR(m, lam, "frustrated"):
            closed = ising_gas_frustration_formula(m, lam)
        case SingleBondIsing(m, "frustrated"):
            closed = single_bond_frustration_formula(m)
        case MajumdarGhosh():
            closed = MG_FRUSTRATION
        case ShastrySutherland(_, j1, j2) if 2 * j1 <= j2:
            closed = shastry_sutherland_frustration_formula(j1, j2)
        case _:
            closed = None
    return replace(rep, closed_form=closed)
