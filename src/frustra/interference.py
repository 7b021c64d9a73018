"""Constructive and destructive interference of entanglement.

Compares the block entropy of a superposition against the average block
entropy of its labeled components.  Ratios above 1 mean the superposition
carries more entanglement than its parts on average (constructive); below
1, less (destructive).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .spin_core import ValidationError
from .closed_forms import BoundaryPath, rvb_boundary_entropy

VERDICT_TOL = 1e-6


class IncomparableError(ValidationError):
    """Raised when a ratio is requested against a zero denominator."""


@dataclass(frozen=True)
class InterferenceReport:
    e_super: float
    e_avg: float
    ratio: float
    verdict: str


def make_report(e_super: float, e_avg: float) -> InterferenceReport:
    if e_avg <= 0.0:
        raise IncomparableError("average entropy is zero; ratio undefined")
    ratio = e_super / e_avg
    if ratio > 1.0 + VERDICT_TOL:
        verdict = "constructive"
    elif ratio < 1.0 - VERDICT_TOL:
        verdict = "destructive"
    else:
        verdict = "marginal"
    return InterferenceReport(e_super, e_avg, ratio, verdict)


def rvb_average_entropy(d: float, path: BoundaryPath) -> float:
    """Average entropy over HH/VV configurations: Ebar = 2hd + 2v(1-d).

    A horizontally-intersected plaquette contains vertical singlets with
    probability d and then contributes two cut singlets, and mirrored for
    vertical intersections.
    """
    if not (0.0 <= d <= 1.0):
        raise ValidationError("d must lie in [0, 1]")
    return 2.0 * path.h * d + 2.0 * path.v * (1.0 - d)


_PATH_SHAPES = {
    "square": BoundaryPath(1, 1),
    "horizontal": BoundaryPath(1, 0),
    "vertical": BoundaryPath(0, 1),
}


def rvb_interference_curve(shape: str, d_grid):
    """Ratio E/Ebar along a density grid for a boundary shape.

    Returns a list of (d, ratio, skipped) triples; points where the average
    entropy vanishes are flagged as skipped with ratio NaN.
    """
    if shape not in _PATH_SHAPES:
        raise ValidationError(f"unknown path shape {shape!r}")
    path = _PATH_SHAPES[shape]
    out = []
    for d in d_grid:
        if not (0.0 < d < 1.0):
            raise ValidationError("grid densities must lie strictly in (0, 1)")
        e_avg = rvb_average_entropy(d, path)
        if e_avg <= 0.0:
            out.append((float(d), math.nan, True))
            continue
        e = rvb_boundary_entropy(d, path)
        out.append((float(d), e / e_avg, False))
    return out


def curve_to_tsv(curve) -> str:
    lines = ["d\tratio"]
    for d, ratio, skipped in curve:
        if skipped:
            continue
        lines.append(f"{d:.12g}\t{ratio:.12g}")
    return "\n".join(lines) + "\n"


def covering_interference(m: int, k: int) -> InterferenceReport:
    """Heisenberg-gas singlet coverings: superposition vs component average.

    The components are the m! coverings that pair each black site 0..m-1
    with a white site m..2m-1 by a singlet; the cut takes sites 0..k-1.
    With c = min(k, 2m - k), e_super = log2(c + 1) and e_avg = c.

    Superposition.  A permutation of the blacks, or of the whites, maps
    the set of coverings onto itself, so their sum is symmetric among the
    blacks and among the whites: it lies in spin m/2 (blacks) tensor spin
    m/2 (whites).  Every covering is an SU(2) singlet, so the sum is too,
    and spin m/2 tensor spin m/2 holds exactly one singlet.  (The sum is
    not zero: with every singlet written from black to white, two
    coverings overlap by 2^(loops - m) > 0.)  Its reduced
    state on the blacks is P_sym^(m)/(m + 1).  For k <= m the block holds
    k blacks; their reduced state commutes with every U tensor ... tensor U
    and lives on the symmetric subspace, an irreducible representation, so
    by Schur's lemma it is P_sym^(k)/(k + 1): uniform over k + 1 levels.
    For k > m the complement holds the 2m - k whites k..2m-1, and the same
    argument gives 2m - k + 1 levels.

    Average.  A product of singlets has one bit of entropy per singlet the
    cut splits.  For k <= m each block site is black and pairs with a
    white outside the block; for k > m each of the 2m - k whites outside
    pairs with a black inside.  Every covering splits exactly c singlets.
    """
    if not (1 <= k < 2 * m):
        raise ValidationError("k out of range")
    c = min(k, 2 * m - k)
    return make_report(math.log2(c + 1), float(c))
