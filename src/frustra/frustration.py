"""Frustration degree of a spin Hamiltonian.

The functional works on the Ising limit of the operator: every non-identity
Pauli letter becomes Z, constants are dropped, and isotropic Heisenberg
XX+YY+ZZ triples collapse to a single Z...Z term with the shared
coefficient (the classical collinear-vector reading).  Over the classical
ground configurations of the resulting diagonal operator, the
positive-energy terms are the frustrated ones, and

    F = Av over ground configs of (sum of positive term energies)
        / |sum of nonpositive term energies|.

No per-term energies are needed.  A term c s (s = +-1) adds
(|c| + c s)/2 to the positive sum and (c s - |c|)/2 to the other, so a
configuration of energy E has ratio (A + E)/(A - E) with A = sum |c|.
A configuration is a ground one when its energy is within the ground
tolerance 1e-9 * max(max |E|, 1) of the lowest, E0.

``frustration_degree`` enumerates all 2^n energies, the operator's
``diagonal()``, and averages the ratio over the ground configurations; it
stops at ENUMERATION_CAP sites.  ``frustration_degree_model`` reads E0,
the exact ground count and F from the parts of ``models.couplings``
instead, whose Ising limit is one Z...Z term per group at the part's
coefficient, whatever its letters; it builds no operator:

- the gases have all-to-all parts, so E depends on the popcount alone
  (``models.popcount_energies``): the count is a sum of binomials over
  the ground sectors and F their mean ratio, in O(n);
- the rings (Majumdar-Ghosh, the single-bond ring, the Shastry-Sutherland
  torus cut into rows) take a min-plus transfer over their slices, traced
  around the ring, in O(n/s 2^(3s)) for slices of s sites, and F is one
  division, (A + E0)/(A - E0).  The count stands when every tie of the
  transfer lies far inside the tolerance; levels that split by less than
  the tolerance are enumerated, or refused past ENUMERATION_CAP sites.

Ground counts are Python ints; one with more digits than Python converts
to text is refused, and so is a transfer past the dense memory budget,
past TRANSFER_SUMS sums or with a non-finite A or energy.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .models import (
    HeisenbergGasLR,
    IsingGasLR,
    MajumdarGhosh,
    RVBPlaquette,
    ShastrySutherland,
    SingleBondIsing,
    build_model,
    couplings,
    popcount_energies,
)
from .spin_core import (
    InternalConsistencyError,
    PauliOperator,
    SizeLimitError,
    ValidationError,
    _check_dense_bytes,
    _z_energies,
)

ENUMERATION_CAP = 24
TRANSFER_SUMS = 1 << 30
_TO_Z = str.maketrans("XY", "ZZ")


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
    # one bucket per (Z-string, coefficient): the letters of the
    # single-letter terms with that support and coefficient
    buckets: dict[tuple, set] = {}
    for coeff, s in op.terms:
        letters = set(s) - {"I"}
        if len(letters) == 1:
            buckets.setdefault((s.translate(_TO_Z), coeff), set()).update(letters)
    triples = {key for key, letters in buckets.items() if len(letters) == 3}
    terms = [(coeff, z) for z, coeff in buckets if (z, coeff) in triples]
    for coeff, s in op.terms:
        z = s.translate(_TO_Z)
        if "Z" not in z or ((z, coeff) in triples and len(set(s) - {"I"}) == 1):
            continue  # a constant term, or collapsed into a triple
        terms.append((coeff, z))
    return PauliOperator(op.num_sites, tuple(terms))


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


def _check_count_digits(log10_count: float) -> None:
    """Refuse a ground count of more digits than Python converts to text."""
    limit = sys.get_int_max_str_digits()
    if limit and log10_count >= limit:
        raise ValidationError(
            f"the ground count has {math.floor(log10_count) + 1} digits, "
            f"over Python's int-to-str limit of {limit}")


def _weight(n: int, parts) -> float:
    """A = sum |c| over the Ising-limit terms: |coefficient| times the
    number of groups, over the parts."""
    return sum(abs(c) * (math.comb(n, g) if isinstance(g, int) else len(g)) for c, _, g in parts)


def _report(a: float, parts, levels, tol: float, count: int) -> FrustrationReport:
    """The report of the ground levels, pairs (E, w) of an energy and its
    share of the ground count: f is the mean of (A + E)/(A - E) over them,
    a ratio being exactly 0 when E is within the ground tolerance of -A;
    the mode is "ising" when every letter of the parts is Z."""
    if a == 0.0:
        raise ValidationError("Ising limit has no terms")
    if any(a - e < 2e-12 for e, _ in levels):
        raise InternalConsistencyError("nonpositive-energy sum vanished on a ground configuration")
    f = math.fsum(w * (0.0 if a + e <= tol else (a + e) / (a - e)) for e, w in levels)
    mode = "ising" if all(letters == "Z" for _, letters, _ in parts) else "classical-vector"
    return FrustrationReport(value=f, num_ground_configs=count, mode=mode)


def _gas_frustration(spec) -> FrustrationReport:
    """The report of a gas, whose parts are all-to-all, from its
    ``popcount_energies`` E(p).  The ground sectors are the p within the
    ground tolerance of the lowest E(p), the count is the sum of C(n, p)
    over them, and f the mean of the ratio weighted by C(n, p), as the
    enumeration takes it.  The count's digits are checked from lgamma
    before any binomial is formed.
    """
    n, parts = couplings(spec)
    _check_dense_bytes(48 * (n + 1))
    e = popcount_energies(n, parts)
    e0 = float(e.min())
    tol = 1e-9 * max(float(np.abs(e).max()), 1.0)
    ground = np.flatnonzero(e <= e0 + tol).tolist()
    logs = [math.lgamma(n + 1) - math.lgamma(p + 1) - math.lgamma(n - p + 1) for p in ground]
    top = max(logs)
    _check_count_digits((top + math.log(sum(math.exp(x - top) for x in logs))) / math.log(10))
    combs = [math.comb(n, p) for p in ground]
    count = sum(combs)
    levels = [(float(e[p]), c / count) for p, c in zip(ground, combs)]
    return _report(_weight(n, parts), parts, levels, tol, count)


def _min_plus(e: np.ndarray, t: np.ndarray, tol=None, c=None):
    """One transfer step: the minima over k of e[i, k] + t[k, j] and, given
    the counts c of e and tolerances tol = (fine, wide), the sums of
    c[i, k] over the k within wide of each minimum, and whether any of
    those k lies more than fine above it.  The d x d x d sums are formed a
    block of rows at a time."""
    rows = max(1, (1 << 20) // t.size)
    out_e = np.empty_like(e)
    out_c = None if c is None else np.empty_like(c)
    split = False
    for lo in range(0, len(e), rows):
        q = e[lo:lo + rows, :, None] + t
        out_e[lo:lo + rows] = low = q.min(axis=1)
        if c is not None:
            ties = q <= low[:, None, :] + tol[1]
            split = split or np.count_nonzero(ties) != np.count_nonzero(q <= low[:, None, :] + tol[0])
            out_c[lo:lo + rows] = np.einsum("ik,ikj->ij", c[lo:lo + rows], ties)
    return out_e, out_c, split


def _trace(ts: np.ndarray, tol=None, dtype=None):
    """The min-plus product of the slice matrices around the ring: per
    state of slice 0, the lowest energy of the configurations that start
    and end there, and, given tol = (fine, wide), their count within wide
    and whether any product split its ties (``_min_plus``)."""
    e, c, split = ts[0], None if tol is None else np.ones(ts[0].shape, dtype), False
    for t in ts[1:]:
        e, c, step_split = _min_plus(e, t, tol, c)
        split |= step_split
    return e.diagonal(), None if c is None else c.diagonal(), split


def _slice_terms(n: int, parts, width: int) -> list:
    """The Ising-limit terms of the parts, one per group, as (weight,
    mask) pairs on each link a of the S = n / width slices of width sites,
    the mask holding the group's sites on slice a in its high width bits
    and those on slice a + 1 mod S in its low ones.  A group that joins
    slices 0 and S - 1 sits on the wrap link S - 1."""
    slices = n // width
    links = [[] for _ in range(slices)]
    for coeff, _, groups in parts:
        sites = np.array(groups, dtype=np.int64)
        at, bits = sites // width, 1 << (sites % width)
        first, last = at.min(axis=1), at.max(axis=1)
        link = np.where((first == 0) & (last == slices - 1), last, first)
        on_a, on_next = at == link[:, None], at == (link[:, None] + 1) % slices
        apart = np.flatnonzero(~(on_a | on_next).all(axis=1))
        if len(apart):
            raise ValidationError(f"group {groups[apart[0]]} joins slices that are not neighbours")
        masks = ((bits * on_a).sum(axis=1) << width) | (bits * on_next).sum(axis=1)
        for a, mask in zip(link.tolist(), masks.tolist()):
            links[a].append((coeff, mask))
    return links


def _ring_frustration(spec, width: int) -> FrustrationReport:
    """The report of a model whose parts live on a ring of S = n / width
    slices, from a min-plus transfer (Kramers and Wannier, Phys. Rev. 60,
    252 (1941)) over its slice matrices T_a[x, y], the ``_z_energies`` of
    the terms of link a, at slice states x (the high half) and y.  Links
    with the same terms share one matrix, formed once per call.

    A configuration's energy is sum_a T_a[x_a, x_(a+1)], x_S = x_0.  Two
    float passes give the lowest and the highest energy, hence the ground
    tolerance; a third counts, per product, the paths within it of each
    minimum, in int64 while no entry can pass 2^62 and in Python ints
    beyond.  Every ground configuration is among those counted, but
    excesses under the tolerance at several products could add up past
    it.  So the count stands only when no product, nor the trace, has a
    tie more than fine = 1e-4 tol / S above its minimum: then every
    counted configuration lies within 1e-4 tol of E0, and the count is the
    enumeration's.  Otherwise the built operator is enumerated up to
    ENUMERATION_CAP sites and refused beyond.  Raises, before any matrix
    is formed, SizeLimitError past the dense memory budget or
    TRANSFER_SUMS sums, and ValidationError for a non-finite A; and
    ValidationError for non-finite energies, before the count.
    """
    n, parts = couplings(spec)
    slices, d = n // width, 1 << width
    _check_dense_bytes(8 * d * d * (slices + 6))
    sums = 3 * (slices - 1) * d**3
    if sums > TRANSFER_SUMS:
        raise SizeLimitError(f"the transfer needs {sums:,} sums, over the limit of {TRANSFER_SUMS:,}")
    a = _weight(n, parts)
    if not math.isfinite(a):
        raise ValidationError(f"the Ising limit's weight A = {a!r} is not finite")
    links = [tuple(t) for t in _slice_terms(n, parts, width)]
    matrices = {t: _z_energies(2 * width, t).reshape(d, d) for t in set(links)}
    ts = np.stack([matrices[t] for t in links])
    e_min, e_max = float(_trace(ts)[0].min()), -float(_trace(-ts)[0].min())
    if not math.isfinite(e_max - e_min):
        raise ValidationError(f"the Ising limit's energies from {e_min!r} to {e_max!r} are not finite")
    tol = 1e-9 * max(abs(e_min), abs(e_max), 1.0)
    fine = 1e-4 * tol / slices
    e, c, split = _trace(ts, (fine, tol), np.int64 if n - width < 63 else object)
    e0 = float(e.min())
    ground = e <= e0 + tol
    if split or np.count_nonzero(ground) != np.count_nonzero(e <= e0 + fine):
        if n <= ENUMERATION_CAP:
            return frustration_degree(build_model(spec))
        raise ValidationError(
            f"the Ising limit has levels within the ground tolerance {tol:.3g} of "
            f"E0 = {e0!r} that the transfer does not separate, and {n} sites "
            f"exceeds the enumeration cap of {ENUMERATION_CAP}")
    count = sum(int(x) for x in c[ground])
    _check_count_digits(math.log10(count))
    return _report(a, parts, [(e0, 1.0)], tol, count)


def ising_gas_frustration_formula(m: int, lam: float) -> float:
    """Closed-form F for the long-range Ising gas."""
    return (1.0 + 2.0 * lam - lam * lam - 1.0 / m) / (1.0 + lam) ** 2


def single_bond_frustration_formula(m: int) -> float:
    """Closed-form F = 1/(2m-1) for the single-flipped-bond ring."""
    return 1.0 / (2 * m - 1)


def shastry_sutherland_frustration_formula(j1: float, j2: float) -> float:
    """Closed-form F of the Shastry-Sutherland lattice, piecewise in J1/J2.
    In the dimer regime J1/J2 <= 1/2 every diagonal is satisfied and the
    nearest-neighbour bonds cancel, E0 = -J2 n/2, so F = 1/(1 + J2/(2 J1));
    above it the Neel state wins, E0 = -2 J1 n + J2 n/2, so F = J2/(4 J1).
    The two agree, at 1/2, at J1/J2 = 1/2."""
    return 1.0 / (1.0 + 0.5 * (j2 / j1)) if 2 * j1 <= j2 else j2 / (4.0 * j1)


def frustration_degree_model(spec) -> FrustrationReport:
    """Frustration degree of a model spec without the 2^n enumeration, with
    the closed form attached where one is known to hold, else None.

    The gases read the popcount sectors of their parts; the rings take
    the transfer over slices of two sites (Majumdar-Ghosh), one site
    (single-bond) or one row of L sites (Shastry-Sutherland).
    """
    width = closed = None
    match spec:
        case IsingGasLR(m, lam, "frustrated"):
            closed = ising_gas_frustration_formula(m, lam)
        case IsingGasLR() | HeisenbergGasLR() | RVBPlaquette():
            pass
        case MajumdarGhosh():
            width, closed = 2, 0.5  # E0 = -A/3 on every ground configuration
        case SingleBondIsing(m, sign):
            width, closed = 1, single_bond_frustration_formula(m) if sign == "frustrated" else None
        case ShastrySutherland(L, j1, j2):
            width, closed = L, shastry_sutherland_frustration_formula(j1, j2)
        case _:
            raise ValidationError(f"no frustration route for {spec!r}")
    rep = _gas_frustration(spec) if width is None else _ring_frustration(spec, width)
    return replace(rep, closed_form=closed)
